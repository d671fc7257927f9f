#!/usr/bin/env python3
"""Before/after record of the end-to-end benchmark, as one JSON file.

Runs alternating pairs of ``e2ebench/run.py --workload all --seed S``: one
run on a parent commit and one on the working tree, the parent first in
even pairs and second in odd ones. Each side runs from its own temporary
copy of ``src/``, ``e2ebench/`` and ``BENCHMARK.json`` with
``PYTHONDONTWRITEBYTECODE=1``: the parent's from ``git archive <ref>``, the
change's copied from the working tree, so uncommitted edits are measured.

The output holds the command, the host (nproc and the Python and numpy
versions), the parent commit, the change side's identity (``commit``,
the working tree's HEAD, and ``dirty``, whether ``src/``, ``e2ebench/`` or
``BENCHMARK.json`` differ from it), each pair's two last-line JSON reports,
and per metric both sides' medians and inclusive quartiles
(``statistics.quantiles(method="inclusive")``) and the number of pairs in
which the change read lower. One ``run.py --trace 1`` per side follows
the pairs, and ``per_layer`` holds, per per-layer metric, each side's
value from it: the median over the traced calls for a time,
the exact count for a counter. The end-to-end ``summary`` comes from the
plain pairs alone, since tracing slows the calls it wraps. Only the
standard library is used. If any run reports ``correct`` false or a
failed call, the tool names that run, writes nothing and exits 1.

Usage, from the repository root:
    python3 tools/bench_pairs.py HEAD BENCH_<pr>.json
    python3 tools/bench_pairs.py HEAD check.json --pairs 2 --seconds 2
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from importlib.metadata import version
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# What e2ebench/run.py reads: the package source, itself and BENCHMARK.json.
TREE = ("src", "e2ebench", "BENCHMARK.json")
SIDES = ("parent", "change")


def git(*args: str, **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, **kwargs)


def parent_copy(ref: str, dest: Path) -> None:
    archive = git("archive", "--format=tar", ref, *TREE).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def change_copy(dest: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", ".e2ebench_work")
    for name in TREE:
        if (ROOT / name).is_dir():
            shutil.copytree(ROOT / name, dest / name, ignore=skip)
        else:
            shutil.copy2(ROOT / name, dest / name)


def run_side(copy: Path, args: list[str]) -> dict:
    """One benchmark run in ``copy``; its last output line, parsed."""
    proc = subprocess.run([sys.executable, "e2ebench/run.py", *args], cwd=copy,
                          env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def failed(label: str, report: dict) -> bool:
    """Whether a run gave a wrong output, said on stderr either way."""
    print(f"{label}: correct={report['correct']} failed={report['failed']}",
          file=sys.stderr)
    if report["correct"] is not True or report["failed"]:
        # A wrong output's timings measure nothing; record none.
        print(f"{label} gave a wrong output; nothing written", file=sys.stderr)
        return True
    return False


def per_layer(traced: dict) -> dict:
    """Each per-layer metric with both sides' values from the traced runs."""
    return {name: {"unit": metric["unit"],
                   **{side: traced[side]["metrics"][name]["value"] for side in SIDES}}
            for name, metric in traced["parent"]["metrics"].items()}


def summarize(pairs: list[dict]) -> dict:
    summary = {}
    for name, metric in pairs[0]["parent"]["metrics"].items():
        values = {side: [p[side]["metrics"][name]["value"] for p in pairs]
                  for side in SIDES}
        entry = {"unit": metric["unit"]}
        for side in SIDES:
            quartiles = statistics.quantiles(values[side], n=4, method="inclusive")
            entry[f"{side}_median"] = statistics.median(values[side])
            entry[f"{side}_quartiles"] = [quartiles[0], quartiles[2]]
        entry["change_lower_in_pairs"] = sum(
            c < p for p, c in zip(values["parent"], values["change"]))
        summary[name] = entry
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ref", help="parent commit to compare against")
    parser.add_argument("out", help="path of the JSON record to write")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="run.py's --seconds; its own default if unset")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("quartiles need --pairs >= 2")

    run_args = ["--workload", "all", "--seed", str(args.seed)]
    if args.seconds is not None:
        run_args += ["--seconds", str(args.seconds)]
    commit = git("rev-parse", "--verify", f"{args.ref}^{{commit}}",
                 text=True).stdout.strip()
    change = {"commit": git("rev-parse", "HEAD", text=True).stdout.strip(),
              # untracked files under TREE count too: change_copy takes them
              "dirty": bool(git("status", "--porcelain", "--", *TREE,
                                text=True).stdout.strip())}
    pairs, traced = [], {}
    with tempfile.TemporaryDirectory() as tmp:
        copies = {side: Path(tmp, side) for side in SIDES}
        for copy in copies.values():
            copy.mkdir()
        parent_copy(commit, copies["parent"])
        change_copy(copies["change"])
        for i in range(args.pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {"order": list(order)}
            for side in order:
                pair[side] = run_side(copies[side], run_args)
                if failed(f"pair {i} {side}", pair[side]):
                    return 1
            pairs.append(pair)
        for side in SIDES:
            traced[side] = run_side(copies[side], [*run_args, "--trace", "1"])
            if failed(f"traced {side}", traced[side]):
                return 1

    record = {
        "command": " ".join(["python3", "e2ebench/run.py", *run_args]),
        "host": {"nproc": os.cpu_count(), "python": sys.version.split()[0],
                 "numpy": version("numpy")},
        "parent": {"commit": commit},
        "change": change,
        "pairs": pairs,
        "summary": summarize(pairs),
        "per_layer": per_layer(traced),
    }
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
