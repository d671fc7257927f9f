#!/usr/bin/env python3
"""End-to-end benchmark of the fsjunta experiment CLI.

Each workload is one fixed CLI config. A run of ``--seconds`` starts four
fresh, single-threaded child interpreters (``child.py``) one after another;
each sets up once and then calls ``run_experiment`` until its quarter of the
run is spent, at least twice. The host is a share of a machine whose speed
for interpreter-bound code moves by up to 1.8x from one minute to the next,
so each time is divided by the slowdown that ``speed.py`` gauges right next
to it, raised to the power with which that time follows the gauge, and
reported in seconds at ``speed.NOMINAL_S``'s speed; the raw times are
printed beside them. A run reports:

* ``setup_s``: median over the children of spawn until ``fsjunta.cli`` is
  imported and the config is validated, over the slowdown the child gauges
  right after it to the power ``SETUP_EXPONENT``;
* ``wall_s``: median over the calls of a ``run_experiment(cfg)`` call, CSV
  and summary writes included, over the slowdown gauged around it to the
  workload's ``exponent``. The first call of each child warms it up and is
  not counted;
* ``peak_rss_mb``: median over the children of the peak resident set size
  after one call.

Every child's output is checked. The CSV without its ``wall_ms`` column and
the ``.summary`` without ``elapsed_s`` are hashed and compared with the
digests in ``reference.json`` when the seed has one, else with the run's
first child; each distinct output is also checked against exact facts of
its experiment. The calls of a child that raised, was truncated or fails a
check count as failed; ``failed_frac`` is failed calls over calls made.

``--trace 1`` traces every other child, and reports the per-layer metrics
of the traced calls (medians; see ``tracer.py``), the import time of
``fsjunta.cli``, and the tracing overhead on the median call. Exact
counters must agree between all traced calls of a run.

Usage, from the repository root:
    python3 e2ebench/run.py --workload learn --seed 1 --seconds 25 --trace 0
    python3 e2ebench/run.py --workload all          # every workload in turn
    python3 e2ebench/run.py --self-test             # a changed CSV byte fails
    python3 e2ebench/run.py --record-reference 0 1  # re-record digests
    python3 e2ebench/run.py --workload tester --record-reference 0
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from tracer import COUNTS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".e2ebench_work"
REFERENCE = HERE / "reference.json"
# Children still running this long after a run's planned end are killed.
GRACE_S = 120
CHILD_ENV = {**os.environ, "PYTHONPATH": str(SRC), "OMP_NUM_THREADS": "1",
             "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# Fresh interpreters per run; each gives one set-up time.
CHILDREN = 4
# Exponents with which set-up and each workload's calls follow speed.py's
# gauge, fitted as the slope between the median log time of the calls above
# and below the median slowdown: 60 set-ups and 150 calls per workload over
# eight minutes on a 2-vCPU Intel Xeon VM. A least-squares slope reads lower,
# because the gauge's own noise flattens it.
SETUP_EXPONENT = 0.5


# -- exact facts each workload's output must satisfy ------------------------

def _records(data: bytes) -> list[dict]:
    return list(csv.DictReader(io.StringIO(data.decode())))


def _failed(facts) -> list[str]:
    return [message for holds, message in facts if not holds]


def _check_learn(p: dict, data: bytes) -> list[str]:
    k, eps, trials = int(p["--k"]), float(p["--eps"]), int(p["--trials"])
    rows = _records(data)
    draws = math.ceil(10 * k / eps * math.log(10 * k))
    return _failed([
        (len(rows) == trials, f"expected {trials} rows"),
        (all(r["fs_calls"] == str(draws) for r in rows),
         f"stage 1 must make {draws} draws"),
        (all(r["status"] in ("success", "stage2-timeout") for r in rows),
         "stage 1 cannot overflow on a k-junta"),
        (all(0 <= float(r["error"]) <= 1 for r in rows), "error outside [0, 1]"),
    ])


def _check_lower_bound(p: dict, data: bytes) -> list[str]:
    draws, trials = int(p["--num-draws"]), int(p["--trials"])
    rows = _records(data)
    return _failed([
        (len(rows) == 2 * trials, f"expected {2 * trials} rows"),
        ([r["source"] for r in rows] == ["accept", "reject"] * trials,
         "sources must alternate accept, reject"),
        (all(r["inconsistent"] == "0" for r in rows if r["source"] == "accept"),
         "an accept transcript cannot be inconsistent"),
        (all(0 <= int(r["collisions"]) < draws for r in rows),
         "collisions outside [0, draws)"),
        (all(int(r["collisions"]) > 0 for r in rows if r["inconsistent"] == "1"),
         "inconsistency needs a collision"),
    ])


def _check_spectrum(p: dict, data: bytes) -> list[str]:
    n, draws = int(p["--n"]), int(p["--num-draws"])
    header, _, body = data.partition(b"\n")
    flat = body.replace(b"\r", b"").replace(b"\n", b",").decode()
    table = np.fromstring(flat, dtype=np.int64, sep=",").reshape(-1, 3)
    masks, weights, observed = table.T
    return _failed([
        (header.rstrip(b"\r") == b"mask,expected_weight,observed", "bad header"),
        (bool(np.all(np.diff(masks) > 0)) and 0 <= masks[0] and masks[-1] < 1 << n,
         "masks must ascend inside [0, 2^n)"),
        (int(weights.sum()) == 1 << (2 * n), "squared weights must sum to 4^n"),
        (bool(np.all(weights % 4 == 0)), "squared even coefficients are 0 mod 4"),
        (int(observed.sum()) == draws, f"draws must total {draws}"),
        (not np.any((observed > 0) & (weights == 0)), "a draw off the support"),
    ])


def _check_tester(p: dict, data: bytes) -> list[str]:
    k, eps, trials = int(p["--k"]), float(p["--eps"]), int(p["--trials"])
    rows = _records(data)
    queries = math.ceil(10 * (k + 1) / eps)
    return _failed([
        (len(rows) == trials, f"expected {trials} rows"),
        (all(r["decision"] == "accept" and r["correct"] == "1" for r in rows),
         "a k-junta is always accepted"),
        (all(r["queries"] == str(queries) for r in rows),
         f"the tester must make {queries} draws"),
        (all(int(r["num_exposed"]) <= k for r in rows),
         "more than k variables exposed"),
    ])


@dataclass(frozen=True)
class Workload:
    args: tuple[str, ...]
    check: Callable[[dict, bytes], list[str]]
    # How strongly a call's time follows speed.py's gauge (see SETUP_EXPONENT);
    # lower the more of it goes to numpy passes over large arrays.
    exponent: float

    @property
    def params(self) -> dict:
        return dict(zip(self.args[1::2], self.args[2::2]))


# Configs are fixed by the benchmark; sizes keep one call near a second or
# under, so that a run times many calls. BENCHMARK.json says why each
# workload is here and which layers it bypasses.
WORKLOADS = {
    "learn": Workload(("learn-junta", "--k", "8", "--n", "20", "--eps", "0.1",
                       "--trials", "5"), _check_learn, 0.45),
    "lower-bound": Workload(("lb-tv", "--r", "9", "--n", "1024",
                             "--num-draws", "3", "--trials", "500"),
                            _check_lower_bound, 1.0),
    "spectrum": Workload(("fs-dist", "--target", "random", "--n", "18",
                          "--num-draws", "250000"), _check_spectrum, 1.0),
    "tester": Workload(("test-junta", "--target", "junta", "--k", "12",
                        "--n", "1024", "--eps", "0.1", "--trials", "20"),
                       _check_tester, 1.0),
}


# -- one child ----------------------------------------------------------------

@dataclass
class Child:
    traced: bool
    out: Path
    errors: list[str] = field(default_factory=list)
    report: dict = field(default_factory=dict)
    setup_s: float = math.nan
    setup_raw_s: float = math.nan
    digest: tuple[str, str] | None = None
    out_bytes: int = 0


def run_child(name: str, seed: int, traced: bool, workdir: Path,
              deadline: float) -> Child:
    """Run one child that repeats the workload until the monotonic clock
    passes ``deadline``; it is killed GRACE_S seconds after that."""
    out = Path(tempfile.mkdtemp(dir=workdir)) / "out.csv"
    child = Child(traced, out)
    cmd = [sys.executable, str(HERE / "child.py"), str(SRC),
           "1" if traced else "0", str(WORK / f"spans-{name}.jsonl"),
           repr(deadline), "--",
           *WORKLOADS[name].args, "--seed", str(seed),
           "--out", str(out)]
    spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=CHILD_ENV, capture_output=True, text=True,
                              timeout=max(1.0, deadline + GRACE_S - spawn))
    except subprocess.TimeoutExpired:
        child.errors.append(f"still running {GRACE_S} s after its deadline")
        return child
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no message"]
        child.errors.append(f"exit {proc.returncode}: {tail[0]}")
        return child
    child.report = json.loads(proc.stdout.strip().splitlines()[-1])
    child.setup_raw_s = child.report["setup_done"] - spawn
    child.setup_s = (child.setup_raw_s
                     / child.report["setup_slowdown"] ** SETUP_EXPONENT)
    exponent = WORKLOADS[name].exponent
    for call in child.report["calls"]:
        call["nominal_s"] = call["wall_s"] / call["slowdown"] ** exponent
    if any(call["truncated"] for call in child.report["calls"]):
        child.errors.append("run was truncated")
    return child


def canonical_outputs(out: Path) -> tuple[bytes, bytes]:
    """The CSV without ``wall_ms`` and the summary without ``elapsed_s``."""
    data = out.read_bytes()
    lines = data.splitlines(keepends=True)
    header = lines[0].rstrip(b"\r\n").split(b",")
    if b"wall_ms" in header:
        col = header.index(b"wall_ms")
        kept = []
        for line in lines:
            body = line.rstrip(b"\r\n")
            fields = body.split(b",")
            kept.append(b",".join(fields[:col] + fields[col + 1:]) + line[len(body):])
        data = b"".join(kept)
    summary = out.with_name(out.name + ".summary").read_bytes()
    summary = b"".join(line for line in summary.splitlines(keepends=True)
                       if not line.startswith(b"elapsed_s ="))
    return data, summary


def judge(name: str, child: Child, expected: tuple[str, str] | None,
          checked: dict) -> None:
    """Hash the child's outputs and record every way they are wrong.

    ``checked`` caches the fact checks per distinct digest within a run.
    """
    if child.errors:
        return
    data, summary = canonical_outputs(child.out)
    child.digest = tuple(hashlib.sha256(b).hexdigest()[:16] for b in (data, summary))
    child.out_bytes = len(data) + len(summary)
    if expected is not None and child.digest != expected:
        child.errors.append(f"output digest {child.digest} != reference {expected}")
    if child.digest not in checked:
        workload = WORKLOADS[name]
        try:
            facts = workload.check(workload.params, data)
        except (ValueError, IndexError, KeyError) as exc:
            facts = [f"unreadable output: {exc!r}"]
        rows = data.count(b"\n") - 1
        if f"rows = {rows}\n".encode() not in summary:
            facts.append("summary row count differs from the CSV")
        checked[child.digest] = facts
    child.errors.extend(checked[child.digest])


# -- one run of a workload ----------------------------------------------------

def load_reference() -> dict:
    return json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}


def expected_digest(reference: dict, name: str, seed: int):
    entry = reference.get(name)
    if entry is None:
        return None
    if entry["args"] != list(WORKLOADS[name].args):
        raise SystemExit(f"reference digests for {name} were recorded with "
                         f"other arguments; re-record them")
    digest = entry["digests"].get(str(seed))
    return tuple(digest.split()) if digest else None


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 workdir: Path) -> list[Child]:
    """CHILDREN fresh children, each repeating the workload until its share
    of ``seconds`` is spent; with tracing every other child is traced."""
    expected = expected_digest(load_reference(), name, seed)
    checked: dict = {}
    children: list[Child] = []
    start = time.monotonic()
    for i in range(CHILDREN):
        deadline = start + seconds * (i + 1) / CHILDREN
        child = run_child(name, seed, traced and i % 2 == 1, workdir, deadline)
        judge(name, child, expected, checked)
        shutil.rmtree(child.out.parent)
        children.append(child)
        if expected is None and child.digest is not None:
            expected = child.digest

    first = None
    for child in children:
        for call in traced_calls([child]):
            counts = exact_counts(call, child)
            first = first or counts
            if counts != first:
                child.errors.append(f"counters differ between runs: "
                                    f"{counts} != {first}")
                break
    return children


def tally(children: list[Child]) -> tuple[int, int]:
    """(calls attempted, calls failed); a child that never reported counts
    as one failed call."""
    calls = [max(1, len(c.report.get("calls", []))) for c in children]
    return sum(calls), sum(n for n, c in zip(calls, children) if c.errors)


def traced_calls(children: list[Child]) -> list[dict]:
    return [call for c in children if c.traced and not c.errors
            for call in c.report["calls"]]


def exact_counts(call: dict, child: Child) -> dict:
    return {key: call["layers"][key] for key in COUNTS} | {
        "harness.out_bytes": child.out_bytes}


def timed_calls(children: list[Child]) -> list[dict]:
    """The calls of the children after each one's first, warm-up call."""
    return [call for c in children for call in c.report["calls"][1:]]


def metrics_of(children: list[Child], traced: bool) -> dict[str, float]:
    ok = [c for c in children if not c.errors]
    plain = timed_calls([c for c in ok if not c.traced])
    if not plain:
        return {}
    out = {
        "setup_s": statistics.median(c.setup_s for c in ok),
        "setup_raw_s": statistics.median(c.setup_raw_s for c in ok),
        "wall_s": statistics.median(call["nominal_s"] for call in plain),
        "wall_raw_s": statistics.median(call["wall_s"] for call in plain),
        "slowdown": statistics.median(call["slowdown"] for call in plain),
        "peak_rss_mb": statistics.median(c.report["peak_rss_mb"] for c in ok
                                         if not c.traced),
    }
    calls = timed_calls([c for c in ok if c.traced])
    if traced and calls:
        for key in calls[0]["layers"]:
            out[key] = statistics.median(call["layers"][key] for call in calls)
        out.update(exact_counts(calls[0], next(c for c in ok if c.traced)))
        out["cli.import_s"] = statistics.median(c.report["import_s"] for c in ok)
        out["trace.overhead_s"] = (
            statistics.median(call["nominal_s"] for call in calls)
            - out["wall_s"])
    return out


# -- reporting ----------------------------------------------------------------

def git_sha() -> str:
    try:
        proc = subprocess.run(["git", "--git-dir", str(ROOT / ".git"),
                               "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(children: list[Child]) -> dict:
    env = next((c.report["env"] for c in children if c.report), {})
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            **env, "git_sha": git_sha()}


def declared_metrics() -> tuple[dict, dict]:
    """Units of the end-to-end and per-layer metrics BENCHMARK.json names."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def report_workload(name: str, seed: int, children: list[Child], traced: bool,
                    values: dict, units: dict) -> None:
    attempted, failed = tally(children)
    print(f"# {name}: {' '.join(WORKLOADS[name].args)} --seed {seed}")
    for i, child in enumerate(children):
        kind = "traced" if child.traced else "plain"
        calls = child.report.get("calls", [])
        wall = (statistics.median(call["nominal_s"] for call in calls[1:])
                if len(calls) > 1 else math.nan)
        status = "; ".join(child.errors) or "ok"
        print(f"#   child {i} {kind}: setup_s={child.setup_s:.4f} "
              f"{len(calls)} calls, median wall_s={wall:.4f} "
              f"digest={child.digest} {status}")
    for key, unit in units.items():
        if key in values:
            print(f"{name} {key} = {values[key]:.6g} {unit}")
    if "wall_s" in values:
        print(f"{name} raw setup_s = {values['setup_raw_s']:.6g} s")
        print(f"{name} raw wall_s = {values['wall_raw_s']:.6g} s at a median "
              f"slowdown of {values['slowdown']:.4g}")
    print(f"{name} failed_frac = {failed / attempted:.4f} "
          f"({failed} of {attempted} calls)")
    print("env " + json.dumps({**environment(children), "workload": name,
                               "args": WORKLOADS[name].args, "seed": seed,
                               "trace": int(traced)}))


def benchmark(names: list[str], seed: int, seconds: float, traced: bool) -> int:
    end_to_end, per_layer = declared_metrics()
    units = per_layer if traced else end_to_end
    attempted = failed = 0
    metrics: dict = {}
    missing: list[str] = []
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK))
    try:
        for name in names:
            children = run_workload(name, seed, seconds, traced, workdir)
            values = metrics_of(children, traced)
            report_workload(name, seed, children, traced, values,
                            {**end_to_end, **per_layer} if traced else units)
            runs, bad = tally(children)
            attempted += runs
            failed += bad
            prefix = f"{name}." if len(names) > 1 else ""
            for key, unit in units.items():
                if key in values:
                    metrics[prefix + key] = {"value": values[key], "unit": unit}
                else:
                    missing.append(prefix + key)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if missing:
        print(f"# metrics not measured: {missing}")
    print(json.dumps({"correct": failed == 0 and not missing,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


# -- maintenance modes --------------------------------------------------------

def self_test() -> int:
    """A single changed CSV byte must make failed_frac non-zero."""
    name, seed = "tester", 0
    expected = expected_digest(load_reference(), name, seed)
    if expected is None:
        print(f"self-test needs a reference digest for {name} seed {seed}")
        return 1
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK))
    try:
        child = run_child(name, seed, False, workdir, time.monotonic())
        judge(name, child, expected, {})
        unchanged_failed = bool(child.errors)
        data = bytearray(child.out.read_bytes())
        pos = data.index(b"\n") + 1          # first byte of the first row
        data[pos] = ord("1") if data[pos] != ord("1") else ord("2")
        child.out.write_bytes(bytes(data))
        changed = Child(False, child.out)
        judge(name, changed, expected, {})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"unchanged output: failed_frac = {float(unchanged_failed)} {child.errors}")
    print(f"one CSV byte changed: failed_frac = {float(bool(changed.errors))} "
          f"{changed.errors}")
    passed = not unchanged_failed and bool(changed.errors)
    print("self-test " + ("passed" if passed else "FAILED"))
    return 0 if passed else 1


def record_reference(names: list[str], seeds: list[int]) -> int:
    """Record output digests of the current code for the given workloads
    and seeds."""
    reference = load_reference()
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK))
    try:
        for name in names:
            workload = WORKLOADS[name]
            entry = reference.get(name)
            if entry is None or entry["args"] != list(workload.args):
                entry = reference[name] = {"args": list(workload.args), "digests": {}}
            for seed in seeds:
                child = run_child(name, seed, False, workdir, time.monotonic())
                judge(name, child, None, {})
                shutil.rmtree(child.out.parent)
                if child.errors:
                    print(f"{name} seed {seed}: {child.errors}", file=sys.stderr)
                    return 1
                entry["digests"][str(seed)] = " ".join(child.digest)
                print(f"{name} seed {seed}: {child.digest}", flush=True)
            entry["digests"] = dict(sorted(entry["digests"].items(),
                                           key=lambda item: int(item[0])))
            REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--record-reference", type=int, nargs="+", metavar="SEED")
    args = parser.parse_args(argv)
    if not (SRC / "fsjunta" / "__init__.py").is_file():
        print(f"no fsjunta sources under {SRC}", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if args.record_reference:
        return record_reference(names, args.record_reference)
    return benchmark(names, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
