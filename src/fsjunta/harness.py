"""Experiment orchestration: seeded trials, CSV rows, summary sidecars.

Every kind but fs-dist runs through one loop, :func:`_run_trials`. Each
trial index runs once per *arm* of the kind (a source or a scenario, or a
single unnamed arm) on the stream of ``np.random.default_rng(seed)``, with
``seed = derive_seed(master_seed, "<kind>[:<arm>]", trial)`` in the row's
``seed`` column, so any single row can be replayed in isolation and
re-running a config reproduces the output byte for byte apart from
wall-time fields. The loop runs every arm on one generator, re-seeded in
place to the state ``default_rng(seed)`` starts from (``pcg64_states``).
It owns the seeding, the time budget and each row's ``wall_ms``; a kind
supplies only its trial and summary functions, and its rows are a list of
dicts. fs-dist is a single draw batch from one table,
counted per mask of the spectrum's support by the oracle's counting draw,
and its rows are one numpy record array with one record per support mask.

Output format: one CSV row per trial and arm, or per support mask for
fs-dist (header is a stable interface), built column-wise in numpy by one
writer, 2^14 rows at a time (non-negative ints as digit matrices, other
values through ``str``), plus a ``<out>.summary`` sidecar of
``key = value`` lines holding the aggregate rates, their two-sided
Chernoff half-width at the configured delta (per arm too, from the arm's
own rows, for lb-collision and scenario), and timing.
"""
from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np

from .boolfn import (N_MAX, JuntaSpec, TruthTable, _as_index, make_parity,
                     mask_from_vars, random_junta_spec, random_table, realize_accept,
                     realize_reject, sample_accept_instance, sample_reject_instance)
from ._kernels import decimal_cells
from .fourier import wht
from .learning import hypothesis_error, learn_junta, stage_one_draws
from .oracles import (DRAWS_MAX, EX_N_MAX, ExOracle, FsOracle, accept_transcript,
                      derive_seed, make_rng, pcg64_states, reject_transcript)
from .stats import chernoff_halfwidth, chi_square_gof
from .testing import (ACCEPT, REJECT, SCENARIO_I, SCENARIO_II, collision_features,
                      collision_guess, histogram_tv, junta_test, junta_test_draws,
                      sample_scenario, scenario_distinguisher, scenario_draws)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BUDGET = 3

#: Largest ambient n a run accepts. A parity target's masks are n-bit
#: Python ints, so its cost grows with n: two test-junta trials at k = 3
#: take 0.25 s and 35 MB at n = 2^20, as at n = 64, but 2.4 s and 93 MB at
#: 2^26 and 9.7 s and 268 MB at 2^28, and ``1 << n`` alone exhausts memory
#: long before n leaves int64.
N_AMBIENT_MAX = 1 << 20

COLUMNS = {
    "test-junta": ["trial", "seed", "decision", "correct", "num_exposed",
                   "queries", "wall_ms"],
    "learn-junta": ["trial", "seed", "status", "fs_calls", "ex_calls",
                    "encountered_fraction", "error", "wall_ms"],
    "lb-collision": ["trial", "seed", "source", "guess", "correct",
                     "collisions", "inconsistent", "wall_ms"],
    "lb-tv": ["trial", "seed", "source", "collisions", "inconsistent",
              "wall_ms"],
    "scenario": ["trial", "seed", "scenario", "guess", "correct",
                 "queries", "wall_ms"],
    "fs-dist": ["mask", "expected_weight", "observed"],
}
KINDS = tuple(COLUMNS)

_TARGETS = {
    "test-junta": ("junta", "parity", "reject", "accept"),
    "learn-junta": ("junta", "parity"),
    "fs-dist": ("and2", "random", "reject", "accept"),
}


class ConfigError(ValueError):
    """The experiment configuration is invalid."""


@dataclass
class ExperimentConfig:
    kind: str
    seed: int = 0
    trials: int = 100
    out: str | None = None
    delta: float = 0.05
    eps: float = 0.1
    k: int | None = None
    n: int | None = None
    r: int | None = None
    num_draws: int | None = None
    c: float = 8.0
    target: str | None = None
    max_ex: int | None = None
    max_seconds: float | None = None


_FIELD_TYPES = {name: next(t for t in get_args(hint) or (hint,) if t is not type(None))
                for name, hint in get_type_hints(ExperimentConfig).items()}


def parse_config_file(path: str | Path) -> dict:
    """Read a ``key = value`` config file; '#' starts a comment."""
    mapping: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        mapping[key.replace("-", "_")] = value
    return mapping


def _parse(kind: type, value):
    """A field's value from its text, or from a value of the field's type.
    An int field refuses floats, integral ones too, and bools."""
    if kind is int and not isinstance(value, str):
        return _as_index(value)
    return kind(value)


def config_from_mapping(mapping: dict) -> ExperimentConfig:
    """Parse each value (a flag's or a file's text) by its field's type; validate."""
    coerced: dict = {}
    for key, value in mapping.items():
        if key not in _FIELD_TYPES:
            raise ConfigError(f"unknown config key {key!r}")
        if value is None:
            continue
        try:
            coerced[key] = _parse(_FIELD_TYPES[key], value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad value for {key!r}: {value!r}") from exc
    if "kind" not in coerced:
        raise ConfigError("config needs a 'kind'")
    return validate_config(ExperimentConfig(**coerced))


def _require(cfg: ExperimentConfig, *names: str) -> None:
    for name in names:
        if getattr(cfg, name) is None:
            raise ConfigError(f"{cfg.kind} needs parameter {name!r}")


def _fit_family(cfg: ExperimentConfig, family: str) -> ExperimentConfig:
    """Check that an accept or reject instance fits in ``cfg.n`` variables;
    an unset n becomes the smallest that fits."""
    if cfg.r < 1:
        raise ConfigError("the instance families need r >= 1")
    # Only so that ``1 << r`` below is never computed for a huge r; the n
    # cap in validate_config refuses every r that passes this check but
    # does not fit.
    if cfg.r > N_AMBIENT_MAX.bit_length():
        raise ConfigError(f"the {family} family at r={cfg.r} needs more than "
                          f"{N_AMBIENT_MAX} variables")
    room = cfg.r + (1 << cfg.r if family == REJECT else 1 << (cfg.r - 1))
    if cfg.n is None:
        return replace(cfg, n=room)
    if cfg.n < room:
        raise ConfigError(f"the {family} family at r={cfg.r} needs n >= {room}")
    return cfg


def validate_config(cfg: ExperimentConfig) -> ExperimentConfig:
    if cfg.kind not in KINDS:
        raise ConfigError(f"unknown experiment kind {cfg.kind!r}")
    if not -2**63 <= cfg.seed < 2**63:
        raise ConfigError("seed must fit in a signed 64-bit integer")
    if cfg.trials < 1:
        raise ConfigError("trials must be at least 1")
    if not 0 < cfg.delta <= 1:
        raise ConfigError("delta must be in (0, 1]")
    if not 0 < cfg.eps <= 1:
        raise ConfigError("eps must be in (0, 1]")
    for name in ("c", "max_seconds"):
        if getattr(cfg, name) is not None and not math.isfinite(getattr(cfg, name)):
            raise ConfigError(f"{name} must be finite")
    if cfg.max_seconds is not None and cfg.max_seconds < 0:
        raise ConfigError("max_seconds must be non-negative")
    for name in ("k", "n", "r", "num_draws", "max_ex"):
        if getattr(cfg, name) is not None and getattr(cfg, name) < 0:
            raise ConfigError(f"{name} must be non-negative")
    if cfg.out is not None:
        # Checked here, not when writing, so a bad path fails before any trial.
        out = Path(cfg.out)
        if out.is_dir() or not next(p for p in out.parents if p.exists()).is_dir():
            raise ConfigError(f"out {cfg.out!r} must name a file in a directory")
        if out.with_name(out.name + ".summary").is_dir():
            raise ConfigError(f"the summary sidecar '{cfg.out}.summary' is a directory")

    if cfg.kind in _TARGETS:
        if cfg.target is None:
            cfg = replace(cfg, target=_TARGETS[cfg.kind][0])
        elif cfg.target not in _TARGETS[cfg.kind]:
            raise ConfigError(
                f"{cfg.kind} target must be one of {_TARGETS[cfg.kind]}")
    elif cfg.target is not None:
        raise ConfigError(f"{cfg.kind} takes no target")

    if cfg.kind == "test-junta":
        if cfg.target in ("junta", "parity"):
            _require(cfg, "k", "n")
            if cfg.target == "junta" and not 1 <= cfg.k <= min(cfg.n, N_MAX):
                raise ConfigError(f"a junta target needs 1 <= k <= min(n, {N_MAX})")
            if cfg.target == "parity" and cfg.k >= cfg.n:
                raise ConfigError("a parity on k + 1 variables needs k < n")
        else:
            _require(cfg, "r", "n")
            cfg = _fit_family(cfg, cfg.target)
            if cfg.k is None:
                cfg = replace(cfg, k=cfg.r + (1 << (cfg.r - 1)))
    elif cfg.kind == "learn-junta":
        _require(cfg, "k", "n")
        if not 1 <= cfg.k <= cfg.n:
            raise ConfigError("learn-junta needs 1 <= k <= n")
        if cfg.n > EX_N_MAX:
            raise ConfigError(
                f"learn-junta needs n <= {EX_N_MAX} for int64 uniform examples")
        if cfg.k > N_MAX:
            raise ConfigError(f"learn-junta needs k <= {N_MAX} for a dense inner table")
    elif cfg.kind in ("lb-collision", "lb-tv"):
        _require(cfg, "r", "n", "num_draws")
        cfg = _fit_family(cfg, REJECT)  # the larger of the two families
    elif cfg.kind == "scenario":
        _require(cfg, "k")
        if not 1 <= cfg.k < N_MAX:
            raise ConfigError(f"scenario needs 1 <= k < {N_MAX} for a dense table")
        if cfg.c < 1:
            raise ConfigError("scenario needs c >= 1")
        if cfg.n is None:
            cfg = replace(cfg, n=cfg.k + 1)
        if cfg.n < cfg.k + 1:
            raise ConfigError("need n >= k + 1")
    elif cfg.kind == "fs-dist":
        if cfg.num_draws is None:
            cfg = replace(cfg, num_draws=10**6)
        if cfg.target == "random":
            _require(cfg, "n")
        elif cfg.target in ("reject", "accept"):
            _require(cfg, "r")
            cfg = _fit_family(cfg, cfg.target)
        if cfg.target != "and2" and not 1 <= cfg.n <= N_MAX:
            raise ConfigError(f"fs-dist needs 1 <= n <= {N_MAX} for a dense table")
    if cfg.kind in ("lb-collision", "lb-tv", "fs-dist") and cfg.num_draws < 1:
        raise ConfigError(f"{cfg.kind} needs num_draws >= 1")
    if cfg.n is not None and cfg.n > N_AMBIENT_MAX:
        raise ConfigError(f"n must be at most {N_AMBIENT_MAX}")
    draws = _draws_per_trial(cfg)
    if draws > DRAWS_MAX:
        raise ConfigError(f"a trial would draw {draws} subsets; "
                          f"at most {DRAWS_MAX} are allowed")
    return cfg


def _draws_per_trial(cfg: ExperimentConfig) -> int | float:
    """The draws one trial of a valid config asks for, computed by the
    helper the library draws with; infinite if a float budget overflows."""
    try:
        if cfg.kind == "test-junta":
            return junta_test_draws(cfg.k, cfg.eps)
        if cfg.kind == "learn-junta":
            return stage_one_draws(cfg.k, cfg.eps)
        if cfg.kind == "scenario":
            return scenario_draws(cfg.k, cfg.c)
    except OverflowError:
        return math.inf
    return cfg.num_draws


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    rows: list[dict] | np.ndarray
    summary: dict
    truncated: bool = False
    out_path: Path | None = None
    summary_path: Path | None = None


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else math.nan


def _halfwidth(count: int, delta: float) -> float:
    """Chernoff half-width of a rate over ``count`` rows; NaN over none."""
    return chernoff_halfwidth(count, delta) if count else math.nan


def _arm_rates(cfg: ExperimentConfig, rows: list[dict], rate: str, field: str,
               arms: dict[str, str]) -> dict:
    """Per arm, keyed by its suffix in ``arms``: the rate of correct rows
    among those whose ``field`` is the arm, and that rate's half-width,
    sized from the arm's own row count."""
    summary = {}
    for arm, suffix in arms.items():
        correct = [r["correct"] for r in rows if r[field] == arm]
        summary[f"{rate}_{suffix}"] = _mean(correct)
        summary[f"interval_halfwidth_{suffix}"] = _halfwidth(len(correct), cfg.delta)
    return summary


def _test_junta_trial(cfg: ExperimentConfig, rng: np.random.Generator, arm) -> dict:
    if cfg.target == "junta":
        fs = FsOracle.from_junta(random_junta_spec(cfg.n, cfg.k, rng), rng)
    elif cfg.target == "parity":
        chosen = rng.choice(cfg.n, size=cfg.k + 1, replace=False)
        fs = FsOracle.for_parity(cfg.n, mask_from_vars(chosen), rng)
    elif cfg.target == "reject":
        fs = FsOracle.for_reject(sample_reject_instance(cfg.r, cfg.n, rng), rng)
    else:
        fs = FsOracle.for_accept(sample_accept_instance(cfg.r, cfg.n, rng), rng)
    verdict = junta_test(fs, cfg.k, cfg.eps)
    expected = ACCEPT if cfg.target in ("junta", "accept") else REJECT
    return {
        "decision": verdict.decision,
        "correct": int(verdict.decision == expected),
        "num_exposed": len(verdict.exposed),
        "queries": verdict.queries_used,
    }


def _test_junta_summary(cfg: ExperimentConfig, rows: list[dict]) -> dict:
    return {
        "accept_rate": _mean(r["decision"] == ACCEPT for r in rows),
        "reject_rate": _mean(r["decision"] == REJECT for r in rows),
        "correct_rate": _mean(r["correct"] for r in rows),
        "primary_metric": "correct_rate",
    }


def _learn_junta_trial(cfg: ExperimentConfig, rng: np.random.Generator, arm) -> dict:
    if cfg.target == "junta":
        spec = random_junta_spec(cfg.n, cfg.k, rng)
        fs = FsOracle.from_junta(spec, rng)
    else:
        chosen = rng.choice(cfg.n, size=cfg.k, replace=False)
        spec = JuntaSpec(cfg.n, sorted(int(v) for v in chosen),
                         make_parity(cfg.k, (1 << cfg.k) - 1))
        fs = FsOracle.for_parity(cfg.n, mask_from_vars(chosen), rng)
    ex = ExOracle(spec, rng)
    report = learn_junta(fs, ex, cfg.k, cfg.eps, cfg.max_ex)
    return {
        "status": report.status,
        "fs_calls": report.fs_calls,
        "ex_calls": report.ex_calls,
        "encountered_fraction": float(report.encountered_fraction),
        "error": (float(hypothesis_error(spec, report.hypothesis))
                  if report.hypothesis is not None else math.nan),
    }


def _learn_junta_summary(cfg: ExperimentConfig, rows: list[dict]) -> dict:
    return {
        "success_rate": _mean(r["status"] == "success" for r in rows),
        "mean_error": _mean(r["error"] for r in rows if not math.isnan(r["error"])),
        "within_eps_rate": _mean(r["error"] <= cfg.eps for r in rows),
        "primary_metric": "within_eps_rate",
    }


def _collision_trial(cfg: ExperimentConfig, rng: np.random.Generator, source: str) -> dict:
    """One transcript from a fresh instance of ``source``, as its features."""
    if source == ACCEPT:
        inst = sample_accept_instance(cfg.r, cfg.n, rng)
        transcript = accept_transcript(inst, rng, cfg.num_draws)
    else:
        inst = sample_reject_instance(cfg.r, cfg.n, rng)
        transcript = reject_transcript(inst, rng, cfg.num_draws)
    collisions, inconsistent = collision_features(*transcript)
    return {"source": source, "collisions": collisions,
            "inconsistent": int(inconsistent)}


def _lb_collision_trial(cfg: ExperimentConfig, rng: np.random.Generator,
                        source: str) -> dict:
    row = _collision_trial(cfg, rng, source)
    guess = collision_guess(row["inconsistent"])
    row.update(guess=guess, correct=int(guess == source))
    return row


def _lb_collision_summary(cfg: ExperimentConfig, rows: list[dict]) -> dict:
    return {
        "success_rate": _mean(r["correct"] for r in rows),
        **_arm_rates(cfg, rows, "success_rate", "source",
                     {ACCEPT: "accept", REJECT: "reject"}),
        "primary_metric": "success_rate",
    }


def _lb_tv_summary(cfg: ExperimentConfig, rows: list[dict]) -> dict:
    hist = {ACCEPT: Counter(), REJECT: Counter()}
    for row in rows:
        hist[row["source"]][row["collisions"], row["inconsistent"]] += 1
    return {
        "tv_lower_bound": histogram_tv(hist[ACCEPT], hist[REJECT], len(rows) // 2),
        "accept_inconsistent_total": sum(
            r["inconsistent"] for r in rows if r["source"] == ACCEPT),
        "primary_metric": "tv_lower_bound",
    }


def _scenario_trial(cfg: ExperimentConfig, rng: np.random.Generator, which: str) -> dict:
    fs = FsOracle.from_junta(sample_scenario(which, cfg.k, cfg.n, rng), rng)
    guess = scenario_distinguisher(fs, cfg.k, cfg.c)
    return {"scenario": which, "guess": guess, "correct": int(guess == which),
            "queries": fs.calls}


def _scenario_summary(cfg: ExperimentConfig, rows: list[dict]) -> dict:
    return {
        "correct_rate": _mean(r["correct"] for r in rows),
        **_arm_rates(cfg, rows, "correct_rate", "scenario",
                     {SCENARIO_I: "scenario_i", SCENARIO_II: "scenario_ii"}),
        "primary_metric": "correct_rate",
    }


# kind -> (arms, trial(cfg, rng, arm) -> row fields, summary(cfg, rows)).
# Every arm runs once per trial index, on its own "<kind>:<arm>" stream;
# the single arm None uses the stream "<kind>".
_TRIALS = {
    "test-junta": ((None,), _test_junta_trial, _test_junta_summary),
    "learn-junta": ((None,), _learn_junta_trial, _learn_junta_summary),
    "lb-collision": ((ACCEPT, REJECT), _lb_collision_trial, _lb_collision_summary),
    "lb-tv": ((ACCEPT, REJECT), _collision_trial, _lb_tv_summary),
    "scenario": ((SCENARIO_I, SCENARIO_II), _scenario_trial, _scenario_summary),
}


#: Trials whose seeds :func:`_run_trials` derives and hashes at once. Any
#: size gives the same streams and bytes, so it is no setting; 64 spreads
#: the batch hash's fixed cost (about 50 µs, some five ``default_rng``
#: calls) over 64-128 seeds, and a time budget that cuts a block wastes at
#: most 63 trials' seeds.
_SEED_BLOCK = 64


def _run_trials(cfg: ExperimentConfig, start: float) -> tuple[list[dict], bool]:
    """All rows of a trial kind, and whether the time budget cut them short.

    Every arm runs on one ``Generator(PCG64)``, re-seeded in place to the
    state a fresh ``np.random.default_rng(seed)`` starts from, so its stream
    is that generator's. Seeds are derived here, outside the trial
    functions, ``_SEED_BLOCK`` trials (all arms) at a time, and their states
    hashed in one batch by ``pcg64_states``: a fresh generator per arm, about
    10 µs of SeedSequence code, was a quarter of a lower-bound arm's cost."""
    arms, trial_fn, _ = _TRIALS[cfg.kind]
    labels = [cfg.kind if arm is None else f"{cfg.kind}:{arm}" for arm in arms]
    rng = np.random.Generator(np.random.PCG64(0))  # every arm re-seeds it
    rows = []
    for trial in range(cfg.trials):
        if (cfg.max_seconds is not None
                and time.perf_counter() - start >= cfg.max_seconds):
            return rows, True
        if trial % _SEED_BLOCK == 0:
            seeds = [derive_seed(cfg.seed, label, index) for index in
                     range(trial, min(trial + _SEED_BLOCK, cfg.trials))
                     for label in labels]
            block = zip(seeds, pcg64_states(seeds))
        for arm in arms:
            t0 = time.perf_counter()
            seed, rng.bit_generator.state = next(block)
            row = {"trial": trial, "seed": seed}
            row.update(trial_fn(cfg, rng, arm))
            row["wall_ms"] = round(1e3 * (time.perf_counter() - t0), 3)
            rows.append(row)
    return rows, False


def _fs_dist_table(cfg: ExperimentConfig, rng: np.random.Generator):
    if cfg.target == "and2":
        return TruthTable(2, np.array([1, 1, 1, -1], dtype=np.int8))
    if cfg.target == "random":
        return random_table(cfg.n, rng)
    if cfg.target == "reject":
        return realize_reject(sample_reject_instance(cfg.r, cfg.n, rng))
    return realize_accept(sample_accept_instance(cfg.r, cfg.n, rng))


def _run_fs_dist(cfg: ExperimentConfig) -> tuple[np.ndarray, dict]:
    """One draw batch from one table's sampler, counted per subset mask.
    The rows are a record array: one record per mask of the spectrum's
    support, masks ascending. No draw lands off the support, so these are
    also the masks with a nonzero count.

    Past the spectrum, every array is as long as the support: the oracle
    counts its draws there, and it is dropped, with its prefix sums, once
    it has counted, so the chi-square runs beside the records alone."""
    rng = make_rng(cfg.seed, cfg.kind, 0)
    counted = FsOracle.from_spectrum(
        wht(_fs_dist_table(cfg, rng)), rng).draw_counts(cfg.num_draws)
    rows = np.rec.fromarrays(counted, names=COLUMNS["fs-dist"])
    del counted  # the records hold copies
    stat, pvalue, dof = chi_square_gof(rows["observed"], rows["expected_weight"])
    summary = {
        "chi2": stat,
        "dof": dof,
        "p_value": pvalue,
        "gof_pass": int(pvalue >= 1e-3),
        "draws": cfg.num_draws,
        "primary_metric": "p_value",
    }
    return rows, summary


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Execute all trials of a validated config and write the outputs."""
    cfg = validate_config(cfg)
    start = time.perf_counter()
    if cfg.kind == "fs-dist":
        rows, summary = _run_fs_dist(cfg)
        truncated = False
    else:
        rows, truncated = _run_trials(cfg, start)
        summary = _TRIALS[cfg.kind][2](cfg, rows)

    full_summary = {
        "kind": cfg.kind,
        "seed": cfg.seed,
        "trials": cfg.trials,
        "rows": len(rows),
        "truncated": int(truncated),
    }
    full_summary.update(summary)
    full_summary["chernoff_delta"] = cfg.delta
    full_summary["interval_halfwidth"] = _halfwidth(len(rows), cfg.delta)
    full_summary["elapsed_s"] = round(time.perf_counter() - start, 6)

    result = ExperimentResult(cfg, rows, full_summary, truncated)
    if cfg.out is not None:
        result.out_path, result.summary_path = _write_outputs(cfg, rows,
                                                              full_summary)
    return result


#: Rows the CSV writer builds at once. For the 261,339 rows of an fs-dist
#: run at n = 18, chunks of 2^14 or 2^15 rows write in 18-21 ms, 2^12 in
#: 25-29 ms and the whole body at once in 27-29 ms (in-process, best of
#: 15, two rounds, 2-vCPU Xeon VM).
_CSV_CHUNK = 1 << 14


def _cells(column) -> np.ndarray:
    """One CSV column as a ``(width, N)`` uint8 matrix of cell bytes, each
    cell padded with NUL bytes.

    An integer array of non-negative values (fs-dist's columns) is encoded
    by :func:`decimal_cells`. Every other column, a trial row's list of
    values included, is ``str(value)`` per cell, packed in an ``S`` array,
    which pads it with NUL bytes."""
    if isinstance(column, np.ndarray):
        if column.dtype.kind in "iu" and column.min() >= 0:
            return decimal_cells(column)
        column = column.tolist()
    text = np.array([str(value).encode() for value in column], dtype=bytes)
    return text.view(np.uint8).reshape(len(column), -1).T


def _csv_body(names: list[str], rows: list[dict] | np.ndarray) -> bytes:
    """The CSV lines of ``rows``: every column a NUL-padded byte matrix
    from :func:`_cells`, stacked with constant separator rows; the stack's
    bytes, row by row, with every NUL deleted."""
    blocks = []
    for name, sep in zip(names, [b","] * (len(names) - 1) + [b"\r\n"]):
        column = rows[name] if isinstance(rows, np.ndarray) else [r[name] for r in rows]
        blocks += [_cells(column),
                   np.frombuffer(sep, np.uint8)[:, None].repeat(len(rows), 1)]
    return np.concatenate(blocks).T.tobytes().translate(None, b"\0")


def _write_outputs(cfg: ExperimentConfig, rows: list[dict] | np.ndarray,
                   summary: dict):
    """Write the rows as CSV and the summary sidecar.

    Fields go in ``COLUMNS`` order with CRLF line ends and no quoting (no
    field holds a comma, a quote or a NUL byte); each value is written as
    ``str`` gives it, so floats by their ``repr`` and NaN as ``nan``. The
    body is built in numpy by :func:`_csv_body`, ``_CSV_CHUNK`` rows at a
    time, so its working arrays stay small however many rows there are. A
    chunk's digit widths are its own, which the NUL deletion makes
    irrelevant to the bytes."""
    out_path = Path(cfg.out)
    if out_path.parent != Path(""):
        out_path.parent.mkdir(parents=True, exist_ok=True)
    names = COLUMNS[cfg.kind]
    with out_path.open("wb") as fh:
        fh.write(",".join(names).encode() + b"\r\n")
        for start in range(0, len(rows), _CSV_CHUNK):
            fh.write(_csv_body(names, rows[start:start + _CSV_CHUNK]))
    summary_path = out_path.with_name(out_path.name + ".summary")
    with summary_path.open("w") as fh:
        for key, value in summary.items():
            fh.write(f"{key} = {value}\n")
    return out_path, summary_path
