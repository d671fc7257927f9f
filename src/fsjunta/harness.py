"""Experiment orchestration: seeded trials, CSV rows, summary sidecars.

Every trial is a pure function of (config, trial index): its generator is
seeded with ``derive_seed(master_seed, "<kind>[:<source>]", trial)``, so any
single row can be replayed in isolation and re-running a config reproduces
the output byte for byte apart from wall-time fields. Trials run
sequentially here; since rows never share state, any parallel schedule
would produce the identical file after the index-ordered merge.

Output format: one CSV row per trial (header is a stable interface) plus a
``<out>.summary`` sidecar of ``key = value`` lines holding the aggregate
rates, their two-sided Chernoff half-width at the configured delta, and
timing.
"""
from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .boolfn import (
    N_MAX,
    JuntaSpec,
    TruthTable,
    make_parity,
    mask_from_vars,
    random_junta_spec,
    random_table,
    realize_accept,
    realize_reject,
    sample_accept_instance,
    sample_reject_instance,
)
from .fourier import wht
from .learning import hypothesis_error, learn_junta
from .oracles import (
    EX_N_MAX,
    ExOracle,
    FsOracle,
    derive_seed,
    fresh_accept_source,
    fresh_reject_source,
    make_rng,
)
from .stats import chernoff_halfwidth, chi_square_gof
from .testing import (
    ACCEPT,
    REJECT,
    SCENARIO_I,
    SCENARIO_II,
    collision_features,
    junta_test,
    sample_scenario,
    scenario_distinguisher,
    scenario_oracle,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BUDGET = 3

KINDS = ("test-junta", "learn-junta", "lb-collision", "lb-tv", "scenario", "fs-dist")

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


_INT_FIELDS = {"seed", "trials", "k", "n", "r", "num_draws", "max_ex"}
_FLOAT_FIELDS = {"delta", "eps", "c", "max_seconds"}


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


def config_from_mapping(mapping: dict) -> ExperimentConfig:
    known = {f.name for f in fields(ExperimentConfig)}
    coerced: dict = {}
    for key, value in mapping.items():
        if key not in known:
            raise ConfigError(f"unknown config key {key!r}")
        if value is None:
            continue
        try:
            if key in _INT_FIELDS:
                coerced[key] = int(value)
            elif key in _FLOAT_FIELDS:
                coerced[key] = float(value)
            else:
                coerced[key] = str(value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad value for {key!r}: {value!r}") from exc
    if "kind" not in coerced:
        raise ConfigError("config needs a 'kind'")
    return validate_config(ExperimentConfig(**coerced))


def _require(cfg: ExperimentConfig, name: str) -> None:
    if getattr(cfg, name) is None:
        raise ConfigError(f"{cfg.kind} needs parameter {name!r}")


def validate_config(cfg: ExperimentConfig) -> ExperimentConfig:
    if cfg.kind not in KINDS:
        raise ConfigError(f"unknown experiment kind {cfg.kind!r}")
    if cfg.trials < 1:
        raise ConfigError("trials must be at least 1")
    if not 0 < cfg.delta <= 1:
        raise ConfigError("delta must be in (0, 1]")
    if not 0 < cfg.eps <= 1:
        raise ConfigError("eps must be in (0, 1]")

    if cfg.kind in _TARGETS:
        default_target = _TARGETS[cfg.kind][0]
        if cfg.target is None:
            cfg = replace(cfg, target=default_target)
        elif cfg.target not in _TARGETS[cfg.kind]:
            raise ConfigError(
                f"{cfg.kind} target must be one of {_TARGETS[cfg.kind]}")

    if cfg.kind == "test-junta":
        if cfg.target in ("junta", "parity"):
            _require(cfg, "k")
            _require(cfg, "n")
        else:
            _require(cfg, "r")
            _require(cfg, "n")
            if cfg.k is None:
                cfg = replace(cfg, k=cfg.r + (1 << (cfg.r - 1)))
    elif cfg.kind == "learn-junta":
        _require(cfg, "k")
        _require(cfg, "n")
        if cfg.n > EX_N_MAX:
            raise ConfigError(
                f"learn-junta needs n <= {EX_N_MAX} for int64 uniform examples")
        if cfg.k > N_MAX:
            raise ConfigError(f"learn-junta needs k <= {N_MAX} for a dense inner table")
    elif cfg.kind in ("lb-collision", "lb-tv"):
        _require(cfg, "r")
        _require(cfg, "n")
        _require(cfg, "num_draws")
        if cfg.n < cfg.r + (1 << cfg.r):
            raise ConfigError("need n >= r + 2^r so both families fit")
    elif cfg.kind == "scenario":
        _require(cfg, "k")
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
            if cfg.n is None:
                leaves = 1 << cfg.r if cfg.target == "reject" else 1 << (cfg.r - 1)
                cfg = replace(cfg, n=cfg.r + leaves)
    return cfg


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    rows: list[dict]
    summary: dict
    truncated: bool = False
    out_path: Path | None = None
    summary_path: Path | None = None


def _rate(rows: list[dict], predicate) -> float:
    if not rows:
        return math.nan
    return sum(1 for row in rows if predicate(row)) / len(rows)


class _TrialClock:
    """Tracks elapsed time and flags when the optional budget is spent."""

    def __init__(self, max_seconds: float | None):
        self.start = time.perf_counter()
        self.max_seconds = max_seconds

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def exhausted(self) -> bool:
        return self.max_seconds is not None and self.elapsed() >= self.max_seconds


def _run_test_junta(cfg: ExperimentConfig, clock: _TrialClock):
    rows = []
    truncated = False
    expected = ACCEPT if cfg.target in ("junta", "accept") else REJECT
    for trial in range(cfg.trials):
        if clock.exhausted():
            truncated = True
            break
        t0 = time.perf_counter()
        seed = derive_seed(cfg.seed, cfg.kind, trial)
        rng = make_rng(cfg.seed, cfg.kind, trial)
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
        rows.append({
            "trial": trial,
            "seed": seed,
            "decision": verdict.decision,
            "correct": int(verdict.decision == expected),
            "num_exposed": len(verdict.exposed),
            "queries": verdict.queries_used,
            "wall_ms": round(1e3 * (time.perf_counter() - t0), 3),
        })
    summary = {
        "accept_rate": _rate(rows, lambda r: r["decision"] == ACCEPT),
        "reject_rate": _rate(rows, lambda r: r["decision"] == REJECT),
        "correct_rate": _rate(rows, lambda r: r["correct"]),
        "primary_metric": "correct_rate",
    }
    return rows, summary, truncated


def _run_learn_junta(cfg: ExperimentConfig, clock: _TrialClock):
    rows = []
    truncated = False
    for trial in range(cfg.trials):
        if clock.exhausted():
            truncated = True
            break
        t0 = time.perf_counter()
        seed = derive_seed(cfg.seed, cfg.kind, trial)
        rng = make_rng(cfg.seed, cfg.kind, trial)
        if cfg.target == "junta":
            spec = random_junta_spec(cfg.n, cfg.k, rng)
            fs = FsOracle.from_junta(spec, rng)
        else:
            chosen = rng.choice(cfg.n, size=cfg.k, replace=False)
            spec = JuntaSpec(cfg.n, sorted(int(v) for v in chosen),
                             make_parity(cfg.k, (1 << cfg.k) - 1))
            fs = FsOracle.for_parity(cfg.n, mask_from_vars(chosen), rng)
        ex = ExOracle.from_junta(spec, rng)
        report = learn_junta(fs, ex, cfg.k, cfg.eps, cfg.max_ex)
        error = (float(hypothesis_error(spec, report.hypothesis))
                 if report.hypothesis is not None else math.nan)
        rows.append({
            "trial": trial,
            "seed": seed,
            "status": report.status,
            "fs_calls": report.fs_calls,
            "ex_calls": report.ex_calls,
            "encountered_fraction": float(report.encountered_fraction),
            "error": error,
            "wall_ms": round(1e3 * (time.perf_counter() - t0), 3),
        })
    scored = [r for r in rows if not math.isnan(r["error"])]
    summary = {
        "success_rate": _rate(rows, lambda r: r["status"] == "success"),
        "mean_error": (sum(r["error"] for r in scored) / len(scored)
                       if scored else math.nan),
        "within_eps_rate": _rate(rows, lambda r: (not math.isnan(r["error"]))
                                 and r["error"] <= cfg.eps),
        "primary_metric": "within_eps_rate",
    }
    return rows, summary, truncated


def _run_lb_collision(cfg: ExperimentConfig, clock: _TrialClock):
    rows = []
    truncated = False
    sources = ((ACCEPT, fresh_accept_source(cfg.r, cfg.n)),
               (REJECT, fresh_reject_source(cfg.r, cfg.n)))
    for trial in range(cfg.trials):
        if clock.exhausted():
            truncated = True
            break
        for name, source in sources:
            t0 = time.perf_counter()
            label = f"{cfg.kind}:{name}"
            seed = derive_seed(cfg.seed, label, trial)
            rng = make_rng(cfg.seed, label, trial)
            slots, x_masks = source(rng, cfg.num_draws)
            collisions, inconsistent = collision_features(slots, x_masks)
            guess = REJECT if inconsistent else ACCEPT
            rows.append({
                "trial": trial,
                "seed": seed,
                "source": name,
                "guess": guess,
                "correct": int(guess == name),
                "collisions": collisions,
                "inconsistent": int(inconsistent),
                "wall_ms": round(1e3 * (time.perf_counter() - t0), 3),
            })
    summary = {
        "success_rate": _rate(rows, lambda r: r["correct"]),
        "success_rate_accept": _rate([r for r in rows if r["source"] == ACCEPT],
                                     lambda r: r["correct"]),
        "success_rate_reject": _rate([r for r in rows if r["source"] == REJECT],
                                     lambda r: r["correct"]),
        "primary_metric": "success_rate",
    }
    return rows, summary, truncated


def _run_lb_tv(cfg: ExperimentConfig, clock: _TrialClock):
    rows = []
    truncated = False
    sources = ((ACCEPT, fresh_accept_source(cfg.r, cfg.n)),
               (REJECT, fresh_reject_source(cfg.r, cfg.n)))
    for trial in range(cfg.trials):
        if clock.exhausted():
            truncated = True
            break
        for name, source in sources:
            t0 = time.perf_counter()
            label = f"{cfg.kind}:{name}"
            seed = derive_seed(cfg.seed, label, trial)
            rng = make_rng(cfg.seed, label, trial)
            collisions, inconsistent = collision_features(
                *source(rng, cfg.num_draws))
            rows.append({
                "trial": trial,
                "seed": seed,
                "source": name,
                "collisions": collisions,
                "inconsistent": int(inconsistent),
                "wall_ms": round(1e3 * (time.perf_counter() - t0), 3),
            })
    hist: dict[str, dict] = {ACCEPT: {}, REJECT: {}}
    for row in rows:
        key = (row["collisions"], row["inconsistent"])
        hist[row["source"]][key] = hist[row["source"]].get(key, 0) + 1
    per_source = max(1, len(rows) // 2)
    keys = set(hist[ACCEPT]) | set(hist[REJECT])
    tv = 0.5 * sum(abs(hist[ACCEPT].get(z, 0) - hist[REJECT].get(z, 0))
                   for z in keys) / per_source
    summary = {
        "tv_lower_bound": tv,
        "accept_inconsistent_total": sum(
            r["inconsistent"] for r in rows if r["source"] == ACCEPT),
        "primary_metric": "tv_lower_bound",
    }
    return rows, summary, truncated


def _run_scenario(cfg: ExperimentConfig, clock: _TrialClock):
    rows = []
    truncated = False
    for trial in range(cfg.trials):
        if clock.exhausted():
            truncated = True
            break
        for which in (SCENARIO_I, SCENARIO_II):
            t0 = time.perf_counter()
            label = f"{cfg.kind}:{which}"
            seed = derive_seed(cfg.seed, label, trial)
            rng = make_rng(cfg.seed, label, trial)
            fn = sample_scenario(which, cfg.k, cfg.n, rng)
            fs = scenario_oracle(fn, rng)
            guess = scenario_distinguisher(fs, cfg.k, cfg.c)
            rows.append({
                "trial": trial,
                "seed": seed,
                "scenario": which,
                "guess": guess,
                "correct": int(guess == which),
                "queries": fs.calls,
                "wall_ms": round(1e3 * (time.perf_counter() - t0), 3),
            })
    summary = {
        "correct_rate": _rate(rows, lambda r: r["correct"]),
        "correct_rate_scenario_i": _rate(
            [r for r in rows if r["scenario"] == SCENARIO_I],
            lambda r: r["correct"]),
        "correct_rate_scenario_ii": _rate(
            [r for r in rows if r["scenario"] == SCENARIO_II],
            lambda r: r["correct"]),
        "primary_metric": "correct_rate",
    }
    return rows, summary, truncated


def _fs_dist_table(cfg: ExperimentConfig, rng: np.random.Generator):
    if cfg.target == "and2":
        return TruthTable(2, np.array([1, 1, 1, -1], dtype=np.int8))
    if cfg.target == "random":
        return random_table(cfg.n, rng)
    if cfg.target == "reject":
        return realize_reject(sample_reject_instance(cfg.r, cfg.n, rng))
    return realize_accept(sample_accept_instance(cfg.r, cfg.n, rng))


def _run_fs_dist(cfg: ExperimentConfig, clock: _TrialClock):
    rng = make_rng(cfg.seed, cfg.kind, 0)
    table = _fs_dist_table(cfg, rng)
    weights = wht(table).coeffs.astype(np.int64) ** 2
    fs = FsOracle.from_table(table, rng)
    masks = np.asarray(fs.draw_batch(cfg.num_draws))
    observed = np.bincount(masks, minlength=weights.size)
    stat, pvalue, dof = chi_square_gof(observed, weights)
    rows = []
    for mask in np.flatnonzero((weights > 0) | (observed > 0)):
        rows.append({
            "mask": int(mask),
            "expected_weight": int(weights[mask]),
            "observed": int(observed[mask]),
        })
    summary = {
        "chi2": stat,
        "dof": dof,
        "p_value": pvalue,
        "gof_pass": int(pvalue >= 1e-3),
        "draws": cfg.num_draws,
        "primary_metric": "p_value",
    }
    return rows, summary, False


_RUNNERS = {
    "test-junta": _run_test_junta,
    "learn-junta": _run_learn_junta,
    "lb-collision": _run_lb_collision,
    "lb-tv": _run_lb_tv,
    "scenario": _run_scenario,
    "fs-dist": _run_fs_dist,
}


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Execute all trials of a validated config and write the outputs."""
    cfg = validate_config(cfg)
    clock = _TrialClock(cfg.max_seconds)
    rows, summary, truncated = _RUNNERS[cfg.kind](cfg, clock)

    full_summary = {
        "kind": cfg.kind,
        "seed": cfg.seed,
        "trials": cfg.trials,
        "rows": len(rows),
        "truncated": int(truncated),
    }
    full_summary.update(summary)
    rate_rows = len(rows)
    full_summary["chernoff_delta"] = cfg.delta
    full_summary["interval_halfwidth"] = (
        chernoff_halfwidth(rate_rows, cfg.delta) if rate_rows else math.nan)
    full_summary["elapsed_s"] = round(clock.elapsed(), 6)

    result = ExperimentResult(cfg, rows, full_summary, truncated)
    if cfg.out is not None:
        result.out_path, result.summary_path = _write_outputs(cfg, rows,
                                                              full_summary)
    return result


def _write_outputs(cfg: ExperimentConfig, rows: list[dict], summary: dict):
    out_path = Path(cfg.out)
    if out_path.parent != Path(""):
        out_path.parent.mkdir(parents=True, exist_ok=True)
    columns = COLUMNS[cfg.kind]
    with out_path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    summary_path = out_path.with_name(out_path.name + ".summary")
    with summary_path.open("w") as fh:
        for key, value in summary.items():
            fh.write(f"{key} = {value}\n")
    return out_path, summary_path
