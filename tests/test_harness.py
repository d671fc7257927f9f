import csv
import hashlib
import importlib
import importlib.util
import math
import os
import shlex
import subprocess
import sys
from dataclasses import fields, replace
from itertools import count
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import fsjunta
from fsjunta import chernoff_halfwidth, chi_square_gof
from fsjunta.cli import _assemble, build_parser
from fsjunta.cli import main as cli_main
from fsjunta.learning import stage_one_draws
from fsjunta.testing import junta_test_draws, scenario_draws
from fsjunta.harness import (
    COLUMNS,
    DRAWS_MAX,
    KINDS,
    N_AMBIENT_MAX,
    ConfigError,
    ExperimentConfig,
    _CSV_CHUNK,
    _SEED_BLOCK,
    _TRIALS,
    _write_outputs,
    config_from_mapping,
    parse_config_file,
    run_experiment,
    validate_config,
)
from reference import fresh_generator_rows, naive_csv


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def strip_walltime(rows):
    return [{k: v for k, v in row.items() if k != "wall_ms"} for row in rows]


def canonical_digests(out_path):
    """sha256 prefixes of the CSV without ``wall_ms`` and of the summary
    without ``elapsed_s``: the parts of a run that its config fixes."""
    with open(out_path, newline="") as fh:
        table = list(csv.reader(fh))
    drop = table[0].index("wall_ms") if "wall_ms" in table[0] else None
    lines = [",".join(f for i, f in enumerate(row) if i != drop) + "\r\n"
             for row in table]
    summary = [line + "\n" for line in Path(f"{out_path}.summary").read_text().splitlines()
               if not line.startswith("elapsed_s =")]
    return tuple(hashlib.sha256("".join(part).encode()).hexdigest()[:16]
                 for part in (lines, summary))


def read_summary(path):
    out = {}
    for line in Path(path).read_text().splitlines():
        key, value = line.split(" = ", 1)
        out[key] = value
    return out


class TestChernoffSizing:
    def test_halfwidth_inverts_the_sizing(self):
        # 185 is the smallest m with 2 exp(-2 (0.1)^2 m) <= 0.05.
        assert chernoff_halfwidth(185, 0.05) <= 0.1
        assert chernoff_halfwidth(184, 0.05) > 0.1

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            chernoff_halfwidth(0, 0.05)
        with pytest.raises(ValueError):
            chernoff_halfwidth(10, 0.0)


class TestChiSquare:
    def test_matches_scipy_stats_chisquare_bit_for_bit(self):
        from scipy.stats import chisquare

        rng = np.random.default_rng(53)
        for _ in range(300):
            bins = int(rng.integers(2, 5000))
            weights = rng.integers(1, 50, size=bins)
            draws = int(rng.integers(1, 20 * bins))
            observed = rng.multinomial(draws, weights / weights.sum())
            stat, pvalue, dof = chi_square_gof(observed, weights)
            expected = weights / weights.sum() * draws
            want = chisquare(observed.astype(np.float64), expected)
            assert (stat, pvalue, dof) == (float(want.statistic),
                                           float(want.pvalue), bins - 1)

    def test_off_support_and_point_mass(self):
        assert chi_square_gof(np.array([3, 1]), np.array([1, 0])) == (math.inf, 0.0, 0)
        assert chi_square_gof(np.array([0, 7]), np.array([0, 2])) == (0.0, 1.0, 0)


class TestConfigHandling:
    def test_parse_file_with_comments(self, tmp_path):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text(
            "# tester run\nkind = test-junta\nk = 3\nn = 10\n"
            "trials = 7  # small\nseed = 5\n")
        mapping = parse_config_file(cfg_file)
        cfg = config_from_mapping(mapping)
        assert (cfg.kind, cfg.k, cfg.n, cfg.trials, cfg.seed) == (
            "test-junta", 3, 10, 7, 5)
        assert cfg.target == "junta"

    @pytest.mark.parametrize("k", [2.9, 2.0, True])
    def test_int_field_refuses_floats_and_bools(self, k):
        with pytest.raises(ConfigError, match="'k'"):
            config_from_mapping({"kind": "test-junta", "k": k, "n": 8})

    @pytest.mark.parametrize("k", [3, " 3 "])
    def test_int_field_takes_ints_and_integer_text(self, k):
        assert config_from_mapping({"kind": "test-junta", "k": k, "n": 8}).k == 3

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            config_from_mapping({"kind": "test-junta", "bogus": "1"})

    def test_missing_required_parameter(self):
        with pytest.raises(ConfigError):
            validate_config(ExperimentConfig("test-junta", n=10))

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            validate_config(ExperimentConfig("mystery"))

    def test_bad_target(self):
        with pytest.raises(ConfigError):
            validate_config(ExperimentConfig("learn-junta", k=2, n=8,
                                             target="reject"))

    def test_reject_target_defaults_k(self):
        cfg = validate_config(ExperimentConfig("test-junta", target="reject",
                                               r=3, n=20))
        assert cfg.k == 3 + 4

    def test_lb_needs_room_for_both_families(self):
        with pytest.raises(ConfigError):
            validate_config(ExperimentConfig("lb-collision", r=3, n=5,
                                             num_draws=10))

    def test_the_draw_cap_admits_exactly_its_budget(self):
        half = DRAWS_MAX // 10
        cases = [  # (budget, config): the budget from the helper each kind draws with
            (DRAWS_MAX, ExperimentConfig("fs-dist", target="random", n=4,
                                         num_draws=DRAWS_MAX)),
            (DRAWS_MAX + 1, ExperimentConfig("lb-tv", r=2, n=8,
                                             num_draws=DRAWS_MAX + 1)),
            (junta_test_draws(3, 40 / DRAWS_MAX),
             ExperimentConfig("test-junta", k=3, n=8, eps=40 / DRAWS_MAX)),
            (junta_test_draws(half - 1, 1.0),
             ExperimentConfig("test-junta", target="reject", r=2, n=8, k=half - 1,
                              eps=1.0)),
            (junta_test_draws(half, 1.0),
             ExperimentConfig("test-junta", target="reject", r=2, n=8, k=half,
                              eps=1.0)),
            (stage_one_draws(3, 1e-5), ExperimentConfig("learn-junta", k=3, n=8,
                                                        eps=1e-5)),
            (stage_one_draws(3, 5e-6), ExperimentConfig("learn-junta", k=3, n=8,
                                                        eps=5e-6)),
            (scenario_draws(3, 7e6), ExperimentConfig("scenario", k=3, c=7e6)),
            (scenario_draws(3, 8e6), ExperimentConfig("scenario", k=3, c=8e6)),
        ]
        assert cases[2][0] == DRAWS_MAX
        for budget, cfg in cases:
            if budget <= DRAWS_MAX:
                validate_config(cfg)
            else:
                with pytest.raises(ConfigError, match="would draw"):
                    validate_config(cfg)
        assert sorted(b > DRAWS_MAX for b, _ in cases) == [False] * 5 + [True] * 4


class TestRunExperiment:
    def test_test_junta_on_juntas_accepts_everything(self, tmp_path):
        cfg = ExperimentConfig("test-junta", seed=1, trials=20, k=3, n=10,
                               out=str(tmp_path / "tj.csv"))
        result = run_experiment(cfg)
        assert result.summary["accept_rate"] == 1.0
        assert result.summary["correct_rate"] == 1.0
        rows = read_rows(result.out_path)
        assert len(rows) == 20
        assert list(rows[0].keys()) == COLUMNS["test-junta"]
        expected_queries = str(math.ceil(10 * 4 / 0.1))
        assert all(row["queries"] == expected_queries for row in rows)

    def test_summary_rates_match_recomputed_row_means(self, tmp_path):
        cfg = ExperimentConfig("test-junta", seed=2, trials=30, target="parity",
                               k=2, n=12, out=str(tmp_path / "p.csv"))
        result = run_experiment(cfg)
        rows = read_rows(result.out_path)
        reject_rate = sum(r["decision"] == "reject" for r in rows) / len(rows)
        assert float(result.summary["reject_rate"]) == reject_rate == 1.0

    def test_learn_junta_parity_fixture_is_exact(self, tmp_path):
        cfg = ExperimentConfig("learn-junta", seed=3, trials=10, k=2, n=10,
                               target="parity", out=str(tmp_path / "lj.csv"))
        result = run_experiment(cfg)
        assert result.summary["mean_error"] == 0.0
        assert result.summary["success_rate"] == 1.0

    @pytest.mark.parametrize("target", ["junta", "parity"])
    def test_learn_junta_past_the_table_cap(self, tmp_path, target):
        # no 2^n table is built, so n is bounded by the int64 example draw
        cfg = ExperimentConfig("learn-junta", seed=5, trials=5, k=4, n=60,
                               target=target, out=str(tmp_path / "big.csv"))
        result = run_experiment(cfg)
        assert all(row["status"] == "success" for row in result.rows)
        if target == "parity":
            assert all(row["error"] == 0 for row in result.rows)

    def test_learn_junta_caps(self):
        validate_config(ExperimentConfig("learn-junta", k=4, n=62))
        with pytest.raises(ConfigError):
            validate_config(ExperimentConfig("learn-junta", k=4, n=63))
        with pytest.raises(ConfigError):
            validate_config(ExperimentConfig("learn-junta", k=25, n=40))

    def test_lb_collision_quick_run(self, tmp_path):
        cfg = ExperimentConfig("lb-collision", seed=4, trials=60, r=6, n=80,
                               num_draws=50, out=str(tmp_path / "lc.csv"))
        result = run_experiment(cfg)
        assert result.summary["success_rate_accept"] == 1.0
        assert result.summary["success_rate"] >= 2 / 3
        assert len(result.rows) == 120
        # each arm's rate covers its own 60 rows, the pooled rate all 120
        assert result.summary["interval_halfwidth"] == chernoff_halfwidth(120, 0.05)
        for arm in ("accept", "reject"):
            assert result.summary[f"interval_halfwidth_{arm}"] == chernoff_halfwidth(60, 0.05)

    def test_lb_tv_summary_holds_the_estimate(self, tmp_path):
        cfg = ExperimentConfig("lb-tv", seed=5, trials=300, r=6, n=80,
                               num_draws=50, out=str(tmp_path / "tv.csv"))
        result = run_experiment(cfg)
        assert 0.0 <= result.summary["tv_lower_bound"] <= 1.0
        assert result.summary["accept_inconsistent_total"] == 0

    def test_scenario_quick_run(self, tmp_path):
        cfg = ExperimentConfig("scenario", seed=6, trials=25, k=8, n=12,
                               out=str(tmp_path / "sc.csv"))
        result = run_experiment(cfg)
        assert result.summary["correct_rate_scenario_ii"] == 1.0
        assert result.summary["correct_rate_scenario_i"] >= 0.8
        assert result.summary["interval_halfwidth"] == chernoff_halfwidth(50, 0.05)
        for arm in ("scenario_i", "scenario_ii"):
            assert result.summary[f"interval_halfwidth_{arm}"] == chernoff_halfwidth(25, 0.05)

    def test_fs_dist_and2(self, tmp_path):
        cfg = ExperimentConfig("fs-dist", seed=7, target="and2",
                               num_draws=50_000, out=str(tmp_path / "fd.csv"))
        result = run_experiment(cfg)
        assert result.summary["gof_pass"] == 1
        rows = read_rows(result.out_path)
        assert len(rows) == 4
        assert sum(int(r["observed"]) for r in rows) == 50_000

    def test_no_output_path_skips_writing(self):
        cfg = ExperimentConfig("test-junta", seed=9, trials=3, k=2, n=8)
        result = run_experiment(cfg)
        assert result.out_path is None and result.summary_path is None
        assert len(result.rows) == 3

    def test_fs_dist_on_an_instance_family(self, tmp_path):
        cfg = ExperimentConfig("fs-dist", seed=8, target="reject", r=2,
                               num_draws=20_000, out=str(tmp_path / "fr.csv"))
        result = run_experiment(cfg)
        assert result.summary["gof_pass"] == 1
        assert result.summary["dof"] == 15  # 2^(2r) equally likely subsets

    def test_rerun_reproduces_everything_but_wall_time(self, tmp_path):
        cfg_a = ExperimentConfig("test-junta", seed=11, trials=15, k=2, n=8,
                                 out=str(tmp_path / "a.csv"))
        cfg_b = ExperimentConfig("test-junta", seed=11, trials=15, k=2, n=8,
                                 out=str(tmp_path / "b.csv"))
        res_a, res_b = run_experiment(cfg_a), run_experiment(cfg_b)
        assert strip_walltime(read_rows(res_a.out_path)) == \
            strip_walltime(read_rows(res_b.out_path))
        sum_a = read_summary(res_a.summary_path)
        sum_b = read_summary(res_b.summary_path)
        sum_a.pop("elapsed_s"), sum_b.pop("elapsed_s")
        assert sum_a == sum_b

    def test_rows_depend_only_on_their_trial_index(self, tmp_path):
        short = run_experiment(ExperimentConfig(
            "lb-collision", seed=12, trials=3, r=5, n=40, num_draws=30,
            out=str(tmp_path / "s.csv")))
        long = run_experiment(ExperimentConfig(
            "lb-collision", seed=12, trials=6, r=5, n=40, num_draws=30,
            out=str(tmp_path / "l.csv")))
        assert strip_walltime(short.rows) == strip_walltime(long.rows[:6])

    def test_time_budget_truncates_and_flags(self, tmp_path):
        cfg = ExperimentConfig("test-junta", seed=13, trials=500, k=2, n=8,
                               max_seconds=0.0, out=str(tmp_path / "t.csv"))
        result = run_experiment(cfg)
        assert result.truncated
        assert len(result.rows) < 500
        assert read_summary(result.summary_path)["truncated"] == "1"


# One tiny config per trial kind.
TINY = {
    "test-junta": dict(k=2, n=6),
    "learn-junta": dict(k=2, n=6, eps=0.3),
    "lb-collision": dict(r=2, n=8, num_draws=3),
    "lb-tv": dict(r=2, n=8, num_draws=3),
    "scenario": dict(k=3, n=5, c=1.0),
}


class TestSeedBlocks:
    """The trial loop re-seeds one generator from seeds hashed a block of
    trials at a time; its rows must be those of a fresh generator per arm."""

    @pytest.mark.parametrize("kind", sorted(TINY))
    def test_rows_equal_a_fresh_generator_per_arm(self, kind):
        cfg = validate_config(ExperimentConfig(kind, seed=21, trials=_SEED_BLOCK + 1,
                                               **TINY[kind]))
        assert strip_walltime(run_experiment(cfg).rows) == \
            fresh_generator_rows(cfg, _TRIALS, fsjunta.derive_seed)

    @pytest.mark.parametrize("kind", ["test-junta", "lb-tv"])
    def test_a_budget_cut_mid_block_gives_a_prefix(self, kind, monkeypatch):
        import fsjunta.harness as harness
        cfg = ExperimentConfig(kind, seed=22, trials=2 * _SEED_BLOCK + 1, **TINY[kind])
        full = strip_walltime(run_experiment(cfg).rows)
        # A clock that advances one second per reading: run_experiment reads
        # it once, each trial once for its budget check and each arm twice.
        ticks = count()
        monkeypatch.setattr(harness, "time",
                            SimpleNamespace(perf_counter=lambda: float(next(ticks))))
        arms = len(_TRIALS[kind][0])
        cut = _SEED_BLOCK + 6  # inside the second block
        result = run_experiment(replace(cfg, max_seconds=(1 + 2 * arms) * cut + 1))
        assert result.truncated
        assert len(result.rows) == cut * arms
        assert strip_walltime(result.rows) == full[:cut * arms]


# One small config per kind and target, at seed 7, with the digests of its
# outputs before the per-kind runners became one trial loop. They also pin
# numpy's generator streams and, for fs-dist, the chi-square p-value, which
# fsjunta._chi2 computes as scipy's chdtrc does.
PINNED = {
    "test-junta-junta": (dict(kind="test-junta", target="junta", k=3, n=10, trials=20),
                         ("349eb2b3536c6875", "bfb9049fd24459ff")),
    "test-junta-parity": (dict(kind="test-junta", target="parity", k=2, n=12, trials=20),
                          ("d1b0f7342707f562", "a49caab3df61037b")),
    "test-junta-reject": (dict(kind="test-junta", target="reject", r=3, n=20, trials=10),
                          ("863cbb16d3887826", "6bd77422f74bd4b2")),
    "test-junta-accept": (dict(kind="test-junta", target="accept", r=3, n=20, trials=10),
                          ("8656767d416d6f53", "1888b524c391fbfb")),
    "learn-junta-junta": (dict(kind="learn-junta", target="junta", k=3, n=12, trials=10),
                          ("e3b6856266675e7b", "651510936916f194")),
    "learn-junta-parity": (dict(kind="learn-junta", target="parity", k=3, n=40, trials=10),
                           ("2ec12a31ee3818f9", "651510936916f194")),
    # masks past bit 62 as Python ints; neither the CSV nor the summary
    # records n, so these read as the n = 20 and n = 12 pins above
    "test-junta-reject-n100": (dict(kind="test-junta", target="reject", r=3, n=100,
                                    trials=10),
                               ("863cbb16d3887826", "6bd77422f74bd4b2")),
    "test-junta-accept-n100": (dict(kind="test-junta", target="accept", r=3, n=100,
                                    trials=10),
                               ("8656767d416d6f53", "1888b524c391fbfb")),
    "test-junta-parity-n100": (dict(kind="test-junta", target="parity", k=2, n=100,
                                    trials=20),
                               ("d1b0f7342707f562", "a49caab3df61037b")),
    # a sampled junta whose positions reach past bit 62
    "test-junta-junta-n100": (dict(kind="test-junta", target="junta", k=5, n=100,
                                   trials=20),
                              ("d48231b7f4c634bf", "bfb9049fd24459ff")),
    # uniform examples at EX_N_MAX
    "learn-junta-junta-n62": (dict(kind="learn-junta", target="junta", k=3, n=62,
                                   trials=10),
                              ("a87c9eac82d3176e", "651510936916f194")),
    # the benchmark's learn config; stage 2 over 256 cells
    "learn-junta-junta-k8": (dict(kind="learn-junta", target="junta", k=8, n=20,
                                  trials=5),
                             ("fcc7fe49c691616e", "9b7b0bfd781d8df2")),
    # stage-2 chunks past the window of cells / 4
    "learn-junta-junta-k18": (dict(kind="learn-junta", target="junta", k=18, n=30,
                                   trials=3),
                              ("db3cbf6371d62fff", "26ff3d42f0fcbb94")),
    # an example cap inside stage 2's first chunk: every trial times out
    "learn-junta-junta-k8-cap500": (dict(kind="learn-junta", target="junta", k=8, n=20,
                                         max_ex=500, trials=5),
                                    ("a35c8fa66f61622f", "9876df531ae8242a")),
    "lb-collision": (dict(kind="lb-collision", r=4, n=30, num_draws=12, trials=30),
                     ("9e72f05919d2601f", "4bde79917cd0790f")),
    "lb-tv": (dict(kind="lb-tv", r=4, n=30, num_draws=12, trials=60),
              ("0c2dc2c55e19fb61", "1ebbefa2ec2c4a18")),
    # one leaf pair, whose accept base is always 0, at the smallest n
    "lb-collision-r1": (dict(kind="lb-collision", r=1, n=3, num_draws=5, trials=30),
                        ("7c0f6841a58b9edf", "ea4cc3500d53553e")),
    # the benchmark's lower-bound instance size
    "lb-tv-r9": (dict(kind="lb-tv", r=9, n=1024, num_draws=3, trials=20),
                 ("3f53bda3331623e8", "de47786abeefde5c")),
    "scenario": (dict(kind="scenario", k=6, n=10, trials=15),
                 ("be5cd3af9d95b3a9", "0582525f9da9aa8c")),
    "fs-dist-and2": (dict(kind="fs-dist", target="and2", num_draws=2000),
                     ("a6e3a9949f829c89", "0a32051da9aeb26b")),
    "fs-dist-random": (dict(kind="fs-dist", target="random", n=6, num_draws=5000),
                       ("540e59e46adf7f67", "5702d479a2493db2")),
    "fs-dist-reject": (dict(kind="fs-dist", target="reject", r=2, num_draws=5000),
                       ("fcbdaf76f35ff5ee", "f0a968cf54e37b49")),
    "fs-dist-accept": (dict(kind="fs-dist", target="accept", r=2, num_draws=5000),
                       ("dafe59a2e68f3d9f", "2c67b1893bc2bb05")),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_outputs_match_the_pinned_digests(tmp_path, name):
    params, digests = PINNED[name]
    result = run_experiment(ExperimentConfig(seed=7, out=str(tmp_path / f"{name}.csv"),
                                             **params))
    assert canonical_digests(result.out_path) == digests


# Cell values for the writer's property tests: ints at every digit-width
# change, uint64 seeds, negative and wider ints, floats, bools and strings.
_WIDTH_EDGES = [0, 1, 9, 10, 99, 100, 999, 1000, 10**18, 2**63 - 1]
_INT64 = st.one_of(st.sampled_from(_WIDTH_EDGES), st.integers(0, 2**63 - 1))
_FLOATS = st.one_of(st.sampled_from([math.nan, math.inf, -math.inf, 1e-20, 0.1 + 0.2,
                                     0.0, -0.0, 12.0]),
                    st.floats(allow_nan=True, allow_infinity=True))
CELLS = {
    "int": _INT64,
    "seed": st.integers(0, 2**64 - 1),
    "signed": st.integers(-2**70, 2**70),
    "float": _FLOATS,
    "str": st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789-_.", max_size=16),
    "mixed": st.one_of(st.sampled_from(_WIDTH_EDGES), st.integers(-2**64, 2**65),
                       _FLOATS, st.booleans(), st.sampled_from(["success", "I", ""])),
}
RECORD_CELLS = {
    "int64": _INT64,
    "uint64": st.integers(0, 2**64 - 1),
    "int32": st.integers(-2**31, 2**31 - 1),
    "float64": _FLOATS,
}


class TestCsvWriter:
    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_every_kind_writes_what_dictwriter_writes(self, tmp_path, name):
        params, _ = PINNED[name]
        result = run_experiment(ExperimentConfig(seed=3, out=str(tmp_path / "o.csv"),
                                                 **params))
        assert result.out_path.read_bytes() == naive_csv(COLUMNS[params["kind"]],
                                                         result.rows)

    def test_nan_fractions_and_strings(self, tmp_path):
        rows = [
            {"trial": 0, "seed": 2**64 - 1, "status": "stage1-overflow",
             "fs_calls": 12, "ex_calls": 0, "encountered_fraction": 0.0,
             "error": math.nan, "wall_ms": 0.1 + 0.2},
            {"trial": 1, "seed": 5, "status": "success", "fs_calls": 12,
             "ex_calls": 7, "encountered_fraction": 1 / 3, "error": 1e-20,
             "wall_ms": 12.0},
            {"trial": 2, "seed": 6, "status": "stage2-timeout", "fs_calls": 12,
             "ex_calls": 3, "encountered_fraction": 0.6875, "error": math.inf,
             "wall_ms": 123456789.125},
        ]
        cfg = ExperimentConfig("learn-junta", k=2, n=4, out=str(tmp_path / "h.csv"))
        out_path, _ = _write_outputs(cfg, rows, {})
        data = out_path.read_bytes()
        assert data == naive_csv(COLUMNS["learn-junta"], rows)
        assert b",nan," in data and b"0.30000000000000004\r\n" in data

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_any_dict_rows_write_what_dictwriter_writes(self, tmp_path, data):
        names = COLUMNS["learn-junta"]
        kinds = data.draw(st.lists(st.sampled_from(sorted(CELLS)), min_size=len(names),
                                   max_size=len(names)))
        count = data.draw(st.integers(0, 12))
        rows = [{name: data.draw(CELLS[kind]) for name, kind in zip(names, kinds)}
                for _ in range(count)]
        cfg = ExperimentConfig("learn-junta", out=str(tmp_path / "p.csv"))
        out_path, _ = _write_outputs(cfg, rows, {})
        assert out_path.read_bytes() == naive_csv(names, rows)

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_any_record_rows_write_what_dictwriter_writes(self, tmp_path, data):
        names = COLUMNS["fs-dist"]
        count = data.draw(st.integers(0, 12))
        arrays = []
        for _ in names:
            dtype, values = data.draw(st.sampled_from(sorted(RECORD_CELLS.items())))
            arrays.append(np.array(data.draw(st.lists(values, min_size=count,
                                                      max_size=count)), dtype=dtype))
        rows = np.rec.fromarrays(arrays, names=names)
        cfg = ExperimentConfig("fs-dist", out=str(tmp_path / "r.csv"))
        out_path, _ = _write_outputs(cfg, rows, {})
        assert out_path.read_bytes() == naive_csv(names, rows)

    @pytest.mark.parametrize("count", [0, 1])
    def test_one_and_zero_rows_of_either_form(self, tmp_path, count):
        rows = [{"mask": 2**64 - 1, "expected_weight": -3, "observed": 0.5}][:count]
        records = np.rec.fromarrays([np.array([10], dtype=np.uint64)[:count],
                                     np.array([0])[:count], np.array([99])[:count]],
                                    names=COLUMNS["fs-dist"])
        cfg = ExperimentConfig("fs-dist", out=str(tmp_path / "o.csv"))
        for form in (rows, records):
            out_path, _ = _write_outputs(cfg, form, {})
            assert out_path.read_bytes() == naive_csv(COLUMNS["fs-dist"], form)

    @pytest.mark.parametrize("count", [_CSV_CHUNK - 1, _CSV_CHUNK, _CSV_CHUNK + 1,
                                       2 * _CSV_CHUNK + 3])
    def test_chunk_edges_of_either_form(self, tmp_path, count):
        # Widths grow from chunk to chunk, and only the last chunk holds a
        # negative int, so chunks encode the same column differently.
        big = np.arange(count, dtype=np.uint64) ** 4
        signed = np.arange(count, dtype=np.int64)
        signed[-1] = -5
        fraction = np.arange(count) / 7
        records = np.rec.fromarrays([big, signed, fraction], names=COLUMNS["fs-dist"])
        names = COLUMNS["learn-junta"]
        rows = [{"trial": i, "seed": int(b), "status": "ab"[i % 2] * (i % 5),
                 "fs_calls": int(v), "ex_calls": 0, "encountered_fraction": float(f),
                 "error": math.nan, "wall_ms": float(v) / 3}
                for i, (b, v, f) in enumerate(zip(big, signed, fraction))]
        for kind, form in (("fs-dist", records), ("learn-junta", rows)):
            cfg = ExperimentConfig(kind, out=str(tmp_path / f"{kind}.csv"))
            out_path, _ = _write_outputs(cfg, form, {})
            assert out_path.read_bytes() == naive_csv(COLUMNS[kind], form)

    def test_zero_rows_give_a_header_only_file(self, tmp_path):
        # every trial kind; lb-tv once reported a TV of 0.0 over no rows
        params = {"test-junta": dict(k=2, n=8), "learn-junta": dict(k=2, n=8),
                  "lb-collision": dict(r=2, n=8, num_draws=3),
                  "lb-tv": dict(r=2, n=8, num_draws=3), "scenario": dict(k=2)}
        assert sorted(params) == sorted(set(KINDS) - {"fs-dist"})
        for kind, extra in params.items():
            result = run_experiment(ExperimentConfig(
                kind, seed=4, trials=5, max_seconds=0.0,
                out=str(tmp_path / f"{kind}.csv"), **extra))
            assert len(result.rows) == 0
            header = ",".join(COLUMNS[kind]).encode() + b"\r\n"
            assert result.out_path.read_bytes() == header == naive_csv(
                COLUMNS[kind], [])
            summary = read_summary(result.summary_path)
            assert summary["rows"] == "0" and summary["interval_halfwidth"] == "nan"
            assert all(value == "nan" for key, value in summary.items()
                       if key.startswith("interval_halfwidth_")), kind
            assert summary[summary["primary_metric"]] == "nan", kind

    def test_fs_dist_memory_peak(self, tmp_path):
        # The spectrum workload's config. tracemalloc reads the peak, in
        # 2^18-entry int64 arrays, as about 11 with dense bins and a
        # one-shot writer, and 6 with counts on the support and a chunked
        # writer; the bound sits between the two.
        import tracemalloc

        cfg = ExperimentConfig("fs-dist", target="random", n=18, num_draws=250_000,
                               out=str(tmp_path / "s.csv"))
        tracemalloc.start()
        try:
            run_experiment(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        array = 8 << 18
        assert peak < 8 * array, f"peak of {peak / array:.2f} arrays"

    def test_fs_dist_rows_are_one_record_per_mask(self, tmp_path):
        result = run_experiment(ExperimentConfig(
            "fs-dist", seed=2, target="random", n=8, num_draws=3000,
            out=str(tmp_path / "f.csv")))
        rows = result.rows
        lines = result.out_path.read_bytes().count(b"\r\n")
        assert len(rows) == result.summary["rows"] == lines - 1
        assert np.all(np.diff(rows["mask"]) > 0)
        assert np.all((rows["expected_weight"] > 0) | (rows["observed"] > 0))
        assert int(rows["observed"].sum()) == 3000
        assert int(rows["expected_weight"].sum()) == 4 ** 8
        assert rows[0]["mask"] == rows["mask"][0]


class TestCli:
    def test_successful_run_exits_zero(self, tmp_path, capsys):
        code = cli_main(["test-junta", "--k", "2", "--n", "8", "--trials", "5",
                         "--seed", "1", "--out", str(tmp_path / "o.csv")])
        assert code == 0
        captured = capsys.readouterr()
        assert "accept_rate = 1.0" in captured.out
        assert (tmp_path / "o.csv").exists()
        assert (tmp_path / "o.csv.summary").exists()

    def test_config_file_plus_flag_override(self, tmp_path, capsys):
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text("kind = test-junta\nk = 2\nn = 8\ntrials = 4\n")
        out = tmp_path / "c.csv"
        code = cli_main(["test-junta", "--config", str(cfg_file),
                         "--trials", "6", "--out", str(out)])
        assert code == 0
        assert len(read_rows(out)) == 6

    def test_missing_parameter_exits_two(self, tmp_path, capsys):
        code = cli_main(["test-junta", "--n", "8",
                         "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_conflicting_config_kind_exits_two(self, tmp_path, capsys):
        cfg_file = tmp_path / "k.cfg"
        cfg_file.write_text("kind = scenario\nk = 3\n")
        code = cli_main(["test-junta", "--config", str(cfg_file)])
        assert code == 2

    def test_exhausted_budget_exits_three(self, tmp_path, capsys):
        code = cli_main(["test-junta", "--k", "2", "--n", "8",
                         "--trials", "500", "--max-seconds", "0",
                         "--out", str(tmp_path / "b.csv")])
        assert code == 3

    @pytest.mark.parametrize("argv", [
        "learn-junta --k 5 --n 3",
        "learn-junta --k 0 --n 3",
        "test-junta --k 5 --n 3",
        "test-junta --target parity --k 3 --n 3",
        "scenario --k 0",
        "lb-tv --r 0 --n 10 --num-draws 3",
        "fs-dist --target random --n 30",
        "fs-dist --target reject --r 0",
        "scenario --k 3 --c 0.5",
        "fs-dist --target and2 --num-draws 0",
        "lb-collision --r 3 --n 20 --num-draws 0",
        "lb-tv --r 3 --n 20 --num-draws 0",
        "learn-junta --k 3 --n 10 --max-ex -5",
        "test-junta --k 2 --n 6 --seed 99999999999999999999999",
        "test-junta --k 2 --n 6 --seed 9223372036854775808",
        "test-junta --k 2 --n 6 --seed -9223372036854775809",
        "scenario --k 3 --c nan",
        "scenario --k 3 --c inf",
        "test-junta --k 2 --n 6 --max-seconds nan",
        # a negative budget once ran no trial and exited 3
        "test-junta --k 2 --n 6 --max-seconds -5",
        # n past int64 once reached rng.choice and exited 1
        "test-junta --target parity --k 3 --n 100000000000000000000",
        "test-junta --target junta --k 3 --n 100000000000000000000",
        "test-junta --target reject --r 2 --n 100000000000000000000",
        f"test-junta --target accept --r 2 --n {N_AMBIENT_MAX + 1}",
        f"lb-collision --r 2 --n {N_AMBIENT_MAX + 1} --num-draws 3",
        "lb-tv --r 2 --n 100000000000000000000 --num-draws 3",
        f"scenario --k 3 --n {N_AMBIENT_MAX + 1}",
        "fs-dist --target and2 --n 100000000000000000000",
        # an r whose family cannot fit once reached 1 << r and exited 1
        "lb-tv --r 100000000000000000000 --n 1000 --num-draws 3",
        "fs-dist --target accept --r 22",
        # r at its limits: one variable short of the r = 19 reject family,
        # and r = 20, whose family needs 20 + 2^20 > N_AMBIENT_MAX variables
        "lb-collision --r 19 --n 524306 --num-draws 3",
        "lb-tv --r 19 --n 524306 --num-draws 3",
        "lb-collision --r 20 --n 1048576 --num-draws 3",
        "lb-tv --r 20 --n 1048576 --num-draws 3",
        # a per-trial draw budget past DRAWS_MAX once reached the samplers
        # and exited 1 (ValueError, ArrayMemoryError, OverflowError)
        "test-junta --target reject --r 2 --n 8 --k 100000000000000000000",
        "test-junta --k 3 --n 8 --eps 1e-12",
        "learn-junta --k 3 --n 8 --eps 1e-13",
        "learn-junta --k 3 --n 8 --eps 5e-324",
        "fs-dist --n 4 --num-draws 100000000000000000000",
        "lb-tv --r 2 --n 8 --num-draws 100000000000000000000",
        f"lb-collision --r 2 --n 8 --num-draws {DRAWS_MAX + 1}",
        "scenario --k 3 --c 1e300",
        # a target on a kind without target families was once ignored
        "lb-tv --r 2 --n 6 --num-draws 3 --target junta",
        "lb-collision --r 2 --n 6 --num-draws 3 --target reject",
        "scenario --k 3 --target junta",
    ])
    def test_out_of_range_parameters_exit_two(self, tmp_path, capsys, argv):
        code = cli_main(argv.split() + ["--trials", "2",
                                        "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "config error" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())  # neither the CSV nor its summary

    @pytest.mark.parametrize("out", ["", "dir", "file/x.csv"])
    def test_bad_out_paths_exit_two(self, tmp_path, capsys, monkeypatch, out):
        # each once ran every trial, then failed to write and exited 1
        monkeypatch.chdir(tmp_path)
        Path("dir").mkdir()
        Path("file").write_text("")
        code = cli_main(["test-junta", "--k", "2", "--n", "8", "--trials", "2",
                         "--out", out])
        assert code == 2
        assert "config error" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["dir", "file"]
        assert not any(Path("dir").iterdir()) and Path("file").read_text() == ""

    def test_summary_path_that_is_a_directory_exits_two(self, tmp_path, capsys,
                                                        monkeypatch):
        # once ran every trial and wrote x.csv, then exited 1 on the sidecar
        monkeypatch.chdir(tmp_path)
        Path("x.csv.summary").mkdir()
        code = cli_main(["test-junta", "--k", "2", "--n", "8", "--trials", "3",
                         "--out", "x.csv"])
        assert code == 2
        assert "config error" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["x.csv.summary"]
        assert not any(Path("x.csv.summary").iterdir())

    @pytest.mark.parametrize("argv", [
        "test-junta --target parity --k 3",
        "test-junta --target junta --k 3",
        "test-junta --target reject --r 2",
        "lb-tv --r 2 --num-draws 3",
        "scenario --k 3",
    ])
    def test_the_largest_ambient_n_runs(self, tmp_path, capsys, argv):
        code = cli_main(argv.split() + ["--n", str(N_AMBIENT_MAX), "--trials", "2",
                                        "--out", str(tmp_path / "x.csv")])
        assert code == 0

    @pytest.mark.parametrize("kind", ["lb-collision", "lb-tv"])
    def test_the_largest_reject_family_runs(self, tmp_path, capsys, kind):
        # r + 2^r variables: the largest r whose family fits in N_AMBIENT_MAX
        assert 19 + (1 << 19) == 524307 <= N_AMBIENT_MAX < 20 + (1 << 20)
        out = tmp_path / "x.csv"
        code = cli_main([kind, "--r", "19", "--n", "524307", "--num-draws", "3",
                         "--trials", "2", "--out", str(out)])
        assert code == 0
        assert len(read_rows(out)) == 4

    @pytest.mark.parametrize("seed", [-2**63, 2**63 - 1])
    @pytest.mark.parametrize("argv", [
        "test-junta --k 2 --n 6",
        "learn-junta --k 2 --n 6",
        "lb-collision --r 2 --n 8 --num-draws 5",
        "lb-tv --r 2 --n 8 --num-draws 5",
        "scenario --k 2",
        "fs-dist --target and2 --num-draws 10",
    ])
    def test_seeds_at_the_signed_64_bit_ends_run(self, tmp_path, capsys, argv, seed):
        code = cli_main(argv.split() + ["--trials", "2", "--seed", str(seed),
                                        "--out", str(tmp_path / "x.csv")])
        assert code == 0

    @pytest.mark.parametrize("field", [f for f in fields(ExperimentConfig)
                                       if f.name != "kind"], ids=lambda f: f.name)
    def test_each_setting_is_one_flag_and_one_key(self, tmp_path, capsys, field):
        # a value that differs from the default and validates on top of base
        value = {"seed": -5, "trials": 3, "out": "runs/x.csv", "delta": 0.2,
                 "eps": 0.25, "k": 3, "n": 9, "r": 2, "num_draws": 40, "c": 2.5,
                 "target": "parity", "max_ex": 100, "max_seconds": 1.5}[field.name]
        base, keyed = tmp_path / "base.cfg", tmp_path / "keyed.cfg"
        base.write_text("k = 2\nn = 8\n")
        keyed.write_text(f"k = 2\nn = 8\n{field.name} = {value}\n")
        flag = "--" + field.name.replace("_", "-")
        args = build_parser().parse_args(["test-junta", "--config", str(base),
                                          flag, str(value)])
        assert getattr(args, field.name) == str(value)  # parsed by the config only
        by_flag = _assemble(args)
        by_key = _assemble(build_parser().parse_args(["test-junta", "--config",
                                                      str(keyed)]))
        assert by_flag == by_key
        assert getattr(by_key, field.name) == value
        assert type(getattr(by_key, field.name)) is type(value)

        with pytest.raises(SystemExit):
            build_parser().parse_args(["test-junta", "--help"])
        text = " ".join(capsys.readouterr().out.split())
        entry = text.split(f" {flag} {field.name.upper()} ", 1)[1].split(" --", 1)[0]
        if field.default is None:
            assert "(default" not in entry
        else:
            assert entry.endswith(f"(default {field.default})")

    def test_import_leaves_scipy_unloaded(self):
        # only fs-dist's chi-square needs the p-value port, and nothing scipy
        probe = ("import sys, fsjunta.cli; "
                 "print(sorted({'scipy', 'fsjunta._chi2'} & sys.modules.keys()))")
        src = str(Path(fsjunta.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                             text=True, check=True, env={**os.environ, "PYTHONPATH": src})
        assert out.stdout.strip() == "[]"

    def test_fs_dist_runs_without_scipy(self, tmp_path):
        # scipy is a test dependency only: with its import blocked, fs-dist
        # writes the bytes it writes in this process, where scipy is installed
        args = ["fs-dist", "--target", "random", "--n", "10", "--seed", "3"]
        probe = ("import sys; sys.modules['scipy'] = None; "
                 "from fsjunta.cli import main; sys.exit(main(sys.argv[1:]))")
        src = str(Path(fsjunta.__file__).resolve().parents[1])
        subprocess.run([sys.executable, "-c", probe, *args, "--out", str(tmp_path / "bare.csv")],
                       capture_output=True, check=True, env={**os.environ, "PYTHONPATH": src})
        assert cli_main([*args, "--out", str(tmp_path / "here.csv")]) == 0
        assert (tmp_path / "bare.csv").read_bytes() == (tmp_path / "here.csv").read_bytes()
        bare, here = ([line for line in (tmp_path / f"{name}.csv.summary").read_bytes()
                       .splitlines(keepends=True) if not line.startswith(b"elapsed_s =")]
                      for name in ("bare", "here"))
        assert bare == here and b"p_value = 0.6597794880886859\n" in here


def _tracer_targets():
    path = Path(__file__).resolve().parents[1] / "e2ebench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("e2ebench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


class TestTracerTargets:
    """The benchmark's tracer rebinds library callables by name; a renamed or
    moved one should fail here, not only in a traced benchmark run."""

    @pytest.mark.parametrize("module_name, attr",
                             [target[:2] for target in _tracer_targets()],
                             ids=lambda value: value)
    def test_each_target_resolves(self, module_name, attr):
        owner = importlib.import_module(module_name)
        if "." in attr:
            cls_name, method = attr.split(".")
            assert method in getattr(owner, cls_name).__dict__
        else:
            assert callable(getattr(owner, attr))

    def test_lower_bound_trials_call_the_harness_globals(self, monkeypatch, tmp_path):
        # an import-time dispatch table would hold the originals and
        # bypass these spies, as it would bypass the tracer's wrappers
        import fsjunta.harness as harness
        calls = {}
        for name in ("sample_accept_instance", "sample_reject_instance",
                     "accept_transcript", "reject_transcript", "collision_features"):
            def spy(*args, _name=name, _original=getattr(harness, name)):
                calls[_name] = calls.get(_name, 0) + 1
                return _original(*args)
            monkeypatch.setattr(harness, name, spy)
        run_experiment(ExperimentConfig("lb-tv", trials=3, r=2, n=8, num_draws=3,
                                        out=str(tmp_path / "t.csv")))
        assert calls == {"sample_accept_instance": 3, "sample_reject_instance": 3,
                         "accept_transcript": 3, "reject_transcript": 3,
                         "collision_features": 6}


def _readme_commands() -> list[str]:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```bash\n", 1)[1]
    return [line for line in block.split("```", 1)[0].splitlines()
            if line.startswith("fsjunta ")]


@pytest.mark.parametrize("line", _readme_commands())
def test_readme_command_lines_validate(line):
    argv = shlex.split(line)[1:]
    assert _assemble(build_parser().parse_args(argv)).kind == argv[0]
