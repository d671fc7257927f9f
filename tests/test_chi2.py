"""The port of scipy's chi-square survival function, bit for bit.

``fsjunta._chi2`` ports the C++ behind ``scipy.special.chdtrc`` so that
fs-dist's p-values are scipy's without importing scipy. Each ported
function is compared with the scipy ufunc that runs the same C++, and
igamc's dispatch is swept on and beside each of its boundaries. The golden
triples pin the port where scipy is not installed.
"""
import math

import numpy as np
import pytest

from fsjunta import _chi2

# (df, stat, chdtrc(df, stat).hex()), recorded from scipy 1.17.1 and equal
# to the port's; at least one per branch of igamc.
GOLDEN = [
    (262143.0, 262800.5, "0x1.747e8835a65ebp-3"),  # the spectrum workload's dof
    (60.0, 55.0, "0x1.5129acd8bfaf2p-1"),
    (1000.0, 900.0, "0x1.fa834529c9f75p-1"),
    (1.0, 3.841458820694124, "0x1.999999999998ap-5"),
    (50.0, 200.0, "0x1.7310af52aaf27p-64"),
    (30.0, 20.0, "0x1.d544ee5857d1cp-1"),
    (1.0, 0.5, "0x1.eb02147ce245ap-2"),
    (1.0, 0.95, "0x1.51a1ef7b45ad9p-2"),
    (5.0, 0.1, "0x1.ffeab98eeb9ebp-1"),
    (3.0, 1.5, "0x1.5d528967a67a0p-1"),
    (1.0, 1.8, "0x1.700d1ac180ba2p-3"),
]

# The four ways igamc computes Q(a, x); each runs at most once per call.
BRANCHES = ("asymptotic_series", "igam_series", "igamc_continued_fraction",
            "igamc_series")

# Every branch of igamc with where it runs: the asymptotic series below and
# above a = 200, and each other method in each of the three ranges of x.
LABELS = {
    ("asymptotic_series", "a < 200"), ("asymptotic_series", "a > 200"),
    ("igam_series", "x > 1.1"), ("igamc_continued_fraction", "x > 1.1"),
    ("igam_series", "x <= 0.5"), ("igamc_series", "x <= 0.5"),
    ("igam_series", "0.5 < x <= 1.1"), ("igamc_series", "0.5 < x <= 1.1"),
}

SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1e-300, 0.5,
           -0.5, 1.0, -1.0, 2.0, 3.0, 13.0, -34.5, -35.0, 1000.0, 1e8, 1e300]


@pytest.fixture
def branch(monkeypatch):
    """Calls chdtrc(df, stat) and returns its value with igamc's branch."""
    ran = []
    for name in BRANCHES:
        method = getattr(_chi2, name)
        monkeypatch.setattr(_chi2, name, lambda a, x, method=method, name=name:
                            ran.append(name) or method(a, x))

    def call(df, stat):
        ran.clear()
        p = _chi2.chdtrc(df, stat)
        a, x = df / 2, stat / 2
        if ran == ["asymptotic_series"]:
            return p, (ran[0], "a < 200" if a < 200 else "a > 200")
        assert len(ran) == 1, ran
        where = "x > 1.1" if x > 1.1 else "x <= 0.5" if x <= 0.5 else "0.5 < x <= 1.1"
        return p, (ran[0], where)
    return call


def scipy_special():
    return pytest.importorskip("scipy.special")


def _same(got, want):
    """Equal bits, reading every NaN as one value."""
    return (math.isnan(got) and math.isnan(want)) or (
        got == want and math.copysign(1, got) == math.copysign(1, want))


def _spread(rng, lo, hi, size):
    return np.exp(rng.uniform(math.log(lo), math.log(hi), size))


@pytest.mark.parametrize("df, stat, want", GOLDEN)
def test_golden_values(df, stat, want):
    assert _chi2.chdtrc(df, stat).hex() == want


def test_golden_values_cover_every_branch(branch):
    assert {branch(df, stat)[1] for df, stat, _ in GOLDEN} == LABELS


def _helper_inputs():
    rng = np.random.default_rng(61)
    wide = _spread(rng, 1e-300, 1e300, 2000)
    return {
        "lgam": SPECIAL + [*rng.uniform(-60, 60, 2000), *wide, *-wide[:500]],
        "erfc": SPECIAL + [*rng.uniform(-30, 30, 2000), *rng.uniform(-1.5, 1.5, 1000)],
        "erf": SPECIAL + [*rng.uniform(-10, 10, 2000)],
        "expm1": SPECIAL + [*rng.uniform(-1, 1, 2000), *rng.uniform(-800, 800, 500)],
        "log1p": SPECIAL + [*rng.uniform(-1, 1, 2000), *_spread(rng, 1e-10, 1e10, 500)],
        "log1pmx": SPECIAL + [*rng.uniform(-1, 1, 2000), *_spread(rng, 1e-10, 1e10, 500)],
        "lgam1p": SPECIAL + [*rng.uniform(-0.99, 3, 2000), *_spread(rng, 1e-10, 1e10, 500)],
        "lanczos_sum_expg_scaled": SPECIAL + [*rng.uniform(-5, 5, 1000),
                                              *_spread(rng, 1e-5, 1e5, 1000)],
    }


# each ported helper and the scipy ufunc that runs the same C++
UFUNCS = {"lgam": "gammaln", "erfc": "erfc", "erf": "erf", "expm1": "expm1",
          "log1p": "log1p", "log1pmx": "_log1pmx", "lgam1p": "_lgam1p",
          "lanczos_sum_expg_scaled": "_lanczos_sum_expg_scaled"}


@pytest.mark.parametrize("name", sorted(UFUNCS))
def test_helper_matches_scipy(name):
    ufunc = getattr(scipy_special()._ufuncs, UFUNCS[name])
    xs = [float(x) for x in _helper_inputs()[name]]
    want = ufunc(np.array(xs)).tolist()
    port = getattr(_chi2, name)
    bad = [(x, port(x), w) for x, w in zip(xs, want) if not _same(port(x), w)]
    assert not bad, bad[:5]


def test_hurwitz_zeta_matches_scipy():
    sc = scipy_special()
    rng = np.random.default_rng(67)
    pairs = ([(float(n), 1.0) for n in range(1, 60)]
             + list(zip(rng.uniform(1, 50, 1000), _spread(rng, 1e-3, 1e10, 1000)))
             + list(zip(rng.integers(2, 20, 500).astype(float), rng.uniform(-20, 0, 500)))
             + [(x, q) for x in SPECIAL for q in SPECIAL])
    xs, qs = (np.array(col, dtype=np.float64) for col in zip(*pairs))
    want = sc.zeta(xs, qs).tolist()
    bad = [(x, q) for x, q, w in zip(xs.tolist(), qs.tolist(), want)
           if not _same(_chi2.zeta(x, q), w)]
    assert not bad, bad[:5]


def test_igam_fac_matches_scipy():
    sc = scipy_special()
    rng = np.random.default_rng(71)
    a = _spread(rng, 1e-3, 1e6, 4000)
    # half far from a, through lgam; half within 0.4 a, through Lanczos
    x = np.concatenate([_spread(rng, 1e-3, 1e6, 2000), a[2000:] * rng.uniform(0.6, 1.4, 2000)])
    want = sc._ufuncs._igam_fac(a, x).tolist()
    bad = [(p, q) for p, q, w in zip(a.tolist(), x.tolist(), want)
           if not _same(_chi2.igam_fac(p, q), w)]
    assert not bad, bad[:5]


def _sweep():
    """(df, stat) on and beside each boundary of igamc's dispatch, and on a
    grid around them; df = 2a and stat = 2x exactly."""
    up, down = (lambda v: math.nextafter(v, math.inf)), (lambda v: math.nextafter(v, 0))
    a_values = [0.5, 1.0, 2.5, 10.0, down(20.0), 20.0, up(20.0), 50.0, 100.0,
                down(200.0), 200.0, up(200.0), 1e3, 1e4, 131071.5]
    cases = []
    for a in a_values:
        xs = [a, down(a), up(a), 0.5, down(0.5), up(0.5), 1.1, down(1.1), up(1.1),
              1e-3, 0.05, 0.8, 3.0, 10 * a]
        for ratio in (0.3, 4.5 / math.sqrt(a)):
            for side in (1 + ratio, 1 - ratio):
                x = a * side
                xs += [x, down(x), up(x)]
        cases += [(2 * a, 2 * x) for x in xs if x >= 0]
    rng = np.random.default_rng(73)
    dofs = rng.integers(1, 300_000, 1500)
    cases += [(float(d), float(s)) for d, s in zip(dofs, dofs * rng.uniform(0.9, 1.1, 1500))]
    cases += [(float(d), float(s)) for d, s in zip(rng.integers(1, 400, 1500),
                                                    _spread(rng, 1e-3, 2e3, 1500))]
    return cases


def test_chdtrc_sweep_matches_scipy_on_every_branch(branch):
    sc = scipy_special()
    cases = _sweep()
    dfs, stats = (np.array(col) for col in zip(*cases))
    want = sc.chdtrc(dfs, stats).tolist()
    seen, bad = set(), []
    for (df, stat), w in zip(cases, want):
        p, label = branch(df, stat)
        seen.add(label)
        if not _same(p, w):
            bad.append((df, stat, p, w))
    assert not bad, bad[:5]
    assert seen == LABELS


def _edge(a, x):
    return 2 * a, 2 * x


@pytest.mark.parametrize("df, stat, label", [
    # a must exceed 20, and |x - a| / a stay below 0.3, for the small-a series
    (*_edge(20.0, 20.0), ("igamc_continued_fraction", "x > 1.1")),
    (*_edge(math.nextafter(20.0, 21), 20.0), ("asymptotic_series", "a < 200")),
    (*_edge(100.0, 130.0), ("igamc_continued_fraction", "x > 1.1")),
    (*_edge(100.0, math.nextafter(130.0, 0)), ("asymptotic_series", "a < 200")),
    (*_edge(100.0, 70.0), ("igam_series", "x > 1.1")),
    # a = 200 is in neither asymptotic range; above it |x - a| / a < 4.5 / sqrt(a)
    (*_edge(200.0, 200.0), ("igamc_continued_fraction", "x > 1.1")),
    (*_edge(math.nextafter(200.0, 201), 200.0), ("asymptotic_series", "a > 200")),
    (*_edge(1e4, 10450.0), ("igamc_continued_fraction", "x > 1.1")),
    (*_edge(1e4, 10449.0), ("asymptotic_series", "a > 200")),
    (*_edge(1e4, 9550.0), ("igam_series", "x > 1.1")),
    # x = a takes the continued fraction; just below a, the series for P
    (*_edge(5.0, 5.0), ("igamc_continued_fraction", "x > 1.1")),
    (*_edge(5.0, math.nextafter(5.0, 0)), ("igam_series", "x > 1.1")),
    # x = 1.1 and x = 0.5 close their ranges; dof = 1 is a = 0.5
    (1.0, 2.2, ("igamc_series", "0.5 < x <= 1.1")),
    (1.0, math.nextafter(2.2, 3), ("igamc_continued_fraction", "x > 1.1")),
    (1.0, 1.0, ("igamc_series", "x <= 0.5")),
    (1.0, math.nextafter(1.0, 2), ("igamc_series", "0.5 < x <= 1.1")),
    (1.0, 0.5, ("igam_series", "x <= 0.5")),
    (3.0, 1.0, ("igam_series", "x <= 0.5")),
    (3.0, math.nextafter(1.0, 2), ("igam_series", "0.5 < x <= 1.1")),
    # P's series needs -0.4 / log(x) < a at x <= 0.5, and 1.1 x < a above it
    (*_edge(-0.4 / math.log(0.25), 0.25), ("igamc_series", "x <= 0.5")),
    (*_edge(math.nextafter(-0.4 / math.log(0.25), 1), 0.25), ("igam_series", "x <= 0.5")),
    (*_edge(1.1, 1.0), ("igamc_series", "0.5 < x <= 1.1")),
    (*_edge(math.nextafter(1.1, 2), 1.0), ("igam_series", "0.5 < x <= 1.1")),
])
def test_dispatch_edges(branch, df, stat, label):
    p, ran = branch(df, stat)
    assert ran == label
    try:
        import scipy.special as sc
    except ImportError:
        return
    assert _same(p, float(sc.chdtrc(df, stat)))


@pytest.mark.parametrize("df, stat, want", [
    (3.0, -1.0, math.nan), (3.0, math.nan, math.nan), (math.nan, 0.0, math.nan),
    (-1.0, 2.0, math.nan), (0.0, 2.0, 0.0), (0.0, 0.0, math.nan),
    (3.0, 0.0, 1.0), (3.0, math.inf, 0.0), (math.inf, 5.0, 1.0),
    (math.inf, math.inf, math.nan), (5e-324, 1.0, 0.0), (1e300, 1e-300, 1.0),
])
def test_special_values_are_scipys(df, stat, want):
    # scipy 1.17's values at the edges of the domain; none raises in Python
    assert _same(_chi2.chdtrc(df, stat), want)


def test_no_helper_raises_where_the_c_gives_inf_or_nan():
    for x in SPECIAL:
        for name in UFUNCS:
            assert isinstance(getattr(_chi2, name)(x), float)
        for y in SPECIAL:
            for fn in (_chi2.zeta, _chi2.igam_fac, _chi2.igamc, _chi2.chdtrc):
                assert isinstance(fn(x, y), float)
