"""The spectral-sampling junta tester, the scenario rule and the collision
primitives.

``junta_test`` is the non-adaptive tester: a fixed number of subset draws,
then accept iff at most k distinct variables ever appeared. The rest probes
how hard the instance families of :mod:`fsjunta.boolfn` are to tell apart
from subset transcripts alone: a union-size rule for the two random-function
scenarios, and for the accept/reject addressing families the collision
features, the collision-parity rule on them and a histogram TV.
"""
from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .boolfn import JuntaSpec, make_junta, random_table
from .oracles import FsOracle

ACCEPT = "accept"
REJECT = "reject"
SCENARIO_I = "I"
SCENARIO_II = "II"


@dataclass(frozen=True)
class TesterVerdict:
    decision: str
    queries_used: int
    exposed: frozenset[int]


@functools.lru_cache(typed=True)
def junta_test_draws(k: int, eps: float) -> int:
    """ceil(10(k+1)/eps), exact for the decimal ``eps``: the tester's draws."""
    return math.ceil(10 * (k + 1) / Fraction(str(eps)))


def junta_test(fs: FsOracle, k: int, eps: float) -> TesterVerdict:
    """Non-adaptive junta tester: ceil(10(k+1)/eps) draws, accept iff the
    union of returned subsets has at most k variables. The draw count is
    exact for the decimal ``eps``: k=28, eps=0.29 gives 1000, not 1001.

    A function depending on at most k variables is always accepted, since
    no subset with a nonzero weight can leave its relevant set.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    if not 0 < eps <= 1:
        raise ValueError("eps must be in (0, 1]")
    m = junta_test_draws(k, eps)
    exposed = frozenset(fs.draw_exposed(m))
    decision = ACCEPT if len(exposed) <= k else REJECT
    return TesterVerdict(decision, m, exposed)


def sample_scenario(which: str, k: int, n: int,
                    rng: np.random.Generator) -> JuntaSpec:
    """A function on ``n`` variables for the two-scenario game, as a junta
    on the first k+1 of them.

    Scenario I is a uniform random table on those k+1 variables. Scenario
    II draws one of them to leave out, then a uniform random table on the
    other k. It is still stored densely on all k+1, so that the samplers of
    both scenarios search a (k+1)-variable spectrum and differ only in
    the weights it holds.
    """
    if n < k + 1:
        raise ValueError("need n >= k + 1")
    if which == SCENARIO_I:
        table = random_table(k + 1, rng)
    elif which == SCENARIO_II:
        dropped = int(rng.integers(0, k + 1))
        kept = tuple(i for i in range(k + 1) if i != dropped)
        table = make_junta(JuntaSpec(k + 1, kept, random_table(k, rng)))
    else:
        raise ValueError(f"unknown scenario {which!r}")
    return JuntaSpec(n, tuple(range(k + 1)), table)


def scenario_draws(k: int, c: float) -> int:
    """ceil(c log2(k+2)): the scenario distinguisher's draws."""
    return math.ceil(c * math.log2(k + 2))


def scenario_distinguisher(fs: FsOracle, k: int, c: float = 8.0) -> str:
    """Guess the scenario from ceil(c log2(k+2)) draws.

    Guesses I iff at least k+1 distinct variables appear. Under scenario II
    at most k variables can ever appear, so II is never misclassified;
    under scenario I every variable carries constant spectral weight with
    overwhelming probability, so a logarithmic number of draws exposes all
    k+1. The constant c is an empirically calibrated default.
    """
    if c < 1:
        raise ValueError("need c >= 1")
    m = scenario_draws(k, c)
    return SCENARIO_I if len(fs.draw_exposed(m)) >= k + 1 else SCENARIO_II


def collision_features(slots: np.ndarray, x_masks: np.ndarray) -> tuple[int, bool]:
    """Summarize a transcript as (repeat count, inconsistent-parity flag).

    The repeat count is draws minus distinct wired slots. The flag is set
    iff some slot appears with address masks of both size parities, which
    is impossible under an accept instance.
    """
    # Transcripts are a few draws long, where Python sets beat np.unique.
    slots = np.asarray(slots).tolist()
    parities = [mask.bit_count() & 1 for mask in np.asarray(x_masks).tolist()]
    distinct = len(set(slots))
    return len(slots) - distinct, len(set(zip(slots, parities))) > distinct


def collision_guess(inconsistent: bool) -> str:
    """The collision rule on a transcript's inconsistent-parity flag (see
    :func:`collision_features`): reject iff it is set, else accept. The
    flag is never set under an accept instance, so the rule's power rides
    on reject-side collisions."""
    return REJECT if inconsistent else ACCEPT


def histogram_tv(hist_a: Counter, hist_b: Counter, trials: int) -> float:
    """Total-variation distance between two empirical histograms, each
    counting ``trials`` observations. On collision-feature histograms it
    is a plug-in estimate, biased upward since TV is convex, of the feature
    TV, which is itself at most the transcript TV. With no trials it is
    ``nan``, like every rate over no rows."""
    if trials == 0:
        return math.nan
    keys = hist_a.keys() | hist_b.keys()
    return 0.5 * sum(abs(hist_a[z] - hist_b[z]) for z in keys) / trials
