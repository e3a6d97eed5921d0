"""`find_crossings` against the earlier t-space search.

The x-space root search must find the same crossings as the oracle in
`reference_crossings` on clean pairs (every density gap at least 0.1%
relative, the limit-law experiment's requirement), and it must evaluate
F's quantile once and G's never.
"""
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import optimize, stats

from stochord import (NoncentralT1, Normal, NormalMixture, NumericError,
                      find_crossings, gamma_limit_variance)

from model_strategies import mixtures, normals, t1s
from reference_crossings import LEVELS, find_crossings_reference

pairs = st.one_of(st.tuples(normals(), mixtures()),
                  st.tuples(t1s(), normals()),
                  st.tuples(mixtures(), t1s()))


@settings(max_examples=30, deadline=None)
@given(pairs, st.floats(0.1, 0.9))
# crossings at t = 1 - 7.8e-9 and t = 1 - 2.4e-6, which the oracle
# cannot resolve to the tolerances checked below
@example((Normal(0.0, 1.25), NormalMixture([(0.5, 0.0, 1.0),
                                            (0.5, -4.0, 2.0)])), 0.5)
@example((Normal(-1.25, 1.375), NormalMixture([(0.25, 0.0, 1.0),
                                               (0.75, -4.0, 2.0)])), 0.5)
# G - F rounds to 0 at every level, while F's quantile lies above G's at
# the median: gamma is 1
@example((Normal(4.1287350597087435e-263, 1.0),
          NormalMixture([(0.5, 0.0, 1.0), (0.5, 0.0, 1.0)])), 0.5)
def test_find_crossings_matches_reference(pair, lam):
    F, G = pair
    # keep the oracle off pairs whose quantile curves all but coincide:
    # rounding noise would give it thousands of brackets to bisect one
    # by one (and their crossings could not pass the density-gap check)
    sign = np.sign(F.quantile(LEVELS) - G.quantile(LEVELS))
    sign = sign[sign != 0]
    assume(np.count_nonzero(sign[1:] != sign[:-1]) <= 4)
    try:
        ref, ref_gamma = find_crossings_reference(F, G, lam, min_rel_gap=1e-3)
    except NumericError:
        assume(False)
    # the oracle's x is F^{-1}(t) at a t bisected to about one ulp, which
    # moves x by spacing(t)/f(x) and 1 - t by spacing(t)/(1 - t): keep
    # crossings where both sit well inside the tolerances checked
    t, x, f = (np.asarray(v) for v in (ref.t, ref.x, ref.f))
    assume(np.all(10 * np.spacing(t) / f <= 1e-12 + 1e-10 * np.abs(x)))
    assume(np.all(np.spacing(t) <= 1e-11 * (1.0 - t)))
    cross, gamma = find_crossings(F, G, lam, min_rel_gap=1e-3)
    assert len(cross.t) == len(ref.t)
    assert np.allclose(cross.t, ref.t, rtol=0.0, atol=1e-12)
    assert gamma == pytest.approx(ref_gamma, rel=0.0, abs=1e-12)
    assert np.allclose(cross.x, ref.x, rtol=1e-10, atol=1e-12)
    assert gamma_limit_variance(cross) == pytest.approx(
        gamma_limit_variance(ref), rel=1e-10, abs=0.0)


def test_find_crossings_one_quantile_call(monkeypatch):
    F = Normal(0.0, 1.4135)
    G = NormalMixture([(0.02, -4.0, 3.0), (0.98, 1.0, 1.0)])
    calls = {"F": 0, "G": 0}

    def counted(model, key):
        quantile = model.quantile

        def wrapper(t):
            calls[key] += 1
            return quantile(t)
        return wrapper

    monkeypatch.setattr(F, "quantile", counted(F, "F"))
    monkeypatch.setattr(G, "quantile", counted(G, "G"))
    cross, _ = find_crossings(F, G, lam=0.5)
    assert len(cross.t) == 3
    assert calls == {"F": 1, "G": 0}


def test_find_crossings_same_law_has_none():
    # equal halves make the mixture's CDF equal the normal's exactly, so
    # x-space finds no sign at all; in t-space the two quantile routines
    # differ by rounding noise, which made thousands of "crossings"
    F = Normal(0.0, 1.0)
    G = NormalMixture([(0.5, 0.0, 1.0), (0.5, 0.0, 1.0)])
    cross, gamma = find_crossings(F, G, lam=0.5)
    assert cross.t == ()
    assert gamma == 0.0


def test_find_crossings_reach_into_the_tails():
    # t1(0) is the standard Cauchy law; against N(0, 1e4) the quantile
    # curves cross at t = 1/2 and, beyond the levels j/20002, at
    # t = 7.35e-6 and 1 - 7.35e-6
    F, G = NoncentralT1(0.0), Normal(0.0, 1e4)
    cross, gamma = find_crossings(F, G, lam=0.5)
    assert len(cross.t) == 3
    # the Cauchy CDF below 0 is atan(-1/x)/pi, accurate in the tail
    root = optimize.brentq(
        lambda x: math.atan(-1.0 / x) / math.pi - stats.norm.cdf(x / 1e4),
        -1e5, -1e4, xtol=1e-9, rtol=1e-15)
    assert cross.x[0] == pytest.approx(root, rel=1e-12)
    assert cross.x[2] == pytest.approx(-root, rel=1e-12)
    assert cross.t[0] == pytest.approx(7.3457e-6, rel=1e-4)
    assert cross.t[1] == 0.5
    assert gamma == pytest.approx(0.5, rel=0, abs=1e-15)
