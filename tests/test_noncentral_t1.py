"""NoncentralT1 against a quadrature reference and its tail asymptotes.

The reference is an independent fixed-panel Gauss-Legendre quadrature
of the CDF and density.  It resolves |x| up to about 1e13,
so beyond 1e12 the tests compare with the leading tail asymptotes
F(x) ~ c/|x| (x -> -inf) and 1 - F(x) ~ c'/x (x -> +inf), whose relative
corrections are O(1/x^2).
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from stochord import NoncentralT1, NumericError


def _phi(z):
    return np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


def _reference_nodes():
    # T = (Z + ncp)/|Z'| gives F(x) = int_0^inf 2 phi(w) Phi(x w - ncp) dw.
    # The integrand's transition in w has width ~1/|x|, so the panels are
    # refined geometrically toward 0: every |x| up to ~1e13 is resolved by
    # some panel, and 16-node Gauss-Legendre per panel leaves a composite
    # error below 1e-12.  Truncation above w=8 contributes under 2e-15.
    k_panels, w_max, n_per = 48, 8.0, 16
    edges = [0.0] + [w_max * 2.0 ** (-k) for k in range(k_panels, -1, -1)]
    gl_x, gl_w = np.polynomial.legendre.leggauss(n_per)
    nodes, weights = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        nodes.append(mid + half * gl_x)
        weights.append(half * gl_w)
    w = np.concatenate(nodes)
    return w, np.concatenate(weights) * 2.0 * _phi(w)


_W, _CW = _reference_nodes()


def reference_cdf(x, ncp):
    return np.clip(ndtr(np.multiply.outer(x, _W) - ncp) @ _CW, 0.0, 1.0)


def reference_density(x, ncp):
    # the same nodes evaluate the density E[|Z'| phi(x|Z'| - ncp)]
    return _phi(np.multiply.outer(x, _W) - ncp) @ (_CW * _W)


def lower_tail_const(ncp):
    """c in F(x) ~ c/|x| as x -> -inf."""
    return 2.0 * _phi(0.0) * (_phi(ncp) - ncp * ndtr(-ncp))


def upper_tail_const(ncp):
    """c' in 1 - F(x) ~ c'/x as x -> +inf."""
    return 2.0 * _phi(0.0) * (_phi(ncp) + ncp * ndtr(ncp))


def rel_err(got, want):
    return abs(got - want) / abs(want)


ncps = st.floats(-3.0, 3.0)
near_xs = st.floats(-1e12, 1e12)
far_xs = st.floats(1e12, 1e300)
central_ts = st.floats(1e-10, 1.0 - 1e-10)
lower_ts = st.floats(1e-300, 1e-10)
upper_gaps = st.floats(1.1e-16, 1e-10)
PROPERTY = settings(max_examples=300, deadline=None)


# Regression values for the quantile in the far tails, where the
# quadrature-based inverse returned wrong values or inf.

def test_t1_quantile_far_lower_tail_regression():
    t = 1e-20
    q = NoncentralT1(0.5).quantile(t)
    assert rel_err(q, -lower_tail_const(0.5) / t) <= 1e-12
    assert q == pytest.approx(-1.5782e19, rel=1e-4)


def test_t1_quantile_far_upper_tail_regression():
    t = 1.0 - 1e-15
    q = NoncentralT1(0.5).quantile(t)
    assert np.isfinite(q)
    assert rel_err(q, upper_tail_const(0.5) / (1.0 - t)) <= 1e-12
    assert q == pytest.approx(5.5721e14, rel=1e-4)


def test_t1_quantile_negative_ncp_tail_regression():
    t = 1e-15
    q = NoncentralT1(-2.0).quantile(t)
    assert rel_err(q, -lower_tail_const(-2.0) / t) <= 1e-12
    assert q == pytest.approx(-1.6025e15, rel=1e-4)


def test_t1_quantile_beyond_double_range_raises():
    with pytest.raises(NumericError):
        NoncentralT1(0.5).quantile(1e-310)


def test_t1_cdf_density_at_infinity():
    d = NoncentralT1(0.5)
    assert np.array_equal(d.cdf(np.array([-np.inf, np.inf])), [0.0, 1.0])
    assert np.array_equal(d.density(np.array([-np.inf, np.inf])), [0.0, 0.0])


@PROPERTY
@given(ncp=ncps, x=near_xs)
def test_t1_cdf_matches_reference(ncp, x):
    got, want = NoncentralT1(ncp).cdf(x), reference_cdf(x, ncp)
    assert abs(got - want) <= 2e-15
    if want < 0.5:
        assert rel_err(got, want) <= 1e-12


@PROPERTY
@given(ncp=ncps, x=far_xs)
def test_t1_cdf_matches_tail_asymptotes(ncp, x):
    d = NoncentralT1(ncp)
    assert rel_err(d.cdf(-x), lower_tail_const(ncp) / x) <= 1e-12
    assert abs(d.cdf(x) - (1.0 - upper_tail_const(ncp) / x)) <= 2e-15


@PROPERTY
@given(ncp=ncps, x=near_xs)
def test_t1_density_matches_reference(ncp, x):
    got, want = NoncentralT1(ncp).density(x), reference_density(x, ncp)
    assert rel_err(got, want) <= 1e-11


@PROPERTY
@given(ncp=ncps, t=central_ts)
def test_t1_quantile_roundtrip_central(ncp, t):
    assert abs(reference_cdf(NoncentralT1(ncp).quantile(t), ncp) - t) <= 1e-10


@PROPERTY
@given(ncp=ncps, t=lower_ts)
def test_t1_quantile_lower_tail_asymptote(ncp, t):
    q = NoncentralT1(ncp).quantile(t)
    assert rel_err(q, -lower_tail_const(ncp) / t) <= 1e-12


@PROPERTY
@given(ncp=ncps, gap=upper_gaps)
def test_t1_quantile_upper_tail_asymptote(ncp, gap):
    t = 1.0 - gap
    q = NoncentralT1(ncp).quantile(t)
    assert rel_err(q, upper_tail_const(ncp) / (1.0 - t)) <= 1e-12


@PROPERTY
@given(ncp=ncps, ts=st.lists(st.one_of(central_ts, lower_ts,
                                        upper_gaps.map(lambda g: 1.0 - g)),
                              min_size=2, max_size=20),
       t0=st.one_of(central_ts, lower_ts, st.just(0.5)))
def test_t1_quantile_nondecreasing(ncp, ts, t0):
    # a run of adjacent doubles around t0 probes the CDF's own rounding;
    # t0 = 1/2 straddles the switch to the survival-side solve
    ts = np.sort(np.concatenate((ts, t0 + np.arange(-8, 8) * np.spacing(t0))))
    qs = NoncentralT1(ncp).quantile(ts)
    # Adjacent t may swap by the CDF's own rounding: a computed F crosses
    # a given t at several x a few ulps apart.  Where q and ncp have
    # opposite signs, the solved side has x < 0 and ncp > 0, and the two
    # terms of either CDF form cancel (by ~60x near x = -1 for ncp = 3);
    # there the crossings spread over some 600 ulps of x.  Scanning runs
    # of 16 adjacent doubles the worst swaps were 269 ulps of max(|q|, 1)
    # there (ncp = 3, t = 2.9e-4) and at most 7 elsewhere, the t = 1/2 switch
    # between the two solves included.
    ulps = np.where(qs[:-1] * ncp < 0, 1024, 16)
    slack = ulps * np.spacing(np.maximum(np.abs(qs[:-1]), 1.0))
    assert np.all(np.diff(qs) >= -slack)
