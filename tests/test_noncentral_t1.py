"""NoncentralT1 against a quadrature reference and its tail asymptotes.

The reference is an independent fixed-panel Gauss-Legendre quadrature
of the CDF and density.  It resolves |x| up to about 1e13,
so beyond 1e12 the tests compare with the leading tail asymptotes
F(x) ~ c/|x| (x -> -inf) and 1 - F(x) ~ c'/x (x -> +inf), whose relative
corrections are O(1/x^2).
"""
import math

import mpmath as mp
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


def exact_lower_tail_const(ncp):
    """c at 30 digits: phi(ncp) - ncp Phi(-ncp) cancels for large ncp."""
    with mp.workdps(30):
        ncp = mp.mpf(ncp)
        return float(2 * mp.npdf(0) * (mp.npdf(ncp) - ncp * mp.ncdf(-ncp)))


def rel_err(got, want):
    return abs(got - want) / abs(want)


ncps = st.floats(-3.0, 3.0)
near_xs = st.floats(-1e12, 1e12)
far_xs = st.floats(1e12, 1e300)
central_ts = st.floats(1e-10, 1.0 - 1e-10)
lower_ts = st.floats(2.2250738585072014e-308, 1e-10)
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
    for t in (1e-310, 5e-324):
        with pytest.raises(NumericError, match="beyond the double range"):
            NoncentralT1(0.5).quantile(t)


# Far lower tails at |ncp| beyond 3, where F(x) = c/|x| to O(1/x^2).
# Owen's T at small slopes (its T2 cells) used to lose every digit
# there: F read 0 at x = -1e100 for ncp 5 and 7, and the quantile
# -1.16e77 at ncp 5 and t = 1e-100, or raised.

@pytest.mark.parametrize("ncp, x", [(5.0, 1e10), (5.0, 1e100), (7.0, 1e100),
                                    (-5.0, 1e300), (-6.0, 1e300)])
def test_t1_cdf_far_lower_tail_large_ncp(ncp, x):
    got = NoncentralT1(ncp).cdf(-x)
    assert rel_err(got, exact_lower_tail_const(ncp) / x) <= 1e-12


@pytest.mark.parametrize("ncp, t, tol", [(5.0, 1e-100, 1e-12),
                                         (7.0, 1e-100, 1e-12),
                                         (10.0, 1e-100, 1e-12),
                                         (20.0, 1e-200, 1e-10)])
def test_t1_quantile_far_lower_tail_large_ncp(ncp, t, tol):
    # at ncp 20 the two terms of the tail form of F cancel by about
    # ncp^2, and F is off by 1.1e-11 relative; the quantile solves it
    d = NoncentralT1(ncp)
    q = d.quantile(t)
    assert rel_err(q, -exact_lower_tail_const(ncp) / t) <= tol
    assert rel_err(d.cdf(q), t) <= 1e-12


def exact_cdf_positive(x, ncp):
    """F(x) at 30 digits for x > 0 and large ncp, as P(|Z'| >= (Z + ncp)/x)
    integrated over Z (Phi(-ncp) is below 1e-40 here).  The integrand is
    scaled to O(1), since mp.quad's tolerance is absolute."""
    with mp.workdps(30):
        x, ncp = mp.mpf(x), mp.mpf(ncp)

        def survival(z):
            return mp.erfc((z + ncp) / (x * mp.sqrt(2)))

        s0 = survival(0)
        edges = [mp.mpf(k) for k in (-40, -20, -8, -3, 0, 3, 8, 20, 40)]
        return float(s0 * mp.quad(lambda z: mp.npdf(z) * survival(z) / s0,
                                  edges + [mp.inf]))


# Large ncp puts the whole law in the last cells of the angle table,
# near phi = pi, where the angle resolves x only to (1 + x^2) 4.4e-16.
# Central quantiles read 0.44 off in F at ncp 1e15 when the solve
# returned such an x, and deep lower-tail levels at ncp 1e4 to 1e6
# raised when Newton crept down the Gaussian tail in 1/x.

@pytest.mark.parametrize("ncp, t", [(1e4, 1e-300), (1e4, 1e-200),
                                    (1e4, 1e-100), (1e6, 1e-300),
                                    (1e12, 1e-300), (1e12, 0.1),
                                    (1e12, 0.5), (1e12, 0.9), (1e15, 0.5)])
def test_t1_quantile_large_ncp(ncp, t):
    # at t = 1e-300, F moves by about 1400 times x's relative error
    q = NoncentralT1(ncp).quantile(t)
    assert rel_err(exact_cdf_positive(q, ncp), t) <= 1e-12


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
    ulps = np.where(np.sign(qs[:-1]) * ncp < 0, 1024, 16)
    slack = ulps * np.spacing(np.maximum(np.abs(qs[:-1]), 1.0))
    assert np.all(np.diff(qs) >= -slack)
