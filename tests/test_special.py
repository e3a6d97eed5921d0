"""The numpy special functions against mpmath, with scipy as the bar.

Each property draws a point, computes the function there with mpmath at
40 or 50 digits, and measures the error of `stochord.special` and of
`scipy.special` in units of the spacing of doubles at the exact value
(the least subnormal for values below the normal range).  The port may
be off by no more than scipy is, plus a few ulps: ndtr, erf, erfc and
ndtri do scipy's Cephes arithmetic and differ from it only in the last
bits of np.exp and np.log; Owen's T does the same except in the T3
region, whose series has Patefield and Tandy's double-precision
coefficients, and in the T2 region, whose first term and factor
exp(-h^2/2) keep digits that scipy's lose.
"""
import math
import warnings

import mpmath as mp
import numpy as np
import pytest
import scipy.special as sc
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stochord import special

# allowance over scipy's error: the erf family and ndtri differ from
# scipy only through np.exp and np.log.  In the T3 cells of Owen's T the
# series' coefficients differ from scipy's, and its forward recurrence
# amplifies the rounding of its first term, so two sound evaluations
# differ by several ulps (on h in [3.4, 12], a in [0.5, 1] the port is
# off by at most 60 ulps, scipy by up to 700).
ULPS = 4
OWENS_T_ULPS = 8      # in ulps of the largest term of the formula
OWENS_T_SHARE = 0.1   # and this share of scipy's error


def ulp(exact) -> float:
    """The spacing of doubles at an exact value (the least subnormal
    below the normal range)."""
    return float(np.spacing(abs(float(exact)))) or 5e-324


def ulp_error(value, exact) -> float:
    return float(abs(mp.mpf(float(value)) - exact) / ulp(exact))


def alone(name, *args) -> float:
    """`special`'s function ``name`` at one point, evaluated on
    one-element arrays as the package's evaluators pass them."""
    return getattr(special, name)(*(np.array([v], dtype=float)
                                    for v in args))[0]


def assert_no_worse(name, exact, *args, allowance=ULPS):
    ours = ulp_error(alone(name, *args), exact)
    theirs = ulp_error(getattr(sc, name)(*args), exact)
    assert ours <= theirs + allowance, (name, args, ours, theirs)


@settings(max_examples=300, deadline=None)
@given(st.floats(-38.5, 38.5))
def test_ndtr_matches_mpmath(x):
    # relative accuracy, in ulps of the value, down to x = -38 where
    # Phi is subnormal
    with mp.workdps(40):
        assert_no_worse("ndtr", mp.ncdf(x), x)


@settings(max_examples=300, deadline=None)
@given(st.floats(-8.0, 8.0))
def test_erf_matches_mpmath(x):
    with mp.workdps(40):
        assert_no_worse("erf", mp.erf(x), x)


@settings(max_examples=300, deadline=None)
@given(st.floats(-8.0, 27.5))
def test_erfc_matches_mpmath(x):
    with mp.workdps(40):
        assert_no_worse("erfc", mp.erfc(x), x)


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                 st.floats(-300.0, -1.0).map(lambda e: 10.0 ** e)))
def test_ndtri_matches_mpmath(p):
    with mp.workdps(40):
        exact = mp.findroot(lambda t: mp.ncdf(t) - p, float(sc.ndtri(p)))
        assert_no_worse("ndtri", exact, p)


def owens_t_exact(h: float, a: float):
    """T(h, a) at 50 digits, and the magnitude of the largest term that
    computes it: the defining integral for |a| <= 1; for |a| > 1 the
    reflection (Phi(-h) + Phi(-ah))/2 - Phi(-h) Phi(-ah) - T(ah, 1/a),
    whose first terms are the largest."""
    with mp.workdps(50):
        h, a = abs(mp.mpf(h)), mp.mpf(a)
        sign, a = (-1 if a < 0 else 1), abs(a)

        def integral(h, a):
            # exp(-h^2/2) taken out, so the integrand is 1 at 0; and
            # breakpoints from its width 1/h outwards
            points = [mp.mpf(0)]
            x = 1 / (8 * max(h, 1))
            while x < a:
                points.append(x)
                x *= 2
            body = mp.quad(lambda x: mp.exp(-h * h * x * x / 2) / (1 + x * x),
                           points + [a])
            return mp.exp(-h * h / 2) * body / (2 * mp.pi)

        if a <= 1:
            value = integral(h, a)
            return sign * value, value
        ch = mp.ncdf(-h)
        if a * h > 40:      # Phi(-ah) and T(ah, 1/a) are below 1e-349
            return sign * ch / 2, ch / 2
        cah = mp.ncdf(-a * h)
        base = (ch + cah) / 2 - ch * cah
        return sign * (base - integral(a * h, 1 / a)), base


def owens_t_batch_errors(h0: float, a0: float) -> tuple[float, float]:
    """The largest errors of the port and of scipy over five points by
    (h0, a0), in ulps of the largest term of each point's formula."""
    ours, theirs = [], []
    for k in range(-2, 3):
        h, a = h0 * (1.0 + 1e-3 * k), a0 * (1.0 + 1e-3 * abs(k))
        exact, largest = owens_t_exact(h, a)
        unit = ulp(largest) / ulp(exact)
        ours.append(ulp_error(alone("owens_t", h, a), exact) / unit)
        theirs.append(ulp_error(sc.owens_t(h, a), exact) / unit)
    return max(ours), max(theirs)


@settings(max_examples=100, deadline=None)
@given(st.floats(-40.0, 40.0),
       st.one_of(st.floats(0.0, 1.0),
                 st.floats(-3.0, 300.0).map(lambda e: 10.0 ** e)),
       st.booleans())
def test_owens_t_matches_mpmath(h, a, negative):
    # every cell of the Patefield-Tandy table, and slopes up to 1e300
    # through the reflection a -> 1/a.  The reflection subtracts
    # T(ah, 1/a) from Phi terms up to a few times larger, whose rounding
    # counts in their ulps.  Errors compare over a few nearby points: in
    # the T3 cells, and in reflections onto them, either series may be
    # the better one by several ulps at a single point.
    ours, theirs = owens_t_batch_errors(h, -a if negative else a)
    assert ours <= theirs * (1.0 + OWENS_T_SHARE) + OWENS_T_ULPS, \
        (h, a, ours, theirs)


@st.composite
def small_slopes(draw):
    """(h, a) with h in [4.8, 37.4] and a from 1e-300 to 0.1, where
    T(h, a) ~ a exp(-h^2/2)/(2 pi) stays in the normal range."""
    h = draw(st.floats(4.8, 37.4))
    low = max(-300.0, -306.0 + h * h / (2.0 * math.log(10.0)))
    return h, 10.0 ** draw(st.floats(low, -1.0))


@settings(max_examples=150, deadline=None)
@given(small_slopes())
def test_owens_t_keeps_relative_accuracy_at_small_slopes(case):
    # scipy's T2 series starts from (Phi(ah) - 1/2)/h, which for small
    # ah keeps none of its digits (T(6, 1e-20) came out 40x too small);
    # the port takes Phi(ah) - 1/2 as erf(ah/sqrt 2)/2
    h, a = case
    exact, _ = owens_t_exact(h, a)
    assume(exact >= np.finfo(float).tiny)
    assert float(abs(alone("owens_t", h, a) - exact) / exact) <= 1e-13


EXTREMES = [np.inf, -np.inf, 1e308, -1e308, 0.0, -0.0, 5e-324, -5e-324,
            2.2250738585072014e-308, 1.0, -1.0, 0.5, np.nan]


def _same(ours, theirs):
    """Equal, both NaN, or within ULPS of each other."""
    ours, theirs = np.asarray(ours), np.asarray(theirs)
    with np.errstate(invalid="ignore"):
        close = np.abs(ours - theirs) <= ULPS * np.spacing(np.abs(theirs))
    return np.all((ours == theirs) | (np.isnan(ours) & np.isnan(theirs))
                  | close)


@pytest.mark.parametrize("name", ["ndtr", "erf", "erfc", "ndtri"])
def test_extreme_arguments_raise_no_warning(name):
    x = np.array(EXTREMES)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = getattr(special, name)(x)
    assert _same(got, getattr(sc, name)(x)), (got, getattr(sc, name)(x))


def test_owens_t_extreme_arguments_raise_no_warning():
    h, a = (v.ravel() for v in np.meshgrid(EXTREMES, EXTREMES))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = special.owens_t(h, a)
    want = sc.owens_t(h, a)
    assert _same(got, want), (got, want)
    # the closed forms at the edges
    assert math.isclose(alone("owens_t", 2.0, np.inf),
                        0.5 * alone("ndtr", -2.0), rel_tol=1e-15)
    assert alone("owens_t", np.inf, 0.7) == 0.0
    assert alone("owens_t", 0.0, np.inf) == 0.25


def test_values_do_not_depend_on_the_array():
    # each element of a long array has the value it has alone
    rng = np.random.default_rng(4)
    x = rng.standard_normal(3 * 8192 + 5) * 6.0
    h = rng.standard_normal(x.size) * 4.0
    a = np.exp(rng.uniform(-8.0, 8.0, x.size))
    for name in ("ndtr", "erf", "erfc"):
        whole = getattr(special, name)(x)[::97]
        assert np.array_equal(whole, [alone(name, v) for v in x[::97]]), name
    p = special.ndtr(x)
    p = p[(p > 0.0) & (p < 1.0)]
    assert np.array_equal(special.ndtri(p)[::97],
                          [alone("ndtri", v) for v in p[::97]])
    t = special.owens_t(h, a)
    assert np.array_equal(t[::97], [alone("owens_t", u, v)
                                    for u, v in zip(h[::97], a[::97])])
