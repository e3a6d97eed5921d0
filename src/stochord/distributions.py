"""Distribution models: normal, noncentral t (1 df), normal mixture, empirical.

Every model exposes the same surface: ``cdf(x)``, ``density(x)``,
``quantile(t)`` (the left-continuous generalized inverse
``inf{x : t <= F(x)}``), and ``sample(n, seed)``.  ``sample`` given a
(k, 2) block of stream keys (`rng.stream_keys`) returns one sample per
key, stacked in rows.

The evaluators ``cdf``, ``density`` and ``quantile`` share one contract,
kept by the `_evaluator` decorator: a scalar argument gives a Python
float, an array of any shape gives a float64 array of that shape, and
each value equals, bit for bit, the one of its element evaluated alone.
Quantile levels must lie strictly inside (0, 1); any other level (0, 1,
NaN) raises `DomainError`.

The quantile and the CDF satisfy the Galois duality
``t <= F(x)  iff  quantile(t) <= x``: exactly for empirical models and
mixtures not of one law, and up to the stated numeric tolerance (1e-10
in the central range, machine precision in CDF space everywhere) for the
other analytic families.

The noncentral t with one degree of freedom has closed forms for its CDF
(Owen's T function, with a cancellation-free variant in the lower tail)
and its density; its quantile keeps relative accuracy in both tails,
out to t = 2^-1022 and 1 - t = 2^-53.
"""
from __future__ import annotations

import functools
import math
import sys
from pathlib import Path

import numpy as np

from .errors import DataError, DomainError, NumericError, ParameterError
from .rng import draw_rows

__all__ = [
    "Distribution",
    "Normal",
    "NoncentralT1",
    "NormalMixture",
    "Empirical",
    "from_descriptor",
]

_SQRT_2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
# the least sd of a normal (component): phi(0) / sd overflows for a
# subnormal one
_MIN_SD = sys.float_info.min
_MAX_DOUBLE = sys.float_info.max


def _phi(z):
    # z * z overflows beyond |z| = 1e154, to inf, where phi is 0 anyway
    with np.errstate(over="ignore"):
        return np.exp(-0.5 * z * z) / _SQRT_2PI


def _standardize(x, mean, sd):
    # (x - mean) / sd overflows beyond the double range, to +-inf, where
    # Phi is 0 or 1 and phi is 0 anyway
    with np.errstate(over="ignore"):
        return (x - mean) / sd


def _normal_quantile(mean, sd, t):
    """mean + sd ndtri(t), or the double above the mean where that sum
    rounds to the mean at t > 1/2: the CDF is 1/2 at the mean and at
    least t at the next double."""
    from .special import ndtri
    q = mean + sd * ndtri(t)
    return np.where((q == mean) & (t > 0.5), np.nextafter(mean, np.inf), q)


def _sorted_unique(x) -> np.ndarray:
    """np.unique(x), without the numpy.ma import that a plain np.unique
    on floats makes (about 12 ms per run under numpy 2.4)."""
    x = np.sort(x, axis=None)
    keep = np.ones(x.shape, dtype=bool)
    np.not_equal(x[1:], x[:-1], out=keep[1:])
    return x[keep]


# evaluation chunks: the special functions' temporaries stay in cache
_CHUNK = 8192


def _evaluator(probability: bool = False):
    """Lift ``kernel(*head, x)``, written for a flat float64 array x, to
    the evaluator contract of the module docstring: x is converted and
    raveled, the kernel runs on chunks of `_CHUNK` values of it, the
    result takes x's shape, and a scalar x gives a float.  With
    ``probability`` every element of x must lie strictly inside (0, 1)
    (NaN fails both comparisons)."""
    def wrap(kernel):
        @functools.wraps(kernel)
        def evaluator(*args):
            *head, x = args
            x = np.asarray(x, dtype=float)
            flat = x.ravel()
            if probability and flat.size and not (flat.min() > 0.0
                                                  and flat.max() < 1.0):
                raise DomainError(
                    "quantile argument must lie strictly inside (0, 1)")
            out = np.empty(flat.size)
            for i in range(0, flat.size, _CHUNK):
                out[i:i + _CHUNK] = kernel(*head, flat[i:i + _CHUNK])
            out = out.reshape(x.shape)
            return float(out) if out.ndim == 0 else out
        return evaluator
    return wrap


def _bisect(probe, lo, hi, x=None, ends=None
            ) -> tuple[np.ndarray, np.ndarray]:
    """Shrink all brackets [lo_k, hi_k] together until each one's ends
    are adjacent doubles.  ``probe(x, k)`` returns, for points x inside
    brackets k (the ends are never probed), whether x lies on the
    bracket's hi side, a value v that changes sign there, and its slope
    dv/dx, or None for the secant slope through the bracket's previous
    probe.  ``ends`` gives v at lo and hi, when known.

    The first probe is ``x``, else the false position of ``ends``, else
    the midpoint; each next one is a Newton step v / slope from the last.
    A zero v gives no step: on a flat stretch of v it says nothing of the
    distance to the side change.  A step that lands on an end, or passes
    it by at most an eighth of its length, moves inside that end by one
    ulp, twice as far at each further such move.  The midpoint replaces
    any other step that leaves the bracket, and every step after two
    passes that did not halve the bracket.  The side test alone moves the
    ends, so they stop where it flips, as with plain halving; the
    midpoint 0.5 a + 0.5 b cannot overflow.  Returns the final (lo, hi).
    """
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    mid = 0.5 * lo + 0.5 * hi
    xp = lo.copy()                      # the previous probe, for the secant
    vp = (np.full(lo.size, np.nan) if ends is None
          else np.array(ends[0], dtype=float))
    reach = np.ones(lo.size)            # ulps of the next move off an end
    wide = np.full(lo.size, np.inf)     # the width two passes back
    quiet = functools.partial(np.errstate, divide="ignore", invalid="ignore",
                              over="ignore")
    with quiet():
        width = hi - lo                 # and one pass back
        if x is None and ends is not None:
            x = lo - vp * (hi - lo) / (ends[1] - vp)
        x = mid if x is None else np.where((lo < x) & (x < hi), x, mid)
    active = np.flatnonzero((lo < mid) & (mid < hi))
    while active.size:
        xa = x[active]
        up, v, slope = probe(xa, active)
        with quiet():
            v = np.where(v == 0.0, np.nan, v)
            if slope is None:
                slope = (v - vp[active]) / (xa - xp[active])
            xp[active], vp[active] = xa, v
            a = lo[active] = np.where(up, lo[active], xa)
            b = hi[active] = np.where(up, xa, hi[active])
            step = xa - v / slope
            slack = 0.125 * np.abs(step - xa)
            off_a = (step <= a) & (a - step <= slack)
            off_b = (step >= b) & (step - b <= slack)
            r = reach[active]
            step = np.where(off_a, a + r * np.abs(np.spacing(a)),
                            np.where(off_b, b - r * np.abs(np.spacing(b)),
                                     step))
            reach[active] = np.where(off_a | off_b, 2.0 * r, r)
            m = 0.5 * a + 0.5 * b
            slow = b - a > 0.5 * wide[active]
            x[active] = np.where(slow | ~((a < step) & (step < b)), m, step)
            wide[active], width[active] = width[active], b - a
        active = active[(a < m) & (m < b)]
    return lo, hi


class Distribution:
    """Common surface for the model families.

    Each family defines its evaluators in its own class body: the traced
    benchmark pass (``perfbench/run.py --trace 1``) wraps them through
    ``cls.__dict__``."""

    kind: str = ""

    def cdf(self, x):
        raise NotImplementedError

    def density(self, x):
        raise NotImplementedError

    def quantile(self, t):
        raise NotImplementedError

    def sample(self, n: int, seed) -> np.ndarray:
        """n draws from the stream of ``seed`` (a SeedSpec or an int), or
        an array (k, n) for a (k, 2) block of stream keys, row i equal to
        the sample of key i's stream alone."""
        raise NotImplementedError

    def to_json(self) -> dict:
        raise NotImplementedError

    def __eq__(self, other):
        return isinstance(other, Distribution) and self.to_json() == other.to_json()

    def __hash__(self):
        return hash(repr(self.to_json()))

    def __repr__(self):
        fields = ", ".join(f"{k}={v!r}" for k, v in self.to_json().items()
                           if k != "kind")
        return f"{type(self).__name__}({fields})"


class Normal(Distribution):
    """Gaussian with the usual location-scale parameterization."""

    kind = "normal"

    def __init__(self, mean: float, sd: float):
        self.mean = float(mean)
        self.sd = float(sd)
        if not math.isfinite(self.mean) or not math.isfinite(self.sd):
            raise ParameterError("normal parameters must be finite")
        if self.sd < _MIN_SD:
            raise ParameterError(f"sd must be at least {_MIN_SD!r}, the "
                                 f"least normal double, got {self.sd}")

    @_evaluator()
    def cdf(self, x):
        from .special import ndtr
        return ndtr(_standardize(x, self.mean, self.sd))

    @_evaluator()
    def density(self, x):
        return _phi(_standardize(x, self.mean, self.sd)) / self.sd

    @_evaluator(probability=True)
    def quantile(self, t):
        return _normal_quantile(self.mean, self.sd, t)

    def sample(self, n: int, seed) -> np.ndarray:
        z = draw_rows(seed, (int(n),),
                      lambda rng, out: rng.standard_normal(out=out))
        return self.mean + self.sd * z

    def to_json(self) -> dict:
        return {"kind": "normal", "mean": self.mean, "sd": self.sd}


# Noncentral t with one degree of freedom, T = (Z + ncp)/|Z'| with
# independent standard normals.  With r = sqrt(1+x^2) and a = ncp/r,
# Owen's closed form (Owen 1956, Ann. Math. Statist. 27; Owen 1965,
# Biometrika 52) is F(x) = Phi(-a) + 2 T(a, x), T being Owen's T function.
# For x < -1 its two terms cancel as F falls like c/|x|, so there the
# reflection T(h, s) + T(hs, 1/s) = (Phi(h) + Phi(hs))/2 - Phi(h) Phi(hs)
# (h, s >= 0; T is even in h) turns it into
# F(x) = 2 T(xa, -1/x) - erf(a/sqrt 2) Phi(xa),
# which keeps relative accuracy out to |x| = 1e300.  The density is
#   f(x) = g(x)/r^2,  g = [exp(-ncp^2/2)
#          + sqrt(2 pi) ncp (x/r) exp(-a^2/2) Phi(ncp x/r)]/pi,
# with g = dF/dphi bounded in the angle phi = atan(x) + pi/2, where F
# falls linearly as phi -> 0: so the quantile is solved in phi.
_DBL_MAX = float(np.finfo(float).max)
_DBL_TINY = float(np.finfo(float).tiny)
_T1_NEWTON_CAP = 100
_T1_XTOL = 4.0 * float(np.finfo(float).eps)


def _t1_cdf(x: np.ndarray, ncp: float) -> np.ndarray:
    """The CDF on a flat array, relatively accurate in the lower tail."""
    from .special import erf, ndtr, owens_t
    xf = np.clip(x, -_DBL_MAX, _DBL_MAX)
    r = np.hypot(1.0, xf)
    a = ncp / r
    xa = ncp * (xf / r)
    tail = xf < -1.0
    base = ndtr(-a)
    if tail.any():
        base[tail] = -erf(a[tail] / _SQRT_2) * ndtr(xa[tail])
    out = base + 2.0 * owens_t(np.where(tail, xa, a),
                               np.where(tail, -1.0 / np.minimum(xf, -1.0), xf))
    return np.clip(np.where(np.isinf(x), x > 0, out), 0.0, 1.0)


def _t1_scaled_density(x: np.ndarray, ncp: float) -> np.ndarray:
    """The density times 1 + x^2, bounded for every x."""
    from .special import ndtr
    xf = np.clip(x, -_DBL_MAX, _DBL_MAX)
    r = np.hypot(1.0, xf)
    a, u = ncp / r, xf / r
    return (math.exp(-0.5 * ncp * ncp) + _SQRT_2PI * ncp * u
            * np.exp(-0.5 * a * a) * ndtr(ncp * u)) / math.pi


class NoncentralT1(Distribution):
    """Noncentral t with 1 degree of freedom and noncentrality ``ncp``.

    The CDF and density are closed forms through Owen's T function (see
    the comment above `_t1_cdf`).  Against a quadrature reference, for
    |ncp| <= 3, the CDF is within 1e-12 relative wherever it is below 1/2
    and 2e-15 absolute everywhere, and the density within 1e-11 relative.
    For ncp above about 4 the lower tail loses relative accuracy where the
    terms of both forms cancel, most near x = -1, but not absolute accuracy.

    The quantile takes safeguarded Newton steps on log F in the angle
    phi = atan(x) + pi/2, where dF/dphi = f (1 + x^2) is bounded, from a
    uniform table of phi until x is solved to a few ulps.  Above the
    median it solves F(-x; -ncp) = 1 - t, exact at the double 1 - t, so
    the quantile follows -c/t, c = 2 phi(0) (phi(ncp) - ncp Phi(-ncp)),
    down to t = 2^-1022 and c'/(1 - t), c' = 2 phi(0) (phi(ncp) + ncp
    Phi(ncp)), up to 1 - t = 2^-53.  The central round trip |F(Q(t)) - t|
    stays below 1e-10, also at ncp 1e15.  A quantile beyond the double
    range, ncp above 5e15 (median beyond -cot(pi)) or an iteration that
    does not converge raises `NumericError`.
    """

    kind = "t1"

    def __init__(self, ncp: float):
        self.ncp = float(ncp)
        if not math.isfinite(self.ncp):
            raise ParameterError("ncp must be finite")
        self._table: tuple[np.ndarray, np.ndarray] | None = None
        self._reflection: NoncentralT1 | None = None

    @_evaluator()
    def cdf(self, x):
        return _t1_cdf(x, self.ncp)

    @_evaluator()
    def density(self, x):
        inv_r = 1.0 / np.hypot(1.0, np.clip(x, -_DBL_MAX, _DBL_MAX))
        return _t1_scaled_density(x, self.ncp) * inv_r * inv_r

    def _quantile_table(self) -> tuple[np.ndarray, np.ndarray]:
        # Lazily built bracketing table of F at uniform angles phi in
        # [0, pi] (x = -cot phi), reduced to strictly increasing values.
        if self._table is None:
            phis = np.linspace(0.0, math.pi, 2049)
            with np.errstate(divide="ignore"):      # phi = 0: x = -inf
                fs = np.maximum.accumulate(self.cdf(-1.0 / np.tan(phis)))
            fs, first = np.unique(fs, return_index=True)
            self._table = (phis[first], fs)
        return self._table

    def _solve_lower(self, p: np.ndarray) -> np.ndarray:
        """Solve F(x) = p for p <= 1/2 from the cell of `_quantile_table`
        bracketing p, in x: phi resolves x only to (1 + x^2) 4.4e-16."""
        phit, ft = self._quantile_table()
        j = np.searchsorted(ft, p, side="left")     # >= 1: ft[0] = F(-inf)
        if j.max() == ft.size:      # ncp above 5e15: median beyond -cot(pi)
            raise NumericError("t1 quantile lies beyond the angle's range")
        a, b = phit[j - 1], phit[j]
        phi = a + (p - ft[j - 1]) / (ft[j] - ft[j - 1]) * (b - a)
        with np.errstate(divide="ignore", over="ignore"):   # a = 0: x = -inf
            lo, x, hi = -1.0 / np.tan(a), -1.0 / np.tan(phi), -1.0 / np.tan(b)
        active = np.arange(p.size)
        for _ in range(_T1_NEWTON_CAP):
            xa, pa = x[active], p[active]
            if np.isinf(xa).any():
                raise NumericError("t1 quantile lies beyond the double range")
            fx = self.cdf(xa)
            over = fx >= pa
            la = np.where(over, lo[active], xa)
            ha = np.where(over, xa, hi[active])
            # Newton step dphi on log F (near quadratic down the Gaussian
            # tail where Newton on F creeps), taken as tan(atan x - dphi)
            scale = _T1_XTOL * np.maximum(np.abs(xa), 1.0)
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                tau = np.tan(np.log1p((fx - pa) / pa) * fx / self._slope(xa))
                xn = (xa - tau) / (1.0 + xa * tau)
                small = np.abs(xn - xa) <= scale
                done = small | (ha - la <= scale)
            out = ~(small | ((xn > la) & (xn < ha)))
            if out.any():   # bisect in phi, or in x where phi is too coarse
                lb, hb = la[out], ha[out]
                with np.errstate(divide="ignore", over="ignore"):
                    m = -1.0 / np.tan(0.5 * np.arctan2(1.0, -lb)
                                      + 0.5 * np.arctan2(1.0, -hb))
                xn[out] = np.where((m > lb) & (m < hb), m, 0.5 * lb + 0.5 * hb)
            x[active], lo[active], hi[active] = xn, la, ha
            active = active[~done]
            if not active.size:
                return x
        raise NumericError("t1 quantile Newton iteration did not converge")

    def _slope(self, x: np.ndarray) -> np.ndarray:
        """dF/dphi = f(x) (1 + x^2), also where f underflows; at least
        2^-1022, so that a Newton step stays finite."""
        f, r = self.density(x), np.hypot(1.0, x)
        g = f * r * r       # f r <= g/r: no overflow
        deep = f < _DBL_TINY
        if deep.any():
            g[deep] = _t1_scaled_density(x[deep], self.ncp)
        return np.maximum(g, _DBL_TINY)

    @_evaluator(probability=True)
    def quantile(self, t):
        # Above the median solve for the survival function: -T has
        # noncentrality -ncp, so F(-x; -ncp) = 1 - t, and the difference
        # is exact in double precision for t >= 1/2.
        upper = t > 0.5
        p = np.where(upper, 1.0 - t, t)
        x = np.empty_like(p)
        if (~upper).any():
            x[~upper] = self._solve_lower(p[~upper])
        if upper.any():
            if self._reflection is None:
                self._reflection = NoncentralT1(-self.ncp)
            x[upper] = -self._reflection._solve_lower(p[upper])
        return x

    def sample(self, n: int, seed) -> np.ndarray:
        z = draw_rows(seed, (2, int(n)),
                      lambda rng, out: rng.standard_normal(out=out))
        return (z[..., 0, :] + self.ncp) / np.abs(z[..., 1, :])

    def to_json(self) -> dict:
        return {"kind": "t1", "ncp": self.ncp}


# Levels of the mixture quantile's table: every component's quantiles
# at them, log-spaced down to 1e-300 and up to 1 - 1e-16 (1 - t is at
# least 2^-53), and j/64 between.
_MIX_LEVELS = np.concatenate((np.logspace(-300, math.log10(0.5), 60),
                              np.arange(1, 64) / 64,
                              1.0 - np.logspace(-16, math.log10(0.5), 16)))


class NormalMixture(Distribution):
    """Finite mixture of Gaussians.

    ``components`` is a sequence of (weight, mean, sd) triples; weights
    must be positive and sum to 1 within 1e-9.
    """

    kind = "mixture"

    def __init__(self, components):
        comps = [(float(w), float(m), float(s)) for (w, m, s) in components]
        if not comps:
            raise ParameterError("mixture needs at least one component")
        for w, m, s in comps:
            if not (math.isfinite(w) and math.isfinite(m) and math.isfinite(s)):
                raise ParameterError("mixture parameters must be finite")
            if w <= 0.0:
                raise ParameterError(f"mixture weight must be positive, got {w}")
            if s < _MIN_SD:
                raise ParameterError(f"mixture sd must be at least "
                                     f"{_MIN_SD!r}, the least normal "
                                     f"double, got {s}")
        total = sum(w for w, _, _ in comps)
        if abs(total - 1.0) > 1e-9:
            raise ParameterError(f"mixture weights sum to {total}, expected 1")
        self.components = comps
        self._table: tuple[np.ndarray, np.ndarray] | None = None
        self._w = np.array([c[0] for c in comps])
        self._m = np.array([c[1] for c in comps])
        self._s = np.array([c[2] for c in comps])
        # (mean, sd) of a mixture of one law, else None
        self._law = comps[0][1:] if len({c[1:] for c in comps}) == 1 else None

    # Both sum the components one at a time, elementwise, so that a
    # value does not depend on the array it is computed in (a matrix
    # product rounds differently with the array's length).  The CDF
    # evaluates every component's Phi in one call.
    @_evaluator()
    def cdf(self, x):
        from .special import ndtr
        phi = ndtr(_standardize(x, self._m[:, None], self._s[:, None]))
        return sum(w * p for w, p in zip(self._w, phi))

    @_evaluator()
    def density(self, x):
        return sum(w / s * _phi(_standardize(x, m, s))
                   for w, m, s in self.components)

    @_evaluator(probability=True)
    def quantile(self, t):
        """Least double x with cdf(x) >= t.  The cell of
        `_quantile_table` holding t brackets it, F being computed at both
        of its ends, and Newton steps from its linear interpolation solve
        log F = log t below the median, where F falls like a Gaussian
        tail, and F = t above it; `_bisect` stops them where cdf(x) >= t
        flips.  A mixture of one law (every component of one mean and
        sd) has `Normal`'s quantile at t / sum(w)."""
        s = t / self._w.sum()
        if (s >= 1.0).any():
            raise NumericError("mixture quantile level exceeds the weights' "
                               "sum: the CDF never reaches it")
        if self._law is not None:
            return _normal_quantile(*self._law, s)
        xt, ft = self._quantile_table()
        j = np.searchsorted(ft, t, side="left")     # ft[j - 1] < t <= ft[j]
        lo, hi = xt[j - 1], xt[j]
        with np.errstate(invalid="ignore"):     # an infinite end: no start
            x = lo + (t - ft[j - 1]) / (ft[j] - ft[j - 1]) * (hi - lo)
        low = t < 0.5

        def probe(x, k):
            c, f, tk = self.cdf(x), self.density(x), t[k]
            with np.errstate(divide="ignore", invalid="ignore"):
                return (c >= tk,
                        np.where(low[k], np.log1p((c - tk) / tk), c - tk),
                        np.where(low[k], f / c, f))
        # the largest doubles stand in for the table's infinite ends
        return _bisect(probe, np.maximum(lo, -_MAX_DOUBLE),
                       np.minimum(hi, _MAX_DOUBLE), x)[1]

    def _quantile_table(self) -> tuple[np.ndarray, np.ndarray]:
        # Lazily built table (x, F(x)) at every component's quantiles of
        # `_MIX_LEVELS`, kept where the running maximum of F rises, so
        # that each value is F's own, between (-inf, 0) and (inf, 1).
        if self._table is None:
            from .special import ndtri
            x = _sorted_unique(self._m[:, None]
                               + self._s[:, None] * ndtri(_MIX_LEVELS))
            fs = np.maximum.accumulate(self.cdf(x))
            rise = np.ones(fs.size, dtype=bool)
            np.greater(fs[1:], fs[:-1], out=rise[1:])
            self._table = (np.concatenate(([-np.inf], x[rise], [np.inf])),
                           np.concatenate(([0.0], fs[rise], [1.0])))
        return self._table

    def sample(self, n: int, seed) -> np.ndarray:
        def draw(rng, out):
            rng.random(out=out[0])
            rng.standard_normal(out=out[1])
        d = draw_rows(seed, (2, int(n)), draw)
        comp = np.searchsorted(np.cumsum(self._w), d[..., 0, :], side="right")
        comp = np.minimum(comp, self._w.size - 1)
        return self._m[comp] + self._s[comp] * d[..., 1, :]

    def to_json(self) -> dict:
        return {"kind": "mixture",
                "components": [{"w": w, "mean": m, "sd": s}
                               for (w, m, s) in self.components]}


def _order_index(n: int, t: np.ndarray) -> np.ndarray:
    """0-based index ceil(n t) - 1 of the order statistic that is the
    quantile at t of a sample of size n, for t in (0, 1)."""
    return np.clip(np.ceil(n * t).astype(np.int64), 1, n) - 1


class Empirical(Distribution):
    """Empirical distribution of a sample: the sorted values, their
    number ``n`` and a within-sample tie flag."""

    kind = "empirical"

    def __init__(self, values, csv_path: str | None = None):
        arr = np.asarray(values, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise DataError("empirical sample must be a nonempty 1-D array")
        if not np.all(np.isfinite(arr)):
            raise DataError("empirical sample contains non-finite values")
        self.values = np.sort(arr)
        self.n = int(arr.size)
        self.tie_flag = bool(np.any(np.diff(self.values) == 0.0))
        self.csv_path = csv_path

    @_evaluator()
    def cdf(self, x):
        return np.searchsorted(self.values, x, side="right") / self.n

    def density(self, x):
        raise DomainError("empirical distributions have no density")

    @_evaluator(probability=True)
    def quantile(self, t):
        """Order statistic ``values[ceil(n t)]`` (1-indexed)."""
        return self.values[_order_index(self.n, t)]

    def sample(self, n: int, seed) -> np.ndarray:
        def draw(rng, out):
            out[:] = rng.integers(0, self.n, size=out.size)
        return self.values[draw_rows(seed, (int(n),), draw, np.int64)]

    def to_json(self) -> dict:
        if self.csv_path is not None:
            return {"kind": "empirical", "csv": self.csv_path}
        return {"kind": "empirical", "values": [float(v) for v in self.values]}


def _number(value) -> float:
    """A JSON number (an int or a float, not a bool) as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DataError(f"model descriptor field {value!r} is not a number")
    return float(value)


def from_descriptor(obj: dict, base_dir: str | Path | None = None) -> Distribution:
    """Build a model from its JSON descriptor.

    Empirical descriptors may reference a CSV file (resolved against
    ``base_dir`` when relative) or carry inline values.  Parameters and
    values must be JSON numbers, not booleans or numeric strings.
    """
    if not isinstance(obj, dict) or "kind" not in obj:
        raise DataError("model descriptor must be an object with a 'kind' field")
    kind = obj["kind"]
    try:
        if kind == "normal":
            return Normal(_number(obj["mean"]), _number(obj["sd"]))
        if kind == "t1":
            return NoncentralT1(_number(obj["ncp"]))
        if kind == "mixture":
            return NormalMixture([[_number(c[k]) for k in ("w", "mean", "sd")]
                                  for c in obj["components"]])
        if kind == "empirical":
            if "csv" in obj:
                from .io_utils import load_sample_csv
                path = Path(obj["csv"])
                if base_dir is not None and not path.is_absolute():
                    path = Path(base_dir) / path
                return Empirical(load_sample_csv(path), csv_path=str(obj["csv"]))
            if "values" in obj:
                return Empirical([_number(v) for v in obj["values"]])
            raise DataError("empirical descriptor needs 'csv' or 'values'")
    except KeyError as exc:
        raise DataError(f"model descriptor missing field {exc}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"model descriptor has an invalid field ({exc})") from None
    raise DataError(f"unknown model kind {kind!r}")
