"""Indices measuring departure from stochastic order.

For distribution functions F and G, write F <=st G when F is
stochastically dominated by G (equivalently F^{-1} <= G^{-1} on (0,1),
equivalently F >= G pointwise).  The indices quantify how far the pair
sits from that relation:

``gamma_index``
    Lebesgue measure of {t in (0,1) : F^{-1}(t) > G^{-1}(t)}.
``rho_index``
    P(X > Y) for independent X ~ F, Y ~ G, the integral of G(x-) dF(x).
``pi_index``
    sup_x (G(x) - F(x)), the one-sided Kolmogorov-Smirnov distance.
    Equals the smallest P(X > Y) achievable by any coupling of F and G.
``vartheta_index``
    1 - pi_index(G, F), the largest P(X >= Y) over couplings.
``epsilon_index``
    Mass ratio int (G-F)^+ dx / int |G-F| dx; unlike the others it is
    invariant only under increasing affine maps, not all increasing maps.

All evaluators accept any mix of the model families and compute each
index exactly, up to rounding, with one method per pair kind.  Pairs of
empirical models use exact order-statistic computations.  A sample
against a continuous model sums over the sample's order statistics.
Two continuous models use the crossings of their quantile curves,
bisected to adjacent doubles as roots of G - F (gamma), the roots of
g - f (pi), or Gauss-Legendre quadrature between quantile knots (rho)
and the roots of G - F (epsilon).  No index depends on a grid.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import (Distribution, Empirical, _bisect, _evaluator,
                            _order_index, _sorted_unique)
from .errors import DomainError, NumericError, ParameterError

__all__ = [
    "GridSpec",
    "gamma_index",
    "rho_index",
    "pi_index",
    "vartheta_index",
    "epsilon_index",
    "rearranged_quantile",
    "optimal_copula_eval",
    "index_report",
    "IndexReport",
]


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid t_j = j/(points-1), j = 0..points-1, on [0, 1]: the
    rows of the quantile table, and through ``interior`` the levels of
    the grid plug-in of gamma."""

    points: int = 1001

    def __post_init__(self):
        # NaN fails every comparison, and inf % 1 is NaN
        if not (self.points >= 3 and self.points % 1 == 0):
            raise ParameterError(f"grid needs a whole number of at least 3 "
                                 f"points, got {self.points!r}")

    def interior(self) -> np.ndarray:
        m = self.points
        return np.arange(1, m - 1, dtype=float) / (m - 1)

    def to_json(self) -> dict:
        return {"points": self.points, "kind": "uniform"}


# Batched kernel calls run over chunks of rows holding about this many
# elements: bounded memory, and cache-sized temporaries ran fastest.
_CHUNK_ELEMENTS = 1 << 15


def _y_below_x(xo: np.ndarray, yo: np.ndarray) -> np.ndarray:
    """#{j : y_j < x_i} for each x_i of sorted rows xo (..., n) and
    yo (..., m).  The stable merge puts x_i behind the y's below it and
    before those equal to it, at position p_i = i + #{y < x_i}."""
    n = xo.shape[-1]
    order = np.argsort(np.concatenate((xo, yo), axis=-1), axis=-1,
                       kind="stable")
    # the rows' x's, in sorted order: n per row
    p = np.flatnonzero(order < n).reshape(xo.shape) % order.shape[-1]
    return p - np.arange(n)


def _sample_peaks(xo: np.ndarray, yo: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """#{y < x_i}/m and i/n, for sorted rows xo (..., n) and yo (..., m):
    G_m - F_n peaks where a run of y's ends, just below some x_i (>= 0
    for i = 0), or above both samples, where it is 0."""
    n, m = xo.shape[-1], yo.shape[-1]
    return _y_below_x(xo, yo) / m, np.arange(n) / n


def _sorted_index(kind: str, xo: np.ndarray, yo: np.ndarray,
                  grid: GridSpec | None = None):
    """``kind`` ("gamma", "rho" or "pi") of sorted samples xo (..., n)
    and yo (..., m), one value per row; a leading batch axis runs in
    chunks of rows.  Gamma counts the points of ``grid`` or, with
    ``grid=None``, exactly: it weighs the comparisons on the pieces
    between breakpoints, where both order indices are constant, by their
    integer lengths (a sum exact below 2**53)."""
    n, m = xo.shape[-1], yo.shape[-1]
    if kind == "rho":
        def kernel(a, b):
            return _y_below_x(a, b).sum(axis=-1) / (n * m)
    elif kind == "pi":
        def kernel(a, b):
            u, v = _sample_peaks(a, b)
            return (u - v).max(axis=-1)
    else:
        if grid is not None:
            ts = grid.interior()
            ix, iy = _order_index(n, ts), _order_index(m, ts)
            w, denom = np.ones(ts.size), ts.size
        elif n == m:
            # the breakpoints {i/n} and {j/m} coincide: the pieces are
            # the n ranks, compared in place
            ix = iy = slice(None)
            w, denom = np.ones(n), n
        else:
            # the breakpoints {i/n} u {j/m} in units of 1/(nm), each once
            ends = np.arange(1, m + 1) * n
            ends = np.sort(np.concatenate((np.arange(1, n + 1) * m,
                                           ends[ends % m > 0])),
                           kind="stable")
            ix, iy = (ends - 1) // m, (ends - 1) // n
            w, denom = np.diff(ends, prepend=0).astype(float), n * m

        def kernel(a, b):
            return (a[..., ix] > b[..., iy]) @ w / denom
    if xo.ndim == 1:
        return kernel(xo, yo)
    rows = max(1, _CHUNK_ELEMENTS // (n + m))
    return np.concatenate([kernel(xo[i:i + rows], yo[i:i + rows])
                           for i in range(0, xo.shape[0], rows)])


def gamma_index(F: Distribution, G: Distribution) -> float:
    """Measure of {t in (0,1) : F^{-1}(t) > G^{-1}(t)}; zero iff F <=st G.

    Two samples give the exact rational of `_sorted_index`.  A sample
    x against a continuous G gives sum_i clip(G(x_(i)) - (i-1)/n, 0,
    1/n): on the i-th piece ((i-1)/n, i/n] the quantile of the sample is
    x_(i), and G^{-1}(t) < x_(i) iff t < G(x_(i)).  A continuous F
    against a sample gives 1 - gamma(G, F), since the quantile curves
    then agree only on a null set.  Two continuous models sum the
    t-pieces between the crossings of `_crossings`.
    """
    f_emp, g_emp = isinstance(F, Empirical), isinstance(G, Empirical)
    if f_emp and g_emp:
        return float(_sorted_index("gamma", F.values, G.values))
    if g_emp:
        return 1.0 - gamma_index(G, F)
    if f_emp:
        n = F.n
        return float(np.sum(np.clip(G.cdf(F.values) - np.arange(n) / n,
                                    0.0, 1.0 / n)))
    return _crossings(F, G)[2]


def _cdf_left(model: Distribution, x: np.ndarray) -> np.ndarray:
    """Left limit of the CDF; differs from cdf only at empirical atoms."""
    if isinstance(model, Empirical):
        return np.searchsorted(model.values, x, side="left") / model.n
    return model.cdf(x)


def rho_index(F: Distribution, G: Distribution) -> float:
    """P(X > Y) for independent X ~ F, Y ~ G, the integral of G(x-) dF(x).

    Two samples give the exact pair count (1/nm) sum_i #{j : y_j < x_i}.
    A sample x against a continuous G gives the mean of G(x_i), and a
    continuous F against a sample 1 - rho(G, F), since X = Y has
    probability zero.  Two continuous models integrate G f with the
    Gauss-Legendre rule of `_gauss_legendre` on four equal pieces of
    each interval between epsilon's knots a < ... < b, plus F(a) G(a) +
    (1 - F(b)) G(b) for the tails beyond them: both CDFs lie within
    1e-10 of 0 at a and of 1 at b, so each tail term is off by at most
    1e-20.  (One piece per interval is not enough where a mixture's
    quantile jumps across a gap between narrow components: the rule
    then spans the gap, and was off by 7e-8 on such a pair.)
    """
    f_emp, g_emp = isinstance(F, Empirical), isinstance(G, Empirical)
    if f_emp and g_emp:
        return float(_sorted_index("rho", F.values, G.values))
    if g_emp:
        return 1.0 - rho_index(G, F)
    if f_emp:
        return float(np.mean(G.cdf(F.values)))
    knots = _support_knots(F, G)
    xs, w = _gauss_legendre(knots, 4)
    body = np.sum(G.cdf(xs) * F.density(xs) * w)
    (fa, fb), (ga, gb) = (D.cdf(knots[[0, -1]]) for D in (F, G))
    return float(body + fa * ga + (1.0 - fb) * gb)


# Log-spaced probabilities from 1e-12 up to (not including) 1/2.
_TAIL_LEVELS = np.logspace(-12, math.log10(0.5), 49)[:-1]


# Probability grid of pi's peak search: 2048 uniform core levels j/2049
# plus the log-spaced tails to 1e-12, all distinct.  Sorted, not passed
# through np.unique: on floats that imports numpy.ma (about 12 ms), which
# every command importing this module would then pay.
_TAIL_U_GRID = np.sort(np.concatenate((
    np.arange(1, 2049) / 2049, _TAIL_LEVELS, 1.0 - _TAIL_LEVELS)))


def _sign_roots(h, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Roots of a vectorized ``h`` at its sign changes on the sorted grid
    ``xs`` (h can vanish on a whole run of grid points), bisected to
    adjacent doubles by `_bisect`.  Zeros of h count with its negative
    side: a bracket across a run of them is bisected to the end of the
    run that meets h > 0, so the run lies on a piece of negative sign.
    Returns the roots and the sign of h on the pieces between them: that
    of the first nonzero grid point above each root, and below the first
    (0 if h vanishes on the whole grid)."""
    sign = np.sign(h(xs))
    nz = np.flatnonzero(sign)
    flip = np.flatnonzero(sign[nz[:-1]] != sign[nz[1:]])
    side = sign[nz[flip]] > 0
    lo, hi = _bisect(lambda x, k: (h(x) > 0) != side[k],
                     xs[nz[flip]], xs[nz[flip + 1]])
    first = nz[np.concatenate(([0], flip + 1))] if nz.size else [0]
    return 0.5 * (lo + hi), sign[first]


# Levels at which `_crossings` brackets the roots of G - F: t_j =
# j/20002, and below and above them the tail levels of `_TAIL_U_GRID`,
# reaching 1e-12 into each tail like pi's search.
_CROSSING_TAILS = _TAIL_LEVELS[_TAIL_LEVELS < 1 / 20002]
_CROSSING_LEVELS = np.concatenate((
    _CROSSING_TAILS, np.arange(1, 20002) / 20002, 1.0 - _CROSSING_TAILS[::-1]))


def _crossings(F: Distribution, G: Distribution
               ) -> tuple[np.ndarray, np.ndarray, float]:
    """Crossings of F^{-1} and G^{-1} for continuous F and G, and gamma.

    At x = F^{-1}(t), F^{-1}(t) > G^{-1}(t) iff G(x) > F(x), so the
    crossings are the roots of G - F at the levels t = F(x).  The sign
    of G - F at F's quantiles of `_CROSSING_LEVELS` brackets each sign
    change (it can vanish on a whole run of them, e.g. symmetric pairs
    at t = 1/2), and `_sign_roots` bisects the brackets to adjacent
    doubles.  Returns the roots x, their levels t, and gamma: the summed
    length of the t-pieces between crossings on which G - F is
    positive, so it carries the crossings' rounding error, not a grid's.
    Where G - F rounds to 0 at every level (N(1e-17, 1) against N(0, 1)),
    the pieces come from F^{-1} - G^{-1} at those levels, bisected in t.
    """
    x, sign = _sign_roots(lambda x: G.cdf(x) - F.cdf(x),
                          F.quantile(_CROSSING_LEVELS))
    t = F.cdf(x)
    if not (x.size or sign[0]):
        t, sign = _sign_roots(lambda t: F.quantile(t) - G.quantile(t),
                              _CROSSING_LEVELS)
        x = F.quantile(t)
    edges = np.concatenate(([0.0], t, [1.0]))
    return x, t, float(np.diff(edges)[sign > 0].sum())


def _gap_peaks(F: Distribution, G: Distribution
               ) -> tuple[np.ndarray, np.ndarray]:
    """G and F, as arrays (u, v), at every candidate peak of G - F, with
    the one-sided limits at which the gap peaks there, so that pi is
    max(0, max(u - v)): just below F's atoms when F is a sample (the gap
    rises toward each jump of F), else at G's atoms when G is one (it
    decays after each jump of G), else at the roots of g - f where G - F
    turns down, bracketed on both models' quantiles over a probability
    grid reaching 1e-12 into each tail (beyond it the gap is <= 1e-12).
    """
    f_emp, g_emp = isinstance(F, Empirical), isinstance(G, Empirical)
    if f_emp and g_emp:
        return _sample_peaks(F.values, G.values)
    if f_emp or g_emp:
        z = (F if f_emp else G).values
        return G.cdf(z), _cdf_left(F, z)
    xs = _sorted_unique(np.concatenate((F.quantile(_TAIL_U_GRID),
                                        G.quantile(_TAIL_U_GRID))))
    roots, sign = _sign_roots(lambda x: G.density(x) - F.density(x), xs)
    x = roots[sign[:-1] > 0]
    return G.cdf(x), F.cdf(x)


def pi_index(F: Distribution, G: Distribution) -> float:
    """One-sided Kolmogorov-Smirnov departure sup_x (G(x) - F(x)),
    exact over the candidate peaks of `_gap_peaks`: the steps' one-sided
    limits for samples, the roots of g - f for two continuous models."""
    u, v = _gap_peaks(F, G)
    return float(np.max(u - v, initial=0.0))


def vartheta_index(F: Distribution, G: Distribution) -> float:
    """Largest P(X >= Y) over couplings: 1 - pi_index(G, F)."""
    return 1.0 - pi_index(G, F)


def _support_knots(F: Distribution, G: Distribution) -> np.ndarray:
    """Breakpoints covering both effective supports for epsilon's
    integrals, with every empirical atom included.  Against a sample of
    size n, a continuous model adds its quantiles at the sample's levels
    i/n, where its CDF crosses the sample's steps and G - F changes sign
    with a kink."""
    knots = []
    u = _sorted_unique(np.concatenate((
        np.logspace(-10, math.log10(0.5), 201),
        1.0 - np.logspace(-10, math.log10(0.5), 201))))
    for model, other in ((F, G), (G, F)):
        if isinstance(model, Empirical):
            knots.append(model.values)
            continue
        knots.append(model.quantile(u))
        if isinstance(other, Empirical):
            knots.append(model.quantile(np.arange(1, other.n) / other.n))
    return _sorted_unique(np.concatenate(knots))


_GL16 = np.polynomial.legendre.leggauss(16)


def _gauss_legendre(knots: np.ndarray, pieces: int
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights, as (k, 16) arrays, of the 16-point
    Gauss-Legendre rule on each of the k = pieces (len(knots) - 1)
    equal parts of the intervals between sorted knots."""
    step = np.diff(knots)[:, None] * (np.arange(pieces) / pieces)
    ends = np.append((knots[:-1, None] + step).ravel(), knots[-1])
    lo, hi = ends[:-1], ends[1:]
    half = 0.5 * (hi - lo)
    xs = 0.5 * (lo + hi)[:, None] + half[:, None] * _GL16[0]
    return xs, half[:, None] * _GL16[1]


def epsilon_index(F: Distribution, G: Distribution) -> float | None:
    """Ratio int (G-F)^+ dx / int |G-F| dx over the union of effective
    supports (combined 1e-10 quantile range for analytic models).

    Returns None when the denominator vanishes (the distributions are
    indistinguishable over the range), which callers must treat as
    "undefined", never as zero.
    """
    if isinstance(F, Empirical) and isinstance(G, Empirical):
        z = np.concatenate((F.values, G.values))
        order = np.argsort(z, kind="stable")
        z, cy = z[order], np.cumsum(order >= F.n)
        # G - F after each merged value, up to the next larger one
        dz = np.diff(z)
        d = (cy / G.n - (np.arange(1, z.size + 1) - cy) / F.n)[:-1][dz > 0]
        dz = dz[dz > 0]
        pos = float(np.sum(np.maximum(d, 0.0) * dz))
        tot = float(np.sum(np.abs(d) * dz))
    else:
        def gap(x):
            return G.cdf(x) - F.cdf(x)

        knots, pieces = _support_knots(F, G), 1
        if not (isinstance(F, Empirical) or isinstance(G, Empirical)):
            # (G - F)^+ and |G - F| have kinks at the roots of G - F
            roots = _sign_roots(gap, knots)[0]
            knots, pieces = _sorted_unique(np.concatenate((knots, roots))), 4
        xs, w = _gauss_legendre(knots, pieces)
        d = gap(xs)
        pos = float(np.sum(np.maximum(d, 0.0) * w))
        tot = float(np.sum(np.abs(d) * w))
        span = float(knots[-1] - knots[0])
        if tot <= 1e-12 * max(1.0, span):
            return None
    if tot <= 0.0:
        return None
    return pos / tot


@_evaluator(probability=True)
def rearranged_quantile(G: Distribution, pi0: float, t):
    """Quantile of G rearranged by cyclically shifting mass pi0 from the
    top to the bottom: the value is G^{-1}(pi0 + t) for t < 1 - pi0 and
    G^{-1}(t - (1 - pi0)) above.

    Replacing G^{-1} with this rearrangement turns the minimal-coupling
    departure pi into a quantile-measure computation: the measure of
    {t : F^{-1}(t) > rearranged(t)} equals pi when pi0 = pi(F, G).

    At the single boundary point t = 1 - pi0 the shifted argument is 0;
    continuous models return -inf there (the essential infimum) and
    empirical models return their smallest order statistic.  Like a
    model's quantile, it takes t of any shape inside (0, 1).
    """
    pi0 = float(pi0)
    if not (0.0 <= pi0 < 1.0):
        raise DomainError("pi0 must lie in [0, 1)")
    shifted = np.where(t < 1.0 - pi0, pi0 + t, t - (1.0 - pi0))
    out = np.empty_like(t)
    at_zero = shifted <= 0.0
    # Guard exact 1.0 too (pi0 + t can round up when t -> 1 - pi0).
    at_one = shifted >= 1.0
    ok = ~(at_zero | at_one)
    if ok.any():
        out[ok] = G.quantile(shifted[ok])
    if at_zero.any():
        out[at_zero] = G.values[0] if isinstance(G, Empirical) else -np.inf
    if at_one.any():
        out[at_one] = G.values[-1] if isinstance(G, Empirical) else np.inf
    return out


def optimal_copula_eval(pi0: float, x, y):
    """Copula attaining the minimal coupling P(X > Y) = pi0.

    Piecewise on the unit square with breaks at x = 1 - pi0, y = pi0;
    reduces to the comonotone copula min(x, y) when pi0 = 0.
    """
    pi0 = float(pi0)
    if not (0.0 <= pi0 < 1.0):
        raise DomainError("pi0 must lie in [0, 1)")
    xa, ya = np.broadcast_arrays(np.asarray(x, dtype=float),
                                 np.asarray(y, dtype=float))
    # NaN fails every comparison
    if xa.size and not (xa.min() >= 0 and xa.max() <= 1
                        and ya.min() >= 0 and ya.max() <= 1):
        raise DomainError("copula arguments must lie in [0, 1]")
    hi_x, hi_y = xa >= 1.0 - pi0, ya >= pi0
    out = np.where(
        hi_x & hi_y, xa + ya - 1.0,
        np.where(hi_x & ~hi_y, np.minimum(xa - (1.0 - pi0), ya),
                 np.where(~hi_x & hi_y, np.minimum(xa, ya - pi0), 0.0)))
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class IndexReport:
    """All five indices for one ordered pair, plus evaluation metadata."""

    gamma: float
    rho: float
    pi: float
    vartheta: float
    epsilon: float | None
    grid: GridSpec
    f_model: dict
    g_model: dict
    tie_flag: bool

    @property
    def epsilon_defined(self) -> bool:
        return self.epsilon is not None

    def to_json(self) -> dict:
        return {
            "gamma": self.gamma,
            "rho": self.rho,
            "pi": self.pi,
            "vartheta": self.vartheta,
            "epsilon": self.epsilon,
            "epsilon_defined": self.epsilon_defined,
            "grid": self.grid.to_json(),
            "f": self.f_model,
            "g": self.g_model,
            "tie_flag": self.tie_flag,
        }

    @staticmethod
    def csv_header() -> list[str]:
        return ["gamma", "rho", "pi", "vartheta", "epsilon",
                "epsilon_defined", "grid_points", "grid_kind", "tie_flag"]

    def to_csv_row(self) -> list:
        return [self.gamma, self.rho, self.pi, self.vartheta,
                "" if self.epsilon is None else self.epsilon,
                self.epsilon_defined, self.grid.points, "uniform",
                self.tie_flag]


def index_report(F: Distribution, G: Distribution,
                 grid: GridSpec = GridSpec()) -> IndexReport:
    """Compute all indices for (F, G) and check internal consistency.

    The ordering pi <= gamma and pi <= rho holds for the exact indices,
    and the computed ones are exact up to rounding, so a violation by
    more than 1e-12 indicates a numeric defect and raises rather than
    returning a silently inconsistent report.  ``grid`` is only recorded
    in the report: no index depends on it.
    """
    gamma = gamma_index(F, G)
    rho = rho_index(F, G)
    pi = pi_index(F, G)
    vartheta = vartheta_index(F, G)
    epsilon = epsilon_index(F, G)
    for name, val in (("gamma", gamma), ("rho", rho), ("pi", pi),
                      ("vartheta", vartheta)):
        if not (-1e-12 <= val <= 1.0 + 1e-12):
            raise NumericError(f"{name} index {val} outside [0, 1]")
    if pi > gamma + 1e-12:
        raise NumericError(f"consistency failure: pi={pi} > gamma={gamma}")
    if pi > rho + 1e-12:
        raise NumericError(f"consistency failure: pi={pi} > rho={rho}")
    tie = any(m.tie_flag for m in (F, G) if isinstance(m, Empirical))
    return IndexReport(gamma=gamma, rho=rho, pi=pi, vartheta=vartheta,
                       epsilon=epsilon, grid=grid,
                       f_model=F.to_json(), g_model=G.to_json(), tie_flag=tie)
