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

All evaluators accept any mix of the model families.  Pairs of
empirical models use exact order-statistic computations; analytic pairs
use the grid (gamma, rho) or adaptive refinement (pi, epsilon).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import Distribution, Empirical
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
    """Evaluation grid on (0,1).

    ``uniform`` grids place ``points`` values t_j = j/(points-1),
    j = 0..points-1, and all counting happens on the interior points
    only.  ``rank`` grids place the n midpoints (2i-1)/(2n); with two
    samples of equal size n they align gamma counting exactly with rank
    comparison of order statistics.
    """

    points: int = 1001
    kind: str = "uniform"

    def __post_init__(self):
        if self.kind not in ("uniform", "rank"):
            raise ParameterError(f"unknown grid kind {self.kind!r}")
        min_pts = 3 if self.kind == "uniform" else 1
        if int(self.points) != self.points or self.points < min_pts:
            raise ParameterError(f"grid needs at least {min_pts} points")

    @classmethod
    def rank_aligned(cls, n: int) -> "GridSpec":
        return cls(points=int(n), kind="rank")

    @property
    def interior_count(self) -> int:
        return self.points - 2 if self.kind == "uniform" else self.points

    def interior(self) -> np.ndarray:
        if self.kind == "uniform":
            m = self.points
            return np.arange(1, m - 1, dtype=float) / (m - 1)
        n = self.points
        return (2.0 * np.arange(1, n + 1) - 1.0) / (2.0 * n)

    def to_json(self) -> dict:
        return {"points": self.points, "kind": self.kind}

    @classmethod
    def from_json(cls, obj: dict) -> "GridSpec":
        return cls(points=int(obj["points"]), kind=obj.get("kind", "uniform"))


def _default_grid(grid: GridSpec | None) -> GridSpec:
    return grid if grid is not None else GridSpec()


def gamma_index(F: Distribution, G: Distribution,
                grid: GridSpec | None = None) -> float:
    """Proportion of interior grid points where F's quantile strictly
    exceeds G's.  Zero iff F <=st G (up to grid resolution)."""
    grid = _default_grid(grid)
    ts = grid.interior()
    return float(np.mean(F.quantile(ts) > G.quantile(ts)))


def _cdf_left(model: Distribution, x: np.ndarray) -> np.ndarray:
    """Left limit of the CDF; differs from cdf only at empirical atoms."""
    if isinstance(model, Empirical):
        return np.searchsorted(model.values, np.atleast_1d(x),
                               side="left") / model.n
    return np.atleast_1d(model.cdf(x))


def rho_index(F: Distribution, G: Distribution,
              grid: GridSpec | None = None) -> float:
    """P(X > Y) for independent X ~ F, Y ~ G.

    For two empirical models this is the exact pair count
    (1/nm) sum_i #{j : y_j < x_i}.  Otherwise it is the grid mean of
    G(F^{-1}(t)-), the quantile-composition form of int G(x-) dF(x).
    """
    if isinstance(F, Empirical) and isinstance(G, Empirical):
        counts = np.searchsorted(G.values, F.values, side="left")
        return float(counts.sum() / (F.n * G.n))
    grid = _default_grid(grid)
    ts = grid.interior()
    return float(np.mean(_cdf_left(G, F.quantile(ts))))


def _tail_u_grid(n_core: int = 2048) -> np.ndarray:
    """Probability grid: uniform core plus log-spaced tails to 1e-12."""
    core = np.arange(1, n_core + 1, dtype=float) / (n_core + 1)
    tails = np.logspace(-12, math.log10(0.5), 49)[:-1]
    return np.unique(np.concatenate((core, tails, 1.0 - tails)))


def _sup_gap_analytic(F: Distribution, G: Distribution,
                      rounds: int = 4, top_k: int = 8) -> tuple[float, float]:
    """sup_x (G(x) - F(x)) for two continuous models.

    Candidates start at both models' quantiles over a tail-padded
    probability grid (so the gap varies by at most ~1e-3 between
    neighbors), then the neighborhoods of the leading local maxima are
    subdivided a few times.  Returns (sup, argmax).
    """
    u = _tail_u_grid()
    xs = np.unique(np.concatenate((F.quantile(u), G.quantile(u))))
    best_x, best_d = xs[0], -np.inf
    for _ in range(rounds):
        d = np.asarray(G.cdf(xs)) - np.asarray(F.cdf(xs))
        i = int(np.argmax(d))
        if d[i] > best_d:
            best_d, best_x = float(d[i]), float(xs[i])
        interior = np.arange(1, xs.size - 1)
        is_peak = (d[interior] >= d[interior - 1]) & (d[interior] >= d[interior + 1])
        peaks = interior[is_peak]
        peaks = peaks[np.argsort(d[peaks])[::-1][:top_k]]
        if peaks.size == 0:
            peaks = np.array([i], dtype=int)
        pieces = [np.linspace(xs[max(p - 1, 0)], xs[min(p + 1, xs.size - 1)], 65)
                  for p in peaks]
        xs = np.unique(np.concatenate(pieces))
    return max(best_d, 0.0), best_x


def pi_index(F: Distribution, G: Distribution) -> float:
    """One-sided Kolmogorov-Smirnov departure sup_x (G(x) - F(x)).

    Empirical pairs and empirical-vs-analytic pairs are evaluated
    exactly at the step discontinuities (both one-sided limits);
    analytic pairs by adaptive grid refinement with value error well
    under 1e-6.
    """
    f_emp, g_emp = isinstance(F, Empirical), isinstance(G, Empirical)
    if f_emp and g_emp:
        z = np.unique(np.concatenate((F.values, G.values)))
        right = np.asarray(G.cdf(z)) - np.asarray(F.cdf(z))
        left = _cdf_left(G, z) - _cdf_left(F, z)
        return float(max(0.0, right.max(), left.max()))
    if f_emp and not g_emp:
        # G continuous: on [z_i, z_{i+1}) the gap rises toward the next
        # jump, so the sup is approached at F's atoms from the left.
        z = F.values
        return float(max(0.0, (np.asarray(G.cdf(z)) - _cdf_left(F, z)).max()))
    if g_emp and not f_emp:
        # F continuous: the gap decays after each of G's jumps, so the
        # sup is attained at the atoms themselves.
        z = G.values
        return float(max(0.0, (np.asarray(G.cdf(z)) - np.asarray(F.cdf(z))).max()))
    sup, _ = _sup_gap_analytic(F, G)
    return sup


def vartheta_index(F: Distribution, G: Distribution) -> float:
    """Largest P(X >= Y) over couplings: 1 - pi_index(G, F)."""
    return 1.0 - pi_index(G, F)


def _support_knots(F: Distribution, G: Distribution) -> np.ndarray:
    """Breakpoints covering both effective supports for epsilon's
    integrals, with every empirical atom included."""
    knots = []
    u = np.unique(np.concatenate((np.logspace(-10, math.log10(0.5), 201),
                                  1.0 - np.logspace(-10, math.log10(0.5), 201))))
    for model in (F, G):
        if isinstance(model, Empirical):
            knots.append(model.values)
        else:
            knots.append(np.asarray(model.quantile(u)))
    return np.unique(np.concatenate(knots))


_GL16 = np.polynomial.legendre.leggauss(16)


def epsilon_index(F: Distribution, G: Distribution) -> float | None:
    """Ratio int (G-F)^+ dx / int |G-F| dx over the union of effective
    supports (combined 1e-10 quantile range for analytic models).

    Returns None when the denominator vanishes (the distributions are
    indistinguishable over the range), which callers must treat as
    "undefined", never as zero.
    """
    if isinstance(F, Empirical) and isinstance(G, Empirical):
        z = np.unique(np.concatenate((F.values, G.values)))
        d = np.asarray(G.cdf(z)) - np.asarray(F.cdf(z))
        dz = np.diff(z)
        pos = float(np.sum(np.maximum(d[:-1], 0.0) * dz))
        tot = float(np.sum(np.abs(d[:-1]) * dz))
    else:
        knots = _support_knots(F, G)
        lo, hi = knots[:-1], knots[1:]
        half = 0.5 * (hi - lo)
        xs = 0.5 * (lo + hi)[:, None] + half[:, None] * _GL16[0]
        w = half[:, None] * _GL16[1]
        d = (np.asarray(G.cdf(xs.ravel())) -
             np.asarray(F.cdf(xs.ravel()))).reshape(xs.shape)
        pos = float(np.sum(np.maximum(d, 0.0) * w))
        tot = float(np.sum(np.abs(d) * w))
        span = float(knots[-1] - knots[0])
        if tot <= 1e-12 * max(1.0, span):
            return None
    if tot <= 0.0:
        return None
    return pos / tot


def rearranged_quantile(G: Distribution, pi0: float, t):
    """Quantile of G rearranged by cyclically shifting mass pi0 from the
    top to the bottom: the value is G^{-1}(pi0 + t) for t < 1 - pi0 and
    G^{-1}(t - (1 - pi0)) above.

    Replacing G^{-1} with this rearrangement turns the minimal-coupling
    departure pi into a quantile-measure computation: the measure of
    {t : F^{-1}(t) > rearranged(t)} equals pi when pi0 = pi(F, G).

    At the single boundary point t = 1 - pi0 the shifted argument is 0;
    continuous models return -inf there (the essential infimum) and
    empirical models return their smallest order statistic.  The point
    has measure zero so grid counting is unaffected.
    """
    pi0 = float(pi0)
    if not (0.0 <= pi0 < 1.0):
        raise DomainError("pi0 must lie in [0, 1)")
    arr = np.asarray(t, dtype=float)
    scalar = arr.ndim == 0
    tj = np.atleast_1d(arr)
    if tj.size and (tj.min() <= 0.0 or tj.max() >= 1.0):
        raise DomainError("t must lie strictly inside (0, 1)")
    shifted = np.where(tj < 1.0 - pi0, pi0 + tj, tj - (1.0 - pi0))
    out = np.empty_like(tj)
    at_zero = shifted <= 0.0
    # Guard exact 1.0 too (pi0 + t can round up when t -> 1 - pi0).
    at_one = shifted >= 1.0
    ok = ~(at_zero | at_one)
    if ok.any():
        out[ok] = np.asarray(G.quantile(shifted[ok]))
    if at_zero.any():
        out[at_zero] = G.values[0] if isinstance(G, Empirical) else -np.inf
    if at_one.any():
        out[at_one] = G.values[-1] if isinstance(G, Empirical) else np.inf
    return float(out[0]) if scalar else out


def optimal_copula_eval(pi0: float, x, y):
    """Copula attaining the minimal coupling P(X > Y) = pi0.

    Piecewise on the unit square with breaks at x = 1 - pi0, y = pi0;
    reduces to the comonotone copula min(x, y) when pi0 = 0.
    """
    pi0 = float(pi0)
    if not (0.0 <= pi0 < 1.0):
        raise DomainError("pi0 must lie in [0, 1)")
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    scalar = xa.ndim == 0 and ya.ndim == 0
    xa, ya = np.broadcast_arrays(np.atleast_1d(xa), np.atleast_1d(ya))
    if xa.size and (xa.min() < 0 or xa.max() > 1 or ya.min() < 0 or ya.max() > 1):
        raise DomainError("copula arguments must lie in [0, 1]")
    hi_x, hi_y = xa >= 1.0 - pi0, ya >= pi0
    out = np.where(
        hi_x & hi_y, xa + ya - 1.0,
        np.where(hi_x & ~hi_y, np.minimum(xa - (1.0 - pi0), ya),
                 np.where(~hi_x & hi_y, np.minimum(xa, ya - pi0), 0.0)))
    return float(out[()] if out.ndim == 0 else out[0]) if scalar else out


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
                self.epsilon_defined, self.grid.points, self.grid.kind,
                self.tie_flag]


def index_report(F: Distribution, G: Distribution,
                 grid: GridSpec | None = None) -> IndexReport:
    """Compute all indices for (F, G) and check internal consistency.

    The ordering pi <= gamma and pi <= rho holds for the exact indices;
    the computed values get slack for grid quantization of gamma and
    rho.  A violation beyond slack indicates a numeric defect and raises
    rather than returning a silently inconsistent report.
    """
    grid = _default_grid(grid)
    gamma = gamma_index(F, G, grid)
    rho = rho_index(F, G, grid)
    pi = pi_index(F, G)
    vartheta = vartheta_index(F, G)
    epsilon = epsilon_index(F, G)
    slack = 2.0 / grid.interior_count + 1e-9
    for name, val in (("gamma", gamma), ("rho", rho), ("pi", pi),
                      ("vartheta", vartheta)):
        if not (-1e-12 <= val <= 1.0 + 1e-12):
            raise NumericError(f"{name} index {val} outside [0, 1]")
    if pi > gamma + slack:
        raise NumericError(f"consistency failure: pi={pi} > gamma={gamma} + slack")
    if pi > rho + slack:
        raise NumericError(f"consistency failure: pi={pi} > rho={rho} + slack")
    tie = any(m.tie_flag for m in (F, G) if isinstance(m, Empirical))
    return IndexReport(gamma=gamma, rho=rho, pi=pi, vartheta=vartheta,
                       epsilon=epsilon, grid=grid,
                       f_model=F.to_json(), g_model=G.to_json(), tie_flag=tie)
