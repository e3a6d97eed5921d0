"""Estimation and testing for the departure indices.

Covers the exact Galton rank test, plug-in estimators, bootstrap
standard errors, one-sided normal-approximation bounds with the
threshold test for gamma, and samplers/closed forms for the two
asymptotic laws (the crossing-driven normal limit of the gamma plug-in
and the supremum limit of the one-sided KS statistic).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .distributions import Distribution, Empirical
from .errors import DomainError, NumericError
from .indices import GridSpec, _crossings, _gap_peaks, _sorted_index
from .rng import SeedSpec, as_seed, block_rows, map_blocks

__all__ = [
    "GaltonResult",
    "TestResult",
    "CrossingSpec",
    "galton_test",
    "gamma_plugin",
    "bootstrap_sd",
    "gamma_threshold_test",
    "gamma_limit_variance",
    "pi_limit_sample",
    "find_crossings",
]


class GaltonResult(NamedTuple):
    count: int
    p_value: float
    tie_flag: bool


def _as_sample(v, name: str, rows: bool = False) -> np.ndarray:
    """A nonempty 1-D sample of finite floats or, with ``rows``, also a
    2-D array of one sample per row."""
    arr = np.asarray(v, dtype=float)
    if arr.ndim not in ((1, 2) if rows else (1,)) or arr.size == 0:
        raise DomainError(f"{name} must be a nonempty 1-D sample"
                          + (" or a 2-D array of them" if rows else ""))
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} contains non-finite values")
    return arr


def galton_test(xs, ys) -> GaltonResult:
    """Rank-aligned exceedance count and its exact null p-value.

    count = #{i : x_(i) > y_(i)} over the order statistics of two
    equal-size samples.  Under F = G (continuous) the count is uniform
    on {0..n}, so P(Count <= count) = (count+1)/(n+1) exactly.  Aligned
    ties count as non-exceedance (strict comparison) and set tie_flag.
    """
    xs, ys = _as_sample(xs, "xs"), _as_sample(ys, "ys")
    if xs.size != ys.size:
        raise DomainError(
            f"galton_test needs equal sizes, got {xs.size} and {ys.size}; "
            "use gamma_plugin for unequal samples")
    xo, yo = np.sort(xs), np.sort(ys)
    count = int(np.sum(xo > yo))
    tie = bool(np.any(xo == yo))
    n = xs.size
    return GaltonResult(count, (count + 1) / (n + 1), tie)


def gamma_plugin(xs, ys, grid: GridSpec | None = None):
    """Plug-in gamma: the measure of {t : F_n^{-1}(t) > G_m^{-1}(t)}.

    With ``grid=None`` the measure is computed exactly from the
    order-statistic breakpoints (for n = m this equals the Galton count
    divided by n, the rank-aligned grid value); it is ``gamma_index`` on
    the two ``Empirical`` models.  Passing a grid counts the interior
    grid points at which the sample quantiles compare instead.  The rho
    and pi plug-ins are ``rho_index`` and ``pi_index`` on two
    ``Empirical`` models.

    Two 1-D samples give a float.  Arrays (k, n) and (k, m) of k sample
    pairs, one per row, give the k plug-ins, each equal to the one of
    its row's pair.
    """
    xs, ys = _as_sample(xs, "xs", rows=True), _as_sample(ys, "ys", rows=True)
    if xs.shape[:-1] != ys.shape[:-1]:
        raise DomainError(f"xs and ys need the same rows, got shapes "
                          f"{xs.shape} and {ys.shape}")
    out = _sorted_index("gamma", np.sort(xs), np.sort(ys), grid)
    return float(out) if xs.ndim == 1 else out


def _plugin_replicates(F: Distribution, G: Distribution, n: int, m: int,
                       reps: int, seed: SeedSpec, threads: int = 1
                       ) -> np.ndarray:
    """gamma_plugin of ``reps`` seeded sample pairs: replicate r draws n
    values of F from seed.child(r, 0) and m of G from seed.child(r, 1).
    The replicates run through `map_blocks`, with one sample call per
    model and one gamma_plugin call per block; the stream keys of all
    replicates are computed once, before the blocks."""
    keys_x, keys_y = seed.child_keys(reps, 0), seed.child_keys(reps, 1)

    def fill(lo: int, hi: int) -> np.ndarray:
        xs = F.sample(n, keys_x[lo:hi])
        ys = G.sample(m, keys_y[lo:hi])
        return gamma_plugin(xs, ys)
    return map_blocks(fill, reps, block_rows(n + m), threads)


def bootstrap_sd(xs, ys, index_kind: str = "gamma", B: int = 1000,
                 grid: GridSpec | None = None,
                 seed: SeedSpec | int | None = None) -> float:
    """Bootstrap standard error of a plug-in index.

    Each sample is resampled with replacement at its own size, the
    plug-in index recomputed B times, and the square root of the
    unbiased variance returned.  Deterministic for a fixed seed.

    The resamples hold rank codes, not values: the indices of the
    values in the sorted pooled sample (int16 below 2**15 distinct
    values, else int32).  The codes keep every < and = between values,
    and the kernel only compares, so each replicate's index is the one
    of the values; the integer rows sort faster and take less memory.
    """
    xs, ys = _as_sample(xs, "xs"), _as_sample(ys, "ys")
    if B < 2:
        raise DomainError("bootstrap needs B >= 2")
    if index_kind not in ("gamma", "pi", "rho"):
        raise DomainError(f"unknown index_kind {index_kind!r}")
    rng = as_seed(seed).generator()
    n, m = xs.size, ys.size
    pooled, codes = np.unique(np.concatenate((xs, ys)), return_inverse=True)
    codes = codes.astype(np.int16 if pooled.size < 2**15 else np.int32)
    bx = codes[:n][rng.integers(0, n, size=(B, n))]
    by = codes[n:][rng.integers(0, m, size=(B, m))]
    bx.sort(axis=1)
    by.sort(axis=1)
    vals = _sorted_index(index_kind, bx, by, grid)
    return float(np.std(vals, ddof=1))


@dataclass(frozen=True)
class TestResult:
    """Outcome of the one-sided bootstrap threshold test for gamma.

    The bounds follow the normal approximation U = estimate - sd * z
    and V = estimate + sd * z, with z = Phi^{-1}(alpha); since z < 0 for
    alpha < 0.5, U is numerically the upper confidence bound and V the
    lower one.  H0: gamma >= gamma0 is rejected exactly when U < gamma0.
    A degenerate bootstrap (sd = 0) collapses both bounds to the
    estimate and is flagged.
    """

    estimate: float
    bootstrap_sd: float
    u_bound: float
    v_bound: float
    alpha: float
    gamma0: float
    reject: bool
    degenerate: bool
    B: int
    seed: SeedSpec

    def to_json(self) -> dict:
        return {
            "estimate": self.estimate,
            "bootstrap_sd": self.bootstrap_sd,
            "U": self.u_bound,
            "V": self.v_bound,
            "alpha": self.alpha,
            "gamma0": self.gamma0,
            "reject": self.reject,
            "degenerate_bootstrap": self.degenerate,
            "B": self.B,
            "seed": self.seed.to_json(),
        }


def gamma_threshold_test(xs, ys, gamma0: float, alpha: float = 0.05,
                         B: int = 1000, grid: GridSpec | None = None,
                         seed: SeedSpec | int | None = None) -> TestResult:
    """Test H0: gamma(F,G) >= gamma0 against gamma < gamma0 at level alpha."""
    if not (0.0 <= gamma0 <= 1.0):
        raise DomainError("gamma0 must lie in [0, 1]")
    if not (0.0 < alpha < 1.0):
        raise DomainError("alpha must lie in (0, 1)")
    seed = as_seed(seed)
    est = gamma_plugin(xs, ys, grid)
    sd = bootstrap_sd(xs, ys, "gamma", B, grid, seed)
    # loaded after the bootstrap has freed its resamples, so that the
    # module's memory does not add to the bootstrap's peak
    from .special import ndtri
    z = float(ndtri(np.array([alpha]))[0])
    u, v = est - sd * z, est + sd * z
    degenerate = sd == 0.0
    reject = bool(u < gamma0)
    return TestResult(estimate=est, bootstrap_sd=sd, u_bound=u, v_bound=v,
                      alpha=alpha, gamma0=gamma0, reject=reject,
                      degenerate=degenerate, B=B, seed=seed)


@dataclass(frozen=True)
class CrossingSpec:
    """Clean crossings of F^{-1} - G^{-1}: levels t_i, locations
    x_i = F^{-1}(t_i), both densities there, and the sampling fraction
    lam = lim n/(n+m)."""

    t: tuple[float, ...]
    x: tuple[float, ...]
    f: tuple[float, ...]
    g: tuple[float, ...]
    lam: float

    def __post_init__(self):
        k = len(self.t)
        if not (len(self.x) == len(self.f) == len(self.g) == k):
            raise DomainError("crossing fields must have equal lengths")
        if not (0.0 < self.lam < 1.0):
            raise DomainError("lambda must lie in (0, 1)")
        ts = np.asarray(self.t)
        if k and (ts.min() <= 0.0 or ts.max() >= 1.0
                  or np.any(np.diff(ts) <= 0.0)):
            raise DomainError("crossing levels must be strictly increasing "
                              "inside (0, 1)")


def gamma_limit_variance(cross: CrossingSpec) -> float:
    """Variance of the normal limit of the centered gamma plug-in.

    The limit is sum_i [sqrt(1-lam) g(x_i) B1(t_i) + sqrt(lam) f(x_i)
    B2(t_i)] / |f(x_i) - g(x_i)| over independent bridges B1, B2, so
    the variance contracts the bridge covariance min(s,t) - st against
    the density weights.  Empty crossing sets give 0 (dominance case).
    """
    k = len(cross.t)
    if k == 0:
        return 0.0
    t = np.asarray(cross.t)
    f = np.asarray(cross.f)
    g = np.asarray(cross.g)
    d = np.abs(f - g)
    if np.any(d <= 1e-12 * np.maximum(f, g)):
        raise NumericError("crossing with f(x) = g(x): limit variance "
                           "is singular (assumption A1)")
    K = np.minimum.outer(t, t) - np.outer(t, t)
    wg, wf = g / d, f / d
    var = ((1.0 - cross.lam) * wg @ K @ wg + cross.lam * wf @ K @ wf)
    return float(var)


def find_crossings(F: Distribution, G: Distribution, lam: float,
                   min_rel_gap: float = 0.0) -> tuple[CrossingSpec, float]:
    """Locate sign changes of F^{-1} - G^{-1} and the exact gamma.

    The crossings are the roots of G(x) - F(x) found by
    `indices._crossings` from one evaluation of F's quantile, and none
    of G's; a crossing sits at the root x, at level t = F(x).

    Returns a CrossingSpec (with densities evaluated at the crossings)
    plus the measure of {t : F^{-1}(t) > G^{-1}(t)}, the value of
    ``gamma_index`` for the pair.  ``min_rel_gap`` > 0 raises
    NumericError when any crossing has |f - g| below that relative size.
    The crossing law needs two continuous models: an `Empirical` one
    raises DomainError.
    """
    if isinstance(F, Empirical) or isinstance(G, Empirical):
        raise DomainError("crossings need two continuous models, "
                          "not an empirical distribution")
    x, t, gamma = _crossings(F, G)
    f, g = F.density(x), G.density(x)
    if min_rel_gap > 0.0:
        close = np.abs(f - g) < min_rel_gap * np.maximum(f, g)
        if close.any():
            k = np.argmax(close)
            raise NumericError(
                f"crossing at x={x[k]}: densities {f[k]} and {g[k]} are too "
                "close (assumption A1 violated)")
    spec = CrossingSpec(t=tuple(t.tolist()), x=tuple(x.tolist()),
                        f=tuple(f.tolist()), g=tuple(g.tolist()),
                        lam=float(lam))
    return spec, gamma


def pi_limit_sample(F: Distribution, G: Distribution, lam: float,
                    n_paths: int = 10000,
                    seed: SeedSpec | int | None = None
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Monte Carlo draws from the limit law of the one-sided KS statistic.

    The limit is sup over the contact set Gamma(F,G) = {x : G(x) - F(x)
    = pi} of sqrt(lam) B1(G(x)) - sqrt(1-lam) B2(F(x)) with independent
    bridges, sampled exactly via Gaussian-increment walks at the contact
    points: the candidate peaks of `_gap_peaks` whose gap equals pi up
    to rounding.  A smooth pair that peaks once, at x0, gives
    N(0, lam G(1-G) + (1-lam) F(1-F)) at x0.  Returns the draws and the
    contact points as rows (G(x), F(x)); pi = 0 leaves none (DomainError).
    """
    if not (0.0 < lam < 1.0):
        raise DomainError("lambda must lie in (0, 1)")
    if n_paths < 1:
        raise DomainError("n_paths must be positive")
    u, v = _gap_peaks(F, G)
    gap = u - v
    pi = gap.max(initial=0.0)
    if pi <= 0.0:
        raise DomainError("pi = 0: G - F never rises above 0, so there is "
                          "no isolated contact point for the pi limit law")
    # peaks within rounding of pi are contact points: the gap's rounding
    # error (2e-15 for the t1 CDF) is far below 1e-12
    contact = gap >= pi - 1e-12
    u, v = u[contact], v[contact]
    rng = as_seed(seed).generator()
    b1 = _bridge_at(rng, u, n_paths)
    b2 = _bridge_at(rng, v, n_paths)
    draws = np.max(np.sqrt(lam) * b1 - np.sqrt(1.0 - lam) * b2, axis=1)
    return draws, np.column_stack((u, v))


def _bridge_at(rng: np.random.Generator, points: np.ndarray,
               n_paths: int) -> np.ndarray:
    """Exact joint samples of a Brownian bridge at nondecreasing points
    of [0,1]: Gaussian-increment walk W minus t*W(1)."""
    deltas = np.diff(points, prepend=0.0)
    # a mixture whose weights sum above 1 has a CDF above 1
    final_delta = max(1.0 - points[-1], 0.0)
    z = rng.standard_normal((n_paths, points.size + 1))
    w = np.cumsum(z[:, :-1] * np.sqrt(deltas), axis=1)
    w1 = w[:, -1] + z[:, -1] * np.sqrt(final_delta)
    return w - np.outer(w1, points)
