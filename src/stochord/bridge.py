"""Brownian-bridge simulation and occupation-time functionals.

Used to verify, at desk scale, that the time a standard bridge spends
positive is uniform on (0,1), that occupation restricted to a subset I
has mean l(I)/2 and is non-degenerate iff l(I) > 0, and that the gamma
plug-in fails to be consistent when the quantile functions agree on a
set of positive measure, on one built-in pair whose quantiles agree on
[1/3, 2/3].
"""
from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from .distributions import Distribution, _evaluator
from .errors import DomainError
from .inference import _plugin_replicates
from .rng import SeedSpec, as_seed, block_rows, draw_rows, map_blocks

__all__ = [
    "SubsetSpec",
    "bridge_path",
    "occupation_positive",
    "occupation_experiment",
    "nonconsistency_demo",
    "make_gamma_set_pair",
]


def _grid_size(m: int) -> int:
    m = int(m)
    if m < 2 or (m & (m - 1)) != 0:
        raise DomainError("bridge grid size must be a power of two >= 2")
    return m


def bridge_path(m: int = 2048, seed=None,
                out: np.ndarray | None = None) -> np.ndarray:
    """Values B(t_j) at t_j = j/m, j = 0..m, of a standard Brownian
    bridge on a grid of size m.

    Construction: cumulative Gaussian walk W(t_j) with increments of
    variance 1/m, then B(t_j) = W(t_j) - t_j W(1), which pins both
    endpoints exactly and has the bridge covariance min(s,t) - st at
    the grid points.  ``seed`` is one seed (a SeedSpec, an int or None)
    for one path (m + 1,), or a (k, 2) block of stream keys for one path
    per key, stacked in rows (k, m + 1); each path equals the one its
    key's stream gives alone.

    ``out``, a float array (2, *rows, m + 1) for the rows of ``seed``,
    is the work space of the in-place form: the steps are drawn into
    out[1] and the paths formed in out[0], the view returned.  A loop
    that passes the same ``out`` for every block maps no fresh memory.
    """
    m = _grid_size(m)
    if out is None:
        rows = np.shape(seed)[:1] if isinstance(seed, np.ndarray) else ()
        out = np.empty((2, *rows, m + 1))
    w, steps = out[0], out[1][..., :m]
    draw_rows(seed, (m,), lambda rng, row: rng.standard_normal(out=row),
              out=steps)
    steps /= np.sqrt(m)
    w[..., 0] = 0.0
    np.cumsum(steps, axis=-1, out=w[..., 1:])
    t = np.arange(m + 1) / m
    np.subtract(w, np.multiply(t, w[..., -1:], out=out[1]), out=w)
    return w


@dataclass(frozen=True)
class SubsetSpec:
    """Finite union of disjoint subintervals of [0,1]."""

    intervals: tuple[tuple[float, float], ...]

    def __post_init__(self):
        prev_end = -1.0
        for a, b in self.intervals:
            if not (0.0 <= a < b <= 1.0):
                raise DomainError(f"invalid interval ({a}, {b})")
            if a < prev_end:
                raise DomainError("intervals must be disjoint and sorted")
            prev_end = b

    @classmethod
    def parse(cls, text: str) -> "SubsetSpec":
        """Parse 'a:b,c:d' into a SubsetSpec."""
        parts = []
        for chunk in text.split(","):
            try:
                a, b = chunk.split(":")
                parts.append((float(a), float(b)))
            except ValueError:
                raise DomainError(f"cannot parse interval {chunk!r}; "
                                  "expected 'a:b'") from None
        return cls(tuple(sorted(parts)))

    @property
    def length(self) -> float:
        return float(sum(b - a for a, b in self.intervals))

    def contains(self, t: np.ndarray) -> np.ndarray:
        mask = np.zeros(np.shape(t), dtype=bool)
        for a, b in self.intervals:
            mask |= (t >= a) & (t <= b)
        return mask

    def to_json(self) -> dict:
        return {"intervals": [[a, b] for a, b in self.intervals],
                "length": self.length}


def occupation_positive(path: np.ndarray, subset: SubsetSpec | None = None,
                        out: np.ndarray | None = None):
    """Grid measure of {t_j in subset : B(t_j) > 0}, weighted by 1/m, of
    `bridge_path`'s paths: a float for one path, one value per row for
    stacked paths.

    Strict positivity: grid points where the path is exactly zero (the
    endpoints) never count.  ``out``, a bool array of the path's shape,
    receives the mask.
    """
    if np.ndim(path) not in (1, 2):
        raise DomainError("a bridge path is one row or a stack of rows")
    m = _grid_size(np.shape(path)[-1] - 1)
    mask = np.greater(path, 0.0, out=out)
    if subset is not None:
        mask &= subset.contains(np.arange(m + 1) / m)
    occ = np.count_nonzero(mask, axis=-1) / m
    return float(occ) if mask.ndim == 1 else occ


def occupation_experiment(paths: int, m: int = 2048,
                          subset: SubsetSpec | None = None,
                          seed: SeedSpec | int | None = None,
                          threads: int = 1) -> np.ndarray:
    """`occupation_positive` of ``paths`` bridges on a grid of size m,
    path i drawn from seed.child(i).  The paths run through `map_blocks`
    in blocks of rows, one `bridge_path` call per block.  Each pool
    worker forms its blocks in place in its own work space, which it
    reuses for every block and which is freed when the call returns."""
    m = _grid_size(m)
    keys = as_seed(seed).child_keys(paths)
    rows = block_rows(m + 1)
    local = threading.local()

    def fill(lo: int, hi: int) -> np.ndarray:
        if not hasattr(local, "work"):
            local.work = np.empty((2, rows, m + 1))
            local.mask = np.empty((rows, m + 1), dtype=bool)
        k = hi - lo
        block = bridge_path(m, keys[lo:hi], out=local.work[:, :k])
        return occupation_positive(block, subset, out=local.mask[:k])
    return map_blocks(fill, paths, rows, threads)


class _PiecewiseShiftQuantile(Distribution):
    """Uniform-marginal distribution whose quantile is t plus a constant
    shift on each of finitely many t-intervals.

    With shifts (delta, 0, -delta... etc.) two such distributions can be
    made to have quantiles agreeing exactly on a chosen set, which makes
    gamma and the agreement set Gamma exact by construction.
    """

    kind = "piecewise-shift"

    def __init__(self, breaks: tuple[float, ...], shifts: tuple[float, ...]):
        self.breaks = tuple(float(b) for b in breaks)
        self.shifts = tuple(float(s) for s in shifts)

    def _shifted(self, t: np.ndarray) -> np.ndarray:
        # t plus the shift of its piece, the number of breaks below t
        # (what searchsorted with side="left" gives)
        return t + np.take(self.shifts, sum(t > b for b in self.breaks))

    @_evaluator(probability=True)
    def quantile(self, t):
        return self._shifted(t)

    @_evaluator()
    def cdf(self, x):
        # Quantile pieces are t + c on (b_k, b_{k+1}]; invert piecewise.
        edges = np.concatenate(([0.0], self.breaks, [1.0]))
        out = np.zeros_like(x)
        for k, c in enumerate(self.shifts):
            lo, hi = edges[k], edges[k + 1]
            # this piece maps (lo, hi] to (lo + c, hi + c]
            out += np.clip(x - c, lo, hi) - lo
        return np.clip(out, 0.0, 1.0)

    def density(self, x):
        raise DomainError("piecewise-shift model has atomic-free but "
                          "non-smooth law; density not provided")

    def sample(self, n: int, seed) -> np.ndarray:
        u = draw_rows(seed, (int(n),), lambda rng, out: rng.random(out=out))
        # draws inside (0, 1), a block shifted whole: no check, no chunks
        return self._shifted(np.clip(u, np.nextafter(0.0, 1.0),
                                     np.nextafter(1.0, 0.0), out=u))

    def to_json(self) -> dict:
        return {"kind": "piecewise-shift", "breaks": list(self.breaks),
                "shifts": list(self.shifts)}


_DELTA = 1.0 / 9.0
_GAMMA_SET = (1.0 / 3.0, 2.0 / 3.0)


def make_gamma_set_pair() -> tuple[Distribution, Distribution, float,
                                   SubsetSpec]:
    """Built-in pair whose quantiles agree exactly on [a, b] = [1/3, 2/3].

    F is uniform on (0,1) (quantile t); G's quantile is t - 1/9 below
    the set, t on it, and t + 1/9 above.  Then {F^{-1} > G^{-1}} is
    exactly (0, a), so gamma = a, and the agreement set is [a, b] with
    positive length, the regime where the plug-in is not consistent.

    Returns (F, G, exact gamma, agreement set).
    """
    a, b = _GAMMA_SET
    F = _PiecewiseShiftQuantile((), (0.0,))
    G = _PiecewiseShiftQuantile((a, b), (-_DELTA, 0.0, _DELTA))
    return F, G, a, SubsetSpec((_GAMMA_SET,))


def nonconsistency_demo(n: int = 10000, reps: int = 2000,
                        seed: SeedSpec | int | None = None,
                        threads: int = 1) -> dict:
    """Monte Carlo distribution of the plug-in error gamma_hat - gamma
    of the built-in pair (`make_gamma_set_pair`), n draws from each.

    The error converges to the time a bridge spends positive inside the
    agreement set: a nondegenerate variable with mean l(Gamma)/2 = 1/6.
    Replicate r draws its samples from seed.child(r, 0) and
    seed.child(r, 1), in blocks on ``threads`` pool threads; the result
    does not depend on ``threads``.
    """
    if reps < 2:
        raise DomainError(f"reps must be at least 2 for the sd, got {reps}")
    F, G, gamma_true, gset = make_gamma_set_pair()
    seed = as_seed(seed)
    errors = _plugin_replicates(F, G, n, n, reps, seed, threads) - gamma_true
    lo = min(-0.05, float(errors.min()))
    hi = max(gset.length + 0.05, float(errors.max()))
    counts, edges = np.histogram(errors, bins=40, range=(lo, hi))
    return {
        "mean": float(errors.mean()),
        "sd": float(errors.std(ddof=1)),
        "reps": int(reps),
        "n": int(n),
        "m": int(n),
        "gamma_true": gamma_true,
        "gamma_set_length": gset.length,
        "histogram": {"edges": [float(e) for e in edges],
                      "counts": [int(c) for c in counts]},
        "f": F.to_json(),
        "g": G.to_json(),
        "seed": seed.to_json(),
    }
