"""Reference implementations of the indices.

The empirical-pair statistics are the earlier per-statistic
implementations (searchsorted counts, union-of-atoms scans and float
breakpoint segments), kept as oracles for the sorted-merge kernel in
`stochord.indices`; each takes two raw samples.  `sup_gap_reference` is
the earlier grid refinement of pi for two continuous models, kept as an
oracle for the root search.
"""
from fractions import Fraction
import math

import numpy as np

from stochord.indices import _TAIL_U_GRID


def sup_gap_reference(F, G, rounds=4, top_k=8):
    """sup_x (G(x) - F(x)) for two continuous models, with its argmax.

    Candidates start at both models' quantiles over a tail-padded
    probability grid (so the gap varies by at most ~1e-3 between
    neighbors), then the neighborhoods of the leading local maxima are
    subdivided a few times.
    """
    xs = np.unique(np.concatenate((F.quantile(_TAIL_U_GRID),
                                   G.quantile(_TAIL_U_GRID))))
    best_x, best_d = xs[0], -np.inf
    for _ in range(rounds):
        d = np.asarray(G.cdf(xs)) - np.asarray(F.cdf(xs))
        i = int(np.argmax(d))
        if d[i] > best_d:
            best_d, best_x = float(d[i]), float(xs[i])
        interior = np.arange(1, xs.size - 1)
        is_peak = ((d[interior] >= d[interior - 1])
                   & (d[interior] >= d[interior + 1]))
        peaks = interior[is_peak]
        peaks = peaks[np.argsort(d[peaks])[::-1][:top_k]]
        if peaks.size == 0:
            peaks = np.array([i], dtype=int)
        pieces = [np.linspace(xs[max(p - 1, 0)],
                              xs[min(p + 1, xs.size - 1)], 65)
                  for p in peaks]
        xs = np.unique(np.concatenate(pieces))
    return max(best_d, 0.0), best_x


def rho_reference(xs, ys) -> float:
    """Mann-Whitney proportion (1/nm) sum_i #{j : y_j < x_i}."""
    xs, ys = np.asarray(xs, float), np.asarray(ys, float)
    yo = np.sort(ys)
    return float(np.searchsorted(yo, xs, side="left").sum()
                 / (xs.size * ys.size))


def pi_reference(xs, ys) -> float:
    """One-sided KS statistic sup_x (G_m(x) - F_n(x)) from both one-sided
    limits at every atom."""
    xo, yo = np.sort(np.asarray(xs, float)), np.sort(np.asarray(ys, float))
    z = np.union1d(xo, yo)
    gap = (np.searchsorted(yo, z, side="right") / yo.size
           - np.searchsorted(xo, z, side="right") / xo.size)
    gap_left = (np.searchsorted(yo, z, side="left") / yo.size
                - np.searchsorted(xo, z, side="left") / xo.size)
    return float(max(0.0, gap.max(), gap_left.max()))


def epsilon_reference(xs, ys) -> float | None:
    """int (G_m - F_n)^+ dx / int |G_m - F_n| dx over the distinct atoms."""
    xo, yo = np.sort(np.asarray(xs, float)), np.sort(np.asarray(ys, float))
    z = np.unique(np.concatenate((xo, yo)))
    d = (np.searchsorted(yo, z, side="right") / yo.size
         - np.searchsorted(xo, z, side="right") / xo.size)
    dz = np.diff(z)
    pos = float(np.sum(np.maximum(d[:-1], 0.0) * dz))
    tot = float(np.sum(np.abs(d[:-1]) * dz))
    return None if tot <= 0.0 else pos / tot


def _order_index(n, t):
    return np.clip(np.ceil(n * t).astype(np.int64), 1, n) - 1


def gamma_segments(n: int, m: int):
    """Breakpoint segments of (0,1) on which both empirical quantiles
    are constant, with the order-statistic index active on each."""
    breaks = np.union1d(np.arange(1, n + 1) / n, np.arange(1, m + 1) / m)
    lengths = np.diff(np.concatenate(([0.0], breaks)))
    mids = np.concatenate(([0.0], breaks))[:-1] + 0.5 * lengths
    return lengths, _order_index(n, mids), _order_index(m, mids)


def gamma_reference(xs, ys, grid=None) -> float:
    """Plug-in gamma: the rank comparison for n = m, float segment
    lengths for n != m, or the mean over a grid's interior points."""
    xo, yo = np.sort(np.asarray(xs, float)), np.sort(np.asarray(ys, float))
    n, m = xo.size, yo.size
    if grid is not None:
        ts = grid.interior()
        return float(np.mean(xo[_order_index(n, ts)]
                             > yo[_order_index(m, ts)]))
    if n == m:
        return float(np.mean(xo > yo))
    lengths, ix, iy = gamma_segments(n, m)
    return float(np.sum(lengths * (xo[ix] > yo[iy])))


def gamma_fraction(xs, ys) -> Fraction:
    """The exact plug-in gamma as a rational: the total length of the
    pieces between the breakpoints {i/n} u {j/m} where the order
    statistic x_(ceil(n t)) exceeds y_(ceil(m t))."""
    xo, yo = sorted(map(float, xs)), sorted(map(float, ys))
    n, m = len(xo), len(yo)
    breaks = sorted({Fraction(i, n) for i in range(1, n + 1)}
                    | {Fraction(j, m) for j in range(1, m + 1)})
    total, prev = Fraction(0), Fraction(0)
    for b in breaks:
        mid = (prev + b) / 2
        if xo[math.ceil(n * mid) - 1] > yo[math.ceil(m * mid) - 1]:
            total += b - prev
        prev = b
    return total
