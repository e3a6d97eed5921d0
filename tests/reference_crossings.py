"""Reference implementation of `find_crossings`.

This is the earlier t-space search, kept as an oracle for the x-space
root search in `stochord.inference`: quantile differences on the
levels j/20002 and, below and above them, log-spaced levels reaching
1e-12 into each tail, a scalar bisection of 60 steps per bracket in t,
and gamma from one quantile comparison at the midpoint of each interval
between crossings.
"""
import numpy as np

from stochord import CrossingSpec, NumericError

_CORE = np.arange(1, 20002) / 20002
_TAILS = np.logspace(-12, np.log10(0.5), 49)[:-1]
_TAILS = _TAILS[_TAILS < _CORE[0]]
LEVELS = np.concatenate((_TAILS, _CORE, 1.0 - _TAILS[::-1]))


def find_crossings_reference(F, G, lam, refine_iters=60, min_rel_gap=0.0):
    ts = LEVELS
    diff = np.asarray(F.quantile(ts)) - np.asarray(G.quantile(ts))
    sign = np.sign(diff)
    nz = np.nonzero(sign)[0]
    flip_pairs = [(nz[k], nz[k + 1]) for k in range(nz.size - 1)
                  if sign[nz[k]] * sign[nz[k + 1]] < 0]
    cross_t = []
    for i, j in flip_pairs:
        lo, hi = ts[i], ts[j]
        flo = sign[i]
        for _ in range(refine_iters):
            mid = 0.5 * (lo + hi)
            fm = float(F.quantile(mid) - G.quantile(mid))
            if np.sign(fm) == flo:
                lo = mid
            else:
                hi = mid
        cross_t.append(0.5 * (lo + hi))
    edges = np.concatenate(([0.0], cross_t, [1.0]))
    gamma = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        mid = 0.5 * (a + b)
        if float(F.quantile(mid) - G.quantile(mid)) > 0.0:
            gamma += b - a
    xs = [float(F.quantile(t)) for t in cross_t]
    fs = [float(F.density(x)) for x in xs]
    gs = [float(G.density(x)) for x in xs]
    if min_rel_gap > 0.0:
        for x, fv, gv in zip(xs, fs, gs):
            if abs(fv - gv) < min_rel_gap * max(fv, gv):
                raise NumericError(
                    f"crossing at x={x}: densities {fv} and {gv} are too "
                    "close (assumption A1 violated)")
    spec = CrossingSpec(t=tuple(cross_t), x=tuple(xs), f=tuple(fs),
                        g=tuple(gs), lam=float(lam))
    return spec, float(gamma)
