"""Reference implementations of the seeded replicate loops.

These are the earlier loops that ran one replicate at a time: one
generator, one sample or bridge path and one plug-in per replicate, with
no blocks and no pool.  They are kept as oracles for the block runner
`stochord.rng.map_blocks` and the batched `sample`, `bridge_path`,
`occupation_positive` and `gamma_plugin` it calls; the driven loops must
match them bit for bit.
"""
import numpy as np

from stochord.bridge import _PiecewiseShiftQuantile
from stochord.distributions import (Empirical, NoncentralT1, Normal,
                                    NormalMixture)
from stochord.inference import gamma_plugin, gamma_threshold_test
from stochord.simharness import ExperimentResult


def sample_reference(M, n, seed):
    """One sample from one generator, as each family drew it alone."""
    rng = seed.generator()
    if isinstance(M, Normal):
        return M.mean + M.sd * rng.standard_normal(n)
    if isinstance(M, NoncentralT1):
        z = rng.standard_normal((2, n))
        return (z[0] + M.ncp) / np.abs(z[1])
    if isinstance(M, NormalMixture):
        u = rng.random(n)
        comp = np.searchsorted(np.cumsum(M._w), u, side="right")
        comp = np.minimum(comp, M._w.size - 1)
        return M._m[comp] + M._s[comp] * rng.standard_normal(n)
    if isinstance(M, Empirical):
        return M.values[rng.integers(0, M.n, size=n)]
    assert isinstance(M, _PiecewiseShiftQuantile)
    u = np.clip(rng.random(n), np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0))
    piece = np.searchsorted(np.asarray(M.breaks), u, side="left")
    return u + np.asarray(M.shifts)[piece]


def occupation_reference(paths, m, subset, seed):
    """Time positive (inside ``subset``) of bridge path i, drawn from
    seed.child(i), on the grid j/m."""
    t = np.arange(m + 1) / m
    occ = np.empty(paths)
    for i in range(paths):
        steps = seed.child(i).generator().standard_normal(m) / np.sqrt(m)
        w = np.concatenate(([0.0], np.cumsum(steps)))
        mask = (w - t * w[-1]) > 0.0
        if subset is not None:
            mask &= subset.contains(t)
        occ[i] = float(np.sum(mask) / m)
    return occ


def plugin_reference(F, G, n, m, reps, seed):
    """gamma_plugin of replicate r's samples from seed.child(r, 0) and
    seed.child(r, 1), one replicate at a time.  The nonconsistency and
    limit-law loops subtract the true gamma from each (and scale it)."""
    out = np.empty(reps)
    for r in range(reps):
        xs = sample_reference(F, n, seed.child(r, 0))
        ys = sample_reference(G, m, seed.child(r, 1))
        out[r] = gamma_plugin(xs, ys)
    return out


def table1_cell_reference(scenario, gamma0, n, reps, B, alpha, seed):
    rejects = np.zeros(reps, dtype=bool)
    for r in range(reps):
        xs = sample_reference(scenario.F, n, seed.child(r, 0))
        ys = sample_reference(scenario.G, n, seed.child(r, 1))
        rejects[r] = gamma_threshold_test(xs, ys, gamma0, alpha, B,
                                          seed=seed.child(r, 2)).reject
    k = int(rejects.sum())
    p = k / reps
    return ExperimentResult(
        scenario=scenario.name, gamma0=gamma0, n=n, reps=reps, B=B,
        alpha=alpha, rejections=k, proportion=p,
        mc_se=float(np.sqrt(p * (1.0 - p) / reps)), seed=seed)
