"""Seeded batch experiments: threshold-test power table and limit laws.

The built-in scenarios are calibrated pairs whose true gamma equals a
round nominal value (0.02/0.05/0.10/0.20).  Each scenario pairs a
noncentral-t or normal F against a normal or normal-mixture G; the
orientation is fixed so that gamma(F, G) hits the nominal target (the
reversed orientation gives 1 - gamma).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import Distribution, Normal, NoncentralT1, NormalMixture
from .errors import DomainError, NumericError
from .indices import pi_index
from .inference import (_plugin_replicates, find_crossings,
                        gamma_limit_variance, gamma_threshold_test)
from .rng import SeedSpec, as_seed, map_blocks

__all__ = [
    "Scenario",
    "ExperimentResult",
    "builtin_scenarios",
    "run_table1_cell",
    "run_table",
    "asymptotic_law_experiment",
]


@dataclass(frozen=True)
class Scenario:
    """Named (F, G) pair with its nominal gamma."""

    name: str
    F: Distribution
    G: Distribution
    nominal_gamma: float


def builtin_scenarios() -> dict[str, Scenario]:
    """The eight calibrated cases (four targets, two families each):
    each one's exact gamma(F, G) lies within 4e-4 of its nominal
    target."""
    t_variants = [
        ("case1-t", 0.167, 13.0, 11.0, 0.02),
        ("case2-t", 0.5, 13.13, 10.0, 0.05),
        ("case3-t", 0.0, 1.061, 2.9, 0.10),
        ("case4-t", 0.0, 0.634, 2.5, 0.20),
    ]
    mix_variants = [
        ("case1-mix", 1.4135, [(0.02, -4.0, 3.0), (0.98, 1.0, 1.0)], 0.02),
        ("case2-mix", 1.5, [(0.03, -4.0, 1.0), (0.97, 1.0, 1.0)], 0.05),
        ("case3-mix", 1.6, [(0.05, -5.0, 1.4), (0.95, 1.0, 1.0)], 0.10),
        ("case4-mix", 1.75, [(0.10, -5.0, 1.75), (0.90, 1.0, 1.0)], 0.20),
    ]
    out: dict[str, Scenario] = {}
    for name, ncp, mu, sd, nominal in t_variants:
        out[name] = Scenario(name, NoncentralT1(ncp), Normal(mu, sd), nominal)
    for name, sd0, comps, nominal in mix_variants:
        out[name] = Scenario(name, Normal(0.0, sd0), NormalMixture(comps),
                             nominal)
    return out


@dataclass(frozen=True)
class ExperimentResult:
    """One power-table cell: rejection proportion and its MC error."""

    scenario: str
    gamma0: float
    n: int
    reps: int
    B: int
    alpha: float
    rejections: int
    proportion: float
    mc_se: float
    seed: SeedSpec

    def to_json(self) -> dict:
        return {
            "scenario": self.scenario,
            "gamma0": self.gamma0,
            "n": self.n,
            "reps": self.reps,
            "B": self.B,
            "alpha": self.alpha,
            "rejections": self.rejections,
            "proportion": self.proportion,
            "mc_se": self.mc_se,
            "seed": self.seed.to_json(),
        }

    @staticmethod
    def csv_header() -> list[str]:
        return ["scenario", "gamma0", "n", "reps", "B", "alpha",
                "rejections", "proportion", "mc_se"]

    def to_csv_row(self) -> list:
        return [self.scenario, self.gamma0, self.n, self.reps, self.B,
                self.alpha, self.rejections, self.proportion, self.mc_se]


def run_table1_cell(scenario: Scenario, gamma0: float, n: int, reps: int,
                    B: int = 1000, alpha: float = 0.05,
                    seed: SeedSpec | int | None = None,
                    threads: int = 1) -> ExperimentResult:
    """Rejection proportion of H0: gamma >= gamma0 over seeded replicates.

    Each replicate draws fresh samples of size n from both marginals
    (streams keyed by replicate index, so any thread count produces the
    same result) and applies the bootstrap threshold test.  Each running
    replicate holds its resample matrices, so `map_blocks` runs one
    replicate per block: the pool has at most one worker per replicate
    and per core, whatever ``threads`` asks for.
    """
    if reps < 1:
        raise DomainError("reps must be >= 1")
    seed = as_seed(seed)

    def one(r: int, _: int) -> list[bool]:
        xs = scenario.F.sample(n, seed.child(r, 0))
        ys = scenario.G.sample(n, seed.child(r, 1))
        res = gamma_threshold_test(xs, ys, gamma0, alpha, B,
                                   seed=seed.child(r, 2))
        return [res.reject]

    rejects = map_blocks(one, reps, 1, threads)
    k = int(rejects.sum())
    p = k / reps
    return ExperimentResult(
        scenario=scenario.name, gamma0=gamma0, n=n, reps=reps, B=B,
        alpha=alpha, rejections=k, proportion=p,
        mc_se=float(np.sqrt(p * (1.0 - p) / reps)), seed=seed)


def run_table(cells, reps: int, B: int, alpha: float = 0.05,
              seed: SeedSpec | int | None = None,
              threads: int = 1) -> list[ExperimentResult]:
    """Run a list of (scenario, gamma0, n) cells with per-cell streams."""
    seed = as_seed(seed)
    results = []
    for k, (scenario, gamma0, n) in enumerate(cells):
        results.append(run_table1_cell(scenario, gamma0, n, reps, B, alpha,
                                       seed=seed.child(k), threads=threads))
    return results


def asymptotic_law_experiment(F: Distribution, G: Distribution, n: int,
                              reps: int, seed: SeedSpec | int | None = None,
                              m: int | None = None, threads: int = 1,
                              ) -> tuple[np.ndarray, float]:
    """Draws of sqrt(nm/(n+m)) (gamma_hat - gamma) plus the reference
    limit variance from the crossing structure.

    The pair must have clean crossings: the densities at each crossing
    must differ by at least 0.1% relatively, otherwise the normal limit
    degenerates and a NumericError is raised.  A dominance pair (no
    crossing) gives variance 0 with all mass at small nonnegative
    values.  A pair whose CDFs agree in double precision (no crossing,
    pi 0 both ways) raises NumericError: its quantiles agree on (0, 1),
    where the plug-in has no normal limit.  Replicate r draws its
    samples from seed.child(r, 0) and seed.child(r, 1), in blocks on
    ``threads`` pool threads; the draws do not depend on ``threads``.
    """
    m = n if m is None else m
    lam = n / (n + m)
    cross, gamma = find_crossings(F, G, lam, min_rel_gap=1e-3)
    if not cross.t and pi_index(F, G) == 0.0 and pi_index(G, F) == 0.0:
        raise NumericError("F and G have the same CDF in double precision: "
                           "the gamma plug-in has no normal limit "
                           "(assumption A1 violated)")
    ref_var = gamma_limit_variance(cross)
    seed = as_seed(seed)
    scale = np.sqrt(n * m / (n + m))
    draws = scale * (_plugin_replicates(F, G, n, m, reps, seed, threads)
                     - gamma)
    return draws, ref_var
