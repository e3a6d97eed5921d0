"""Indices of departure from stochastic order.

Given two univariate distributions F and G, the package computes how
far the pair is from the pointwise quantile ordering F <= G: the
measure gamma of the set where F's quantile exceeds G's, the
exceedance probability rho = P(X > Y), the one-sided sup distance pi
between the CDFs, its complement vartheta, and the signed-area share
epsilon.  On top of the indices it provides plug-in estimation from
samples, an exact rank-order test, bootstrap standard errors and
confidence bounds, a threshold test for gamma, and Monte Carlo tools
(Brownian-bridge occupation experiments, limit-law sampling) for
checking the asymptotic theory.

The public names below load their module (and numpy) on first access,
so importing the package, or a light submodule such as
`stochord.errors`, stays cheap.  No module imports scipy.
"""
from importlib import import_module

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    "distributions": ("Distribution", "Normal", "NoncentralT1",
                      "NormalMixture", "Empirical", "from_descriptor"),
    "indices": ("GridSpec", "IndexReport", "gamma_index", "rho_index",
                "pi_index", "vartheta_index", "epsilon_index",
                "index_report", "rearranged_quantile",
                "optimal_copula_eval"),
    "inference": ("GaltonResult", "galton_test", "gamma_plugin",
                  "bootstrap_sd", "TestResult", "gamma_threshold_test",
                  "CrossingSpec", "gamma_limit_variance", "find_crossings",
                  "pi_limit_sample"),
    "bridge": ("bridge_path", "SubsetSpec", "occupation_positive",
               "occupation_experiment", "make_gamma_set_pair",
               "nonconsistency_demo"),
    "simharness": ("Scenario", "builtin_scenarios", "ExperimentResult",
                   "run_table1_cell", "run_table",
                   "asymptotic_law_experiment"),
    "rng": ("SeedSpec", "as_seed"),
    "errors": ("StochordError", "ParameterError", "DomainError",
               "DataError", "NumericError"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name: str):
    # not cached in the package namespace: every access returns the
    # submodule's current attribute
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
