import numpy as np
import pytest
from scipy import stats

from stochord import (CrossingSpec, DomainError, Empirical, GridSpec, Normal,
                      NumericError, SeedSpec, bootstrap_sd, builtin_scenarios,
                      find_crossings, galton_test, gamma_limit_variance,
                      gamma_plugin, gamma_threshold_test, pi_index,
                      pi_limit_sample, rho_index)

from reference_indices import pi_reference, sup_gap_reference


def test_galton_fifteen_with_two_exceedances():
    ys = np.arange(15.0)
    xs = np.array([i + 0.5 if i < 2 else i - 0.5 for i in range(15)])
    res = galton_test(xs, ys)
    assert res.count == 2
    assert res.p_value == 3.0 / 16.0
    assert not res.tie_flag


def test_galton_no_exceedances():
    xs = np.arange(9.0)
    ys = xs + 1.0
    res = galton_test(xs, ys)
    assert res.count == 0
    assert res.p_value == 1.0 / 10.0


def test_galton_all_exceedances():
    xs = np.arange(6.0) + 1.0
    res = galton_test(xs, np.arange(6.0))
    assert res.count == 6
    assert res.p_value == 1.0


def test_galton_order_statistics_not_pairing():
    # the statistic compares sorted samples, so input order is irrelevant
    rng = np.random.default_rng(2)
    xs, ys = rng.normal(size=12), rng.normal(size=12)
    a = galton_test(xs, ys)
    b = galton_test(np.flip(xs), rng.permutation(ys))
    assert (a.count, a.p_value) == (b.count, b.p_value)


def test_galton_ties_do_not_count_and_flag():
    xs = np.array([1.0, 2.0, 3.0])
    res = galton_test(xs, xs.copy())
    assert res.count == 0
    assert res.p_value == 1.0 / 4.0
    assert res.tie_flag


def test_galton_unequal_sizes_rejected():
    with pytest.raises(DomainError):
        galton_test(np.arange(4.0), np.arange(5.0))


def test_galton_null_distribution_uniform():
    # under F = G the count is uniform on {0..n}; reduced-scale check
    rng = np.random.default_rng(31)
    n, reps = 6, 4000
    xs = np.sort(rng.normal(size=(reps, n)), axis=1)
    ys = np.sort(rng.normal(size=(reps, n)), axis=1)
    counts = np.sum(xs > ys, axis=1)
    freq = np.bincount(counts, minlength=n + 1) / reps
    p = 1.0 / (n + 1)
    band = 4.0 * np.sqrt(p * (1 - p) / reps)
    assert np.all(np.abs(freq - p) < band)


def test_gamma_plugin_equals_galton_count_fraction():
    rng = np.random.default_rng(3)
    xs, ys = rng.normal(size=25), rng.normal(0.3, 1.5, size=25)
    res = galton_test(xs, ys)
    assert gamma_plugin(xs, ys) == res.count / 25


def test_gamma_plugin_unequal_sizes_matches_fine_grid():
    rng = np.random.default_rng(5)
    xs, ys = rng.normal(size=37), rng.normal(0.4, 2.0, size=53)
    exact = gamma_plugin(xs, ys)
    fine = float(np.mean(
        Empirical(xs).quantile(GridSpec(200001).interior())
        > Empirical(ys).quantile(GridSpec(200001).interior())))
    assert abs(exact - fine) < 2e-4


def test_plugins_monotone_transform_exact():
    rng = np.random.default_rng(6)
    xs, ys = rng.normal(size=30), rng.normal(0.2, 1.4, size=44)
    F, G = Empirical(xs), Empirical(ys)
    for T in (lambda v: 2.0 * v + 1.0, np.exp):
        TF, TG = Empirical(T(xs)), Empirical(T(ys))
        assert gamma_plugin(T(xs), T(ys)) == gamma_plugin(xs, ys)
        assert rho_index(TF, TG) == rho_index(F, G)
        assert pi_index(TF, TG) == pi_index(F, G)


def test_pi_plugin_matches_index_on_empiricals():
    # the plug-in one-sided KS statistic is pi_index on two samples
    rng = np.random.default_rng(7)
    xs, ys = rng.normal(size=20), rng.normal(0.5, 2.0, size=30)
    assert pi_reference(xs, ys) == pi_index(Empirical(xs), Empirical(ys))


def test_bootstrap_sd_requires_two_resamples():
    xs = np.arange(10.0)
    with pytest.raises(DomainError):
        bootstrap_sd(xs, xs + 0.5, B=1, seed=0)


def test_bootstrap_sd_unknown_index_kind():
    xs = np.arange(10.0)
    with pytest.raises(DomainError):
        bootstrap_sd(xs, xs + 0.5, index_kind="epsilon", seed=0)


def test_bootstrap_sd_seed_determinism_and_stability():
    rng = np.random.default_rng(8)
    xs, ys = rng.normal(size=80), rng.normal(0.2, 1.3, size=80)
    a = bootstrap_sd(xs, ys, B=400, seed=SeedSpec(1))
    b = bootstrap_sd(xs, ys, B=400, seed=SeedSpec(1))
    c = bootstrap_sd(xs, ys, B=400, seed=SeedSpec(2))
    assert a == b
    assert abs(a - c) / a < 0.10


def test_bootstrap_sd_grid_and_exact_paths_agree():
    rng = np.random.default_rng(14)
    xs, ys = rng.normal(size=50), rng.normal(0.3, 1.5, size=70)
    exact = bootstrap_sd(xs, ys, B=300, seed=SeedSpec(2))
    gridded = bootstrap_sd(xs, ys, B=300, grid=GridSpec(4001),
                           seed=SeedSpec(2))
    assert abs(exact - gridded) / exact < 0.15


def test_bootstrap_sd_constant_data_degenerates():
    xs = np.full(20, 3.0)
    ys = np.full(20, 5.0)
    assert bootstrap_sd(xs, ys, B=50, seed=0) == 0.0


def test_threshold_test_bounds_and_decision():
    rng = np.random.default_rng(9)
    xs, ys = rng.normal(size=100), rng.normal(1.0, 1.0, size=100)
    res = gamma_threshold_test(xs, ys, gamma0=0.5, B=300, seed=4)
    # one-sided bounds around the estimate: upper above, lower below
    assert res.u_bound >= res.estimate >= res.v_bound
    assert res.reject == (res.u_bound < 0.5)
    payload = res.to_json()
    assert payload["U"] == res.u_bound
    assert payload["V"] == res.v_bound


def test_threshold_test_trivial_thresholds():
    rng = np.random.default_rng(10)
    xs, ys = rng.normal(size=60), rng.normal(0.5, 1.2, size=60)
    never = gamma_threshold_test(xs, ys, gamma0=0.0, B=200, seed=1)
    assert not never.reject  # bounds live in [0,1], cannot undercut 0
    sure = gamma_threshold_test(xs, ys, gamma0=1.0, B=200, seed=1)
    assert sure.reject or sure.u_bound >= 1.0


def test_threshold_test_degenerate_bootstrap_flag():
    xs, ys = np.full(15, 1.0), np.full(15, 2.0)
    res = gamma_threshold_test(xs, ys, gamma0=0.3, B=100, seed=0)
    assert res.degenerate
    assert res.to_json()["degenerate_bootstrap"]
    assert res.u_bound == res.v_bound == res.estimate


def test_threshold_test_validates_inputs():
    xs = np.arange(10.0)
    with pytest.raises(DomainError):
        gamma_threshold_test(xs, xs, gamma0=1.5)
    with pytest.raises(DomainError):
        gamma_threshold_test(xs, xs, gamma0=0.5, alpha=0.0)


def test_crossing_spec_validation():
    with pytest.raises(DomainError):
        CrossingSpec(t=(0.5, 0.4), x=(0.0, 1.0), f=(1.0, 1.0),
                     g=(2.0, 2.0), lam=0.5)
    with pytest.raises(DomainError):
        CrossingSpec(t=(0.0,), x=(0.0,), f=(1.0,), g=(2.0,), lam=0.5)
    with pytest.raises(DomainError):
        CrossingSpec(t=(0.5,), x=(0.0,), f=(1.0,), g=(2.0,), lam=1.0)
    with pytest.raises(DomainError):
        CrossingSpec(t=(0.5,), x=(0.0,), f=(1.0, 2.0), g=(2.0,), lam=0.5)


def test_limit_variance_known_case():
    # N(0,1) vs N(0,2^2): single crossing at t = 1/2, closed form 5/8
    F, G = Normal(0, 1), Normal(0, 2)
    cross, gamma = find_crossings(F, G, lam=0.5)
    assert gamma == pytest.approx(0.5, abs=1e-9)
    assert len(cross.t) == 1
    assert cross.t[0] == pytest.approx(0.5, abs=1e-9)
    assert gamma_limit_variance(cross) == pytest.approx(0.625, abs=1e-12)


def test_limit_variance_no_crossing_is_zero():
    empty = CrossingSpec(t=(), x=(), f=(), g=(), lam=0.5)
    assert gamma_limit_variance(empty) == 0.0


def test_limit_variance_singular_crossing_rejected():
    spec = CrossingSpec(t=(0.5,), x=(0.0,), f=(0.39894,), g=(0.39894,),
                        lam=0.5)
    with pytest.raises(NumericError):
        gamma_limit_variance(spec)


def test_find_crossings_shift_pair_has_none():
    cross, gamma = find_crossings(Normal(0, 1), Normal(2, 1), lam=0.5)
    assert len(cross.t) == 0
    assert gamma == 0.0


def test_find_crossings_rejects_tangency():
    # nearly equal scales make the density gap at the crossing vanish
    with pytest.raises(NumericError):
        find_crossings(Normal(0, 1), Normal(0, 1 + 1e-6), lam=0.5,
                       min_rel_gap=1e-3)


def test_find_crossings_two_crossing_pair():
    # mean and scale both differ: quantile difference changes sign once,
    # but a mixture against a normal can cross more often; this one
    # crosses twice in the bulk and once more at t = 1 - 7.65e-6, where
    # F's wider normal tail overtakes G's
    from scipy import optimize, stats
    from stochord import NormalMixture
    F = Normal(0.0, 1.4135)
    G = NormalMixture([(0.02, -4.0, 3.0), (0.98, 1.0, 1.0)])
    cross, gamma = find_crossings(F, G, lam=0.5)
    assert len(cross.t) == 3
    assert gamma == pytest.approx(0.02, abs=5e-4)
    assert gamma_limit_variance(cross) > 0.0

    # the third crossing as a root of the survival functions' difference,
    # which keeps its relative accuracy this far into the upper tail
    def sf_gap(x):
        return (stats.norm.sf(x / 1.4135)
                - 0.02 * stats.norm.sf((x + 4.0) / 3.0)
                - 0.98 * stats.norm.sf(x - 1.0))
    root = optimize.brentq(sf_gap, 4.0, 8.0, xtol=1e-15, rtol=1e-15)
    assert cross.x[2] == pytest.approx(root, rel=1e-12)
    assert cross.t[2] == pytest.approx(1.0 - stats.norm.sf(root / 1.4135),
                                       rel=0.0, abs=1e-15)
    assert 1.0 - cross.t[2] == pytest.approx(7.65e-6, rel=1e-3)


def test_pi_limit_single_contact_matches_normal_law():
    # the gap G - F peaks at a unique x, so the limit is a single bridge
    # evaluation, i.e. an explicit normal law
    from scipy import optimize
    F, G = Normal(0, 1), Normal(-1, 1.3)
    lam = 0.4
    draws, _ = pi_limit_sample(F, G, lam, n_paths=4000, seed=SeedSpec(12))
    x0 = optimize.minimize_scalar(lambda x: float(F.cdf(x) - G.cdf(x)),
                                  bounds=(-3, 2), method="bounded",
                                  options={"xatol": 1e-12}).x
    u, v = float(G.cdf(x0)), float(F.cdf(x0))
    var = lam * u * (1 - u) + (1 - lam) * v * (1 - v)
    ks = stats.kstest(draws, "norm", args=(0.0, np.sqrt(var))).statistic
    assert ks < 0.03


@pytest.mark.parametrize("name", ["case2-mix", "case2-t"])
def test_pi_limit_matches_contact_law(name):
    # both pairs touch pi at one point x0, so the draws are exactly
    # N(0, lam G(1-G) + (1-lam) F(1-F)) at x0
    sc = builtin_scenarios()[name]
    F, G, lam, paths = sc.F, sc.G, 0.5, 200_000
    _, x0 = sup_gap_reference(F, G)
    u, v = float(G.cdf(x0)), float(F.cdf(x0))
    draws, contact = pi_limit_sample(F, G, lam, n_paths=paths,
                                     seed=SeedSpec(21))
    var = lam * u * (1 - u) + (1 - lam) * v * (1 - v)
    assert abs(draws.mean()) <= 4.0 * np.sqrt(var / paths)
    # the sample variance of normal draws has sd var * sqrt(2/(paths-1))
    assert abs(draws.var(ddof=1) - var) <= 4.0 * var * np.sqrt(2 / (paths - 1))
    # the oracle's argmax is only as sharp as its last subdivision
    [(cu, cv)] = contact
    assert cu == pytest.approx(u, rel=0, abs=1e-7)
    assert cv == pytest.approx(v, rel=0, abs=1e-7)
    assert cu - cv == pytest.approx(pi_index(F, G), rel=0, abs=1e-15)


@pytest.mark.parametrize("G", [Normal(0, 1), Normal(2, 1)],
                         ids=["same-law", "dominating"])
def test_pi_limit_needs_positive_pi(G):
    with pytest.raises(DomainError, match="pi = 0.*contact point"):
        pi_limit_sample(Normal(0, 1), G, 0.5, n_paths=10, seed=SeedSpec(1))


def test_pi_limit_sample_deterministic():
    F, G = Normal(0, 1), Normal(-1, 1)
    a, _ = pi_limit_sample(F, G, 0.5, n_paths=50, seed=SeedSpec(3))
    b, _ = pi_limit_sample(F, G, 0.5, n_paths=50, seed=SeedSpec(3))
    assert np.array_equal(a, b)
