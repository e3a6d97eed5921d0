import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, optimize, stats

from stochord import (DomainError, Empirical, GridSpec, NoncentralT1, Normal,
                      NormalMixture, ParameterError, builtin_scenarios,
                      epsilon_index, gamma_index, index_report,
                      optimal_copula_eval, pi_index, rearranged_quantile,
                      rho_index, vartheta_index)
from stochord.indices import _TAIL_U_GRID, _crossings, _support_knots

from model_strategies import mixtures, normals, t1s
from reference_indices import sup_gap_reference

models = st.one_of(normals(), mixtures(), t1s())


def two_normal_gamma(m1, s1, m2, s2):
    """Closed-form measure of {t : m1 + s1 z(t) > m2 + s2 z(t)}."""
    if s1 == s2:
        return 1.0 if m1 > m2 else 0.0
    zstar = (m2 - m1) / (s1 - s2)
    p = stats.norm.cdf(zstar)
    return 1.0 - p if s1 > s2 else p


@pytest.mark.parametrize("params", [
    (100, 10, 116, 20), (100, 10, 105, 20), (0, 1, 0, 2), (0, 2, 1, 1),
    (3, 1.5, 2.5, 0.7), (0, 1, 0.395, 0.9),
])
def test_gamma_two_normals_closed_form(params):
    m1, s1, m2, s2 = params
    got = gamma_index(Normal(m1, s1), Normal(m2, s2))
    assert abs(got - two_normal_gamma(m1, s1, m2, s2)) < 1e-12


def test_gamma_complement_sums_to_one():
    F, G = Normal(0.3, 1.1), NormalMixture([(0.4, -1.0, 0.6), (0.6, 1.5, 2.0)])
    assert abs(gamma_index(F, G) + gamma_index(G, F) - 1.0) < 1e-12


def test_gamma_dominated_pair_is_zero():
    assert gamma_index(Normal(0, 1), Normal(3, 1)) == 0.0
    assert gamma_index(Normal(3, 1), Normal(0, 1)) == 1.0


def test_gamma_of_pairs_whose_cdfs_agree_in_double_precision():
    # G - F rounds to 0 at every level, but F's quantile lies a shift
    # above G's wherever the shift does not round away: gamma is 1
    for shift in (1e-17, 1e-15, 4.1287350597087435e-263):
        F, G = Normal(shift, 1.0), Normal(0.0, 1.0)
        assert gamma_index(F, G) == 1.0, shift
        assert gamma_index(G, F) == 0.0, shift
    twin = NormalMixture([(0.5, 0.0, 1.0), (0.5, 0.0, 1.0)])
    assert gamma_index(Normal(1e-17, 1.0), twin) == 1.0
    # a pair with itself, or with a copy of its law, stays at 0
    for F, G in ((Normal(0.0, 1.0), Normal(0.0, 1.0)),
                 (Normal(0.0, 1.0), twin), (twin, Normal(0.0, 1.0)),
                 (NoncentralT1(0.5), NoncentralT1(0.5))):
        assert gamma_index(F, G) == 0.0, (F, G)


def test_rho_two_normals_closed_form():
    # P(X > Y) = Phi((mF - mG)/sqrt(sF^2 + sG^2)) for independent normals
    for (m1, s1, m2, s2) in [(100, 10, 116, 20), (100, 10, 105, 20),
                             (0, 1, 1, 3)]:
        got = rho_index(Normal(m1, s1), Normal(m2, s2))
        ref = stats.norm.cdf((m1 - m2) / np.hypot(s1, s2))
        assert abs(got - ref) < 1e-12


def test_index_report_finds_a_tail_crossing():
    # the quantile curves cross once, at t = 1 - 3.9e-5, beyond the
    # levels j/20002; missing it gave gamma = 0 < pi = 1.55e-6
    F, G = Normal(0, 1), Normal(0.395, 0.9)
    rep = index_report(F, G)
    assert rep.gamma == pytest.approx(two_normal_gamma(0, 1, 0.395, 0.9),
                                      rel=0, abs=1e-12)
    assert rep.pi == pytest.approx(1.55e-6, rel=1e-2)


def rho_quad(F, G):
    """int G f dx by adaptive quadrature between both models' quantiles
    at levels from 1e-10 to 1 - 1e-10, plus the tail terms of
    `rho_index` beyond them (each off by at most 1e-20).  The cuts keep
    every narrow component and the gaps between them in pieces of their
    own, where `quad` sees them."""
    tail = np.logspace(-10, -1, 10)
    u = np.concatenate((tail, np.linspace(0.1, 0.9, 17)[1:-1], 1 - tail))
    cuts = np.unique(np.concatenate((F.quantile(u), G.quantile(u))))
    # pieces narrower than 1e-8 make quad warn of bad integrand behaviour
    cuts = cuts[np.concatenate(([True], np.diff(cuts) > 1e-8))]
    body = sum(integrate.quad(lambda x: float(G.cdf(x) * F.density(x)),
                              a, b, epsabs=1e-15, epsrel=1e-13, limit=200)[0]
               for a, b in zip(cuts[:-1], cuts[1:]))
    a, b = cuts[0], cuts[-1]
    return float(body + F.cdf(a) * G.cdf(a) + (1 - F.cdf(b)) * G.cdf(b))


def mirror(M):
    """The law of -X for X ~ M: its CDF at -x is M's survival function
    at x, accurate where M's CDF rounds to 1."""
    if isinstance(M, Normal):
        return Normal(-M.mean, M.sd)
    if isinstance(M, NoncentralT1):
        return NoncentralT1(-M.ncp)
    return NormalMixture([(w, -m, s) for w, m, s in M.components])


def epsilon_quad(F, G):
    """int (G - F)^+ dx and int (F - G)^+ dx over epsilon's range, by
    adaptive quadrature between both models' quantiles at levels from
    1e-10 to 1 - 1e-10 and the crossings of `_crossings`, so that G - F
    keeps one sign on each piece; above F's median G - F is taken as the
    difference of the survival functions."""
    tail = np.logspace(-10, -1, 10)
    u = np.concatenate((tail, np.linspace(0.1, 0.9, 17)[1:-1], 1 - tail))
    cuts = np.union1d(np.concatenate((F.quantile(u), G.quantile(u))),
                      _crossings(F, G)[0])
    cuts = cuts[np.concatenate(([True], np.diff(cuts) > 1e-8))]
    Fm, Gm, median = mirror(F), mirror(G), F.quantile(0.5)

    def gap(x):
        if x > median:
            return float(Fm.cdf(-x) - Gm.cdf(-x))
        return float(G.cdf(x) - F.cdf(x))
    pos = neg = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        v = integrate.quad(gap, a, b, epsabs=1e-15, epsrel=1e-13,
                           limit=200)[0]
        pos, neg = pos + max(v, 0.0), neg + max(-v, 0.0)
    return pos, neg


@pytest.mark.parametrize("name", sorted(builtin_scenarios()))
def test_epsilon_builtin_pairs_match_quad(name):
    # the crossings must be knots: inside an interval their kinks put
    # epsilon off by up to 4e-8 (case4-mix)
    sc = builtin_scenarios()[name]
    pos, neg = epsilon_quad(sc.F, sc.G)
    assert epsilon_index(sc.F, sc.G) == pytest.approx(
        pos / (pos + neg), rel=0, abs=1e-9)
    assert epsilon_index(sc.G, sc.F) == pytest.approx(
        neg / (pos + neg), rel=0, abs=1e-9)


def epsilon_sample_quad(F, G):
    """epsilon of one sample and one continuous model by adaptive
    quadrature over epsilon's range, split at the sample's atoms and at
    the model's quantiles of the sample's levels i/n, so that G - F is
    smooth and keeps one sign on each piece."""
    sample, model = (F, G) if isinstance(F, Empirical) else (G, F)
    ends = _support_knots(F, G)[[0, -1]]
    cuts = np.unique(np.concatenate((
        ends, sample.values,
        model.quantile(np.arange(1, sample.n) / sample.n))))
    pos = tot = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        v = integrate.quad(lambda x: float(G.cdf(x) - F.cdf(x)), a, b,
                           epsabs=1e-15, epsrel=1e-13, limit=200)[0]
        pos, tot = pos + max(v, 0.0), tot + abs(v)
    return pos / tot


@pytest.mark.parametrize("seed", [1, 2])
def test_epsilon_sample_against_model_matches_quad(seed):
    # G - F has a kink wherever the model's CDF crosses one of the
    # sample's levels i/n; without those knots epsilon was off by 2e-7
    sample = Empirical(Normal(0, 1).sample(200, seed))
    model = Normal(0.2, 1.1)
    for F, G in ((sample, model), (model, sample)):
        assert epsilon_index(F, G) == pytest.approx(
            epsilon_sample_quad(F, G), rel=0, abs=1e-12)


def test_rho_t1_pairs_match_closed_forms():
    # t1(a) = (Z + a)/|W|, so t1(a) > t1(b) iff Z1 sin u - Z2 cos u >
    # b cos u - a sin u, with the angle u of (|W1|, |W2|) uniform
    def t1_t1(a, b):
        return 2 / np.pi * integrate.quad(
            lambda u: stats.norm.cdf(a * np.sin(u) - b * np.cos(u)),
            0, np.pi / 2, epsabs=1e-15)[0]

    # and t1(a) > N(mu, sd) iff Z + a - s mu > s sd Z', with s = |W|
    def t1_normal(a, mu, sd):
        return integrate.quad(
            lambda s: stats.norm.cdf((a - s * mu) / np.hypot(1, s * sd))
            * 2 * stats.norm.pdf(s), 0, np.inf, epsabs=1e-15)[0]

    assert rho_index(NoncentralT1(0.3), NoncentralT1(-0.5)) == pytest.approx(
        t1_t1(0.3, -0.5), rel=0, abs=1e-13)
    assert rho_index(NoncentralT1(1.0), NoncentralT1(1.0)) == pytest.approx(
        0.5, rel=0, abs=1e-13)
    for a, mu, sd in [(5.0, 3.0, 0.1), (0.5, 13.13, 10.0)]:
        assert rho_index(NoncentralT1(a), Normal(mu, sd)) == pytest.approx(
            t1_normal(a, mu, sd), rel=0, abs=1e-13)


samples = st.lists(st.floats(-6.0, 6.0), min_size=1, max_size=40).map(
    Empirical)


@settings(max_examples=30, deadline=None)
@given(st.one_of(st.tuples(models, models), st.tuples(samples, models),
                 st.tuples(models, samples)))
def test_exact_indices_complement_and_chain(pair):
    F, G = pair
    gamma, rho, pi = gamma_index(F, G), rho_index(F, G), pi_index(F, G)
    assert pi <= gamma + 1e-12
    assert pi <= rho + 1e-12
    assert abs(rho + rho_index(G, F) - 1.0) <= 1e-12
    # the quantile curves of two different continuous laws agree on a
    # null set; equal laws give gamma = 0 both ways
    if pi + pi_index(G, F) > 1e-6:
        assert abs(gamma + gamma_index(G, F) - 1.0) <= 1e-12


@settings(max_examples=20, deadline=None)
@given(models, models)
def test_rho_analytic_pairs_match_quad(F, G):
    assert rho_index(F, G) == pytest.approx(rho_quad(F, G), rel=0,
                                            abs=1e-12)


# one model per family, with its quantiles on 10**6 - 1 interior levels
GRID_MODELS = [Normal(0.3, 1.2), NoncentralT1(0.7),
               NormalMixture([(0.3, -1.0, 0.5), (0.7, 1.0, 1.0)])]
FINE = np.arange(1, 10**6) / 10**6


@pytest.fixture(scope="module")
def fine_quantiles():
    return [np.asarray(M.quantile(FINE)) for M in GRID_MODELS]


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(range(len(GRID_MODELS))),
       st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=40))
def test_sample_model_pairs_match_fine_grid(fine_quantiles, k, xs):
    M, qm, E = GRID_MODELS[k], fine_quantiles[k], Empirical(xs)
    qe = np.asarray(E.quantile(FINE))
    # {t : E^{-1}(t) > M^{-1}(t)} is at most n intervals, and a grid of
    # spacing h = 1e-6 counts the length of each to within h; the two
    # end pieces it leaves out and the mean's 1/(N - 1) add up to 3h
    tol = (E.n + 3) * 1e-6
    assert abs(gamma_index(E, M) - np.mean(qe > qm)) <= tol
    assert abs(gamma_index(M, E) - np.mean(qm > qe)) <= tol
    # t -> E(M^{-1}(t)-) is monotone from 0 to 1, so its grid mean is
    # within h of the integral, plus the same 3h
    left = np.searchsorted(E.values, qm, side="left") / E.n
    assert abs(rho_index(M, E) - left.mean()) <= 4e-6


def test_rho_empirical_is_exact_pair_count():
    rng = np.random.default_rng(11)
    xs, ys = rng.normal(size=40), rng.normal(0.4, 1.3, size=60)
    got = rho_index(Empirical(xs), Empirical(ys))
    ref = np.mean(xs[:, None] > ys[None, :])
    assert got == ref


def test_pi_matches_direct_sup_search():
    F = Normal(0.0, 1.0)
    G = NormalMixture([(0.05, -5.0, 1.4), (0.95, 1.0, 1.0)])
    got = pi_index(F, G)
    neg_gap = lambda x: float(F.cdf(x) - G.cdf(x))
    best = -min(optimize.minimize_scalar(
        neg_gap, bounds=(lo, hi), method="bounded",
        options={"xatol": 1e-12}).fun
        for lo, hi in [(-12, -2), (-2, 2), (2, 12)])
    assert abs(got - best) < 1e-9


@pytest.mark.parametrize("name", sorted(builtin_scenarios()))
@pytest.mark.parametrize("swap", [False, True], ids=["F-G", "G-F"])
def test_pi_matches_refinement_on_builtin_scenarios(name, swap):
    sc = builtin_scenarios()[name]
    F, G = (sc.G, sc.F) if swap else (sc.F, sc.G)
    assert pi_index(F, G) == pytest.approx(sup_gap_reference(F, G)[0],
                                           rel=0, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(models, models)
def test_pi_analytic_pairs_match_refinement_and_dense_grid(F, G):
    got = pi_index(F, G)
    # the gap at both models' quantiles of a dense probability grid,
    # log-spaced into the tails: any value bounds the sup from below, up
    # to the 1e-12 that a peak beyond pi's tail grid can reach
    tail = np.logspace(-13.0, -2.0, 2001)
    u = np.concatenate((tail, np.linspace(0.0, 1.0, 20_001)[1:-1], 1 - tail))
    xs = np.concatenate((F.quantile(u), G.quantile(u)))
    dense = max(0.0, float(np.max(np.asarray(G.cdf(xs)) - F.cdf(xs))))
    assert dense - 1e-12 <= got <= dense + 1e-6
    ref, _ = sup_gap_reference(F, G)
    assert ref - 1e-12 <= got <= ref + 1e-9


def test_pi_of_dominating_pair_is_zero():
    # identical scale, shifted up: G's cdf never exceeds F's
    assert pi_index(Normal(1.0, 1.0), Normal(3.0, 1.0)) == 0.0


def test_pi_empirical_is_exact():
    xs = np.array([1.0, 2.0, 3.0, 10.0])
    ys = np.array([0.5, 2.5, 9.0, 11.0])
    F, G = Empirical(xs), Empirical(ys)
    zs = np.concatenate([xs, ys])
    ref = max(float(G.cdf(z) - F.cdf(z)) for z in zs)
    ref = max(ref, max(float(G.cdf(z - 1e-9) - F.cdf(z - 1e-9)) for z in zs))
    assert abs(pi_index(F, G) - ref) < 1e-12


def test_vartheta_identity():
    F, G = Normal(0, 1), Normal(0.5, 2)
    assert vartheta_index(F, G) == pytest.approx(1.0 - pi_index(G, F), abs=0)


def test_epsilon_symmetric_pair_is_half():
    # equal means, different scales: positive and negative areas match
    got = epsilon_index(Normal(0, 1), Normal(0, 2))
    assert got == pytest.approx(0.5, abs=1e-9)


def test_epsilon_dominated_and_identical():
    assert epsilon_index(Normal(0, 1), Normal(2, 1)) < 1e-9
    assert epsilon_index(Normal(0, 1), Normal(0, 1)) is None
    xs = np.array([1.0, 2.0, 5.0])
    assert epsilon_index(Empirical(xs), Empirical(xs)) is None


def test_epsilon_empirical_matches_analytic_limit():
    rng = np.random.default_rng(4)
    F, G = Normal(0, 1), Normal(0.3, 1.8)
    xs, ys = F.sample(60000, 1), G.sample(60000, 2)
    exact = epsilon_index(Empirical(xs), Empirical(ys))
    assert abs(exact - epsilon_index(F, G)) < 0.01


def test_epsilon_affine_invariance():
    xs = np.random.default_rng(8).normal(size=50)
    ys = np.random.default_rng(9).normal(0.3, 1.7, size=50)
    base = epsilon_index(Empirical(xs), Empirical(ys))
    moved = epsilon_index(Empirical(3.0 * xs - 2.0), Empirical(3.0 * ys - 2.0))
    assert moved == pytest.approx(base, abs=1e-12)


def test_rearranged_quantile_measure_identity():
    F, G = Normal(100, 10), Normal(116, 20)
    pi0 = pi_index(F, G)
    ts = GridSpec(1001).interior()
    qf = np.asarray(F.quantile(ts))
    meas = float(np.mean(qf > rearranged_quantile(G, pi0, ts)))
    assert abs(meas - pi0) < 2 / 1001


def test_rearranged_quantile_zero_shift_is_quantile():
    G = Normal(1, 2)
    ts = np.linspace(0.01, 0.99, 23)
    assert np.allclose(rearranged_quantile(G, 0.0, ts), G.quantile(ts),
                       atol=0)


def test_rearranged_quantile_boundary():
    G = Normal(0, 1)
    assert rearranged_quantile(G, 0.25, 0.75) == -np.inf
    E = Empirical([5.0, 7.0, 9.0])
    assert rearranged_quantile(E, 0.25, 0.75) == 5.0
    with pytest.raises(DomainError):
        rearranged_quantile(G, 1.0, 0.5)
    with pytest.raises(DomainError):
        rearranged_quantile(G, 0.2, 1.0)


def test_copula_margins_and_bounds():
    rng = np.random.default_rng(15)
    us = rng.uniform(0, 1, 200)
    for pi0 in (0.0, 0.1, 0.45, 0.8):
        assert np.allclose(optimal_copula_eval(pi0, us, 1.0), us, atol=1e-15)
        assert np.allclose(optimal_copula_eval(pi0, 1.0, us), us, atol=1e-15)
        assert np.all(optimal_copula_eval(pi0, us, 0.0) == 0.0)
        assert np.all(optimal_copula_eval(pi0, 0.0, us) == 0.0)
        xs, ys = rng.uniform(0, 1, 300), rng.uniform(0, 1, 300)
        c = optimal_copula_eval(pi0, xs, ys)
        assert np.all(c <= np.minimum(xs, ys) + 1e-15)
        assert np.all(c >= np.maximum(xs + ys - 1.0, 0.0) - 1e-15)


@pytest.mark.parametrize("x, y", [(np.nan, 0.5), (0.5, np.nan),
                                  ([0.2, np.nan], 0.5), (1.5, 0.5)])
def test_copula_rejects_arguments_outside_the_square(x, y):
    with pytest.raises(DomainError):
        optimal_copula_eval(0.2, x, y)


def test_copula_comonotone_at_zero():
    xs = np.array([0.2, 0.7, 0.5])
    ys = np.array([0.6, 0.3, 0.5])
    assert np.array_equal(optimal_copula_eval(0.0, xs, ys),
                          np.minimum(xs, ys))


def test_copula_coupling_exceedance_mass():
    # the copula's P(X > Y) under uniform margins equals pi0: check by
    # Monte Carlo differencing of the rectangle {u > v}
    pi0 = 0.3
    m = 400
    us = (np.arange(m) + 0.5) / m
    # P(U <= u, V <= u) along the diagonal recovers P(U > V) via
    # inclusion-exclusion on a fine partition
    grid = np.linspace(0, 1, 801)
    cc = optimal_copula_eval(pi0, grid[:, None], grid[None, :])
    dens = np.diff(np.diff(cc, axis=0), axis=1)
    above = np.triu(np.ones((800, 800)), k=1)  # cells with u > v
    mass_above = float(np.sum(dens * above.T))
    assert abs(mass_above - pi0) < 0.01


def test_tail_u_grid_levels_are_distinct_and_inside():
    assert np.all(np.diff(_TAIL_U_GRID) > 0)
    assert 0.0 < _TAIL_U_GRID[0] and _TAIL_U_GRID[-1] < 1.0


def test_grid_spec_validation_and_interior():
    for bad in (2, 10.5, float("nan"), float("inf")):
        with pytest.raises(ParameterError):
            GridSpec(bad)
    g = GridSpec(11)
    assert np.allclose(g.interior(), np.arange(1, 10) / 10)


def test_index_report_consistency_and_csv():
    F, G = Normal(100, 10), Normal(116, 20)
    rep = index_report(F, G)
    assert rep.pi <= rep.gamma + 1e-12
    assert rep.pi <= rep.rho + 1e-12
    assert rep.vartheta == pytest.approx(1 - pi_index(G, F))
    row = rep.to_csv_row()
    assert len(row) == len(rep.csv_header())
    payload = rep.to_json()
    assert set(("gamma", "rho", "pi", "vartheta", "epsilon")) <= set(payload)


def test_index_report_identical_models():
    rep = index_report(Normal(0, 1), Normal(0, 1))
    assert rep.gamma == 0.0
    assert rep.pi == pytest.approx(0.0, abs=1e-12)
    assert rep.epsilon is None
    assert not rep.epsilon_defined
