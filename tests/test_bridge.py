import numpy as np
import pytest
from scipy import stats

from stochord import (DomainError, SeedSpec, SubsetSpec, bridge_path,
                      gamma_index, make_gamma_set_pair,
                      nonconsistency_demo, occupation_positive)


def test_bridge_path_shape_and_pinning():
    p = bridge_path(256, SeedSpec(1))
    assert p.shape == (257,)
    assert p[0] == 0.0
    assert p[-1] == 0.0


def test_bridge_path_grid_must_be_power_of_two():
    for bad in (0, 1, 3, 1000, 2047):
        with pytest.raises(DomainError):
            bridge_path(bad)
    bridge_path(2)  # smallest legal grid


def test_bridge_path_deterministic():
    a = bridge_path(128, SeedSpec(7, (1,)))
    b = bridge_path(128, SeedSpec(7, (1,)))
    c = bridge_path(128, SeedSpec(7, (2,)))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_bridge_marginal_variance():
    # var B(t) = t(1-t); check at quarter points over many paths
    seed = SeedSpec(3)
    m = 64
    vals = np.array([bridge_path(m, seed.child(i))
                     for i in range(4000)])
    for j in (m // 4, m // 2, 3 * m // 4):
        t = j / m
        v = vals[:, j].var(ddof=1)
        assert abs(v - t * (1 - t)) < 0.02
    # covariance min(s,t) - st between two interior points
    s, t = m // 4, m // 2
    cov = np.cov(vals[:, s], vals[:, t])[0, 1]
    assert abs(cov - (s / m) * (1 - t / m)) < 0.02


def test_occupation_strict_positive_and_range():
    p = bridge_path(64, SeedSpec(4))
    occ = occupation_positive(p)
    assert 0.0 <= occ <= 1.0
    # endpoints are exactly zero and must not count
    assert occ <= 1.0 - 1 / 64


def test_occupation_negation_symmetry():
    # -B is also a standard bridge, and interior zeros have measure 0,
    # so occ(-B) = 1 - occ(B) up to the endpoint convention
    seed = SeedSpec(5)
    for i in range(32):
        p = bridge_path(128, seed.child(i))
        assert occupation_positive(p) + occupation_positive(-p) \
            == pytest.approx(1.0 - 1 / 128, abs=1e-12)


def test_occupation_uniform_law():
    # reduced-scale arc-sine check; the full version runs in acceptance
    seed = SeedSpec(6)
    occ = np.array([occupation_positive(bridge_path(512, seed.child(i)))
                    for i in range(2500)])
    assert stats.kstest(occ, "uniform").statistic < 0.04


def test_occupation_restricted_subset_mean():
    subset = SubsetSpec(((0.1, 0.3), (0.6, 0.8)))
    seed = SeedSpec(7)
    occ = np.array([
        occupation_positive(bridge_path(256, seed.child(i)), subset)
        for i in range(3000)])
    # E occ(I) = l(I)/2 since P(B_t > 0) = 1/2 pointwise
    assert abs(occ.mean() - subset.length / 2) < 4 * occ.std() / np.sqrt(3000)
    assert occ.std() > 0.01
    assert occ.max() <= subset.length + 1e-12


def test_subset_spec_parse_and_contains():
    s = SubsetSpec.parse("0.6:0.8,0.1:0.3")
    assert s.intervals == ((0.1, 0.3), (0.6, 0.8))
    assert s.length == pytest.approx(0.4)
    mask = s.contains(np.array([0.0, 0.2, 0.5, 0.7, 0.9]))
    assert list(mask) == [False, True, False, True, False]


def test_subset_spec_validation():
    with pytest.raises(DomainError):
        SubsetSpec(((0.3, 0.1),))
    with pytest.raises(DomainError):
        SubsetSpec(((0.1, 0.4), (0.3, 0.6)))
    with pytest.raises(DomainError):
        SubsetSpec(((-0.1, 0.5),))
    with pytest.raises(DomainError):
        SubsetSpec.parse("0.1-0.3")


def test_gamma_set_pair_construction():
    F, G, gamma, gset = make_gamma_set_pair()
    assert gamma == pytest.approx(1 / 3)
    assert gset.intervals == ((1 / 3, 2 / 3),)
    # gamma is exact by construction, and the agreement set counts in
    # neither orientation: G's quantile is below F's on (0, 1/3) and
    # above it on (2/3, 1)
    assert gamma_index(F, G) == pytest.approx(1 / 3, rel=0, abs=1e-15)
    assert gamma_index(G, F) == pytest.approx(1 / 3, rel=0, abs=1e-15)
    # quantiles agree exactly on the middle third
    ts = np.linspace(0.34, 0.66, 21)
    assert np.array_equal(np.asarray(F.quantile(ts)),
                          np.asarray(G.quantile(ts)))


def test_gamma_set_pair_models_are_proper():
    F, G, _, _ = make_gamma_set_pair()
    ts = np.linspace(0.001, 0.999, 499)
    for d in (F, G):
        q = np.asarray(d.quantile(ts))
        assert np.all(np.diff(q) >= 0)
        back = np.asarray(d.cdf(q))
        assert np.max(np.abs(back - ts)) < 1e-10
    xs = G.sample(2000, SeedSpec(8))
    assert stats.kstest(xs, lambda v: np.asarray(G.cdf(v))).statistic < 0.04


def test_nonconsistency_demo_small_run():
    out = nonconsistency_demo(n=300, reps=60, seed=SeedSpec(9))
    assert out["reps"] == 60
    assert out["gamma_true"] == pytest.approx(1 / 3)
    assert sum(out["histogram"]["counts"]) == 60
    # the error should be visibly biased upward already at n=300
    assert out["mean"] > 0.05
    assert out["sd"] > 0.02


def test_occupation_needs_a_power_of_two_grid():
    for length in (1, 2, 4, 100, 2048):
        with pytest.raises(DomainError):
            occupation_positive(np.zeros(length))
        with pytest.raises(DomainError):
            occupation_positive(np.zeros((3, length)))
    with pytest.raises(DomainError):
        occupation_positive(np.zeros(()))
    assert occupation_positive(np.ones(5)) == 1.25
