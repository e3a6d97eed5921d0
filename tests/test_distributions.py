import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from stochord import (DataError, DomainError, Empirical, NoncentralT1, Normal,
                      NormalMixture, NumericError, ParameterError, SeedSpec,
                      from_descriptor, pi_index)
from stochord.bridge import make_gamma_set_pair


def test_normal_matches_scipy():
    d = Normal(1.5, 2.0)
    xs = np.linspace(-8, 12, 101)
    assert np.allclose(d.cdf(xs), stats.norm.cdf(xs, 1.5, 2.0), atol=1e-14)
    assert np.allclose(d.density(xs), stats.norm.pdf(xs, 1.5, 2.0), atol=1e-14)
    ts = np.linspace(0.001, 0.999, 201)
    assert np.allclose(d.quantile(ts), stats.norm.ppf(ts, 1.5, 2.0),
                       rtol=1e-12, atol=1e-12)


def test_normal_rejects_bad_sd():
    with pytest.raises(ParameterError):
        Normal(0.0, 0.0)
    with pytest.raises(ParameterError):
        Normal(0.0, -1.0)


@pytest.mark.parametrize("sd", [5e-324, 1e-320, 2.225073858507201e-308],
                         ids=["least", "1e-320", "greatest"])
def test_subnormal_sd_is_rejected(sd):
    # phi(0) / sd overflows to inf for a subnormal sd
    with pytest.raises(ParameterError, match="least normal double"):
        Normal(0.0, sd)
    with pytest.raises(ParameterError, match="least normal double"):
        NormalMixture([(1.0, 0.0, sd)])
    with pytest.raises(ParameterError, match="least normal double"):
        NormalMixture([(0.5, 0.0, 1.0), (0.5, 1.0, sd)])


def test_least_normal_sd_has_a_finite_density():
    sd = 2.2250738585072014e-308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for d in (Normal(0.0, sd), NormalMixture([(1.0, 0.0, sd)])):
            assert d.density(0.0) == pytest.approx(
                1 / (sd * np.sqrt(2 * np.pi)))


@pytest.mark.parametrize("ncp", [0.0, 0.167, 0.5, -1.3, 3.0])
def test_t1_cdf_density_against_scipy(ncp):
    d = NoncentralT1(ncp)
    ref = stats.nct(df=1, nc=ncp)
    xs = np.concatenate([np.linspace(-60, 60, 241), [-1e4, 1e4, -1e7, 1e7]])
    assert np.allclose(d.cdf(xs), ref.cdf(xs), atol=2e-13)
    xs = np.linspace(-40, 40, 161)
    assert np.allclose(d.density(xs), ref.pdf(xs), atol=2e-13, rtol=1e-10)


def test_t1_quantile_roundtrip():
    d = NoncentralT1(0.5)
    ts = np.concatenate([np.linspace(1e-6, 1 - 1e-6, 501),
                         [1e-9, 1 - 1e-9, 1e-12, 1 - 1e-12]])
    back = d.cdf(d.quantile(ts))
    assert np.max(np.abs(back - ts)) < 1e-10


def test_t1_quantile_against_scipy_central():
    # scipy's ppf carries its own inversion tolerance, so the comparison
    # is loose relative to the roundtrip check above
    d = NoncentralT1(0.167)
    ts = np.linspace(0.01, 0.99, 99)
    ref = stats.nct(df=1, nc=0.167).ppf(ts)
    assert np.allclose(d.quantile(ts), ref, rtol=1e-7, atol=1e-7)


def test_t1_sampling_representation():
    # T = (Z + ncp)/|Z'| should be distributed per the quadrature cdf
    d = NoncentralT1(0.8)
    xs = d.sample(4000, SeedSpec(5))
    ks = stats.kstest(xs, d.cdf).statistic
    assert ks < 0.03


def test_t1_quantile_extreme_tails_monotone():
    d = NoncentralT1(0.0)
    ts = np.array([1e-12, 1e-9, 1e-6, 1e-3, 0.5, 1 - 1e-3, 1 - 1e-6,
                   1 - 1e-9, 1 - 1e-12])
    qs = d.quantile(ts)
    assert np.all(np.diff(qs) > 0)
    # central t1 is Cauchy: quantile at 1-1e-9 is around 1/(pi*1e-9)
    assert qs[-1] > 1e8


def test_mixture_cdf_is_weighted_sum():
    comps = [(0.3, -2.0, 0.5), (0.7, 1.0, 2.0)]
    d = NormalMixture(comps)
    xs = np.linspace(-10, 12, 101)
    ref = 0.3 * stats.norm.cdf(xs, -2, 0.5) + 0.7 * stats.norm.cdf(xs, 1, 2)
    assert np.allclose(d.cdf(xs), ref, atol=1e-14)


def test_mixture_quantile_roundtrip():
    d = NormalMixture([(0.02, -4.0, 3.0), (0.98, 1.0, 1.0)])
    ts = np.linspace(1e-8, 1 - 1e-8, 401)
    back = d.cdf(d.quantile(ts))
    assert np.max(np.abs(back - ts)) < 1e-10


sds = st.floats(1e-3, 1e3)


@st.composite
def far_mixtures(draw):
    """Two components at least 40 summed sds apart, sds 1e-3 to 1e3."""
    w, s1, s2 = draw(st.floats(0.01, 0.99)), draw(sds), draw(sds)
    m1 = draw(st.floats(-1e3, 1e3))
    m2 = m1 + draw(st.floats(40.0, 1e3)) * (s1 + s2)
    return NormalMixture([(w, m1, s1), (1.0 - w, m2, s2)])


# from 1e-300 to 1/2, and from 1/2 to 1 - 1e-15
levels = st.one_of(st.floats(0.30103, 300.0).map(lambda e: 10.0 ** -e),
                   st.floats(0.30103, 15.0).map(lambda e: 1.0 - 10.0 ** -e))


@settings(max_examples=100, deadline=None)
@given(far_mixtures(), st.lists(levels, min_size=1, max_size=20))
def test_mixture_quantile_is_the_least_double_reaching_t(d, ts):
    t = np.array(ts)
    q = np.asarray(d.quantile(t))
    assert np.all(d.cdf(q) >= t)
    assert np.all(d.cdf(np.nextafter(q, -np.inf)) < t)


def _tiny_sd_mixtures():
    # the first: the largest component quantile m + s z at t rounds to m,
    # where F holds only the first component's half weight
    yield NormalMixture([
        (0.5557300246843376, -0.07162624207653383, 1.5122475155697143e-142),
        (0.44426997531566237, -0.09734779186893464, 4.606751145734395e-220)])
    rng = np.random.default_rng(21)
    for k in (2, 2, 3, 3):
        w = rng.dirichlet(np.ones(k))
        sd = 10.0 ** rng.uniform(-300, -20, k)
        yield NormalMixture([(w[i] / w.sum(), float(rng.normal()), sd[i])
                             for i in range(k)])


@pytest.mark.parametrize("d", _tiny_sd_mixtures())
def test_tiny_sd_mixture_quantile_is_the_least_double_reaching_t(d):
    t = np.concatenate(([0.82381953], np.logspace(-300, math.log10(0.5), 40),
                        1.0 - np.logspace(-15, math.log10(0.5), 20)))
    q = np.asarray(d.quantile(t))
    assert np.all(d.cdf(q) >= t)
    assert np.all(d.cdf(np.nextafter(q, -np.inf)) < t)


def test_mixture_quantile_beyond_the_weights_raises():
    # the weights sum to 1 - 5e-10, so the CDF never reaches 1 - 1e-10
    d = NormalMixture([(0.5, 0.0, 1.0), (0.5 - 5e-10, 3.0, 1.0)])
    with pytest.raises(NumericError):
        d.quantile(1.0 - 1e-10)


def test_one_component_mixture_quantile_is_the_normal_one():
    ts = np.concatenate((np.logspace(-300, -1, 50),
                         np.linspace(0.01, 0.99, 99),
                         1.0 - np.logspace(-15, -1, 50)))
    for m, s in [(0.0, 1.0), (-3.5, 0.01), (1e3, 250.0)]:
        assert np.array_equal(NormalMixture([(1.0, m, s)]).quantile(ts),
                              Normal(m, s).quantile(ts))


def test_mixture_weights_must_sum_to_one():
    with pytest.raises(ParameterError):
        NormalMixture([(0.5, 0.0, 1.0), (0.6, 1.0, 1.0)])


def test_mixture_sampling_matches_cdf():
    d = NormalMixture([(0.1, -5.0, 1.75), (0.9, 1.0, 1.0)])
    xs = d.sample(4000, SeedSpec(6))
    assert stats.kstest(xs, d.cdf).statistic < 0.03


def test_empirical_quantile_convention():
    # quantile at t is the ceil(n t)-th order statistic (1-indexed)
    d = Empirical([3.0, 1.0, 2.0, 4.0])
    assert d.quantile(0.25) == 1.0      # ceil(1.0) = 1st
    assert d.quantile(0.250001) == 2.0  # ceil(1.000004) = 2nd
    assert d.quantile(0.5) == 2.0
    assert d.quantile(0.75) == 3.0
    assert d.quantile(0.999) == 4.0


def test_empirical_cdf_convention():
    d = Empirical([1.0, 2.0, 2.0, 5.0])
    xs = np.array([0.5, 1.0, 1.5, 2.0, 4.9, 5.0, 6.0])
    ref = np.array([0.0, 0.25, 0.25, 0.75, 0.75, 1.0, 1.0])
    assert np.array_equal(d.cdf(xs), ref)
    assert d.cdf(2.0) == 0.75


def test_empirical_galois_duality_exact():
    rng = np.random.default_rng(77)
    vals = rng.normal(size=23)
    d = Empirical(vals)
    ts = np.linspace(0.01, 0.99, 57)
    for x in vals:
        fx = d.cdf(x)
        for t in ts:
            assert (t <= fx) == (d.quantile(t) <= x)


def test_analytic_galois_duality():
    d = Normal(0.3, 1.7)
    ts = np.linspace(0.001, 0.999, 97)
    xs = np.linspace(-6, 7, 41)
    q = np.asarray(d.quantile(ts))
    f = np.asarray(d.cdf(xs))
    for i, t in enumerate(ts):
        for j, x in enumerate(xs):
            # duality can only break within inversion tolerance of the cdf
            if abs(f[j] - t) > 1e-10:
                assert (t <= f[j]) == (q[i] <= x)


def test_empirical_ties_flagged():
    assert Empirical([1.0, 2.0, 2.0]).tie_flag
    assert not Empirical([1.0, 2.0, 3.0]).tie_flag


def test_empirical_needs_data():
    with pytest.raises(DataError):
        Empirical([])


def test_quantile_domain_checks():
    d = Normal(0, 1)
    with pytest.raises(DomainError):
        d.quantile(0.0)
    with pytest.raises(DomainError):
        d.quantile(1.0)
    with pytest.raises(DomainError):
        Empirical([1.0, 2.0]).quantile(-0.1)


def test_descriptor_roundtrip():
    models = [Normal(2, 3), NoncentralT1(0.5),
              NormalMixture([(0.4, 0.0, 1.0), (0.6, 2.0, 0.5)]),
              Empirical([1.0, 3.0, 2.0])]
    for m in models:
        again = from_descriptor(m.to_json())
        assert again == m


def test_descriptor_csv_backed(write_csv):
    path = write_csv([4.0, 1.0, 3.0], name="vals.csv")
    d = from_descriptor({"kind": "empirical", "csv": "vals.csv"},
                        base_dir=path.parent)
    assert np.array_equal(d.values, [1.0, 3.0, 4.0])


def test_descriptor_unknown_kind():
    # malformed descriptor files are a data problem, not a parameter one
    with pytest.raises(DataError):
        from_descriptor({"kind": "gamma", "shape": 2})


def test_sampling_deterministic_by_seed():
    d = Normal(0, 1)
    a = d.sample(10, SeedSpec(9, (1,)))
    b = d.sample(10, SeedSpec(9, (1,)))
    c = d.sample(10, SeedSpec(9, (2,)))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_empirical_sample_is_bootstrap_draw():
    d = Empirical([1.0, 2.0, 3.0])
    xs = d.sample(500, SeedSpec(3))
    assert set(np.unique(xs)) <= {1.0, 2.0, 3.0}


@st.composite
def models(draw):
    """A model of each family with random parameters."""
    kind = draw(st.sampled_from(["normal", "t1", "mixture", "empirical"]))
    locs, scales = st.floats(-5.0, 5.0), st.floats(0.3, 3.0)
    if kind == "normal":
        return Normal(draw(locs), draw(scales))
    if kind == "t1":
        return NoncentralT1(draw(st.floats(-3.0, 3.0)))
    if kind == "mixture":
        w = draw(st.lists(st.floats(0.05, 1.0), min_size=1, max_size=5))
        return NormalMixture([(wi / sum(w), draw(locs), draw(scales))
                              for wi in w])
    return Empirical(draw(st.lists(locs, min_size=1, max_size=30)))


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.int64)


@settings(max_examples=200, deadline=None)
@given(models(), st.lists(st.floats(-12.0, 12.0), min_size=1, max_size=40),
       st.lists(st.floats(1e-6, 1.0 - 1e-6), min_size=1, max_size=40))
def test_values_do_not_depend_on_the_batch(model, xs, ts):
    # an array's values equal, bit for bit, each element evaluated alone
    xs, ts = np.array(xs), np.array(ts)
    methods = [(model.cdf, xs), (model.quantile, ts)]
    if not isinstance(model, Empirical):
        methods.append((model.density, xs))
    for method, args in methods:
        alone = [method(float(a)) for a in args]
        assert np.array_equal(_bits(method(args)), _bits(alone)), method


_SHIFT_F, _SHIFT_G, _, _ = make_gamma_set_pair()
# each model, with the evaluators it defines
SHAPE_MODELS = {
    "normal": (Normal(0.3, 1.7), ("cdf", "density", "quantile")),
    "t1": (NoncentralT1(0.5), ("cdf", "density", "quantile")),
    "mixture": (NormalMixture([(0.4, -1.0, 0.5), (0.6, 1.5, 2.0)]),
                ("cdf", "density", "quantile")),
    "empirical": (Empirical([0.3, -1.2, 2.5, 0.3, 4.0]), ("cdf", "quantile")),
    "shift-uniform": (_SHIFT_F, ("cdf", "quantile")),
    "shift-gamma-set": (_SHIFT_G, ("cdf", "quantile")),
}


@pytest.mark.parametrize("name", sorted(SHAPE_MODELS))
def test_evaluators_keep_the_argument_shape(name):
    # a scalar gives a float; an array keeps its shape, each value equal
    # bit for bit to its element evaluated alone
    model, methods = SHAPE_MODELS[name]
    args = {"x": np.linspace(-3.0, 3.0, 6), "t": np.linspace(0.05, 0.95, 6)}
    for method in methods:
        evaluate = getattr(model, method)
        pool = args["t" if method == "quantile" else "x"]
        for scalar in (float(pool[1]), pool[1], np.array(pool[1])):
            assert type(evaluate(scalar)) is float, method
        for shape in [(0,), (5,), (2, 2), (3, 2), (1, 3)]:
            arg = pool[:int(np.prod(shape))].reshape(shape)
            out = evaluate(arg)
            assert isinstance(out, np.ndarray) and out.shape == shape, method
            alone = [evaluate(float(a)) for a in arg.ravel()]
            assert np.array_equal(_bits(out.ravel()), _bits(alone)), method


@pytest.mark.parametrize("name", sorted(SHAPE_MODELS))
def test_long_arrays_give_each_element_its_value_alone(name):
    # the evaluators cut arrays of more than 8192 values into chunks:
    # across the chunk boundaries every value still equals, bit for bit,
    # that of its element evaluated alone
    model, methods = SHAPE_MODELS[name]
    rng = np.random.default_rng(11)
    size = 3 * 8192 + 5
    args = {"x": rng.standard_normal(size) * 4.0,
            "t": rng.uniform(1e-9, 1.0 - 1e-9, size)}
    picks = np.r_[0:size:97, 8191, 8192, 16383, 16384, 24575, 24576, size - 1]
    for method in methods:
        evaluate = getattr(model, method)
        arg = args["t" if method == "quantile" else "x"]
        out = evaluate(arg)
        assert out.shape == (size,), method
        alone = [evaluate(float(a)) for a in arg[picks]]
        assert np.array_equal(_bits(out[picks]), _bits(alone)), method


@pytest.mark.parametrize("name", sorted(SHAPE_MODELS))
def test_quantile_rejects_bad_levels_anywhere_in_a_matrix(name):
    model = SHAPE_MODELS[name][0]
    for bad in (0.0, 1.0, np.nan):
        for k in range(4):
            ts = np.array([0.2, 0.4, 0.6, 0.8])
            ts[k] = bad
            with pytest.raises(DomainError):
                model.quantile(ts.reshape(2, 2))


def test_normal_densities_raise_no_overflow_warning():
    # z = (x - mean)/sd squared overflows beyond |z| = 1e154; every z
    # here stays below 1e308
    zs = np.array([1e154, -1.5e154, 1e200, 1e308, -1e308])
    mixture = NormalMixture([(0.4, -1.0, 1.0), (0.6, 1.5, 2.0)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for d in (Normal(0.0, 1.0), mixture):
            assert np.all(d.density(zs) == 0.0)
            assert d.density(1e300) == 0.0
        tiny = Normal(0.0, 1e-300)
        assert tiny.density(1.0) == 0.0
        # the roots of g - f that pi brackets lie at |z| near 1e300
        assert pi_index(tiny, Normal(0.0, 1.0)) == pytest.approx(0.5)


def test_normal_quotient_overflow_raises_no_warning():
    # (x - mean)/sd itself overflows here, to +-inf: Phi is 0 or 1 there
    # and phi is 0
    narrow = NormalMixture([(0.5, 0.0, 1e-3), (0.5, 1.0, 0.25)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for d in (Normal(0.0, 0.5), Normal(0.0, 1e-300), narrow):
            for x, below in ((1e308, 1.0), (-1e308, 0.0)):
                assert d.cdf(x) == below
                assert d.density(x) == 0.0
            assert d.cdf(np.array([-1e308, 0.5, 1e308]))[[0, 2]].tolist() \
                == [0.0, 1.0]


def test_traced_evaluators_live_in_their_class_bodies():
    # the traced benchmark pass (`perfbench/run.py --trace 1`) wraps
    # these methods through `cls.__dict__[attr]`
    for attr in ("cdf", "density", "quantile"):
        assert callable(NoncentralT1.__dict__.get(attr)), attr
    for cls in (Normal, NormalMixture, Empirical):
        assert callable(cls.__dict__.get("quantile")), cls.__name__
