"""The sorted-merge kernel behind every empirical-pair statistic.

rho, pi and epsilon of two `Empirical` models, the plug-in gamma and
the bootstrap all come from one kernel layer in `stochord.indices`.
These properties hold it, bit for bit, to the reference
implementations in `reference_indices` (the earlier per-statistic
code), and the exact gamma to the correctly rounded rational.
"""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochord import (Empirical, GridSpec, as_seed, bootstrap_sd,
                      epsilon_index, gamma_plugin, pi_index, rho_index,
                      vartheta_index)
from stochord import indices, inference

from reference_indices import (epsilon_reference, gamma_fraction,
                               gamma_reference, pi_reference, rho_reference)

# |values| <= 1e300 keeps every width and sum in epsilon finite
finite = st.floats(min_value=-1e300, max_value=1e300, allow_nan=False)


@st.composite
def sample_pairs(draw, n=None, m=None):
    """Two samples of sizes n and m (drawn from 1..60 when not given,
    often equal), often heavily tied: drawn from a small pool that may
    hold both zeros."""
    n = draw(st.integers(1, 60)) if n is None else n
    if m is None:
        m = draw(st.one_of(st.just(n), st.integers(1, 60)))
    if draw(st.booleans()):
        pool = draw(st.lists(finite, min_size=1, max_size=4))
        pool += draw(st.sampled_from([[], [0.0, -0.0], [-0.0]]))
        elements = st.sampled_from(pool)
    else:
        elements = finite
    xs = draw(st.lists(elements, min_size=n, max_size=n))
    ys = draw(st.lists(elements, min_size=m, max_size=m))
    return np.array(xs), np.array(ys)


@st.composite
def batches(draw):
    """1..6 sample pairs that share their sizes n and m."""
    n, m = draw(st.integers(1, 60)), draw(st.integers(1, 60))
    return draw(st.lists(sample_pairs(n, m), min_size=1, max_size=6))


# strictly increasing maps; a map applies to a pair only where it keeps
# the pair's distinct values distinct and finite
TRANSFORMS = (lambda v: 2.0 * v + 1.0, np.exp, np.cbrt)


def order_preserving_images(xs, ys):
    u = np.unique(np.concatenate((xs, ys)))
    for T in TRANSFORMS:
        with np.errstate(over="ignore"):
            tu = T(u)
        if np.all(np.isfinite(tu)) and np.all(np.diff(tu) > 0.0):
            yield T(xs), T(ys)


def same(a, b) -> bool:
    """Equal as doubles, sign of zero included, or both None."""
    if a is None or b is None:
        return a is b
    return np.float64(a).tobytes() == np.float64(b).tobytes()


@settings(max_examples=400, deadline=None)
@given(sample_pairs())
def test_rho_pi_epsilon_match_references(pair):
    xs, ys = pair
    F, G = Empirical(xs), Empirical(ys)
    rho, pi = rho_index(F, G), pi_index(F, G)
    assert same(rho, rho_reference(xs, ys))
    assert same(pi, pi_reference(xs, ys))
    assert same(vartheta_index(F, G), 1.0 - pi_reference(ys, xs))
    assert same(epsilon_index(F, G), epsilon_reference(xs, ys))
    for tx, ty in order_preserving_images(xs, ys):
        assert same(rho_index(Empirical(tx), Empirical(ty)), rho)
        assert same(pi_index(Empirical(tx), Empirical(ty)), pi)


@settings(max_examples=400, deadline=None)
@given(sample_pairs())
def test_exact_gamma_is_the_rounded_rational(pair):
    xs, ys = pair
    gamma = gamma_plugin(xs, ys)
    assert same(gamma, float(gamma_fraction(xs, ys)))
    if xs.size == ys.size:
        assert same(gamma, gamma_reference(xs, ys))
    for tx, ty in order_preserving_images(xs, ys):
        assert same(gamma_plugin(tx, ty), gamma)


@settings(max_examples=200, deadline=None)
@given(sample_pairs(), st.integers(3, 40))
def test_grid_gamma_matches_reference(pair, points):
    xs, ys = pair
    grid = GridSpec(points)
    ref = gamma_reference(xs, ys, grid)
    assert same(gamma_plugin(xs, ys, grid), ref)
    xo, yo = np.sort(xs), np.sort(ys)
    assert same(indices._sorted_index("gamma", xo, yo, grid), ref)


@settings(max_examples=100, deadline=None)
@given(batches(), st.integers(1, 3))
def test_batched_rows_match_single_rows(pairs, chunk_rows):
    # the rows stacked on the batch axis and cut into chunks of
    # chunk_rows rows give each row's own value
    xo = np.sort([x for x, _ in pairs], axis=1)
    yo = np.sort([y for _, y in pairs], axis=1)
    grid = GridSpec(7)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(indices, "_CHUNK_ELEMENTS",
                   chunk_rows * (xo.shape[1] + yo.shape[1]))
        rho = indices._sorted_index("rho", xo, yo)
        pi = indices._sorted_index("pi", xo, yo)
        gamma = indices._sorted_index("gamma", xo, yo)
        grid_gamma = indices._sorted_index("gamma", xo, yo, grid)
    for row, (x, y) in enumerate(pairs):
        assert same(rho[row], rho_reference(x, y))
        assert same(pi[row], pi_reference(x, y))
        assert same(gamma[row], gamma_plugin(x, y))
        assert same(grid_gamma[row], gamma_reference(x, y, grid))


def _bootstrap_loop(xs, ys, kind, B, grid, seed):
    """bootstrap_sd one replicate at a time: the same draws, of values
    rather than rank codes, each replicate's statistic from the reference
    implementations (the exact gamma of unequal sizes as the rounded
    rational)."""
    rng = as_seed(seed).generator()
    n, m = xs.size, ys.size
    bx = xs[rng.integers(0, n, size=(B, n))]
    by = ys[rng.integers(0, m, size=(B, m))]
    if kind == "gamma" and grid is None and n != m:
        def stat(a, b):
            return float(gamma_fraction(a, b))
    else:
        stat = {"rho": rho_reference, "pi": pi_reference,
                "gamma": lambda a, b: gamma_reference(a, b, grid)}[kind]
    return float(np.std([stat(bx[b], by[b]) for b in range(B)], ddof=1))


@settings(max_examples=300, deadline=None)
@given(sample_pairs(), st.sampled_from(["gamma", "rho", "pi"]),
       st.one_of(st.none(), st.integers(3, 40).map(GridSpec)),
       st.integers(2, 8), st.integers(0, 2**32 - 1))
def test_bootstrap_matches_replicate_loop_property(pair, kind, grid, B, seed):
    xs, ys = pair
    grid = grid if kind == "gamma" else None
    assert same(bootstrap_sd(xs, ys, kind, B, grid, seed=seed),
                _bootstrap_loop(xs, ys, kind, B, grid, seed))


@pytest.mark.parametrize("kind, n, m, grid", [
    ("gamma", 300, 300, None),
    ("gamma", 300, 170, GridSpec(101)),
    ("rho", 300, 170, None),
    ("pi", 300, 170, None),
    ("pi", 40, 40, None),
])
def test_bootstrap_matches_replicate_loop(kind, n, m, grid):
    rng = np.random.default_rng(11)
    xs = rng.normal(size=n)
    # rounded values give ties within and across the samples
    ys = np.round(rng.normal(0.3, 1.4, size=m), 1)
    B = 250     # several row chunks at n + m = 470 and 600
    got = bootstrap_sd(xs, ys, kind, B, grid, seed=5)
    assert same(got, _bootstrap_loop(xs, ys, kind, B, grid, 5))


@pytest.mark.parametrize("kind", ["gamma", "pi"])
def test_bootstrap_over_2_15_distinct_values_uses_int32_codes(kind):
    rng = np.random.default_rng(14)
    xs, ys = rng.normal(size=20000), rng.normal(0.1, 1.2, size=20000)
    seen = []

    def spy(kind, xo, yo, grid=None):
        seen.append((xo.dtype, yo.dtype))
        return indices._sorted_index(kind, xo, yo, grid)

    # 60 x 20000 indices a side: blocks of 52 and 8 resamples
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(inference, "_sorted_index", spy)
        got = bootstrap_sd(xs, ys, kind, 60, seed=8)
    assert seen == [(np.int32, np.int32)]
    assert same(got, _bootstrap_loop(xs, ys, kind, 60, None, 8))


@pytest.mark.parametrize("kind", ["gamma", "rho", "pi"])
def test_bootstrap_blocks_keep_the_one_shot_draws(kind):
    # B n and B m above 2**20: x's indices come in blocks of 699 and 301
    # resamples, y's in 953 and 47.  The reference draws each sample's
    # values at once and takes the kernel on its sorted rows (a loop
    # over the exact gamma of unequal sizes takes half a minute).
    rng = np.random.default_rng(15)
    n, m, B = 1500, 1100, 1000
    xs, ys = rng.normal(size=n), np.round(rng.normal(0.3, 1.4, size=m), 1)
    assert B * min(n, m) > inference._DRAW_INDICES
    gen = as_seed(9).generator()
    bx = np.sort(xs[gen.integers(0, n, size=(B, n))], axis=1)
    by = np.sort(ys[gen.integers(0, m, size=(B, m))], axis=1)
    one_shot = float(np.std(indices._sorted_index(kind, bx, by), ddof=1))
    assert same(bootstrap_sd(xs, ys, kind, B, seed=9), one_shot)


def test_bootstrap_exact_gamma_unequal_sizes_matches_plugin_loop():
    rng = np.random.default_rng(12)
    xs, ys = rng.normal(size=90), rng.normal(0.3, 1.4, size=61)
    B = 200
    gen = as_seed(3).generator()
    bx = xs[gen.integers(0, 90, size=(B, 90))]
    by = ys[gen.integers(0, 61, size=(B, 61))]
    loop = np.std([gamma_plugin(bx[b], by[b]) for b in range(B)], ddof=1)
    assert same(bootstrap_sd(xs, ys, "gamma", B, seed=3), float(loop))


def test_bootstrap_memory_is_bounded_by_the_resamples():
    # the resamples are int16 rank codes, 2 B (n + m) bytes, and their
    # int64 indices are drawn in blocks of 8 MiB; the kernel runs over
    # row chunks, so its temporaries add little.  Four times the
    # resamples add only their codes: the peak is flat in B beyond them.
    rng = np.random.default_rng(13)
    n = 2000
    xs, ys = rng.normal(size=n), rng.normal(0.2, 1.1, size=n)
    peaks = {}
    for B in (1000, 4000):
        tracemalloc.start()
        try:
            bootstrap_sd(xs, ys, "pi", B, seed=1)
            peaks[B] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    codes = 1000 * (n + n) * 2
    assert peaks[1000] <= codes + 8 * 2**20 + 2**20, peaks
    assert abs(peaks[4000] - peaks[1000] - 3 * codes) <= 0.05 * 3 * codes, \
        peaks
