"""The block replicate runner against the one-replicate-at-a-time loops.

Every driven loop must give the values of its reference loop in
`reference_replicates` bit for bit, at any block size and thread count:
one replicate per block, a replicate count that is not a multiple of the
block rows, and one or two pool threads.
"""
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_replicates import (occupation_reference, plugin_reference,
                                  sample_reference, table1_cell_reference)
from stochord import (DomainError, Empirical, NoncentralT1, Normal,
                      NormalMixture, SeedSpec, SubsetSpec,
                      asymptotic_law_experiment, bridge_path,
                      builtin_scenarios, find_crossings, make_gamma_set_pair,
                      nonconsistency_demo, occupation_experiment,
                      occupation_positive, run_table1_cell)
from stochord import rng
from stochord.inference import _plugin_replicates, gamma_plugin

MIXTURE = NormalMixture([(0.03, -4.0, 1.0), (0.97, 1.0, 1.0)])
F_SHIFT, G_SHIFT, GAMMA_SHIFT, AGREEMENT = make_gamma_set_pair()


def set_rows(monkeypatch, rows, width):
    """Blocks of ``rows`` replicates of ``width`` doubles each."""
    monkeypatch.setattr(rng, "BLOCK_DOUBLES", rows * width)
    assert rng.block_rows(width) == rows


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("rows", [1, 3, 10, 25])
def test_map_blocks_keeps_replicate_order(rows, threads):
    seen = []

    def fill(lo, hi):
        seen.append((lo, hi))
        return np.arange(lo, hi)

    out = rng.map_blocks(fill, 10, rows, threads)
    assert out.tolist() == list(range(10))
    assert sorted(seen) == [(lo, min(lo + rows, 10))
                            for lo in range(0, 10, rows)]


def test_map_blocks_runs_each_block_once_under_contention(monkeypatch):
    # more workers than cores, switching threads every microsecond: a
    # block that two workers took, or none, shows in `seen` or the values
    monkeypatch.setattr(rng.os, "cpu_count", lambda: 16)
    seen = []

    def fill(lo, hi):
        seen.append(lo)
        return np.arange(lo, hi)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        out = rng.map_blocks(fill, 2000, 3, 8)
    finally:
        sys.setswitchinterval(interval)
    assert out.tolist() == list(range(2000))
    assert sorted(seen) == list(range(0, 2000, 3))


@pytest.mark.parametrize("count, rows, threads",
                         [(0, 1, 1), (5, 0, 1), (5, 1, 0)])
def test_map_blocks_rejects_empty_sizes(count, rows, threads):
    with pytest.raises(DomainError):
        rng.map_blocks(lambda lo, hi: np.zeros(hi - lo), count, rows, threads)


def test_map_blocks_raises_a_fill_error():
    def fill(lo, hi):
        if lo == 4:
            raise DomainError("block 4")
        return np.zeros(hi - lo)

    with pytest.raises(DomainError, match="block 4"):
        rng.map_blocks(fill, 10, 2, 2)


# masters up to 2**64, plus ones of more 32-bit words than the pool's four
MASTERS = st.one_of(st.integers(0, 2**64), st.integers(2**128, 2**200))
# path entries are one 32-bit word each
ENTRIES = st.integers(0, 2**32 - 1)


@settings(max_examples=300, deadline=None)
@given(MASTERS, st.integers(0, 3).flatmap(
    lambda p: st.lists(st.tuples(*[ENTRIES] * p), min_size=1, max_size=5)))
def test_stream_keys_match_seed_sequence(master, paths):
    keys = rng.stream_keys(master, np.array(paths, dtype=np.int64))
    assert keys.dtype == np.uint64 and keys.shape == (len(paths), 2)
    for key, path in zip(keys, paths):
        seq = np.random.SeedSequence(master, spawn_key=path)
        assert key.tolist() == seq.generate_state(2, np.uint64).tolist()


@pytest.mark.parametrize("path", [(), (2**31, 3), (2**32 - 1, 3)])
def test_child_keys_match_children(path):
    seed = SeedSpec(11, path)
    keys = seed.child_keys(7, 1, 2**32 - 1)
    for r, key in enumerate(keys):
        child = seed.child(r, 1, 2**32 - 1)
        seq = np.random.SeedSequence(11, spawn_key=child.path)
        assert key.tolist() == seq.generate_state(2, np.uint64).tolist()


DRAWS = {
    "standard_normal": (float, lambda g, out: g.standard_normal(out=out)),
    "random": (float, lambda g, out: g.random(out=out)),
    # full-range uint32 draws take one 32-bit half each: an odd row leaves
    # a spare half buffered, which the next row must not see
    "integers": (np.int64, lambda g, out: out.__setitem__(
        slice(None), g.integers(0, 2**32, size=out.size, dtype=np.uint32))),
}


@pytest.mark.parametrize("name", list(DRAWS))
def test_rekeyed_rows_match_one_generator_each(name):
    dtype, draw = DRAWS[name]
    seed = SeedSpec(9, (4,))
    got = rng.draw_rows(seed.child_keys(4), (5,), draw, dtype)
    for r, row in enumerate(got):
        out = np.empty(5, dtype=dtype)
        draw(seed.child(r).generator(), out)
        assert row.tolist() == out.tolist()


@pytest.mark.parametrize("make", [
    lambda: rng.SeedSpec(-1), lambda: rng.SeedSpec(True),
    lambda: rng.SeedSpec(1.0), lambda: rng.SeedSpec(1, (-1,)),
    lambda: rng.as_seed(1.5), lambda: rng.as_seed(-1),
    lambda: rng.as_seed(np.float64(2.0)), lambda: rng.as_seed("3"),
    # path entries are one 32-bit word
    lambda: rng.SeedSpec(1, (2**32,)),
    lambda: rng.SeedSpec(1).child_keys(3, 2**32),
    lambda: rng.stream_keys(1, np.array([[0, 2**32]])),
], ids=["negative", "bool", "float", "negative-path", "as-float",
        "as-negative", "as-numpy-float", "as-str", "two-word-path",
        "two-word-child-keys", "two-word-stream-keys"])
def test_bad_seeds_raise_domain_error(make):
    with pytest.raises(DomainError):
        make()


def test_as_seed_takes_integers():
    assert rng.as_seed(np.int64(3)) == rng.SeedSpec(3)
    assert rng.as_seed(None) == rng.SeedSpec(0)


@pytest.mark.parametrize("model", [
    Normal(1.0, 2.0), NoncentralT1(0.5), MIXTURE, Empirical([3.0, 1.0, 2.0]),
    F_SHIFT, G_SHIFT],
    ids=["normal", "t1", "mixture", "empirical", "uniform", "shifted"])
def test_sample_rows_match_one_seed_each(model):
    seed = SeedSpec(5, (2,))
    seeds = [seed.child(r) for r in range(4)]
    block = model.sample(300, seed.child_keys(4))
    assert block.shape == (4, 300)
    for row, s in zip(block, seeds):
        assert np.array_equal(row, sample_reference(model, 300, s))
        assert np.array_equal(row, model.sample(300, s))


def test_bridge_path_rows_match_one_seed_each():
    seed = SeedSpec(6)
    seeds = [seed.child(i) for i in range(5)]
    block = bridge_path(128, seed.child_keys(5))
    assert block.shape == (5, 129)
    subset = SubsetSpec(((0.1, 0.4), (0.5, 0.9)))
    occ = occupation_positive(block, subset)
    for i, s in enumerate(seeds):
        one = bridge_path(128, s)
        assert np.array_equal(block[i], one)
        assert occ[i] == occupation_positive(one, subset)


def test_gamma_plugin_rows_match_pairs():
    rs = np.random.default_rng(3)
    xs, ys = rs.normal(size=(4, 30)), rs.normal(0.2, 1.3, size=(4, 20))
    got = gamma_plugin(xs, ys)
    assert got.tolist() == [gamma_plugin(x, y) for x, y in zip(xs, ys)]
    with pytest.raises(DomainError, match="same rows"):
        gamma_plugin(xs, ys[:3])
    bad = xs.copy()
    bad[2, 5] = np.nan
    with pytest.raises(DomainError, match="non-finite"):
        gamma_plugin(bad, ys)
    with pytest.raises(DomainError):
        gamma_plugin(xs[None], ys[None])


EDGES = [(1, 1), (3, 1), (3, 2), (4, 2)]


@pytest.mark.parametrize("rows, threads", EDGES)
def test_occupation_matches_reference(monkeypatch, rows, threads):
    seed, subset = SeedSpec(1), SubsetSpec(((0.25, 0.75),))
    ref = occupation_reference(10, 64, subset, seed)
    set_rows(monkeypatch, rows, 65)
    got = occupation_experiment(10, 64, subset, seed, threads)
    assert np.array_equal(got, ref)


@pytest.mark.parametrize("F, G", [(F_SHIFT, G_SHIFT), (Normal(0, 1.5), MIXTURE),
                                  (NoncentralT1(0.5), Normal(13.13, 10.0))],
                         ids=["shift", "mixture", "t1"])
@pytest.mark.parametrize("rows, threads", EDGES)
def test_plugin_replicates_match_reference(monkeypatch, F, G, rows, threads):
    seed = SeedSpec(2, (4,))
    ref = plugin_reference(F, G, 40, 30, 10, seed)
    set_rows(monkeypatch, rows, 70)
    got = _plugin_replicates(F, G, 40, 30, 10, seed, threads)
    assert np.array_equal(got, ref)


@pytest.mark.parametrize("rows, threads", EDGES)
def test_nonconsistency_demo_matches_reference(monkeypatch, rows, threads):
    seed = SeedSpec(3)
    errors = plugin_reference(F_SHIFT, G_SHIFT, 50, 50, 10, seed) - GAMMA_SHIFT
    set_rows(monkeypatch, rows, 100)
    got = nonconsistency_demo(n=50, reps=10, seed=seed, threads=threads)
    counts, edges = np.histogram(
        errors, bins=40, range=(min(-0.05, errors.min()),
                                max(AGREEMENT.length + 0.05, errors.max())))
    assert got["mean"] == float(errors.mean())
    assert got["sd"] == float(errors.std(ddof=1))
    assert got["histogram"] == {"edges": edges.tolist(),
                                "counts": counts.tolist()}


@pytest.mark.parametrize("rows, threads", EDGES)
def test_asymptotic_law_matches_reference(monkeypatch, rows, threads):
    F, G, seed = Normal(0, 1), Normal(0, 2), SeedSpec(4)
    _, gamma = find_crossings(F, G, 0.5, min_rel_gap=1e-3)
    ref = np.sqrt(40 * 40 / 80) * (
        plugin_reference(F, G, 40, 40, 10, seed) - gamma)
    set_rows(monkeypatch, rows, 80)
    draws, _ = asymptotic_law_experiment(F, G, 40, 10, seed, threads=threads)
    assert np.array_equal(draws, ref)


@pytest.mark.parametrize("threads", [1, 2])
def test_table1_cell_matches_reference(threads):
    s = builtin_scenarios()["case2-t"]
    ref = table1_cell_reference(s, 0.05, 40, 5, 30, 0.05, SeedSpec(5))
    assert run_table1_cell(s, 0.05, 40, 5, 30, seed=SeedSpec(5),
                           threads=threads) == ref


def _occupation_peak(paths, threads):
    tracemalloc.start()
    try:
        occupation_experiment(paths, 2048, None, SeedSpec(7), threads)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_occupation_memory_is_flat_in_paths():
    # blocks of rows bound the memory: 4x the paths, about the same peak
    # (one worker, so the peak does not depend on how the workers overlap)
    occupation_experiment(100, 2048, None, SeedSpec(7), threads=2)
    small, large = _occupation_peak(2000, 1), _occupation_peak(8000, 1)
    assert large < 1.1 * small, (small, large)
    # each worker holds a handful of block matrices of 2**17 doubles
    assert _occupation_peak(2000, 2) < 16 * 2**20
