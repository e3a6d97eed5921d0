import numpy as np
import pytest

from stochord import (DomainError, Normal, Scenario, SeedSpec,
                      asymptotic_law_experiment, builtin_scenarios,
                      gamma_index, run_table, run_table1_cell)


def test_builtin_scenarios_complete():
    sc = builtin_scenarios()
    assert set(sc) == {f"case{i}-{v}" for i in (1, 2, 3, 4)
                       for v in ("t", "mix")}
    targets = {1: 0.02, 2: 0.05, 3: 0.10, 4: 0.20}
    for name, s in sc.items():
        case = int(name[4])
        assert s.nominal_gamma == targets[case]
        assert s.name == name


def test_nominal_gamma_spot_checks():
    # the full sweep over all eight runs in the acceptance suite
    sc = builtin_scenarios()
    for name, target in (("case1-t", 0.02), ("case4-mix", 0.20)):
        assert abs(gamma_index(sc[name].F, sc[name].G) - target) < 4e-4


def test_nominal_gamma_identical_pair_is_zero():
    s = Scenario(name="null", F=Normal(0, 1), G=Normal(0, 1),
                 nominal_gamma=0.0)
    assert gamma_index(s.F, s.G) == 0.0


def test_cell_thread_count_invariance():
    s = builtin_scenarios()["case1-t"]
    seq = run_table1_cell(s, 0.05, n=60, reps=12, B=40, seed=SeedSpec(1),
                          threads=1)
    par = run_table1_cell(s, 0.05, n=60, reps=12, B=40, seed=SeedSpec(1),
                          threads=4)
    assert seq.rejections == par.rejections
    assert seq.proportion == par.proportion
    assert seq.to_json() == par.to_json()


@pytest.mark.parametrize("cores, workers", [(2, 2), (64, 3), (None, 1)])
def test_cell_pool_is_capped_by_replicates_and_cores(monkeypatch, cores,
                                                     workers):
    import concurrent.futures

    from stochord import rng
    asked = []

    class InlinePool:
        """Records max_workers and runs the work in the calling thread,
        so no thread is ever started."""

        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    s = builtin_scenarios()["case2-mix"]
    ref = run_table1_cell(s, 0.05, n=30, reps=3, B=20, seed=SeedSpec(2))
    # rng.map_blocks imports the pool class when it runs
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", InlinePool)
    monkeypatch.setattr(rng.os, "cpu_count", lambda: cores)
    res = run_table1_cell(s, 0.05, n=30, reps=3, B=20, seed=SeedSpec(2),
                          threads=10**6)
    assert asked == [workers]
    assert res == ref


def test_cell_mc_se_and_bounds():
    s = builtin_scenarios()["case2-mix"]
    r = run_table1_cell(s, 0.10, n=50, reps=25, B=50, seed=SeedSpec(2))
    assert 0.0 <= r.proportion <= 1.0
    p = r.proportion
    assert r.mc_se == pytest.approx(np.sqrt(p * (1 - p) / 25))
    assert r.rejections == round(p * 25)


def test_cell_rejects_bad_reps():
    s = builtin_scenarios()["case1-t"]
    with pytest.raises(DomainError):
        run_table1_cell(s, 0.05, n=50, reps=0, B=40, seed=0)


def test_rejection_monotone_in_threshold():
    # with a shared seed the per-replicate decision U < gamma0 is
    # monotone in gamma0, so proportions are exactly ordered
    s = builtin_scenarios()["case1-t"]
    props = [run_table1_cell(s, g0, n=80, reps=30, B=60,
                             seed=SeedSpec(3)).proportion
             for g0 in (0.02, 0.10, 0.40)]
    assert props[0] <= props[1] <= props[2]


def test_run_table_orders_cells_and_streams():
    sc = builtin_scenarios()
    cells = [(sc["case1-t"], 0.05, 40), (sc["case1-t"], 0.05, 40),
             (sc["case2-t"], 0.05, 40)]
    out = run_table(cells, reps=10, B=40, seed=SeedSpec(4))
    assert [r.scenario for r in out] == ["case1-t", "case1-t", "case2-t"]
    # identical cells get distinct per-cell streams by position
    assert out[0].seed != out[1].seed


def test_experiment_result_json_timing_optional():
    s = builtin_scenarios()["case1-t"]
    r = run_table1_cell(s, 0.05, n=40, reps=5, B=30, seed=SeedSpec(5))
    assert "wall_clock_seconds" not in r.to_json()


def test_asymptotic_law_deterministic_and_centered():
    F, G = Normal(0, 1), Normal(0, 2)
    a, var_a = asymptotic_law_experiment(F, G, 500, 40, SeedSpec(6))
    b, var_b = asymptotic_law_experiment(F, G, 500, 40, SeedSpec(6))
    assert np.array_equal(a, b)
    assert var_a == var_b == pytest.approx(0.625, abs=1e-12)
    assert abs(a.mean()) < 4 * np.sqrt(0.625 / 40)


def test_asymptotic_law_dominance_pair_degenerates():
    draws, ref_var = asymptotic_law_experiment(Normal(0, 1), Normal(3, 1),
                                               400, 50, SeedSpec(7))
    assert ref_var == 0.0
    assert np.all(draws >= 0.0)
    assert np.mean(draws == 0.0) > 0.8


def test_asymptotic_law_unequal_sizes():
    F, G = Normal(0, 1), Normal(0, 2)
    draws, ref_var = asymptotic_law_experiment(F, G, 300, 30, SeedSpec(8),
                                               m=600)
    assert ref_var > 0.0
    assert draws.shape == (30,)
