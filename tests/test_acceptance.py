"""Acceptance suite: the package's headline guarantees, one test per
criterion, each printing a single pass/fail line with the measured
numbers.  Tolerances and scales are part of the contract; do not loosen
them to make a failing run pass.
"""
import json
import time

import numpy as np
import pytest
from scipy import stats

from stochord import (Empirical, GridSpec, Normal, NormalMixture, SeedSpec,
                      asymptotic_law_experiment, bridge_path,
                      builtin_scenarios, epsilon_index, find_crossings,
                      galton_test, gamma_index, gamma_limit_variance,
                      gamma_plugin, nonconsistency_demo, occupation_positive,
                      optimal_copula_eval, pi_index, rearranged_quantile,
                      rho_index, run_table, vartheta_index)
from stochord.cli import main


def report(num, label, ok, detail):
    print(f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_analytic_index_values():
    start = time.perf_counter()
    F = Normal(100, 10)
    G1, G2 = Normal(116, 20), Normal(105, 20)
    vals = {
        "gamma1": (gamma_index(F, G1), 0.05, 0.005),
        "gamma2": (gamma_index(F, G2), 0.30, 0.01),
        "rho1": (rho_index(F, G1), 0.24, 0.005),
        "rho2": (rho_index(F, G2), 0.41, 0.005),
        "pi1": (pi_index(F, G1), 0.015, 0.002),
        "pi2": (pi_index(F, G2), 0.09, 0.005),
    }
    wall = time.perf_counter() - start
    ok = all(abs(got - ref) <= tol for got, ref, tol in vals.values())
    ok = ok and wall < 6 * 1.0  # < 1 s per value
    detail = ", ".join(f"{k}={got:.6f} (ref {ref})"
                       for k, (got, ref, tol) in vals.items())
    report(1, "analytic index values", ok, f"{detail}, wall {wall:.2f}s")


def test_criterion_02_nominal_gamma_cases():
    start = time.perf_counter()
    devs = {}
    for name, sc in builtin_scenarios().items():
        got = gamma_index(sc.F, sc.G)
        devs[name] = abs(got - sc.nominal_gamma)
    wall = time.perf_counter() - start
    worst = max(devs.values())
    ok = worst <= 4e-4 and wall < 10.0
    report(2, "nominal gamma of built-in cases", ok,
           f"worst dev {worst:.2e} (tol 4e-4), wall {wall:.1f}s")


def test_criterion_03_galton_exact_and_uniform():
    start = time.perf_counter()
    ys = np.arange(15.0)
    xs = np.array([i + 0.5 if i < 2 else i - 0.5 for i in range(15)])
    res = galton_test(xs, ys)
    exact_ok = res.count == 2 and res.p_value == 3.0 / 16.0

    rng = np.random.default_rng(303)
    n, reps = 8, 20000
    a = np.sort(rng.normal(size=(reps, n)), axis=1)
    b = np.sort(rng.normal(size=(reps, n)), axis=1)
    freq = np.bincount(np.sum(a > b, axis=1), minlength=n + 1) / reps
    p = 1.0 / (n + 1)
    band = 4.0 * np.sqrt(p * (1 - p) / reps)
    worst = np.max(np.abs(freq - p))
    wall = time.perf_counter() - start
    ok = exact_ok and worst < band and wall < 30.0
    report(3, "galton exact p and uniformity", ok,
           f"p={res.p_value} (ref 3/16), worst freq dev {worst:.5f} "
           f"(band {band:.5f}), wall {wall:.1f}s")


def test_criterion_04_levy_arcsine_law():
    start = time.perf_counter()
    seed = SeedSpec(0, (4,))
    occ = np.array([occupation_positive(bridge_path(2048, seed.child(i)))
                    for i in range(10000)])
    ks = stats.kstest(occ, "uniform").statistic
    wall = time.perf_counter() - start
    ok = ks < 0.02 and wall < 30.0
    report(4, "arc-sine occupation law", ok,
           f"KS {ks:.4f} over 10000 paths (tol 0.02), wall {wall:.1f}s")


def test_criterion_05_minimal_coupling_and_copula():
    start = time.perf_counter()
    rng = np.random.default_rng(505)

    def rand_model():
        if rng.random() < 0.5:
            return Normal(rng.uniform(-3, 3), rng.uniform(0.3, 3.0))
        k = int(rng.integers(2, 4))
        w = rng.dirichlet(np.ones(k))
        return NormalMixture([
            (float(w[i]), float(rng.uniform(-4, 4)),
             float(rng.uniform(0.3, 2.5))) for i in range(k)])

    grid = GridSpec(1001)
    ts = grid.interior()
    worst = 0.0
    pairs = 0
    while pairs < 50:
        F, G = rand_model(), rand_model()
        pi0 = pi_index(F, G)
        if pi0 >= 1.0 - 1e-9:
            continue
        pairs += 1
        meas = float(np.mean(np.asarray(F.quantile(ts))
                             > rearranged_quantile(G, pi0, ts)))
        worst = max(worst, abs(meas - pi0))
    coupling_ok = worst <= 2 / 1001

    violations = 0
    for pi0 in rng.uniform(0.0, 0.9, 10):
        a = rng.uniform(0, 1, (1000, 2))
        b = rng.uniform(0, 1, (1000, 2))
        x1, x2 = np.minimum(a[:, 0], b[:, 0]), np.maximum(a[:, 0], b[:, 0])
        y1, y2 = np.minimum(a[:, 1], b[:, 1]), np.maximum(a[:, 1], b[:, 1])
        vol = (optimal_copula_eval(pi0, x2, y2)
               - optimal_copula_eval(pi0, x1, y2)
               - optimal_copula_eval(pi0, x2, y1)
               + optimal_copula_eval(pi0, x1, y1))
        violations += int(np.sum(vol < -1e-12))
    wall = time.perf_counter() - start
    ok = coupling_ok and violations == 0
    report(5, "minimal-coupling identity and copula", ok,
           f"worst |measure-pi| {worst:.2e} (tol {2/1001:.2e}), "
           f"rectangle violations {violations}/10000, wall {wall:.1f}s")


def test_criterion_06_two_sample_limit_law():
    start = time.perf_counter()
    F, G = Normal(0, 1), Normal(0, 2)
    cross, _ = find_crossings(F, G, lam=0.5)
    var_closed = gamma_limit_variance(cross)
    draws, ref_var = asymptotic_law_experiment(F, G, 5000, 2000, SeedSpec(0))
    ks = stats.kstest(draws, "norm", args=(0.0, np.sqrt(0.625))).statistic
    wall = time.perf_counter() - start
    ok = (abs(var_closed - 0.625) < 1e-12 and abs(ref_var - 0.625) < 1e-12
          and ks < 0.05 and wall < 600.0)
    report(6, "two-sample limit law", ok,
           f"variance {var_closed} (ref 0.625), KS {ks:.4f} (tol 0.05), "
           f"wall {wall:.1f}s")


# reference rejection proportions at full fidelity (reps=1000, B=1000)
# for the chosen (scenario, gamma0) columns at n = 100 and n = 1000;
# desk-scale runs must land within 0.08 of these
REFERENCE_PROPORTIONS = {
    ("case1-t", 0.05, 100): 0.142, ("case1-t", 0.05, 1000): 0.361,
    ("case2-t", 0.05, 100): 0.131, ("case2-t", 0.05, 1000): 0.172,
    ("case3-t", 0.10, 100): 0.033, ("case3-t", 0.10, 1000): 0.060,
    ("case4-t", 0.20, 100): 0.099, ("case4-t", 0.20, 1000): 0.197,
    ("case1-mix", 0.05, 100): 0.240, ("case1-mix", 0.05, 1000): 0.806,
    ("case2-mix", 0.10, 100): 0.327, ("case2-mix", 0.10, 1000): 0.819,
    ("case3-mix", 0.10, 100): 0.097, ("case3-mix", 0.10, 1000): 0.074,
    ("case4-mix", 0.02, 100): 0.000, ("case4-mix", 0.02, 1000): 0.000,
}


def test_criterion_07_power_table_desk_scale():
    start = time.perf_counter()
    sc = builtin_scenarios()
    cells = [(sc[name], g0, n) for (name, g0, n) in REFERENCE_PROPORTIONS]
    results = run_table(cells, reps=200, B=200, alpha=0.05,
                        seed=SeedSpec(0), threads=4)
    devs = {(r.scenario, r.gamma0, r.n):
            abs(r.proportion
                - REFERENCE_PROPORTIONS[(r.scenario, r.gamma0, r.n)])
            for r in results}
    wall = time.perf_counter() - start
    worst_key = max(devs, key=devs.get)
    ok = max(devs.values()) <= 0.08 and wall < 1800.0
    report(7, "power table desk scale", ok,
           f"16 cells, worst dev {devs[worst_key]:.3f} at {worst_key} "
           f"(tol 0.08), wall {wall:.1f}s")


def test_criterion_08_nonconsistency():
    start = time.perf_counter()
    out = nonconsistency_demo(n=10000, reps=2000, seed=SeedSpec(0, (8,)))
    mc_sigma = out["sd"] / np.sqrt(out["reps"])
    dev = abs(out["mean"] - 1.0 / 6.0)
    wall = time.perf_counter() - start
    ok = dev <= 4.0 * mc_sigma and out["sd"] > 0.05
    report(8, "plug-in non-consistency", ok,
           f"mean {out['mean']:.5f} (ref {1/6:.5f}, band {4*mc_sigma:.5f}), "
           f"sd {out['sd']:.4f} (> 0.05), wall {wall:.1f}s")


def test_criterion_09_invariance_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(909)

    # monotone transforms leave the plug-ins bit-identical
    bit_ok = True
    for _ in range(20):
        xs = rng.normal(rng.uniform(-1, 1), rng.uniform(0.5, 2), 35)
        ys = rng.normal(rng.uniform(-1, 1), rng.uniform(0.5, 2), 47)
        F, G = Empirical(xs), Empirical(ys)
        for T in (lambda v: 2.0 * v + 1.0, np.exp):
            TF, TG = Empirical(T(xs)), Empirical(T(ys))
            bit_ok &= gamma_plugin(T(xs), T(ys)) == gamma_plugin(xs, ys)
            bit_ok &= rho_index(TF, TG) == rho_index(F, G)
            bit_ok &= pi_index(TF, TG) == pi_index(F, G)

    # epsilon: affine-invariant, not cubic-invariant
    xs = rng.normal(0.5, 1.0, 80)
    ys = rng.normal(0.8, 1.8, 80)
    base = epsilon_index(Empirical(xs), Empirical(ys))
    aff = epsilon_index(Empirical(2 * xs + 3), Empirical(2 * ys + 3))
    cub = epsilon_index(Empirical(xs ** 3), Empirical(ys ** 3))
    eps_ok = abs(aff - base) < 1e-12 and abs(cub - base) > 0.05

    # ordering chain pi <= gamma, pi <= rho on 200 random pairs, 100
    # empirical and 100 analytic, all exact up to rounding
    chain_ok = True
    for _ in range(100):
        a = rng.normal(rng.uniform(-1, 1), rng.uniform(0.5, 2),
                       rng.integers(20, 60))
        b = rng.normal(rng.uniform(-1, 1), rng.uniform(0.5, 2),
                       rng.integers(20, 60))
        Ea, Eb = Empirical(a), Empirical(b)
        pi_hat = pi_index(Ea, Eb)
        chain_ok &= pi_hat <= gamma_plugin(a, b) + 1e-12
        chain_ok &= pi_hat <= rho_index(Ea, Eb) + 1e-12
    sum_ok = True
    for _ in range(100):
        F = Normal(rng.uniform(-2, 2), rng.uniform(0.4, 2.5))
        G = NormalMixture([(0.5, rng.uniform(-3, 0), rng.uniform(0.4, 2)),
                           (0.5, rng.uniform(0, 3), rng.uniform(0.4, 2))])
        p0 = pi_index(F, G)
        chain_ok &= p0 <= gamma_index(F, G) + 1e-12
        chain_ok &= p0 <= rho_index(F, G) + 1e-12
        sum_ok &= abs(gamma_index(F, G) + gamma_index(G, F) - 1.0) <= 1e-12
    wall = time.perf_counter() - start
    ok = bit_ok and eps_ok and chain_ok and sum_ok and wall < 60.0
    report(9, "invariance suite", ok,
           f"bit-exact {bit_ok}, eps affine/cubic {eps_ok}, "
           f"chain {chain_ok}, complement sum {sum_ok}, wall {wall:.1f}s")


def test_criterion_10_byte_determinism(tmp_path):
    args = ["simulate-table", "--case", "3", "--variant", "t",
            "--gamma0", "0.1", "--n", "60", "--reps", "10", "--B", "50",
            "--seed", "17"]
    runs = {}
    for tag, threads in (("a", "1"), ("b", "4")):
        out = tmp_path / tag
        assert main(args + ["--threads", threads, "--out", str(out)]) == 0
        runs[tag] = out
    same_threads = all(
        (runs["a"] / f).read_bytes() == (runs["b"] / f).read_bytes()
        for f in ("table.json", "table_cells.csv", "table_layout.csv"))

    # re-run from the report's own embedded config
    prov = json.loads((runs["a"] / "table.json").read_text())["provenance"]
    from stochord.cli import CommandConfig, run_command
    from pathlib import Path
    redo = tmp_path / "redo"
    cfg = CommandConfig(subcommand=prov["config"]["subcommand"],
                        out_dir=Path(redo), seed=prov["config"]["seed"],
                        options=prov["config"]["options"])
    assert run_command(cfg) == 0
    rerun_same = all(
        (runs["a"] / f).read_bytes() == (redo / f).read_bytes()
        for f in ("table.json", "table_cells.csv", "table_layout.csv"))
    ok = same_threads and rerun_same
    report(10, "byte-for-byte determinism", ok,
           f"threads 1 vs 4 identical {same_threads}, "
           f"embedded-config rerun identical {rerun_same}")
