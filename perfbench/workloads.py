"""Benchmark workloads: seeded inputs, CLI command sequences, output checks.

Every workload is a list of `Command`s, each one `python -m
stochord.cli` invocation plus a check of the reports it wrote.  A
workload runs its focus commands at full size and then, at probe size,
every other subcommand, so that each subcommand and each traced layer
is measured (and never reads zero) on every workload.

The checks compare values with references and tolerances, never with
recorded bytes, so an intended accuracy fix is not a failure.  Sample
references are computed here from the same CSV files with `np.sort` and
`np.searchsorted`, independently of the package.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

WORKLOADS = ("analytic", "samples", "montecarlo")
PROBE_REPEATS = 2
THREADS = 2             # --threads of every simulate-table run

MODELS = {
    "t1.json": {"kind": "t1", "ncp": 0.5},
    "normal_case2t.json": {"kind": "normal", "mean": 13.13, "sd": 10.0},
    "normal_case2mix.json": {"kind": "normal", "mean": 0.0, "sd": 1.5},
    "mixture_case2.json": {"kind": "mixture", "components": [
        {"w": 0.03, "mean": -4.0, "sd": 1.0},
        {"w": 0.97, "mean": 1.0, "sd": 1.0}]},
}

# file -> (full rows, tiny rows, family); x* ~ N(0, 1), y* ~ N(0.5, 1.2),
# so the quantile curves cross once near t = 0.006 and the grid and
# exact gamma of a pair agree to within a few grid steps
SAMPLES = {
    "x_large.csv": (200_000, 2_000, "x"),
    "y_large.csv": (200_000, 2_000, "y"),
    "x_mid.csv": (5_000, 500, "x"),
    "y_mid.csv": (5_000, 500, "y"),
    "t1_mid.csv": (5_000, 500, "t1"),
    "x_probe.csv": (200, 200, "x"),
    "y_probe.csv": (200, 200, "y"),
}


def write_inputs(directory: Path, seed: int, tiny: bool) -> None:
    """Model descriptors and sample CSVs; the same seed gives the same
    bytes."""
    directory.mkdir(parents=True, exist_ok=True)
    for name, desc in MODELS.items():
        (directory / name).write_text(json.dumps(desc) + "\n")
    for k, (name, (full, small, family)) in enumerate(sorted(SAMPLES.items())):
        rng = np.random.default_rng([seed, k])
        n = small if tiny else full
        if family == "x":
            values = rng.standard_normal(n)
        elif family == "y":
            values = 0.5 + 1.2 * rng.standard_normal(n)
        else:
            z = rng.standard_normal((2, n))
            values = (z[0] + 0.5) / np.abs(z[1])
        (directory / name).write_text(
            "\n".join(map(repr, values.tolist())) + "\n")


@dataclass
class Command:
    label: str                       # unique in the workload; output dir
    argv: list[str]                  # stochord.cli arguments, no --out
    check: Callable[[Path], None]    # raises CheckFailed on a bad report

    @property
    def subcommand(self) -> str:
        return self.argv[0]


class CheckFailed(Exception):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _load(out: Path, name: str) -> dict:
    return json.loads((out / name).read_text())


def _in_unit(value, name: str) -> None:
    _require(value is not None and math.isfinite(value)
             and -1e-12 <= value <= 1.0 + 1e-12, f"{name}={value} not in [0,1]")


class _Pair:
    """Exact references for two samples read from the benchmark's CSVs."""

    def __init__(self, x_path: Path, y_path: Path):
        self.xs = np.loadtxt(x_path, ndmin=1)
        self.ys = np.loadtxt(y_path, ndmin=1)
        self.xo, self.yo = np.sort(self.xs), np.sort(self.ys)

    def galton_count(self) -> int:
        return int(np.sum(self.xo > self.yo))

    def gamma_exact(self) -> float:
        n, m = self.xo.size, self.yo.size
        # measure of {t : xo[ceil(n t)] > yo[ceil(m t)]} over the merged
        # breakpoints of both step quantiles
        breaks = np.union1d(np.arange(1, n + 1) / n, np.arange(1, m + 1) / m)
        left = np.concatenate(([0.0], breaks[:-1]))
        mids = 0.5 * (left + breaks)
        ix = np.clip(np.ceil(n * mids).astype(np.int64), 1, n) - 1
        iy = np.clip(np.ceil(m * mids).astype(np.int64), 1, m) - 1
        return float(np.sum((breaks - left) * (self.xo[ix] > self.yo[iy])))

    def gamma_grid(self, points: int) -> float:
        ts = np.arange(1, points - 1) / (points - 1)
        n, m = self.xo.size, self.yo.size
        ix = np.clip(np.ceil(n * ts).astype(np.int64), 1, n) - 1
        iy = np.clip(np.ceil(m * ts).astype(np.int64), 1, m) - 1
        return float(np.mean(self.xo[ix] > self.yo[iy]))

    def rho(self) -> float:
        below = np.searchsorted(self.yo, self.xs, side="left")
        return float(below.sum() / (self.xs.size * self.ys.size))

    def pi(self) -> float:
        z = np.union1d(self.xo, self.yo)
        n, m = self.xo.size, self.yo.size
        gaps = [np.searchsorted(self.yo, z, side=s) / m
                - np.searchsorted(self.xo, z, side=s) / n
                for s in ("right", "left")]
        return float(max(0.0, gaps[0].max(), gaps[1].max()))


class _References:
    """Lazily built `_Pair` references, one per (x, y) file pair."""

    def __init__(self, inputs: Path):
        self.inputs = inputs
        self._pairs: dict = {}

    def pair(self, x: str, y: str) -> _Pair:
        if (x, y) not in self._pairs:
            self._pairs[x, y] = _Pair(self.inputs / x, self.inputs / y)
        return self._pairs[x, y]


def _close(a: float, b: float, tol: float = 1e-12) -> bool:
    return abs(a - b) <= tol


def check_indices(nominal: float | None = None):
    """Range and ordering checks on an indices report; with ``nominal``
    the gamma must lie within grid error of it."""
    def check(out: Path) -> None:
        rep = _load(out, "indices.json")
        for key in ("gamma", "rho", "pi", "vartheta"):
            _in_unit(rep[key], key)
        if rep["epsilon"] is not None:
            _in_unit(rep["epsilon"], "epsilon")
        slack = 2.0 / (rep["grid"]["points"] - 2) + 1e-9
        _require(rep["pi"] <= rep["gamma"] + slack, "pi > gamma")
        _require(rep["pi"] <= rep["rho"] + slack, "pi > rho")
        if nominal is not None:
            _require(abs(rep["gamma"] - nominal) <= slack + 4e-4,
                     f"gamma {rep['gamma']} not within grid error of {nominal}")
        _require((out / "indices.csv").is_file(), "indices.csv missing")
    return check


def check_empirical_indices(refs: _References, x: str, y: str, grid: int):
    def check(out: Path) -> None:
        check_indices()(out)
        rep, pair = _load(out, "indices.json"), refs.pair(x, y)
        # the grid value today, the exact measure after an accuracy fix
        _require(_close(rep["gamma"], pair.gamma_grid(grid))
                 or _close(rep["gamma"], pair.gamma_exact(), 1e-9),
                 f"gamma {rep['gamma']} matches no reference")
        _require(_close(rep["rho"], pair.rho()), f"rho {rep['rho']}")
        _require(_close(rep["pi"], pair.pi()), f"pi {rep['pi']}")
    return check


def check_galton(refs: _References, x: str, y: str):
    def check(out: Path) -> None:
        rep, pair = _load(out, "galton.json"), refs.pair(x, y)
        n = pair.xs.size
        _require(rep["n"] == n, "galton n")
        _require(rep["count"] == pair.galton_count(),
                 f"galton count {rep['count']} != {pair.galton_count()}")
        _require(_close(rep["p_value"], (rep["count"] + 1) / (n + 1)),
                 "galton p-value")
    return check


def check_test_gamma(refs: _References, x: str, y: str, grid: int | None):
    def check(out: Path) -> None:
        rep, pair = _load(out, "test_gamma.json"), refs.pair(x, y)
        ref = pair.gamma_grid(grid) if grid else pair.gamma_exact()
        _require(_close(rep["estimate"], ref, 1e-9),
                 f"estimate {rep['estimate']} != {ref}")
        sd = rep["bootstrap_sd"]
        _require(math.isfinite(sd) and sd > 0.0, f"bootstrap sd {sd}")
        _require(rep["U"] >= rep["estimate"] >= rep["V"], "bounds order")
        _require(rep["reject"] == (rep["U"] < rep["gamma0"]), "reject flag")
    return check


def check_table(cells: int):
    def check(out: Path) -> None:
        rep = _load(out, "table.json")
        _require(len(rep["cells"]) == cells, "cell count")
        for c in rep["cells"]:
            _require(_close(c["proportion"], c["rejections"] / c["reps"]),
                     "proportion")
            _in_unit(c["proportion"], "proportion")
            _require(math.isfinite(c["mc_se"]), "mc_se")
    return check


def _within_4se(mean: float, sd: float, count: int, target: float,
                name: str) -> None:
    se = sd / math.sqrt(count)
    _require(abs(mean - target) <= 4.0 * se,
             f"{name} mean {mean} not within 4 SE ({se}) of {target}")


def check_occupation(out: Path) -> None:
    rep = _load(out, "bridge_lab.json")
    _within_4se(rep["mean"], rep["sd"], rep["paths"], 0.5, "occupation")


def check_nonconsistency(out: Path) -> None:
    rep = _load(out, "nonconsistency.json")
    _within_4se(rep["mean"], rep["sd"], rep["reps"], 1.0 / 6.0,
                "nonconsistency")


def check_limit_law(out: Path) -> None:
    rep = _load(out, "limit_law.json")
    for key in ("draw_mean", "draw_variance"):
        _require(math.isfinite(rep[key]), f"{key} not finite")
    _require(rep["draw_variance"] > 0.0, "draw variance not positive")
    if rep["index"] == "gamma":
        var = rep["reference_variance"]
        _require(math.isfinite(var) and var > 0.0,
                 f"reference variance {var}")


def build(workload: str, inputs: Path, seed: int, tiny: bool) -> list[Command]:
    """The command sequence of a workload, in run order."""
    refs = _References(inputs)
    s = ["--seed", str(seed)]

    def inp(name: str) -> str:
        return str(inputs / name)

    def size(full, small):
        return str(small if tiny else full)

    t1, nt = inp("t1.json"), inp("normal_case2t.json")
    nm, mix = inp("normal_case2mix.json"), inp("mixture_case2.json")
    grid = 101 if tiny else 1001
    probes = {
        "indices": Command("indices-probe", [
            "indices", "--f", inp("x_probe.csv"), "--g", t1, "--grid", "101",
            "--quantile-table"], check_indices()),
        "galton": Command("galton-probe", [
            "galton", "--x", inp("x_probe.csv"), "--y", inp("y_probe.csv")],
            check_galton(refs, "x_probe.csv", "y_probe.csv")),
        # a grid plug-in, so the probe also evaluates empirical quantiles
        "test-gamma": Command("test-gamma-probe", [
            "test-gamma", "--x", inp("x_probe.csv"), "--y", inp("y_probe.csv"),
            "--gamma0", "0.05", "--B", "50", "--grid", "101", *s],
            check_test_gamma(refs, "x_probe.csv", "y_probe.csv", 101)),
        "simulate-table": Command("simulate-table-probe", [
            "simulate-table", "--case", "2", "--variant", "both", "--n", "50",
            "--reps", "4", "--B", "50", "--threads", str(THREADS), *s],
            check_table(2)),
        "occupation": Command("occupation-probe", [
            "bridge-lab", "--mode", "occupation", "--paths", "50",
            "--bridge-grid", "256", *s], check_occupation),
        "nonconsistency": Command("nonconsistency-probe", [
            "bridge-lab", "--mode", "nonconsistency", "--n", "500",
            "--reps", "50", *s], check_nonconsistency),
        "limit-gamma": Command("limit-gamma-probe", [
            "limit-law", "--index", "gamma", "--f", nm, "--g", mix,
            "--n", "200", "--reps", "20", *s], check_limit_law),
        "limit-pi": Command("limit-pi-probe", [
            "limit-law", "--index", "pi", "--f", nm, "--g", mix,
            "--reps", "200", *s], check_limit_law),
    }
    if workload == "analytic":
        focus = [
            Command("indices-case2-t", [
                "indices", "--f", t1, "--g", nt, "--grid", str(grid),
                "--quantile-table"], check_indices(nominal=0.05)),
            Command("indices-case2-mix", [
                "indices", "--f", nm, "--g", mix, "--grid", str(grid),
                "--quantile-table"], check_indices(nominal=0.05)),
            # small n * reps, so find_crossings dominates
            Command("limit-gamma-case2-t", [
                "limit-law", "--index", "gamma", "--f", t1, "--g", nt,
                "--n", size(2000, 200), "--reps", size(100, 20), *s],
                check_limit_law),
            Command("limit-pi-case2-t", [
                "limit-law", "--index", "pi", "--f", t1, "--g", nt,
                "--reps", size(10000, 200), *s], check_limit_law),
        ]
        extra = ["galton", "test-gamma", "simulate-table", "occupation",
                 "nonconsistency"]
    elif workload == "samples":
        focus = [
            Command("indices-large", [
                "indices", "--f", inp("x_large.csv"), "--g", inp("y_large.csv"),
                "--grid", str(grid), "--quantile-table"],
                check_empirical_indices(refs, "x_large.csv", "y_large.csv",
                                        grid)),
            Command("galton-large", [
                "galton", "--x", inp("x_large.csv"), "--y", inp("y_large.csv")],
                check_galton(refs, "x_large.csv", "y_large.csv")),
            Command("indices-mid-vs-t1", [
                "indices", "--f", inp("t1_mid.csv"), "--g", t1,
                "--grid", str(grid)], check_indices()),
            Command("test-gamma-mid", [
                "test-gamma", "--x", inp("x_mid.csv"), "--y", inp("y_mid.csv"),
                "--gamma0", "0.05", "--B", size(1000, 100), *s],
                check_test_gamma(refs, "x_mid.csv", "y_mid.csv", None)),
        ]
        extra = ["simulate-table", "occupation", "nonconsistency",
                 "limit-gamma", "limit-pi"]
    elif workload == "montecarlo":
        focus = [
            Command("simulate-table-all", [
                "simulate-table", "--case", "all", "--variant", "both",
                "--n", size(1000, 100), "--reps", size(20, 4),
                "--B", size(1000, 100), "--threads", str(THREADS), *s],
                check_table(8)),
            Command("occupation", [
                "bridge-lab", "--mode", "occupation",
                "--paths", size(10000, 200), "--bridge-grid", "2048", *s],
                check_occupation),
            Command("nonconsistency", [
                "bridge-lab", "--mode", "nonconsistency",
                "--n", size(10000, 1000), "--reps", size(2000, 100), *s],
                check_nonconsistency),
        ]
        extra = ["indices", "galton", "test-gamma", "limit-gamma", "limit-pi"]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    # a probe is mostly interpreter start-up, whose jitter is large
    # relative to it: each runs twice per repetition to average more of it
    return focus + [Command(f"{probes[k].label}-{i}", probes[k].argv,
                            probes[k].check)
                    for i in range(PROBE_REPEATS) for k in extra]
