"""Command-line front end.

Subcommands: indices, galton, test-gamma, simulate-table, bridge-lab,
limit-law.  Every run writes JSON (and CSV where tabular) reports that
embed the master seed, package version, and a hash of the resolved
configuration; re-running the same configuration reproduces the report
files byte for byte.  Wall-clock timing goes to a separate
run_info.json, which is the only non-reproducible output.

``simulate-table``, ``bridge-lab`` and ``limit-law`` take ``--threads``
(default: the core count) for their replicate loops, which run in blocks
on a thread pool of at most one thread per core.  Every replicate draws
from its own seeded stream, so the count never changes a report byte,
and it stays out of the configuration hash.

Exit codes: 0 success, 2 usage/argument problems, 3 data ingestion
problems, 4 numeric failures or violated assumptions.

Each subcommand handler imports what it uses when it runs, so
``--version``, ``--help`` and usage errors load no numpy; no command
loads scipy (the models' special functions are in `stochord.special`).
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__
from .errors import DataError, DomainError, ParameterError, StochordError

if TYPE_CHECKING:
    from .distributions import Distribution
    from .indices import GridSpec

__all__ = ["main", "run_command", "CommandConfig", "emit_quantile_table"]


@dataclass
class CommandConfig:
    """Resolved parameters of one CLI invocation."""

    subcommand: str
    out_dir: Path
    seed: int
    options: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        # thread count is an execution detail: results are required to
        # be independent of it, so it stays out of the recorded config
        options = {k: v for k, v in self.options.items() if k != "threads"}
        return {"subcommand": self.subcommand, "seed": self.seed,
                "options": options}


def _resolve_seed(value: int | None) -> int:
    """The master seed: ``--seed``, else STOCHORD_SEED, else 0; a
    nonnegative integer."""
    if value is None:
        env = os.environ.get("STOCHORD_SEED", "0")
        try:
            value = int(env)
        except ValueError:
            raise DomainError(f"STOCHORD_SEED={env!r} is not an integer") from None
    if value < 0:
        raise DomainError(f"the seed must be nonnegative, got {value}")
    return value


def _load_model(path: str) -> Distribution:
    """Model from a JSON descriptor file or a one-column sample CSV."""
    from .distributions import from_descriptor
    p = Path(path)
    if p.suffix.lower() == ".json":
        try:
            desc = json.loads(p.read_text())
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise DataError(f"{p}: invalid JSON ({exc})") from None
        except OSError as exc:
            raise DataError(f"{p}: cannot read: {exc.strerror}") from None
        return from_descriptor(desc, base_dir=p.parent)
    return from_descriptor({"kind": "empirical", "csv": str(p)})


def emit_quantile_table(F: Distribution, G: Distribution, grid: GridSpec,
                        path) -> None:
    """CSV with one row per grid point: t, both quantiles, and the
    indicator of F's quantile strictly exceeding G's.  The grid has
    t = 0 and t = 1 only at its ends: t = 0 maps to -inf (the generalized
    inverse of the empty constraint), t = 1 to the top of the support."""
    import numpy as np

    from .distributions import Empirical
    from .io_utils import atomic_write_csv
    m = grid.points
    ts = np.arange(m) / (m - 1)
    qf, qg = (np.concatenate((
        [-np.inf], D.quantile(ts[1:-1]),
        [D.values[-1] if isinstance(D, Empirical) else np.inf]))
        for D in (F, G))
    rows = [[float(t), float(a), float(b), int(a > b)]
            for t, a, b in zip(ts, qf, qg)]
    atomic_write_csv(path, ["t", "F_quantile", "G_quantile",
                            "F_above_G"], rows)


def _provenance(config: CommandConfig) -> dict:
    from .io_utils import config_hash
    return {"seed": config.seed, "version": __version__,
            "config": config.to_json(),
            "config_hash": config_hash(config.to_json())}


def _write_run_info(config: CommandConfig, started: float) -> None:
    from .io_utils import atomic_write_json
    atomic_write_json(config.out_dir / "run_info.json", {
        "wall_clock_seconds": time.perf_counter() - started,
        "finished_unix_time": time.time(),
        "subcommand": config.subcommand,
    })


def _threads(options: dict) -> int:
    """Pool threads of a replicate loop.  A config rebuilt from a
    report's provenance has none, since the count never changes a
    report byte: it runs on one."""
    return options.get("threads", 1)


def _require_two(count: int, flag: str) -> None:
    """Reports give the draws' standard deviation, which needs two."""
    if count < 2:
        raise DomainError(f"{flag} must be at least 2, got {count}")


def _cmd_indices(config: CommandConfig) -> None:
    from .indices import GridSpec, index_report
    from .io_utils import atomic_write_csv, atomic_write_json
    opt = config.options
    F = _load_model(opt["f"])
    G = _load_model(opt["g"])
    grid = GridSpec(opt["grid"])
    report = index_report(F, G, grid)
    payload = report.to_json() | {"provenance": _provenance(config)}
    atomic_write_json(config.out_dir / "indices.json", payload)
    atomic_write_csv(config.out_dir / "indices.csv",
                     report.csv_header(), [report.to_csv_row()])
    if opt.get("quantile_table"):
        emit_quantile_table(F, G, grid, config.out_dir / "quantile_table.csv")


def _cmd_galton(config: CommandConfig) -> None:
    from .inference import galton_test
    from .io_utils import atomic_write_json, load_sample_csv
    opt = config.options
    xs = load_sample_csv(opt["x"], header=opt["header"])
    ys = load_sample_csv(opt["y"], header=opt["header"])
    res = galton_test(xs, ys)
    atomic_write_json(config.out_dir / "galton.json", {
        "count": res.count, "p_value": res.p_value,
        "tie_flag": res.tie_flag, "n": int(xs.size),
        "provenance": _provenance(config)})


def _cmd_test_gamma(config: CommandConfig) -> None:
    from .indices import GridSpec
    from .inference import gamma_threshold_test
    from .io_utils import atomic_write_json, load_sample_csv
    from .rng import SeedSpec
    opt = config.options
    xs = load_sample_csv(opt["x"], header=opt["header"])
    ys = load_sample_csv(opt["y"], header=opt["header"])
    grid = GridSpec(opt["grid"]) if opt.get("grid") else None
    res = gamma_threshold_test(xs, ys, opt["gamma0"], opt["alpha"],
                               opt["B"], grid, SeedSpec(config.seed))
    payload = res.to_json() | {"n": int(xs.size), "m": int(ys.size),
                               "provenance": _provenance(config)}
    atomic_write_json(config.out_dir / "test_gamma.json", payload)


def _cmd_simulate_table(config: CommandConfig) -> None:
    from .indices import gamma_index
    from .io_utils import atomic_write_csv, atomic_write_json
    from .rng import SeedSpec
    from .simharness import builtin_scenarios, run_table
    opt = config.options
    scenarios = builtin_scenarios()
    wanted = []
    cases = [1, 2, 3, 4] if opt["case"] == "all" else [int(opt["case"])]
    variants = ["t", "mix"] if opt["variant"] == "both" else [opt["variant"]]
    for c in cases:
        for v in variants:
            wanted.append(scenarios[f"case{c}-{v}"])
    cells = []
    for sc in wanted:
        gamma0 = opt["gamma0"] if opt["gamma0"] is not None else sc.nominal_gamma
        cells.append((sc, gamma0, opt["n"]))
    results = run_table(cells, opt["reps"], opt["B"], opt["alpha"],
                        SeedSpec(config.seed), threads=_threads(opt))
    nominal = {sc.name: gamma_index(sc.F, sc.G) for sc in wanted} \
        if opt.get("verify_nominal") else None
    payload = {
        "cells": [r.to_json() for r in results],
        "nominal_gamma_check": nominal,
        "provenance": _provenance(config),
    }
    atomic_write_json(config.out_dir / "table.json", payload)
    atomic_write_csv(config.out_dir / "table_cells.csv",
                     results[0].csv_header(),
                     [r.to_csv_row() for r in results])
    # pivoted layout: one row per (gamma0, n), one column per scenario
    names = [sc.name for sc in wanted]
    keys = sorted({(r.gamma0, r.n) for r in results})
    lookup = {(r.scenario, r.gamma0, r.n): r.proportion for r in results}
    rows = [[g0, n] + [lookup.get((nm, g0, n), "") for nm in names]
            for g0, n in keys]
    atomic_write_csv(config.out_dir / "table_layout.csv",
                     ["gamma0", "n"] + names, rows)


def _cmd_bridge_lab(config: CommandConfig) -> None:
    import numpy as np

    from .bridge import SubsetSpec, nonconsistency_demo, occupation_experiment
    from .io_utils import atomic_write_csv, atomic_write_json
    from .rng import SeedSpec
    opt = config.options
    seed = SeedSpec(config.seed)
    if opt["mode"] == "occupation":
        _require_two(opt["paths"], "--paths")
        subset = SubsetSpec.parse(opt["subset"]) if opt.get("subset") else None
        occ = occupation_experiment(opt["paths"], opt["bridge_grid"], subset,
                                    seed, _threads(opt))
        counts, edges = np.histogram(occ, bins=50, range=(0.0, 1.0))
        atomic_write_csv(config.out_dir / "occupation_hist.csv",
                         ["bin_left", "bin_right", "count"],
                         [[float(edges[i]), float(edges[i + 1]), int(c)]
                          for i, c in enumerate(counts)])
        atomic_write_json(config.out_dir / "bridge_lab.json", {
            "mode": "occupation",
            "paths": opt["paths"],
            "bridge_grid": opt["bridge_grid"],
            "subset": subset.to_json() if subset else None,
            "mean": float(occ.mean()),
            "sd": float(occ.std(ddof=1)),
            "provenance": _provenance(config)})
    else:
        summary = nonconsistency_demo(n=opt["n"], reps=opt["reps"], seed=seed,
                                      threads=_threads(opt))
        atomic_write_csv(config.out_dir / "nonconsistency_hist.csv",
                         ["bin_left", "bin_right", "count"],
                         [[summary["histogram"]["edges"][i],
                           summary["histogram"]["edges"][i + 1], c]
                          for i, c in enumerate(summary["histogram"]["counts"])])
        atomic_write_json(config.out_dir / "nonconsistency.json",
                          summary | {"provenance": _provenance(config)})


def _cmd_limit_law(config: CommandConfig) -> None:
    from .inference import pi_limit_sample
    from .io_utils import atomic_write_json, atomic_write_text
    from .rng import SeedSpec
    from .simharness import asymptotic_law_experiment
    opt = config.options
    _require_two(opt["reps"], "--reps")
    F = _load_model(opt["f"])
    G = _load_model(opt["g"])
    seed = SeedSpec(config.seed)
    if opt["index"] == "gamma":
        draws, ref_var = asymptotic_law_experiment(F, G, opt["n"], opt["reps"],
                                                   seed, threads=_threads(opt))
        payload = {
            "index": "gamma",
            "n": opt["n"],
            "reps": opt["reps"],
            "reference_variance": ref_var,
            "draw_mean": float(draws.mean()),
            "draw_variance": float(draws.var(ddof=1)),
            "provenance": _provenance(config),
        }
    else:
        draws, contact = pi_limit_sample(F, G, opt["lam"], opt["reps"], seed)
        payload = {
            "index": "pi",
            "lambda": opt["lam"],
            "n_paths": opt["reps"],
            "contact_points": [{"G": float(u), "F": float(v)}
                               for u, v in contact],
            "draw_mean": float(draws.mean()),
            "draw_variance": float(draws.var(ddof=1)),
            "provenance": _provenance(config),
        }
    # one column of round-trip floats: the bytes atomic_write_csv would
    # write, without a csv row per draw
    atomic_write_text(config.out_dir / "limit_draws.csv",
                      "draw\n" + "".join(f"{d!r}\n" for d in draws.tolist()))
    atomic_write_json(config.out_dir / "limit_law.json", payload)


_DISPATCH = {
    "indices": _cmd_indices,
    "galton": _cmd_galton,
    "test-gamma": _cmd_test_gamma,
    "simulate-table": _cmd_simulate_table,
    "bridge-lab": _cmd_bridge_lab,
    "limit-law": _cmd_limit_law,
}


def run_command(config: CommandConfig) -> int:
    """Dispatch a validated config; returns the process exit code and
    prints machine-readable error JSON on failure."""
    try:
        started = time.perf_counter()
        try:
            config.out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ParameterError(
                f"--out {config.out_dir}: {exc.strerror}") from None
        _DISPATCH[config.subcommand](config)
        _write_run_info(config, started)
        return 0
    except StochordError as exc:
        return _print_error(exc)


def _print_error(exc: StochordError) -> int:
    """Print the error JSON of ``exc`` and return its exit code: 3 for
    data errors, 2 for domain and parameter errors, else 4."""
    from .io_utils import canonical_json
    code = 3 if isinstance(exc, DataError) else \
        2 if isinstance(exc, (DomainError, ParameterError)) else 4
    print(canonical_json({"error": type(exc).__name__, "message": str(exc),
                          "exit_code": code}), file=sys.stdout)
    return code


def _positive(kind):
    def parse(text):
        v = kind(text)
        if v <= 0:
            raise argparse.ArgumentTypeError(f"must be positive, got {text}")
        return v
    return parse


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="stochord",
        description="Indices of departure from stochastic order: "
                    "computation, inference, and bridge diagnostics.")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=None,
                       help="master seed (fallback: STOCHORD_SEED, then 0)")
        p.add_argument("--out", default=".", help="output directory")

    def threads(p):
        p.add_argument("--threads", type=_positive(int),
                       default=os.cpu_count() or 1,
                       help="pool threads of the replicate loop, at most one "
                       "per core (default: the core count); the reports "
                       "are the same at any count")

    p = sub.add_parser("indices", help="compute all departure indices")
    p.add_argument("--f", required=True, help="model JSON or sample CSV")
    p.add_argument("--g", required=True, help="model JSON or sample CSV")
    p.add_argument("--grid", type=_positive(int), default=1001,
                   help="points of the quantile table, also recorded as the "
                   "report's grid (the indices are exact, on no grid)")
    p.add_argument("--quantile-table", action="store_true",
                   help="also emit a quantile/indicator table CSV")
    common(p)

    p = sub.add_parser("galton", help="exact rank-order test")
    p.add_argument("--x", required=True, help="sample CSV")
    p.add_argument("--y", required=True, help="sample CSV (same size)")
    p.add_argument("--header", action="store_true")
    common(p)

    p = sub.add_parser("test-gamma", help="bootstrap threshold test")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--header", action="store_true")
    p.add_argument("--gamma0", type=float, required=True)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--B", type=_positive(int), default=1000)
    p.add_argument("--grid", type=_positive(int), default=None,
                   help="grid size for the plug-in (default: exact)")
    common(p)

    p = sub.add_parser("simulate-table", help="power-table cells")
    p.add_argument("--case", choices=["1", "2", "3", "4", "all"],
                   required=True)
    p.add_argument("--variant", choices=["t", "mix", "both"], default="both")
    p.add_argument("--gamma0", type=float, default=None,
                   help="threshold (default: the scenario's nominal gamma)")
    p.add_argument("--n", type=_positive(int), required=True)
    p.add_argument("--reps", type=_positive(int), required=True)
    p.add_argument("--B", type=_positive(int), default=1000)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--verify-nominal", action="store_true",
                   help="include the exact nominal gamma check")
    threads(p)
    common(p)

    p = sub.add_parser("bridge-lab", help="bridge occupation experiments")
    p.add_argument("--mode", choices=["occupation", "nonconsistency"],
                   default="occupation")
    p.add_argument("--paths", type=_positive(int), default=10000)
    p.add_argument("--bridge-grid", type=_positive(int), default=2048)
    p.add_argument("--subset", default=None, help="intervals 'a:b,c:d'")
    p.add_argument("--n", type=_positive(int), default=10000,
                   help="sample size (nonconsistency mode)")
    p.add_argument("--reps", type=_positive(int), default=2000,
                   help="replicates (nonconsistency mode)")
    threads(p)
    common(p)

    p = sub.add_parser("limit-law", help="asymptotic-law Monte Carlo")
    p.add_argument("--index", choices=["gamma", "pi"], default="gamma")
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--n", type=_positive(int), default=5000)
    p.add_argument("--reps", type=_positive(int), default=2000)
    p.add_argument("--lam", type=float, default=0.5,
                   help="sampling fraction for the pi limit")
    threads(p)
    common(p)

    return ap


def _config_from_args(args: argparse.Namespace) -> CommandConfig:
    options = {k: v for k, v in vars(args).items()
               if k not in ("subcommand", "seed", "out")}
    for key in ("alpha", "lam"):
        if key in options and options[key] is not None:
            if not (0.0 < options[key] < 1.0):
                raise DomainError(f"--{key} must lie in (0, 1)")
    if options.get("gamma0") is not None:
        if not (0.0 <= options["gamma0"] <= 1.0):
            raise DomainError("--gamma0 must lie in [0, 1]")
    return CommandConfig(subcommand=args.subcommand,
                         out_dir=Path(args.out),
                         seed=_resolve_seed(args.seed),
                         options=options)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _config_from_args(args)
    except StochordError as exc:
        return _print_error(exc)
    return run_command(config)


if __name__ == "__main__":
    sys.exit(main())
