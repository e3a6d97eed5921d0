"""Command-line front end.

Subcommands: indices, galton, test-gamma, simulate-table, bridge-lab,
limit-law.  Each handler returns its reports by file name, and
`run_command` writes them only once all computing is done, so a command
that fails writes no report.  Every JSON report embeds the provenance:
the master seed (``--seed``, default 0), package version, and a hash of
the resolved configuration.  Re-running a configuration reproduces the
reports byte for byte; wall-clock timing goes to run_info.json, written
last, the only non-reproducible output.

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


def _load_model(path: str) -> Distribution:
    """Model from a JSON descriptor file or a one-column sample CSV."""
    from .distributions import from_descriptor
    p = Path(path)
    if p.suffix.lower() == ".json":
        try:
            desc = json.loads(p.read_text(encoding="utf-8-sig"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise DataError(f"{p}: invalid JSON ({exc})") from None
        except OSError as exc:
            raise DataError(f"{p}: cannot read: {exc.strerror}") from None
        return from_descriptor(desc, base_dir=p.parent)
    return from_descriptor({"kind": "empirical", "csv": str(p)})


def emit_quantile_table(F: Distribution, G: Distribution,
                        grid: GridSpec) -> tuple[list[str], list[list]]:
    """CSV header and rows, one per grid point: t, both quantiles, and the
    indicator of F's quantile strictly exceeding G's.  The grid has
    t = 0 and t = 1 only at its ends: t = 0 maps to -inf (the generalized
    inverse of the empty constraint), t = 1 to the top of the support."""
    import numpy as np

    from .distributions import Empirical
    m = grid.points
    ts = np.arange(m) / (m - 1)
    qf, qg = (np.concatenate((
        [-np.inf], D.quantile(ts[1:-1]),
        [D.values[-1] if isinstance(D, Empirical) else np.inf]))
        for D in (F, G))
    return (["t", "F_quantile", "G_quantile", "F_above_G"],
            [[float(t), float(a), float(b), int(a > b)]
             for t, a, b in zip(ts, qf, qg)])


def _write_reports(config: CommandConfig, reports: dict,
                   started: float) -> None:
    """Write every report into ``--out``: a dict as JSON with the run's
    provenance added, a (header, rows) pair as CSV, a str as text; then
    run_info.json, last."""
    from .io_utils import (atomic_write_csv, atomic_write_json,
                           atomic_write_text, config_hash)
    provenance = {"seed": config.seed, "version": __version__,
                  "config": config.to_json(),
                  "config_hash": config_hash(config.to_json())}
    for name, report in reports.items():
        path = config.out_dir / name
        if isinstance(report, dict):
            atomic_write_json(path, report | {"provenance": provenance})
        elif isinstance(report, str):
            atomic_write_text(path, report)
        else:
            atomic_write_csv(path, *report)
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


def _cmd_indices(config: CommandConfig) -> dict:
    from .indices import GridSpec, index_report
    opt = config.options
    F = _load_model(opt["f"])
    G = _load_model(opt["g"])
    grid = GridSpec(opt["grid"])
    report = index_report(F, G, grid)
    reports = {"indices.json": report.to_json(),
               "indices.csv": (report.csv_header(), [report.to_csv_row()])}
    if opt.get("quantile_table"):
        reports["quantile_table.csv"] = emit_quantile_table(F, G, grid)
    return reports


def _cmd_galton(config: CommandConfig) -> dict:
    from .inference import galton_test
    from .io_utils import load_sample_csv
    opt = config.options
    xs = load_sample_csv(opt["x"], header=opt["header"])
    ys = load_sample_csv(opt["y"], header=opt["header"])
    res = galton_test(xs, ys)
    return {"galton.json": {"count": res.count, "p_value": res.p_value,
                            "tie_flag": res.tie_flag, "n": int(xs.size)}}


def _cmd_test_gamma(config: CommandConfig) -> dict:
    from .indices import GridSpec
    from .inference import gamma_threshold_test
    from .io_utils import load_sample_csv
    from .rng import SeedSpec
    opt = config.options
    xs = load_sample_csv(opt["x"], header=opt["header"])
    ys = load_sample_csv(opt["y"], header=opt["header"])
    grid = GridSpec(opt["grid"]) if opt.get("grid") else None
    res = gamma_threshold_test(xs, ys, opt["gamma0"], opt["alpha"],
                               opt["B"], grid, SeedSpec(config.seed))
    return {"test_gamma.json": res.to_json() | {"n": int(xs.size),
                                                "m": int(ys.size)}}


def _cmd_simulate_table(config: CommandConfig) -> dict:
    from .indices import gamma_index
    from .rng import SeedSpec
    from .simharness import builtin_scenarios, run_table
    opt = config.options
    scenarios = builtin_scenarios()
    cases = [1, 2, 3, 4] if opt["case"] == "all" else [int(opt["case"])]
    variants = ["t", "mix"] if opt["variant"] == "both" else [opt["variant"]]
    wanted = [scenarios[f"case{c}-{v}"] for c in cases for v in variants]
    cells = [(sc, sc.nominal_gamma if opt["gamma0"] is None else opt["gamma0"],
              opt["n"]) for sc in wanted]
    results = run_table(cells, opt["reps"], opt["B"], opt["alpha"],
                        SeedSpec(config.seed), threads=_threads(opt))
    nominal = {sc.name: gamma_index(sc.F, sc.G) for sc in wanted} \
        if opt.get("verify_nominal") else None
    # pivoted layout: one row per (gamma0, n), one column per scenario
    names = [sc.name for sc in wanted]
    keys = sorted({(r.gamma0, r.n) for r in results})
    lookup = {(r.scenario, r.gamma0, r.n): r.proportion for r in results}
    return {
        "table.json": {"cells": [r.to_json() for r in results],
                       "nominal_gamma_check": nominal},
        "table_cells.csv": (results[0].csv_header(),
                            [r.to_csv_row() for r in results]),
        "table_layout.csv": (
            ["gamma0", "n"] + names,
            [[g0, n] + [lookup.get((nm, g0, n), "") for nm in names]
             for g0, n in keys]),
    }


def _histogram_csv(edges, counts) -> tuple[list[str], list[list]]:
    return (["bin_left", "bin_right", "count"],
            [[float(a), float(b), int(c)]
             for a, b, c in zip(edges, edges[1:], counts)])


def _cmd_bridge_lab(config: CommandConfig) -> dict:
    import numpy as np

    from .bridge import SubsetSpec, nonconsistency_demo, occupation_experiment
    from .rng import SeedSpec
    opt = config.options
    seed = SeedSpec(config.seed)
    if opt["mode"] == "nonconsistency":
        summary = nonconsistency_demo(n=opt["n"], reps=opt["reps"], seed=seed,
                                      threads=_threads(opt))
        return {"nonconsistency_hist.csv": _histogram_csv(
                    summary["histogram"]["edges"],
                    summary["histogram"]["counts"]),
                "nonconsistency.json": summary}
    _require_two(opt["paths"], "--paths")
    subset = (None if opt["subset"] is None
              else SubsetSpec.parse(opt["subset"]))
    occ = occupation_experiment(opt["paths"], opt["bridge_grid"], subset,
                                seed, _threads(opt))
    counts, edges = np.histogram(occ, bins=50, range=(0.0, 1.0))
    return {"occupation_hist.csv": _histogram_csv(edges, counts),
            "bridge_lab.json": {
                "mode": "occupation",
                "paths": opt["paths"],
                "bridge_grid": opt["bridge_grid"],
                "subset": None if subset is None else subset.to_json(),
                "mean": float(occ.mean()),
                "sd": float(occ.std(ddof=1))}}


def _cmd_limit_law(config: CommandConfig) -> dict:
    from .inference import pi_limit_sample
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
        payload = {"index": "gamma", "n": opt["n"], "reps": opt["reps"],
                   "reference_variance": ref_var}
    else:
        draws, contact = pi_limit_sample(F, G, opt["lam"], opt["reps"], seed)
        payload = {"index": "pi", "lambda": opt["lam"],
                   "n_paths": opt["reps"],
                   "contact_points": [{"G": float(u), "F": float(v)}
                                      for u, v in contact]}
    # one column of round-trip floats: the bytes of a CSV report,
    # without a csv row per draw
    return {"limit_draws.csv":
            "draw\n" + "".join(f"{d!r}\n" for d in draws.tolist()),
            "limit_law.json": payload | {
                "draw_mean": float(draws.mean()),
                "draw_variance": float(draws.var(ddof=1))}}


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
        _write_reports(config, _DISPATCH[config.subcommand](config), started)
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
        p.add_argument("--seed", type=int, default=0,
                       help="master seed, a nonnegative integer")
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
    p.add_argument("--paths", type=_positive(int))
    p.add_argument("--bridge-grid", type=_positive(int))
    p.add_argument("--subset", help="intervals 'a:b,c:d'")
    p.add_argument("--n", type=_positive(int),
                   help="sample size (nonconsistency mode)")
    p.add_argument("--reps", type=_positive(int),
                   help="replicates (nonconsistency mode)")
    threads(p)
    common(p)

    p = sub.add_parser("limit-law", help="asymptotic-law Monte Carlo")
    p.add_argument("--index", choices=["gamma", "pi"], default="gamma")
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--n", type=_positive(int))
    p.add_argument("--reps", type=_positive(int), default=2000)
    p.add_argument("--lam", type=float,
                   help="sampling fraction for the pi limit")
    threads(p)
    common(p)

    return ap


# per subcommand, its mode option and, per mode, the options only that
# mode reads with their defaults; the other modes reject them
_MODE_OPTIONS = {
    "bridge-lab": ("mode", {
        "occupation": {"paths": 10000, "bridge_grid": 2048, "subset": None},
        "nonconsistency": {"n": 10000, "reps": 2000}}),
    "limit-law": ("index", {"gamma": {"n": 5000}, "pi": {"lam": 0.5}}),
}


def _config_from_args(args: argparse.Namespace) -> CommandConfig:
    options = {k: v for k, v in vars(args).items()
               if k not in ("subcommand", "seed", "out")}
    flag, modes = _MODE_OPTIONS.get(args.subcommand, (None, {}))
    for mode, defaults in modes.items():
        for key, default in defaults.items():
            if options[key] is None:
                options[key] = default
            elif mode != options[flag]:
                raise ParameterError(f"--{key.replace('_', '-')} is not read "
                                     f"by --{flag} {options[flag]}")
    for key in ("alpha", "lam"):
        if key in options and not (0.0 < options[key] < 1.0):
            raise DomainError(f"--{key} must lie in (0, 1)")
    if options.get("gamma0") is not None:
        if not (0.0 <= options["gamma0"] <= 1.0):
            raise DomainError("--gamma0 must lie in [0, 1]")
    if args.seed < 0:
        raise DomainError(f"the seed must be nonnegative, got {args.seed}")
    return CommandConfig(subcommand=args.subcommand,
                         out_dir=Path(args.out),
                         seed=args.seed,
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
