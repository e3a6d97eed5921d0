"""Benchmark of the stochord command-line interface.

Usage (from the repository root):

    python3 perfbench/run.py --workload analytic --seed 1 --seconds 30 --trace 0

``--trace 0`` runs the workload's command sequence as fresh
``python -m stochord.cli`` subprocesses (``PYTHONPATH=src``), repeating
the whole sequence until ``--seconds`` have passed, and reports the
median over repetitions of each end-to-end metric.  ``--trace 1`` runs
the same commands in this process through ``stochord.cli.main``,
alternating untraced passes with passes traced by `spans`, and reports
the per-layer metrics (medians over traced passes) and the tracing
overhead.  Every report is checked (see `workloads`), and every report
except run_info.json must be byte-identical across repetitions.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Inputs, reports
and the span dump go to ``.perfbench/`` under the repository root.
"""
from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from collections import defaultdict
from pathlib import Path

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(".perfbench")           # relative to ROOT, as reports record it
SETUP_RUNS = 3                      # plus one per repetition
CHILD_TIMEOUT_S = 120.0

SUBCOMMAND_METRICS = {
    "indices": "indices_s",
    "galton": "galton_s",
    "test-gamma": "test_gamma_s",
    "simulate-table": "simulate_table_s",
    "bridge-lab": "bridge_lab_s",
    "limit-law": "limit_law_s",
}


class Tally:
    """Commands attempted and failed, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, label: str, error: str | None) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(f"{label}: {error}")


def _report_bytes(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())
            if p.is_file() and p.name != "run_info.json"}


def _verify(commands, outputs: list[dict], codes: list[dict],
            tally: Tally) -> None:
    """Check each repetition's reports: exit code, byte-identity with the
    first repetition, and the command's value check on the first."""
    first = outputs[0]
    value_error = {}
    for cmd in commands:
        try:
            cmd.check(ROOT / first[cmd.label])
            value_error[cmd.label] = None
        except (workloads.CheckFailed, OSError, KeyError, TypeError,
                ValueError) as exc:
            value_error[cmd.label] = f"{type(exc).__name__}: {exc}"
    reference = {c.label: _report_bytes(ROOT / first[c.label])
                 for c in commands}
    for rep, (out, rc) in enumerate(zip(outputs, codes)):
        for cmd in commands:
            error = None
            if rc[cmd.label] != 0:
                error = f"exit code {rc[cmd.label]}"
            elif value_error[cmd.label] is not None:
                error = value_error[cmd.label]
            elif rep and _report_bytes(ROOT / out[cmd.label]) != reference[cmd.label]:
                error = "reports differ from the first repetition"
            tally.record(f"{cmd.label}#{rep}", error)


def _run_child(argv: list[str], log: Path) -> tuple[float, float, int]:
    """One CLI subprocess: (wall seconds, peak RSS in MB, exit code)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("STOCHORD_SEED", None)
    with open(ROOT / log, "ab") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "stochord.cli", *argv],
                                cwd=ROOT, env=env, stdout=fh,
                                stderr=subprocess.STDOUT)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
            killer.join()
    # ru_maxrss is this child's own peak, in KiB on Linux
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def _serial(cmd: workloads.Command) -> workloads.Command:
    """The same simulate-table command at --threads 1."""
    i = cmd.argv.index("--threads")
    return workloads.Command(f"{cmd.label}-threads1",
                             cmd.argv[:i + 1] + ["1"] + cmd.argv[i + 2:],
                             cmd.check)


def _check_serial(cmd, serial_out: Path, rc: int, first_out: Path,
                  tally: Tally) -> None:
    """Results must not depend on the thread count."""
    same = rc == 0 and ((ROOT / serial_out / "table.json").read_bytes()
                        == (ROOT / first_out / "table.json").read_bytes())
    tally.record(f"{cmd.label}#threads1",
                 None if same else "table.json differs at --threads 1")


def measure_untraced(commands, seconds: float,
                     tally: Tally) -> tuple[dict, int]:
    """End-to-end metrics: medians over repetitions of the sequence."""
    log = WORK / "children.log"
    setup = []

    def set_up() -> None:
        wall, _, rc = _run_child(["--version"], log)
        if rc != 0:
            raise RuntimeError(f"`stochord.cli --version` exited with {rc}")
        setup.append(wall)

    for _ in range(2):      # warm the file cache and __pycache__
        set_up()
    setup.clear()
    for _ in range(SETUP_RUNS):
        set_up()

    per_rep = defaultdict(list)
    outputs, codes = [], []
    start = time.perf_counter()
    while not outputs or time.perf_counter() - start < seconds:
        rep = len(outputs)
        set_up()            # spread over the run, like the commands
        out, rc, sub = {}, {}, defaultdict(float)
        wall_total, peak = 0.0, 0.0
        for cmd in commands:
            out[cmd.label] = WORK / "out" / f"r{rep}" / cmd.label
            wall, rss, rc[cmd.label] = _run_child(
                [*cmd.argv, "--out", str(out[cmd.label])], log)
            sub[cmd.subcommand] += wall
            wall_total += wall
            peak = max(peak, rss)
        per_rep["wall_s"].append(wall_total)
        per_rep["peak_rss_mb"].append(peak)
        for name, metric in SUBCOMMAND_METRICS.items():
            per_rep[metric].append(sub[name])
        outputs.append(out)
        codes.append(rc)

    _verify(commands, outputs, codes, tally)
    for cmd in commands:
        if cmd.subcommand == "simulate-table":
            serial = _serial(cmd)
            out = WORK / "out" / "serial" / serial.label
            _, _, rc = _run_child([*serial.argv, "--out", str(out)], log)
            _check_serial(cmd, out, rc, outputs[0][cmd.label], tally)

    metrics = {"setup_s": (statistics.median(setup), "s")}
    for metric, values in per_rep.items():
        unit = "MB" if metric == "peak_rss_mb" else "s"
        metrics[metric] = (statistics.median(values), unit)
    return metrics, len(outputs)


def _inprocess_pass(cli, commands, tag: str) -> tuple[float, dict, dict]:
    """All commands through cli.main in this process."""
    out, rc = {}, {}
    start = time.perf_counter()
    for cmd in commands:
        out[cmd.label] = WORK / "out" / tag / cmd.label
        try:
            rc[cmd.label] = cli.main([*cmd.argv, "--out", str(out[cmd.label])])
        except Exception:   # a crash is a failed op, not a bench error
            traceback.print_exc()
            rc[cmd.label] = -1
    return time.perf_counter() - start, out, rc


def measure_traced(commands, seconds: float,
                   tally: Tally) -> tuple[dict, int]:
    """Per-layer metrics: medians over traced in-process passes."""
    sys.path.insert(0, str(SRC))
    from stochord import cli

    _inprocess_pass(cli, commands, "warmup")    # imports, node caches
    untraced, traced, layer, units = [], [], defaultdict(list), {}
    outputs, codes = [], []
    recorder = None
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        rep = len(traced)
        wall, out, rc = _inprocess_pass(cli, commands, f"u{rep}")
        untraced.append(wall)
        outputs.append(out)
        codes.append(rc)
        recorder = spans.Recorder()
        restore = spans.install(recorder)
        try:
            wall, out, rc = _inprocess_pass(cli, commands, f"t{rep}")
        finally:
            restore()
        traced.append(wall)
        outputs.append(out)
        codes.append(rc)
        for name, (value, unit) in spans.aggregate(recorder.spans).items():
            layer[name].append(value)
            units[name] = unit
    recorder.write(ROOT / WORK / "spans.json")
    _verify(commands, outputs, codes, tally)

    simulate = [c for c in commands if c.subcommand == "simulate-table"]
    serial_rec = spans.Recorder()
    restore = spans.install(serial_rec)
    try:
        _, serial_out, serial_rc = _inprocess_pass(
            cli, [_serial(c) for c in simulate], "serial")
    finally:
        restore()
    for cmd in simulate:
        label = _serial(cmd).label
        _check_serial(cmd, serial_out[label], serial_rc[label],
                      outputs[0][cmd.label], tally)

    metrics = {}
    for name, values in layer.items():
        unit = units[name]
        # counts are reported as observed; times as true medians
        median = statistics.median if unit == "s" else statistics.median_low
        metrics[name] = (median(values), unit)
    metrics["simharness.run_table1_cell.serial_s"] = (
        spans.total_duration(serial_rec.spans, "simharness.run_table1_cell"),
        "s")
    t_med, u_med = statistics.median(traced), statistics.median(untraced)
    metrics["trace.traced_wall_s"] = (t_med, "s")
    metrics["trace.overhead_s"] = (t_med - u_med, "s")
    return metrics, len(traced)


def environment() -> dict:
    return {
        "cores": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "simulate_table_threads": workloads.THREADS,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["full", "tiny"], default="full",
                    help="tiny: probe-sized inputs, for the smoke test")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if not (SRC / "stochord" / "cli.py").is_file():
        print(f"perfbench: no stochord sources under {SRC}", file=sys.stderr)
        return 2

    os.chdir(ROOT)
    shutil.rmtree(WORK, ignore_errors=True)
    inputs = WORK / "inputs"
    workloads.write_inputs(ROOT / inputs, args.seed, args.size == "tiny")
    commands = workloads.build(args.workload, inputs, args.seed,
                               args.size == "tiny")
    print("environment " + json.dumps(environment(), sort_keys=True))

    tally = Tally()
    measure = measure_traced if args.trace else measure_untraced
    metrics, repetitions = measure(commands, args.seconds, tally)
    print(f"repetitions {repetitions}")
    for reason in tally.reasons:
        print(f"failed {reason}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
