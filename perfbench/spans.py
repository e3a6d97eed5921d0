"""Span recorder for the traced benchmark pass.

`install` replaces stochord's public functions and model methods with
timing wrappers: every module attribute bound to the original function
(including names imported with ``from .x import f``) gets the wrapper,
so calls are seen whichever module makes them.  The returned callable
restores the originals, so untraced passes run the unmodified package.

Each span holds a name, start and end (``time.perf_counter``), parent
span id, thread id and a dict of counters.  Parents are tracked per
thread; a root span on a pool thread is parented to the innermost
active span of a function installed with ``adopt=True``
(`run_table1_cell`, whose replicates run on a thread pool).  Spans stay
in memory until the caller writes them out.
"""
from __future__ import annotations

import functools
import inspect
import itertools
import json
import os
import threading
import time
from collections import Counter, defaultdict

import numpy as np


class Span:
    __slots__ = ("id", "name", "parent", "thread", "start", "end", "attrs")

    def __init__(self, span_id: int, name: str, parent: int | None):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.thread = threading.get_ident()
        self.start = self.end = 0.0
        self.attrs: dict = {}

    def to_json(self) -> dict:
        return {"id": self.id, "name": self.name, "parent": self.parent,
                "thread": self.thread, "start": self.start, "end": self.end,
                "attrs": self.attrs}


class Recorder:
    """Collects spans from every thread of the process."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self.adopter: Span | None = None

    def start(self, name: str) -> Span:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else self.adopter
        with self._lock:
            span = Span(next(self._ids), name,
                        parent.id if parent is not None else None)
            self.spans.append(span)
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._local.stack.pop()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump([s.to_json() for s in self.spans], fh,
                      separators=(",", ":"))


def _wrap(rec: Recorder, name: str, fn, counter=None, adopt: bool = False,
          cpu: bool = False):
    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        cpu0 = time.process_time() if cpu else 0.0
        span = rec.start(name)
        if adopt:
            outer, rec.adopter = rec.adopter, span
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.end(span)
            if adopt:
                rec.adopter = outer
        if cpu:
            span.attrs["cpu_s"] = time.process_time() - cpu0
        if counter is not None:
            span.attrs.update(counter(args, kwargs, result))
        return result
    return wrapped


def _bound(fn, args, kwargs) -> dict:
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def install(rec: Recorder):
    """Wrap the traced functions; returns a callable that unwraps them."""
    import stochord
    from stochord import (bridge, cli, distributions, indices, inference,
                          io_utils, rng, simharness)

    modules = [stochord, bridge, cli, distributions, indices, inference,
               io_utils, rng, simharness]
    patches = []

    def function(module, attr, name, **opts):
        orig = getattr(module, attr)
        wrapped = _wrap(rec, name, orig, **opts)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is orig:
                    patches.append((m, key, orig))
                    setattr(m, key, wrapped)

    def method(cls, attr, name, **opts):
        orig = cls.__dict__[attr]
        patches.append((cls, attr, orig))
        setattr(cls, attr, _wrap(rec, name, orig, **opts))

    bootstrap_sd = inference.bootstrap_sd
    run_table1_cell = simharness.run_table1_cell
    # the T1 quadrature evaluates every point at every node: the outer
    # product it materializes has points x nodes doubles
    t1_nodes = getattr(distributions, "_t1_nodes", None)
    node_count = len(t1_nodes()[0]) if t1_nodes is not None else 0

    def rows(args, kwargs, result):
        return {"rows": int(np.size(result))}

    def written(args, kwargs, result):
        return {"bytes": os.path.getsize(args[0] if args else kwargs["path"])}

    def cdf_points(args, kwargs, result):
        points = int(np.size(args[1] if len(args) > 1 else kwargs["x"]))
        return {"points": points, "bytes_computed": points * node_count * 8}

    def resample(args, kwargs, result):
        a = _bound(bootstrap_sd, args, kwargs)
        n, m = np.size(a["xs"]), np.size(a["ys"])
        # float64 values plus int64 indices for both resample matrices
        return {"resample_bytes": int(a["B"]) * int(n + m) * 16}

    def replicates(args, kwargs, result):
        return {"replicates": int(_bound(run_table1_cell, args, kwargs)["reps"])}

    function(cli, "run_command", "cli.run_command")
    function(cli, "emit_quantile_table", "cli.emit_quantile_table")
    function(io_utils, "load_sample_csv", "io_utils.load_sample_csv",
             counter=rows)
    # atomic_write_json delegates to atomic_write_text: bytes are counted
    # once, at the text and csv writers
    function(io_utils, "atomic_write_json", "io_utils.write")
    function(io_utils, "atomic_write_text", "io_utils.write", counter=written)
    function(io_utils, "atomic_write_csv", "io_utils.write", counter=written)

    T1 = distributions.NoncentralT1
    method(T1, "quantile", "distributions.NoncentralT1.quantile")
    method(T1, "cdf", "distributions.NoncentralT1.cdf", counter=cdf_points)
    method(T1, "density", "distributions.NoncentralT1.density")
    for cls in (distributions.NormalMixture, distributions.Normal,
                distributions.Empirical):
        method(cls, "quantile", f"distributions.{cls.__name__}.quantile")
    for cls in _families(distributions.Distribution):
        if "sample" in cls.__dict__:
            method(cls, "sample", "distributions.sample")

    for name in ("gamma_index", "rho_index", "pi_index", "epsilon_index",
                 "index_report"):
        function(indices, name, f"indices.{name}")

    function(inference, "find_crossings", "inference.find_crossings")
    function(inference, "bootstrap_sd", "inference.bootstrap_sd",
             counter=resample)
    for name in ("gamma_plugin", "galton_test", "gamma_threshold_test",
                 "pi_limit_sample"):
        function(inference, name, f"inference.{name}")

    function(simharness, "run_table1_cell", "simharness.run_table1_cell",
             counter=replicates, adopt=True, cpu=True)
    function(simharness, "run_table", "simharness.run_table")
    function(simharness, "asymptotic_law_experiment",
             "simharness.asymptotic_law_experiment")

    for name in ("bridge_path", "occupation_positive", "nonconsistency_demo"):
        function(bridge, name, f"bridge.{name}")

    method(rng.SeedSpec, "generator", "rng.SeedSpec.generator")

    def restore():
        for owner, key, orig in reversed(patches):
            setattr(owner, key, orig)
    return restore


def _families(base):
    for cls in base.__subclasses__():
        yield cls
        yield from _families(cls)


def _covered(span: Span, children: list[Span]) -> float:
    """Length of the part of span's interval that its children cover
    (children on pool threads may overlap each other)."""
    total, reach = 0.0, span.start
    for lo, hi in sorted((max(c.start, span.start), min(c.end, span.end))
                         for c in children):
        lo = max(lo, reach)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def aggregate(spans: list[Span]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass: name -> (value, unit)."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    self_s, dur_s, calls, attr = (defaultdict(float), defaultdict(float),
                                  Counter(), defaultdict(float))
    for s in spans:
        dur = s.end - s.start
        dur_s[s.name] += dur
        self_s[s.name] += dur - _covered(s, children.get(s.id, []))
        calls[s.name] += 1
        for key, value in s.attrs.items():
            attr[f"{s.name}.{key}"] += value

    def descendants(span):
        for c in children.get(span.id, []):
            yield c
            yield from descendants(c)

    crossing_quantiles = sum(
        1 for s in spans if s.name == "inference.find_crossings"
        for d in descendants(s) if d.name.endswith(".quantile"))
    cell = "simharness.run_table1_cell"
    out = {f"{name}.self_s": (self_s[name], "s") for name in (
        "cli.run_command", "cli.emit_quantile_table",
        "io_utils.load_sample_csv", "io_utils.write",
        "distributions.NoncentralT1.quantile",
        "distributions.NoncentralT1.cdf",
        "distributions.NoncentralT1.density",
        "distributions.NormalMixture.quantile",
        "distributions.Normal.quantile", "distributions.Empirical.quantile",
        "distributions.sample",
        "indices.gamma_index", "indices.rho_index", "indices.pi_index",
        "indices.epsilon_index",
        "inference.find_crossings", "inference.bootstrap_sd",
        "inference.gamma_plugin", "inference.galton_test",
        "inference.pi_limit_sample",
        cell, "simharness.asymptotic_law_experiment",
        "bridge.bridge_path", "bridge.occupation_positive",
        "bridge.nonconsistency_demo", "rng.SeedSpec.generator")}
    counts = {
        "io_utils.load_sample_csv.rows": attr["io_utils.load_sample_csv.rows"],
        "distributions.NoncentralT1.cdf.points":
            attr["distributions.NoncentralT1.cdf.points"],
        "inference.find_crossings.quantile_calls": crossing_quantiles,
        "inference.gamma_plugin.calls": calls["inference.gamma_plugin"],
        f"{cell}.replicates": attr[f"{cell}.replicates"],
        "bridge.bridge_path.calls": calls["bridge.bridge_path"],
        "rng.SeedSpec.generator.calls": calls["rng.SeedSpec.generator"],
    }
    out.update({name: (int(v), "count") for name, v in counts.items()})
    for name in ("io_utils.write.bytes",
                 "distributions.NoncentralT1.cdf.bytes_computed",
                 "inference.bootstrap_sd.resample_bytes"):
        out[name] = (int(attr[name]), "bytes")
    out[f"{cell}.cpu_per_wall"] = (
        attr[f"{cell}.cpu_s"] / dur_s[cell] if dur_s[cell] > 0 else 0.0,
        "cpu_s/s")
    return out


def total_duration(spans: list[Span], name: str) -> float:
    return sum(s.end - s.start for s in spans if s.name == name)
