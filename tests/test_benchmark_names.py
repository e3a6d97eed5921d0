"""The benchmark's span recorder still finds every name it traces.

`perfbench/spans.py` wraps package functions and methods by name
(`inference.gamma_plugin`, `indices.pi_index`, ...).  A refactor that
deletes or renames one of them makes `install` fail, and one that stops
calling a traced layer leaves its self time at zero, which the
benchmark's smoke test rejects; these tests show both without running
the benchmark.  The recorder is imported read-only from its directory
and every wrapper is removed again afterwards.
"""
import importlib
import sys
import threading
from collections import Counter
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _spans_module():
    sys.path.insert(0, str(PERFBENCH))
    saved_flag, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        return importlib.import_module("spans")
    finally:
        sys.dont_write_bytecode = saved_flag
        sys.path.remove(str(PERFBENCH))
        sys.modules.pop("spans", None)


def test_span_recorder_installs_and_restores():
    from stochord import indices, inference

    originals = (inference.gamma_plugin, indices.pi_index)
    spans = _spans_module()
    restore = spans.install(spans.Recorder())
    try:
        assert inference.gamma_plugin is not originals[0]
    finally:
        restore()
    assert (inference.gamma_plugin, indices.pi_index) == originals


def test_bridge_lab_reaches_every_traced_bridge_layer(tmp_path, monkeypatch):
    # map_blocks calls the traced layers once per block, on
    # pool threads; small blocks give each run several
    from stochord import rng
    from stochord.cli import main

    monkeypatch.setattr(rng, "BLOCK_DOUBLES", 4096)
    spans = _spans_module()
    recorder = spans.Recorder()
    restore = spans.install(recorder)
    try:
        for argv in (["--mode", "occupation", "--paths", "40",
                      "--bridge-grid", "256"],
                     ["--mode", "nonconsistency", "--n", "200",
                      "--reps", "20"]):
            assert main(["bridge-lab", *argv, "--threads", "2", "--seed", "1",
                         "--out", str(tmp_path / argv[1])]) == 0
    finally:
        restore()
    main_thread = threading.get_ident()
    calls = Counter(s.name for s in recorder.spans)
    on_pool = Counter(s.name for s in recorder.spans
                      if s.thread != main_thread)
    assert calls["bridge.nonconsistency_demo"] == 1
    # 40 paths in blocks of 4096 // 257 = 15 rows; 20 replicates in
    # blocks of 4096 // 400 = 10 rows, one sample call per model
    assert calls["bridge.bridge_path"] == on_pool["bridge.bridge_path"] == 3
    assert on_pool["bridge.occupation_positive"] == 3
    assert on_pool["distributions.sample"] == 4
    assert on_pool["inference.gamma_plugin"] == 2
    assert all(s.end > s.start for s in recorder.spans)


def test_sample_against_t1_reaches_every_traced_t1_layer(tmp_path):
    # the sample-against-t1 indices reach the density only through the
    # Newton steps of the t1 quantile; a solver that stopped calling the
    # public evaluators would leave their self time at zero
    import json

    import numpy as np

    from stochord.cli import main

    sample = tmp_path / "x.csv"
    np.savetxt(sample, np.random.default_rng(3).normal(1.0, 2.0, 300),
               fmt="%.17g")
    model = tmp_path / "t1.json"
    model.write_text(json.dumps({"kind": "t1", "ncp": 0.5}))
    spans = _spans_module()
    recorder = spans.Recorder()
    restore = spans.install(recorder)
    try:
        assert main(["indices", "--f", str(sample), "--g", str(model),
                     "--out", str(tmp_path / "out")]) == 0
    finally:
        restore()
    calls = Counter(s.name for s in recorder.spans)
    for layer in ("quantile", "cdf", "density"):
        assert calls[f"distributions.NoncentralT1.{layer}"] > 0, layer


def test_indices_reach_every_traced_index_layer(tmp_path):
    # `perfbench/spans.py` times the indices through the calls that
    # `index_report` makes: pi_index once for pi and once, with the
    # models swapped, for vartheta; a report that computed an index
    # another way would leave that layer's self time at zero
    import json

    import numpy as np

    from stochord.cli import main

    rng = np.random.default_rng(5)
    inputs = {}
    for name, desc in (("t1.json", {"kind": "t1", "ncp": 0.5}),
                       ("normal.json", {"kind": "normal", "mean": 1.0,
                                        "sd": 2.0})):
        inputs[name] = tmp_path / name
        inputs[name].write_text(json.dumps(desc))
    for name, loc in (("x.csv", 0.0), ("y.csv", 0.5)):
        inputs[name] = tmp_path / name
        np.savetxt(inputs[name], loc + rng.standard_normal(200), fmt="%.17g")
    spans = _spans_module()
    for f, g in (("t1.json", "normal.json"), ("x.csv", "t1.json"),
                 ("x.csv", "y.csv")):
        recorder = spans.Recorder()
        restore = spans.install(recorder)
        try:
            assert main(["indices", "--f", str(inputs[f]),
                         "--g", str(inputs[g]),
                         "--out", str(tmp_path / f"{f}-{g}")]) == 0
        finally:
            restore()
        calls = Counter(s.name for s in recorder.spans)
        assert {name: calls[f"indices.{name}"] for name in (
            "index_report", "gamma_index", "rho_index", "pi_index",
            "epsilon_index")} == {"index_report": 1, "gamma_index": 1,
                                  "rho_index": 1, "pi_index": 2,
                                  "epsilon_index": 1}, (f, g)
        assert all(s.end > s.start for s in recorder.spans
                   if s.name.startswith("indices."))
