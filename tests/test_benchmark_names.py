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
