"""The benchmark's span recorder still finds every name it traces.

`perfbench/spans.py` wraps package functions and methods by name
(`inference.gamma_plugin`, `indices.pi_index`, ...).  A refactor that
deletes or renames one of them makes `install` fail; this test shows it
without running the benchmark.  The recorder is imported read-only from
its directory and every wrapper is removed again afterwards.
"""
import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_span_recorder_installs_and_restores():
    from stochord import indices, inference

    originals = (inference.gamma_plugin, indices.pi_index)
    sys.path.insert(0, str(PERFBENCH))
    saved_flag, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spans = importlib.import_module("spans")
    finally:
        sys.dont_write_bytecode = saved_flag
        sys.path.remove(str(PERFBENCH))
        sys.modules.pop("spans", None)
    restore = spans.install(spans.Recorder())
    try:
        assert inference.gamma_plugin is not originals[0]
    finally:
        restore()
    assert (inference.gamma_plugin, indices.pi_index) == originals
