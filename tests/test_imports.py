"""Import hygiene: each command loads only what it uses, and none loads
scipy, which the tests keep as an oracle only, or numpy.ma, which a
plain np.unique on floats would import (about 12 ms per run).

Every check runs in a fresh interpreter, since this test process has
long since imported numpy and scipy.
"""
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import stochord

SRC = str(Path(stochord.__file__).resolve().parent.parent)

# runs `stochord.cli.main(argv)` and prints its exit code and which of
# numpy, numpy.ma and scipy it loaded
RUN_CLI = """
import json, sys
from stochord.cli import main
try:
    rc = main(json.loads(sys.argv[1]))
except SystemExit as exc:
    rc = exc.code
heavy = sorted(({m.split(".")[0] for m in sys.modules} | set(sys.modules))
               & {"numpy", "numpy.ma", "scipy"})
print(json.dumps({"rc": rc, "loaded": heavy}))
"""

PUBLIC_NAMES = """
import json, sys
import stochord
after_import = "numpy" in sys.modules
unresolved = [n for n in stochord.__all__ if not hasattr(stochord, n)]
undir = sorted(set(stochord.__all__) - set(dir(stochord)))
print(json.dumps({"numpy_on_import": after_import, "unresolved": unresolved,
                  "not_in_dir": undir}))
"""


def fresh(code: str, *args: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def cli(argv: list[str]) -> dict:
    return fresh(RUN_CLI, json.dumps(argv))


@pytest.mark.parametrize("argv, rc", [
    (["--version"], 0),
    (["--help"], 0),
    (["galton", "--x", "x.csv"], 2),                  # argparse usage error
    (["simulate-table", "--case", "1", "--n", "10", "--reps", "1",
      "--alpha", "2"], 2),                            # option out of range
    (["bridge-lab", "--seed", "-1"], 2),              # negative seed
])
def test_front_end_loads_neither_numpy_nor_scipy(argv, rc):
    assert cli(argv) == {"rc": rc, "loaded": []}


@pytest.fixture
def samples(tmp_path):
    rng = np.random.default_rng(3)
    paths = []
    for name, loc in (("x.csv", 0.0), ("y.csv", 0.5)):
        path = tmp_path / name
        path.write_text("\n".join(map(repr, (loc + rng.standard_normal(30))
                                      .tolist())) + "\n")
        paths.append(str(path))
    return paths


@pytest.mark.parametrize("command", ["galton", "bridge-lab", "indices"])
def test_sample_commands_load_no_scipy(tmp_path, samples, command):
    x, y = samples
    argv = {
        "galton": ["galton", "--x", x, "--y", y],
        "bridge-lab": ["bridge-lab", "--mode", "occupation", "--paths", "5",
                       "--bridge-grid", "64"],
        "indices": ["indices", "--f", x, "--g", y, "--quantile-table"],
    }[command]
    assert cli(argv + ["--out", str(tmp_path / "out")]) == {
        "rc": 0, "loaded": ["numpy"]}


@pytest.mark.parametrize("argv", [
    ["test-gamma", "--B", "20"],
    ["test-gamma", "--B", "20", "--grid", "101"],
    ["simulate-table", "--case", "2", "--variant", "both", "--n", "20",
     "--reps", "2", "--B", "20", "--threads", "2"],
    ["simulate-table", "--case", "2", "--variant", "both", "--n", "20",
     "--reps", "2", "--B", "20", "--verify-nominal"],
])
def test_bootstrap_commands_load_no_scipy(tmp_path, samples, argv):
    # the normal quantile of the threshold test and the model CDFs of
    # the nominal gamma check come from stochord.special
    if argv[0] == "test-gamma":
        x, y = samples
        argv = argv + ["--x", x, "--y", y, "--gamma0", "0.3"]
    assert cli(argv + ["--out", str(tmp_path / "out")]) == {
        "rc": 0, "loaded": ["numpy"]}


@pytest.fixture
def models(tmp_path):
    paths = {}
    for name, desc in (("t1", {"kind": "t1", "ncp": 0.5}),
                       ("normal", {"kind": "normal", "mean": 13.13,
                                   "sd": 10.0}),
                       ("mixture", {"kind": "mixture", "components": [
                           {"w": 0.03, "mean": -4.0, "sd": 1.0},
                           {"w": 0.97, "mean": 1.0, "sd": 1.0}]})):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(desc))
    return {k: str(v) for k, v in paths.items()}


@pytest.mark.parametrize("command", ["indices-models", "indices-mixture",
                                     "indices-mixture-t1",
                                     "indices-sample-t1", "limit-gamma",
                                     "limit-pi"])
def test_model_commands_load_no_scipy(tmp_path, samples, models, command):
    f, g, mix = models["t1"], models["normal"], models["mixture"]
    argv = {
        "indices-models": ["indices", "--f", f, "--g", g, "--grid", "101",
                           "--quantile-table"],
        "indices-mixture": ["indices", "--f", g, "--g", mix, "--grid", "101"],
        "indices-mixture-t1": ["indices", "--f", mix, "--g", f,
                               "--grid", "101"],
        "indices-sample-t1": ["indices", "--f", samples[0], "--g", f,
                              "--grid", "101"],
        "limit-gamma": ["limit-law", "--index", "gamma", "--f", f, "--g", g,
                        "--n", "50", "--reps", "3"],
        "limit-pi": ["limit-law", "--index", "pi", "--f", f, "--g", g,
                     "--reps", "20"],
    }[command]
    assert cli(argv + ["--out", str(tmp_path / "out")]) == {
        "rc": 0, "loaded": ["numpy"]}


def test_public_names_resolve_on_demand():
    assert fresh(PUBLIC_NAMES) == {"numpy_on_import": False,
                                   "unresolved": [], "not_in_dir": []}


@pytest.mark.parametrize("module", sorted(
    m.name for m in pkgutil.iter_modules(stochord.__path__)))
def test_module_names_resolve(module):
    # a name removed from a module goes from its __all__ and from the
    # package's export table too
    mod = importlib.import_module(f"stochord.{module}")
    names = [*getattr(mod, "__all__", ()), *stochord._EXPORTS.get(module, ())]
    assert [n for n in names if not hasattr(mod, n)] == []


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        stochord.no_such_name
