import json
from pathlib import Path

import numpy as np
import pytest

from stochord import (GridSpec, Normal, NumericError, SeedSpec, galton_test,
                      index_report, pi_index)
from stochord import cli
from stochord.cli import emit_quantile_table, main
from stochord.io_utils import config_hash


def write_model(tmp_path, name, desc):
    path = tmp_path / name
    path.write_text(json.dumps(desc))
    return str(path)


@pytest.fixture
def normal_pair(tmp_path):
    f = write_model(tmp_path, "f.json", {"kind": "normal", "mean": 100,
                                         "sd": 10})
    g = write_model(tmp_path, "g.json", {"kind": "normal", "mean": 116,
                                         "sd": 20})
    return f, g


@pytest.fixture
def sample_pair(tmp_path):
    rng = np.random.default_rng(42)
    x = tmp_path / "x.csv"
    y = tmp_path / "y.csv"
    np.savetxt(x, rng.normal(0, 1, 40), fmt="%.17g")
    np.savetxt(y, rng.normal(0.5, 1.5, 40), fmt="%.17g")
    return str(x), str(y)


def test_indices_command_matches_library(tmp_path, normal_pair):
    f, g = normal_pair
    out = tmp_path / "out"
    assert main(["indices", "--f", f, "--g", g, "--out", str(out)]) == 0
    got = json.loads((out / "indices.json").read_text())
    ref = index_report(Normal(100, 10), Normal(116, 20)).to_json()
    for key in ("gamma", "rho", "pi", "vartheta", "epsilon"):
        assert got[key] == ref[key]
    prov = got["provenance"]
    assert prov["seed"] == 0
    assert prov["version"]
    assert prov["config_hash"]
    assert (out / "indices.csv").exists()
    assert (out / "run_info.json").exists()


def test_quantile_table_rows_and_endpoints(tmp_path, normal_pair):
    f, g = normal_pair
    out = tmp_path / "out"
    assert main(["indices", "--f", f, "--g", g, "--grid", "11",
                 "--quantile-table", "--out", str(out)]) == 0
    lines = (out / "quantile_table.csv").read_text().splitlines()
    assert len(lines) == 12  # header + one row per grid point
    first, last = lines[1].split(","), lines[-1].split(",")
    assert first[0] == "0.0" and first[1] == "-inf"
    assert last[0] == "1.0" and last[1] == "inf"
    assert first[3] == "0" and last[3] == "0"


def test_quantile_table_identical_models_indicator_zero():
    F = Normal(0, 1)
    header, rows = emit_quantile_table(F, F, GridSpec(101))
    assert header == ["t", "F_quantile", "G_quantile", "F_above_G"]
    assert len(rows) == 101
    assert all(r[3] == 0 for r in rows)


def test_failed_run_writes_no_report(tmp_path, normal_pair, capsys,
                                     monkeypatch):
    # the quantile table is computed after the indices: a failure there
    # leaves no indices.json behind either
    def fail(*args):
        raise NumericError("quantile table failed")

    monkeypatch.setattr(cli, "emit_quantile_table", fail)
    f, g = normal_pair
    out = tmp_path / "out"
    assert main(["indices", "--f", f, "--g", g, "--quantile-table",
                 "--out", str(out)]) == 4
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["error"] == "NumericError"
    assert list(out.iterdir()) == []


def test_indices_accepts_csv_models(tmp_path, sample_pair):
    x, y = sample_pair
    out = tmp_path / "out"
    assert main(["indices", "--f", x, "--g", y, "--out", str(out)]) == 0
    got = json.loads((out / "indices.json").read_text())
    assert got["tie_flag"] is False
    assert 0.0 <= got["gamma"] <= 1.0


def test_indices_and_test_gamma_report_the_same_gamma(tmp_path):
    # unequal sizes: the exact gamma is a multiple of 1/(37 * 53), which
    # no count on the quantile table's grid reproduces
    rng = np.random.default_rng(8)
    x, y = tmp_path / "x.csv", tmp_path / "y.csv"
    np.savetxt(x, rng.normal(0, 1, 37), fmt="%.17g")
    np.savetxt(y, rng.normal(0.3, 1.4, 53), fmt="%.17g")
    assert main(["indices", "--f", str(x), "--g", str(y),
                 "--out", str(tmp_path / "i")]) == 0
    assert main(["test-gamma", "--x", str(x), "--y", str(y), "--gamma0",
                 "0.2", "--B", "20", "--out", str(tmp_path / "t")]) == 0
    got = json.loads((tmp_path / "i" / "indices.json").read_text())
    ref = json.loads((tmp_path / "t" / "test_gamma.json").read_text())
    assert got["gamma"] == ref["estimate"]


def test_galton_command(tmp_path, sample_pair):
    x, y = sample_pair
    out = tmp_path / "out"
    assert main(["galton", "--x", x, "--y", y, "--out", str(out)]) == 0
    got = json.loads((out / "galton.json").read_text())
    xs = np.loadtxt(x)
    ys = np.loadtxt(y)
    ref = galton_test(xs, ys)
    assert got["count"] == ref.count
    assert got["p_value"] == ref.p_value
    assert got["n"] == 40


def test_test_gamma_command(tmp_path, sample_pair):
    x, y = sample_pair
    out = tmp_path / "out"
    assert main(["test-gamma", "--x", x, "--y", y, "--gamma0", "0.4",
                 "--B", "200", "--seed", "5", "--out", str(out)]) == 0
    got = json.loads((out / "test_gamma.json").read_text())
    assert got["gamma0"] == 0.4
    assert got["reject"] == (got["U"] < 0.4)
    assert got["U"] >= got["estimate"] >= got["V"]


def test_simulate_table_reports(tmp_path):
    out = tmp_path / "out"
    assert main(["simulate-table", "--case", "1", "--variant", "t",
                 "--gamma0", "0.05", "--n", "50", "--reps", "8",
                 "--B", "40", "--seed", "2", "--out", str(out)]) == 0
    table = json.loads((out / "table.json").read_text())
    assert len(table["cells"]) == 1
    cell = table["cells"][0]
    assert cell["scenario"] == "case1-t"
    assert cell["reps"] == 8
    layout = (out / "table_layout.csv").read_text().splitlines()
    assert layout[0] == "gamma0,n,case1-t"
    assert (out / "table_cells.csv").exists()


def test_simulate_table_thread_invariance_bytes(tmp_path):
    args = ["simulate-table", "--case", "2", "--variant", "mix",
            "--gamma0", "0.1", "--n", "40", "--reps", "6", "--B", "30",
            "--seed", "9"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--threads", "1", "--out", str(a)]) == 0
    assert main(args + ["--threads", "3", "--out", str(b)]) == 0
    for name in ("table.json", "table_cells.csv", "table_layout.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


MIXTURE = {"kind": "mixture", "components": [
    {"w": 0.03, "mean": -4.0, "sd": 1.0}, {"w": 0.97, "mean": 1.0, "sd": 1.0}]}
# the law N(0, 1), written as a mixture of two copies of it
MIXTURE_OF_TWINS = {"kind": "mixture", "components": [
    {"w": 0.5, "mean": 0, "sd": 1}, {"w": 0.5, "mean": 0, "sd": 1}]}

# one small configuration per subcommand; {f}/{g} are model files (a
# normal and a mixture), {x}/{y} sample CSVs
RERUN_CONFIGS = {
    "indices": ["indices", "--f", "{f}", "--g", "{g}", "--quantile-table"],
    "galton": ["galton", "--x", "{x}", "--y", "{y}"],
    "test-gamma": ["test-gamma", "--x", "{x}", "--y", "{y}", "--gamma0",
                   "0.3", "--B", "50"],
    "limit-law-gamma": ["limit-law", "--index", "gamma", "--f", "{f}",
                        "--g", "{g}", "--n", "100", "--reps", "5"],
    "limit-law-pi": ["limit-law", "--index", "pi", "--f", "{f}", "--g",
                     "{g}", "--reps", "50"],
    "bridge-lab-occupation": ["bridge-lab", "--mode", "occupation",
                              "--paths", "20", "--bridge-grid", "64"],
    "bridge-lab-nonconsistency": ["bridge-lab", "--mode", "nonconsistency",
                                  "--n", "100", "--reps", "10"],
    "simulate-table": ["simulate-table", "--case", "2", "--variant", "mix",
                       "--n", "40", "--reps", "4", "--B", "30"],
}


# the reports each configuration writes, besides run_info.json
RERUN_REPORTS = {
    "indices": {"indices.json", "indices.csv", "quantile_table.csv"},
    "galton": {"galton.json"},
    "test-gamma": {"test_gamma.json"},
    "limit-law-gamma": {"limit_law.json", "limit_draws.csv"},
    "limit-law-pi": {"limit_law.json", "limit_draws.csv"},
    "bridge-lab-occupation": {"bridge_lab.json", "occupation_hist.csv"},
    "bridge-lab-nonconsistency": {"nonconsistency.json",
                                  "nonconsistency_hist.csv"},
    "simulate-table": {"table.json", "table_cells.csv", "table_layout.csv"},
}


@pytest.mark.parametrize("name", list(RERUN_CONFIGS))
def test_rerun_reproduces_bytes(tmp_path, sample_pair, name):
    # every report but run_info.json is byte-identical across reruns
    x, y = sample_pair
    f = write_model(tmp_path, "f.json", {"kind": "normal", "mean": 0.0,
                                         "sd": 1.5})
    g = write_model(tmp_path, "g.json", MIXTURE)
    argv = [a.format(f=f, g=g, x=x, y=y) for a in RERUN_CONFIGS[name]]
    reports = []
    for out in (tmp_path / "a", tmp_path / "b"):
        assert main(argv + ["--seed", "7", "--out", str(out)]) == 0
        reports.append({p.name: p.read_bytes() for p in out.iterdir()
                        if p.name != "run_info.json"})
        assert (out / "run_info.json").exists()
    assert set(reports[0]) == RERUN_REPORTS[name]
    assert reports[0] == reports[1]
    # strict JSON: NaN and Infinity are not JSON, and no report may hold
    # them; every JSON report embeds the run's one provenance block
    provenance = [json.loads(data, parse_constant=_reject_constant)
                  ["provenance"] for name, data in reports[0].items()
                  if name.endswith(".json")]
    assert provenance
    for block in provenance:
        assert block == provenance[0]
        assert block["seed"] == block["config"]["seed"] == 7
        assert block["config"]["subcommand"] == argv[0]
        assert block["config_hash"] == config_hash(block["config"])


def _reject_constant(name):
    raise ValueError(f"non-finite constant {name} in a JSON report")


@pytest.mark.parametrize("content,code,error", [
    (b'{"kind": "normal", "mean": 0, "sd": 1\xff}', 3, "DataError"),
    (b'{"kind": "normal", "mean": "a", "sd": 1}', 3, "DataError"),
    (b'{"kind": "empirical", "values": [1, "x"]}', 3, "DataError"),
    (b'{"kind": "t1", "ncp": null}', 3, "DataError"),
    (b'{"kind": "mixture", "components": 5}', 3, "DataError"),
    (b'{"kind": "normal", "mean": 0, "sd": -1}', 2, "ParameterError"),
    (b'{"kind": "normal", "mean": 0, "sd": true}', 3, "DataError"),
    (b'{"kind": "normal", "mean": 0, "sd": "1.5"}', 3, "DataError"),
    (b'{"kind": "t1", "ncp": "0.5"}', 3, "DataError"),
    (b'{"kind": "mixture", "components": [{"w": true, "mean": 0, "sd": 1}]}',
     3, "DataError"),
    (b'{"kind": "empirical", "values": [true, "2", 3]}', 3, "DataError"),
    (b'{"kind": "empirical", "values": [1, "2", 3]}', 3, "DataError"),
    (b'{"kind": "normal", "mean": 0, "sd": 1e-320}', 2, "ParameterError"),
    (b'{"kind": "mixture", "components": [{"w": 1, "mean": 0, "sd": 1e-320}]}',
     2, "ParameterError"),
], ids=["not-utf8", "string-mean", "string-value", "null-ncp",
        "scalar-components", "negative-sd", "bool-sd", "numeric-string-sd",
        "numeric-string-ncp", "bool-weight", "bool-value",
        "numeric-string-value", "subnormal-sd", "subnormal-mixture-sd"])
def test_bad_model_file_exit_code(tmp_path, capsys, content, code, error):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    assert main(["indices", "--f", str(bad), "--g", str(bad),
                 "--out", str(tmp_path / "out")]) == code
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["error"] == error


def test_bridge_lab_occupation_files(tmp_path):
    out = tmp_path / "out"
    assert main(["bridge-lab", "--mode", "occupation", "--paths", "50",
                 "--bridge-grid", "64", "--subset", "0.2:0.6",
                 "--seed", "3", "--out", str(out)]) == 0
    got = json.loads((out / "bridge_lab.json").read_text())
    assert got["paths"] == 50
    assert got["subset"]["intervals"] == [[0.2, 0.6]]
    assert 0.0 <= got["mean"] <= 0.4
    hist = (out / "occupation_hist.csv").read_text().splitlines()
    assert len(hist) == 51


@pytest.mark.parametrize("subset", ["", ",", "0.5"])
def test_bridge_lab_rejects_a_subset_without_intervals(tmp_path, capsys,
                                                      subset):
    # an empty --subset is no interval list, not "no subset"
    out = tmp_path / "out"
    assert main(["bridge-lab", "--mode", "occupation", "--paths", "20",
                 "--bridge-grid", "64", "--subset", subset,
                 "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["error"] == "DomainError" and err["exit_code"] == 2
    assert list(out.iterdir()) == []


def test_bridge_lab_nonconsistency_files(tmp_path):
    out = tmp_path / "out"
    assert main(["bridge-lab", "--mode", "nonconsistency", "--n", "200",
                 "--reps", "20", "--seed", "3", "--out", str(out)]) == 0
    got = json.loads((out / "nonconsistency.json").read_text())
    assert got["reps"] == 20
    assert got["gamma_true"] == pytest.approx(1 / 3)
    assert (out / "nonconsistency_hist.csv").exists()


def test_limit_law_gamma_files(tmp_path, tmp_path_factory):
    f = write_model(tmp_path, "f.json", {"kind": "normal", "mean": 0,
                                         "sd": 1})
    g = write_model(tmp_path, "g.json", {"kind": "normal", "mean": 0,
                                         "sd": 2})
    out = tmp_path / "out"
    assert main(["limit-law", "--index", "gamma", "--f", f, "--g", g,
                 "--n", "200", "--reps", "10", "--seed", "4",
                 "--out", str(out)]) == 0
    got = json.loads((out / "limit_law.json").read_text())
    assert got["reference_variance"] == pytest.approx(0.625, abs=1e-12)
    draws = (out / "limit_draws.csv").read_text().splitlines()
    assert len(draws) == 11


@pytest.mark.parametrize("g", [MIXTURE_OF_TWINS, {"kind": "normal",
                                                   "mean": 0, "sd": 1}],
                         ids=["twin-mixture", "itself"])
def test_limit_law_gamma_rejects_coinciding_cdfs(tmp_path, capsys, g):
    # the quantiles agree on all of (0, 1): the nonconsistency regime,
    # where the plug-in has no normal limit
    f = write_model(tmp_path, "f.json", {"kind": "normal", "mean": 0,
                                         "sd": 1})
    g = write_model(tmp_path, "g.json", g)
    out = tmp_path / "out"
    assert main(["limit-law", "--index", "gamma", "--f", f, "--g", g,
                 "--n", "200", "--reps", "10", "--seed", "4",
                 "--out", str(out)]) == 4
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["error"] == "NumericError" and err["exit_code"] == 4
    assert not (out / "limit_law.json").exists()


@pytest.mark.parametrize("sample_as", ["f", "g"])
def test_limit_law_gamma_rejects_a_sample(tmp_path, capsys, sample_as):
    sample = tmp_path / "one.csv"
    sample.write_text("1.0\n")
    model = write_model(tmp_path, "normal.json", {"kind": "normal",
                                                  "mean": 0, "sd": 1})
    f, g = (sample, model) if sample_as == "f" else (model, sample)
    out = tmp_path / "out"
    assert main(["limit-law", "--index", "gamma", "--f", str(f),
                 "--g", str(g), "--n", "200", "--reps", "10",
                 "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["error"] == "DomainError" and err["exit_code"] == 2
    assert "two continuous models" in err["message"]
    assert not (out / "limit_law.json").exists()


def test_limit_law_pi_reports_contact_points(tmp_path):
    f = write_model(tmp_path, "f.json", {"kind": "normal", "mean": 0,
                                         "sd": 1})
    g = write_model(tmp_path, "g.json", {"kind": "normal", "mean": -1,
                                         "sd": 1.3})
    out = tmp_path / "out"
    assert main(["limit-law", "--index", "pi", "--f", f, "--g", g,
                 "--reps", "10", "--seed", "4", "--out", str(out)]) == 0
    got = json.loads((out / "limit_law.json").read_text())
    [point] = got["contact_points"]
    assert point["G"] - point["F"] == pytest.approx(
        pi_index(Normal(0, 1), Normal(-1, 1.3)), rel=0, abs=1e-15)
    assert "grid" not in got["provenance"]["config"]["options"]


@pytest.mark.parametrize("argv", [
    ["bridge-lab", "--mode", "occupation", "--paths", "1",
     "--bridge-grid", "64"],
    ["bridge-lab", "--mode", "nonconsistency", "--n", "100", "--reps", "1"],
    ["limit-law", "--index", "gamma", "--f", "{f}", "--g", "{g}",
     "--n", "100", "--reps", "1"],
    ["limit-law", "--index", "pi", "--f", "{f}", "--g", "{g}",
     "--reps", "1"],
], ids=["occupation", "nonconsistency", "limit-law-gamma", "limit-law-pi"])
def test_one_draw_is_a_usage_error(tmp_path, capsys, argv):
    # a report's sd or variance needs two draws; one used to write NaN
    f = write_model(tmp_path, "f.json", {"kind": "normal", "mean": 0.0,
                                         "sd": 1.5})
    g = write_model(tmp_path, "g.json", MIXTURE)
    out = tmp_path / "out"
    argv = [a.format(f=f, g=g) for a in argv]
    assert main(argv + ["--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["error"] == "DomainError"
    assert not any(p.suffix == ".json" for p in out.iterdir())


def test_limit_law_pi_zero_names_the_contact_set(tmp_path, capsys):
    f = write_model(tmp_path, "f.json", {"kind": "normal", "mean": 0,
                                         "sd": 1})
    assert main(["limit-law", "--index", "pi", "--f", f, "--g", f,
                 "--reps", "10", "--out", str(tmp_path / "out")]) == 2
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["error"] == "DomainError"
    assert "pi = 0" in err["message"]
    assert "contact point" in err["message"]


def test_exit_code_usage_errors(tmp_path, sample_pair, capsys):
    x, y = sample_pair
    code = main(["test-gamma", "--x", x, "--y", y, "--gamma0", "1.5",
                 "--out", str(tmp_path)])
    assert code == 2
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["error"] == "DomainError"
    assert err["exit_code"] == 2
    assert main(["test-gamma", "--x", x, "--y", y, "--gamma0", "0.5",
                 "--alpha", "1.0", "--out", str(tmp_path)]) == 2


def test_exit_code_data_errors(tmp_path, sample_pair, capsys):
    x, _ = sample_pair
    assert main(["galton", "--x", x, "--y", str(tmp_path / "nope.csv"),
                 "--out", str(tmp_path)]) == 3
    bad = tmp_path / "bad.csv"
    bad.write_text("1.0\n2.0\nabc\n")
    assert main(["galton", "--x", x, "--y", str(bad),
                 "--out", str(tmp_path)]) == 3
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert "line 3" in err["message"] or ":3" in err["message"]


def test_inputs_may_start_with_a_byte_order_mark(tmp_path, sample_pair,
                                                capsys):
    # spreadsheets' "CSV UTF-8" exports, and some editors' JSON, start
    # with one
    x, _ = sample_pair
    model = {"kind": "normal", "mean": 0.5, "sd": 1.5}
    plain = write_model(tmp_path, "g.json", model)
    marked = tmp_path / "g_bom.json"
    marked.write_text("\ufeff" + json.dumps(model), encoding="utf-8")
    marked_x = tmp_path / "x_bom.csv"
    marked_x.write_text("\ufeff" + Path(x).read_text(), encoding="utf-8")
    reports = []
    for f, g in ((x, plain), (marked_x, marked)):
        out = tmp_path / f"out{len(reports)}"
        assert main(["indices", "--f", str(f), "--g", str(g),
                     "--out", str(out)]) == 0
        got = json.loads((out / "indices.json").read_text())
        reports.append([got[k] for k in ("gamma", "rho", "pi", "epsilon")])
    assert reports[0] == reports[1]
    bad = tmp_path / "bad.csv"
    bad.write_text("\ufeff1.0\n2.0\nabc\n", encoding="utf-8")
    assert main(["galton", "--x", x, "--y", str(bad),
                 "--out", str(tmp_path)]) == 3
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["message"].endswith("bad.csv:3: cannot parse 'abc' as a float")


@pytest.mark.parametrize("argv, name", [
    (["galton", "--x", "{}", "--y", "{x}"], "d"),
    (["indices", "--f", "{}", "--g", "{x}"], "d"),
    (["indices", "--f", "{}", "--g", "{x}"], "d.json"),
], ids=["galton-csv", "indices-csv", "indices-json"])
def test_directory_input_is_a_data_error(tmp_path, sample_pair, capsys,
                                         argv, name):
    (tmp_path / name).mkdir()
    argv = [a.format(str(tmp_path / name), x=sample_pair[0]) for a in argv]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 3
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["error"] == "DataError"
    assert err["message"].startswith(f"{tmp_path / name}: cannot read")


@pytest.mark.parametrize("below", ["", "sub"], ids=["file", "under-a-file"])
def test_out_that_is_no_directory_is_a_usage_error(tmp_path, normal_pair,
                                                   capsys, below):
    (tmp_path / "taken").write_text("")
    out = tmp_path / "taken" / below
    assert main(["indices", "--f", normal_pair[0], "--g", normal_pair[1],
                 "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["error"] == "ParameterError"
    assert err["message"].startswith(f"--out {out}:")


def test_exit_code_numeric_error(tmp_path):
    # near-tangent pair: density gap at the crossing is below the
    # cleanliness threshold, an assumption violation
    f = write_model(tmp_path, "f.json", {"kind": "normal", "mean": 0,
                                         "sd": 1})
    g = write_model(tmp_path, "g.json", {"kind": "normal", "mean": 0,
                                         "sd": 1.000001})
    assert main(["limit-law", "--index", "gamma", "--f", f, "--g", g,
                 "--n", "100", "--reps", "5", "--out", str(tmp_path)]) == 4


def test_argparse_usage_exit_two(normal_pair):
    with pytest.raises(SystemExit) as exc:
        main(["indices", "--f", normal_pair[0]])  # --g missing
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["test-gamma", "--x", "{x}", "--y", "{y}", "--gamma0", "0.3",
     "--B", "20", "--seed", "-1"],
    ["simulate-table", "--case", "2", "--n", "20", "--reps", "2",
     "--B", "20", "--seed", "-1"],
    ["bridge-lab", "--paths", "5", "--bridge-grid", "64", "--seed", "-1"],
    ["limit-law", "--index", "pi", "--f", "{f}", "--g", "{g}",
     "--reps", "20", "--seed", "-1"],
], ids=["test-gamma", "simulate-table", "bridge-lab", "limit-law"])
def test_negative_seed_is_a_usage_error(tmp_path, sample_pair, normal_pair,
                                        capsys, argv):
    (x, y), (f, g) = sample_pair, normal_pair
    out = tmp_path / "out"
    argv = [a.format(x=x, y=y, f=f, g=g) for a in argv]
    assert main(argv + ["--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err == {"error": "DomainError", "exit_code": 2,
                   "message": "the seed must be nonnegative, got -1"}
    assert not out.exists()


@pytest.mark.parametrize("argv, option", [
    (["bridge-lab", "--mode", "occupation", "--paths", "20",
      "--bridge-grid", "64", "--n", "3"], "--n"),
    (["bridge-lab", "--paths", "20", "--bridge-grid", "64", "--reps", "7"],
     "--reps"),
    (["bridge-lab", "--mode", "nonconsistency", "--n", "100", "--reps", "10",
      "--paths", "20"], "--paths"),
    (["bridge-lab", "--mode", "nonconsistency", "--n", "100", "--reps", "10",
      "--bridge-grid", "64"], "--bridge-grid"),
    (["bridge-lab", "--mode", "nonconsistency", "--n", "100", "--reps", "10",
      "--subset", "0.2:0.6"], "--subset"),
    (["limit-law", "--index", "gamma", "--f", "{f}", "--g", "{g}",
      "--n", "100", "--reps", "5", "--lam", "0.3"], "--lam"),
    (["limit-law", "--f", "{f}", "--g", "{g}", "--n", "100", "--reps", "5",
      "--lam", "0.5"], "--lam"),
    (["limit-law", "--index", "pi", "--f", "{f}", "--g", "{g}",
      "--reps", "20", "--n", "100"], "--n"),
], ids=["occupation-n", "occupation-reps", "nonconsistency-paths",
        "nonconsistency-bridge-grid", "nonconsistency-subset",
        "gamma-lam", "default-gamma-lam", "pi-n"])
def test_option_the_mode_never_reads_is_a_usage_error(tmp_path, normal_pair,
                                                      capsys, argv, option):
    # given with its default value too: the mode would ignore it
    f, g = normal_pair
    out = tmp_path / "out"
    argv = [a.format(f=f, g=g) for a in argv]
    assert main(argv + ["--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["error"] == "ParameterError" and err["exit_code"] == 2
    assert err["message"].startswith(f"{option} is not read by --")
    assert not out.exists()


@pytest.mark.parametrize("argv, defaults", [
    (["bridge-lab", "--mode", "nonconsistency", "--n", "100", "--reps", "10"],
     {"paths": 10000, "bridge_grid": 2048, "subset": None}),
    (["bridge-lab", "--paths", "20", "--bridge-grid", "64"],
     {"mode": "occupation", "n": 10000, "reps": 2000}),
    (["limit-law", "--f", "{f}", "--g", "{g}", "--n", "100", "--reps", "5"],
     {"index": "gamma", "lam": 0.5}),
    (["limit-law", "--index", "pi", "--f", "{f}", "--g", "{g}",
      "--reps", "20"], {"n": 5000}),
], ids=["nonconsistency", "occupation", "limit-law-gamma", "limit-law-pi"])
def test_recorded_config_lists_unread_options_at_their_defaults(
        tmp_path, normal_pair, argv, defaults):
    f, g = normal_pair
    out = tmp_path / "out"
    assert main([a.format(f=f, g=g) for a in argv] + ["--out", str(out)]) == 0
    [report] = [p for p in out.glob("*.json") if p.name != "run_info.json"]
    options = json.loads(report.read_text())["provenance"]["config"]["options"]
    assert options.items() >= defaults.items()


@pytest.mark.parametrize("argv", [
    ["bridge-lab", "--mode", "occupation", "--paths", "300",
     "--bridge-grid", "256", "--subset", "0.1:0.3,0.5:0.9"],
    ["bridge-lab", "--mode", "nonconsistency", "--n", "500", "--reps", "40"],
    ["limit-law", "--index", "gamma", "--f", "{f}", "--g", "{g}",
     "--n", "300", "--reps", "30"],
], ids=["occupation", "nonconsistency", "limit-law-gamma"])
def test_replicate_commands_thread_invariance_bytes(tmp_path, argv):
    f = write_model(tmp_path, "f.json", {"kind": "normal", "mean": 0.0,
                                         "sd": 1.5})
    g = write_model(tmp_path, "g.json", MIXTURE)
    argv = [a.format(f=f, g=g) for a in argv] + ["--seed", "5"]
    reports = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        assert main(argv + ["--threads", threads, "--out", str(out)]) == 0
        reports.append({p.name: p.read_bytes() for p in out.iterdir()
                        if p.name != "run_info.json"})
    assert len(reports[0]) >= 2
    assert reports[0] == reports[1]


def test_bridge_grid_error_before_any_worker(tmp_path, capsys, monkeypatch):
    import concurrent.futures

    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
    out = tmp_path / "out"
    assert main(["bridge-lab", "--paths", "10", "--bridge-grid", "1000",
                 "--threads", "2", "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err == {"error": "DomainError", "exit_code": 2, "message":
                   "bridge grid size must be a power of two >= 2"}


def test_threads_defaults_to_the_core_count(monkeypatch):
    import os

    from stochord.cli import _build_parser
    monkeypatch.setattr(os, "cpu_count", lambda: 7)
    for argv in (["simulate-table", "--case", "1", "--n", "5", "--reps", "2"],
                 ["bridge-lab"], ["limit-law", "--f", "f", "--g", "g"]):
        assert _build_parser().parse_args(argv).threads == 7
