import json
import math
import time

import pytest

from bnexplain import bench
from bnexplain.cli import main
from bnexplain.model import parse_network, serialize_network
from test_baselines import copied_target


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# explain

def test_explain_kmre_table(capsys):
    code, out, err = run(capsys, "explain", "--fixture", "asia",
                         "--evidence", "Dyspnea=yes")
    assert code == 0, err
    assert "(Bronchitis=yes)" in out
    assert "6.1391" in out
    assert "Substantial" in out


def test_explain_every_method_runs(capsys):
    for method in ("mre", "kmre", "kmap", "ksimp", "etree", "cetree"):
        code, out, err = run(capsys, "explain", "--fixture", "circuit",
                             "--evidence", "Input=current",
                             "--evidence", "TotalOutput=current",
                             "--method", method)
        assert code == 0, (method, err)
        assert out.strip(), method


def test_explain_tree_output(capsys):
    code, out, _ = run(capsys, "explain", "--fixture", "circuit",
                       "--evidence", "Input=current",
                       "--evidence", "TotalOutput=current",
                       "--method", "cetree")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("A  [criterion 1.2484]")
    assert any("= defective" in line for line in lines)


def test_explain_json_round_trip(capsys):
    code, out, _ = run(capsys, "explain", "--fixture", "circuit2",
                       "--evidence", "E=low", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["method"] == "kmre"
    assert doc["evidence"] == {"E": "low"}
    assert doc["rows"][0]["explanation"] == {"OK3": "abnormal"}
    assert doc["rows"][0]["score"] == pytest.approx(4.0, abs=1e-9)
    assert doc["rows"][0]["strength"] == "Substantial"


def test_explain_tree_json(capsys):
    code, out, _ = run(capsys, "explain", "--fixture", "academe",
                       "--evidence", "FinalMark=fail", "--method", "etree",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["tree"]["variable"] == "Practice"
    assert [b["state"] for b in doc["tree"]["branches"]] == ["good", "average", "bad"]


def _strict_json(text):
    """json.loads that refuses the non-standard Infinity, -Infinity and NaN."""
    def refuse(token):
        raise ValueError(f"non-standard JSON constant {token}")
    return json.loads(text, parse_constant=refuse)


def _leaves(doc):
    if isinstance(doc, dict):
        for v in doc.values():
            yield from _leaves(v)
    elif isinstance(doc, list):
        for v in doc:
            yield from _leaves(v)
    else:
        yield doc


def test_explain_json_writes_infinite_labels_as_strings(capsys):
    code, out, _ = run(capsys, "explain", "--fixture", "circuit2",
                       "--evidence", "E=low", "--method", "cetree",
                       "--threshold-flow", "0", "--format", "json")
    assert code == 0
    leaves = list(_leaves(_strict_json(out)["tree"]))
    assert "-inf" in leaves
    assert not any(isinstance(x, float) and not math.isfinite(x) for x in leaves)


def test_explain_json_writes_infinite_scores_as_strings(capsys):
    code, out, _ = run(capsys, "explain", "--fixture", "circuit2",
                       "--evidence", "E=high", "--method", "mre", "--format", "json")
    assert code == 0
    row = _strict_json(out)["rows"][0]
    assert row["explanation"] == {"OK3": "ok"}
    assert row["score"] == "inf"
    assert row["posterior"] == 1.0
    code, out, _ = run(capsys, "explain", "--fixture", "circuit2",
                       "--evidence", "E=high", "--verbose", "--format", "json")
    assert code == 0
    doc = _strict_json(out)
    assert doc["rows"][0]["score"] == "inf"
    assert doc["pruned"] and all(p["winner_score"] == "inf" for p in doc["pruned"])


def test_explain_k_limits_rows(capsys):
    code, out, _ = run(capsys, "explain", "--fixture", "asia",
                       "--evidence", "Dyspnea=yes", "--k", "1", "--format", "json")
    assert code == 0
    assert len(json.loads(out)["rows"]) == 1


def test_explain_gbf_floor(capsys):
    code, out, _ = run(capsys, "explain", "--fixture", "circuit2",
                       "--evidence", "E=low", "--gbf-floor", "2.5",
                       "--format", "json")
    assert code == 0
    assert len(json.loads(out)["rows"]) == 1


def test_explain_verbose_lists_dominated(capsys):
    code, out, _ = run(capsys, "explain", "--fixture", "academe",
                       "--evidence", "FinalMark=fail", "--verbose")
    assert code == 0
    assert "pruned near the top:" in out
    assert "(Practice=bad)" in out
    assert "dominated (weak) by" in out
    code, out, _ = run(capsys, "explain", "--fixture", "academe",
                       "--evidence", "FinalMark=fail", "--verbose",
                       "--format", "json")
    doc = json.loads(out)
    assert any(p["explanation"] == {"Practice": "bad"} for p in doc["pruned"])


def test_explain_rejects_bad_evidence(capsys):
    code, _, err = run(capsys, "explain", "--fixture", "asia",
                       "--evidence", "Dyspnea=maybe")
    assert code == 1
    assert "Dyspnea=maybe" in err and "choices" in err
    code, _, err = run(capsys, "explain", "--fixture", "asia",
                       "--evidence", "Nothing=yes")
    assert code == 1
    assert "unknown variable" in err
    code, _, err = run(capsys, "explain", "--fixture", "asia",
                       "--evidence", "Dyspnea")
    assert code == 1
    assert "VAR=state" in err
    code, _, err = run(capsys, "explain", "--fixture", "asia",
                       "--evidence", "Dyspnea=yes", "--evidence", "Dyspnea=no")
    assert code == 1
    assert "conflicting" in err


def test_explain_rejects_k_below_one(capsys):
    for method in ("mre", "kmre", "kmap", "ksimp", "etree", "cetree"):
        for k in ("0", "-2"):
            code, out, err = run(capsys, "explain", "--fixture", "circuit",
                                 "--evidence", "Input=current", "--method", method,
                                 "--k", k)
            assert code == 1, (method, k)
            assert out == ""
            assert "k must be at least 1" in err


def test_explain_rejects_bad_thresholds(capsys):
    asia = ("explain", "--fixture", "asia", "--evidence", "Dyspnea=yes")
    for extra, message in (
            (("--method", "kmre", "--k", "10", "--gbf-floor", "nan"), "gbf_floor"),
            (("--method", "kmap", "--gbf-floor", "nan"), "gbf_floor"),
            (("--method", "etree", "--gbf-floor", "nan"), "gbf_floor"),
            (("--method", "ksimp", "--threshold-simplify", "2"), "simplify_factor"),
            (("--method", "ksimp", "--threshold-simplify", "nan"), "simplify_factor"),
            (("--method", "etree", "--threshold-branch", "-0.5"), "branch_floor"),
            (("--method", "etree", "--threshold-mi", "nan"), "mi_threshold"),
            (("--method", "cetree", "--threshold-flow", "nan"), "flow_threshold")):
        code, out, err = run(capsys, *asia, *extra)
        assert code == 1, extra
        assert out == ""
        assert message in err, extra


def test_explain_impossible_evidence_exit_code(capsys):
    code, _, err = run(capsys, "explain", "--fixture", "circuit",
                       "--evidence", "Input=noCurr")
    assert code == 2
    assert "probability 0" in err


def test_explain_loads_network_file(capsys, tmp_path):
    path = tmp_path / "net.json"
    path.write_text(serialize_network(bench.fixture("asia")))
    code, out, _ = run(capsys, "explain", "--network", str(path),
                       "--evidence", "Dyspnea=yes")
    assert code == 0
    assert "(Bronchitis=yes)" in out


def test_ksimp_skips_impossible_map_rows(capsys, tmp_path):
    # K-MAP pads k = 4 rows with two configurations of probability 0
    path = tmp_path / "copy.json"
    path.write_text(serialize_network(copied_target()))
    source = ("--network", str(path))
    assert run(capsys, "validate", *source)[0] == 0
    code, out, err = run(capsys, "explain", *source, "--method", "ksimp", "--k", "4",
                         "--evidence", "O=on")
    assert code == 0, err
    assert out.split() == ["1", "(X=a)", "0.9000", "2", "(X=b)", "0.2000"]


def test_explain_rejects_mistyped_network_file(capsys, tmp_path):
    # test_model covers each mistyped field; this checks the exit code
    doc = json.loads(serialize_network(bench.fixture("asia")))
    doc["variables"][0]["name"] = [1]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "explain", "--network", str(path),
                       "--evidence", "Dyspnea=yes")
    assert code == 1
    assert err == "error: variables[0].name must be a string\n"


def test_explain_requires_a_source(capsys):
    code, _, err = run(capsys, "explain", "--evidence", "Dyspnea=yes")
    assert code == 1
    assert "--fixture" in err or "--network" in err


# ---------------------------------------------------------------------------
# bench

def test_bench_all_passes(capsys):
    code, out, _ = run(capsys, "bench")
    assert code == 0
    assert f"{len(bench.SCENARIO_IDS)}/{len(bench.SCENARIO_IDS)} scenarios pass" in out


def test_bench_subset(capsys):
    code, out, _ = run(capsys, "bench", "circuit", "academe")
    assert code == 0
    assert out.startswith("circuit:")
    assert "academe:" in out
    assert "2/2 scenarios pass" in out


def test_bench_json(capsys):
    code, out, _ = run(capsys, "bench", "circuit2", "--format", "json")
    assert code == 0
    docs = json.loads(out)
    assert [d["scenario"] for d in docs] == ["circuit2"]
    assert docs[0]["passed"] is True


def test_bench_detects_drift(capsys, monkeypatch):
    doc = json.loads(serialize_network(bench.fixture("asia")))
    for cpt in doc["cpts"]:
        if cpt["child"] == "Bronchitis":
            cpt["rows"] = [0.5, 0.5, 0.5, 0.5]
    drifted = parse_network(json.dumps(doc))
    monkeypatch.setattr(bench, "fixture", lambda fid: drifted)
    code, out, _ = run(capsys, "bench", "asia-dyspnea")
    assert code == 3
    assert "FAIL" in out


def test_bench_unknown_id(capsys):
    code, _, err = run(capsys, "bench", "nonesuch")
    assert code == 1
    assert "unknown scenario" in err


# ---------------------------------------------------------------------------
# curve

def test_curve_stdout(capsys):
    code, out, _ = run(capsys, "curve", "--fixed-ratio", "2",
                       "--grid", "0.1:0.4:0.1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "prior,gbf"
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert values == pytest.approx([2.25, 8 / 3, 3.5, 6.0], abs=1e-6)


def test_curve_out_file(capsys, tmp_path):
    path = tmp_path / "curve.csv"
    code, out, _ = run(capsys, "curve", "--fixed-delta", "0.01",
                       "--grid", "0.5:0.5:1", "--out", str(path))
    assert code == 0
    assert out == ""
    assert path.read_text().splitlines()[1] == "0.500000,1.040816"


def test_curve_rejects_bad_requests(capsys):
    code, _, err = run(capsys, "curve", "--fixed-ratio", "2", "--grid", "oops")
    assert code == 1
    assert "bad grid" in err
    code, _, err = run(capsys, "curve", "--grid", "0.1:0.4:0.1")
    assert code == 1
    code, _, err = run(capsys, "curve", "--fixed-ratio", "2",
                       "--fixed-delta", "0.1", "--grid", "0.1:0.4:0.1")
    assert code == 1
    code, _, err = run(capsys, "curve", "--fixed-ratio", "3",
                       "--grid", "0.1:0.9:0.1")
    assert code == 1
    assert "outside" in err
    code, _, err = run(capsys, "curve", "--fixed-delta", "0.1",
                       "--grid", "nan:1:0.1")
    assert code == 1
    assert "bad grid" in err
    start = time.perf_counter()
    code, _, err = run(capsys, "curve", "--fixed-delta", "0.1",
                       "--grid", "0:0.5:1e-300")
    assert code == 1
    assert "more than" in err
    assert time.perf_counter() - start < 0.5


# ---------------------------------------------------------------------------
# validate / show

def test_validate_ok(capsys):
    code, out, _ = run(capsys, "validate", "--fixture", "asia")
    assert code == 0
    assert out.startswith("ok: 8 variables")
    assert "3 targets" in out


def test_validate_broken_network(capsys, tmp_path):
    doc = json.loads(serialize_network(bench.fixture("asia")))
    for cpt in doc["cpts"]:
        if cpt["child"] == "Smoking":
            cpt["rows"] = [0.7, 0.7]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    # parse itself refuses the bad rows, which also lands on exit 1
    code, _, err = run(capsys, "validate", "--network", str(path))
    assert code == 1
    assert "sum" in err


def test_show_table(capsys):
    code, out, _ = run(capsys, "show", "--fixture", "circuit2")
    assert code == 0
    assert "network: 8 variables" in out
    assert "OK3 [target]" in out.replace("  ", " ")
    assert "(deterministic)" in out


def test_show_json_parses_back(capsys):
    code, out, _ = run(capsys, "show", "--fixture", "vacation1",
                       "--format", "json")
    assert code == 0
    net = parse_network(out)
    assert net == bench.fixture("vacation1")


def test_show_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "show", "--network", str(tmp_path / "none.json"))
    assert code == 1
    assert "error:" in err
