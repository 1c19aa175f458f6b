import json

import pytest

from bnexplain import bench
from bnexplain.model import parse_network, serialize_network, validate


def test_every_scenario_reproduces_its_goldens():
    for sid in bench.SCENARIO_IDS:
        report = bench.run_scenario(sid)
        assert report.rows, sid
        assert len(report.rows) == len(bench.SCENARIOS[sid].expected), sid
        assert report.passed, "\n" + report.text()


def test_unknown_ids_are_rejected():
    with pytest.raises(ValueError, match="unknown scenario"):
        bench.run_scenario("nonesuch")
    with pytest.raises(ValueError, match="unknown fixture"):
        bench.fixture("nonesuch")


def test_report_doc_structure():
    report = bench.run_scenario("circuit2")
    doc = report.doc()
    assert doc["scenario"] == "circuit2"
    assert doc["passed"] is True
    assert len(doc["rows"]) == len(report.rows)
    for row in doc["rows"]:
        assert set(row) == {"label", "expected", "tol", "computed", "delta",
                            "passed", "detail"}
    json.dumps(doc)  # must be serializable as-is


def test_report_text_structure():
    report = bench.run_scenario("academe")
    text = report.text()
    lines = text.splitlines()
    assert lines[0] == f"academe: {len(report.rows)}/{len(report.rows)} rows pass"
    assert all("ok" in line for line in lines[1:])


def test_failure_is_report_content_not_exception(monkeypatch):
    # a fixture whose numbers drift must produce FAIL rows, not crashes
    doc = json.loads(serialize_network(bench.fixture("circuit2")))
    for cpt in doc["cpts"]:
        if cpt["child"] == "OK3":
            cpt["rows"] = [0.4, 0.6]
    drifted = parse_network(json.dumps(doc))
    monkeypatch.setattr(bench, "fixture", lambda fid: drifted)
    report = bench.run_scenario("circuit2")
    assert not report.passed
    assert any(not r.passed for r in report.rows)
    assert "FAIL" in report.text()


def test_fixtures_are_valid_networks(nets):
    for fid, net in nets.items():
        assert validate(net) == [], fid


def test_scenario_table_is_consistent():
    assert set(bench.SCENARIO_IDS) == set(bench.SCENARIOS)
    for sid, sc in bench.SCENARIOS.items():
        assert sc.scenario_id == sid
        assert sc.fixture_id in bench.FIXTURE_IDS
        net = bench.fixture(sc.fixture_id)
        for var, state in sc.evidence:
            assert state in net.states(var)
