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

    # rows that cannot be compared, on the real circuit2: K-MRE returns
    # (OK3=abnormal) 4.0 and (OK1=abnormal, OK2=abnormal) 2.0
    monkeypatch.undo()
    E = bench.Expected
    probe = bench.Scenario("probe", "circuit2", (("E", "low"),), (
        E("gbf", 1.0, bindings=(("OK1", "broken"),)),
        E("kmre", 1.0, rank=2),
        E("kmre", 4.0, 1e-9, bindings=(("OK1", "abnormal"),), rank=0),
        E("kmre", 2.0, 1e-9, bindings=(("OK1", "abnormal"),), rank=1),
    ))
    monkeypatch.setitem(bench.SCENARIOS, "probe", probe)
    report = bench.run_scenario("probe")
    assert [r.detail for r in report.rows] == [
        "candidate not found",
        "only 2 rows returned",
        "got (OK3=abnormal), want (OK1=abnormal)",
        "got (OK1=abnormal, OK2=abnormal), want (OK1=abnormal)",
    ]
    assert not any(r.passed for r in report.rows)
    assert [r.computed for r in report.rows] == [None, None, pytest.approx(4.0), pytest.approx(2.0)]
    assert "got          -  [candidate not found]" in report.text()

    unknown = bench.Scenario("unknown", "circuit2", (("E", "low"),), (E("mystery", 0.0),))
    monkeypatch.setitem(bench.SCENARIOS, "unknown", unknown)
    with pytest.raises(ValueError, match="unknown expectation kind 'mystery'"):
        bench.run_scenario("unknown")


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
