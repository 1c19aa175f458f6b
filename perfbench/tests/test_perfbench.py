"""Tests of the benchmark harness: generator, tracer, reference checks, contract.

    python3 -m pytest perfbench/tests -q
"""
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from bnexplain import bench, kmre, model

import netgen
import reference
import spans
import workloads

ROOT = Path(__file__).resolve().parents[2]
SYNTHETIC = (workloads.SynthTargets, workloads.SynthDeep)


@pytest.mark.parametrize("workload", SYNTHETIC)
def test_same_seed_gives_byte_identical_networks(workload):
    a, b, c = workload(7), workload(7), workload(8)
    for i in range(3):
        assert a.generate(i) == b.generate(i)
        assert a.generate(i)[0] != c.generate(i)[0]
        net_a, net_c = (model.parse_network(w.generate(i)[0]) for w in (a, c))
        assert [cpt.parents for cpt in net_a.cpts] == [cpt.parents for cpt in net_c.cpts]
    parents = [[cpt.parents for cpt in model.parse_network(a.generate(i)[0]).cpts]
               for i in range(3)]
    assert parents[0] != parents[1] != parents[2]


@pytest.mark.parametrize("workload", SYNTHETIC)
def test_generated_networks_are_valid_and_round_trip(workload):
    w = workload(3)
    shape = workload.SHAPE
    for i in range(3):
        text, evidence = w.generate(i)
        net = model.parse_network(text)
        assert model.validate(net) == []
        assert model.serialize_network(net) == text
        assert len(net.targets) == len(shape.target_cards)
        assert [net.card(t) for t in net.targets] == list(shape.target_cards)
        assert len(net.by_role("auxiliary")) == shape.n_aux
        assert sorted(evidence) == sorted(net.observations)
        assert len(evidence) == shape.n_obs
        _, hi = shape.fan_in
        for name in (*net.by_role("auxiliary"), *net.observations):
            assert len(net.parents(name)) <= hi


@pytest.mark.parametrize("workload", SYNTHETIC)
def test_every_target_can_explain_a_finding(workload):
    import networkx as nx
    for i in range(3):
        net, _ = netgen.generate(workload.SHAPE, f"paths:{i}", "p")
        g = net.graph()
        for t in net.targets:
            assert any(nx.has_path(g, t, f) for f in net.observations), t


@pytest.mark.parametrize("fixture_id, evidence, queries, candidates", [
    ("circuit", {"Input": "current", "TotalOutput": "current"}, 161, 80),
    ("vacation100", {"Alive": "dead"}, 611, 305),
])
def test_traced_k_mre_counts_are_pinned(fixture_id, evidence, queries, candidates):
    net = bench.fixture(fixture_id)
    tracer = spans.Tracer()
    with tracer.installed():
        tracer.current_op = 0
        kmre.k_mre(net, evidence)
    m = tracer.metrics()
    assert m["infer.query.calls"] == queries
    assert m["search.candidates_scored"] == candidates
    assert m["search.queries_per_candidate"] == queries / candidates


def test_tracer_wraps_every_binding_and_restores_them():
    from bnexplain import baselines, infer
    original = infer.query
    tracer = spans.Tracer()
    with tracer.installed():
        assert baselines.query is infer.query is not original
        assert infer.expand_cpt is model.expand_cpt
    assert infer.query is original and baselines.query is original


def test_self_time_excludes_children():
    net = bench.fixture("asia")
    tracer = spans.Tracer()
    with tracer.installed():
        tracer.current_op = 0
        kmre.k_mre(net, {"Dyspnea": "yes"})
    s = tracer.arrays()
    total = float((s["end"] - s["start"])[s["parent"] < 0].sum())
    m = tracer.metrics()
    self_sum = sum(v for k, v in m.items() if k.endswith(".self_s")
                   and not k.startswith("infer.contract"))
    assert math.isclose(self_sum, total, rel_tol=1e-9)


def test_reference_paths_agree(monkeypatch):
    shape = workloads.SynthTargets.SHAPE
    net, evidence = netgen.generate(shape, "agree", "agree")
    brute = reference.target_tables(net, evidence)
    monkeypatch.setattr(reference, "JOINT_CAP", 0)
    contracted = reference.target_tables(net, evidence)
    for a, b in zip(brute, contracted):
        assert a.shape == b.shape == tuple(shape.target_cards)
        assert a == pytest.approx(b, rel=1e-12)


@pytest.mark.parametrize("workload", SYNTHETIC)
def test_synthetic_checks_pass_and_catch_a_wrong_answer(workload, tmp_path):
    w = workload(5)
    bundle = tmp_path / "bundle.json"
    w.POOL = 1
    w.write_bundle(bundle)
    w.cases = w.load(bundle)
    ops = w.cycle(0)
    outs = [w.digest(op, w.run(op)) for op in ops]
    problems, run_problems = w.check(ops, outs)
    assert problems == [None] * len(ops) and run_problems == []

    b, kind, value, prior, post = outs[0][0]
    (kb, kkind, kvalue, kprior, kpost), *rest = outs[1][0]
    bad = [[(b, kind, value * 2, prior, post)],
           ([(kb, kkind, kvalue, kprior, kpost * (1 + 1e-6)), *rest], outs[1][1]),
           outs[2], outs[3], outs[4], {"broken": True}]
    problems, _ = w.check(ops, bad)
    assert [p is not None for p in problems] == [True, True, False, False, False, True]


def test_fixture_checks_use_goldens():
    w = workloads.FixturesCli(0)
    op = ("circuit", "kmre")
    code, text = w.run(op)
    doc = json.loads(text)
    assert code == 0
    assert workloads._golden_problem(doc["rows"], workloads._goldens(op)) is None
    doc["rows"][1]["score"] += 0.1
    assert workloads._golden_problem(doc["rows"], workloads._goldens(op)) is not None
    assert workloads._goldens(("circuit", "etree")) == []


def test_benchmark_json_names_metrics_the_harness_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    net = bench.fixture("circuit")
    tracer = spans.Tracer()
    with tracer.installed():
        tracer.current_op = 0
        kmre.k_mre(net, {"Input": "current", "TotalOutput": "current"})
    reported = set(tracer.metrics()) | {"trace.overhead_ratio"}
    assert {m["name"] for m in spec["per_layer"]} <= reported
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))


def test_harness_refuses_to_run_without_the_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fixtures-cli",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert res.returncode != 0
    assert res.stdout == ""
