import math

import pytest

import oracle
from bnexplain import baselines, infer
from bnexplain.baselines import (
    BaselineParams,
    TreeBranch,
    TreeNode,
    causal_explanation_tree,
    causal_flow,
    explanation_tree,
    k_map,
    k_simp,
    render_tree,
    tree_doc,
)
from bnexplain.infer import (
    ImpossibleEvidenceError,
    evidence_joint_tables,
    explanation_tables,
    likelihood,
    prob,
)
from bnexplain.kmre import k_mre
from bnexplain.search import mre
from bnexplain.model import DeterministicCpt, Network, TableCpt, Variable

CIRCUIT_E = {"Input": "current", "TotalOutput": "current"}


def _branch_map(node):
    return {b.state: (None if b.child is None else b.child.var) for b in node.branches}


def _labels(node):
    return {b.state: b.label for b in node.branches}


# ---------------------------------------------------------------------------
# K-MAP

def test_kmap_circuit(nets):
    rows = k_map(nets["circuit"], CIRCUIT_E)
    assert [r.bindings for r in rows] == [
        (("A", "ok"), ("B", "defective"), ("C", "defective"), ("D", "ok")),
        (("A", "defective"), ("B", "ok"), ("C", "ok"), ("D", "ok")),
        (("A", "ok"), ("B", "defective"), ("C", "ok"), ("D", "defective")),
    ]
    assert [r.value for r in rows] == pytest.approx([0.0128, 0.0099, 0.0082], abs=5e-5)


def test_kmap_bindings_follow_declaration_order(nets):
    cases = {"circuit": CIRCUIT_E, "academe": {"FinalMark": "fail"},
             "asia": {"Dyspnea": "yes"}}
    for fid, evidence in cases.items():
        declared = nets[fid].targets
        for row in k_map(nets[fid], evidence):
            assert row.variables == declared, fid


def test_kmap_academe_tie_breaks_by_prior(nets):
    rows = k_map(nets["academe"], {"FinalMark": "fail"}, k=4)
    assert [r.value for r in rows[:3]] == pytest.approx([0.0958, 0.0399, 0.03192], abs=5e-5)
    # ranks 3 and 4 have exactly equal joints; the higher prior wins
    assert rows[2].value == pytest.approx(rows[3].value, abs=1e-9)
    assert rows[2].bindings == (("Theory", "average"), ("Practice", "average"),
                                ("Extra", "no"), ("OtherFactors", "plus"))
    assert rows[2].prior == pytest.approx(0.042, abs=1e-9)
    assert rows[3].prior == pytest.approx(0.0336, abs=1e-9)
    assert rows[2].prior > rows[3].prior


def test_kmap_scores_are_joints(nets, joints):
    for row in k_map(nets["asia"], {"Dyspnea": "yes"}):
        want = oracle.mass(nets["asia"], joints["asia"],
                           {**row.assignment(), "Dyspnea": "yes"})
        assert row.value == pytest.approx(want, abs=1e-9)


def test_kmap_requires_targets(nets):
    net = Network(
        variables=(Variable("X", ("a", "b"), "observation"),),
        cpts=(TableCpt(child="X", parents=(), rows=(0.5, 0.5)),),
    )
    with pytest.raises(ValueError, match="target"):
        k_map(net, {"X": "a"})


def test_tiny_scores_rank_by_size():
    # joints and likelihoods far below 1e-10 must not tie
    net = Network(
        variables=(Variable("T", ("a", "b"), "target"),
                   Variable("O", ("y", "n"), "observation")),
        cpts=(TableCpt(child="T", parents=(), rows=(0.5, 0.5)),
              TableCpt(child="O", parents=("T",), rows=(1e-11, 1 - 1e-11, 2e-11, 1 - 2e-11))),
    )
    rows = k_map(net, {"O": "y"}, k=2)
    assert [r.bindings for r in rows] == [(("T", "b"),), (("T", "a"),)]
    assert [r.value for r in rows] == pytest.approx([1e-11, 5e-12], rel=1e-9)
    rows = k_simp(net, {"O": "y"}, BaselineParams(k=2))
    assert [r.bindings for r in rows] == [(("T", "b"),), (("T", "a"),)]
    assert [r.value for r in rows] == pytest.approx([2e-11, 1e-11], rel=1e-9)


# ---------------------------------------------------------------------------
# K-SIMP

def copied_target():
    """Target Y is a deterministic copy of target X and O observes Y, so K-MAP
    pads its rows with the impossible (X, Y) = (a, b) and (b, a)."""
    return Network(
        variables=(Variable("X", ("a", "b"), "target"), Variable("Y", ("a", "b"), "target"),
                   Variable("O", ("on", "off"), "observation")),
        cpts=(TableCpt(child="X", parents=(), rows=(0.5, 0.5)),
              DeterministicCpt(child="Y", parents=("X",), default_state="a",
                               exceptions=((("b",), "b"),)),
              TableCpt(child="O", parents=("Y",), rows=(0.9, 0.1, 0.2, 0.8))),
    )


def test_ksimp_circuit(nets):
    rows = k_simp(nets["circuit"], CIRCUIT_E)
    assert [r.bindings for r in rows] == [
        (("B", "defective"), ("D", "defective")),
        (("B", "defective"), ("C", "defective")),
        (("A", "defective"),),
    ]
    assert [r.value for r in rows] == pytest.approx([0.9818, 0.9683, 0.9014], abs=5e-5)


def test_ksimp_academe_dedups(nets):
    rows = k_simp(nets["academe"], {"FinalMark": "fail"})
    assert len(rows) == 2
    assert [r.value for r in rows] == pytest.approx([0.9600, 0.7260], abs=5e-5)
    assert rows[0].bindings == (("Extra", "no"), ("Theory", "bad"))
    assert rows[1].bindings == (("Practice", "average"), ("Theory", "average"))


def test_ksimp_asia_xray_dedups(nets):
    rows = k_simp(nets["asia"], {"XRay": "abnormal"})
    assert [r.bindings for r in rows] == [
        (("LungCancer", "yes"),), (("Tuberculosis", "no"),)]
    assert [r.value for r in rows] == pytest.approx([0.9800, 0.1012], abs=5e-5)


def test_ksimp_bindings_sorted_by_name(nets, scenarios):
    for sid, fid, evidence in scenarios:
        for row in k_simp(nets[fid], evidence):
            assert list(row.variables) == sorted(row.variables), sid


def test_ksimp_scores_are_likelihoods(nets):
    rows = k_simp(nets["circuit"], CIRCUIT_E)
    for row in rows:
        assert row.value == pytest.approx(
            likelihood(nets["circuit"], CIRCUIT_E, row.assignment()), abs=1e-12)


def test_ksimp_seeds_only_possible_map_rows():
    net, evidence = copied_target(), {"O": "on"}
    jt = oracle.joint(net)
    assert [r.value for r in k_map(net, evidence, k=4)][2:] == [0.0, 0.0]
    rows = k_simp(net, evidence, BaselineParams(k=4))
    # each possible MAP row keeps its likelihood without Y, the later-declared
    # of two equally good deletions
    assert [r.bindings for r in rows] == [(("X", "a"),), (("X", "b"),)]
    for r in rows:
        x = r.assignment()
        want = oracle.mass(net, jt, {**x, **evidence}) / oracle.mass(net, jt, x)
        assert r.value == pytest.approx(want, abs=1e-12)


def test_ksimp_honors_simplify_factor(nets):
    # a zero budget still allows deletions that keep the likelihood exactly
    full = k_map(nets["circuit2"], {"E": "low"}, k=1)[0]
    rows = k_simp(nets["circuit2"], {"E": "low"},
                  BaselineParams(simplify_factor=0.0, k=1))
    assert rows[0].value == pytest.approx(
        likelihood(nets["circuit2"], {"E": "low"}, full.assignment()), abs=1e-12)
    assert len(rows[0].bindings) < len(full.bindings)


# ---------------------------------------------------------------------------
# explanation trees

def test_et_circuit_shape(nets):
    node = explanation_tree(nets["circuit"], CIRCUIT_E)
    assert node.var == "A"
    assert node.criterion == pytest.approx(0.51894, abs=1e-4)
    assert _branch_map(node) == {"ok": "D", "defective": None}
    child = node.branches[0].child
    assert child.criterion == pytest.approx(0.47351, abs=1e-4)
    assert _branch_map(child) == {"ok": None, "defective": None}


def test_et_academe_shape(nets):
    node = explanation_tree(nets["academe"], {"FinalMark": "fail"})
    assert node.var == "Practice"
    assert node.criterion == pytest.approx(0.11582, abs=1e-4)
    assert _branch_map(node) == {"good": "Theory", "average": None, "bad": None}
    assert node.branches[0].child.criterion == pytest.approx(0.11408, abs=1e-4)


def test_et_vacation_shapes(nets):
    alive = explanation_tree(nets["vacation1"], {"Alive": "alive"})
    assert alive.var == "Location"
    assert alive.criterion == pytest.approx(0.18697, abs=1e-4)
    assert _branch_map(alive) == {"home": None, "hiking": "Healthy"}
    # with the dead observation the root criterion falls under the expansion
    # threshold, but the root itself is always installed
    dead = explanation_tree(nets["vacation1"], {"Alive": "dead"})
    assert dead.var == "Location"
    assert dead.criterion == pytest.approx(0.00345, abs=1e-4)
    big = explanation_tree(nets["vacation100"], {"Alive": "alive"})
    assert big.var == "Location"
    assert big.criterion == pytest.approx(0.25466, abs=1e-4)


def test_et_asia_shapes(nets):
    node = explanation_tree(nets["asia"], {"Dyspnea": "yes"})
    assert node.var == "Bronchitis"
    assert node.criterion == pytest.approx(0.01379, abs=1e-4)
    assert _branch_map(node) == {"yes": None, "no": None}
    assert _labels(node)["yes"] == pytest.approx(0.834, abs=5e-4)
    node = explanation_tree(nets["asia"], {"XRay": "abnormal"})
    assert node.var == "LungCancer"
    assert node.criterion == pytest.approx(0.04608, abs=1e-4)
    assert _labels(node) == pytest.approx({"yes": 0.4887, "no": 0.5113}, abs=5e-4)


def test_et_labels_are_branch_posteriors(nets):
    node = explanation_tree(nets["circuit"], CIRCUIT_E)
    for b in node.branches:
        want = prob(nets["circuit"], {node.var: b.state}, CIRCUIT_E)
        assert b.label == pytest.approx(want, abs=1e-9)


def test_et_thresholds_prune_children(nets):
    strict = explanation_tree(nets["circuit"], CIRCUIT_E,
                              BaselineParams(mi_threshold=10.0))
    assert strict.var == "A"
    assert all(b.child is None for b in strict.branches)
    walled = explanation_tree(nets["circuit"], CIRCUIT_E,
                              BaselineParams(branch_floor=1.0))
    assert all(b.child is None for b in walled.branches)


def test_et_impossible_evidence(nets):
    with pytest.raises(ImpossibleEvidenceError):
        explanation_tree(nets["circuit"], {"Input": "noCurr"})


# ---------------------------------------------------------------------------
# causal explanation trees

def test_cet_circuit_shape(nets):
    node = causal_explanation_tree(nets["circuit"], CIRCUIT_E)
    assert node.var == "A"
    assert node.criterion == pytest.approx(1.24842, abs=1e-4)
    assert _branch_map(node) == {"ok": "C", "defective": None}
    assert _labels(node) == pytest.approx({"ok": -0.4795, "defective": 3.1956}, abs=5e-4)
    child = node.branches[0].child
    assert child.criterion == pytest.approx(0.0480, abs=1e-4)
    assert _labels(child) == pytest.approx({"ok": -1.3259, "defective": 0.9641}, abs=5e-4)


def test_cet_vacation_shapes(nets):
    alive = causal_explanation_tree(nets["vacation1"], {"Alive": "alive"})
    assert alive.var == "Healthy"
    assert alive.criterion == pytest.approx(0.11771, abs=1e-4)
    assert _branch_map(alive) == {"healthy": None, "unhealthy": "Location"}
    assert _labels(alive) == pytest.approx({"healthy": 0.0518, "unhealthy": -0.2392},
                                           abs=5e-4)
    dead = causal_explanation_tree(nets["vacation1"], {"Alive": "dead"})
    assert dead.var == "Healthy"
    assert dead.criterion == pytest.approx(0.10253, abs=1e-4)
    assert _labels(dead) == pytest.approx({"healthy": -1.7918, "unhealthy": 1.4663},
                                          abs=5e-4)
    # the hundred-trail variant moves mass between locations but not through
    # the health mechanism, so the root is unchanged
    big = causal_explanation_tree(nets["vacation100"], {"Alive": "dead"})
    assert big.var == "Healthy"
    assert big.criterion == pytest.approx(0.10253, abs=1e-4)


def test_cet_academe_shape(nets):
    node = causal_explanation_tree(nets["academe"], {"FinalMark": "fail"})
    assert node.var == "Theory"
    assert node.criterion == pytest.approx(0.42118, abs=1e-4)
    assert _branch_map(node) == {"good": "Practice", "average": "Practice", "bad": "Extra"}
    assert _labels(node) == pytest.approx(
        {"good": -0.7867, "average": -0.1677, "bad": 0.6316}, abs=5e-4)


def test_cet_asia_shapes(nets):
    node = causal_explanation_tree(nets["asia"], {"Dyspnea": "yes"})
    assert node.var == "Bronchitis"
    assert node.criterion == pytest.approx(0.30059, abs=1e-4)
    assert _branch_map(node) == {"yes": None, "no": "LungCancer"}
    assert _labels(node) == pytest.approx({"yes": 0.6169, "no": -1.1977}, abs=5e-4)
    lc = node.branches[1].child
    assert _branch_map(lc) == {"yes": None, "no": "Tuberculosis"}

    node = causal_explanation_tree(nets["asia"], {"XRay": "abnormal"})
    assert node.var == "LungCancer"
    assert node.criterion == pytest.approx(1.52908, abs=1e-4)
    assert _branch_map(node) == {"yes": None, "no": "Tuberculosis"}
    assert _labels(node) == pytest.approx({"yes": 2.1844, "no": -0.6143}, abs=5e-4)


def test_cet_circuit2_root(nets):
    node = causal_explanation_tree(nets["circuit2"], {"E": "low"})
    assert node.var == "OK3"
    assert node.criterion == pytest.approx(0.35949, abs=1e-4)


def test_cet_labels_are_log_update_ratios(nets, joints):
    node = causal_explanation_tree(nets["asia"], {"Dyspnea": "yes"})
    net, jt = nets["asia"], joints["asia"]
    pe = oracle.prob(net, jt, {"Dyspnea": "yes"})
    for b in node.branches:
        pb = oracle.prob(net, jt, {node.var: b.state})
        pbe = oracle.mass(net, jt, {node.var: b.state, "Dyspnea": "yes"})
        assert b.label == pytest.approx(math.log(pbe / (pb * pe)), abs=1e-9)


def test_cet_flow_threshold_prunes(nets):
    node = causal_explanation_tree(nets["circuit"], CIRCUIT_E,
                                   BaselineParams(flow_threshold=100.0))
    assert node.var == "A"
    assert all(b.child is None for b in node.branches)


def _count_queries(monkeypatch) -> list:
    """Record the variables and the sorted cut names of every VE run made
    through infer.query."""
    calls = []
    real = infer.query

    def counted(network, variables=(), condition=None, *, _cut=()):
        calls.append((variables, tuple(sorted(_cut))))
        return real(network, variables, condition, _cut=_cut)

    monkeypatch.setattr(infer, "query", counted)
    monkeypatch.setattr(baselines, "query", counted)
    return calls


def _reaches_last_level(node, n, floor, depth=0) -> bool:
    """Whether ET chose a variable with one unused target left: the root when
    n == 1, else a branch binding n - 1 targets with P(branch | e) > floor."""
    if n == 1:
        return True
    if node is None:
        return False
    if depth == n - 2:
        return any(b.label > floor for b in node.branches)
    return any(_reaches_last_level(b.child, n, floor, depth + 1) for b in node.branches)


def _no_mutilate(monkeypatch):
    def refused(*args):
        raise AssertionError("a method copied the network to cut its arcs")

    monkeypatch.setattr(infer, "mutilate", refused)


def test_trees_make_a_fixed_number_of_ve_runs(monkeypatch, nets, scenarios):
    # CET: one P(T, E), which every root target shares, plus one outcome table
    # per unobserved target with parents, by a VE run that cuts that target's
    # arcs alone; no network is copied. ET: P(T) and P(T, e), plus P(T, E)
    # once some node reaches the last level.
    calls = _count_queries(monkeypatch)
    _no_mutilate(monkeypatch)
    et_runs = set()
    cet_runs = set()
    for params in (BaselineParams(), BaselineParams(mi_threshold=0.0, flow_threshold=0.0)):
        for sid, fid, evidence in scenarios:
            net = nets[fid]
            n = sum(t not in evidence for t in net.targets)
            children = sorted(t for t in net.targets if t not in evidence and net.parents(t))
            calls.clear()
            causal_explanation_tree(net, evidence, params)
            assert len(calls) == 1 + len(children), (sid, params)
            assert sorted(cut for _, cut in calls if cut) == [(t,) for t in children], \
                (sid, params)
            cet_runs.add(len(calls))
            calls.clear()
            tree = explanation_tree(net, evidence, params)
            assert len(calls) == 2 + _reaches_last_level(tree, n, params.branch_floor), \
                (sid, params)
            assert not any(cut for _, cut in calls), (sid, params)
            et_runs.add(len(calls))
    assert et_runs == {2, 3}
    assert cet_runs == {1, 2, 4}


@pytest.mark.parametrize("method", [mre, k_mre, k_map, k_simp])
def test_ranked_methods_make_two_ve_runs(monkeypatch, nets, scenarios, method):
    # P(T) and P(T, e) feed every number a ranked method reports.
    calls = _count_queries(monkeypatch)
    _no_mutilate(monkeypatch)
    for sid, fid, evidence in scenarios:
        calls.clear()
        method(nets[fid], evidence)
        assert len(calls) == 2, sid
        assert not any(cut for _, cut in calls), sid


def test_the_holder_builds_each_table_once(monkeypatch, nets):
    calls = _count_queries(monkeypatch)
    net, evidence = nets["vacation1"], {"Alive": "alive"}
    tables = explanation_tables(net, evidence)
    assert len(calls) == 2
    te = tables.evidence_joint()
    assert tables.evidence_joint() is te
    assert te.scope == ("Healthy", "Location", "Alive")
    assert tables.outcome("Healthy") is te  # a root: its prior cancels
    assert len(calls) == 3
    cut = tables.outcome("Location")
    assert tables.outcome("Location") is cut
    assert cut.scope == te.scope
    assert len(calls) == 4

    calls.clear()
    tables = evidence_joint_tables(net, evidence)
    assert tables.outcome("Healthy") is tables.evidence_joint()
    assert len(calls) == 1


def test_causal_flow_zero_without_directed_path(nets):
    # gate D cannot influence the other gates
    got = causal_flow(nets["circuit"], "D", ("A",), {}, CIRCUIT_E)
    assert got == pytest.approx(0.0, abs=1e-12)


def test_cet_impossible_evidence(nets):
    with pytest.raises(ImpossibleEvidenceError):
        causal_explanation_tree(nets["circuit"], {"Input": "noCurr"})


# ---------------------------------------------------------------------------
# rendering

def test_tree_doc_round_trips_shape(nets):
    node = explanation_tree(nets["circuit"], CIRCUIT_E)
    doc = tree_doc(node)
    assert doc["variable"] == "A"
    assert doc["criterion"] == node.criterion
    states = [b["state"] for b in doc["branches"]]
    assert states == ["ok", "defective"]
    assert doc["branches"][0]["child"]["variable"] == "D"
    assert tree_doc(None) is None


def test_render_tree_text(nets):
    node = causal_explanation_tree(nets["asia"], {"XRay": "abnormal"})
    text = render_tree(node)
    assert "LungCancer" in text and "Tuberculosis" in text
    assert "[criterion 1.5291]" in text
    assert render_tree(None) == "(empty)\n"


def test_render_tree_handles_infinite_labels():
    node = TreeNode(var="X", criterion=0.5,
                    branches=(TreeBranch(state="a", label=-math.inf, child=None),))
    assert "-inf" in render_tree(node)


def test_baseline_params_defaults():
    p = BaselineParams()
    assert p.simplify_factor == 0.05
    assert p.branch_floor == 0.0
    assert p.mi_threshold == 0.05
    assert p.flow_threshold == 0.01
    assert p.k == 3


def test_k_must_be_an_integer(nets):
    for k in (1.5, 2.0, True, "3", None):
        with pytest.raises(ValueError, match="k must be at least 1 and an integer"):
            k_map(nets["circuit"], CIRCUIT_E, k=k)
    for k in (2.5, 2.0, True, "3", None):
        with pytest.raises(ValueError, match="k must be at least 1 and an integer"):
            BaselineParams(k=k)


def test_k_below_one_is_rejected(nets):
    for k in (0, -1):
        with pytest.raises(ValueError, match="k must be at least 1"):
            k_map(nets["circuit"], CIRCUIT_E, k=k)
        with pytest.raises(ValueError, match="k must be at least 1"):
            BaselineParams(k=k)


@pytest.mark.parametrize("field", ["simplify_factor", "branch_floor", "mi_threshold",
                                   "flow_threshold", "k"])
def test_nan_field_is_rejected(field):
    with pytest.raises(ValueError, match=f"{field} must be a number"):
        BaselineParams(**{field: math.nan})


@pytest.mark.parametrize("field", ["simplify_factor", "branch_floor", "mi_threshold",
                                   "flow_threshold"])
@pytest.mark.parametrize("bad", ["0.1", None, [0.1]])
def test_non_numeric_threshold_is_rejected(field, bad):
    with pytest.raises(ValueError, match=f"{field} must be a number"):
        BaselineParams(**{field: bad})


@pytest.mark.parametrize("field", ["simplify_factor", "branch_floor"])
def test_fraction_outside_unit_interval_is_rejected(field):
    for bad in (-0.01, 1.01, 2.0, -math.inf, math.inf):
        with pytest.raises(ValueError, match=rf"{field} must lie in \[0, 1\]"):
            BaselineParams(**{field: bad})
    for ok in (0.0, 1.0):
        assert getattr(BaselineParams(**{field: ok}), field) == ok
