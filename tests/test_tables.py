"""Explanation tables against the brute-force oracle.

Every method reads P(T) and P(T, e) over the unobserved targets. These tests
hold the numbers derived from those tables to `oracle.mass`, check that a
target bound by the evidence is never part of an explanation, and check that
the one-run tables CET reads agree with the two-run tables and refuse the
same inputs.
"""
import itertools
import math
import random

import pytest

import oracle
from test_properties import random_net
from bnexplain.baselines import causal_explanation_tree, explanation_tree, k_map, k_simp
from bnexplain.infer import ImpossibleEvidenceError, evidence_joint_tables, explanation_tables
from bnexplain.kmre import k_mre
from bnexplain.search import mre, score_all

# Evidence on a target: Tuberculosis is observed, so no explanation binds it.
ASIA_TE = {"Tuberculosis": "yes", "Dyspnea": "yes"}
FREE = ("LungCancer", "Bronchitis")


def _close(got, want):
    return got == pytest.approx(want, rel=1e-9, abs=1e-15)


def _check_tables(net, jt, evidence):
    pe = oracle.mass(net, jt, evidence)
    for row in score_all(net, evidence):
        x = row.assignment()
        assert not set(x) & set(evidence)
        assert _close(row.prior, oracle.mass(net, jt, x)), row.bindings
        assert _close(row.posterior, oracle.mass(net, jt, {**x, **evidence}) / pe), row.bindings
    free = [t for t in net.targets if t not in evidence]
    for row in k_map(net, evidence):
        x = row.assignment()
        assert sorted(x) == sorted(free)
        assert _close(row.value, oracle.mass(net, jt, {**x, **evidence})), row.bindings
        assert _close(row.prior, oracle.mass(net, jt, x)), row.bindings
    for row in k_simp(net, evidence):
        x = row.assignment()
        want = oracle.mass(net, jt, {**x, **evidence}) / oracle.mass(net, jt, x)
        assert _close(row.value, want), row.bindings


def test_table_numbers_match_oracle_on_fixtures(nets, joints, scenarios):
    for sid, fid, evidence in scenarios:
        _check_tables(nets[fid], joints[fid], evidence)


def test_table_numbers_match_oracle_on_random_networks():
    rng = random.Random(20261017)
    for i in range(12):
        net = random_net(rng, roles=True)
        obs = net.observations[0]
        evidence = {obs: rng.choice(net.states(obs))}
        if i % 2 and len(net.targets) > 1:
            t = rng.choice(net.targets)
            evidence[t] = rng.choice(net.states(t))
        _check_tables(net, oracle.joint(net), evidence)


# ---------------------------------------------------------------------------
# evidence on a target


def _candidates():
    for size in (1, 2):
        for combo in itertools.combinations(FREE, size):
            for states in itertools.product(("yes", "no"), repeat=size):
                yield dict(zip(combo, states))


def test_mre_and_kmre_skip_observed_targets(nets, joints):
    net, jt = nets["asia"], joints["asia"]
    want = {tuple(sorted(x.items())): oracle.gbf(net, jt, x, ASIA_TE) for x in _candidates()}
    rows = score_all(net, ASIA_TE)
    assert sorted(tuple(sorted(r.bindings)) for r in rows) == sorted(want)
    for r in rows:
        assert _close(r.value, want[tuple(sorted(r.bindings))]), r.bindings
    assert _close(mre(net, ASIA_TE).value, max(want.values()))
    res = k_mre(net, ASIA_TE)
    assert len(res.scored) == len(want)
    for r in res.rows:
        assert _close(r.value, want[tuple(sorted(r.bindings))]), r.bindings


def test_kmap_and_ksimp_skip_observed_targets(nets, joints):
    net, jt = nets["asia"], joints["asia"]
    joints_e = sorted((oracle.mass(net, jt, {**dict(zip(FREE, s)), **ASIA_TE})
                       for s in itertools.product(("yes", "no"), repeat=2)), reverse=True)
    rows = k_map(net, ASIA_TE)
    assert [r.variables for r in rows] == [FREE] * 3
    assert [r.value for r in rows] == pytest.approx(joints_e[:3], rel=1e-9)
    for r in k_simp(net, ASIA_TE):
        x = r.assignment()
        assert "Tuberculosis" not in x
        want = oracle.mass(net, jt, {**x, **ASIA_TE}) / oracle.mass(net, jt, x)
        assert _close(r.value, want), r.bindings


def _walk(node, branch=()):
    if node is None:
        return
    for b in node.branches:
        nb = branch + ((node.var, b.state),)
        yield dict(nb), b.label
        yield from _walk(b.child, nb)


def test_trees_skip_observed_targets(nets, joints):
    net, jt = nets["asia"], joints["asia"]
    pe = oracle.mass(net, jt, ASIA_TE)
    seen = 0
    for branch, label in _walk(explanation_tree(net, ASIA_TE)):
        assert "Tuberculosis" not in branch
        assert _close(label, oracle.mass(net, jt, {**branch, **ASIA_TE}) / pe), branch
        seen += 1
    assert seen >= 2
    seen = 0
    for branch, label in _walk(causal_explanation_tree(net, ASIA_TE)):
        assert "Tuberculosis" not in branch
        pbe = oracle.mass(net, jt, {**branch, **ASIA_TE})
        want = math.log(pbe / (oracle.mass(net, jt, branch) * pe)) if pbe > 0 else -math.inf
        assert label == pytest.approx(want, abs=1e-9), branch
        seen += 1
    assert seen >= 2


@pytest.mark.parametrize("method", [
    score_all, mre, k_mre, k_map, k_simp, explanation_tree, causal_explanation_tree])
def test_every_target_observed_is_refused(nets, method):
    evidence = {"Healthy": "healthy", "Location": "home", "Alive": "alive"}
    with pytest.raises(ValueError, match="unobserved target"):
        method(nets["vacation1"], evidence)


@pytest.mark.parametrize("method", [
    score_all, mre, k_mre, k_map, k_simp, explanation_tree, causal_explanation_tree])
def test_empty_evidence_is_refused(nets, method):
    # Every GBF is exactly 1 without evidence; a ranking would order round-off.
    with pytest.raises(ValueError, match="evidence must be nonempty"):
        method(nets["asia"], {})


@pytest.mark.parametrize("fid, evidence, error", [
    ("asia", {}, ValueError),
    ("vacation1", {"Healthy": "healthy", "Location": "home", "Alive": "alive"}, ValueError),
    ("asia", {"Nothing": "yes"}, ValueError),
    ("asia", {"Dyspnea": "maybe"}, ValueError),
    ("circuit", {"Input": "noCurr"}, ImpossibleEvidenceError),
], ids=["empty", "every-target-observed", "unknown-variable", "unknown-state", "impossible"])
def test_both_ways_of_building_the_tables_refuse_alike(nets, fid, evidence, error):
    refusals = []
    for build in (explanation_tables, evidence_joint_tables, causal_explanation_tree):
        with pytest.raises(error) as info:
            build(nets[fid], evidence)
        refusals.append((type(info.value), str(info.value)))
    assert refusals == [(error, refusals[0][1])] * 3


def test_one_run_tables_match_the_two_run_tables(nets, scenarios):
    for sid, fid, evidence in scenarios:
        want = explanation_tables(nets[fid], evidence)
        got = evidence_joint_tables(nets[fid], evidence)
        te = got.evidence_joint()
        assert te.scope == want.targets + tuple(sorted(evidence)), sid
        for name in ("prior", "joint"):
            g, w = getattr(got, name), getattr(want, name)
            assert g.scope == w.scope, sid
            assert g.values == pytest.approx(w.values, rel=1e-12, abs=1e-300), (sid, name)
        assert got.pe == pytest.approx(want.pe, rel=1e-12), sid
