"""Query plans: a network keeps one plan per query shape.

`infer.query` stores, per (queried variables, set of conditioned names, set
of cut names), the CPTs it reads and its min-fill elimination order, and
reuses them when the same shape comes again with other states. `infer._plan`
computes both from the graph alone, before any CPT is lowered. A reused plan
must give the very bits a fresh network gives, and must never leak into
another network. A cut run must give the bits of the mutilated network.
"""
import itertools
import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from test_properties import _rel_eq, random_net
from bnexplain import bench, infer, model
from bnexplain.baselines import causal_explanation_tree, explanation_tree, k_map, k_simp
from bnexplain.infer import ImpossibleEvidenceError, mutilate, query
from bnexplain.kmre import k_mre
from bnexplain.model import parse_network, serialize_network
from bnexplain.search import mre


def _count_orderings(monkeypatch) -> list:
    """Record the keep set of every min-fill ordering made by infer.query."""
    calls = []
    real = infer._minfill_order

    def counted(scopes, keep):
        calls.append(frozenset(keep))
        return real(scopes, keep)

    monkeypatch.setattr(infer, "_minfill_order", counted)
    return calls


def test_ranked_methods_plan_two_shapes_per_network(monkeypatch, scenarios):
    # P(T) and P(T, e) are the only shapes the ranked methods ask; other
    # states of the same evidence variables ask them again.
    calls = _count_orderings(monkeypatch)
    for sid, fid, evidence in scenarios:
        net = bench.fixture(fid)
        calls.clear()
        for method in (mre, k_mre, k_map, k_simp):
            method(net, evidence)
        assert len(calls) == 2, sid
        names = sorted(evidence)
        for states in itertools.product(*(net.states(v) for v in names)):
            for method in (mre, k_mre, k_map, k_simp):
                try:
                    method(net, dict(zip(names, states)))
                except ImpossibleEvidenceError:
                    pass
        assert len(calls) == 2, sid


def test_a_new_network_plans_again(monkeypatch, scenarios):
    calls = _count_orderings(monkeypatch)
    _, fid, evidence = scenarios[0]
    for _ in range(2):
        k_map(bench.fixture(fid), evidence)
    assert len(calls) == 4


def test_cet_plans_each_cut_once_per_network(monkeypatch):
    # asia's three targets have parents: P(T, E) and one cut run per target
    # are planned on the first call, and the later calls plan nothing
    calls = _count_orderings(monkeypatch)
    net = bench.fixture("asia")
    counts = []
    for _ in range(3):
        calls.clear()
        causal_explanation_tree(net, {"Dyspnea": "yes"})
        counts.append(len(calls))
    assert counts == [4, 0, 0]
    assert sorted(sorted(cut) for _, _, cut in net._plans) == [
        [], ["Bronchitis"], ["LungCancer"], ["Tuberculosis"]]


def test_a_plan_needs_no_arrays(monkeypatch, scenarios):
    # every shape the 9 scenarios ask, CET's cut runs included
    asked = []
    real = infer._plan

    def recorded(network, variables, conditioned, cut):
        asked.append((network, (variables, conditioned, cut)))
        return real(network, variables, conditioned, cut)

    monkeypatch.setattr(infer, "_plan", recorded)
    for _, fid, evidence in scenarios:
        net = bench.fixture(fid)
        for method in (mre, k_mre, k_map, k_simp, explanation_tree, causal_explanation_tree):
            method(net, evidence)

    def no_arrays(*args):
        raise AssertionError("a plan lowered a CPT")

    for module, name in ((model, "expand_cpt"), (infer, "expand_cpt"), (infer, "cpt_factor")):
        monkeypatch.setattr(module, name, no_arrays)
    emptied = 0
    for network, shape in asked:
        assert real(network, *shape) == network._plans[shape], shape
        names, _ = network._plans[shape]
        emptied += any({*network.parents(n), n} <= shape[1] for n in names)
    # circuit's P(T, e) conditions on the root Input, whose CPT keeps no scope
    assert len(asked) > 9 * 2 and emptied
    # CET cuts each target with parents alone: Location, and asia's three
    cuts = {shape[2] for _, shape in asked}
    assert cuts == {frozenset(c) for c in ((), ("Location",), ("Tuberculosis",),
                                           ("LungCancer",), ("Bronchitis",))}


def test_loading_a_network_does_no_engine_work(monkeypatch):
    # set-up stays cheap: planning and lowering wait for the first query
    def refused(*args):
        raise AssertionError("loading a network did engine work")

    for module, name in ((infer, "_plan"), (infer, "_minfill_order"), (model, "expand_cpt"),
                         (infer, "expand_cpt"), (infer, "cpt_factor")):
        monkeypatch.setattr(module, name, refused)
    nets = [bench.fixture(fid) for fid in bench.FIXTURE_IDS]
    nets += [random_net(random.Random(seed), roles=seed % 2 == 1) for seed in range(20)]
    for net in nets:
        back = parse_network(serialize_network(net))
        assert back == net
        assert not net._plans and not back._plans


def _fresh(net):
    return parse_network(serialize_network(net))


def _oracle_query(net, joint, variables, condition):
    cells = itertools.product(*(net.states(v) for v in variables))
    return np.array([oracle.mass(net, joint, {**dict(zip(variables, c)), **condition})
                     for c in cells])


@st.composite
def _query_calls(draw, net):
    """Calls drawn from a few shapes, each asked with several states and
    with its variables in any order."""
    names = list(net.names())
    shapes = []
    for _ in range(draw(st.integers(1, 3))):
        picked = draw(st.permutations(names))
        nv = draw(st.integers(0, len(names)))
        nc = draw(st.integers(0, len(names) - nv))
        shapes.append((picked[:nv], picked[nv:nv + nc]))
    calls = []
    for _ in range(draw(st.integers(2, 8))):
        variables, conditioned = draw(st.sampled_from(shapes))
        if draw(st.booleans()):
            variables = draw(st.permutations(variables))
        condition = {v: draw(st.sampled_from(net.states(v))) for v in conditioned}
        calls.append((tuple(variables), condition))
    return calls


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 2 ** 32 - 1), st.data())
def test_reused_plans_give_the_bits_of_a_fresh_network(seed, data):
    net = random_net(random.Random(seed))
    joint = oracle.joint(net)
    for variables, condition in data.draw(_query_calls(net)):
        got = query(net, variables, condition)
        want = query(_fresh(net), variables, condition)
        assert got.scope == want.scope == variables
        assert np.array_equal(got.values, want.values), (variables, condition)
        exact = _oracle_query(net, joint, variables, condition)
        assert all(_rel_eq(a, b) for a, b in zip(got.values.ravel(), exact))


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 2 ** 32 - 1), st.data())
def test_a_cut_run_gives_the_bits_of_the_mutilated_network(seed, data):
    net = random_net(random.Random(seed))
    names = net.names()
    for variables, condition in data.draw(_query_calls(net)):
        drawn = data.draw(st.sets(st.sampled_from(names)))
        conditioned = list(condition)[:1]
        # the last variable is no CPT's parent; a conditioned one is cut too
        for cut in (drawn, {names[-1]}, set(conditioned)):
            got = query(net, variables, condition, _cut=cut)
            want = query(mutilate(net, cut), variables, condition)
            assert got.scope == want.scope == variables
            assert np.array_equal(got.values, want.values), (variables, condition, cut)
            again = query(net, variables, condition, _cut=sorted(cut, reverse=True))
            assert np.array_equal(again.values, got.values)
            fresh = query(_fresh(net), variables, condition, _cut=cut)
            assert np.array_equal(fresh.values, got.values)
        for v in conditioned:
            # normalised, the cut run is the distribution under do(v = s)
            got = query(net, variables, condition, _cut=(v,)).values.ravel()
            want = _oracle_query(net, oracle.do_joint(net, v, condition[v]), variables, condition)
            assert all(_rel_eq(a, b) for a, b in zip(got / got.sum(), want / want.sum()))


def _fill_plans(net):
    names = net.names()
    for i, v in enumerate(names):
        query(net, names[:i] + names[i + 1:])
        for s in net.states(v):
            query(net, names[:i] + names[i + 1:], {v: s})
            query(net, (), {v: s})


@pytest.mark.parametrize("seed", range(8))
def test_mutilate_after_filled_plans_matches_the_oracle(seed):
    net = random_net(random.Random(seed))
    _fill_plans(net)
    names = net.names()
    for v in names:
        cut = mutilate(net, (v,))
        others = tuple(u for u in names if u != v)
        for s in net.states(v):
            got = query(cut, others, {v: s}).values.ravel()
            got = got / got.sum()
            want = _oracle_query(net, oracle.do_joint(net, v, s), others, {})
            assert all(_rel_eq(a, b) for a, b in zip(got, want)), (seed, v, s)


def test_plans_leave_equality_hashing_and_pickling_alone():
    net = random_net(random.Random(5))
    twin = _fresh(net)
    _fill_plans(net)
    assert net._plans and not twin._plans
    assert net == twin and hash(net) == hash(twin)
    for copy in (pickle.loads(pickle.dumps(net)), pickle.loads(pickle.dumps(twin))):
        assert copy == net and hash(copy) == hash(net)
        for variables, condition in [(net.names()[1:], {}), ((), {"V0": "s1"}),
                                     (net.names()[:1], {net.names()[-1]: "s0"})]:
            assert np.array_equal(query(copy, variables, condition).values,
                                  query(twin, variables, condition).values)
