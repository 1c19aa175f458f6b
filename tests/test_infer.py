import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from test_properties import random_net
from bnexplain import infer
from bnexplain.infer import (
    Factor,
    ImpossibleEvidenceError,
    _minfill_order,
    brute_force_joint,
    explanation_tables,
    likelihood,
    marginal,
    mutilate,
    prob,
    query,
    sum_to,
    table_mutual_information,
)
from bnexplain.baselines import causal_flow
from bnexplain.model import DeterministicCpt, Network, TableCpt, Variable, validate


def _roots(net):
    return [n for n in net.names() if not net.parents(n)]


# ---------------------------------------------------------------------------
# variable elimination vs enumeration

def test_evidence_probability_matches_oracle(nets, joints, scenarios):
    for sid, fid, evidence in scenarios:
        ve = query(nets[fid], (), evidence).item()
        enum = oracle.prob(nets[fid], joints[fid], evidence)
        assert ve == pytest.approx(enum, abs=1e-9), sid


def test_posterior_marginals_match_oracle(nets, joints, scenarios):
    for sid, fid, evidence in scenarios:
        net = nets[fid]
        for name in net.names():
            if name in evidence:
                continue
            f = marginal(net, (name,), evidence)
            for i, state in enumerate(net.states(name)):
                enum = oracle.prob(net, joints[fid], {name: state}, evidence)
                assert f.values[i] == pytest.approx(enum, abs=1e-9), (sid, name, state)


def test_joint_assignments_match_oracle(nets, joints):
    cases = [
        ("asia", {"Tuberculosis": "yes", "Bronchitis": "yes"}, {"Dyspnea": "yes"}),
        ("asia", {"LungCancer": "no"}, {"XRay": "abnormal", "Smoking": "yes"}),
        ("circuit", {"A": "defective", "C": "defective"},
         {"Input": "current", "TotalOutput": "noCurr"}),
        ("academe", {"Theory": "bad", "Practice": "average"}, {"FinalMark": "fail"}),
        ("circuit2", {"OK1": "abnormal", "OK2": "abnormal"}, {"E": "low"}),
        ("vacation1", {"Healthy": "unhealthy", "Location": "hiking"}, {"Alive": "dead"}),
    ]
    for fid, x, e in cases:
        got = prob(nets[fid], x, e)
        want = oracle.prob(nets[fid], joints[fid], x, e)
        assert got == pytest.approx(want, abs=1e-9), (fid, x, e)


def test_brute_force_joint_equals_oracle_table(nets, joints):
    for fid in ("asia", "circuit", "academe", "circuit2", "vacation1"):
        net = nets[fid]
        f = brute_force_joint(net)
        assert f.scope == net.names()
        flat = f.values.ravel()
        assert flat.sum() == pytest.approx(1.0, abs=1e-9)
        for i, config in enumerate(itertools.product(*[net.states(n) for n in net.names()])):
            assert flat[i] == pytest.approx(joints[fid][config], abs=1e-12), (fid, config)


def test_brute_force_joint_two_node_product():
    net = Network(
        variables=(Variable("A", ("a0", "a1")), Variable("B", ("b0", "b1"))),
        cpts=(TableCpt(child="A", parents=(), rows=(0.3, 0.7)),
              TableCpt(child="B", parents=("A",), rows=(0.9, 0.1, 0.2, 0.8))),
    )
    f = brute_force_joint(net)
    assert f.values.ravel() == pytest.approx(
        [0.3 * 0.9, 0.3 * 0.1, 0.7 * 0.2, 0.7 * 0.8], abs=1e-15)


def test_brute_force_joint_cap(nets):
    with pytest.raises(ValueError, match="cap"):
        brute_force_joint(nets["asia"], cap=4)


def test_marginal_from_joint_equals_elimination(nets):
    net = nets["circuit"]
    idx = net.names().index("TotalOutput")
    axes = tuple(i for i in range(len(net.names())) if i != idx)
    from_joint = brute_force_joint(net).values.sum(axis=axes)
    ve = marginal(net, ("TotalOutput",)).values
    assert ve == pytest.approx(from_joint, abs=1e-9)


@settings(deadline=None, max_examples=150)
@given(st.integers(0, 2**32 - 1))
def test_query_equals_the_oracle_on_random_subsets(seed):
    # Variables outside the query, the condition and their ancestors are
    # barren; random subsets of random DAGs leave many of them, or none.
    rng = random.Random(seed)
    net = random_net(rng, max_vars=6)
    jt = oracle.joint(net)
    names = net.names()
    variables = tuple(rng.sample(names, rng.randint(0, min(3, len(names)))))
    rest = [v for v in names if v not in variables]
    condition = {v: rng.choice(net.states(v))
                 for v in rng.sample(rest, rng.randint(0, min(2, len(rest))))}
    f = query(net, variables, condition)
    assert f.scope == variables
    for config in itertools.product(*(net.states(v) for v in variables)):
        got = f.values[tuple(net.states(v).index(s) for v, s in zip(variables, config))]
        want = oracle.mass(net, jt, {**dict(zip(variables, config)), **condition})
        assert math.isclose(got, want, rel_tol=1e-12), (variables, condition, config)


def test_a_query_with_nothing_to_read_is_exactly_one(nets):
    for fid, net in nets.items():
        assert query(net, ()).item() == 1.0, fid
        assert prob(net, {}) == 1.0, fid


def test_tables_lower_only_the_relevant_cpts(monkeypatch, nets):
    lowered = []
    expand_cpt = infer.expand_cpt

    def counted(network, cpt):
        lowered.append(cpt.child)
        return expand_cpt(network, cpt)

    monkeypatch.setattr(infer, "expand_cpt", counted)
    explanation_tables(nets["asia"], {"XRay": "abnormal"})
    # P(T, e): XRay and its ancestors (7 CPTs); P(T): the 3 targets and
    # Smoking, plus VisitAsia for Tuberculosis (5). Dyspnea is never read.
    assert len(lowered) == 12
    assert "Dyspnea" not in lowered


def test_sum_to_refuses_names_it_cannot_use(nets):
    net = nets["asia"]
    joint = explanation_tables(net, {"XRay": "abnormal"}).joint
    assert joint.scope == ("Tuberculosis", "LungCancer", "Bronchitis")
    cases = [
        ((), {"Nope": "x"}, "'Nope' is not in the factor's scope"),
        ((), {"Smoking": "yes"}, "'Smoking' is not in the factor's scope"),
        ((), {"Bronchitis": "maybe"}, "'maybe' is not a state of 'Bronchitis'"),
        (("XRay",), {}, "'XRay' is not in the factor's scope"),
        (("Bronchitis",), {"Bronchitis": "yes"}, "'Bronchitis' is both kept and bound"),
        (("LungCancer", "LungCancer"), {}, "'LungCancer' is kept twice"),
    ]
    for keep, at, match in cases:
        with pytest.raises(ValueError, match=match):
            sum_to(net, joint, keep, at)
    both = sum_to(net, joint, ("Bronchitis", "LungCancer"), {"Tuberculosis": "no"})
    assert both.shape == (2, 2)
    assert both.sum() == pytest.approx(float(sum_to(net, joint, at={"Tuberculosis": "no"})))


# ---------------------------------------------------------------------------
# elimination order

# Short names so that fill counts tie often; the tie-break is by name.
_NAMES = ("A", "B", "C", "D", "E", "F", "G", "H", "I", "J", "K", "L", "M", "AA", "B1")


@settings(deadline=None, max_examples=300)
@given(scopes=st.lists(st.lists(st.sampled_from(_NAMES), max_size=6, unique=True), max_size=16),
       evidence=st.sets(st.sampled_from(_NAMES)), keep=st.sets(st.sampled_from(_NAMES)))
def test_minfill_order_equals_the_recounting_oracle(scopes, evidence, keep):
    restricted = [tuple(v for v in sc if v not in evidence) for sc in scopes]
    assert _minfill_order(restricted, keep) == oracle.minfill_order(restricted, keep)


def test_minfill_order_equals_the_oracle_on_scenarios(nets, scenarios):
    for sid, fid, evidence in scenarios:
        net = nets[fid]
        scopes = [tuple(v for v in net.parents(n) + (n,) if v not in evidence)
                  for n in net.names()]
        for keep in (set(), set(net.targets) - set(evidence)):
            assert _minfill_order(scopes, keep) == oracle.minfill_order(scopes, keep), sid


# ---------------------------------------------------------------------------
# conditional probabilities and likelihoods

def test_posteriors_after_circuit_failure(nets):
    net = nets["circuit"]
    e = {"Input": "current", "TotalOutput": "current"}
    want = {"A": 0.391, "B": 0.649, "C": 0.446, "D": 0.301}
    for gate, p in want.items():
        assert prob(net, {gate: "defective"}, e) == pytest.approx(p, abs=5e-4), gate


def test_conditioning_on_itself(nets):
    assert prob(nets["asia"], {"Smoking": "yes"}, {"Smoking": "yes"}) == pytest.approx(1.0, abs=1e-12)


def test_asia_posterior_vs_oracle(nets, joints):
    got = prob(nets["asia"], {"Bronchitis": "yes"}, {"Dyspnea": "yes"})
    want = oracle.prob(nets["asia"], joints["asia"], {"Bronchitis": "yes"}, {"Dyspnea": "yes"})
    assert got == pytest.approx(want, abs=1e-9)


def test_likelihood_examples(nets):
    assert likelihood(nets["circuit2"], {"E": "low"}, {"OK3": "abnormal"}) == pytest.approx(1.0, abs=1e-9)
    full_bad = {"Theory": "bad", "Practice": "bad", "Extra": "no", "OtherFactors": "minus"}
    assert likelihood(nets["academe"], {"FinalMark": "fail"}, full_bad) == pytest.approx(1.0, abs=1e-9)


def test_likelihood_of_full_parent_instantiation_is_cpt_product(nets):
    # evidence variables whose parents are all pinned: the likelihood reads
    # straight off the CPT rows
    net = nets["asia"]
    cond = {"TbOrCa": "yes", "Bronchitis": "yes"}
    got = likelihood(net, {"XRay": "abnormal", "Dyspnea": "yes"}, cond)
    assert got == pytest.approx(0.98 * 0.9, abs=1e-12)


def test_likelihood_zero_prior_assignment_raises(nets):
    with pytest.raises(ValueError, match="probability 0"):
        likelihood(nets["circuit"], {"TotalOutput": "current"}, {"Input": "noCurr"})


def test_bayes_consistency(nets, scenarios):
    # P(x|e) P(e) == P(e|x) P(x) on a target binding from every scenario
    for sid, fid, evidence in scenarios:
        net = nets[fid]
        target = net.targets[0]
        x = {target: net.states(target)[0]}
        pe = query(net, (), evidence).item()
        px = query(net, (), x).item()
        lhs = prob(net, x, evidence) * pe
        rhs = likelihood(net, evidence, x) * px
        assert lhs == pytest.approx(rhs, abs=1e-9), sid


def test_impossible_evidence_raises(nets):
    with pytest.raises(ImpossibleEvidenceError):
        prob(nets["circuit"], {"B": "defective"}, {"Input": "noCurr"})
    with pytest.raises(ImpossibleEvidenceError):
        marginal(nets["circuit"], ("B",), {"Input": "noCurr"})


def test_probabilities_in_unit_interval(nets, scenarios):
    for sid, fid, evidence in scenarios:
        net = nets[fid]
        for name in net.names():
            if name in evidence:
                continue
            vals = marginal(net, (name,), evidence).values
            assert (vals >= 0.0).all() and (vals <= 1.0 + 1e-12).all(), (sid, name)


# ---------------------------------------------------------------------------
# factor plumbing

def test_scalar_factor_item():
    with pytest.raises(ValueError, match="scalar"):
        Factor(("X",), np.array([0.5, 0.5])).item()


def test_query_rejects_overlap(nets):
    with pytest.raises(ValueError, match="queried and conditioned"):
        query(nets["asia"], ("Smoking",), {"Smoking": "yes"})
    with pytest.raises(ValueError, match="queried twice"):
        query(nets["asia"], ("Smoking", "XRay", "Smoking"))


# ---------------------------------------------------------------------------
# interventions

def _point_mass(net, var, state):
    """net with var's CPT replaced by a point mass at state, built by hand."""
    rows = tuple(1.0 if s == state else 0.0 for s in net.states(var))
    cpts = tuple(TableCpt(child=var, parents=(), rows=rows) if c.child == var else c
                 for c in net.cpts)
    return Network(variables=net.variables, cpts=cpts)


def _do(net, event, intervention):
    """P(event | do(intervention)) by surgery and conditioning."""
    return prob(mutilate(net, intervention), event, intervention)


def test_root_intervention_equals_conditioning(nets):
    for fid, net in nets.items():
        root = _roots(net)[0]
        state = net.states(root)[0]
        if query(net, (), {root: state}).item() <= 0.0:
            state = net.states(root)[1]
        probe = next(n for n in net.names() if n != root)
        event = {probe: net.states(probe)[0]}
        assert _do(net, event, {root: state}) == pytest.approx(
            prob(net, event, {root: state}), abs=1e-9), fid


def test_intervened_variable_is_certain(nets):
    assert _do(nets["asia"], {"Bronchitis": "yes"}, {"Bronchitis": "yes"}) == \
        pytest.approx(1.0, abs=1e-12)
    # the other state contradicts the conditioning, which prob refuses
    with pytest.raises(ValueError, match="bound to both"):
        _do(nets["asia"], {"Bronchitis": "no"}, {"Bronchitis": "yes"})


def test_intervention_on_evidence_variable_rejected(nets):
    # causal flow intervenes on var and reads the evidence variables: var may
    # not be one of them, nor be bound by the branch
    net = nets["asia"]
    with pytest.raises(ValueError, match="evidence variables"):
        causal_flow(net, "Bronchitis", ("Bronchitis", "Dyspnea"), {}, {})
    with pytest.raises(ValueError, match="bound by the branch"):
        causal_flow(net, "Bronchitis", ("Dyspnea",), {"Bronchitis": "yes"}, {})


def test_do_bronchitis_vs_conditioning(nets):
    # smoking confounds Bronchitis and LungCancer, so surgery and
    # conditioning disagree on the lung-cancer side
    net = nets["asia"]
    pnet = _point_mass(net, "Bronchitis", "yes")
    did = _do(net, {"Dyspnea": "yes"}, {"Bronchitis": "yes"})
    assert did == pytest.approx(oracle.prob(pnet, oracle.joint(pnet), {"Dyspnea": "yes"}),
                                abs=1e-9)
    saw = prob(net, {"Dyspnea": "yes"}, {"Bronchitis": "yes"})
    assert abs(did - saw) > 1e-4


def test_surgery_matches_point_mass_network(nets):
    # conditioning the mutilated network on v = s equals the network whose
    # CPT of v is a point mass at s, for a root and a non-root variable of
    # every fixture: targets where the fixture has them, else another
    # unobserved variable
    for fid, net in nets.items():
        roots = set(_roots(net))
        free = net.targets + tuple(n for n in net.names() if n not in net.observations)
        picks = (next(v for v in free if v in roots), next(v for v in free if v not in roots))
        for v in picks:
            probe = net.observations[-1]
            mnet = mutilate(net, {v})
            for s in net.states(v):
                pnet = _point_mass(net, v, s)
                pjoint = oracle.joint(pnet)
                for e in net.states(probe):
                    want = oracle.prob(pnet, pjoint, {probe: e})
                    got = prob(mnet, {probe: e}, {v: s})
                    assert got == pytest.approx(want, abs=1e-12), (fid, v, s, e)


def test_mutilated_cpt_is_uniform_root(nets):
    net = nets["asia"]
    mnet = mutilate(net, ("Smoking", "Bronchitis"))
    for v in ("Smoking", "Bronchitis"):
        cpt = mnet.cpt(v)
        assert cpt.parents == ()
        assert cpt.rows == (0.5, 0.5)
    assert mnet.cpt("Dyspnea") == net.cpt("Dyspnea")
    assert validate(mnet) == []
    three = mutilate(nets["academe"], ("Theory",)).cpt("Theory")
    assert three.parents == () and three.rows == (1 / 3,) * 3
    with pytest.raises(ValueError, match="unknown variable"):
        mutilate(net, ("NoSuch",))
    # a bare string is not read as its characters, here the variables A and B
    ab = Network(variables=(Variable("A", ("0", "1")), Variable("B", ("0", "1"))),
                 cpts=(TableCpt(child="A", parents=(), rows=(0.3, 0.7)),
                       TableCpt(child="B", parents=("A",), rows=(0.9, 0.1, 0.2, 0.8))))
    with pytest.raises(ValueError, match="collection of names"):
        mutilate(ab, "AB")


# ---------------------------------------------------------------------------
# information measures

def _copy_pair(p0):
    return Network(
        variables=(Variable("X", ("x0", "x1")), Variable("Y", ("x0", "x1"))),
        cpts=(TableCpt(child="X", parents=(), rows=(p0, 1.0 - p0)),
              DeterministicCpt(child="Y", parents=("X",), default_state="x0",
                               exceptions=((("x1",), "x1"),))),
    )


def _mi(net, x, others, context=None):
    """I(x; others jointly | context) from one VE table."""
    f = query(net, (x,) + tuple(others), context)
    return table_mutual_information(f.values.reshape(net.card(x), -1))


def test_mutual_information_of_copied_pair():
    assert _mi(_copy_pair(0.5), "X", ("Y",)) == pytest.approx(math.log(2.0), abs=1e-12)


def test_mutual_information_of_independent_pair():
    net = Network(
        variables=(Variable("X", ("a", "b")), Variable("Y", ("a", "b"))),
        cpts=(TableCpt(child="X", parents=(), rows=(0.3, 0.7)),
              TableCpt(child="Y", parents=(), rows=(0.6, 0.4))),
    )
    assert _mi(net, "X", ("Y",)) == pytest.approx(0.0, abs=1e-12)


def test_mutual_information_is_symmetric(nets):
    net = nets["asia"]
    a = _mi(net, "Bronchitis", ("LungCancer",), {"Dyspnea": "yes"})
    b = _mi(net, "LungCancer", ("Bronchitis",), {"Dyspnea": "yes"})
    assert a == pytest.approx(b, abs=1e-12)


def test_table_mutual_information_matches_oracle(nets, joints):
    net = nets["academe"]
    for y in ("Practice", "Extra", "OtherFactors"):
        for context in ({}, {"FinalMark": "fail"}):
            got = _mi(net, "Theory", (y,), context)
            want = oracle.mutual_information(net, joints["academe"], "Theory", y, context)
            assert got == pytest.approx(want, abs=1e-9), (y, context)


def test_table_mutual_information_of_a_pair_of_others(nets, joints):
    # I(x; {y, z}) by enumeration over the joint states of (y, z)
    net, table = nets["asia"], joints["asia"]
    x, others = "Bronchitis", ("Dyspnea", "XRay")
    want = 0.0
    for sx in net.states(x):
        px = oracle.mass(net, table, {x: sx})
        for sy, sz in itertools.product(*(net.states(v) for v in others)):
            rest = dict(zip(others, (sy, sz)))
            pxyz = oracle.mass(net, table, {x: sx, **rest})
            if pxyz > 0.0:
                want += pxyz * math.log(pxyz / (px * oracle.mass(net, table, rest)))
    assert _mi(net, x, others) == pytest.approx(want, abs=1e-9)


def _symmetrized_flow(weights, dists):
    """Sum over i of w_i * sum over the support of d_i of (p - q) ln(p / q),
    q the w-weighted mixture of the d_i."""
    mix = [sum(w * d[j] for w, d in zip(weights, dists)) for j in range(len(dists[0]))]
    return sum(w * (p - q) * math.log(p / q)
               for w, d in zip(weights, dists) for p, q in zip(d, mix) if p > 0.0)


def test_flow_without_directed_path_is_zero(nets):
    # Dyspnea is a sink: no directed path back to Bronchitis
    assert causal_flow(nets["asia"], "Dyspnea", ("Bronchitis",), {}, {}) == pytest.approx(
        0.0, abs=1e-12)


def test_flow_of_copied_root():
    # do(X = x) pins Y = x: the outcome distributions are the two point masses
    net = _copy_pair(0.3)
    want = _symmetrized_flow([0.3, 0.7], [[1.0, 0.0], [0.0, 1.0]])
    assert want == pytest.approx(0.21 * (math.log(1 / 0.3) + math.log(1 / 0.7)), abs=1e-12)
    assert causal_flow(net, "X", ("Y",), {}, {}) == pytest.approx(want, abs=1e-12)


def test_flow_matches_oracle_on_asia(nets, joints):
    # weights are P(Bronchitis | e); outcomes are interventional, without e
    net = nets["asia"]
    dists = []
    for s in net.states("Bronchitis"):
        pnet = _point_mass(net, "Bronchitis", s)
        pjoint = oracle.joint(pnet)
        dists.append([oracle.prob(pnet, pjoint, {"Dyspnea": d})
                      for d in net.states("Dyspnea")])
    for evidence in ({}, {"Dyspnea": "yes"}, {"XRay": "abnormal"}):
        weights = [oracle.prob(net, joints["asia"], {"Bronchitis": s}, evidence)
                   for s in net.states("Bronchitis")]
        got = causal_flow(net, "Bronchitis", ("Dyspnea",), {}, evidence)
        assert got == pytest.approx(_symmetrized_flow(weights, dists), abs=1e-9), evidence
        assert got > 0.0
