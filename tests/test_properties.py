"""Randomized and algebraic properties of the relevance measures.

Network-level sweeps draw seeded random networks and check the distributional
identities against a brute-force joint; the engine itself is held to the
enumeration oracle in the module-specific suites.
"""
import dataclasses
import itertools
import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bnexplain.infer import brute_force_joint, query
from bnexplain.kmre import REL_TOL, dominates, minimal_set
from bnexplain.model import Network, TableCpt, Variable, d_separated
from bnexplain.relevance import gbf, gbf_from_probs
from bnexplain.search import ScoredExplanation, score_all

import oracle


# ---------------------------------------------------------------------------
# generators

def _dist(rng, k):
    w = [rng.uniform(0.05, 1.0) for _ in range(k)]
    t = sum(w)
    return tuple(x / t for x in w)


def random_net(rng, max_vars=5, max_states=3, roles=False):
    """Random DAG over V0..Vn-1 with strictly positive CPT rows."""
    n = rng.randint(3, max_vars)
    cards = [rng.randint(2, max_states) for _ in range(n)]
    variables = []
    cpts = []
    for i in range(n):
        states = tuple(f"s{j}" for j in range(cards[i]))
        role = "auxiliary"
        if roles:
            role = "observation" if i == n - 1 else "target"
        variables.append(Variable(f"V{i}", states, role))
        parents = tuple(f"V{j}" for j in sorted(rng.sample(range(i), rng.randint(0, min(2, i)))))
        nconf = 1
        for p in parents:
            nconf *= cards[int(p[1:])]
        rows = ()
        for _ in range(nconf):
            rows += _dist(rng, cards[i])
        cpts.append(TableCpt(child=f"V{i}", parents=parents, rows=rows))
    return Network(tuple(variables), tuple(cpts))


def _mass(net, values, assignment):
    """P(assignment) from a full joint array over net.names()."""
    idx = tuple(net.states(v).index(assignment[v]) if v in assignment else slice(None)
                for v in net.names())
    return float(values[idx].sum())


def _rel_eq(a, b, tol=1e-9):
    return math.isclose(a, b, rel_tol=tol, abs_tol=1e-12)


# ---------------------------------------------------------------------------
# the scalar measure

@settings(deadline=None, max_examples=300)
@given(st.sampled_from([1.5, 2.0, 5.0]),
       st.floats(min_value=0.001, max_value=0.65),
       st.floats(min_value=1e-6, max_value=0.3))
def test_fixed_ratio_updates_grow_with_the_prior(r, p, step):
    p2 = p + step
    assume(r * p2 < 0.999)
    g1 = gbf_from_probs(p, r * p)
    g2 = gbf_from_probs(p2, r * p2)
    assert g2 > g1
    # closed form of the fixed-ratio curve
    for prior, value in ((p, g1), (p2, g2)):
        assert _rel_eq(value, 1.0 + (r - 1.0) / (1.0 - r * prior))


@settings(deadline=None, max_examples=300)
@given(st.floats(min_value=0.001, max_value=0.999),
       st.floats(min_value=0.001, max_value=0.999))
def test_update_direction_sets_the_side_of_one(p, q):
    g = gbf_from_probs(p, q)
    if q > p:
        assert g > 1.0
    elif q < p:
        assert g < 1.0
    else:
        assert _rel_eq(g, 1.0)


@settings(deadline=None, max_examples=300)
@given(st.floats(min_value=0.001, max_value=0.999),
       st.floats(min_value=0.001, max_value=0.999))
def test_swapping_prior_and_posterior_inverts_the_score(p, q):
    assert _rel_eq(gbf_from_probs(p, q) * gbf_from_probs(q, p), 1.0)


# ---------------------------------------------------------------------------
# four equivalent forms on every fixture candidate

def test_gbf_forms_agree_on_all_fixture_candidates(nets, scenarios):
    for sid, fid, evidence in scenarios:
        net = nets[fid]
        values = brute_force_joint(net).values
        pe = _mass(net, values, evidence)
        for row in score_all(net, evidence):  # every candidate: no target is observed
            bindings = row.bindings
            x = dict(bindings)
            px = _mass(net, values, x)
            pxe = _mass(net, values, {**x, **evidence})
            if px <= 0.0 or px >= 1.0 or pe <= 0.0:
                continue
            posterior = pxe / pe
            if posterior >= 1.0:
                continue
            odds = posterior * (1 - px) / (px * (1 - posterior))
            # likelihood ratio with the complement realized by summation
            pex = pxe / px
            pe_not_x = (pe - pxe) / (1 - px)
            r = posterior / px
            forms = [odds]
            if pe_not_x > 0.0:
                forms.append(pex / pe_not_x)
            if r * px < 1.0:
                forms.append(r * (1 - px) / (1 - r * px))
            for f in forms[1:]:
                assert _rel_eq(forms[0], f), (sid, bindings)
            assert _rel_eq(gbf_from_probs(px, posterior), forms[0]), (sid, bindings)


# ---------------------------------------------------------------------------
# chain rule and the independent-evidence product

def test_chain_rule_on_random_networks():
    from bnexplain.relevance import gbf_chain
    rng = random.Random(20240817)
    for _ in range(25):
        net = random_net(rng)
        names = net.names()
        if len(names) < 3:
            continue
        x = {names[0]: net.states(names[0])[0]}
        e1 = {names[-1]: net.states(names[-1])[0]}
        e2 = {names[-2]: net.states(names[-2])[-1]}
        chained = gbf_chain(net, x, [e1, e2])
        joint = gbf(net, x, {**e1, **e2}).value
        assert _rel_eq(chained, joint), (x, e1, e2)


def test_conditionally_independent_evidence_multiplies():
    # star network: every evidence variable hangs off the binary hypothesis
    rng = random.Random(515)
    for _ in range(40):
        cards = [rng.randint(2, 3) for _ in range(3)]
        variables = [Variable("H", ("h0", "h1"))]
        cpts = [TableCpt(child="H", parents=(), rows=_dist(rng, 2))]
        for i, k in enumerate(cards):
            states = tuple(f"s{j}" for j in range(k))
            variables.append(Variable(f"E{i}", states))
            cpts.append(TableCpt(child=f"E{i}", parents=("H",),
                                 rows=_dist(rng, k) + _dist(rng, k)))
        net = Network(tuple(variables), tuple(cpts))
        x = {"H": "h0"}
        pieces = [{f"E{i}": "s0"} for i in range(3)]
        whole = gbf(net, x, {k: v for p in pieces for k, v in p.items()}).value
        product = 1.0
        for p in pieces:
            product *= gbf(net, x, p).value
        assert _rel_eq(whole, product)


# ---------------------------------------------------------------------------
# adding a conjunct: when it can and cannot help

def _r2(rng):
    return _dist(rng, 2)


def test_appending_an_irrelevant_conjunct_strictly_hurts():
    # D is disconnected from both the explanation and the evidence
    net = Network(
        variables=(Variable("X", ("x0", "x1")), Variable("D", ("d0", "d1")),
                   Variable("E", ("e0", "e1"))),
        cpts=(TableCpt(child="X", parents=(), rows=(0.3, 0.7)),
              TableCpt(child="D", parents=(), rows=(0.4, 0.6)),
              TableCpt(child="E", parents=("X",), rows=(0.9, 0.1, 0.2, 0.8))),
    )
    assert d_separated(net, {"D"}, {"X", "E"}, set())
    x, e = {"X": "x0"}, {"E": "e0"}
    base = gbf(net, x, e)
    assert base.posterior > base.prior  # the explanation is genuinely relevant
    for d in ("d0", "d1"):
        wider = gbf(net, {**x, "D": d}, e).value
        assert wider < base.value


def test_appending_a_conditionally_independent_conjunct_strictly_hurts():
    # Y depends on X but carries no evidence information beyond it
    net = Network(
        variables=(Variable("X", ("x0", "x1")), Variable("Y", ("y0", "y1")),
                   Variable("E", ("e0", "e1"))),
        cpts=(TableCpt(child="X", parents=(), rows=(0.3, 0.7)),
              TableCpt(child="Y", parents=("X",), rows=(0.6, 0.4, 0.3, 0.7)),
              TableCpt(child="E", parents=("X",), rows=(0.9, 0.1, 0.2, 0.8))),
    )
    x, e = {"X": "x0"}, {"E": "e0"}
    from bnexplain.infer import prob
    assert prob(net, {"Y": "y0"}, {**x, **e}) == pytest.approx(
        prob(net, {"Y": "y0"}, x), abs=1e-12)
    base = gbf(net, x, e)
    assert base.posterior > base.prior
    assert gbf(net, {**x, "Y": "y0"}, e).value < base.value


def test_appending_a_disconfirmed_conjunct_strictly_hurts():
    # collider: given x, the evidence explains y away
    net = Network(
        variables=(Variable("X", ("x0", "x1")), Variable("Y", ("y0", "y1")),
                   Variable("E", ("e0", "e1"))),
        cpts=(TableCpt(child="X", parents=(), rows=(0.3, 0.7)),
              TableCpt(child="Y", parents=(), rows=(0.4, 0.6)),
              TableCpt(child="E", parents=("X", "Y"),
                       rows=(0.1, 0.9, 0.9, 0.1, 0.5, 0.5, 0.5, 0.5))),
    )
    x, e, y = {"X": "x0"}, {"E": "e0"}, {"Y": "y0"}
    from bnexplain.infer import prob
    assert prob(net, y, {**x, **e}) < prob(net, y, x)
    base = gbf(net, x, e)
    assert base.posterior > base.prior
    assert gbf(net, {**x, **y}, e).value < base.value


def test_weak_conjuncts_never_raise_the_score_randomized():
    # across random networks: whenever the conditional Bayes factor of the
    # added conjunct is at most the reciprocal update of the complement,
    # the extended explanation cannot beat the original
    rng = random.Random(99)
    premise_held = 0
    premise_failed = 0
    for _ in range(1000):
        net = random_net(rng)
        names = net.names()
        values = brute_force_joint(net).values
        x = {names[0]: net.states(names[0])[0]}
        y = {names[1]: net.states(names[1])[0]}
        e = {names[-1]: net.states(names[-1])[0]}
        px = _mass(net, values, x)
        pe = _mass(net, values, e)
        pxe = _mass(net, values, {**x, **e})
        pxy = _mass(net, values, {**x, **y})
        pxye = _mass(net, values, {**x, **y, **e})
        post_x = pxe / pe
        complement_update = (1.0 - post_x) / (1.0 - px)
        cbf_y = gbf_from_probs(pxy / px, pxye / pxe)
        if cbf_y <= 1.0 / complement_update:
            premise_held += 1
            g_xy = gbf_from_probs(pxy, pxye / pe)
            g_x = gbf_from_probs(px, post_x)
            assert g_xy <= g_x * (1.0 + 1e-9), (x, y, e)
        else:
            premise_failed += 1
    # the sweep must exercise both sides of the premise
    assert premise_held > 100
    assert premise_failed > 100


def test_context_monotonicity_tracks_probability_ordering():
    # collider fixture: conditioning the explanation's score on a neighbor
    # state reorders exactly as the conditional probabilities reorder
    rng = random.Random(4242)
    ups = downs = 0
    for _ in range(200):
        variables = (Variable("A", ("a0", "a1")), Variable("Y", ("y0", "y1")),
                     Variable("B", ("b0", "b1")), Variable("X", ("x0", "x1")),
                     Variable("C", ("c0", "c1")))
        cpts = (TableCpt(child="A", parents=(), rows=_r2(rng)),
                TableCpt(child="Y", parents=(), rows=_r2(rng)),
                TableCpt(child="B", parents=("Y",), rows=_r2(rng) + _r2(rng)),
                TableCpt(child="X", parents=(), rows=_r2(rng)),
                TableCpt(child="C", parents=("A", "B", "X"),
                         rows=sum((_r2(rng) for _ in range(8)), ())))
        net = Network(variables, cpts)
        values = brute_force_joint(net).values
        ctx = {"X": "x0", "Y": "y0"}
        c = {"C": "c0"}
        b = {"B": "b0"}

        def post(extra, conditioned_on_c):
            given = {**ctx, **extra, **(c if conditioned_on_c else {})}
            return _mass(net, values, {**b, **given}) / _mass(net, values, given)

        def score(extra):
            return gbf_from_probs(post(extra, False), post(extra, True))

        p_with, p_plain, p_against = (post({"A": "a0"}, True), post({}, True),
                                      post({"A": "a1"}, True))
        g_with, g_plain, g_against = (score({"A": "a0"}), score({}),
                                      score({"A": "a1"}))
        up = p_with <= p_plain <= p_against
        g_up = g_with <= g_plain <= g_against
        down = p_with >= p_plain >= p_against
        g_down = g_with >= g_plain >= g_against
        assert up == g_up
        assert down == g_down
        # the middle term is a mixture of the outer two, so one chain
        # always holds; make sure the sweep sees both orientations
        ups += up
        downs += down
    assert ups > 5 and downs > 5


# ---------------------------------------------------------------------------
# engine-level sweeps

def test_elimination_matches_brute_force_on_random_networks():
    rng = random.Random(7)
    for _ in range(30):
        net = random_net(rng)
        values = brute_force_joint(net).values
        assert values.sum() == pytest.approx(1.0, abs=1e-9)
        for v in net.names():
            got = query(net, (v,)).values
            for i, s in enumerate(net.states(v)):
                assert got[i] == pytest.approx(_mass(net, values, {v: s}), abs=1e-9)
        first, last = net.names()[0], net.names()[-1]
        e = {last: net.states(last)[0]}
        got = query(net, (first,), e).values
        for i, s in enumerate(net.states(first)):
            assert got[i] == pytest.approx(_mass(net, values, {first: s, **e}), abs=1e-9)


def test_separation_implies_independence_on_random_networks():
    rng = random.Random(1234)
    for _ in range(40):
        net = random_net(rng)
        names = net.names()
        values = brute_force_joint(net).values
        for a, b in itertools.combinations(names, 2):
            for z in [None] + [x for x in names if x not in (a, b)]:
                if not d_separated(net, {a}, {b}, {z} if z else set()):
                    continue
                for zs in (net.states(z) if z else (None,)):
                    ctx = {z: zs} if z else {}
                    pz = _mass(net, values, ctx) if ctx else 1.0
                    for sa in net.states(a):
                        for sb in net.states(b):
                            pab = _mass(net, values, {a: sa, b: sb, **ctx}) / pz
                            pa = _mass(net, values, {a: sa, **ctx}) / pz
                            pb = _mass(net, values, {b: sb, **ctx}) / pz
                            assert abs(pab - pa * pb) <= 1e-9, (a, b, z)


def test_minimal_set_audit_on_random_networks():
    rng = random.Random(31337)
    for _ in range(12):
        net = random_net(rng, max_vars=4, roles=True)
        last = net.names()[-1]
        evidence = {last: net.states(last)[0]}
        rows = score_all(net, evidence)
        kept, witnesses = minimal_set(rows)
        assert {r.bindings for r in kept} | set(witnesses) == {r.bindings for r in rows}
        for a in kept:
            for b in kept:
                if a is not b:
                    assert dominates(a, b) is None
        by_bindings = {r.bindings: r for r in rows}
        for loser, v in witnesses.items():
            assert dominates(by_bindings[v.winner], by_bindings[loser]) == v.relation


def _assert_minimal_set_matches_reference(rows, rng):
    """kmre.minimal_set against the reference scan, on the rows as given and
    with each row's bindings in a shuffled order."""
    shuffled = [dataclasses.replace(r, bindings=tuple(rng.sample(r.bindings, len(r.bindings))))
                for r in rows]
    for case in (rows, shuffled):
        kept, witnesses = minimal_set(case)
        want_kept, want_witnesses = oracle.minimal_set(case)
        assert [r.bindings for r in kept] == [r.bindings for r in want_kept]
        assert list(witnesses.items()) == list(want_witnesses.items())


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 2**32 - 1), st.sampled_from(("exact", "coarse", "ladder")))
def test_minimal_set_matches_the_reference_scan(seed, scores):
    rng = random.Random(seed)
    net = random_net(rng, max_vars=6, roles=True)
    last = net.names()[-1]
    rows = score_all(net, {last: net.states(last)[0]})
    if scores == "coarse":  # round scores so that exact and near ties are common
        rows = [dataclasses.replace(r, value=round(r.value, 1)) for r in rows]
    elif scores == "ladder":  # ties, zeros and infinities at every level
        rows = [dataclasses.replace(r, value=rng.choice((0.0, 1.0, 2.0, math.inf, r.value)))
                for r in rows]
    _assert_minimal_set_matches_reference(rows, rng)


_SCORES = st.sampled_from((0.0, 1.0, 2.0, 2.0 * (1 + REL_TOL / 2), math.inf)) | st.floats(0.0)


@settings(deadline=None, max_examples=300)
@given(_SCORES, _SCORES)
def test_dominance_relations_are_complements(sub_value, super_value):
    # for a strict sub-assignment k of r, exactly one holds: k dominates r
    # strongly, or r dominates k weakly
    k = ScoredExplanation(bindings=(("A", "a"),), kind="gbf", value=sub_value, order=0)
    r = ScoredExplanation(bindings=(("A", "a"), ("B", "b")), kind="gbf", value=super_value,
                          order=1)
    assert (dominates(k, r) == "strong") != (dominates(r, k) == "weak")
    assert dominates(r, k) != "strong" and dominates(k, r) != "weak"


def test_minimal_set_matches_the_reference_scan_on_scenarios(nets, scenarios):
    rng = random.Random(7)
    for _, fid, evidence in scenarios:
        _assert_minimal_set_matches_reference(score_all(nets[fid], evidence), rng)


def test_minimal_set_matches_the_reference_scan_on_wide_masks(nets):
    # vacation100's 101-state Location makes masks wider than 64 bits. With
    # one single-binding row left, at most one row is alive when the pairs
    # are judged, so most sub-mask probes miss.
    rng = random.Random(7)
    net = nets["vacation100"]
    single = (("Healthy", net.states("Healthy")[0]),)
    for evidence in ({"Alive": "alive"}, {"Alive": "dead"}):
        rows = [r for r in score_all(net, evidence)
                if len(r.bindings) == 2 or r.bindings == single]
        assert len({b for r in rows for b in r.bindings}) > 64
        _assert_minimal_set_matches_reference(rows, rng)
