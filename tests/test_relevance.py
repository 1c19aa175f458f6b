import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracle
from test_properties import random_net
from bnexplain.relevance import (
    MAX_GRID_POINTS,
    GbfScore,
    belief_update_ratio,
    cbf,
    conditional_gbf,
    curve_csv,
    gbf,
    gbf_chain,
    gbf_curve,
    gbf_from_probs,
    parse_grid,
    strength_label,
)


# ---------------------------------------------------------------------------
# scalar form

def test_gbf_from_probs_is_odds_ratio():
    assert gbf_from_probs(0.5, 0.5) == 1.0
    assert gbf_from_probs(0.2, 0.3) == pytest.approx((0.3 * 0.8) / (0.2 * 0.7), abs=1e-15)


def test_gbf_symmetry_in_odds():
    # moving 0.7 -> 0.8 is the same odds update as 0.2 -> 0.3
    a = gbf_from_probs(0.7, 0.8)
    b = gbf_from_probs(0.2, 0.3)
    assert abs(a - b) <= 1e-12
    assert a == pytest.approx(12.0 / 7.0, abs=1e-12)


def test_gbf_boundary_conventions():
    assert gbf_from_probs(0.0, 0.4) == 0.0
    assert gbf_from_probs(1.0, 1.0) == 0.0
    assert gbf_from_probs(0.3, 1.0) == math.inf
    assert gbf_from_probs(0.3, 0.0) == 0.0


def test_strength_bands():
    assert strength_label(0.5) == "Negative"
    assert strength_label(1.0) == "Barely worth mentioning"
    assert strength_label(3.0) == "Barely worth mentioning"
    assert strength_label(3.01) == "Substantial"
    assert strength_label(10.0) == "Substantial"
    assert strength_label(30.0) == "Strong"
    assert strength_label(100.0) == "Very strong"
    assert strength_label(100.5) == "Decisive"
    assert strength_label(math.inf) == "Decisive"


def test_nan_has_no_strength_band():
    with pytest.raises(ValueError, match="nan"):
        strength_label(math.nan)
    with pytest.raises(ValueError, match="nan"):
        GbfScore(value=math.nan, prior=0.5, posterior=0.5).strength


def test_score_carries_strength(nets):
    s = gbf(nets["asia"], {"Bronchitis": "yes"}, {"Dyspnea": "yes"})
    assert isinstance(s, GbfScore)
    assert s.value == pytest.approx(6.1391, abs=5e-5)
    assert s.strength == "Substantial"


# ---------------------------------------------------------------------------
# network-level measures

def test_belief_update_ratio_examples(nets):
    assert belief_update_ratio(
        nets["circuit2"], {"OK3": "abnormal"}, {"E": "low"}) == pytest.approx(1.6, abs=1e-9)
    # independent pieces do not move belief
    assert belief_update_ratio(
        nets["asia"], {"Smoking": "yes"}, {"VisitAsia": "yes"}) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError, match="zero-probability"):
        belief_update_ratio(nets["circuit"], {"Input": "noCurr"}, {"TotalOutput": "current"})


def test_gbf_circuit_top_pair(nets):
    e = {"Input": "current", "TotalOutput": "current"}
    s = gbf(nets["circuit"], {"B": "defective", "C": "defective"}, e)
    assert s.value == pytest.approx(42.62, abs=5e-3)


def test_gbf_circuit2_single(nets):
    s = gbf(nets["circuit2"], {"OK3": "abnormal"}, {"E": "low"})
    assert s.value == pytest.approx(4.0, abs=1e-9)


def test_gbf_of_irrelevant_event_is_one(nets):
    s = gbf(nets["asia"], {"VisitAsia": "yes"}, {"Smoking": "yes"})
    assert s.value == pytest.approx(1.0, abs=1e-12)


def test_gbf_rejects_empty_arguments(nets):
    with pytest.raises(ValueError, match="nonempty"):
        gbf(nets["asia"], {}, {"Dyspnea": "yes"})
    with pytest.raises(ValueError, match="nonempty"):
        gbf(nets["asia"], {"Bronchitis": "yes"}, {})


def test_gbf_matches_four_equivalent_forms(nets, joints):
    # posterior-odds form, likelihood-ratio form, update-ratio form, and the
    # two-call likelihood form with the complement realized by summation
    cases = [
        ("asia", {"Bronchitis": "yes"}, {"Dyspnea": "yes"}),
        ("asia", {"LungCancer": "yes", "Tuberculosis": "no"}, {"XRay": "abnormal"}),
        ("circuit", {"B": "defective", "C": "defective"},
         {"Input": "current", "TotalOutput": "current"}),
        ("academe", {"Extra": "no", "Practice": "bad"}, {"FinalMark": "fail"}),
    ]
    for fid, x, e in cases:
        net, jt = nets[fid], joints[fid]
        px = oracle.prob(net, jt, x)
        pxe = oracle.prob(net, jt, x, e)
        pe = oracle.prob(net, jt, e)
        pex = oracle.prob(net, jt, e, x)
        odds = pxe * (1 - px) / (px * (1 - pxe))
        pe_not_x = (pe - oracle.mass(net, jt, {**x, **e})) / (1 - px)
        ratio2 = pex / pe_not_x
        r = pxe / px
        rform = r * (1 - px) / (1 - r * px)
        got = gbf(net, x, e).value
        for want in (odds, ratio2, rform):
            assert got == pytest.approx(want, rel=1e-9), (fid, x)


def test_conditional_gbf_with_empty_condition_is_plain_gbf(nets):
    a = conditional_gbf(nets["asia"], {"Bronchitis": "yes"}, {"Dyspnea": "yes"}, {})
    b = gbf(nets["asia"], {"Bronchitis": "yes"}, {"Dyspnea": "yes"})
    assert a == b


def test_cbf_circuit_example(nets):
    # a further fault adds almost nothing once (B,C) are known defective
    e = {"Input": "current", "TotalOutput": "current"}
    got = cbf(nets["circuit"], {"A": "defective"}, e, {"B": "defective", "C": "defective"})
    assert got == pytest.approx(1.03, abs=5e-3)


def test_cbf_conditionally_irrelevant_addition_is_one(nets):
    # given TbOrCa, XRay carries no further information about Tuberculosis
    got = cbf(nets["asia"], {"Tuberculosis": "yes"}, {"XRay": "abnormal"},
              {"TbOrCa": "yes"})
    assert got == pytest.approx(1.0, abs=1e-9)


def test_cbf_rejects_overlap(nets):
    with pytest.raises(ValueError, match="overlap"):
        cbf(nets["asia"], {"Bronchitis": "yes"}, {"Dyspnea": "yes"}, {"Bronchitis": "no"})


def test_overlapping_inputs_are_refused_not_answered(nets):
    asia = nets["asia"]
    # the evidence used to overwrite the condition: 27.76
    with pytest.raises(ValueError, match="overlap on 'Dyspnea'"):
        cbf(asia, {"Bronchitis": "yes"}, {"Dyspnea": "yes"}, {"Dyspnea": "no"})
    # x read as its own evidence: inf
    with pytest.raises(ValueError, match="overlap on 'Dyspnea'"):
        gbf(asia, {"Dyspnea": "yes"}, {"Dyspnea": "yes"})
    with pytest.raises(ValueError, match="overlap on 'Bronchitis'"):
        gbf_chain(asia, {"Bronchitis": "yes"}, [{"Dyspnea": "yes"}, {"Bronchitis": "yes"}])
    # an empty piece used to add a factor of 1
    with pytest.raises(ValueError, match="nonempty"):
        gbf_chain(asia, {"Bronchitis": "yes"}, [{"Dyspnea": "yes"}, {}])


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 2**32 - 1))
def test_one_conditional_gbf_behind_every_measure(seed):
    # each variable joins x, e, given or none of them, so the three are disjoint
    rng = random.Random(seed)
    net = random_net(rng)
    jt = oracle.joint(net)
    parts = ({}, {}, {}, {})
    for v in net.names():
        rng.choice(parts)[v] = rng.choice(net.states(v))
    x, e, cond, _ = parts
    assume(x and e)
    s = conditional_gbf(net, x, e, cond)
    assert s.prior == pytest.approx(oracle.prob(net, jt, x, cond), rel=1e-9)
    assert s.posterior == pytest.approx(oracle.prob(net, jt, x, {**cond, **e}), rel=1e-9)
    assert s.value == pytest.approx(oracle.gbf(net, jt, x, e, cond), rel=1e-9)
    assert cbf(net, x, e, cond) == s.value
    plain = gbf(net, x, e)
    assert plain == conditional_gbf(net, x, e)
    assert belief_update_ratio(net, x, e) == plain.posterior / plain.prior

    # binding any variable of one part in another, to its own state or a
    # contradicting one, is refused with the variable named
    named = {**x, **e, **cond}
    v = rng.choice(sorted(named))
    state = rng.choice(net.states(v))
    for i in range(3):
        if v in (x, e, cond)[i]:
            continue
        bad = [dict(x), dict(e), dict(cond)]
        bad[i][v] = state
        with pytest.raises(ValueError, match=f"overlap on '{v}'"):
            conditional_gbf(net, *bad)


def test_chain_rule_equals_joint_gbf(nets):
    net = nets["asia"]
    x = {"LungCancer": "yes"}
    chained = gbf_chain(net, x, [{"XRay": "abnormal"}, {"Dyspnea": "yes"}])
    joint = gbf(net, x, {"XRay": "abnormal", "Dyspnea": "yes"}).value
    assert chained == pytest.approx(joint, rel=1e-9)
    # order of the pieces must not matter either
    flipped = gbf_chain(net, x, [{"Dyspnea": "yes"}, {"XRay": "abnormal"}])
    assert flipped == pytest.approx(joint, rel=1e-9)


def test_chain_rule_single_piece(nets):
    net = nets["asia"]
    one = gbf_chain(net, {"Bronchitis": "yes"}, [{"Dyspnea": "yes"}])
    assert one == pytest.approx(gbf(net, {"Bronchitis": "yes"}, {"Dyspnea": "yes"}).value,
                                rel=1e-12)


def test_chain_rule_rejects_bad_pieces(nets):
    with pytest.raises(ValueError, match="no evidence"):
        gbf_chain(nets["asia"], {"Bronchitis": "yes"}, [])
    with pytest.raises(ValueError, match="overlap"):
        gbf_chain(nets["asia"], {"Bronchitis": "yes"},
                  [{"Dyspnea": "yes"}, {"Dyspnea": "yes"}])


# ---------------------------------------------------------------------------
# curves

def test_curve_fixed_delta_example():
    rows = gbf_curve([0.5], fixed_delta=0.01)
    assert rows[0][1] == pytest.approx((0.51 * 0.5) / (0.5 * 0.49), abs=1e-12)


def test_curve_fixed_ratio_one_is_flat():
    rows = gbf_curve(parse_grid("0.1:0.9:0.1"), fixed_ratio=1.0)
    assert all(g == pytest.approx(1.0, abs=1e-12) for _, g in rows)


def test_curve_fixed_ratio_two_increases():
    rows = gbf_curve(parse_grid("0.05:0.45:0.05"), fixed_ratio=2.0)
    values = [g for _, g in rows]
    assert all(b > a for a, b in zip(values, values[1:]))
    # closed form: 1 + (r-1)/(1 - r p)
    for p, g in rows:
        assert g == pytest.approx(1.0 + 1.0 / (1.0 - 2.0 * p), rel=1e-9)


def test_curve_rejects_escaping_posteriors():
    with pytest.raises(ValueError, match="outside"):
        gbf_curve([0.6], fixed_ratio=2.0)
    with pytest.raises(ValueError, match="outside"):
        gbf_curve([0.995], fixed_delta=0.01)


def test_curve_requires_exactly_one_mode():
    with pytest.raises(ValueError, match="exactly one"):
        gbf_curve([0.5])
    with pytest.raises(ValueError, match="exactly one"):
        gbf_curve([0.5], fixed_delta=0.1, fixed_ratio=2.0)


def test_curve_csv_format():
    text = curve_csv([(0.5, 1.0408163265306123)])
    lines = text.splitlines()
    assert lines[0] == "prior,gbf"
    assert lines[1] == "0.500000,1.040816"
    assert text.endswith("\n")


def test_parse_grid():
    assert parse_grid("0.1:0.3:0.1") == pytest.approx([0.1, 0.2, 0.3])
    assert parse_grid("0.5:0.5:1") == [0.5]
    with pytest.raises(ValueError, match="bad grid"):
        parse_grid("0.1:0.9")
    with pytest.raises(ValueError, match="bad grid"):
        parse_grid("0.9:0.1:0.1")
    with pytest.raises(ValueError, match="bad grid"):
        parse_grid("0.1:0.9:0")
    for spec in ("nan:1:0.1", "0:nan:0.1", "0:1:nan", "0:inf:0.5", "-inf:1:0.1",
                 "0:1:inf"):
        with pytest.raises(ValueError, match="bad grid"):
            parse_grid(spec)
    # too many points: refused before any point is built
    for spec in ("0:0.5:1e-300", "0:1:1e-6", "-1e308:1e308:1"):
        with pytest.raises(ValueError, match=f"more than {MAX_GRID_POINTS} points"):
            parse_grid(spec)
    assert len(parse_grid("0:0.99999:0.00001")) == MAX_GRID_POINTS
