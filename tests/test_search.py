import pytest

import oracle
from bnexplain.infer import ImpossibleEvidenceError
from bnexplain.model import Network, TableCpt, Variable
from bnexplain.search import (
    ScoredExplanation,
    candidate_count,
    mre,
    score_all,
)

EXPECTED_COUNTS = {
    "circuit": 80,
    "vacation1": 8,
    "vacation100": 305,
    "academe": 143,
    "asia": 26,
    "circuit2": 26,
}


def test_candidate_counts(nets, scenarios):
    for fid, want in EXPECTED_COUNTS.items():
        assert candidate_count(nets[fid]) == want, fid
    for sid, fid, evidence in scenarios:  # no scenario observes a target
        rows = score_all(nets[fid], evidence)
        assert sorted(r.order for r in rows) == list(range(EXPECTED_COUNTS[fid])), sid
        assert len({r.bindings for r in rows}) == EXPECTED_COUNTS[fid], sid


def test_enumeration_order(nets):
    rows = sorted(score_all(nets["vacation1"], {"Alive": "alive"}), key=lambda r: r.order)
    listed = [r.bindings for r in rows]
    assert listed[:4] == [
        (("Healthy", "healthy"),),
        (("Healthy", "unhealthy"),),
        (("Location", "home"),),
        (("Location", "hiking"),),
    ]
    # pairs follow, rightmost variable fastest
    assert listed[4] == (("Healthy", "healthy"), ("Location", "home"))
    assert listed[5] == (("Healthy", "healthy"), ("Location", "hiking"))
    assert listed[-1] == (("Healthy", "unhealthy"), ("Location", "hiking"))


def test_enumeration_requires_targets():
    net = Network(
        variables=(Variable("X", ("a", "b"), "auxiliary"),),
        cpts=(TableCpt(child="X", parents=(), rows=(0.5, 0.5)),),
    )
    with pytest.raises(ValueError, match="target"):
        score_all(net, {"X": "a"})


def test_scores_match_oracle(nets, joints, scenarios):
    for sid, fid, evidence in scenarios:
        if fid == "vacation100":
            continue  # 305 candidates x enumeration is slow and adds nothing
        net, jt = nets[fid], joints[fid]
        for row in score_all(net, evidence):
            want = oracle.gbf(net, jt, row.assignment(), evidence)
            assert row.value == pytest.approx(want, rel=1e-9, abs=1e-12), (sid, row.bindings)


def test_scores_sorted_and_complete(nets, scenarios):
    for sid, fid, evidence in scenarios:
        net = nets[fid]
        rows = score_all(net, evidence)
        assert len(rows) == candidate_count(net), sid
        ranked = [(-r.value, len(r.bindings), r.order) for r in rows]
        assert ranked == sorted(ranked), sid


def test_zero_posterior_candidates_kept_at_zero(nets):
    rows = score_all(nets["circuit2"], {"E": "low"})
    impossible = [r for r in rows if r.posterior == 0.0]
    assert impossible, "expected contradictory candidates under this evidence"
    assert all(r.value == 0.0 for r in impossible)
    assert (("OK1", "ok"), ("OK3", "ok")) in [r.bindings for r in impossible]


def test_zero_prior_candidates_kept_at_zero():
    net = Network(
        variables=(Variable("X", ("a", "b"), "target"),
                   Variable("Y", ("u", "v"), "observation")),
        cpts=(TableCpt(child="X", parents=(), rows=(1.0, 0.0)),
              TableCpt(child="Y", parents=("X",), rows=(0.7, 0.3, 0.2, 0.8))),
    )
    rows = score_all(net, {"Y": "u"})
    by_bindings = {r.bindings: r for r in rows}
    dead = by_bindings[(("X", "b"),)]
    assert dead.prior == 0.0
    assert dead.value == 0.0


def test_mre_equals_best_scored(nets, scenarios):
    for sid, fid, evidence in scenarios:
        net = nets[fid]
        best = score_all(net, evidence)[0]
        assert mre(net, evidence) == best, sid


def test_mre_impossible_evidence(nets):
    with pytest.raises(ImpossibleEvidenceError):
        mre(nets["circuit"], {"Input": "noCurr"})
    with pytest.raises(ImpossibleEvidenceError):
        score_all(nets["circuit"], {"Input": "noCurr"})


def test_scored_explanation_accessors(nets):
    row = mre(nets["asia"], {"Dyspnea": "yes"})
    assert row.kind == "gbf"
    assert row.variables == tuple(v for v, _ in row.bindings)
    assert row.assignment() == dict(row.bindings)
    assert row.strength is not None


def test_non_gbf_rows_have_no_strength():
    row = ScoredExplanation(bindings=(("X", "a"),), kind="joint", value=0.25)
    assert row.strength is None
