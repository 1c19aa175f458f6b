import math
import re

import numpy as np
import pytest

from bnexplain.kmre import REL_TOL, DominanceVerdict, dominates, k_mre, minimal_set
from bnexplain.search import ScoredExplanation, score_all
from test_causal_oracle import _draw


def _row(bindings, value, order=0):
    return ScoredExplanation(bindings=tuple(bindings), kind="gbf", value=value, order=order)


A = (("A", "a"),)
AB = (("A", "a"), ("B", "b"))
AC = (("A", "a"), ("C", "c"))


# ---------------------------------------------------------------------------
# dominance relation

def test_strong_dominance_subset_at_least_as_good():
    assert dominates(_row(A, 5.0), _row(AB, 5.0)) == "strong"
    assert dominates(_row(A, 5.0), _row(AB, 4.0)) == "strong"
    # scores equal up to elimination round-off still count as a tie
    assert dominates(_row(A, 5.0), _row(AB, 5.0 + 5.0 * 1e-10)) == "strong"


def test_weak_dominance_superset_strictly_better():
    assert dominates(_row(AB, 6.0), _row(A, 5.0)) == "weak"
    assert dominates(_row(AB, 5.0), _row(A, 5.0)) is None
    assert dominates(_row(AB, 5.0 + 5.0 * 1e-10), _row(A, 5.0)) is None
    assert dominates(_row(AB, 5.0 + 5.0 * 1e-8), _row(A, 5.0)) == "weak"


def test_incomparable_rows_do_not_dominate():
    assert dominates(_row(AB, 9.0), _row(AC, 1.0)) is None
    assert dominates(_row(A, 9.0), _row(A, 1.0)) is None
    # different state of the same variable is not a sub-assignment
    assert dominates(_row((("A", "a"),), 9.0), _row((("A", "z"), ("B", "b")), 1.0)) is None


def test_infinite_scores_follow_the_same_rules():
    assert dominates(_row(A, math.inf), _row(AB, math.inf)) == "strong"
    assert dominates(_row(AB, math.inf), _row(A, 5.0)) == "weak"
    assert dominates(_row(AB, math.inf), _row(A, math.inf)) is None


def test_nan_score_dominates_nothing():
    for a, b in ((A, AB), (AB, A)):
        for va, vb in ((math.nan, 5.0), (5.0, math.nan), (math.nan, math.nan),
                       (math.nan, math.inf), (math.inf, math.nan)):
            assert dominates(_row(a, va), _row(b, vb)) is None


def test_minimal_set_refuses_a_nan_score():
    with pytest.raises(ValueError, match="nan"):
        minimal_set([_row(A, 5.0, 0), _row(AB, math.nan, 1)])


# ---------------------------------------------------------------------------
# minimal set

def test_minimal_set_records_witnesses():
    # A kills AB (subset, higher score); AC then strictly beats A and evicts it
    rows = [_row(A, 5.0, 0), _row(AB, 4.0, 1), _row(AC, 7.0, 2)]
    kept, witnesses = minimal_set(rows)
    assert [r.bindings for r in kept] == [AC]
    assert witnesses[AB].relation == "strong" and witnesses[AB].winner == A
    assert witnesses[A].relation == "weak" and witnesses[A].winner == AC

    # a superset that merely ties does not evict its subset
    rows = [_row(A, 5.0, 0), _row(AC, 5.0, 1)]
    kept, witnesses = minimal_set(rows)
    assert [r.bindings for r in kept] == [A]
    assert witnesses[AC].relation == "strong" and witnesses[AC].winner == A


def test_minimal_set_defers_weak_eviction_to_level_end():
    # both pairs outscore the single; the single must not be evicted until
    # the whole level is judged, so neither pair may claim (A) as its subset
    # witness before the other is admitted
    rows = [_row(A, 5.0, 0), _row(AB, 6.0, 1), _row(AC, 7.0, 2)]
    kept, _ = minimal_set(rows)
    assert [r.bindings for r in kept] == [AB, AC]


def test_minimal_set_is_pairwise_undominated(nets, scenarios):
    for sid, fid, evidence in scenarios:
        if fid == "vacation100":
            continue  # quadratic audit over 305 rows is slow
        rows = score_all(nets[fid], evidence)
        kept, witnesses = minimal_set(rows)
        assert {r.bindings for r in kept} | set(witnesses) == {r.bindings for r in rows}, sid
        for a in kept:
            for b in kept:
                if a is not b:
                    assert dominates(a, b) is None, (sid, a.bindings, b.bindings)
        by_bindings = {r.bindings: r for r in rows}
        for loser, v in witnesses.items():
            assert isinstance(v, DominanceVerdict)
            assert dominates(by_bindings[v.winner], by_bindings[loser]) == v.relation, sid
            assert v.loser == loser


# ---------------------------------------------------------------------------
# k-MRE reporting

def test_academe_weak_eviction_shapes_the_answer(nets):
    res = k_mre(nets["academe"], {"FinalMark": "fail"})
    reported = [dict(r.bindings) for r in res.rows]
    assert reported[0] == {"Theory": "bad"}
    assert reported[1] == {"Extra": "no", "Practice": "bad"}
    assert reported[2] == {"Theory": "good", "Practice": "bad", "OtherFactors": "minus"}
    # the bare (Practice=bad) was evicted by a strictly better superset,
    # which is what lets the third row in
    evicted = (("Practice", "bad"),)
    v = res.witnesses[evicted]
    assert v.relation == "weak"
    assert set(v.winner) == {("Extra", "no"), ("Practice", "bad")}
    assert all(dict(r.bindings) != {"Practice": "bad"} for r in res.rows)


def test_vacation_collapse_of_interchangeable_rows(nets):
    # the 100 trails are interchangeable: one representative survives
    res = k_mre(nets["vacation100"], {"Alive": "alive"})
    assert [dict(r.bindings) for r in res.rows] == [
        {"Healthy": "healthy"}, {"Location": "trail_1"}]
    kept, _ = minimal_set(res.scored)
    trail_rows = [r for r in kept
                  if r.variables == ("Location",) and r.bindings[0][1] != "home"]
    assert len(trail_rows) == 100

    res = k_mre(nets["vacation100"], {"Alive": "dead"})
    assert [dict(r.bindings) for r in res.rows] == [
        {"Healthy": "unhealthy"}, {"Location": "home"}]


def test_floor_is_exclusive_beyond_the_top_row(nets):
    # rows at or under the floor stop the listing
    res = k_mre(nets["circuit2"], {"E": "low"}, gbf_floor=2.5)
    assert len(res.rows) == 1
    assert res.rows[0].value == pytest.approx(4.0, abs=1e-9)
    # without the floor the sub-unity third row appears
    res = k_mre(nets["circuit2"], {"E": "low"}, gbf_floor=-math.inf)
    assert len(res.rows) == 3
    assert res.rows[2].value < 1.0
    # top row is reported even when it cannot clear the floor
    res = k_mre(nets["circuit2"], {"E": "low"}, gbf_floor=math.inf)
    assert len(res.rows) == 1


@pytest.mark.parametrize("draw, dropped", [
    ((5, True, False), {"V3": "s0"}),   # was the 5th row
    ((6, False, False), {"V2": "s2"}),  # was the 2nd row
])
def test_a_gbf_of_one_does_not_pass_the_floor_by_round_off(draw, dropped):
    # the dropped row's GBF is exactly 1 and reads 1.0000000000000002
    net, evidence = _draw(*draw)
    res = k_mre(net, evidence, k=5)
    row = next(r for r in res.scored if dict(r.bindings) == dropped)
    assert row.value > 1.0 and math.isclose(row.value, 1.0, rel_tol=REL_TOL)
    assert dropped not in [dict(r.bindings) for r in res.rows]
    assert all(r.value > 1.0 + REL_TOL for r in res.rows[1:])
    # a floor just under 1 lets it through again
    assert dropped in [dict(r.bindings) for r in k_mre(net, evidence, k=5, gbf_floor=0.999).rows]


def test_k_truncation(nets):
    full = k_mre(nets["asia"], {"Dyspnea": "yes"}, k=3)
    one = k_mre(nets["asia"], {"Dyspnea": "yes"}, k=1)
    assert len(one.rows) == 1
    assert one.rows[0] == full.rows[0]


def test_k_below_one_is_rejected(nets):
    for k in (0, -1):
        with pytest.raises(ValueError, match="k must be at least 1"):
            k_mre(nets["circuit"], {"Input": "current", "TotalOutput": "current"}, k=k)


def test_k_must_be_an_integer(nets):
    evidence = {"Dyspnea": "yes"}
    for k in (1.5, 2.0, True, "3", None):
        with pytest.raises(ValueError, match="k must be at least 1 and an integer"):
            k_mre(nets["asia"], evidence, k=k)
    assert k_mre(nets["asia"], evidence, k=np.int64(2)).rows == k_mre(nets["asia"], evidence,
                                                                      k=2).rows


def test_nan_floor_is_rejected(nets):
    with pytest.raises(ValueError, match="gbf_floor must be a number"):
        k_mre(nets["asia"], {"Dyspnea": "yes"}, k=10, gbf_floor=math.nan)


@pytest.mark.parametrize("floor", ["x", "1.0", None])
def test_non_numeric_floor_is_rejected(nets, floor):
    with pytest.raises(ValueError, match=re.escape(f"gbf_floor must be a number, got {floor!r}")):
        k_mre(nets["asia"], {"Dyspnea": "yes"}, gbf_floor=floor)


def test_result_carries_the_full_sweep(nets):
    res = k_mre(nets["asia"], {"Dyspnea": "yes"})
    assert len(res.scored) == 26
    assert res.rows[0] == res.scored[0]
