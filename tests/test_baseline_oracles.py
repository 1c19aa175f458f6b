"""Explanation trees and K-SIMP against the enumeration oracle.

`oracle.explanation_tree` and `oracle.k_simp` follow the documented rules of
`baselines.explanation_tree` and `baselines.k_simp` on the enumerated joint
(`tests/test_causal_oracle.py` does the same for CET). Draws on which
round-off could decide the result are left out and reported as hypothesis
events (`pytest --hypothesis-show-statistics`).
"""

import pytest
from hypothesis import event, example, given, reject, settings
from hypothesis import strategies as st

import oracle
from test_causal_oracle import _assert_same_tree, _branches, _close, _draw
from bnexplain.baselines import BaselineParams, explanation_tree, k_simp, tree_doc


def _check_et(seed, zero_prior, target_evidence, threshold, floor):
    net, evidence = _draw(seed, zero_prior, target_evidence)
    try:
        want = oracle.explanation_tree(net, oracle.joint(net), evidence, threshold, floor, _close)
    except oracle.RoundOffTie as tie:
        return None, str(tie)
    params = BaselineParams(mi_threshold=threshold, branch_floor=floor)
    _assert_same_tree(tree_doc(explanation_tree(net, evidence, params)), want)
    return want, None


def _last_levels(net, evidence, tree):
    """Unobserved targets, and whether a node was installed with one unused
    target left: ET's last level, judged against the evidence variables."""
    free = [t for t in net.targets if t not in evidence]
    return len(free), any(len(branch) == len(free) - 1 for branch, _ in _branches(tree))


# Draws whose trees reach the last level: with one unobserved target, at the
# root, and with two or more, below it.
ET_PINNED = [(1, False, True, 0.05, 0.0), (4, False, False, 0.0, 0.0)]
# V0 has a zero-prior state, so every information with it is 0, and V1 is a
# childless root: every pair's information at the root is 0 in exact
# arithmetic, and the engine's V0-V2 is 2.2e-16 of round-off.
ZERO_INFORMATION = (7, True, False, 0.05, 0.0)


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 2 ** 32 - 1), st.booleans(), st.booleans(),
       st.sampled_from([0.0, 0.01, 0.05]), st.sampled_from([0.0, 0.1]))
@example(*ET_PINNED[0])
@example(*ET_PINNED[1])
@example(*ZERO_INFORMATION)
def test_et_matches_the_oracle(seed, zero_prior, target_evidence, threshold, floor):
    _, tie = _check_et(seed, zero_prior, target_evidence, threshold, floor)
    if tie is not None:
        event(f"left out: {tie.split(':')[0]}")
        reject()


def test_et_pinned_draws_reach_the_last_level():
    reached = []
    for draw in ET_PINNED:
        tree, tie = _check_et(*draw)
        assert tie is None, (draw, tie)
        net, evidence = _draw(*draw[:3])
        free, last = _last_levels(net, evidence, tree)
        assert last, draw
        reached.append(min(free, 2))
    assert reached == [1, 2]


def test_zero_information_ties_go_to_entropy():
    _, tie = _check_et(*ZERO_INFORMATION)
    assert tie is None
    net, evidence = _draw(*ZERO_INFORMATION[:3])
    tree = explanation_tree(net, evidence, BaselineParams(mi_threshold=ZERO_INFORMATION[3]))
    assert (tree.var, tree.criterion) == ("V1", 0.0)  # V1 has the highest entropy


def _check_ksimp(seed, target_evidence, k, factor):
    net, evidence = _draw(seed, False, target_evidence)
    try:
        want = oracle.k_simp(net, oracle.joint(net), evidence, k, factor, _close)
    except oracle.RoundOffTie as tie:
        return str(tie)
    got = k_simp(net, evidence, BaselineParams(simplify_factor=factor, k=k))
    assert [r.bindings for r in got] == [b for b, _ in want]
    for r, (_, like) in zip(got, want):
        assert _close(r.value, like), r.bindings
    return None


# Deleting V1 from the second MAP row leaves P(e | x) unchanged in exact
# arithmetic; in the engine's floats the result lies a round-off below it.
KSIMP_UNCHANGED = (0, False, 5, 0.0)


@settings(deadline=None, max_examples=80)
@given(st.integers(0, 2 ** 32 - 1), st.booleans(), st.integers(1, 5),
       st.sampled_from([0.0, 0.05, 0.5, 1.0]))
@example(*KSIMP_UNCHANGED)
def test_ksimp_matches_the_oracle(seed, target_evidence, k, factor):
    tie = _check_ksimp(seed, target_evidence, k, factor)
    if tie is not None:
        event(f"left out: {tie.split(':')[0]}")
        reject()


def test_ksimp_deletes_at_factor_0_what_leaves_the_likelihood_unchanged():
    seed, target_evidence, k, factor = KSIMP_UNCHANGED
    assert _check_ksimp(*KSIMP_UNCHANGED) is None
    net, evidence = _draw(seed, False, target_evidence)
    rows = [k_simp(net, evidence, BaselineParams(simplify_factor=f, k=k)) for f in (factor, 1e-12)]
    assert [r.bindings for r in rows[0]] == [r.bindings for r in rows[1]]
    assert rows[0][1].bindings == (("V0", "s2"), ("V2", "s1"))


@pytest.mark.parametrize("factor", [0.0, 0.05, 0.5, 1.0])
def test_ksimp_matches_the_oracle_on_fixtures(nets, joints, scenarios, factor):
    held = 0
    for sid, fid, evidence in scenarios:
        for k in range(1, 6):
            try:
                want = oracle.k_simp(nets[fid], joints[fid], evidence, k, factor, _close)
            except oracle.RoundOffTie:
                continue
            got = k_simp(nets[fid], evidence, BaselineParams(simplify_factor=factor, k=k))
            assert [r.bindings for r in got] == [b for b, _ in want], (sid, k)
            assert [r.value for r in got] == pytest.approx([x for _, x in want], rel=1e-9), (sid, k)
            held += 1
    assert held > 0
