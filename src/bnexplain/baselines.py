"""Reference explanation methods: K-MAP, K-SIMP, explanation trees, causal
explanation trees.

These exist to be compared against MRE on the benchmark scenarios, so their
conventions (tie-breaks, thresholds, stopping rules) are pinned down
precisely; see the docstrings of the individual methods.
"""
from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

from . import infer
from .infer import ExplanationTables, Factor, explanation_tables, query, sum_to
from .model import Assignment, Network
from .search import ScoredExplanation, _check_k

# Sort keys round scores to this many significant digits, so that ties which
# are exact in real arithmetic survive round-off while tiny joints and
# likelihoods still rank by size.
_KEY_DECIMALS = 10

# Both tree criteria read 0 below this: a flow that is 0 in exact arithmetic
# comes out near 1e-30, a mutual information at 1e-17 to 3e-16, so that such
# targets tie and the documented tie-break orders them.
ZERO_FLOW = 1e-15


def _r(x: float) -> float:
    return float(f"{x:.{_KEY_DECIMALS - 1}e}")


def _floored(criterion: float) -> float:
    return criterion if criterion >= ZERO_FLOW else 0.0


@dataclass(frozen=True)
class BaselineParams:
    """Thresholds shared by the baseline methods.

    simplify_factor: K-SIMP keeps deleting while the likelihood stays within
        this factor of the original MAP solution's likelihood.
    branch_floor: minimum P(branch|e) for an explanation-tree child.
    mi_threshold: minimum ET selection criterion for a non-root node.
    flow_threshold: minimum CET causal flow for a non-root node.
    k: number of solutions (MAP seeds, reported rows).

    Each threshold is a real number other than NaN, simplify_factor and
    branch_floor lie in [0, 1], and k is an integer of at least 1; anything
    else raises ValueError.
    """

    simplify_factor: float = 0.05
    branch_floor: float = 0.0
    mi_threshold: float = 0.05
    flow_threshold: float = 0.01
    k: int = 3

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, numbers.Real):
                if math.isnan(value):
                    raise ValueError(f"{f.name} must be a number, got nan")
            elif f.name != "k":  # _check_k names what k must be
                raise ValueError(f"{f.name} must be a number, got {value!r}")
        for name in ("simplify_factor", "branch_floor"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {getattr(self, name)}")
        _check_k(self.k)


# ---------------------------------------------------------------------------
# K-MAP

def k_map(network: Network, evidence: Assignment, k: int = 3) -> list[ScoredExplanation]:
    """Top-k full configurations of the unobserved targets by joint
    probability with the evidence.

    Reported score is the joint P(x, e). Ties break by higher prior, then by
    enumeration order (targets in declared order, rightmost fastest).
    """
    _check_k(k)
    return _k_map(explanation_tables(network, evidence), k)


def _k_map(tables: ExplanationTables, k: int) -> list[ScoredExplanation]:
    targets = tables.targets
    joints = tables.joint.values.ravel().tolist()
    priors = tables.prior.values.ravel().tolist()
    top = sorted(range(len(joints)), key=lambda i: (-_r(joints[i]), -_r(priors[i]), i))[:k]
    configs = list(itertools.product(*(tables.network.states(v) for v in targets)))
    return [ScoredExplanation(bindings=tuple(zip(targets, configs[i])), kind="joint",
                              value=joints[i], prior=priors[i], order=i)
            for i in top]


# ---------------------------------------------------------------------------
# K-SIMP

def _likelihood(tables: ExplanationTables, x: Assignment) -> float:
    """P(e | x) as P(x, e) / P(x), read from the tables."""
    px = float(sum_to(tables.network, tables.prior, at=x))
    if px <= 0.0:
        raise ValueError(f"conditioning assignment {dict(x)} has probability 0")
    return float(sum_to(tables.network, tables.joint, at=x)) / px


def k_simp(network: Network, evidence: Assignment,
           params: BaselineParams = BaselineParams()) -> list[ScoredExplanation]:
    """Simplified MAP solutions.

    Each of the k MAP configurations with P(x, e) > 0 is shrunk greedily: a
    variable may be deleted while the evidence likelihood of the reduced
    assignment stays within (1 - simplify_factor) of the ORIGINAL solution's
    likelihood, both at _KEY_DECIMALS significant digits, so a deletion that
    leaves the likelihood unchanged passes at factor 0. Each step deletes the
    variable leaving the highest likelihood (ties delete the latest-declared
    variable). Identical results are deduplicated; output is ranked by
    likelihood, then by fewer variables.
    """
    tables = explanation_tables(network, evidence)
    maps = [m for m in _k_map(tables, params.k) if m.value > 0.0]
    declared = {name: i for i, name in enumerate(network.names())}

    results = []
    for m in maps:
        cur = m.assignment()
        like = _likelihood(tables, cur)
        bound = _r((1.0 - params.simplify_factor) * like)
        while len(cur) > 1:
            best = None
            for v in cur:
                trial = {u: s for u, s in cur.items() if u != v}
                lt = _likelihood(tables, trial)
                key = (_r(lt), declared[v])
                if key[0] >= bound and (best is None or key > best[0]):
                    best = (key, v, lt)
            if best is None:
                break
            cur = {u: s for u, s in cur.items() if u != best[1]}
            like = best[2]
        results.append((tuple(sorted(cur.items())), like))

    seen: dict = {}
    order = []
    for bindings, like in results:
        if bindings not in seen:
            seen[bindings] = like
            order.append(bindings)
    rows = [ScoredExplanation(bindings=b, kind="likelihood", value=seen[b], order=i)
            for i, b in enumerate(order)]
    rows.sort(key=lambda r: (-_r(r.value), len(r.bindings)))
    return rows[:params.k]


# ---------------------------------------------------------------------------
# trees

@dataclass
class TreeBranch:
    state: str
    label: float
    child: "TreeNode | None"


@dataclass
class TreeNode:
    var: str
    criterion: float
    branches: tuple[TreeBranch, ...]


def _entropy(values: np.ndarray) -> float:
    p = values / values.sum()
    p = p[p > 0]
    return float(-(p * np.log(p)).sum())


def _grow(tables: ExplanationTables, choose, label, floor: float, threshold: float,
          unused: list[str], branch: Assignment) -> TreeNode | None:
    """The (sub)tree below branch over the unused targets; the root is the
    empty branch.

    choose(unused, branch) gives the variable to install and its criterion;
    label(branch) gives a branch's label. The root is always installed. A
    deeper node needs P(branch | e) above floor and a criterion that reaches
    threshold; otherwise the branch is a leaf.
    """
    if not unused:
        return None
    root = not branch
    if not root and float(sum_to(tables.network, tables.joint, at=branch)) / tables.pe <= floor:
        return None
    best, crit = choose(unused, branch)
    if not root and crit < threshold:
        return None
    rest = [u for u in unused if u != best]
    branches = []
    for s in tables.network.states(best):
        nb = {**branch, best: s}
        branches.append(TreeBranch(state=s, label=label(nb), child=_grow(
            tables, choose, label, floor, threshold, rest, nb)))
    return TreeNode(var=best, criterion=crit, branches=tuple(branches))


def explanation_tree(network: Network, evidence: Assignment,
                     params: BaselineParams = BaselineParams()) -> TreeNode | None:
    """Explanation tree over the unobserved target variables.

    At each node the unused target with the highest criterion is installed:
    the MAXIMUM over the other unused targets of pairwise mutual information
    with the candidate, conditioned on the branch and the evidence (0 below
    ZERO_FLOW). Ties break toward higher posterior entropy, then
    lexicographically. The last unused target is judged by its mutual
    information with the joint evidence variable set given the branch alone,
    so the deepest level can still expand. The root is always installed;
    deeper nodes require the criterion to reach mi_threshold and the branch
    to have conditional mass above branch_floor. Branch labels are P(branch | e).

    The last-level criterion is a slice of P(T, E) over the evidence variables
    E (`ExplanationTables.evidence_joint`), built when a node first reaches
    the last level. Everything else is a slice of P(T, e).
    """
    tables = explanation_tables(network, evidence)

    def joint(branch, keep=()):
        return sum_to(network, tables.joint, keep, branch)

    def pick(unused, branch):
        pair_mi = {pair: infer.table_mutual_information(joint(branch, pair))
                   for pair in itertools.combinations(sorted(unused), 2)}
        ranked = []
        for v in sorted(unused):
            others = [u for u in unused if u != v]
            if others:
                crit = max(pair_mi[tuple(sorted((v, u)))] for u in others)
            else:
                te = sum_to(network, tables.evidence_joint(), (v,) + tables.evidence_vars, branch)
                crit = infer.table_mutual_information(te.reshape(network.card(v), -1))
            crit = _floored(crit)
            ent = _entropy(joint(branch, (v,)))
            ranked.append((-crit, -ent, v))
        ranked.sort()
        _, _, best = ranked[0]
        return best, -ranked[0][0]

    def label(branch):
        return float(joint(branch)) / tables.pe

    return _grow(tables, pick, label, params.branch_floor, params.mi_threshold,
                 list(tables.targets), {})


def _flow(network: Network, joint: Factor, outcome, evidence_vars: tuple[str, ...],
          var: str, branch: Assignment) -> float:
    """Causal flow of a variable of `joint` at a branch over the others.

    `joint` holds P(scope, e). outcome(var) gives a table over the scope and
    the evidence variables whose slice at {**branch, var: state}, normalised,
    is the outcome distribution of do(var = state). A state with weight 0 is
    skipped before its slice is read. Flows below ZERO_FLOW are 0.
    """
    w = sum_to(network, joint, (var,), branch)
    z = w.sum()
    if z == 0.0:
        return 0.0
    w = (w / z).tolist()
    table = outcome(var)
    dists = {}
    for i, state in enumerate(network.states(var)):
        if w[i] == 0.0:
            continue
        d = sum_to(network, table, evidence_vars, {**branch, var: state}).ravel()
        pc = d.sum()
        if pc == 0.0:
            continue  # intervention makes the branch impossible
        dists[i] = d / pc
    if not dists:
        return 0.0
    mix = sum(w[i] * d for i, d in dists.items())
    flow = 0.0
    for i, d in dists.items():
        mask = d > 0
        p, q = d[mask], mix[mask]
        flow += w[i] * float(((p - q) * np.log(p / q)).sum())
    return _floored(flow)


def causal_flow(network: Network, var: str, evidence_vars: tuple[str, ...],
                branch: Assignment, evidence: Assignment) -> float:
    """Interventional flow from var to the evidence variables at a branch.

    Intervention states are weighted by their posterior P(state | branch, e);
    the interventional outcome distributions condition on the branch only
    (interventions are judged against the pre-observation world). The
    divergence is the symmetrized KL of each outcome distribution against
    the weighted mixture, restricted to each intervention's support. A flow
    below ZERO_FLOW is returned as exactly 0. Each v is cut in its run, a
    root too, so a root's flow can differ at round-off from a CET tree's,
    which reads a root's outcome distributions from the uncut P(T, E).
    """
    if var in branch or var in evidence_vars:
        raise ValueError(f"{var!r} is bound by the branch or among the evidence variables")
    joint = query(network, (var, *branch), evidence)
    evidence_vars = tuple(evidence_vars)
    return _flow(network, joint, lambda v: query(network, joint.scope + evidence_vars, _cut=(v,)),
                 evidence_vars, var, branch)


def causal_explanation_tree(network: Network, evidence: Assignment,
                            params: BaselineParams = BaselineParams()) -> TreeNode | None:
    """Causal explanation tree over the unobserved targets: nodes picked by
    maximum causal flow.

    The root is always installed; deeper nodes require flow_threshold.
    Branch labels are ln P(e|branch) - ln P(e); impossible branches get
    label -inf and become leaves.

    One VE run gives P(T, E) over the unobserved targets T and the evidence
    variables E (`infer.evidence_joint_tables`). P(T) is its sum over E,
    P(T, e) its slice at e, and every root target reads its outcome
    distributions from it (`ExplanationTables.outcome`). Each target with
    parents adds one run that cuts its arcs, a shape the network plans once:
    1 + |targets with parents| runs in all. Flows below ZERO_FLOW are 0, so
    targets without a causal path to the evidence tie and go by name.
    """
    tables = infer.evidence_joint_tables(network, evidence)

    def pick(unused, branch):
        crit = {v: _flow(network, tables.joint, tables.outcome, tables.evidence_vars, v, branch)
                for v in sorted(unused)}
        best = min(crit, key=lambda v: (-crit[v], v))
        return best, crit[best]

    def label(branch):
        pb = float(sum_to(network, tables.prior, at=branch))
        pbe = float(sum_to(network, tables.joint, at=branch))
        return math.log(pbe / pb / tables.pe) if pbe > 0.0 else -math.inf

    return _grow(tables, pick, label, 0.0, params.flow_threshold, list(tables.targets), {})


# ---------------------------------------------------------------------------
# rendering

def tree_doc(node: TreeNode | None):
    """JSON-ready dict form of a tree (full precision)."""
    if node is None:
        return None
    return {
        "variable": node.var,
        "criterion": node.criterion,
        "branches": [
            {"state": b.state, "label": b.label, "child": tree_doc(b.child)}
            for b in node.branches
        ],
    }


def render_tree(node: TreeNode | None, indent: str = "") -> str:
    if node is None:
        return indent + "(empty)\n"
    out = [f"{indent}{node.var}  [criterion {node.criterion:.4f}]\n"]
    for b in node.branches:
        label = f"{b.label:.4f}" if math.isfinite(b.label) else str(b.label)
        out.append(f"{indent}  = {b.state}  ({label})\n")
        if b.child is not None:
            out.append(render_tree(b.child, indent + "      "))
    return "".join(out)
