"""Exact probabilistic queries: marginal, conditional, likelihood, and
interventions.

Production inference is variable elimination with a min-fill ordering,
which recounts every fill count at each step; the brute-force joint is kept
as a testing oracle. A VE run reads only the CPTs of the queried and
conditioned variables and their ancestors. That list and the elimination
order are structure only: `_plan` computes them from the parents of each
variable, before any array exists, once per query shape, and the network
keeps them. A shape includes the variables whose arcs an intervention cuts.
So asking a shape again with other states plans nothing, a new `Network`
plans anew, and the plans grow with the number of distinct shapes asked.
One `ExplanationTables` holds every table of an explanation query: MRE,
K-MRE, K-MAP, K-SIMP and ET build it by two runs, P(T) and P(T, e) over the
unobserved targets (`explanation_tables`), and CET by one run of P(T, E)
over the evidence variables too (`evidence_joint_tables`). Nats throughout.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Iterable

import numpy as np

from .model import Assignment, Network, TableCpt, check_assignment, expand_cpt


class ImpossibleEvidenceError(ValueError):
    """Conditioning evidence has probability zero."""


@dataclass
class Factor:
    """Nonnegative table over an ordered variable scope.

    One array axis per scope variable, C order, so the flat view is row-major
    with the rightmost scope variable varying fastest.
    """

    scope: tuple[str, ...]
    values: np.ndarray

    def item(self) -> float:
        if self.scope:
            raise ValueError("not a scalar factor")
        return float(self.values)


def cpt_factor(network: Network, name: str) -> Factor:
    """CPT as a factor with scope parents + (child,), lowered by `expand_cpt`."""
    cpt = network.cpt(name)
    return Factor(scope=cpt.parents + (name,), values=expand_cpt(network, cpt))


def multiply(a: Factor, b: Factor) -> Factor:
    scope = a.scope + tuple(v for v in b.scope if v not in a.scope)
    return Factor(scope, _aligned(a, scope) * _aligned(b, scope))


def _aligned(f: Factor, scope: tuple[str, ...]) -> np.ndarray:
    pos = {v: i for i, v in enumerate(f.scope)}
    order = [pos[v] for v in scope if v in pos]
    vals = np.transpose(f.values, order)
    shape = [f.values.shape[pos[v]] if v in pos else 1 for v in scope]
    return vals.reshape(shape)


def sum_out(f: Factor, var: str) -> Factor:
    i = f.scope.index(var)
    return Factor(f.scope[:i] + f.scope[i + 1:], f.values.sum(axis=i))


def restrict(f: Factor, var: str, index: int) -> Factor:
    i = f.scope.index(var)
    return Factor(f.scope[:i] + f.scope[i + 1:], np.take(f.values, index, axis=i))


def _minfill_order(scopes: list[tuple[str, ...]], keep: set[str]) -> list[str]:
    """Elimination order by min-fill, lexicographic tie-break.

    Each step eliminates the variable outside `keep` whose neighbours lack
    the fewest edges among themselves (ties: smallest name), then joins those
    neighbours. Every count is recounted at every step: a network orders each
    query shape once (`_plan`), so keeping them up to date would not pay.
    """
    adj: dict[str, set[str]] = {}
    for sc in scopes:
        for v in sc:
            adj.setdefault(v, set()).update(u for u in sc if u != v)
    todo = set(adj) - keep
    order = []
    while todo:
        # twice u's fill count: each neighbour w of u lacks w itself and the
        # neighbours of u it is not joined to, so summing over w counts every
        # unjoined pair twice and every w once
        v = min(todo, key=lambda u: (sum(len(adj[u] - adj[w]) for w in adj[u]) - len(adj[u]), u))
        todo.remove(v)
        order.append(v)
        ns = adj.pop(v)
        for u in ns:
            adj[u] |= ns
            adj[u] -= {u, v}
    return order


def _plan(network: Network, variables: tuple[str, ...], conditioned: frozenset[str],
          cut: frozenset[str]) -> tuple[list[str], list[str]]:
    """The CPTs a query of this shape reads, in declared order, and their
    min-fill elimination order, from the graph alone.

    The CPTs are those of `variables`, the conditioned names and their
    ancestors, where a `cut` name has no parents. Each one's scope is its
    parents and child without the conditioned names, as after restriction.
    """
    parents = {name: () if name in cut else network.parents(name) for name in network.names()}
    seen = {*variables, *conditioned}
    todo = list(seen)
    while todo:
        for p in parents[todo.pop()]:
            if p not in seen:
                seen.add(p)
                todo.append(p)
    names = [name for name in network.names() if name in seen]
    scopes = [tuple(v for v in (*parents[name], name) if v not in conditioned)
              for name in names]
    return names, _minfill_order(scopes, set(variables))


def query(network: Network, variables: tuple[str, ...] = (), condition: Assignment | None = None,
          *, _cut: Collection[str] = ()) -> Factor:
    """Unnormalized factor: values[config] = P(variables=config, condition).

    With empty `variables` the result is a scalar factor holding P(condition).
    Only the CPTs of `variables`, the conditioned variables and their
    ancestors are lowered and eliminated. Every other variable is barren: it
    sums out to 1 (Shachter 1986). So the prior over root variables is the
    product of their CPTs, and a query with nothing to read is exactly 1.0.
    A `_cut` variable's arcs are cut: no parents and a uniform prior.
    The CPTs read and the elimination order depend only on the shape:
    `variables`, the conditioned and the cut names. The network keeps them
    on first use, so a later query of that shape works exactly as the first.
    """
    condition = dict(condition or {})
    check_assignment(network, condition)
    for v in variables:
        network.var(v)
        if v in condition:
            raise ValueError(f"{v!r} is both queried and conditioned on")
    if len(set(variables)) != len(variables):
        raise ValueError(f"a variable is queried twice in {tuple(variables)}")

    shape = (tuple(variables), frozenset(condition), frozenset(_cut))
    plan = network._plans.get(shape)
    if plan is None:
        plan = network._plans[shape] = _plan(network, *shape)
    names, order = plan
    factors = []
    for name in names:
        f = (Factor((name,), np.full(network.card(name), 1.0 / network.card(name)))
             if name in _cut else cpt_factor(network, name))
        for var, state in condition.items():
            if var in f.scope:
                f = restrict(f, var, network.states(var).index(state))
        factors.append(f)

    for v in order:
        bucket = [f for f in factors if v in f.scope]
        factors = [f for f in factors if v not in f.scope]
        prod = bucket[0]
        for f in bucket[1:]:
            prod = multiply(prod, f)
        factors.append(sum_out(prod, v))

    out = factors[0] if factors else Factor((), np.float64(1.0))
    for f in factors[1:]:
        out = multiply(out, f)
    # align scope to the requested variable order
    if out.scope != tuple(variables):
        pos = {v: i for i, v in enumerate(out.scope)}
        out = Factor(tuple(variables),
                     np.transpose(out.values, [pos[v] for v in variables]))
    return out


def sum_to(network: Network, f: Factor, keep: tuple[str, ...] = (),
           at: Assignment | None = None) -> np.ndarray:
    """The entries of f consistent with `at`, summed down to one axis per
    `keep` variable, in that order. With empty `keep` the result is 0-d.

    Every `at` name must be in f's scope with a known state; every `keep`
    name must be in the scope, unbound by `at` and named once. Otherwise a
    ValueError names the variable.
    """
    at = at or {}
    try:
        pick = tuple([network.states(v).index(at[v]) if v in at else slice(None)
                      for v in f.scope])
    except ValueError:
        check_assignment(network, at)
        raise
    rest = [v for v in f.scope if v not in at]
    if len(rest) + len(at) != len(f.scope):
        bad = next(v for v in at if v not in f.scope)
        raise ValueError(f"{bad!r} is not in the factor's scope {f.scope}")
    kept = [v for v in rest if v in keep]
    if len(kept) != len(keep):
        for v in keep:
            if keep.count(v) > 1:
                raise ValueError(f"{v!r} is kept twice in {tuple(keep)}")
            if v in at:
                raise ValueError(f"{v!r} is both kept and bound")
            if v not in f.scope:
                raise ValueError(f"{v!r} is not in the factor's scope {f.scope}")
    values = f.values[pick].sum(axis=tuple([i for i, v in enumerate(rest) if v not in keep]))
    return np.transpose(values, [kept.index(v) for v in keep])


class ExplanationTables:
    """Every table of one (network, evidence) query, each built once.

    `prior` P(T) and `joint` P(T, e) are over the unobserved targets T in
    declared order, and `pe` is P(e). The tables over T and the sorted
    evidence variables E are built by one VE run each on first use and kept.
    """

    def __init__(self, network: Network, evidence: Assignment, prior: Factor,
                 joint: Factor, pe: float, evidence_joint: Factor | None = None):
        self.network = network
        self.evidence = evidence
        self.evidence_vars = tuple(sorted(evidence))
        self.prior = prior
        self.joint = joint
        self.pe = pe
        self.targets = joint.scope
        self._runs = {} if evidence_joint is None else {(): evidence_joint}

    def evidence_joint(self) -> Factor:
        """P(T, E), not conditioned on e."""
        return self._run(())

    def outcome(self, var: str) -> Factor:
        """P(T, E) with var's incoming arcs cut: sliced at var = s and
        normalised, the outcome distribution of do(var = s). A root target
        reads `evidence_joint()`, as the normalisation cancels its prior."""
        return self._run((var,) if self.network.parents(var) else ())

    def _run(self, cut: tuple[str, ...]) -> Factor:
        if cut not in self._runs:
            self._runs[cut] = query(self.network, self.targets + self.evidence_vars, _cut=cut)
        return self._runs[cut]


def _unobserved_targets(network: Network, evidence: Assignment) -> tuple[str, ...]:
    """The targets an explanation may bind, after the checks every way of
    building the tables shares: nonempty evidence over known variables and
    states, and at least one target left unobserved."""
    if not evidence:
        raise ValueError("evidence must be nonempty")
    check_assignment(network, evidence)
    targets = tuple(t for t in network.targets if t not in evidence)
    if not targets:
        raise ValueError("network has no unobserved target variables")
    return targets


def _evidence_mass(joint: Factor, evidence: Assignment) -> float:
    pe = float(joint.values.sum())
    if pe <= 0.0:
        raise ImpossibleEvidenceError(f"evidence {evidence} has probability 0")
    return pe


def explanation_tables(network: Network, evidence: Assignment) -> ExplanationTables:
    """The two tables every explanation method reads, by two VE runs.

    P(e) is the sum of P(T, e). Targets bound by the evidence are not part of
    any explanation, so the tables leave them out. Empty evidence is refused:
    every GBF would be exactly 1, and a ranking would order round-off.
    """
    evidence = dict(evidence)
    targets = _unobserved_targets(network, evidence)
    joint = query(network, targets, evidence)
    pe = _evidence_mass(joint, evidence)
    return ExplanationTables(network, evidence, query(network, targets), joint, pe)


def evidence_joint_tables(network: Network, evidence: Assignment) -> ExplanationTables:
    """The tables of `explanation_tables`, read from one VE run of P(T, E),
    which the holder keeps as its `evidence_joint()`.

    P(T) is the sum of P(T, E) over E, P(T, e) its slice at e and P(e) the
    sum of that slice. Inputs are refused exactly as by `explanation_tables`.
    P(T, e) alone is cheaper, so this pays only for a caller that reads
    P(T, E) anyway.
    """
    evidence = dict(evidence)
    targets = _unobserved_targets(network, evidence)
    te = query(network, targets + tuple(sorted(evidence)))
    joint = Factor(targets, sum_to(network, te, targets, evidence))
    pe = _evidence_mass(joint, evidence)
    return ExplanationTables(network, evidence, Factor(targets, sum_to(network, te, targets)),
                             joint, pe, te)


def prob(network: Network, assignment: Assignment, evidence: Assignment | None = None) -> float:
    """Exact P(assignment | evidence); prior probability when evidence is empty."""
    assignment = dict(assignment)
    evidence = dict(evidence or {})
    merged = _merge(assignment, evidence)
    if not evidence:
        return query(network, (), merged).item()
    pe = query(network, (), evidence).item()
    if pe <= 0.0:
        raise ImpossibleEvidenceError(f"evidence {evidence} has probability 0")
    return query(network, (), merged).item() / pe


def likelihood(network: Network, evidence: Assignment, assignment: Assignment) -> float:
    """Exact P(evidence | assignment): `prob` with its arguments reversed."""
    return prob(network, evidence, assignment)


def _merge(a: dict, b: dict) -> dict:
    for var, state in b.items():
        if a.get(var, state) != state:
            raise ValueError(f"{var!r} bound to both {a[var]!r} and {state!r}")
    return {**a, **b}


def marginal(network: Network, variables: tuple[str, ...], evidence: Assignment | None = None) -> Factor:
    """Normalized posterior factor over `variables` given evidence."""
    f = query(network, variables, evidence)
    z = f.values.sum()
    if z <= 0.0:
        raise ImpossibleEvidenceError(f"evidence {dict(evidence or {})} has probability 0")
    return Factor(f.scope, f.values / z)


def mutilate(network: Network, variables: Iterable[str]) -> Network:
    """Graph surgery: each named variable loses its incoming arcs and gets a
    uniform prior.

    The result is a valid network in which conditioning on v = s is the
    intervention do(v = s) (truncated factorization): P'(y | v = s) =
    P(y | do(v = s)). A do-query is prob(mutilate(net, do), event,
    {**evidence, **do}); `query`'s `_cut` cuts the same arcs inside a run.
    """
    if isinstance(variables, str):
        raise ValueError(f"mutilate takes a collection of names, got the string {variables!r}")
    cut = set(variables)
    for v in cut:
        network.var(v)
    cpts = []
    for cpt in network.cpts:
        if cpt.child in cut:
            n = network.card(cpt.child)
            cpt = TableCpt(child=cpt.child, parents=(), rows=(1.0 / n,) * n)
        cpts.append(cpt)
    return Network(variables=network.variables, cpts=tuple(cpts))


def brute_force_joint(network: Network, cap: int = 2 ** 24) -> Factor:
    """Full joint over all variables (declared order) by chain-rule product."""
    size = 1
    for v in network.variables:
        size *= len(v.states)
    if size > cap:
        raise ValueError(f"joint size {size} exceeds cap {cap}")
    out = Factor((), np.float64(1.0))
    for name in network.names():
        out = multiply(out, cpt_factor(network, name))
    names = network.names()
    pos = {v: i for i, v in enumerate(out.scope)}
    return Factor(names, np.transpose(out.values, [pos[v] for v in names]))


# ---------------------------------------------------------------------------
# information measures (nats)

def table_mutual_information(table: np.ndarray) -> float:
    """I(rows; columns) of an unnormalized 2-D table; 0 for an all-zero table."""
    z = table.sum()
    if z == 0.0:
        return 0.0
    pj = table / z
    pa = pj.sum(axis=1, keepdims=True)
    pb = pj.sum(axis=0, keepdims=True)
    mask = pj > 0
    total = float((pj[mask] * np.log(pj[mask] / (pa * pb)[mask])).sum())
    return max(0.0, total)

