"""Discrete Bayesian networks: variables, CPTs, roles, validation, serialization.

A network is an immutable bundle of variables and one CPT per variable.
CPTs come in three kinds: full tables, noisy-OR gates, and deterministic
maps with exception rows. Tables are stored row-major with the rightmost
parent varying fastest and child states innermost; everything downstream
(inference factors, the JSON file format) shares that layout.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Union

import numpy as np

if TYPE_CHECKING:
    import networkx as nx

ROLES = ("target", "observation", "auxiliary")

ROW_SUM_TOL = 1e-9

# Partial map variable -> state. Used for evidence, explanations, and MAP
# configurations alike.
Assignment = Mapping[str, str]


@dataclass(frozen=True)
class Variable:
    name: str
    states: tuple[str, ...]
    role: str = "auxiliary"


@dataclass(frozen=True)
class TableCpt:
    child: str
    parents: tuple[str, ...]
    # Flat row-major probabilities: one row of child-state probabilities per
    # parent configuration, rightmost parent fastest.
    rows: tuple[float, ...]
    kind: str = field(default="table", init=False, repr=False)


@dataclass(frozen=True)
class NoisyOrTrigger:
    parent: str
    activating_state: str
    p: float


@dataclass(frozen=True)
class NoisyOrCpt:
    """Binary noisy-OR: each active parent independently causes the effect."""

    child: str
    parents: tuple[str, ...]
    effect_state: str
    triggers: tuple[NoisyOrTrigger, ...]
    leak: float = 0.0
    kind: str = field(default="noisy_or", init=False, repr=False)


@dataclass(frozen=True)
class DeterministicCpt:
    """Child state selected per parent configuration: a default plus exceptions.

    Each exception binds a full parent configuration (in parent order) to a
    child state.
    """

    child: str
    parents: tuple[str, ...]
    default_state: str
    exceptions: tuple[tuple[tuple[str, ...], str], ...] = ()
    kind: str = field(default="deterministic", init=False, repr=False)


Cpt = Union[TableCpt, NoisyOrCpt, DeterministicCpt]


@dataclass(frozen=True)
class Network:
    """Variables and one CPT each. `infer.query` keeps one plan per query
    shape (queried, conditioned and cut names) in `_plans`, filled on first
    use, so a new network plans afresh and the plans grow with the shapes
    asked; ==, hash and repr ignore it."""

    variables: tuple[Variable, ...]
    cpts: tuple[Cpt, ...]

    def __post_init__(self):
        object.__setattr__(self, "_vars", {v.name: v for v in self.variables})
        object.__setattr__(self, "_cpts", {c.child: c for c in self.cpts})
        object.__setattr__(self, "_plans", {})

    def var(self, name: str) -> Variable:
        try:
            return self._vars[name]
        except KeyError:
            raise ValueError(f"unknown variable {name!r}") from None

    def states(self, name: str) -> tuple[str, ...]:
        return self.var(name).states

    def card(self, name: str) -> int:
        return len(self.var(name).states)

    def cpt(self, name: str) -> Cpt:
        self.var(name)
        return self._cpts[name]

    def parents(self, name: str) -> tuple[str, ...]:
        return self.cpt(name).parents

    def names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.variables)

    def by_role(self, role: str) -> tuple[str, ...]:
        return tuple(v.name for v in self.variables if v.role == role)

    @property
    def targets(self) -> tuple[str, ...]:
        return self.by_role("target")

    @property
    def observations(self) -> tuple[str, ...]:
        return self.by_role("observation")

    def graph(self) -> nx.DiGraph:
        import networkx as nx  # only graph queries need it; keeps imports light

        g = nx.DiGraph()
        g.add_nodes_from(self.names())
        for c in self.cpts:
            g.add_edges_from((p, c.child) for p in c.parents)
        return g


def check_assignment(network: Network, assignment: Assignment) -> None:
    for var, state in assignment.items():
        if state not in network.states(var):
            raise ValueError(f"{state!r} is not a state of {var!r}")


# ---------------------------------------------------------------------------
# validation

def validate(network: Network) -> list[str]:
    """Return all invariant violations; an empty list means the network is ok."""
    problems: list[str] = []
    seen = set()
    for v in network.variables:
        if v.name in seen:
            problems.append(f"duplicate variable {v.name!r}")
        seen.add(v.name)
        if len(v.states) < 2:
            problems.append(f"{v.name}: fewer than 2 states")
        if len(set(v.states)) != len(v.states):
            problems.append(f"{v.name}: duplicate state names")
        if v.role not in ROLES:
            problems.append(f"{v.name}: unknown role {v.role!r}")

    children = [c.child for c in network.cpts]
    if len(set(children)) != len(children):
        problems.append("multiple CPTs for one variable")
    for name in seen:
        if name not in network._cpts:
            problems.append(f"{name}: no CPT")

    for cpt in network.cpts:
        problems.extend(_check_cpt(network, cpt, seen))

    cycle = _find_cycle(network)
    if cycle:
        problems.append("cycle: " + " -> ".join(cycle))
    return problems


def _find_cycle(network: Network) -> list[str] | None:
    """The variables along one directed cycle (parent to child), if any."""
    children: dict[str, list[str]] = {name: [] for name in network.names()}
    for c in network.cpts:
        children.setdefault(c.child, [])
        for p in c.parents:
            children.setdefault(p, []).append(c.child)
    done: set[str] = set()
    for root in children:
        if root in done:
            continue
        path, stack = [root], [iter(children[root])]
        while stack:
            for v in stack[-1]:
                if v in path:
                    return path[path.index(v):]
                if v not in done:
                    path.append(v)
                    stack.append(iter(children[v]))
                    break
            else:
                stack.pop()
                done.add(path.pop())
    return None


def _check_cpt(network, cpt, known) -> list[str]:
    out = []
    where = f"CPT of {cpt.child}"
    if cpt.child not in known:
        return [f"{where}: unknown child"]
    for p in cpt.parents:
        if p not in known:
            out.append(f"{where}: unknown parent {p!r}")
    if len(set(cpt.parents)) != len(cpt.parents) or cpt.child in cpt.parents:
        out.append(f"{where}: bad parent list")
    if out:
        return out

    if isinstance(cpt, TableCpt):
        nconf = 1
        for p in cpt.parents:
            nconf *= network.card(p)
        width = network.card(cpt.child)
        if len(cpt.rows) != nconf * width:
            out.append(f"{where}: {len(cpt.rows)} entries, expected {nconf * width}")
            return out
        for i in range(nconf):
            row = cpt.rows[i * width:(i + 1) * width]
            if any(not 0 <= x <= 1 for x in row):  # also true for NaN
                out.append(f"{where}: row {i} has entries outside [0,1]")
            s = sum(row)
            if not math.isfinite(s) or abs(s - 1.0) > ROW_SUM_TOL:
                out.append(f"{where}: row {i} sum {s} != 1")
    elif isinstance(cpt, NoisyOrCpt):
        if network.card(cpt.child) != 2:
            out.append(f"{where}: noisy-OR child must be binary")
        if cpt.effect_state not in network.states(cpt.child):
            out.append(f"{where}: effect state {cpt.effect_state!r} unknown")
        if not 0 <= cpt.leak <= 1:
            out.append(f"{where}: leak {cpt.leak} outside [0,1]")
        seen_parents = set()
        for t in cpt.triggers:
            if t.parent not in cpt.parents:
                out.append(f"{where}: trigger on non-parent {t.parent!r}")
                continue
            if t.parent in seen_parents:
                out.append(f"{where}: two triggers on {t.parent!r}")
            seen_parents.add(t.parent)
            if t.activating_state not in network.states(t.parent):
                out.append(f"{where}: bad activating state for {t.parent!r}")
            if not 0 <= t.p <= 1:
                out.append(f"{where}: trigger p {t.p} outside [0,1]")
    else:
        if cpt.default_state not in network.states(cpt.child):
            out.append(f"{where}: default state {cpt.default_state!r} unknown")
        seen_conf = set()
        for conf, state in cpt.exceptions:
            if len(conf) != len(cpt.parents):
                out.append(f"{where}: exception does not bind every parent")
                continue
            for p, s in zip(cpt.parents, conf):
                if s not in network.states(p):
                    out.append(f"{where}: exception state {s!r} not a state of {p!r}")
            if state not in network.states(cpt.child):
                out.append(f"{where}: exception child state {state!r} unknown")
            if conf in seen_conf:
                out.append(f"{where}: parent configuration {conf} covered twice")
            seen_conf.add(conf)
    return out


# ---------------------------------------------------------------------------
# CPT lowering

def expand_cpt(network: Network, cpt: Cpt) -> np.ndarray:
    """The CPT's probabilities as an array shaped parents + (child,).

    Axes follow `cpt.parents` and then the child, in C order, so the flat view
    is the table layout (rightmost parent fastest, child states innermost).
    A noisy-OR's no-effect probability is (1 - leak) times (1 - p) of each
    active trigger, multiplied in parent order; an inactive parent
    contributes an exact factor of 1.0, so every entry is bit-identical to
    the product taken one configuration at a time (`tests/oracle.py`). A
    deterministic CPT is a one-hot array over the chosen child state of each
    parent configuration.
    """
    shape = [network.card(p) for p in cpt.parents] + [network.card(cpt.child)]
    if isinstance(cpt, TableCpt):
        return np.asarray(cpt.rows, dtype=float).reshape(shape)
    child_states = network.states(cpt.child)
    if isinstance(cpt, NoisyOrCpt):
        by_parent = {t.parent: t for t in cpt.triggers}
        q = np.asarray(1.0 - cpt.leak)
        for p in cpt.parents:
            states = network.states(p)
            factor = [1.0] * len(states)
            t = by_parent.get(p)
            if t is not None and t.activating_state in states:
                factor[states.index(t.activating_state)] = 1.0 - t.p
            q = np.multiply.outer(q, factor)
        effect = child_states.index(cpt.effect_state)
        values = np.empty(shape)
        values[..., effect] = 1.0 - q
        values[..., 1 - effect] = q
        return values
    chosen = np.full(shape[:-1], child_states.index(cpt.default_state), dtype=np.intp)
    for conf, state in cpt.exceptions:
        chosen[tuple(network.states(p).index(s) for p, s in zip(cpt.parents, conf))] = \
            child_states.index(state)
    return np.eye(len(child_states))[chosen]


# ---------------------------------------------------------------------------
# serialization

def serialize_network(network: Network) -> str:
    doc = {
        "variables": [
            {"name": v.name, "states": list(v.states), "role": v.role}
            for v in network.variables
        ],
        "cpts": [_cpt_doc(c) for c in network.cpts],
    }
    return json.dumps(doc, indent=2)


def _cpt_doc(cpt):
    doc = {"child": cpt.child, "parents": list(cpt.parents), "kind": cpt.kind}
    if isinstance(cpt, TableCpt):
        doc["rows"] = list(cpt.rows)
    elif isinstance(cpt, NoisyOrCpt):
        doc["effect_state"] = cpt.effect_state
        doc["triggers"] = [
            {"parent": t.parent, "activating_state": t.activating_state, "p": t.p}
            for t in cpt.triggers
        ]
        doc["leak"] = cpt.leak
    else:
        doc["default_state"] = cpt.default_state
        doc["exceptions"] = [
            {"when": dict(zip(cpt.parents, conf)), "then": state}
            for conf, state in cpt.exceptions
        ]
    return doc


def parse_network(text: str) -> Network:
    """Parse the JSON network format; raises ValueError naming the bad field."""
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as e:
        raise ValueError(f"not valid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise ValueError("top level must be an object")
    raw_vars = _array(doc.get("variables"), "variables")
    if not raw_vars:
        raise ValueError("variables is empty")
    variables = []
    for i, rv in enumerate(raw_vars):
        where = f"variables[{i}]"
        _object(rv, where)
        try:
            variables.append(Variable(
                name=_string(rv["name"], f"{where}.name"),
                states=_strings(rv["states"], f"{where}.states"),
                role=rv.get("role", "auxiliary"),
            ))
        except (KeyError, TypeError) as e:
            raise ValueError(f"{where}: missing field {e}") from None
    cpts = []
    for i, rc in enumerate(_array(doc.get("cpts", []), "cpts")):
        where = f"cpts[{i}]"
        _object(rc, where)
        try:
            cpts.append(_parse_cpt(rc, where))
        except (KeyError, TypeError, OverflowError) as e:
            raise ValueError(f"{where}: bad or missing field {e}") from None
    net = Network(variables=tuple(variables), cpts=tuple(cpts))
    problems = validate(net)
    if problems:
        raise ValueError("; ".join(problems))
    return net


def _array(value, where: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{where} must be an array")
    return value


def _object(value, where: str) -> None:
    if not isinstance(value, dict):
        raise ValueError(f"{where} must be an object")


def _is_number(value) -> bool:
    # json.loads gives exact types, and a bool is not a probability
    return type(value) in (int, float)


def _number(value, where: str) -> float:
    if not _is_number(value):
        raise ValueError(f"{where} must be a number")
    return float(value)


def _string(value, where: str) -> str:
    if not isinstance(value, str):
        raise ValueError(f"{where} must be a string")
    return value


def _strings(value, where: str) -> tuple[str, ...]:
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise ValueError(f"{where} must be an array of strings")
    return tuple(value)


def _parse_cpt(rc, where: str) -> Cpt:
    child = _string(rc["child"], f"{where}.child")
    parents = _strings(rc["parents"], f"{where}.parents")
    kind = rc["kind"]
    if kind == "table":
        rows = _array(rc["rows"], f"{where}.rows")
        if not all(_is_number(x) for x in rows):
            raise ValueError(f"{where}.rows must be an array of numbers")
        return TableCpt(child=child, parents=parents, rows=tuple(float(x) for x in rows))
    if kind == "noisy_or":
        triggers = tuple(_parse_trigger(t, where, j)
                         for j, t in enumerate(_array(rc["triggers"], f"{where}.triggers")))
        return NoisyOrCpt(child=child, parents=parents,
                          effect_state=_string(rc["effect_state"], f"{where}.effect_state"),
                          triggers=triggers, leak=_number(rc.get("leak", 0.0), f"{where}.leak"))
    if kind == "deterministic":
        exceptions = tuple(
            _parse_exception(ex, parents, where, j)
            for j, ex in enumerate(_array(rc.get("exceptions", []), f"{where}.exceptions")))
        return DeterministicCpt(child=child, parents=parents,
                                default_state=_string(rc["default_state"],
                                                      f"{where}.default_state"),
                                exceptions=exceptions)
    raise ValueError(f"{where}: unknown CPT kind {kind!r}")


# A CPT can hold many triggers or exceptions, so their checks format a
# field's name only to refuse it.

def _parse_trigger(t, where: str, j: int) -> NoisyOrTrigger:
    if not isinstance(t, dict):
        raise ValueError(f"{where}.triggers[{j}] must be an object")
    parent, state, p = t["parent"], t["activating_state"], t["p"]
    if not isinstance(parent, str):
        raise ValueError(f"{where}.triggers[{j}].parent must be a string")
    if not isinstance(state, str):
        raise ValueError(f"{where}.triggers[{j}].activating_state must be a string")
    if not _is_number(p):
        raise ValueError(f"{where}.triggers[{j}].p must be a number")
    return NoisyOrTrigger(parent, state, float(p))


def _parse_exception(ex, parents: tuple[str, ...], where: str,
                     j: int) -> tuple[tuple[str, ...], str]:
    if not isinstance(ex, dict):
        raise ValueError(f"{where}.exceptions[{j}] must be an object")
    when, then = ex["when"], ex["then"]
    if not isinstance(when, dict):
        raise ValueError(f"{where}.exceptions[{j}].when must be an object")
    states = tuple(when[p] for p in parents)
    for p, state in zip(parents, states):
        if not isinstance(state, str):
            raise ValueError(f"{where}.exceptions[{j}].when.{p} must be a string")
    if not isinstance(then, str):
        raise ValueError(f"{where}.exceptions[{j}].then must be a string")
    return states, then


def load_network(path) -> Network:
    with open(path, encoding="utf-8") as fh:
        return parse_network(fh.read())


# ---------------------------------------------------------------------------
# graph queries

def d_separated(network: Network, a, b, z) -> bool:
    """True iff every path between variable sets a and b is blocked by z."""
    import networkx as nx

    a, b, z = set(a), set(b), set(z)
    for name in a | b | z:
        network.var(name)
    return nx.is_d_separator(network.graph(), a, b, z)
