"""Seeded generator of layered noisy-OR diagnosis networks (QMR-DT style).

A network has three layers: target faults (roots with table priors), binary
noisy-OR auxiliary causes, and binary noisy-OR findings. Every finding is
observed; the evidence binds findings only.

Two string seeds drive the generator. The structure seed picks the parents
of every variable; the parameter seed picks every probability, the states
that trigger each noisy-OR link and the evidence. Inference cost depends
on the structure alone, so networks that share a structure seed cost about
the same to query whatever their parameters.

The same seeds always give the same network JSON, byte for byte: every
probability is rounded to four decimals before it enters a CPT.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

from bnexplain.model import Network, NoisyOrCpt, NoisyOrTrigger, TableCpt, Variable

STATES = {2: ("absent", "present"), 3: ("absent", "mild", "severe")}
FINDING_STATES = ("negative", "positive")


@dataclass(frozen=True)
class Shape:
    """Size parameters of one generated network.

    target_cards: cardinality (2 or 3) of each target fault.
    n_aux: auxiliary variables.
    fan_in: (least, most) parents of each auxiliary variable and finding.
    n_obs: findings, all of them observed.
    window: parents are drawn from the last ``window`` variables created
        (targets first, then auxiliaries), which bounds the treewidth.
    """

    target_cards: tuple[int, ...]
    n_aux: int
    fan_in: tuple[int, int]
    n_obs: int
    window: int


def _p(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 4)


def _prior(rng: random.Random, card: int) -> tuple[float, ...]:
    faulty = [_p(rng, 0.02, 0.15) for _ in range(card - 1)]
    return (round(1.0 - sum(faulty), 4), *faulty)


def _parents(topo: random.Random, pool: list[str], shape: Shape,
             uncovered: list[str]) -> tuple[str, ...]:
    """Pick parents from pool, taking variables that have no child yet first."""
    k = min(topo.randint(*shape.fan_in), len(pool))
    first = [v for v in uncovered if v in pool][:k]
    rest = topo.sample([v for v in pool if v not in first], k - len(first))
    for v in first:
        uncovered.remove(v)
    return tuple(first + rest)


def _noisy_or(rng, child, parents, states_of, effect_state) -> NoisyOrCpt:
    triggers = tuple(
        NoisyOrTrigger(p, rng.choice(states_of[p][1:]), _p(rng, 0.3, 0.95))
        for p in parents)
    return NoisyOrCpt(child=child, parents=parents, effect_state=effect_state,
                      triggers=triggers, leak=_p(rng, 0.01, 0.05))


def generate(shape: Shape, structure_seed: str,
             seed: str) -> tuple[Network, dict[str, str]]:
    """Build one network and its evidence (a state for every finding)."""
    topo = random.Random(structure_seed)
    rng = random.Random(seed)
    variables: list[Variable] = []
    cpts: list = []
    states_of: dict[str, tuple[str, ...]] = {}

    targets = [f"T{i}" for i in range(len(shape.target_cards))]
    for name, card in zip(targets, shape.target_cards):
        states_of[name] = STATES[card]
        variables.append(Variable(name, STATES[card], "target"))
        cpts.append(TableCpt(child=name, parents=(), rows=_prior(rng, card)))

    uncovered = list(targets)
    for i in range(shape.n_aux):
        name = f"A{i}"
        pool = [v.name for v in variables][-shape.window:]
        parents = _parents(topo, pool, shape, uncovered)
        states_of[name] = STATES[2]
        variables.append(Variable(name, STATES[2], "auxiliary"))
        cpts.append(_noisy_or(rng, name, parents, states_of, "present"))
        uncovered.append(name)

    finding_pool = [v.name for v in variables][-shape.window:]
    evidence = {}
    for i in range(shape.n_obs):
        name = f"F{i}"
        parents = _parents(topo, finding_pool, shape, uncovered)
        states_of[name] = FINDING_STATES
        variables.append(Variable(name, FINDING_STATES, "observation"))
        cpts.append(_noisy_or(rng, name, parents, states_of, "positive"))
        evidence[name] = rng.choice(FINDING_STATES)
    return Network(tuple(variables), tuple(cpts)), evidence
