"""Candidate enumeration and exact MRE search over partial target instantiations."""
from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass
from typing import Iterator

from . import infer, relevance
from .model import Assignment, Network

Bindings = tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class ScoredExplanation:
    bindings: Bindings
    kind: str  # "gbf" | "joint" | "likelihood"
    value: float
    prior: float | None = None
    posterior: float | None = None
    order: int = 0  # enumeration index, the final tie-break

    @property
    def variables(self) -> tuple[str, ...]:
        return tuple(v for v, _ in self.bindings)

    @property
    def strength(self) -> str | None:
        return relevance.strength_label(self.value) if self.kind == "gbf" else None

    def assignment(self) -> dict[str, str]:
        return dict(self.bindings)


def _subsets(targets) -> Iterator[tuple[str, ...]]:
    for size in range(1, len(targets) + 1):
        yield from itertools.combinations(targets, size)


def enumerate_explanations(network: Network) -> Iterator[Bindings]:
    """Every nonempty partial instantiation of the targets, exactly once.

    Order: subset size ascending, subsets lexicographic by variable name,
    then the state product with the rightmost variable fastest.
    """
    targets = sorted(network.targets)
    if not targets:
        raise ValueError("network has no target variables")
    for combo in _subsets(targets):
        for states in itertools.product(*(network.states(v) for v in combo)):
            yield tuple(zip(combo, states))


def candidate_count(network: Network) -> int:
    n = 1
    for v in network.targets:
        n *= network.card(v) + 1
    return n - 1


def _check_k(k) -> None:
    if isinstance(k, bool) or not isinstance(k, numbers.Integral) or k < 1:
        raise ValueError(f"k must be at least 1 and an integer, got {k!r}")


def _rank(row: ScoredExplanation):
    # score descending, then concise, then enumeration order
    return (-row.value, len(row.bindings), row.order)


def score_all(network: Network, evidence: Assignment) -> list[ScoredExplanation]:
    """GBF-score every candidate, sorted descending. Always exhaustive.

    Candidates are the partial instantiations of the unobserved targets, in
    `enumerate_explanations` order. Each variable subset's priors and
    posteriors are one marginal of P(T) and of P(T, e), flattened in C
    order, which is that enumeration order.
    """
    tables = infer.explanation_tables(network, evidence)
    rows = []
    for combo in _subsets(sorted(tables.targets)):
        priors = infer.sum_to(network, tables.prior, combo).ravel().tolist()
        posteriors = (infer.sum_to(network, tables.joint, combo) / tables.pe).ravel().tolist()
        states = itertools.product(*(network.states(v) for v in combo))
        for s, prior, posterior in zip(states, priors, posteriors):
            rows.append(ScoredExplanation(bindings=tuple(zip(combo, s)), kind="gbf",
                                          value=relevance.gbf_from_probs(prior, posterior),
                                          prior=prior, posterior=posterior, order=len(rows)))
    rows.sort(key=_rank)
    return rows


def mre(network: Network, evidence: Assignment) -> ScoredExplanation:
    """The candidate with maximum GBF: the first row of `score_all`."""
    return score_all(network, evidence)[0]
