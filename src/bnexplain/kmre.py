"""Top-K most relevant explanations via dominance and minimality.

The minimal set is built by a lattice scan over candidate sizes. Within a
level a candidate is excluded when an alive strict subset scores at least as
high (strong dominance); at the end of each level, the level's survivors
evict alive strict subsets they beat strictly (weak dominance). Eviction is
deferred to level end so same-level candidates are all judged against the
same previous set. Every exclusion records its witness.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from . import search
from .model import Assignment, Network
from .search import Bindings, ScoredExplanation

# GBF comparisons tolerate elimination round-off: ties that are exact in real
# arithmetic must not be broken by the last float bit.
REL_TOL = 1e-9


def _close(a: float, b: float) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-15)


@dataclass(frozen=True)
class DominanceVerdict:
    relation: str  # "strong" | "weak"
    winner: Bindings
    loser: Bindings
    winner_value: float
    loser_value: float


def dominates(a: ScoredExplanation, b: ScoredExplanation) -> str | None:
    """Relation by which a dominates b, if any.

    Strong: a is a strict sub-assignment of b and scores at least as high.
    Weak: a is a strict super-assignment of b and scores strictly higher.
    Infinite scores follow the same rules (an infinite subset kills all its
    supersets).
    """
    sa, sb = set(a.bindings), set(b.bindings)
    if sa < sb and (a.value > b.value or _close(a.value, b.value)):
        return "strong"
    if sa > sb and a.value > b.value and not _close(a.value, b.value):
        return "weak"
    return None


def minimal_set(rows: list[ScoredExplanation]) -> tuple[list[ScoredExplanation],
                                                         dict[Bindings, DominanceVerdict]]:
    """Filter rows to the minimal (undominated) set; input order is preserved.

    Also returns a witness for every excluded row, keyed by its bindings.
    """
    by_size: dict[int, list[ScoredExplanation]] = {}
    for r in rows:
        by_size.setdefault(len(r.bindings), []).append(r)

    alive: list[ScoredExplanation] = []
    witness: dict[Bindings, DominanceVerdict] = {}
    for size in sorted(by_size):
        level_kept = []
        for r in sorted(by_size[size], key=lambda r: r.order):
            rb = set(r.bindings)
            killer = None
            for k in alive:
                if set(k.bindings) < rb and (k.value > r.value or _close(k.value, r.value)):
                    killer = k
                    break
            if killer is not None:
                witness[r.bindings] = DominanceVerdict(
                    "strong", killer.bindings, r.bindings, killer.value, r.value)
            else:
                level_kept.append(r)
        evicted = set()
        for r in level_kept:
            rb = set(r.bindings)
            for k in alive:
                if (k.bindings not in evicted and set(k.bindings) < rb
                        and r.value > k.value and not _close(r.value, k.value)):
                    witness[k.bindings] = DominanceVerdict(
                        "weak", r.bindings, k.bindings, r.value, k.value)
                    evicted.add(k.bindings)
        alive = [k for k in alive if k.bindings not in evicted] + level_kept

    keep = {r.bindings for r in alive}
    return [r for r in rows if r.bindings in keep], witness


@dataclass
class KmreResult:
    rows: list[ScoredExplanation]
    witnesses: dict[Bindings, DominanceVerdict]
    scored: list[ScoredExplanation]  # the full exhaustive sweep


def k_mre(network: Network, evidence: Assignment, k: int = 3,
          gbf_floor: float | None = 1.0) -> KmreResult:
    """Top-k minimal explanations by GBF.

    Runs of interchangeable rows (same variable set, same score) collapse to
    their first representative. The best row is always reported; further rows
    must clear the floor. Pass gbf_floor=None to disable the floor.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    scored = search.score_all(network, evidence)
    kept, witnesses = minimal_set(scored)

    collapsed: list[ScoredExplanation] = []
    for r in kept:
        if collapsed:
            p = collapsed[-1]
            if (frozenset(r.variables) == frozenset(p.variables)
                    and _close(r.value, p.value)):
                continue
        collapsed.append(r)

    rows: list[ScoredExplanation] = []
    for i, r in enumerate(collapsed):
        if i > 0 and gbf_floor is not None and r.value <= gbf_floor:
            break
        rows.append(r)
        if len(rows) == k:
            break
    return KmreResult(rows=rows, witnesses=witnesses, scored=scored)
