"""Top-K most relevant explanations via dominance and minimality.

The minimal set is built by a lattice scan over candidate sizes. Both
dominance relations rest on one comparison, ``_at_least``: for a strict
sub-assignment k of r, either k scores at least as high as r and dominates
it strongly, or r scores strictly higher and dominates k weakly, never both.
So each candidate probes its alive strict sub-assignments once, in a dict of
alive rows keyed by the bit set of their bindings (at most 2^|x| lookups).
The earliest admitted one that scores at least as high kills it; if none
does, it survives and dominates every probed row weakly. Eviction is deferred
to level end, so same-level candidates are all judged against the same
previous set. Every exclusion records its witness. The complement needs
ordered scores, so NaN scores are refused.
"""
from __future__ import annotations

import itertools
import math
import numbers
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


def _at_least(a: float, b: float) -> bool:
    """a scores at least as high as b, up to round-off; false if either is NaN."""
    return a > b or _close(a, b)


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
    supersets); a NaN score dominates nothing and is dominated by nothing.
    """
    sa, sb = set(a.bindings), set(b.bindings)
    if sa < sb and _at_least(a.value, b.value):
        return "strong"
    if sa > sb and _at_least(a.value, b.value) and not _at_least(b.value, a.value):
        return "weak"
    return None


def _alive_below(alive: dict[int, tuple[int, int, ScoredExplanation]],
                 mask: int) -> list[tuple[int, int, ScoredExplanation]]:
    """The alive (admission, mask, row) entries at strict sub-masks of mask,
    earliest admitted first."""
    hits = []
    sub = mask
    while sub:
        sub = (sub - 1) & mask
        if sub in alive:
            hits.append(alive[sub])
    hits.sort()
    return hits


def minimal_set(rows: list[ScoredExplanation]) -> tuple[list[ScoredExplanation],
                                                         dict[Bindings, DominanceVerdict]]:
    """Filter rows to the minimal (undominated) set; input order is preserved.

    Also returns a witness for every excluded row, keyed by its bindings. A
    row scored NaN raises ValueError.
    """
    # each (variable, state) binding is one bit; a row is the mask of its bindings
    bit: dict[tuple[str, str], int] = {}
    by_size: dict[int, list[tuple[int, ScoredExplanation]]] = {}
    for r in rows:
        if math.isnan(r.value):
            raise ValueError(f"row {r.bindings} is scored nan")
        mask = 0
        for b in r.bindings:
            mask |= 1 << bit.setdefault(b, len(bit))
        by_size.setdefault(len(r.bindings), []).append((mask, r))

    alive: dict[int, tuple[int, int, ScoredExplanation]] = {}  # mask -> (admission, mask, row)
    admitted = itertools.count()
    witness: dict[Bindings, DominanceVerdict] = {}
    for size in sorted(by_size):
        level_kept = []
        for mask, r in sorted(by_size[size], key=lambda mr: mr[1].order):
            below = _alive_below(alive, mask)
            killer = next((k for _, _, k in below if _at_least(k.value, r.value)), None)
            if killer is not None:
                witness[r.bindings] = DominanceVerdict(
                    "strong", killer.bindings, r.bindings, killer.value, r.value)
            else:
                level_kept.append((mask, r, below))
        for _, r, below in level_kept:
            for _, sub, k in below:
                if sub in alive:
                    witness[k.bindings] = DominanceVerdict(
                        "weak", r.bindings, k.bindings, r.value, k.value)
                    del alive[sub]
        for mask, r, _ in level_kept:
            alive[mask] = (next(admitted), mask, r)

    keep = {r.bindings for _, _, r in alive.values()}
    return [r for r in rows if r.bindings in keep], witness


@dataclass
class KmreResult:
    rows: list[ScoredExplanation]
    witnesses: dict[Bindings, DominanceVerdict]
    scored: list[ScoredExplanation]  # the full exhaustive sweep


def _check_gbf_floor(gbf_floor) -> None:
    """Refuse a floor that is not a real number, or is NaN."""
    if not isinstance(gbf_floor, numbers.Real) or math.isnan(gbf_floor):
        raise ValueError(f"gbf_floor must be a number, got {gbf_floor!r}")


def k_mre(network: Network, evidence: Assignment, k: int = 3,
          gbf_floor: float = 1.0) -> KmreResult:
    """Top-k minimal explanations by GBF.

    Runs of interchangeable rows (same variable set, same score) collapse to
    their first representative. The best row is always reported; further rows
    must score above the floor by more than round-off (`_at_least`), so a GBF
    of exactly 1 that reads 1.0000000000000002 does not pass the default
    floor. gbf_floor=-inf disables the floor.
    """
    search._check_k(k)
    _check_gbf_floor(gbf_floor)
    scored = search.score_all(network, evidence)
    kept, witnesses = minimal_set(scored)

    rows: list[ScoredExplanation] = []
    for r in kept:
        if rows:
            p = rows[-1]
            if frozenset(r.variables) == frozenset(p.variables) and _close(r.value, p.value):
                continue
            if _at_least(gbf_floor, r.value):
                break
        rows.append(r)
        if len(rows) == k:
            break
    return KmreResult(rows=rows, witnesses=witnesses, scored=scored)
