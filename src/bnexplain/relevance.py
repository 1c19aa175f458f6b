"""Relevance measures for explanations: belief update ratio, GBF, CBF, curves.

The generalized Bayes factor of an explanation x for evidence e is computed
from the prior and posterior of x (never by enumerating the alternatives to
x); extreme priors and posteriors get the boundary values 0 and infinity.
`conditional_gbf` is the one reader of both; GBF, CBF, each chain-rule step
and the belief update ratio are calls to it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from . import infer
from .model import Assignment, Network

# Boundary slack for prior/posterior: elimination round-off can leave a
# certain event at 1 - 1e-16.
EPS = 1e-12

# parse_grid refuses grids with more points than this.
MAX_GRID_POINTS = 100_000

STRENGTH_LABELS = (
    "Negative",
    "Barely worth mentioning",
    "Substantial",
    "Strong",
    "Very strong",
    "Decisive",
)


def strength_label(value: float) -> str:
    """Evidence-strength band of a Bayes factor. Band edges go to the lower band;
    NaN has no band and raises ValueError."""
    if math.isnan(value):
        raise ValueError("a Bayes factor of nan has no strength band")
    if value < 1.0:
        return "Negative"
    if value <= 3.0:
        return "Barely worth mentioning"
    if value <= 10.0:
        return "Substantial"
    if value <= 30.0:
        return "Strong"
    if value <= 100.0:
        return "Very strong"
    return "Decisive"


def gbf_from_probs(prior: float, posterior: float) -> float:
    """GBF from P(x) and P(x|e): posterior odds over prior odds.

    Impossible or certain x scores 0 (a ratio of two zeros); a certain
    posterior on an uncertain x scores infinity.
    """
    if prior <= EPS or prior >= 1.0 - EPS:
        return 0.0
    if posterior >= 1.0 - EPS:
        return math.inf
    return posterior * (1.0 - prior) / (prior * (1.0 - posterior))


@dataclass(frozen=True)
class GbfScore:
    value: float
    prior: float
    posterior: float

    @property
    def strength(self) -> str:
        return strength_label(self.value)


def conditional_gbf(network: Network, x: Assignment, e: Assignment,
                    given: Assignment | None = None) -> GbfScore:
    """GBF(x; e | given): prior P(x | given), posterior P(x | given, e).

    x and e must be nonempty and x, e and `given` pairwise disjoint; a shared
    variable raises ValueError naming it.
    """
    given = given or {}
    if not x or not e:
        raise ValueError("explanation and evidence must be nonempty")
    shared = x.keys() & e.keys() | (x.keys() | e.keys()) & given.keys()
    if shared:
        raise ValueError(f"explanation, evidence and condition overlap on {min(shared)!r}")
    prior = infer.prob(network, x, given)
    posterior = infer.prob(network, x, {**given, **e})
    return GbfScore(value=gbf_from_probs(prior, posterior), prior=prior, posterior=posterior)


def gbf(network: Network, x: Assignment, e: Assignment) -> GbfScore:
    return conditional_gbf(network, x, e)


def cbf(network: Network, y: Assignment, e: Assignment, x: Assignment) -> float:
    """Conditional Bayes factor GBF(y; e | x)."""
    return conditional_gbf(network, y, e, x).value


def belief_update_ratio(network: Network, x: Assignment, e: Assignment) -> float:
    """r(x; e) = P(x|e) / P(x)."""
    s = conditional_gbf(network, x, e)
    if s.prior <= 0.0:
        raise ValueError("belief update ratio undefined for a zero-probability event")
    return s.posterior / s.prior


def gbf_chain(network: Network, x: Assignment, evidence_pieces) -> float:
    """GBF of x for the conjunction of evidence pieces, as the chain product
    of conditional GBFs. Equals gbf(x, union of pieces) up to round-off."""
    pieces = [dict(p) for p in evidence_pieces]
    if not pieces:
        raise ValueError("no evidence pieces")
    total = 1.0
    accumulated: dict = {}
    for piece in pieces:
        total *= conditional_gbf(network, x, piece, accumulated).value
        accumulated.update(piece)
    return total


def gbf_curve(grid, *, fixed_delta: float | None = None,
              fixed_ratio: float | None = None) -> list[tuple[float, float]]:
    """(prior, gbf) pairs over a prior grid, moving each prior by a fixed
    increase or a fixed belief update ratio."""
    if (fixed_delta is None) == (fixed_ratio is None):
        raise ValueError("pass exactly one of fixed_delta / fixed_ratio")
    rows = []
    for p in grid:
        q = p + fixed_delta if fixed_delta is not None else p * fixed_ratio
        if not 0.0 < p < 1.0 or not 0.0 < q < 1.0:
            raise ValueError(f"prior {p} gives posterior {q} outside (0,1)")
        rows.append((p, gbf_from_probs(p, q)))
    return rows


def curve_csv(rows) -> str:
    lines = ["prior,gbf"]
    lines.extend(f"{p:.6f},{g:.6f}" for p, g in rows)
    return "\n".join(lines) + "\n"


def parse_grid(spec: str) -> list[float]:
    """Parse "start:stop:step" into an inclusive grid of at most
    MAX_GRID_POINTS points."""
    try:
        start, stop, step = (float(tok) for tok in spec.split(":"))
    except ValueError:
        raise ValueError(f"bad grid {spec!r}, expected start:stop:step") from None
    if not all(map(math.isfinite, (start, stop, step))) or step <= 0 or stop < start:
        raise ValueError(f"bad grid {spec!r}")
    last = (stop + 1e-12 - start) / step  # index of the last point, up to round-off
    if last >= MAX_GRID_POINTS:
        raise ValueError(f"bad grid {spec!r}: more than {MAX_GRID_POINTS} points")
    points = (start + k * step for k in range(math.floor(last) + 2))
    return [round(p, 12) for p in points if p <= stop + 1e-12]
