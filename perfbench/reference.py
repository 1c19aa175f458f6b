"""Exact target tables for checking the outputs of the synthetic workloads.

``target_tables`` gives P(T) and P(T, e) over all targets. It reduces
``infer.brute_force_joint`` when the full joint has at most ``JOINT_CAP``
entries. Larger networks (the deep workload's joint has 2^26 entries)
are contracted with ``numpy.einsum`` instead. Neither path uses variable
elimination, so both are independent of the engine under test. From the two
tables every candidate's prior, posterior, GBF and joint follow by summing
out axes.
"""
from __future__ import annotations

import itertools
import math

import numpy as np

from bnexplain import infer

JOINT_CAP = 2 ** 22
REL_TOL = 1e-9


def _contract(factors, keep):
    """Sum the product of (values, scope) factors down to the `keep` axes."""
    index = {}
    operands = []
    for values, scope in factors:
        operands += [values, [index.setdefault(v, len(index)) for v in scope]]
    return np.einsum(*operands, [index[v] for v in keep], optimize="greedy")


def _restricted(values, scope, network, evidence):
    pick = tuple(network.states(v).index(evidence[v]) if v in evidence else slice(None)
                 for v in scope)
    return values[pick], tuple(v for v in scope if v not in evidence)


def target_tables(network, evidence) -> tuple[np.ndarray, np.ndarray]:
    """(P(T), P(T, e)) with one axis per target, in ``network.targets`` order."""
    targets = network.targets
    size = math.prod(network.card(v) for v in network.names())
    if size <= JOINT_CAP:
        joint = infer.brute_force_joint(network, cap=JOINT_CAP)
        factors = [(joint.values, joint.scope)]
    else:
        factors = [(f.values, f.scope)
                   for f in (infer.cpt_factor(network, v) for v in network.names())]
    prior = _contract(factors, targets)
    joint_e = _contract([_restricted(v, sc, network, evidence) for v, sc in factors], targets)
    return prior, joint_e


class Tables:
    """Candidate scores read off P(T) and P(T, e).

    A GBF is compared as the range of values that priors and posteriors
    within REL_TOL of the exact ones give. GBF grows like 1 / (1 - posterior),
    so a posterior near 1 turns round-off that is 1e-16 in the posterior into
    more than REL_TOL in the GBF.
    """

    def __init__(self, network, evidence):
        self.network = network
        self.targets = network.targets
        self.prior, self.joint = target_tables(network, evidence)
        self.pe = float(self.joint.sum())
        self.candidates = math.prod(c + 1 for c in self.prior.shape) - 1

    def _at(self, table, bindings) -> float:
        b = dict(bindings)
        pick = tuple(self.network.states(v).index(b[v]) if v in b else slice(None)
                     for v in self.targets)
        return float(np.sum(table[pick]))

    def prior_of(self, bindings) -> float:
        return self._at(self.prior, bindings)

    def joint_of(self, bindings) -> float:
        return self._at(self.joint, bindings)

    def posterior_of(self, bindings) -> float:
        return self.joint_of(bindings) / self.pe

    def gbf_range(self, bindings) -> tuple[float, float]:
        return gbf_range(self.prior_of(bindings), self.posterior_of(bindings))

    def best_gbf_floor(self) -> float:
        """The largest lower end of a GBF range over every nonempty partial
        assignment of the targets: no candidate scores surely more than it."""
        best = -math.inf
        n = len(self.targets)
        for size in range(1, n + 1):
            for keep in itertools.combinations(range(n), size):
                drop = tuple(i for i in range(n) if i not in keep)
                lo, _ = gbf_range(self.prior.sum(axis=drop), self.joint.sum(axis=drop) / self.pe)
                best = max(best, float(np.max(lo)))
        return best

    def top_joints(self, k: int) -> list[float]:
        return sorted(self.joint.ravel().tolist(), reverse=True)[:k]


def _gbf(prior, posterior):
    # Generated networks have leaks and interior priors, so 0 < prior < 1
    # and 0 < posterior; a posterior bound reaching 1 gives infinity.
    with np.errstate(divide="ignore"):
        return posterior * (1 - prior) / (prior * np.maximum(1 - posterior, 0.0))


def gbf_range(prior, posterior):
    """(lowest, highest) GBF over priors and posteriors within REL_TOL."""
    lo = _gbf(prior * (1 + REL_TOL), posterior * (1 - REL_TOL))
    hi = _gbf(prior * (1 - REL_TOL), np.minimum(posterior * (1 + REL_TOL), 1.0))
    return lo, hi


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL)
