"""Explanation mining for discrete Bayesian networks.

Exact inference plus a family of explanation rankers built around the
generalized Bayes factor: single best explanation, dominance-minimal top-K,
and the usual baselines (top-K MAP, simplified MAP, explanation trees,
causal explanation trees).
"""

from .model import (
    DeterministicCpt,
    Network,
    NoisyOrCpt,
    NoisyOrTrigger,
    TableCpt,
    Variable,
    d_separated,
    expand_cpt,
    load_network,
    parse_network,
    serialize_network,
    validate,
)
from .infer import (
    ExplanationTables,
    Factor,
    ImpossibleEvidenceError,
    brute_force_joint,
    explanation_tables,
    likelihood,
    marginal,
    mutilate,
    prob,
    query,
)
from .relevance import (
    GbfScore,
    belief_update_ratio,
    cbf,
    conditional_gbf,
    gbf,
    gbf_chain,
    gbf_curve,
    gbf_from_probs,
    strength_label,
)
from .search import ScoredExplanation, candidate_count, enumerate_explanations, mre, score_all
from .kmre import KmreResult, dominates, k_mre, minimal_set
from .baselines import (
    BaselineParams,
    TreeNode,
    causal_explanation_tree,
    explanation_tree,
    k_map,
    k_simp,
)
from .bench import Scenario, fixture, run_scenario

__version__ = "0.1.0"

__all__ = [
    "BaselineParams",
    "DeterministicCpt",
    "ExplanationTables",
    "Factor",
    "GbfScore",
    "ImpossibleEvidenceError",
    "KmreResult",
    "Network",
    "NoisyOrCpt",
    "NoisyOrTrigger",
    "Scenario",
    "ScoredExplanation",
    "TableCpt",
    "TreeNode",
    "Variable",
    "belief_update_ratio",
    "brute_force_joint",
    "candidate_count",
    "causal_explanation_tree",
    "cbf",
    "conditional_gbf",
    "d_separated",
    "dominates",
    "enumerate_explanations",
    "expand_cpt",
    "explanation_tables",
    "explanation_tree",
    "fixture",
    "gbf",
    "gbf_chain",
    "gbf_curve",
    "gbf_from_probs",
    "k_map",
    "k_mre",
    "k_simp",
    "likelihood",
    "load_network",
    "marginal",
    "minimal_set",
    "mre",
    "mutilate",
    "parse_network",
    "prob",
    "query",
    "run_scenario",
    "score_all",
    "serialize_network",
    "strength_label",
    "validate",
]
