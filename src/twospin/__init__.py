"""Two-state spin systems: exact partition functions, gadget construction
with certified error bounds, and partition-function-preserving reductions."""

from .construct import ConstructReport, certify, construct, error_bound
from .core import (ENUM_LIMIT, FieldedGraph, SpinParams, effective_field,
                   graph_from_json, graph_to_json, partition_function)
from .errors import CapacityError, DomainError, InvariantViolation, NumericError
from .exact import Quad, half_power, is_exact, sqrt_fraction
from .gadgets import (Comb, DaryTree, GadgetTree, Star, comb, gadget_field,
                      gadget_to_json, materialize, star_convergence,
                      tree_convergence, tree_size)
from .recursion import (DecayConstants, HardnessThresholds, RecursionParams,
                        construction_field_bound, contraction_bound,
                        decay_constants, edge_contraction, edge_ratio,
                        hardness_thresholds, invert_edge_ratio, level_map,
                        min_arity, solve_mu_star, uniqueness_threshold)
from .reductions import (Instance, ReductionCertificate, SelfloopRealization,
                         bipartite_transform, contract_certificate,
                         contract_degree_one, ising_pipeline,
                         realize_field_selfloops, to_ising, verify_reduction)

__version__ = "0.1.0"

__all__ = [
    # exact evaluation
    "ENUM_LIMIT", "FieldedGraph", "SpinParams", "effective_field",
    "graph_from_json", "graph_to_json", "partition_function",
    "Quad", "half_power", "is_exact", "sqrt_fraction",
    # gadget algebra and construction
    "DecayConstants", "HardnessThresholds", "RecursionParams",
    "construction_field_bound", "contraction_bound", "decay_constants",
    "edge_contraction", "edge_ratio", "hardness_thresholds", "invert_edge_ratio",
    "level_map", "min_arity", "solve_mu_star", "uniqueness_threshold",
    "Comb", "DaryTree", "GadgetTree", "Star", "comb", "gadget_field",
    "gadget_to_json", "materialize", "star_convergence", "tree_convergence",
    "tree_size", "ConstructReport", "certify", "construct", "error_bound",
    # reductions
    "Instance", "ReductionCertificate", "SelfloopRealization",
    "bipartite_transform", "contract_certificate", "contract_degree_one",
    "ising_pipeline", "realize_field_selfloops", "to_ising", "verify_reduction",
    # errors
    "CapacityError", "DomainError", "InvariantViolation", "NumericError",
]
