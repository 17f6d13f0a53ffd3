"""Two-state spin systems: exact partition functions, gadget construction
with certified error bounds, and partition-function-preserving reductions."""

from .construct import (ConstructReport, LevelState, certify, check_invariant,
                        construct, error_bound)
from .core import (ENUM_LIMIT, FieldedGraph, PinAssignment, SpinParams,
                   effective_field, graph_from_json, graph_to_json,
                   partition_function, pinned_partition)
from .errors import CapacityError, DomainError, InvariantViolation, NumericError
from .exact import Quad, half_power, sqrt_fraction
from .gadgets import (Comb, DaryTree, GadgetTree, Star, comb,
                      gadget_field, gadget_from_json, gadget_to_json,
                      materialize, star_convergence, tree_convergence, tree_size)
from .recursion import (DecayConstants, HardnessThresholds, RecursionParams,
                        construction_field_bound, contraction_bound,
                        contraction_rate, decay_constants, edge_contraction,
                        edge_ratio, fixed_point_iterates, hardness_thresholds,
                        invert_edge_ratio, level_map, min_arity, solve_mu_star,
                        uniqueness_threshold)
from .reductions import (Instance, ReductionCertificate, SelfloopRealization,
                         bipartite_transform, contract_certificate,
                         contract_degree_one, ising_pipeline,
                         realize_field_selfloops, to_ising, verify_reduction)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
