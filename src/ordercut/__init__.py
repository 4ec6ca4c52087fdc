"""Exact and approximate solvers for vertex-ordering problems.

Objectives over an ordering of a digraph's vertices: feedback arc set
(total backward weight), directed cutwidth (max cut), optimal linear
arrangement (sum of cuts / total stretch), and directed pathwidth.
Exact solvers run subset DPs; the approximations split on minimum
(k, n-k)-cuts found through a minimum-weight-triangle construction and
certify their factors with reported lower bounds.
"""

from .balanced import (cutwidth_balanced_approx, dpw_2approx,
                       fas_balanced_approx, fas_scheme, gamma_for_target,
                       ola_directed_approx, ola_undirected_approx,
                       solve_gamma, solve_pw_alpha)
from .graph import (EVALUATORS, OBJECTIVES, Digraph, GraphError, Ordering,
                    backward_weight, cut_into, cutwidth_of, dpw_of,
                    gen_random, induced, ola_of)
from .guards import SizeGuardError
from .instance_io import ParseError, parse_graph, serialize_graph
from .kcut import (CutSolution, cut_profile, dkmc_exact, dkmc_weighted_approx,
                   min_weight_triangle, tripartition)
from .oracle import OracleResult, perm_opt
from .report import Counters, SolveReport
from .subset_dp import (SubsetTable, cutwidth_exact, dpw_exact,
                        dpw_prefix_table, fas_exact, fas_table, ola_exact)

__version__ = "0.1.0"

__all__ = [
    "Counters", "CutSolution",
    "Digraph", "EVALUATORS", "GraphError", "OBJECTIVES", "OracleResult",
    "Ordering", "ParseError", "SizeGuardError", "SolveReport", "SubsetTable",
    "backward_weight", "cut_into",
    "cut_profile", "cutwidth_balanced_approx", "cutwidth_exact",
    "cutwidth_of", "dkmc_exact", "dkmc_weighted_approx",
    "dpw_2approx", "dpw_exact",
    "dpw_of", "dpw_prefix_table", "fas_balanced_approx", "fas_exact",
    "fas_scheme", "fas_table", "gamma_for_target", "gen_random", "induced",
    "min_weight_triangle", "ola_directed_approx", "ola_exact", "ola_of",
    "ola_undirected_approx", "parse_graph", "perm_opt", "serialize_graph",
    "solve_gamma", "solve_pw_alpha", "tripartition",
]
