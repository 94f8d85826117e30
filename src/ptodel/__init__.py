"""Approximation toolkit for weighted ptolemaic vertex deletion.

Public surface: weighted graphs and their obstruction recognizers
(``graphs``), inter-clique digraph construction (``lattice``), the
precedence-constrained feedback vertex set solver (``fvsp``), the end-to-end
deletion pipeline (``pipeline``), exact reference solvers (``oracle``), and
the command line (``cli``).
"""

from .fvsp import (
    FvspInstance,
    FvspSolution,
    solve_fvsp,
    validate_instance,
    verify_fvsp_solution,
)
from .graphs import (
    StageError,
    WeightedGraph,
    find_hole,
    find_induced_c4,
    find_induced_gem,
    is_ptolemaic,
    maximal_cliques,
    parse_graph,
)
from .lattice import (
    InterCliqueDigraph,
    brute_force_icd,
    build_icd,
    check_laminar_out_trees,
    is_ptolemaic_via_icd,
)
from .oracle import (
    exact_c4gem_hitting,
    exact_fvsp,
    exact_ptolemaic_deletion,
)
from .pipeline import (
    PipelineResult,
    hit_c4_gem,
    lift,
    reduce_to_fvsp,
    solve_ptolemaic_deletion,
)

__all__ = [
    "FvspInstance",
    "FvspSolution",
    "InterCliqueDigraph",
    "PipelineResult",
    "StageError",
    "WeightedGraph",
    "brute_force_icd",
    "build_icd",
    "check_laminar_out_trees",
    "exact_c4gem_hitting",
    "exact_fvsp",
    "exact_ptolemaic_deletion",
    "find_hole",
    "find_induced_c4",
    "find_induced_gem",
    "hit_c4_gem",
    "is_ptolemaic",
    "is_ptolemaic_via_icd",
    "lift",
    "maximal_cliques",
    "parse_graph",
    "reduce_to_fvsp",
    "solve_fvsp",
    "solve_ptolemaic_deletion",
    "validate_instance",
    "verify_fvsp_solution",
]

__version__ = "0.1.0"
