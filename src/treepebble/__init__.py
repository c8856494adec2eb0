"""Pebbling numbers and solvability certificates on trees.

A pebbling move removes two pebbles from a vertex and places one on a
neighbor. This package computes the minimum pebble counts that guarantee
meeting per-vertex demands on trees (t-pebbling and weighted cover pebbling
numbers), decides solvability of concrete distributions with certificates
and replayable move-sequence witnesses, and cross-checks every closed form
against an independent brute-force oracle on small instances.
"""

from .cover import (
    CoverResult,
    TPebblingResult,
    cover_pebbling_number,
    extremal_distribution,
    s_omega_at,
    t_pebbling_global,
    t_pebbling_number,
)
from .errors import (
    BudgetExceededError,
    IllegalMoveError,
    NotSolvableError,
    OverflowLimitError,
    PebblingError,
    TreeFormatError,
    UnknownVertexError,
)
from .oracle import (
    VerificationReport,
    brute_solvable,
    random_tree,
    verify_gamma,
)
from .partition import PathPartition, max_path_partition, partition_score
from .solvability import (
    PebblingMove,
    SolvabilityCertificate,
    hat_c,
    is_solvable,
    parse_moves,
    serialize_moves,
    simulate,
    solve_witness,
)
from .tree import (
    DirectedForest,
    Distribution,
    Tree,
    WeightFunction,
    parse_distribution,
    parse_tree,
    parse_vertex_map,
    parse_weights,
    serialize_tree,
    tree_id,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "CoverResult",
    "DirectedForest",
    "Distribution",
    "IllegalMoveError",
    "NotSolvableError",
    "OverflowLimitError",
    "PathPartition",
    "PebblingError",
    "PebblingMove",
    "SolvabilityCertificate",
    "TPebblingResult",
    "Tree",
    "TreeFormatError",
    "UnknownVertexError",
    "VerificationReport",
    "WeightFunction",
    "brute_solvable",
    "cover_pebbling_number",
    "extremal_distribution",
    "hat_c",
    "is_solvable",
    "max_path_partition",
    "parse_distribution",
    "parse_moves",
    "parse_tree",
    "parse_vertex_map",
    "parse_weights",
    "partition_score",
    "random_tree",
    "s_omega_at",
    "serialize_moves",
    "serialize_tree",
    "simulate",
    "solve_witness",
    "t_pebbling_global",
    "t_pebbling_number",
    "tree_id",
    "verify_gamma",
]
