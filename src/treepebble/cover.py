"""Closed-form pebbling numbers of trees.

``t_pebbling_number`` prices delivering k pebbles to a single vertex;
``cover_pebbling_number`` prices meeting a whole nonnegative demand map at
once. Both reduce to scores over maximum path partitions of oriented
forests, and ``extremal_distribution`` realizes the matching lower bound
with an unsolvable distribution one pebble short.
"""

from __future__ import annotations

from dataclasses import dataclass

from .checked import checked, pow2
from .partition import PathPartition, long_paths, partition_score
from .tree import Distribution, Tree, WeightFunction


@dataclass(frozen=True)
class TPebblingResult:
    value: int
    partition: PathPartition


@dataclass(frozen=True)
class CoverResult:
    """Cover pebbling number with its per-vertex score table.

    ``argmax_root`` is the name-smallest vertex attaining ``gamma``; it is
    None only in the degenerate empty-demand case, where ``gamma`` is 0 and
    the table is empty.
    """

    gamma: int
    argmax_root: str | None
    per_vertex_s: dict[str, int]


def t_pebbling_number(tree: Tree, v: str, k: int = 1) -> TPebblingResult:
    """Minimum pebble count that guarantees moving ``k`` pebbles onto ``v``.

    Orients every edge toward ``v`` and scores the maximum path partition.
    A single-vertex tree needs exactly ``k`` pebbles.
    """
    if k < 1:
        raise ValueError("pebble target k must be at least 1")
    part = _partition_toward(tree, v)
    if not part.sizes:
        return TPebblingResult(k, part)
    return TPebblingResult(partition_score(part.sizes, k), part)


def _partition_toward(tree: Tree, v: str) -> PathPartition:
    """Maximum path partition of ``tree`` with every edge oriented toward ``v``."""
    order, parent, _ = tree._rooting(tree._require(v))
    return PathPartition.from_long_paths(long_paths(parent, order), tree.names)


def t_pebbling_global(tree: Tree, k: int = 1) -> tuple[int, str]:
    """Worst-case target: max of ``t_pebbling_number`` with its argmax vertex."""
    best_value = -1
    best_root = tree.names[0]
    for name in tree.names:
        value = t_pebbling_number(tree, name, k).value
        if value > best_value:
            best_value = value
            best_root = name
    return best_value, best_root


def _root_terms(tree: Tree, weights: WeightFunction, v: str) -> tuple[int, list[list[int]]]:
    """Demand term of root ``v`` and the paths of its remainder forest.

    The remainder forest is everything outside the minimal subtree spanning
    ``v`` and the demand support, each vertex pointing to its parent toward
    ``v``; the paths are its maximum partition, as vertex indices.
    """
    root = tree._require(v)
    support = [(tree._require(u), k) for u, k in weights.items()]
    order, out, depth = tree._rooting(root)
    for x, _ in support:
        # walk toward the root up to the sink built so far; sink vertices have no arc
        while out[x] >= 0:
            step = out[x]
            out[x] = -1
            x = step
    total = 0
    for i, k in support:
        total = checked(
            total + checked(k * pow2(depth[i], "demand term"), "demand term"), "cover score"
        )
    return total, long_paths(out, order)


def s_omega_at(tree: Tree, weights: WeightFunction, v: str) -> int:
    """Score of root ``v``: demand cost by distance plus the remainder charge.

    The remainder forest is everything outside the minimal subtree spanning
    ``v`` and the demand support, oriented toward it; each path of its
    maximum partition contributes 2^size - 1.
    """
    if not weights.support:
        raise ValueError("demand has empty support")
    total, paths = _root_terms(tree, weights, v)
    for path in paths:
        total = checked(total + pow2(len(path) - 1, "remainder term") - 1, "cover score")
    return total


def cover_pebbling_number(tree: Tree, weights: WeightFunction) -> CoverResult:
    """Minimum N so that every N-pebble distribution can meet the demand.

    An all-zero demand is degenerate: every distribution already meets it,
    so gamma is 0 and no score table is produced.
    """
    if not weights.support:
        return CoverResult(0, None, {})
    table = {name: s_omega_at(tree, weights, name) for name in tree.names}
    gamma = max(table.values())
    argmax = next(name for name in tree.names if table[name] == gamma)
    return CoverResult(gamma, argmax, table)


def _extremal_at(tree: Tree, weights: WeightFunction, root: str) -> Distribution:
    """The extremal distribution at ``root``, an argmax of the score table.

    Each remainder path gets 2^size - 1 pebbles on its source endpoint, and
    the root gets the demand term minus one.
    """
    demand, paths = _root_terms(tree, weights, root)
    piles = [(tree.names[p[0]], pow2(len(p) - 1, "extremal pile") - 1) for p in paths]
    return Distribution(piles + [(root, demand - 1)])


def extremal_distribution(tree: Tree, weights: WeightFunction) -> Distribution:
    """Unsolvable distribution of size gamma - 1 witnessing the lower bound."""
    if not weights.support:
        raise ValueError("demand has empty support")
    root = cover_pebbling_number(tree, weights).argmax_root
    assert root is not None
    return _extremal_at(tree, weights, root)
