"""Closed-form pebbling numbers of trees.

``t_pebbling_number`` prices delivering k pebbles to a single vertex: it
roots the tree at ``v`` and scores the path sizes of the maximum path
partition toward ``v`` (Chung 1989, *Pebbling in hypercubes*), which
``path_sizes`` reads off one height pass over that rooting without listing
any path. ``cover_pebbling_number`` prices meeting a whole nonnegative
demand map at once, as the largest score over all roots. One root's score
is read off the maximum path partition of its remainder forest, oriented
toward the Steiner subtree of the root and the demand by ``Tree._toward``,
the one place that orients a tree toward a sink. So every partition this
module reads comes from an index rooting: sizes alone from ``path_sizes``,
paths from ``long_paths`` where a pile needs its source; the named
partitions of ``max_path_partition`` serve only the ``partition`` command
and library callers. Each path of size s is a pile of 2^s - 1 pebbles
(``s_omega_at`` sums them, ``_extremal_at`` places them).
``cover_pebbling_number`` gets every root's score in one rerooting pass
over depths and subtree heights instead, since a partition path of size s
is worth the 2^s - 1 that the 2^height of its non-sink vertices sum to.
``extremal_distribution`` realizes the matching lower bound with an
unsolvable distribution one pebble short.
"""

from __future__ import annotations

from dataclasses import dataclass

from .checked import INT64_MAX, checked, pow2, require_int
from .partition import _score, long_paths, path_sizes
from .tree import Distribution, Tree, WeightFunction


@dataclass(frozen=True)
class TPebblingResult:
    """``value`` is f_k(T, v); ``sizes`` are the edge counts of the maximum path
    partition toward v, longest first, and empty on a one-vertex tree."""

    value: int
    sizes: tuple[int, ...]


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

    Roots the tree at ``v`` once, reads the sizes of the maximum path
    partition toward it off one height pass (``path_sizes``, no path is
    listed) and scores them: k*2^{a_1} + sum_{i>=2} 2^{a_i} - r + 1 over its
    r path sizes a_1 >= a_2 >= ... (``partition_score``). A single-vertex
    tree needs exactly ``k`` pebbles.
    """
    require_int(k, "pebble target k")
    if k < 1:
        raise ValueError("pebble target k must be at least 1")
    order, out = tree._rooting(tree._require(v))
    sizes = tuple(path_sizes(out, order))
    value = _score(sizes, k) if sizes else checked(k, "partition score")
    return TPebblingResult(value, sizes)


def t_pebbling_global(tree: Tree, k: int = 1) -> tuple[int, str]:
    """Worst-case target: max of ``t_pebbling_number`` with its argmax vertex."""
    values = [t_pebbling_number(tree, name, k).value for name in tree.names]
    best = max(values)
    return best, tree.names[values.index(best)]


def _root_terms(tree: Tree, weights: WeightFunction, v: str) -> tuple[int, list[tuple[str, int]]]:
    """Demand term of root ``v`` and the piles of its remainder forest.

    The remainder forest is everything outside the minimal subtree spanning
    ``v`` and the demand support, oriented toward it; each path of its
    maximum partition is a pile of 2^size - 1 pebbles on its source, longest first.
    A 2^d past int64 raises at the farthest demand or the longest path.
    """
    root = tree._require(v)
    support = [(tree._require(u), k) for u, k in weights.items()]
    order, parent, out = tree._toward(root, [x for x, _ in support])
    depth = tree._depths(order, parent)
    pow2(max([depth[i] for i, _ in support]), "demand term")
    paths = long_paths(out, order)
    pow2(len(paths[0]) - 1 if paths else 0, "remainder term")
    demand = sum([k << depth[i] for i, k in support])
    return demand, [(tree.names[p[0]], (1 << len(p) - 1) - 1) for p in paths]


def s_omega_at(tree: Tree, weights: WeightFunction, v: str) -> int:
    """Score of root ``v``: demand cost by distance plus the remainder charge.

    The remainder forest is everything outside the minimal subtree spanning
    ``v`` and the demand support, oriented toward it; each path of its
    maximum partition contributes 2^size - 1. The exact score is checked once.
    """
    if not weights.support:
        raise ValueError("demand has empty support")
    demand, piles = _root_terms(tree, weights, v)
    return checked(demand + sum([pile for _, pile in piles]), "cover score")


def _all_scores(tree: Tree, weights: WeightFunction) -> list[int | None]:
    """``s_omega_at`` of every root, indexed like ``tree.names``, from one rooting.

    Rooted at the name-smallest support vertex, the Steiner tree S of the
    support is the set of vertices whose subtree holds support. A score is
    D(v) + R(v): D(v) sums omega(u) * 2^d(u, v), folded bottom-up as W(x) =
    omega(x) + 2 * (sum of W over x's children) and rerooted top-down, in
    place, by D(c) = 2 * D(p) - 3 * W(c). R(v) sums 2^height(x) over the
    vertices x outside S: constant on S, and R(x) = R(parent) - 2^height(x)
    off it.

    None marks a root whose exact score is at least 2^63: it has a demand
    63 or more edges away (``reach`` and ``away`` track the farthest one),
    or D + R is past int64. D is kept modulo a power of two above D at
    every other root, so no value grows with the depth. R leaves out the
    term of a remainder vertex of height >= 63: the vertices below it, also
    in the remainder, hold heights 62, ..., 0, whose terms already sum to
    2^63 - 1, so that root is past int64 anyway.
    """
    omega = weights.row(tree)
    order, parent = tree._rooting(next(i for i, k in enumerate(omega) if k))
    # with no demand 63 or more edges away, D(v) <= omega total * 2^62 < mask
    mask = (1 << (62 + weights.total.bit_length())) - 1
    fold = omega[:]
    height = [0] * tree.n
    reach = [0 if k else -1 for k in omega]  # farthest support in the subtree; -1: none, off S
    second = [-1] * tree.n  # the runner-up to reach among x itself and its children
    for x in order[:-1]:
        p = parent[x]
        fold[p] = (fold[p] + 2 * fold[x]) & mask
        if height[x] >= height[p]:
            height[p] = height[x] + 1
        if reach[x] >= 0:
            d = reach[x] + 1
            if d > reach[p]:
                second[p], reach[p] = reach[p], d
            elif d > second[p]:
                second[p] = d
    rest = [sum(1 << h for h, r in zip(height, reach) if r < 0 and h < 63)] * tree.n
    away = [-1] * tree.n  # farthest support outside the subtree
    for x in reversed(order[:-1]):  # parents before children: the parent is final
        p = parent[x]
        fold[x] = (2 * fold[p] - 3 * fold[x]) & mask  # W(x) becomes D(x)
        if reach[x] < 0:
            rest[x] = rest[p] - (1 << height[x] if height[x] < 63 else 0)
        side = second[p] if reach[x] >= 0 and reach[x] + 1 == reach[p] else reach[p]
        away[x] = 1 + max(away[p], side)
    return [
        None if r >= 63 or a >= 63 or d + s > INT64_MAX else d + s
        for d, s, r, a in zip(fold, rest, reach, away)
    ]


def cover_pebbling_number(tree: Tree, weights: WeightFunction) -> CoverResult:
    """Minimum N so that every N-pebble distribution can meet the demand.

    An all-zero demand is degenerate: every distribution already meets it,
    so gamma is 0 and no score table is produced. A root whose score leaves
    int64 is re-scored by ``s_omega_at``, so the first such root in name
    order raises its own ``OverflowLimitError``.
    """
    if not weights.support:
        return CoverResult(0, None, {})
    table = {
        name: s if s is not None else s_omega_at(tree, weights, name)
        for name, s in zip(tree.names, _all_scores(tree, weights))
    }
    gamma = max(table.values())
    argmax = next(name for name in tree.names if table[name] == gamma)
    return CoverResult(gamma, argmax, table)


def _extremal_at(tree: Tree, weights: WeightFunction, root: str) -> Distribution:
    """The extremal distribution at ``root``, an argmax of the score table.

    Each remainder path gets 2^size - 1 pebbles on its source endpoint, and
    the root gets the demand term minus one.
    """
    demand, piles = _root_terms(tree, weights, root)
    return Distribution(piles + [(root, demand - 1)])


def extremal_distribution(tree: Tree, weights: WeightFunction) -> Distribution:
    """Unsolvable distribution of size gamma - 1 witnessing the lower bound."""
    if not weights.support:
        raise ValueError("demand has empty support")
    root = cover_pebbling_number(tree, weights).argmax_root
    assert root is not None
    return _extremal_at(tree, weights, root)
