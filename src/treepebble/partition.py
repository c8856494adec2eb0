"""Maximum path partitions of directed forests and the score they carry.

A path partition splits all arcs of a forest into arc-disjoint directed
paths. Partitions are ordered by comparing their nonincreasing size
sequences at the first differing index; the long-path decomposition below
(each vertex continues the path of its tallest in-neighbour) produces the
maximum one. ``long_paths`` lists its paths on indices, for the named
partition and for piles placed on path sources; ``path_sizes`` gives only
their sizes, from heights alone, for ``partition_score``.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import ge
from typing import Sequence

from .checked import checked, pow2, require_int
from .tree import DirectedForest


@dataclass(frozen=True)
class PathPartition:
    """Arc-disjoint directed paths covering a forest, longest first.

    ``paths[i]`` is a vertex-name sequence along arcs (source first) and
    ``sizes[i]`` is its edge count; sizes are nonincreasing.
    """

    paths: tuple[tuple[str, ...], ...]
    sizes: tuple[int, ...]


def long_paths(out: Sequence[int], order: Sequence[int]) -> list[list[int]]:
    """Maximum path partition of the forest with arcs ``x -> out[x]``, on indices.

    ``out[x] < 0`` means ``x`` has no outgoing arc, and ``order`` lists every
    vertex after all vertices whose arcs point to it. One bottom-up pass
    gives each vertex its height and lets it continue the path of its
    tallest in-neighbour (the long-path decomposition); a tie goes to the
    in-neighbour whose deepest sources include the smallest index. Paths are
    vertex lists, source first, longest first and then by source.
    """
    height = [0] * len(out)
    low = list(range(len(out)))  # smallest index among the deepest sources
    chosen = [-1] * len(out)  # the in-neighbour whose path continues
    for x in order:
        p = out[x]
        if p < 0:
            continue
        h = height[x] + 1
        if h > height[p] or (h == height[p] and low[x] < low[p]):
            height[p], low[p], chosen[p] = h, low[x], x
    paths: list[list[int]] = []
    for source, p in enumerate(out):
        if p < 0 or chosen[source] >= 0:
            continue
        path = [source, p]
        while out[p] >= 0 and chosen[p] == path[-2]:
            p = out[p]
            path.append(p)
        paths.append(path)
    paths.sort(key=len, reverse=True)  # stable: equal sizes stay in source order
    return paths


def path_sizes(out: Sequence[int], order: Sequence[int]) -> list[int]:
    """Edge counts of ``long_paths(out, order)``, longest first, without the paths.

    One fold over heights in ``order``: a vertex x with an arc to p is final
    when it is reached, so it offers p the height h = height(x) + 1. If h
    beats height(p), x's path takes p over, and the path p held so far (if
    any) ends on its arc into p, with size height(p); otherwise x's own path
    ends on the arc x -> p, with size h. A sink ends the path it holds. A tie
    only decides which of two in-neighbours of equal height continues
    through p: one path then ends on its arc into p with size h and the
    other continues, whichever it is, so ties change no size.
    """
    height = [0] * len(out)
    sizes: list[int] = []
    for x in order:
        p = out[x]
        if p < 0:
            if height[x]:
                sizes.append(height[x])
            continue
        h = height[x] + 1
        held = height[p]
        if h > held:
            height[p] = h
            if held:
                sizes.append(held)
        else:
            sizes.append(h)
    sizes.sort(reverse=True)
    return sizes


def max_path_partition(forest: DirectedForest) -> PathPartition:
    """Maximum path partition of ``forest``: its size sequence majorizes every other.

    Each vertex continues the path of its tallest in-neighbour; ties go to
    the one whose deepest sources include the name-smallest vertex. Paths
    are listed longest first, then by source name. This is the partition a
    greedy longest-path extraction gives when it breaks ties to the
    lexicographically smallest vertex-name sequence.
    """
    paths = long_paths(forest._out, forest._order)
    names = forest.tree.names
    # list comprehensions: generator expressions cost ~2x on these short paths
    named = tuple([tuple([names[i] for i in p]) for p in paths])
    return PathPartition(named, tuple([len(p) - 1 for p in paths]))


def _require_nonincreasing(seq: Sequence[int], label: str) -> None:
    if not all(map(ge, seq, seq[1:])):
        raise ValueError(f"{label} size sequence is not nonincreasing: {tuple(seq)}")


def _score(sizes: Sequence[int], t: int) -> int:
    """``partition_score`` of sizes known to be positive ints, nonincreasing."""
    top = pow2(sizes[0], "partition score")  # raises before any 2^a past int64 is made
    return checked(t * top + sum([1 << a for a in sizes[1:]]) - len(sizes) + 1, "partition score")


def partition_score(sizes: Sequence[int], t: int) -> int:
    """t*2^{a_1} + sum_{i>=2} 2^{a_i} - n + 1 of positive nonincreasing sizes, checked once."""
    require_int(t, "pebble target t")
    if t < 1:
        raise ValueError("pebble target t must be at least 1")
    seq = tuple(sizes)
    if not seq:
        raise ValueError("partition score needs a nonempty size sequence")
    if set(map(type, seq)) != {int} or min(seq) < 1:
        bad = next(a for a in seq if type(a) is not int or a < 1)
        raise ValueError(f"partition score size must be a positive int, got {bad!r}")
    _require_nonincreasing(seq, "score")
    return _score(seq, t)
