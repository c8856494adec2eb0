"""Maximum path partitions of directed forests and the score they carry.

A path partition splits all arcs of a forest into arc-disjoint directed
paths. Partitions are ordered by comparing their nonincreasing size
sequences at the first differing index; the long-path decomposition below
(each vertex continues the path of its tallest in-neighbour) produces the
maximum one.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest
from typing import Sequence

from .checked import checked, pow2
from .tree import DirectedForest


@dataclass(frozen=True)
class PathPartition:
    """Arc-disjoint directed paths covering a forest, longest first.

    ``paths[i]`` is a vertex-name sequence along arcs (source first) and
    ``sizes[i]`` is its edge count; sizes are nonincreasing.
    """

    paths: tuple[tuple[str, ...], ...]
    sizes: tuple[int, ...]

    @classmethod
    def from_paths(cls, paths: Sequence[Sequence[str]]) -> "PathPartition":
        ordered = sorted((tuple(p) for p in paths), key=len, reverse=True)
        for p in ordered:
            if len(p) < 2:
                raise ValueError("a partition path needs at least one arc")
        return cls(tuple(ordered), tuple(len(p) - 1 for p in ordered))

    @classmethod
    def from_long_paths(cls, paths: list[list[int]], names: Sequence[str]) -> "PathPartition":
        """Name ``long_paths`` output, which is already ordered and valid."""
        # list comprehensions: generator expressions cost ~2x on these short paths
        named = tuple([tuple([names[i] for i in p]) for p in paths])
        return cls(named, tuple([len(p) - 1 for p in paths]))


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


def max_path_partition(forest: DirectedForest) -> PathPartition:
    """Maximum path partition of ``forest``: its size sequence majorizes every other.

    Each vertex continues the path of its tallest in-neighbour; ties go to
    the one whose deepest sources include the name-smallest vertex. Paths
    are listed longest first, then by source name. This is the partition a
    greedy longest-path extraction gives when it breaks ties to the
    lexicographically smallest vertex-name sequence.
    """
    return PathPartition.from_long_paths(long_paths(forest._out, forest._order), forest.tree.names)


def _require_nonincreasing(seq: Sequence[int], label: str) -> None:
    for a, b in zip(seq, seq[1:]):
        if a < b:
            raise ValueError(f"{label} size sequence is not nonincreasing: {tuple(seq)}")


def majorize_cmp(x: Sequence[int], y: Sequence[int]) -> int:
    """Compare nonincreasing size sequences; 1 when ``x`` majorizes ``y``.

    The shorter sequence is padded with trailing zeros, then the sequences
    are compared at the first differing index. Returns -1, 0 or 1.
    """
    _require_nonincreasing(x, "left")
    _require_nonincreasing(y, "right")
    for a, b in zip_longest(x, y, fillvalue=0):
        if a != b:
            return 1 if a > b else -1
    return 0


def partition_score(sizes: Sequence[int], t: int) -> int:
    """t*2^{a_1} + sum_{i>=2} 2^{a_i} - n + 1, in checked 64-bit arithmetic."""
    if t < 1:
        raise ValueError("pebble target t must be at least 1")
    seq = tuple(sizes)
    if not seq:
        raise ValueError("partition score needs a nonempty size sequence")
    _require_nonincreasing(seq, "score")
    total = checked(t * pow2(seq[0], "partition score"), "partition score")
    for a in seq[1:]:
        total = checked(total + pow2(a, "partition score"), "partition score")
    return checked(total - len(seq) + 1, "partition score")
