"""Seeded input generators for the benchmark workloads.

Everything here is a pure function of a ``random.Random`` that the caller
seeds, so one seed always gives byte-identical input files. Trees are
returned as ``(names, edges)`` in plain Python types: the generators do not
import the package under test, and the program only ever sees the files
written from them.

Every tree is kept shallow: each generator asserts diameter < 63, so no
2^d term in the program needs 2^63.
"""

from __future__ import annotations

import random
from collections import deque

MAX_DIAMETER = 62


class TreeSpec:
    """A generated tree: sorted vertex names, edges and adjacency by name."""

    __slots__ = ("family", "names", "edges", "adj")

    def __init__(self, family: str, labels: list[str], pairs: list[tuple[int, int]]):
        self.family = family
        self.names = sorted(labels)
        self.edges = [(labels[a], labels[b]) for a, b in pairs]
        self.adj: dict[str, list[str]] = {name: [] for name in labels}
        for u, v in self.edges:
            self.adj[u].append(v)
            self.adj[v].append(u)
        assert len(self.edges) == len(labels) - 1
        assert self.diameter() <= MAX_DIAMETER, (family, len(labels), self.diameter())

    @property
    def n(self) -> int:
        return len(self.names)

    def distances(self, source: str) -> dict[str, int]:
        dist = {source: 0}
        queue = deque((source,))
        while queue:
            x = queue.popleft()
            for y in self.adj[x]:
                if y not in dist:
                    dist[y] = dist[x] + 1
                    queue.append(y)
        return dist

    def diameter(self) -> int:
        first = self.distances(self.names[0])
        far = max(first, key=lambda v: (first[v], v))
        return max(self.distances(far).values())

    def text(self) -> str:
        return "".join(f"{u} {v}\n" for u, v in self.edges)


def _labeled(family: str, pairs: list[tuple[int, int]], n: int, rng: random.Random) -> TreeSpec:
    """Attach shuffled zero-padded names, so name order is unrelated to shape."""
    width = len(str(n))
    labels = [f"v{i:0{width}d}" for i in range(n)]
    rng.shuffle(labels)
    order = list(range(n - 1))
    rng.shuffle(order)
    return TreeSpec(family, labels, [pairs[i] for i in order])


def random_recursive(n: int, rng: random.Random) -> TreeSpec:
    """Vertex i joins a uniformly chosen earlier vertex; depth grows like ln n."""
    return _labeled("rrt", [(i, rng.randrange(i)) for i in range(1, n)], n, rng)


def complete_binary(n: int, rng: random.Random) -> TreeSpec:
    return _labeled("binary", [(i, (i - 1) // 2) for i in range(1, n)], n, rng)


def caterpillar(n: int, rng: random.Random) -> TreeSpec:
    """A spine of at most 40 vertices; every other vertex hangs off it as a leg."""
    spine = min(n, rng.randint(8, 40))
    pairs = [(i, i - 1) for i in range(1, spine)]
    pairs += [(i, rng.randrange(spine)) for i in range(spine, n)]
    return _labeled("caterpillar", pairs, n, rng)


def spider(n: int, rng: random.Random) -> TreeSpec:
    """Legs of 1 to 20 vertices joined at a centre, vertex 0."""
    pairs = []
    i = 1
    while i < n:
        leg = min(n - i, rng.randint(1, 20))
        pairs.append((i, 0))
        pairs += [(j, j - 1) for j in range(i + 1, i + leg)]
        i += leg
    return _labeled("spider", pairs, n, rng)


def uniform_labeled(n: int, rng: random.Random) -> TreeSpec:
    """Uniform random labelled tree on n >= 2 vertices, decoded from a Pruefer sequence."""
    sequence = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for x in sequence:
        degree[x] += 1
    pairs = []
    for x in sequence:
        leaf = min(i for i in range(n) if degree[i] == 1)
        pairs.append((leaf, x))
        degree[leaf] = 0
        degree[x] -= 1
    u, v = (i for i in range(n) if degree[i] == 1)
    pairs.append((u, v))
    return _labeled("uniform", pairs, n, rng)


def star(n: int, rng: random.Random) -> TreeSpec:
    """Centre is vertex 0 before labelling."""
    return _labeled("star", [(i, 0) for i in range(1, n)], n, rng)


def path(n: int, rng: random.Random) -> TreeSpec:
    """Ends are vertices 0 and n-1 before labelling."""
    return _labeled("path", [(i, i - 1) for i in range(1, n)], n, rng)


SHALLOW_FAMILIES = {
    "rrt": random_recursive,
    "binary": complete_binary,
    "caterpillar": caterpillar,
    "spider": spider,
    "star": star,
}


def star_centre(tree: TreeSpec) -> str:
    return max(tree.names, key=lambda v: len(tree.adj[v]))


def path_end(tree: TreeSpec) -> str:
    return min(v for v in tree.names if len(tree.adj[v]) == 1)


def random_demand(tree: TreeSpec, rng: random.Random, support: int, top: int) -> dict[str, int]:
    """Demand 1..top on ``support`` distinct vertices."""
    return {v: rng.randint(1, top) for v in rng.sample(tree.names, support)}


def covering_pile(tree: TreeSpec, root: str, demand: dict[str, int]) -> int:
    """Pebbles on ``root`` alone that meet ``demand``: sum of k_b * 2^d(root, b).

    Folding pebbles toward the demand only ever helps, so extra piles
    elsewhere cannot make a distribution with this pile unsolvable.
    """
    dist = tree.distances(root)
    return sum(k << dist[b] for b, k in demand.items())


def map_text(values: dict[str, int]) -> str:
    return "".join(f"{v} {k}\n" for v, k in sorted(values.items()))
