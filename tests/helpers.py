"""Shared test machinery: tree families, random instances, reference folds.

Everything here is deliberately independent of the package internals it is
used to check; trees are built through the public constructors only. The
score references reuse only the package's 64-bit guards, so that overflow
messages can be compared too.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from operator import mul
from types import SimpleNamespace
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from treepebble import (
    BudgetExceededError,
    Distribution,
    IllegalMoveError,
    OverflowLimitError,
    PathPartition,
    PebblingMove,
    Tree,
    TreeFormatError,
    WeightFunction,
    cover_pebbling_number,
    oracle,
    partition_score,
)
from treepebble.checked import INT64_MAX, checked, pow2
from treepebble.oracle import ENUM_LIMIT, _composition_count
from treepebble.partition import _require_nonincreasing


def tree(text: str) -> Tree:
    """Parse a compact ';'-separated edge list, e.g. ``"a b;b c"``."""
    from treepebble import parse_tree

    return parse_tree(text.replace(";", "\n"))


def neighbors(t: Tree, name: str) -> tuple[str, ...]:
    """The names adjacent to ``name`` in ``t``'s adjacency row, which is ascending, so in name
    order; UnknownVertexError off the tree."""
    return tuple(t.names[j] for j in t._adj[t._require(name)])


def _reference_check_name(name: str) -> str:
    if not isinstance(name, str) or not name:
        raise TreeFormatError(f"vertex name must be a nonempty string, got {name!r}")
    if name.split() != [name]:
        raise TreeFormatError(f"vertex name {name!r} contains whitespace")
    if name.startswith("#"):
        raise TreeFormatError(f"vertex name {name!r} starts with '#' (reserved for comments)")
    return name


class ReferenceTree:
    """The Tree constructor that checks every edge as it reads it, the reference for
    ``Tree``'s bulk checks and union-find.

    It keeps the attributes that ``Tree`` derives (``names``, ``edges``, ``_adj``) and raises
    the same errors in the same order. Its own validating depth-first search, not a
    union-find, decides connectivity, so it checks ``Tree``'s union-find independently.
    """

    def __init__(self, edges: Iterable[tuple[str, str]], vertices: Iterable[str] = ()):
        if isinstance(vertices, str):
            raise TreeFormatError(f"vertices is a str, not a collection of names: {vertices!r}")
        names: set[str] = set()
        seen: set[tuple[str, str]] = set()
        for i, edge in enumerate(edges):
            try:
                u, v = () if isinstance(edge, str) else edge  # not a str's characters
            except (TypeError, ValueError):
                raise TreeFormatError(f"edge {i} is not a pair of vertex names: {edge!r}") from None
            if type(u) is not str or u not in names:
                _reference_check_name(u)
            if type(v) is not str or v not in names:
                _reference_check_name(v)
            if u == v:
                raise TreeFormatError(f"self-loop at vertex '{u}'")
            pair = (u, v) if u < v else (v, u)
            if pair in seen:
                raise TreeFormatError(f"duplicate edge {pair[0]} {pair[1]}")
            seen.add(pair)
            names.add(u)
            names.add(v)
        for v in vertices:
            names.add(_reference_check_name(v))
        if not names:
            raise TreeFormatError("empty input: a tree needs at least one vertex")

        self.names = tuple(sorted(names))
        index = {name: i for i, name in enumerate(self.names)}
        self.edges = tuple(sorted(seen))
        adj: list[list[int]] = [[] for _ in self.names]
        for u, v in self.edges:
            adj[index[u]].append(index[v])
            adj[index[v]].append(index[u])
        self._adj = tuple(map(tuple, adj))  # ascending: the edges are sorted

        # a depth-first search from index 0, children pushed in row order
        reached = {0}
        stack = [0]
        while stack:
            x = stack.pop()
            for y in self._adj[x]:
                if y not in reached:
                    reached.add(y)
                    stack.append(y)
        if len(reached) != len(self.names):
            raise TreeFormatError("edges do not form a connected graph (disconnected)")
        if len(self.edges) != len(self.names) - 1:
            raise TreeFormatError("cycle detected: edge count exceeds vertex count - 1")


def reference_parse_tree(text: str) -> ReferenceTree:
    """``parse_tree`` on runs of equal consecutive lines, each tokenized once."""
    edges: list[tuple[str, str]] = []
    singles: list[str] = []
    lineno = 1
    for raw, run in itertools.groupby(text.splitlines()):
        k = len(list(run))
        tokens = raw.split()
        if not tokens or tokens[0].startswith("#"):
            pass  # a blank or comment line
        elif len(tokens) == 1:
            singles.append(tokens[0])
        elif len(tokens) == 2:
            edges += [(tokens[0], tokens[1])] * min(k, 2)  # a second copy is a duplicate
        else:
            raise TreeFormatError(
                f"line {lineno}: expected 'u v' or a bare vertex name, got {len(tokens)} tokens"
            )
        lineno += k
    return ReferenceTree(edges, singles)


def canonical_shape(t: Tree):
    """AHU canonical form rooted at the tree center(s); equal iff isomorphic."""
    adj = {v: set(neighbors(t, v)) for v in t.names}
    remaining = set(t.names)
    layer = [v for v in t.names if len(adj[v]) <= 1]
    while len(remaining) > 2:
        next_layer = []
        for v in layer:
            remaining.discard(v)
            for u in adj[v]:
                adj[u].discard(v)
                if u in remaining and len(adj[u]) == 1:
                    next_layer.append(u)
        layer = next_layer

    def ahu(v, parent):
        return tuple(sorted(ahu(u, v) for u in neighbors(t, v) if u != parent))

    return min(ahu(c, None) for c in sorted(remaining))


def all_shapes(max_n: int) -> list[Tree]:
    """One tree per shape up to ``max_n`` vertices: every shape is a smaller one plus a leaf."""
    layer = [Tree((), ("v0",))]
    shapes = list(layer)
    for n in range(1, max_n):
        grown = {}
        for t in layer:
            for v in t.names:
                bigger = Tree(t.edges + ((v, f"v{n}"),))
                grown.setdefault(canonical_shape(bigger), bigger)
        layer = list(grown.values())
        shapes += layer
    return shapes


def weight_functions(t: Tree, max_entry: int = 2, max_total: int = 4):
    """Every demand map with entries up to max_entry, 1 <= total <= max_total."""
    for combo in itertools.product(range(max_entry + 1), repeat=t.n):
        total = sum(combo)
        if 1 <= total <= max_total:
            yield WeightFunction({v: k for v, k in zip(t.names, combo) if k})


def random_distribution(t: Tree, size: int, rng: random.Random) -> Distribution:
    counts: dict[str, int] = {}
    for _ in range(size):
        v = rng.choice(t.names)
        counts[v] = counts.get(v, 0) + 1
    return Distribution(counts)


def random_weights(t: Tree, total: int, rng: random.Random) -> WeightFunction:
    counts: dict[str, int] = {}
    for _ in range(total):
        v = rng.choice(t.names)
        counts[v] = counts.get(v, 0) + 1
    return WeightFunction(counts)


def random_path_partition(forest, rng: random.Random) -> PathPartition:
    """A uniform-ish valid path partition: arc-disjoint directed paths covering all arcs."""
    out = {src: dst for src, dst in forest.arcs}
    incoming: dict[str, list[str]] = {}
    for src, dst in forest.arcs:
        incoming.setdefault(dst, []).append(src)
    remaining = set(out)
    paths: list[list[str]] = []
    while remaining:
        start = rng.choice(sorted(remaining))
        remaining.discard(start)
        path = [start, out[start]]
        while path[-1] in remaining and rng.random() < 0.7:
            src = path[-1]
            remaining.discard(src)
            path.append(out[src])
        while rng.random() < 0.5:
            predecessors = [p for p in incoming.get(path[0], ()) if p in remaining]
            if not predecessors:
                break
            p = rng.choice(sorted(predecessors))
            remaining.discard(p)
            path.insert(0, p)
        paths.append(path)
    ordered = sorted((tuple(p) for p in paths), key=len, reverse=True)  # each has an arc
    return PathPartition(tuple(ordered), tuple(len(p) - 1 for p in ordered))


def fold_hat_random_order(
    t: Tree, dist: Distribution, weights: WeightFunction, root: str, rng: random.Random
) -> int:
    """Collapse onto root eliminating random leaves, with an independent fold."""
    adj = {v: set(neighbors(t, v)) for v in t.names}
    values = {v: dist[v] - weights[v] for v in t.names}
    alive = set(t.names)
    while len(alive) > 1:
        leaves = sorted(v for v in alive if len(adj[v]) == 1 and v != root)
        v = rng.choice(leaves)
        (u,) = adj[v]
        c = values.pop(v)
        values[u] += c // 2 if c >= 0 else 2 * c
        adj[u].discard(v)
        del adj[v]
        alive.discard(v)
    return values[root]


def greedy_partition(forest, rng: random.Random | None = None) -> PathPartition:
    """Reference maximum path partition: extract a longest remaining path until no arcs remain.

    Ties between equally long candidates break to the lexicographically
    smallest vertex-name sequence, or to a random candidate with ``rng``
    (which changes the paths but not the size sequence).
    """
    out = dict(forest.arcs)
    paths: list[tuple[str, ...]] = []
    while out:
        # longest chain length starting at each remaining arc source
        length: dict[str, int] = {}
        for u in out:
            chase: list[str] = []
            x = u
            while x in out and x not in length:
                chase.append(x)
                x = out[x]
            base = length.get(x, 0)
            for y in reversed(chase):
                base += 1
                length[y] = base
        best = max(length.values())
        if best == 1:
            # nothing chains anymore: every remaining arc is its own path,
            # and the tie-break would emit them in sorted order one by one
            paths.extend((src, out[src]) for src in sorted(out))
            break

        def walk(start: str) -> tuple[str, ...]:
            seq = [start]
            for _ in range(best):
                seq.append(out[seq[-1]])
            return tuple(seq)

        candidates = sorted(u for u, size in length.items() if size == best)
        path = min(walk(u) for u in candidates) if rng is None else walk(rng.choice(candidates))
        for name in path[:-1]:
            del out[name]
        paths.append(path)
    return PathPartition(tuple(paths), tuple(len(p) - 1 for p in paths))


def simulate_each(tree: Tree, dist: Distribution, moves: Iterable[tuple[str, str]]) -> Distribution:
    """Reference replay, one move at a time: ``simulate`` checks and applies a batch at once."""
    counts = dist.row(tree)
    adj = tree._adj
    top = INT64_MAX
    for i, (src, dst) in enumerate(moves):
        iu = tree._require(src)
        iv = tree._require(dst)
        if iv not in adj[iu]:
            raise IllegalMoveError(i, f"'{src}' and '{dst}' are not adjacent")
        if counts[iu] < 2:
            raise IllegalMoveError(i, f"source '{src}' has {counts[iu]} pebbles")
        if counts[iv] >= top:
            raise OverflowLimitError(f"move {i} would put more than {top} pebbles on '{dst}'")
        counts[iu] -= 2
        counts[iv] += 1
    return Distribution.from_row(tree, counts)


def majorize_cmp(x: Sequence[int], y: Sequence[int]) -> int:
    """Compare nonincreasing size sequences; 1 when ``x`` majorizes ``y``.

    The shorter sequence is padded with trailing zeros, then the sequences
    are compared at the first differing index. Returns -1, 0 or 1.
    """
    _require_nonincreasing(x, "left")
    _require_nonincreasing(y, "right")
    for a, b in itertools.zip_longest(x, y, fillvalue=0):
        if a != b:
            return 1 if a > b else -1
    return 0


def reference_steiner(t: Tree, terminals: Iterable[str]) -> set[str]:
    """Vertices of the smallest subtree holding the nonempty ``terminals``: every other
    leaf is pruned, one at a time, until none is left."""
    keep = set(terminals)
    adj = {v: set(neighbors(t, v)) for v in t.names}
    leaves = [v for v in t.names if len(adj[v]) == 1 and v not in keep]
    while leaves:
        leaf = leaves.pop()
        (u,) = adj.pop(leaf)
        adj[u].discard(leaf)
        if len(adj[u]) == 1 and u not in keep:
            leaves.append(u)
    return set(adj)


def reference_orient(t: Tree, sink: Iterable[str]) -> SimpleNamespace:
    """The sorted ``arcs`` of ``t`` toward the connected ``sink``, each vertex outside
    pointing to the neighbour a breadth-first search out of ``sink`` reached it from."""
    reached = set(sink)
    frontier = sorted(reached)
    arcs = []
    while frontier:
        grown = []
        for x in frontier:
            for y in neighbors(t, x):
                if y not in reached:
                    reached.add(y)
                    arcs.append((y, x))
                    grown.append(y)
        frontier = grown
    return SimpleNamespace(arcs=tuple(sorted(arcs)))


def reference_s_omega(t: Tree, weights: WeightFunction, v: str) -> tuple[int, PathPartition]:
    """Score of root ``v`` from the Steiner subtree, its orientation and the greedy.

    Overflows by the package's rule, so it reports the same message: 2^d
    raises for the farthest demand, then for the longest path, and the exact
    score is checked once.
    """
    dist = t.distances_from(v)
    part = greedy_partition(reference_orient(t, reference_steiner(t, (v, *weights.support))))
    pow2(max(dist[u] for u in weights.support), "demand term")
    pow2(max(part.sizes, default=0), "remainder term")
    demand = sum(k * 2 ** dist[u] for u, k in weights.items())
    return checked(demand + sum(2**a - 1 for a in part.sizes), "cover score"), part


def reference_cover(t: Tree, weights: WeightFunction) -> tuple[int, str, dict[str, int], Distribution]:
    """gamma, argmax root, score table and extremal distribution, all from the reference score."""
    table = {v: reference_s_omega(t, weights, v)[0] for v in t.names}
    gamma = max(table.values())
    root = min(v for v in t.names if table[v] == gamma)
    part = reference_s_omega(t, weights, root)[1]
    piles = [(path[0], 2**a - 1) for path, a in zip(part.paths, part.sizes)]
    dist = t.distances_from(root)
    demand = sum(k * 2 ** dist[u] for u, k in weights.items())
    return gamma, root, table, Distribution(piles + [(root, demand - 1)])


def weight_function_bound(t: Tree, r: str) -> int:
    """Total weight of the height strategy for target ``r``, after checking its condition.

    Rooted at ``r``: w(r) = 0 and w(v) = 2^h(v) elsewhere, h(v) the edge count from v to the
    farthest leaf below it. Hurlbert's Weight Function Lemma ("The weight function lemma for
    graph pebbling", J. Comb. Optim. 34, 2017) needs w(parent(v)) >= 2 w(v) whenever
    parent(v) != r; then every r-unsolvable D has sum w(v) D(v) <= sum w(v). As w >= 1 off
    ``r`` and D(r) = 0, such a D has at most the returned total of pebbles, so f_1(t, r) is at
    most that total plus one, with no appeal to the path-partition theorem.
    """
    adj: dict[str, list[str]] = {v: [] for v in t.names}
    for u, v in t.edges:
        adj[u].append(v)
        adj[v].append(u)
    parent = {r: r}
    order = [r]
    for x in order:  # breadth first: every parent comes before its children
        for y in adj[x]:
            if y not in parent:
                parent[y] = x
                order.append(y)
    height = dict.fromkeys(t.names, 0)
    for x in reversed(order[1:]):
        height[parent[x]] = max(height[parent[x]], height[x] + 1)
    w = {v: 2 ** height[v] for v in t.names}
    w[r] = 0
    for v in order[1:]:
        assert parent[v] == r or w[parent[v]] >= 2 * w[v], (r, v)
    return sum(w.values())


def reference_t_pebbling(t: Tree, v: str, k: int) -> tuple[int, PathPartition]:
    part = greedy_partition(t.orient_toward((v,)))
    return (partition_score(part.sizes, k) if part.sizes else k), part


@dataclass(frozen=True)
class GeneralizedDistribution:
    """Signed per-vertex values over exactly one (sub)tree's vertex set."""

    values: Mapping[str, int]

    @classmethod
    def from_difference(
        cls, tree: Tree, dist: Distribution, weights: WeightFunction
    ) -> "GeneralizedDistribution":
        for name in dist.support + weights.support:
            tree._require(name)  # raises UnknownVertexError off the tree
        return cls(
            {name: checked(dist[name] - weights[name], "initial value") for name in tree.names}
        )

    def __getitem__(self, name: str) -> int:
        return self.values[name]


def reduce_leaf(
    values: GeneralizedDistribution, tree: Tree, leaf: str
) -> tuple[Tree, GeneralizedDistribution]:
    """Reference single fold: delete ``leaf`` and fold its value into its unique neighbor.

    The leaf's value is final once it is folded, so it is the one checked against int64.
    """
    if tree.n < 2:
        raise ValueError("cannot reduce a single-vertex tree")
    adjacent = neighbors(tree, leaf)
    if len(adjacent) != 1:
        raise ValueError(f"vertex '{leaf}' is not a leaf")
    if set(values.values) != set(tree.names):
        raise ValueError("values must be defined on exactly the tree's vertex set")
    (neighbor,) = adjacent
    c = checked(values[leaf], "induced value")
    new_values = {name: v for name, v in values.values.items() if name != leaf}
    new_values[neighbor] += c // 2 if c >= 0 else 2 * c
    smaller = Tree([e for e in tree.edges if leaf not in e], (neighbor,))
    return smaller, GeneralizedDistribution(new_values)


def breadth_first_rooting(t: Tree, root: int) -> tuple[list[int], list[int]]:
    """A rooting that keeps ``Tree._rooting``'s contract by another traversal: the reverse of
    a breadth-first order from ``root``, neighbours in index order, and the parent array, -1 at
    ``root``. Children still come before parents, but the subtrees of siblings interleave."""
    rows: list[list[int]] = [[] for _ in t.names]
    for u, v in t.edges:
        rows[t.index[u]].append(t.index[v])
        rows[t.index[v]].append(t.index[u])
    parent = [-1] * t.n
    order = [root]
    for x in order:  # grows as it is read
        for y in sorted(rows[x]):
            if y != parent[x]:
                parent[y] = x
                order.append(y)
    return order[::-1], parent


def reference_witness(
    t: Tree, dist: Distribution, weights: WeightFunction, root: str
) -> list[PebblingMove] | None:
    """The batches ``solve_witness`` emits toward ``root``, by two recursive walks, or
    None when the root's collapsed value is negative.

    A vertex's value is D - demand plus the fold of each child's value. The first walk
    sends value // 2 from each surplus vertex to its parent in post-order, children in
    name order; the second sends -value from the parent to each deficit vertex in
    pre-order, children in reverse name order, the reverse of the first walk's order.
    """
    value: dict[str, int] = {}
    moves: list[PebblingMove] = []

    def children(x: str, parent: str | None) -> list[str]:
        return sorted(y for y in neighbors(t, x) if y != parent)

    def fold_up(x: str, parent: str | None) -> None:
        c = dist[x] - weights[x]
        for y in children(x, parent):
            fold_up(y, x)
            c += value[y] // 2 if value[y] >= 0 else 2 * value[y]
        value[x] = c
        if parent is not None and c >= 2:
            moves.append(PebblingMove(x, parent, c // 2))

    def feed_down(x: str, parent: str | None) -> None:
        if value[x] < 0:  # never the root, whose value is nonnegative here
            moves.append(PebblingMove(parent, x, -value[x]))
        for y in reversed(children(x, parent)):
            feed_down(y, x)

    fold_up(root, None)
    if value[root] < 0:
        return None
    feed_down(root, None)
    return moves


def compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Weak compositions of ``total`` into ``parts``, first coordinate descending."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def packed_compositions(
    total: int, units: list[int], base: int, caps: list[int] | None = None
) -> Iterator[int]:
    """``base`` plus sum_i c_i * units[i] over the weak compositions c of ``total``,
    first coordinate descending: the oracle's size scan without its prune.

    ``caps[i] = j``, with j < i, keeps only the compositions with c_i <= c_j,
    and -1 caps nothing: the capped sequence is the uncapped one with the
    other compositions left out, in the same order.

    An odometer over all coordinates but the final one, whose last (the
    pivot) holds what the others leave: each reading yields the splits of
    the pivot's pebbles with the final coordinate whose final share lies in
    the range [lo, hi] that the caps on those two allow, then takes one
    pebble off the last nonzero coordinate before the pivot and moves it,
    with the pivot's pebbles, to the coordinate after it. A reading whose
    coordinates before the pivot break a cap yields nothing.
    """
    *odometer, final = units
    if not odometer:
        yield base + total * final
        return
    pivot = len(odometer) - 1
    step = final - odometer[pivot]
    held, pivot_cap, final_cap = [], -1, -1
    if caps is not None:
        held = [(i, j) for i, j in enumerate(caps[:pivot]) if j >= 0]
        pivot_cap, final_cap = caps[pivot], caps[-1]
    counts = [total] + [0] * pivot
    state = base + total * odometer[0]
    while True:
        rest = counts[pivot]
        # the final coordinate takes f of the pivot's pebbles, lo <= f <= hi
        lo, hi = 0, rest
        if pivot_cap >= 0 and rest > counts[pivot_cap]:
            lo = rest - counts[pivot_cap]
        if final_cap >= 0:
            hi = rest // 2 if final_cap == pivot else min(rest, counts[final_cap])
        if held:
            for i, j in held:
                if counts[i] > counts[j]:
                    hi = -1
                    break
        if lo <= hi:
            split = state + lo * step
            yield split
            for _ in range(hi - lo):
                split += step
                yield split
        i = pivot - 1
        while i >= 0 and not counts[i]:
            i -= 1
        if i < 0:
            return
        counts[i] -= 1
        counts[pivot] = 0
        counts[i + 1] = rest + 1
        state += (rest + 1) * odometer[i + 1] - rest * odometer[pivot] - odometer[i]


def reference_solver(
    tree: Tree, weights: WeightFunction, prune: bool
) -> Callable[[tuple[int, ...]], bool]:
    """An exhaustive search on tuple states, the reference for the oracle's packed ints.

    ``solve(state)`` takes the counts indexed like ``tree.names`` and tries
    every move, in (u, v) index order. With ``prune`` it cuts by the same
    rule as the oracle: a state is hopeless when, for some demanded j, the
    sum weighted 2^{max d - d(x, j)} is below the demand's own sum under
    the same weights. Without it, it searches the raw move space. It does
    not restrict or reorder the moves as the oracle does, so only its
    verdicts match the oracle's; its memo is capped by the same
    ``MEMO_LIMIT``.
    """
    n, adj = tree.n, tree._adj
    demand = tuple(weights.row(tree))
    support = tuple(i for i, d in enumerate(demand) if d)
    filters: list[tuple[tuple[int, ...], int]] = []
    for drow in [tree._depths(*tree._rooting(j)) for j in support] if prune else []:
        top = max(drow)
        row = tuple(1 << (top - d) for d in drow)
        filters.append((row, sum(map(mul, demand, row))))
    memo: dict[tuple[int, ...], bool] = {}

    def met(state: tuple[int, ...]) -> bool:
        return all(state[j] >= demand[j] for j in support)

    def hopeless(state: tuple[int, ...]) -> bool:
        return any(sum(map(mul, state, row)) < bound for row, bound in filters)

    def moves(state: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        for u in range(n):
            if state[u] >= 2:
                for v in adj[u]:
                    nxt = list(state)
                    nxt[u] -= 2
                    nxt[v] += 1
                    yield tuple(nxt)

    def remember(state: tuple[int, ...], verdict: bool) -> bool:
        if state not in memo and len(memo) >= oracle.MEMO_LIMIT:
            raise BudgetExceededError(f"solvability memo exceeded {oracle.MEMO_LIMIT} states")
        memo[state] = verdict
        return verdict

    def solve(start: tuple[int, ...]) -> bool:
        if start in memo:
            return memo[start]
        if met(start):
            return True
        if hopeless(start):
            return remember(start, False)
        frames = [(start, moves(start))]
        while frames:
            state, succ = frames[-1]
            for nxt in succ:
                verdict = memo.get(nxt)
                if verdict is None:
                    if met(nxt):
                        verdict = remember(nxt, True)
                    elif hopeless(nxt):
                        verdict = remember(nxt, False)
                    else:
                        frames.append((nxt, moves(nxt)))
                        break
                if verdict:
                    for s, _ in frames:
                        remember(s, True)
                    return True
            else:
                remember(state, False)
                frames.pop()
        return False

    return solve


def reference_verify_gamma(
    tree: Tree, weights: WeightFunction, *, max_pebbles: int = 512
) -> SimpleNamespace:
    """The oracle's size scan as it was before it climbed: every size in full.

    Scans sizes 0, 1, 2, ... over leaf supports, each in lex order from its
    first composition, until a size has no unsolvable distribution, then
    confirms that size over all supports as ``verify_gamma`` does. It shares
    the oracle's packed solver, so a memo cap raises the same message here,
    and reads ``ENUM_LIMIT``, ``MEMO_LIMIT`` and ``FULL_CONFIRM_LIMIT`` from
    the module at call time. Returns the report's ``formula_gamma``,
    ``oracle_gamma``, ``status`` and ``confirmation``, its ``witness`` (a
    ``Distribution`` or None) and ``distributions_checked``.
    """
    if tree.n > oracle.MAX_VERTICES:
        raise BudgetExceededError(
            f"tree has {tree.n} vertices, oracle bound is {oracle.MAX_VERTICES}"
        )
    solve, zero, all_units, row_of = oracle._solver(tree, weights, max(max_pebbles, 0))
    checked_count = 0

    def first_unsolvable(size: int, units: list[int]) -> int | None:
        nonlocal checked_count
        count = _composition_count(size, len(units))
        if count > oracle.ENUM_LIMIT:
            raise BudgetExceededError(
                f"{count} distributions of size {size} exceed enumeration limit {oracle.ENUM_LIMIT}"
            )
        for state in packed_compositions(size, units, zero):
            checked_count += 1
            if not solve(state):
                return state
        return None

    units = leaf_units = [all_units[tree.index[name]] for name in tree.leaves()]
    witness_state: int | None = None
    k = 0
    confirmation = "full"
    while weights.support:
        if k > max_pebbles:
            raise BudgetExceededError(f"size scan passed max_pebbles={max_pebbles}")
        bad = first_unsolvable(k, units)
        if bad is not None:
            witness_state, k, units = bad, k + 1, leaf_units
        elif units is all_units:
            break
        elif _composition_count(k, tree.n) > oracle.FULL_CONFIRM_LIMIT:
            confirmation = "leaves"
            break
        else:
            units = all_units
    formula = cover_pebbling_number(tree, weights).gamma
    return SimpleNamespace(
        formula_gamma=formula,
        oracle_gamma=k,
        status="PASS" if formula == k else "MISMATCH",
        witness=None if witness_state is None else Distribution.from_row(tree, row_of(witness_state)),
        confirmation=confirmation,
        distributions_checked=checked_count,
    )


def unreduced_verify_gamma(
    tree: Tree, weights: WeightFunction, *, max_pebbles: int = 512
) -> oracle.VerificationReport:
    """``verify_gamma``'s climb with every start state searched.

    The same pile, extensions and confirmations, in the same order, but
    each extension and each composition of a scanned size goes to the
    solver, twins or not, and ``distributions_checked`` counts the calls.
    It shares the oracle's packed solver (looked up at call time, so a
    wrapper sees its calls), enumerates with the unpruned
    ``packed_compositions``, uncapped, and reads the module's limits at
    call time.
    """
    if tree.n > oracle.MAX_VERTICES:
        raise BudgetExceededError(
            f"tree has {tree.n} vertices, oracle bound is {oracle.MAX_VERTICES}"
        )
    solve, zero, all_units, row_of = oracle._solver(tree, weights, max(max_pebbles, 0))
    leaf_units = [all_units[tree.index[name]] for name in tree.leaves()]
    checked_count = 0

    def hold(size: int, parts: int) -> None:
        count = _composition_count(size, parts)
        if count > oracle.ENUM_LIMIT:
            raise BudgetExceededError(
                f"{count} distributions of size {size} exceed enumeration limit {oracle.ENUM_LIMIT}"
            )

    witness_state = None
    k = 0
    leaf, pile = oracle._leaf_pile(tree, weights)
    pile = min(pile, max_pebbles)
    if pile >= 1:
        lo, hi = 0, pile
        while lo < hi:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if _composition_count(mid, len(leaf_units)) > oracle.ENUM_LIMIT else (mid + 1, hi)
        hold(lo, len(leaf_units))
        state = zero + pile * all_units[leaf]
        checked_count += 1
        if not solve(state):
            witness_state, k = state, pile + 1
    confirmation = "full"
    while weights.support:
        if k > max_pebbles:
            raise BudgetExceededError(f"size scan passed max_pebbles={max_pebbles}")
        if _composition_count(k, tree.n) <= oracle.FULL_CONFIRM_LIMIT:
            confirmation, units = "full", all_units
        else:
            confirmation, units = "leaves", leaf_units
        hold(k, len(units))
        extensions = [] if witness_state is None else [witness_state + unit for unit in leaf_units]
        for state in itertools.chain(extensions, packed_compositions(k, units, zero)):
            checked_count += 1
            if not solve(state):
                witness_state, k = state, k + 1
                break
        else:
            break
    formula = cover_pebbling_number(tree, weights).gamma
    return oracle.VerificationReport(
        tree_id=oracle.tree_id(tree),
        omega=weights,
        formula_gamma=formula,
        oracle_gamma=k,
        status="PASS" if formula == k else "MISMATCH",
        unsolvable_witness=None if witness_state is None else Distribution.from_row(tree, row_of(witness_state)),
        distributions_checked=checked_count,
        confirmation=confirmation,
    )


def enumerate_distributions(
    tree: Tree,
    size: int,
    support: Sequence[str] | None = None,
    *,
    limit: int = ENUM_LIMIT,
) -> Iterator[Distribution]:
    """Every distribution of ``size`` pebbles over ``support``, exactly once.

    Deterministic order (first support vertex descending, and so on).
    Raises BudgetExceededError up front when the count exceeds ``limit``.
    """
    if size < 0:
        raise ValueError("size must be nonnegative")
    if support is None:
        names = tree.names
    else:
        names = tuple(sorted(set(support)))
        for name in names:
            tree._require(name)  # raises UnknownVertexError off the tree
    count = _composition_count(size, len(names))
    if count > limit:
        raise BudgetExceededError(
            f"{count} distributions of size {size} over {len(names)} vertices exceed limit {limit}"
        )

    def generate() -> Iterator[Distribution]:
        for comp in compositions(size, len(names)):
            yield Distribution({name: c for name, c in zip(names, comp) if c})

    return generate()
