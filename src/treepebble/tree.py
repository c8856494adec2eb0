"""Undirected trees on named vertices, and the text formats that carry them.

Vertices are arbitrary non-whitespace name tokens. Names map to dense
indices in sorted-name order, and every iteration order in this package is
sorted-by-name, so all derived output is deterministic. Trees and the value
maps defined on them are immutable after construction; every operation is a
pure function of its inputs and safe to share across threads.

File formats (UTF-8, newline separated, full-line '#' comments):

* tree documents: one edge ``u v`` per line; a bare name on a line declares
  an isolated vertex (only useful for the single-vertex tree).
* vertex-valued maps (weights, distributions): lines ``v k`` with ``k`` a
  nonnegative decimal integer below 2^63; vertices absent from the file take
  value 0.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator, Mapping, Sequence, Union

from .checked import INT64_MAX
from .errors import OverflowLimitError, TreeFormatError, UnknownVertexError

# a vertex-map count: an optional minus sign (rejected with its own message)
# and ASCII digits; int() alone would also take '+', '_' and non-ASCII digits
_COUNT = re.compile(r"(-?)[0-9]+")


def _check_name(name: str) -> str:
    if not isinstance(name, str) or not name:
        raise TreeFormatError(f"vertex name must be a nonempty string, got {name!r}")
    if any(ch.isspace() for ch in name):
        raise TreeFormatError(f"vertex name {name!r} contains whitespace")
    if name.startswith("#"):
        raise TreeFormatError(f"vertex name {name!r} starts with '#' (reserved for comments)")
    return name


class Tree:
    """An immutable undirected tree.

    Attributes:
        names: all vertex names, sorted.
        index: name -> dense index (the position in ``names``).
        edges: unordered edges as ``(u, v)`` pairs with ``u < v``, sorted.
    """

    __slots__ = ("names", "index", "edges", "_adj")

    def __init__(self, edges: Iterable[tuple[str, str]], vertices: Iterable[str] = ()):
        norm: list[tuple[str, str]] = []
        names: set[str] = set()
        seen: set[tuple[str, str]] = set()
        for u, v in edges:
            _check_name(u)
            _check_name(v)
            if u == v:
                raise TreeFormatError(f"self-loop at vertex '{u}'")
            pair = (u, v) if u < v else (v, u)
            if pair in seen:
                raise TreeFormatError(f"duplicate edge {pair[0]} {pair[1]}")
            seen.add(pair)
            norm.append(pair)
            names.add(u)
            names.add(v)
        for v in vertices:
            names.add(_check_name(v))
        if not names:
            raise TreeFormatError("empty input: a tree needs at least one vertex")

        self.names: tuple[str, ...] = tuple(sorted(names))
        self.index: dict[str, int] = {name: i for i, name in enumerate(self.names)}
        self.edges: tuple[tuple[str, str], ...] = tuple(sorted(norm))

        adj: list[list[int]] = [[] for _ in self.names]
        for u, v in self.edges:
            iu, iv = self.index[u], self.index[v]
            adj[iu].append(iv)
            adj[iv].append(iu)
        # sorted names make index order equal name order
        self._adj: tuple[tuple[int, ...], ...] = tuple(tuple(sorted(a)) for a in adj)

        if len(self._rooting(0)[0]) != len(self.names):
            raise TreeFormatError("edges do not form a connected graph (disconnected)")
        if len(self.edges) != len(self.names) - 1:
            raise TreeFormatError("cycle detected: edge count exceeds vertex count - 1")

    # -- basic queries -------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.names)

    def _require(self, name: str) -> int:
        try:
            return self.index[name]
        except KeyError:
            raise UnknownVertexError(f"unknown vertex '{name}'") from None

    def neighbors(self, name: str) -> tuple[str, ...]:
        return tuple(self.names[j] for j in self._adj[self._require(name)])

    def leaves(self) -> tuple[str, ...]:
        """Degree-1 vertices in name order; a single-vertex tree is its own leaf."""
        if len(self.names) == 1:
            return self.names
        return tuple(name for i, name in enumerate(self.names) if len(self._adj[i]) == 1)

    # -- distances -----------------------------------------------------

    def _rooting(self, root: int) -> tuple[list[int], list[int], list[int]]:
        """Post-order (children in name order, root last), parent and depth arrays.

        Only vertices reachable from ``root`` are listed; its parent is -1.
        """
        n = len(self.names)
        parent = [-1] * n
        depth = [-1] * n
        depth[root] = 0
        order: list[int] = []
        stack = [root]
        while stack:
            x = stack.pop()
            order.append(x)
            for y in self._adj[x]:
                if depth[y] < 0:
                    depth[y] = depth[x] + 1
                    parent[y] = x
                    stack.append(y)
        order.reverse()
        return order, parent, depth

    def distance(self, u: str, v: str) -> int:
        """Number of edges on the unique u-v path."""
        iu, iv = self._require(u), self._require(v)
        return self._rooting(iu)[2][iv]

    def distances_from(self, v: str) -> dict[str, int]:
        """Distance from ``v`` to every vertex, keyed by name."""
        row = self._rooting(self._require(v))[2]
        return {name: row[i] for i, name in enumerate(self.names)}

    # -- subtrees and orientations --------------------------------------

    def minimal_subtree(self, v: str, others: Iterable[str] = ()) -> "Tree":
        """Smallest connected subtree containing ``v`` and all of ``others``.

        With no extra vertices this is the single-vertex tree on ``v``.
        """
        iv = self._require(v)
        targets = [self._require(u) for u in others]
        parent = self._rooting(iv)[1]
        keep: set[int] = {iv}
        for x in targets:
            while x not in keep:
                keep.add(x)
                x = parent[x]
        return Tree([(self.names[x], self.names[parent[x]]) for x in keep if x != iv], (v,))

    def orient_toward(self, sink: Union["Tree", Iterable[str]]) -> "DirectedForest":
        """Direct every edge outside ``sink`` one step along its path into ``sink``.

        ``sink`` may be a Tree (a subtree of this one) or a collection of
        vertex names inducing a connected subtree.
        """
        if isinstance(sink, Tree):
            sink_names = set(sink.names)
            edge_set = set(self.edges)
            for name in sink.names:
                self._require(name)
            for e in sink.edges:
                if e not in edge_set:
                    raise ValueError(f"sink edge {e[0]} {e[1]} is not an edge of the tree")
        else:
            sink_names = {name for name in sink}
            if not sink_names:
                raise ValueError("sink must contain at least one vertex")
            for name in sink_names:
                self._require(name)

        idxs = {self.index[s] for s in sink_names}
        # rooted inside the sink, every other sink vertex must hang from one,
        # and every vertex outside steps toward the sink through its parent
        order, parent, _ = self._rooting(min(idxs))
        if any(parent[i] >= 0 and parent[i] not in idxs for i in idxs):
            raise ValueError("sink is not connected inside the tree")
        arcs = [(self.names[x], self.names[parent[x]]) for x in order if x not in idxs]
        return DirectedForest(self, arcs, sorted(sink_names))

    # -- dunder --------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Tree):
            return NotImplemented
        return self.names == other.names and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.names, self.edges))

    def __repr__(self) -> str:
        return f"Tree({len(self.names)} vertices, {len(self.edges)} edges)"


class DirectedForest:
    """Arcs of a host tree, each pointing one step toward a sink subtree.

    No vertex has two outgoing arcs, no sink has one, and following arcs
    from any vertex always ends inside ``sinks``. The arcs are kept as an
    out-neighbour index array (-1: no arc) together with a topological
    order that lists every vertex after all vertices whose arcs point to it.
    """

    __slots__ = ("tree", "sinks", "_out", "_order")

    def __init__(self, tree: Tree, arcs: Iterable[tuple[str, str]], sinks: Iterable[str]):
        self.tree = tree
        self.sinks: tuple[str, ...] = tuple(sorted(sinks))
        is_sink = [False] * tree.n
        for name in self.sinks:
            is_sink[tree._require(name)] = True
        out = [-1] * tree.n
        pending = [0] * tree.n  # arcs into each vertex not yet ordered
        for src, dst in sorted(arcs):
            s, d = tree._require(src), tree._require(dst)
            if d not in tree._adj[s]:
                raise ValueError(f"arc {src}->{dst} is not over an edge of the host tree")
            if out[s] >= 0:
                raise ValueError(f"vertex '{src}' has two outgoing arcs")
            if is_sink[s]:
                raise ValueError(f"sink vertex '{src}' has an outgoing arc")
            out[s] = d
            pending[d] += 1
        # Kahn's pass; a vertex on a directed cycle never runs out of pending arcs
        order = [x for x in range(tree.n) if not pending[x]]
        for x in order:  # grows while it is read
            p = out[x]
            if p >= 0:
                pending[p] -= 1
                if not pending[p]:
                    order.append(p)
        if len(order) < tree.n:
            raise ValueError("arcs contain a directed cycle")
        for p in out:
            if p >= 0 and out[p] < 0 and not is_sink[p]:
                raise ValueError(f"arc chain dead-ends at '{tree.names[p]}', outside the sinks")
        self._out = out
        self._order = order

    @property
    def arcs(self) -> tuple[tuple[str, str], ...]:
        """``(src, dst)`` name pairs, sorted (index order is name order)."""
        names = self.tree.names
        return tuple((names[x], names[p]) for x, p in enumerate(self._out) if p >= 0)

    @property
    def arc_count(self) -> int:
        return len(self._out) - self._out.count(-1)

    def out_neighbor(self, name: str) -> str | None:
        """Target of the unique outgoing arc of ``name``, or None."""
        p = self._out[self.tree._require(name)]
        return self.tree.names[p] if p >= 0 else None

    def __repr__(self) -> str:
        return f"DirectedForest({self.arc_count} arcs -> {{{', '.join(self.sinks)}}})"


class _VertexValues:
    """Sparse nonnegative per-vertex integers; absent vertices count as 0."""

    __slots__ = ("_values",)
    kind = "value"

    def __init__(self, values: Mapping[str, int] | Iterable[tuple[str, int]] = ()):
        items = values.items() if isinstance(values, Mapping) else values
        store: dict[str, int] = {}
        for name, count in items:
            if not isinstance(count, int) or isinstance(count, bool):
                raise ValueError(f"{self.kind} for '{name}' must be an integer, got {count!r}")
            if count < 0:
                raise ValueError(f"negative {self.kind} for '{name}'")
            if count:
                store[name] = store.get(name, 0) + count
        self._values = store

    def __getitem__(self, name: str) -> int:
        return self._values.get(name, 0)

    def row(self, tree: Tree) -> list[int]:
        """Dense values indexed like ``tree.names``; the name-smallest unknown name raises."""
        values = [0] * tree.n
        index = tree.index
        try:
            for name, count in self._values.items():
                values[index[name]] = count
        except KeyError:
            tree._require(min(name for name in self._values if name not in index))
        return values

    def items(self) -> tuple[tuple[str, int], ...]:
        return tuple(sorted(self._values.items()))

    @property
    def support(self) -> tuple[str, ...]:
        return tuple(sorted(self._values))

    @property
    def total(self) -> int:
        return sum(self._values.values())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, _VertexValues):
            return NotImplemented
        return type(self) is type(other) and self._values == other._values

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}: {v}" for k, v in self.items())
        return f"{type(self).__name__}({{{inner}}})"


class WeightFunction(_VertexValues):
    """Per-vertex demand: how many pebbles each vertex must end up holding."""

    kind = "demand"


class Distribution(_VertexValues):
    """Pebbles currently sitting on each vertex."""

    kind = "pebble count"

    @classmethod
    def from_row(cls, tree: Tree, row: Sequence[int]) -> "Distribution":
        """The distribution whose counts, indexed like ``tree.names``, are ``row``."""
        return cls({tree.names[i]: c for i, c in enumerate(row) if c})

    @property
    def size(self) -> int:
        return self.total

    def dominates(self, demand: WeightFunction) -> bool:
        """True when this distribution meets the demand pointwise."""
        return all(self[name] >= k for name, k in demand.items())


# -- document parsing and serialization ---------------------------------


def _content_lines(text: str) -> Iterator[tuple[int, str]]:
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line


def parse_tree(text: str) -> Tree:
    """Parse an edge-list document into a Tree.

    Raises TreeFormatError on a line that is neither ``u v`` nor a bare
    name, and, through the Tree constructor, on duplicate edges,
    self-loops, cycles, disconnected input, or an empty document.
    """
    edges: list[tuple[str, str]] = []
    singles: list[str] = []
    for lineno, line in _content_lines(text):
        tokens = line.split()
        if len(tokens) == 1:
            singles.append(tokens[0])
        elif len(tokens) == 2:
            edges.append((tokens[0], tokens[1]))
        else:
            raise TreeFormatError(
                f"line {lineno}: expected 'u v' or a bare vertex name, got {len(tokens)} tokens"
            )
    return Tree(edges, singles)


def serialize_tree(tree: Tree) -> str:
    """Edge-list document for ``tree``; reparsing yields an equal tree."""
    return _edge_list(tree.edges, tree.names)


def _edge_list(edges: Sequence[tuple[str, str]], names: Iterable[str]) -> str:
    """One ``u v`` line per edge, then a line per name on no edge."""
    lines = [f"{u} {v}" for u, v in edges]
    connected = {x for e in edges for x in e}
    lines.extend(name for name in names if name not in connected)
    return "\n".join(lines) + "\n"


def tree_id(tree: Tree) -> str:
    """One-line canonical identifier (the serialized edge list, ';'-joined)."""
    return serialize_tree(tree).strip().replace("\n", ";")


def parse_vertex_map(text: str, tree: Tree) -> dict[str, int]:
    """Parse ``v k`` lines into a name -> nonnegative int map over ``tree``.

    A count is ASCII digits only; one above 2^63 - 1 raises OverflowLimitError.
    """
    values: dict[str, int] = {}
    for lineno, line in _content_lines(text):
        tokens = line.split()
        if len(tokens) != 2:
            raise TreeFormatError(f"line {lineno}: expected 'vertex count'")
        name, raw = tokens
        tree._require(name)
        if name in values:
            raise TreeFormatError(f"line {lineno}: duplicate entry for vertex '{name}'")
        match = _COUNT.fullmatch(raw)
        if match is None:
            raise TreeFormatError(f"line {lineno}: '{raw}' is not a decimal integer")
        if match.group(1):
            raise TreeFormatError(f"line {lineno}: negative count for vertex '{name}'")
        # the length test keeps int() off strings it would refuse or crawl through
        if len(raw.lstrip("0")) > len(str(INT64_MAX)) or int(raw) > INT64_MAX:
            raise OverflowLimitError(
                f"line {lineno}: count for vertex '{name}' exceeds the signed 64-bit range"
            )
        values[name] = int(raw)
    return values


def parse_weights(text: str, tree: Tree) -> WeightFunction:
    return WeightFunction(parse_vertex_map(text, tree))


def parse_distribution(text: str, tree: Tree) -> Distribution:
    return Distribution(parse_vertex_map(text, tree))
