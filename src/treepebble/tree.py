"""Undirected trees on named vertices, and the text formats that carry them.

Vertices are arbitrary non-whitespace name tokens. Names map to dense
indices in sorted-name order, and every iteration order in this package is
sorted-by-name, so all derived output is deterministic. Trees and the value
maps defined on them are immutable after construction; every operation is a
pure function of its inputs and safe to share across threads.
``Tree._build`` is the one builder, on two name columns: it keeps them as
index columns and validates the tree by its edge count and a union-find
over them, without walking it; the per-edge loop runs only on rejected
input, to choose the message. The adjacency rows are built from the
columns on the first walk, and ``Tree.edges`` is derived from them on
demand; building the rows is idempotent, so a shared tree stays
thread-safe. ``Tree(edges)`` splits its pairs into the columns and checks
their names in bulk; ``parse_tree`` takes them from one split of a
canonical document (only ``u v`` lines, one space apart, each ended by a
newline), whose tokens are valid names by construction, and reads any
other document by ``_token_runs``, the run reader of vertex maps and moves.
``Tree._toward`` is the one place that orients a tree toward a sink subtree;
``orient_toward``, ``minimal_subtree`` and cover's per-root scorer read it.

File formats (UTF-8, newline separated, full-line '#' comments):

* tree documents: one edge ``u v`` per line; a bare name on a line declares
  an isolated vertex (only useful for the single-vertex tree).
* vertex-valued maps (weights, distributions): lines ``v k`` with ``k`` a
  nonnegative decimal integer below 2^63; vertices absent from the file take
  value 0.
"""

from __future__ import annotations

from itertools import groupby
from typing import Iterable, Iterator, Mapping, NoReturn, Sequence

from .checked import INT64_MAX
from .errors import OverflowLimitError, TreeFormatError, UnknownVertexError


def _check_name(name: str) -> str:
    if not isinstance(name, str) or not name:
        raise TreeFormatError(f"vertex name must be a nonempty string, got {name!r}")
    if name.split() != [name]:
        raise TreeFormatError(f"vertex name {name!r} contains whitespace")
    if name.startswith("#"):
        raise TreeFormatError(f"vertex name {name!r} starts with '#' (reserved for comments)")
    return name


def _reject(edges: Sequence, vertices: Sequence, joins: int) -> NoReturn:
    """Raise the first error of input ``Tree`` rejected, whose union-find merged two parts
    ``joins`` times (0: not counted): an entry that is not a pair, a bad name, a self-loop or
    a duplicate, edge by edge, then a bad bare name, empty input, disconnection and a cycle."""
    names: set[str] = set()
    seen: set[tuple[str, str]] = set()
    for i, edge in enumerate(edges):
        try:
            u, v = () if isinstance(edge, str) else edge  # not a str's characters
        except (TypeError, ValueError):
            raise TreeFormatError(f"edge {i} is not a pair of vertex names: {edge!r}") from None
        names.add(_check_name(u))
        names.add(_check_name(v))
        if u == v:
            raise TreeFormatError(f"self-loop at vertex '{u}'")
        pair = (u, v) if u < v else (v, u)
        if pair in seen:
            raise TreeFormatError(f"duplicate edge {pair[0]} {pair[1]}")
        seen.add(pair)
    for v in vertices:
        names.add(_check_name(v))
    if not names:
        raise TreeFormatError("empty input: a tree needs at least one vertex")
    if joins < len(names) - 1:
        raise TreeFormatError("edges do not form a connected graph (disconnected)")
    # names are valid and the graph is simple and connected, so it has too many edges
    raise TreeFormatError("cycle detected: edge count exceeds vertex count - 1")


class Tree:
    """An immutable undirected tree.

    Attributes:
        names: all vertex names, sorted.
        index: name -> dense index (the position in ``names``).
        edges: unordered edges as ``(u, v)`` pairs with ``u < v``, sorted, derived on demand.

    Input is valid iff its n names pass bulk checks and its n - 1 edges each join two parts
    of a union-find over the index columns, so no self-loop, duplicate or cycle can hide;
    ``_reject`` words the rest. The adjacency rows ``_adj`` are built on the first walk, and
    a second build makes equal rows, so a tree shared across threads stays safe to read.
    """

    __slots__ = ("names", "index", "_us", "_vs", "_rows")

    def __init__(self, edges: Iterable[tuple[str, str]], vertices: Iterable[str] = ()):
        if isinstance(vertices, str):
            raise TreeFormatError(f"vertices is a str, not a collection of names: {vertices!r}")
        edges, vertices = list(edges), list(vertices)
        try:
            if any(isinstance(edge, str) for edge in edges):  # it would unpack into its characters
                raise ValueError
            us, vs = [u for u, _ in edges], [v for _, v in edges]
            names = sorted({*us, *vs, *vertices})
            joined = " ".join(names)
            # every name nonempty, without whitespace, and none starting with '#'
            if not names or joined.split() != names or joined.startswith("#") or " #" in joined:
                raise ValueError
        except (TypeError, ValueError):  # an entry that is not a pair, or a bad name
            _reject(edges, vertices, 0)
        self._build(us, vs, names)

    def _build(self, us: list[str], vs: list[str], names: list[str]) -> None:
        """Build the tree with edges ``us[i]``-``vs[i]`` on ``names``: the sorted distinct
        names of the edges and the bare names, each already a valid name."""
        n = len(names)
        self.names: tuple[str, ...] = tuple(names)
        self.index: dict[str, int] = dict(zip(names, range(n)))
        self._us = ius = list(map(self.index.__getitem__, us))
        self._vs = ivs = list(map(self.index.__getitem__, vs))
        self._rows: list[list[int]] | None = None

        # union by size: a root holds minus its part's size, any other vertex its parent, so
        # no part is deeper than log2 n
        part = [-1] * n
        joins = 0
        for x, y in zip(ius, ivs):
            while part[x] >= 0:
                x = part[x]
            while part[y] >= 0:
                y = part[y]
            if x != y:
                if part[x] > part[y]:  # x's part is the smaller one
                    x, y = y, x
                part[x] += part[y]
                part[y] = x
                joins += 1
        if joins != n - 1 or len(us) != n - 1:
            _reject(list(zip(us, vs)), names, joins)

    # -- basic queries -------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.names)

    @property
    def _adj(self) -> list[list[int]]:
        """Ascending neighbour rows by index, built from the index columns on the first call;
        a walk reads them once, before its loop."""
        rows = self._rows
        if rows is None:
            rows = [[] for _ in self.names]
            for x, y in zip(self._us, self._vs):
                rows[x].append(y)
                rows[y].append(x)
            for row in rows:
                row.sort()
            self._rows = rows
        return rows

    @property
    def edges(self) -> tuple[tuple[str, str], ...]:
        names = self.names
        return tuple((names[x], names[y]) for x, row in enumerate(self._adj) for y in row if x < y)

    def _require(self, name: str) -> int:
        try:
            return self.index[name]
        except KeyError:
            raise UnknownVertexError(f"unknown vertex '{name}'") from None

    def leaves(self) -> tuple[str, ...]:
        """Vertices of degree at most 1 in name order, so a single-vertex tree is its own leaf."""
        return tuple(name for name, row in zip(self.names, self._adj) if len(row) < 2)

    # -- distances -----------------------------------------------------

    def _rooting(self, root: int) -> tuple[list[int], list[int]]:
        """Post-order (children in name order, root last) and parent array.

        Only vertices reachable from ``root`` are listed; its parent is -1,
        and an unreached vertex's stays -2, the mark of an unvisited one.
        """
        parent = [-2] * len(self.names)
        parent[root] = -1
        adj = self._adj
        order: list[int] = []
        stack = [root]
        while stack:
            x = stack.pop()
            order.append(x)
            for y in adj[x]:
                if parent[y] == -2:
                    parent[y] = x
                    stack.append(y)
        order.reverse()
        return order, parent

    @staticmethod
    def _depths(order: list[int], parent: list[int]) -> list[int]:
        """Depth of each vertex of the rooting ``(order, parent)``, in one pre-order pass."""
        depth = [0] * len(parent)
        for x in order[-2::-1]:  # pre-order after the root: the parent's depth is final
            depth[x] = depth[parent[x]] + 1
        return depth

    def distances_from(self, v: str) -> dict[str, int]:
        """Distance from ``v`` to every vertex, keyed by name."""
        row = self._depths(*self._rooting(self._require(v)))
        return {name: row[i] for i, name in enumerate(self.names)}

    # -- subtrees and orientations --------------------------------------

    def _toward(self, root: int, sink: Iterable[int]) -> tuple[list[int], list[int], list[int]]:
        """``_rooting(root)`` and its parent array with -1 on the subtree spanning ``root``
        and ``sink``, as ``(order, parent, out)``."""
        order, parent = self._rooting(root)
        out = parent[:]
        for x in sink:
            while out[x] >= 0:  # walk up to the subtree cut so far
                out[x], x = -1, out[x]
        return order, parent, out

    def minimal_subtree(self, v: str, others: Iterable[str] = ()) -> "Tree":
        """Smallest connected subtree containing ``v`` and all of ``others``.

        With no extra vertices this is the single-vertex tree on ``v``.
        """
        iv = self._require(v)
        _, parent, out = self._toward(iv, [self._require(u) for u in others])
        # the edges x - parent[x] with both ends in the subtree; out[-1] would read the last vertex
        keep = [x for x, p in enumerate(parent) if p >= 0 and out[x] < 0 and out[p] < 0]
        return Tree([(self.names[x], self.names[parent[x]]) for x in keep], (v,))

    def orient_toward(self, sink: Iterable[str]) -> "DirectedForest":
        """Direct every edge outside ``sink`` one step along its path into ``sink``.

        ``sink`` holds vertex names inducing a connected subtree. They are
        checked in name order, so the name-smallest unknown name raises.
        """
        sink_names = sorted(set(sink))
        if not sink_names:
            raise ValueError("sink must contain at least one vertex")
        idxs = [self._require(name) for name in sink_names]
        # rooted inside the sink, the subtree spanning it is the sink iff the sink is connected
        order, _, out = self._toward(idxs[0], idxs)
        if out.count(-1) != len(idxs):
            raise ValueError("sink is not connected inside the tree")
        return DirectedForest(self, tuple(sink_names), out, order)

    # -- dunder --------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Tree):
            return NotImplemented
        return self.names == other.names and self._adj == other._adj

    def __hash__(self) -> int:
        return hash((self.names, *map(tuple, self._adj)))

    def __repr__(self) -> str:
        return f"Tree({len(self.names)} vertices, {len(self.names) - 1} edges)"


class DirectedForest:
    """Arcs of a host tree, each pointing one step toward a sink subtree.

    ``Tree.orient_toward`` builds it from ``Tree._toward`` rooted inside the
    sinks: the arcs are the parent array with every sink set to -1 (no arc), and the
    rooting's post-order lists every vertex after all vertices whose arcs
    point to it.
    """

    __slots__ = ("tree", "sinks", "_out", "_order")

    def __init__(self, tree: Tree, sinks: tuple[str, ...], out: list[int], order: list[int]):
        self.tree = tree
        self.sinks = sinks
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


def _token_runs(text: str) -> Iterator[tuple[int, list[str], int]]:
    """``(first line number, whitespace-split tokens, run length)`` of each run of
    equal consecutive lines that are not blank or a comment.

    A run of k lines is split and tested once, and each parser reads it as
    one line repeated k times without expanding it.
    """
    lineno = 1
    for raw, run in groupby(text.splitlines()):
        k = len(list(run))
        tokens = raw.split()
        if tokens and not tokens[0].startswith("#"):
            yield lineno, tokens, k
        lineno += k


def parse_tree(text: str) -> Tree:
    """Parse an edge-list document into a Tree.

    Raises TreeFormatError on a line that is neither ``u v`` nor a bare
    name, and, through the Tree constructor, on duplicate edges,
    self-loops, cycles, disconnected input, or an empty document.

    A document with no '#' at a line start or after a space is split into
    tokens in one call. When it is canonical, only ``u v`` lines with one
    space between the names, each line ended by a newline (the last one may
    lack it), the tree is built from the two name columns of those tokens.
    Any other document, comments and '#'-names included, is read by
    ``_token_runs``: a run of equal ``u v`` lines gives at most two copies of
    its edge (the second is the duplicate the constructor reports), and a
    run whose line holds neither one nor two tokens is a line error at its
    first line.
    """
    # canonical: no name starts with '#' and the tokens written back two to a line give the document
    if text[:1] != "#" and " #" not in text and "\n#" not in text:
        tokens = text.split()
        template = "{} {}\n" * (len(tokens) // 2)
        if tokens and template.format(*tokens) == (text if text.endswith("\n") else text + "\n"):
            tree = Tree.__new__(Tree)  # the tokens are nonempty, without whitespace or a '#' first
            tree._build(tokens[0::2], tokens[1::2], sorted(set(tokens)))
            return tree
    edges: list[list[str]] = []
    singles: list[str] = []
    for lineno, tokens, k in _token_runs(text):
        if len(tokens) == 2:
            edges += [tokens] * min(k, 2)  # a second copy is already the duplicate Tree reports
        elif len(tokens) == 1:
            singles.append(tokens[0])
        else:
            raise TreeFormatError(
                f"line {lineno}: expected 'u v' or a bare vertex name, got {len(tokens)} tokens"
            )
    return Tree(edges, singles)


def serialize_tree(tree: Tree) -> str:
    """Edge-list document for ``tree``; reparsing yields an equal tree."""
    return _edge_list(tree.edges, tree.names)


def _edge_list(edges: Sequence[tuple[str, str]], names: Sequence[str]) -> str:
    """One ``u v`` line per edge; a tree with no edge is its one name."""
    return "\n".join([f"{u} {v}" for u, v in edges] or names) + "\n"


def tree_id(tree: Tree) -> str:
    """One-line canonical identifier (the serialized edge list, ';'-joined)."""
    return serialize_tree(tree).strip().replace("\n", ";")


def _parse_count(raw: str, lineno: int, what: str) -> int:
    """Count token ``raw`` of line ``lineno``, ASCII digits below 2^63; ``what`` names it."""
    # an optional minus sign (rejected with its own message), then ASCII
    # digits: int() alone would also take '+', '_' and non-ASCII digits
    digits = raw.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise TreeFormatError(f"line {lineno}: '{raw}' is not a decimal integer")
    if digits != raw:
        raise TreeFormatError(f"line {lineno}: negative {what}")
    # the length test keeps int() off strings it would refuse or crawl through
    digits = digits.lstrip("0") or "0"
    if len(digits) > len(str(INT64_MAX)) or int(digits) > INT64_MAX:
        raise OverflowLimitError(f"line {lineno}: {what} exceeds the signed 64-bit range")
    return int(digits)


def parse_vertex_map(text: str, tree: Tree) -> dict[str, int]:
    """Parse ``v k`` lines into a name -> nonnegative int map over ``tree``.

    A count is ASCII digits only; one above 2^63 - 1 raises OverflowLimitError.
    """
    values: dict[str, int] = {}
    for lineno, tokens, k in _token_runs(text):
        if len(tokens) != 2:
            raise TreeFormatError(f"line {lineno}: expected 'vertex count'")
        name, raw = tokens
        tree._require(name)
        if name in values:
            raise TreeFormatError(f"line {lineno}: duplicate entry for vertex '{name}'")
        values[name] = _parse_count(raw, lineno, f"count for vertex '{name}'")
        if k > 1:  # the run's second line repeats this entry
            raise TreeFormatError(f"line {lineno + 1}: duplicate entry for vertex '{name}'")
    return values


def parse_weights(text: str, tree: Tree) -> WeightFunction:
    return WeightFunction(parse_vertex_map(text, tree))


def parse_distribution(text: str, tree: Tree) -> Distribution:
    return Distribution(parse_vertex_map(text, tree))
