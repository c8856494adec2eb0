import collections
import itertools
import os
import random
import re
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import treepebble
from treepebble import (
    Distribution,
    OverflowLimitError,
    Tree,
    TreeFormatError,
    UnknownVertexError,
    WeightFunction,
    parse_moves,
    parse_tree,
    parse_vertex_map,
    random_tree,
    serialize_tree,
)
from helpers import (
    ReferenceTree,
    all_shapes,
    neighbors,
    reference_orient,
    reference_parse_tree,
    reference_steiner,
    tree,
)


class TestParseTree:
    def test_simple_path(self):
        t = parse_tree("a b\nb c")
        assert t.names == ("a", "b", "c")
        assert t.edges == (("a", "b"), ("b", "c"))

    def test_cycle_rejected(self):
        with pytest.raises(TreeFormatError, match="cycle"):
            parse_tree("a b\nb c\nc a")

    def test_disconnected_rejected(self):
        with pytest.raises(TreeFormatError, match="disconnected"):
            parse_tree("a b\nc d")

    def test_empty_rejected(self):
        with pytest.raises(TreeFormatError, match="empty"):
            parse_tree("")

    def test_duplicate_edge_rejected(self):
        with pytest.raises(TreeFormatError, match="duplicate"):
            parse_tree("a b\nb a")

    def test_self_loop_rejected(self):
        with pytest.raises(TreeFormatError, match="self-loop"):
            parse_tree("a a")

    def test_empty_name_rejected(self):
        with pytest.raises(TreeFormatError) as info:
            Tree([("", "a")])
        assert str(info.value) == "vertex name must be a nonempty string, got ''"

    @pytest.mark.parametrize(
        "edges,bad",
        [([(["a"], "b")], ["a"]), ([("a", "b"), ("b", ["a"])], ["a"]), ([("a", "b"), (7, "a")], 7)],
    )
    def test_non_string_name_rejected(self, edges, bad):
        # names are checked on first sighting, but an unhashable one never reaches a set
        with pytest.raises(TreeFormatError) as info:
            Tree(edges)
        assert str(info.value) == f"vertex name must be a nonempty string, got {bad!r}"

    @pytest.mark.parametrize(
        "edges,message",
        [
            ([("a",)], "edge 0 is not a pair of vertex names: ('a',)"),
            ([("a", "b", "c")], "edge 0 is not a pair of vertex names: ('a', 'b', 'c')"),
            ([1], "edge 0 is not a pair of vertex names: 1"),
            ([("a", "b"), ("b",), ("c", "c")], "edge 1 is not a pair of vertex names: ('b',)"),
            ([("a", "a"), ("b",)], "self-loop at vertex 'a'"),
            ([("a", "#b"), None], "vertex name '#b' starts with '#' (reserved for comments)"),
            (["ab", "bc"], "edge 0 is not a pair of vertex names: 'ab'"),
            ([("a", "b"), "cd"], "edge 1 is not a pair of vertex names: 'cd'"),
            ([("a", "a"), "cd"], "self-loop at vertex 'a'"),
        ],
    )
    def test_malformed_edge_rejected_in_edge_order(self, edges, message):
        with pytest.raises(TreeFormatError) as info:
            Tree(edges)
        assert str(info.value) == message

    @pytest.mark.parametrize("edges", [[], [("v", "1")], [("a", "a")]])
    def test_str_vertices_rejected(self, edges):
        # a str would be read as one name per character; it is refused before any edge is read
        for build in (Tree, ReferenceTree):
            with pytest.raises(TreeFormatError) as info:
                build(edges, "v1")
            assert str(info.value) == "vertices is a str, not a collection of names: 'v1'"

    def test_str_subclass_names_accepted(self):
        # the bulk name check must take what the per-edge check takes, or valid input would
        # reach the error path, find no error there and be reported as disconnected
        class S(str):
            pass

        t = Tree([(S("a"), S("b"))])
        assert (t.names, t.edges) == (("a", "b"), (("a", "b"),))

    def test_first_bad_name_in_edge_order(self):
        with pytest.raises(TreeFormatError, match="'#c' starts with '#'"):
            Tree([("a", "b"), ("b", "#c"), ("d d", "a"), ("b", "b")])

    def test_too_many_tokens_rejected(self):
        with pytest.raises(TreeFormatError, match="tokens"):
            parse_tree("a b c")

    def test_comments_and_blanks_ignored(self):
        t = parse_tree("# a tree\n\na b\n  \n# more\nb c\n")
        assert t.edges == (("a", "b"), ("b", "c"))

    def test_bare_name_declares_isolated_vertex(self):
        t = parse_tree("v")
        assert t.names == ("v",)
        assert t.edges == ()

    def test_two_isolated_vertices_disconnected(self):
        with pytest.raises(TreeFormatError, match="disconnected"):
            parse_tree("u\nv")

    def test_round_trip_examples(self):
        for doc in ("a b\nb c", "x c\ny c\nz c", "v"):
            t = parse_tree(doc)
            assert parse_tree(serialize_tree(t)) == t


class TestDistance:
    def test_path_ends(self):
        assert tree("a b;b c").distances_from("a")["c"] == 2

    def test_identity(self):
        assert tree("a b;b c").distances_from("a")["a"] == 0

    def test_star_through_center(self):
        assert tree("x c;y c;z c").distances_from("x")["y"] == 2

    def test_symmetric(self):
        t = tree("a b;b c;c d")
        assert t.distances_from("a")["d"] == t.distances_from("d")["a"] == 3

    def test_unknown_vertex(self):
        with pytest.raises(UnknownVertexError):
            tree("a b").distances_from("zz")


class TestLeaves:
    def test_path(self):
        assert tree("a b;b c").leaves() == ("a", "c")

    def test_star(self):
        assert tree("x c;y c;z c").leaves() == ("x", "y", "z")

    def test_single_vertex(self):
        assert parse_tree("v").leaves() == ("v",)


def test_neighbors_ascending_on_relabelled_shapes():
    # the constructor builds rows in edge order and then sorts them; pin that they come out sorted
    rng = random.Random(8)
    for shape in all_shapes(8):
        for _ in range(20):
            names = dict(zip(shape.names, (str(x) for x in rng.sample(range(1000), shape.n))))
            edges = [(names[u], names[v]) for u, v in shape.edges]
            rng.shuffle(edges)
            t = Tree([e if rng.random() < 0.5 else e[::-1] for e in edges], names.values())
            for v in t.names:
                row = neighbors(t, v)
                assert list(row) == sorted(row), (edges, v)
                assert set(row) == {x for e in edges if v in e for x in e if x != v}


def test_threads_racing_to_build_the_rows_see_equal_rows():
    # a shared tree builds its adjacency rows on the first walk; racing builds must agree
    rng = random.Random(12)
    text = "".join(f"v{rng.randrange(i)} v{i}\n" for i in range(1, 3000))
    alone = parse_tree(text)
    expected = (tuple(map(tuple, alone._adj)), alone.distances_from("v0"))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            shared = parse_tree(text)
            start = threading.Barrier(8)
            seen = []

            def walk():
                start.wait(timeout=10)
                seen.append((tuple(map(tuple, shared._adj)), shared.distances_from("v0")))

            threads = [threading.Thread(target=walk) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
            assert seen == [expected] * 8
    finally:
        sys.setswitchinterval(interval)


def _outcome(build, *args):
    """The names, edges and adjacency rows (as tuples) ``build(*args)`` yields, or its error."""
    try:
        t = build(*args)
    except Exception as error:
        return type(error), str(error)
    return t.names, t.edges, tuple(map(tuple, t._adj))


def _edge_lists(rng: random.Random):
    """Every shape of up to 8 vertices, relabelled, its edges shuffled and each flipped at random."""
    for shape in all_shapes(8):
        names = dict(zip(shape.names, (str(x) for x in rng.sample(range(1000), shape.n))))
        edges = [(names[u], names[v]) for u, v in shape.edges]
        rng.shuffle(edges)
        yield [e if rng.random() < 0.5 else e[::-1] for e in edges], sorted(names.values())


def _faults(edges, names, rng: random.Random):
    """``(label, edges, vertices)``: the valid list, then seeded structural faults of it."""

    def insert(extra):
        at = rng.randrange(len(edges) + 1)
        return edges[:at] + [extra] + edges[at:]

    yield "valid", edges, ()
    yield "bare names", edges, rng.sample(names, rng.randint(1, len(names)))
    yield "an isolated bare name", edges, [*names, "z"]
    yield "a self-loop", insert((rng.choice(names),) * 2), ()
    if edges:
        i = rng.randrange(len(edges))
        u, v = edges[i]
        yield "a duplicate", insert((u, v)), ()
        yield "a flipped duplicate", insert((v, u)), ()
        yield "a missing edge", edges[:i] + edges[i + 1 :], ()
        if len(edges) > 1:
            j = rng.choice([j for j in range(len(edges)) if j != i])
            yield "a duplicate and a missing edge", edges[:i] + edges[i + 1 :] + [edges[j][::-1]], ()
        present = {frozenset(e) for e in edges}
        chords = [(a, b) for a in names for b in names if a < b and {a, b} not in present]
        if chords:
            yield "a cycle", insert(rng.choice(chords)), ()


def _bad_names(edges, names, rng: random.Random):
    """``(label, edges, vertices)``: str-subclass or int names, a bad name at one seeded place,
    a pair of the wrong arity or a str in place of a pair or of the bare names."""

    class S(str):
        pass

    yield "str subclass names", [(S(u), S(v)) for u, v in edges], [S(x) for x in names]
    yield "int names", [(int(u), int(v)) for u, v in edges], [int(x) for x in names]
    for bad in ("", "a b", "a\x1cb", "#x", 7, None, ["a"], ("a",)):
        yield f"bare name {bad!r}", edges, [*names, bad]
        if edges:
            i = rng.randrange(len(edges))
            pair = (bad, edges[i][1]) if rng.random() < 0.5 else (edges[i][0], bad)
            yield f"name {bad!r}", edges[:i] + [pair] + edges[i + 1 :], ()
    yield "three names in a pair", [*edges, ("a", "b", "c")], ()
    yield "one name in a pair", [("a",), *edges], ()
    yield "a pair that is an int", [*edges, 5], ()
    yield "a pair that is a str", [*edges[:1], "ab", *edges[1:]], ()
    yield "bare names in one str", edges, "".join(names)


def test_constructor_matches_the_reference():
    rng = random.Random(18)
    for edges, names in _edge_lists(rng):
        for label, bad_edges, vertices in [*_faults(edges, names, rng), *_bad_names(edges, names, rng)]:
            expected = _outcome(ReferenceTree, bad_edges, vertices)
            assert _outcome(Tree, bad_edges, vertices) == expected, (label, bad_edges, vertices)
    empty = (TreeFormatError, "empty input: a tree needs at least one vertex")
    assert _outcome(Tree, []) == _outcome(ReferenceTree, []) == empty


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\x0c", "\x1c"], ids=repr)
def test_parse_tree_matches_the_reference(newline):
    rng = random.Random(18)
    for edges, names in _edge_lists(rng):
        for label, bad_edges, vertices in _faults(edges, names, rng):
            lines = [f"{u} {v}" for u, v in bad_edges] + list(vertices)
            for _ in range(rng.randint(0, 4)):
                extra = rng.choice(["", "  ", "# a comment", "  # u v", "#u v", *lines, "a b c"])
                lines.insert(rng.randrange(len(lines) + 1), extra)
            if lines and rng.random() < 0.5:  # a line repeated right after itself
                at = rng.randrange(len(lines))
                lines[at:at] = [lines[at]] * rng.randint(1, 3)
            doc = newline.join(lines) + newline * rng.randint(0, 1)
            assert _outcome(parse_tree, doc) == _outcome(reference_parse_tree, doc), (label, doc)


@pytest.fixture
def line_loop_runs(monkeypatch) -> list:
    """Records each ``Tree.__init__`` call: ``parse_tree`` makes one only from its per-line loop."""
    calls = []
    init = Tree.__init__
    monkeypatch.setattr(Tree, "__init__", lambda self, *args: calls.append(args) or init(self, *args))
    return calls


@pytest.mark.parametrize("end", ["\n", ""], ids=repr)
def test_canonical_documents_match_the_reference(line_loop_runs, end):
    # each case as 'u v' lines, one space and '\n' apart: the split-once path unless a bare name
    # (never canonical) is among its lines or it has no edge
    rng = random.Random(18)
    for edges, names in _edge_lists(rng):
        for label, bad_edges, vertices in _faults(edges, names, rng):
            doc = "\n".join([f"{u} {v}" for u, v in bad_edges] + list(vertices)) + end
            line_loop_runs.clear()
            assert _outcome(parse_tree, doc) == _outcome(reference_parse_tree, doc), (label, doc)
            assert bool(line_loop_runs) == bool(vertices or not bad_edges), (label, doc)


@pytest.mark.parametrize(
    "edit",
    [
        lambda u, v: f"{u}\t{v}",
        lambda u, v: f"{u}  {v}",
        lambda u, v: f"{u} {v} ",
        lambda u, v: f"{u} {v}\r",  # the line ends in '\r\n'
        lambda u, v: f"{u} #{v}",
        lambda u, v: f"#{u} {v}",
        lambda u, v: f"{u}\n{u} {v}",  # a bare name on its own line
        lambda u, v: f"{u} {v} {u}",
    ],
    ids=["tab", "two spaces", "trailing space", "CRLF", "name starting with #", "comment",
         "bare name", "three tokens"],
)
def test_near_canonical_documents_take_the_line_loop(line_loop_runs, edit):
    rng = random.Random(24)
    for edges, _ in _edge_lists(rng):
        if not edges:
            continue
        lines = [f"{u} {v}" for u, v in edges]
        at = rng.randrange(len(lines))
        lines[at] = edit(*edges[at])
        doc = "\n".join(lines) + "\n" * rng.randint(0, 1)
        line_loop_runs.clear()
        outcome = _outcome(parse_tree, doc)
        assert outcome == _outcome(reference_parse_tree, doc), doc
        # the loop builds the tree, or raises a line error itself before any build
        assert line_loop_runs or outcome[1].startswith("line "), doc


def _large_faults(edges, rng: random.Random):
    """``(label, edges, vertices)``: the valid edge list of a large tree, then one seeded fault
    each, any extra edge last, once the union-find has merged every other part."""
    names = sorted({x for edge in edges for x in edge})
    present = {frozenset(edge) for edge in edges}
    while True:
        chord = tuple(rng.sample(names, 2))
        if frozenset(chord) not in present:
            break
    degree = collections.Counter(x for edge in edges for x in edge)
    # an inner edge, so that dropping it leaves both of its ends on the tree
    i = rng.choice([i for i, (u, v) in enumerate(edges) if min(degree[u], degree[v]) > 1])
    u, v = edges[i]
    yield "valid", edges, ()
    yield "an extra edge, which makes a cycle", [*edges, chord], ()
    yield "a dropped edge, which disconnects", edges[:i] + edges[i + 1 :], ()
    yield "n - 1 edges around a cycle and an isolated bare name", [*edges, chord], ["isolated"]
    yield "a duplicate edge", [*edges, (v, u)], ()
    yield "a self-loop", [*edges, (u, u)], ()
    yield "a bad name", edges[:i] + [(u, "#x")] + edges[i + 1 :], ()


def _random_recursive(n: int, rng: random.Random) -> list[tuple[str, str]]:
    edges = [(f"v{rng.randrange(i)}", f"v{i}") for i in range(1, n)]
    rng.shuffle(edges)
    return [edge if rng.random() < 0.5 else edge[::-1] for edge in edges]


@pytest.mark.parametrize(
    "edges",
    [
        _random_recursive(3000, random.Random(31)),
        [(f"p{i:05d}", f"p{i + 1:05d}") for i in range(9999)],  # the tree of largest depth
    ],
    ids=["random recursive tree of 3000 vertices", "path of 10^4 vertices"],
)
def test_large_trees_match_the_reference(edges):
    rng = random.Random(len(edges))
    messages = []
    for label, case, vertices in _large_faults(edges, rng):
        expected = _outcome(ReferenceTree, case, vertices)
        assert _outcome(Tree, case, vertices) == expected, label
        doc = "".join(f"{u} {v}\n" for u, v in case) + "".join(f"{x}\n" for x in vertices)
        assert _outcome(parse_tree, doc) == _outcome(reference_parse_tree, doc) == expected, label
        messages.append(expected[1] if expected[0] is TreeFormatError else "a tree")
    # each fault reaches the check its label names
    firsts = ["a", "cycle", "edges", "edges", "duplicate", "self-loop", "vertex"]
    assert [message.split()[0] for message in messages] == firsts, messages


class TestMinimalSubtree:
    def test_star_two_leaves(self):
        star = tree("a b;b c;b d")
        sub = star.minimal_subtree("a", ["a", "c"])
        assert sub.names == ("a", "b", "c")
        assert sub.edges == (("a", "b"), ("b", "c"))

    def test_spans_whole_tree(self):
        star = tree("a b;b c;b d")
        sub = star.minimal_subtree("d", ["a", "c"])
        assert sub == star

    def test_empty_extra_set_gives_single_vertex(self):
        sub = tree("a b;b c").minimal_subtree("a", [])
        assert sub.names == ("a",)
        assert sub.edges == ()

    def test_own_leaves_lie_in_the_spanning_set(self):
        t = tree("a b;b c;c d;c e;b f")
        sub = t.minimal_subtree("a", ["d", "e"])
        for leaf in sub.leaves():
            assert leaf in {"a", "d", "e"}

    def test_matches_leaf_pruning_on_all_small_trees(self):
        # others may repeat a vertex or name v itself
        rng = random.Random(1989)
        for t in all_shapes(7):
            for v in t.names:
                others = rng.choices(t.names, k=rng.randint(0, t.n))
                sub = t.minimal_subtree(v, others)
                keep = reference_steiner(t, [v, *others])
                assert set(sub.names) == keep
                assert set(sub.edges) == {(a, b) for a, b in t.edges if a in keep and b in keep}


def _connected(t, subset) -> bool:
    """Whether ``subset`` induces a connected subgraph of ``t``, by breadth-first search."""
    reached, frontier = {min(subset)}, [min(subset)]
    while frontier:
        frontier = [y for x in frontier for y in neighbors(t, x) if y in subset and y not in reached]
        reached.update(frontier)
    return reached == set(subset)


class TestOrientToward:
    def test_star_partial_sink(self):
        star = tree("a b;b c;b d")
        f = star.orient_toward(star.minimal_subtree("a", ["c"]).names)
        assert f.arcs == (("d", "b"),)

    def test_path_to_endpoint(self):
        f = tree("a b;b c").orient_toward(("c",))
        assert f.arcs == (("a", "b"), ("b", "c"))

    def test_whole_tree_sink_is_empty_forest(self):
        t = tree("a b;b c")
        f = t.orient_toward(t.names)
        assert f.arcs == ()

    def test_arc_count_matches_sink_complement(self):
        t = tree("a b;b c;c d;c e")
        sink = t.minimal_subtree("b", ["c"])
        f = t.orient_toward(sink.names)
        assert len(f.arcs) == len(t.edges) - len(sink.edges)

    def test_disconnected_sink_rejected(self):
        with pytest.raises(ValueError, match="connected"):
            tree("a b;b c").orient_toward(("a", "c"))

    def test_empty_sink_rejected(self):
        with pytest.raises(ValueError):
            tree("a b").orient_toward(())

    def test_unknown_sink_vertex(self):
        with pytest.raises(UnknownVertexError):
            tree("a b").orient_toward(("zz",))

    def test_unknown_sink_vertices_checked_in_name_order(self):
        # set order varies with the hash seed; the smallest unknown name must not
        script = (
            "from treepebble import UnknownVertexError, parse_tree\n"
            "try:\n"
            "    parse_tree('a b\\nb c').orient_toward(('zz', 'yy', 'xx'))\n"
            "except UnknownVertexError as e:\n"
            "    print(e)\n"
        )
        src = str(Path(treepebble.__file__).resolve().parent.parent)
        for seed in range(6):
            env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
            run = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
            )
            assert run.stdout == "unknown vertex 'xx'\n", f"PYTHONHASHSEED={seed}"

    def test_forest_invariants_on_all_small_trees(self):
        # the sinks of test_matches_greedy_on_all_small_trees: the root alone,
        # and the Steiner subtree of the root and a random support
        rng = random.Random(2019)
        for t in all_shapes(7):
            for root in t.names:
                support = rng.sample(t.names, rng.randint(1, t.n))
                for sink in ((root,), t.minimal_subtree(root, support).names):
                    f = t.orient_toward(sink)
                    assert f.sinks == tuple(sorted(sink))
                    rows = [t.distances_from(s) for s in sink]
                    gap = {v: min(row[v] for row in rows) for v in t.names}
                    # one arc out of each vertex outside the sink, none out of a sink
                    assert sorted(src for src, _ in f.arcs) == [v for v in t.names if v not in sink]
                    for src, dst in f.arcs:
                        assert dst in neighbors(t, src) and gap[dst] == gap[src] - 1
                    assert sorted(f._order) == list(range(t.n))
                    position = {x: i for i, x in enumerate(f._order)}
                    for src, dst in f.arcs:
                        assert position[t.index[src]] < position[t.index[dst]]
                    assert f.arc_count == t.n - len(sink)

    def test_rejects_exactly_the_disconnected_sinks(self):
        # every nonempty vertex subset of every tree up to 6 vertices
        counts = {True: 0, False: 0}
        for t in all_shapes(6):
            for r in range(1, t.n + 1):
                for sink in itertools.combinations(t.names, r):
                    connected = _connected(t, sink)
                    counts[connected] += 1
                    if not connected:
                        with pytest.raises(ValueError, match="not connected"):
                            t.orient_toward(sink)
                        continue
                    f = t.orient_toward(sink)
                    assert f.arcs == reference_orient(t, sink).arcs
                    assert f.arc_count == t.n - len(sink)
                    position = {x: i for i, x in enumerate(f._order)}
                    assert sorted(position) == list(range(t.n))
                    for src, dst in f.arcs:
                        assert position[t.index[src]] < position[t.index[dst]]
        assert min(counts.values()) > 0, counts


class TestVertexValues:
    def test_defaults_and_support(self):
        w = WeightFunction({"a": 1, "b": 0})
        assert w["a"] == 1
        assert w["b"] == 0
        assert w["zz"] == 0
        assert w.support == ("a",)
        assert w.total == 1

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            Distribution({"a": -1})

    def test_non_integer_demand_rejected(self):
        with pytest.raises(ValueError) as info:
            WeightFunction({"a": 1.5})
        assert str(info.value) == "demand for 'a' must be an integer, got 1.5"

    def test_bool_pebble_count_rejected(self):
        with pytest.raises(ValueError) as info:
            Distribution({"a": True})
        assert str(info.value) == "pebble count for 'a' must be an integer, got True"

    def test_dominates(self):
        d = Distribution({"a": 2, "c": 1})
        assert d.dominates(WeightFunction({"a": 1, "c": 1}))
        assert not d.dominates(WeightFunction({"a": 3}))
        assert d.dominates(WeightFunction({}))

    def test_size(self):
        assert Distribution({"a": 2, "b": 3}).size == 5


def test_hash_repr_and_foreign_equality():
    # the same tree from edges in another order and orientation
    t, same = Tree([("a", "b"), ("b", "c")]), Tree([("c", "b"), ("b", "a")])
    assert t == same and hash(t) == hash(same)
    assert {t: 1, same: 2} == {t: 2}
    assert repr(t) == "Tree(3 vertices, 2 edges)"
    assert repr(t.orient_toward(("a",))) == "DirectedForest(2 arcs -> {a})"
    assert repr(WeightFunction({"c": 2, "a": 1})) == "WeightFunction({a: 1, c: 2})"
    assert repr(Distribution({})) == "Distribution({})"
    assert t != 3 and not t == 3
    assert Distribution({"a": 1}) != 3 and not WeightFunction({"a": 1}) == 3


class TestVertexMapParsing:
    def test_basic(self):
        t = tree("a b;b c")
        assert parse_vertex_map("a 2\nc 1\n", t) == {"a": 2, "c": 1}

    def test_unknown_vertex(self):
        with pytest.raises(UnknownVertexError):
            parse_vertex_map("zz 1", tree("a b"))

    def test_negative_rejected(self):
        with pytest.raises(TreeFormatError, match="negative"):
            parse_vertex_map("a -1", tree("a b"))
        with pytest.raises(TreeFormatError, match="^line 1: negative move count$"):
            parse_moves("a b -1", tree("a b"))

    def test_duplicate_rejected(self):
        with pytest.raises(TreeFormatError, match="duplicate"):
            parse_vertex_map("a 1\na 2", tree("a b"))

    def test_non_integer_rejected(self):
        with pytest.raises(TreeFormatError, match="decimal"):
            parse_vertex_map("a x", tree("a b"))

    @pytest.mark.parametrize("raw", ["1_0", "+3", "\u0663", "-x", "3_0"])
    def test_only_ascii_digits_accepted(self, raw):
        # int() would read the first three as 10, 3 and 3; a move count is read the same way
        with pytest.raises(TreeFormatError, match="line 1: .* is not a decimal integer"):
            parse_vertex_map(f"a {raw}", tree("a b"))
        with pytest.raises(TreeFormatError, match=f"^line 1: '{re.escape(raw)}' is not a decimal integer$"):
            parse_moves(f"a b {raw}", tree("a b"))

    def test_negative_zero_rejected(self):
        with pytest.raises(TreeFormatError, match="negative"):
            parse_vertex_map("a -0", tree("a b"))

    def test_largest_int64_accepted(self):
        assert parse_vertex_map(f"a {2**63 - 1}\nb 007", tree("a b")) == {"a": 2**63 - 1, "b": 7}
        moves = parse_moves(f"a b {2**63 - 1}\nb a 007\na b 0", tree("a b"))
        assert moves == [("a", "b", 2**63 - 1), ("b", "a", 7), ("a", "b", 0)]

    def test_any_number_of_leading_zeros(self):
        # past 4300 digits int() refuses the string, so the zeros must go first
        zeros = "0" * 5000
        assert parse_vertex_map(f"a {zeros}\nb {zeros}5", tree("a b")) == {"a": 0, "b": 5}

    @pytest.mark.parametrize(
        "raw", [str(2**63), str(2**70), "9" * 5000, "0" * 30 + str(2**63), "0" * 5000 + str(2**63)]
    )
    def test_above_int64_overflows(self, raw):
        with pytest.raises(OverflowLimitError, match="line 2: count for vertex 'b' exceeds"):
            parse_vertex_map(f"a 1\nb {raw}", tree("a b"))
        with pytest.raises(OverflowLimitError, match="^line 2: move count exceeds the signed 64-bit"):
            parse_moves(f"a b\nb a {raw}", tree("a b"))


# every code point str.isspace() accepts; str.splitlines() also breaks lines at some
_SPACES = [ch for ch in map(chr, range(sys.maxunicode + 1)) if ch.isspace()]


def _document(lines: list[str], ch: str) -> str:
    """``lines`` with ``ch`` between tokens, or between lines where it breaks a line."""
    if len(f"a{ch}b".splitlines()) == 2:
        return ch.join(lines) + ch
    return "".join(line.replace(" ", ch) + "\n" for line in lines)


@pytest.mark.parametrize("ch", _SPACES, ids=lambda ch: f"U+{ord(ch):04X}")
class TestWhitespace:
    def test_name_with_whitespace_rejected(self, ch):
        with pytest.raises(TreeFormatError, match="contains whitespace"):
            Tree([(f"a{ch}b", "c")])

    def test_separates_tree_tokens(self, ch):
        assert parse_tree(_document(["a b", "b c"], ch)) == tree("a b;b c")

    def test_separates_vertex_map_tokens(self, ch):
        assert parse_vertex_map(_document(["a 1", "c 2"], ch), tree("a b;b c")) == {"a": 1, "c": 2}

    def test_separates_move_tokens(self, ch):
        moves = parse_moves(_document(["a b", "b c 2"], ch), tree("a b;b c"))
        assert moves == [("a", "b", 1), ("b", "c", 2)]

    @pytest.mark.parametrize(
        "lines,lineno",
        [
            (["a b", "", "# c", "a b 1 c", "a b 1 c"], 4),
            (["a b", "a b", "", "", "# c", "# c", "a b 1 c"], 7),
        ],
    )
    def test_move_runs_keep_line_numbers(self, ch, lines, lineno):
        # equal consecutive lines are checked once, as a run that starts at its first line
        with pytest.raises(TreeFormatError, match=f"^line {lineno}: expected 'from to'$"):
            parse_moves(_document(lines, ch), tree("a b;b c"))

    def test_runs_expand_to_each_line(self, ch):
        moves = parse_moves(_document(["a b", "a b", "", "", "b c", "b c", "b c"], ch), tree("a b;b c"))
        assert moves == [("a", "b", 2), ("b", "c", 3)]
        with pytest.raises(TreeFormatError, match="^line 4: duplicate entry for vertex 'a'$"):
            parse_vertex_map(_document(["", "", "a 1", "a 1"], ch), tree("a b"))
        with pytest.raises(TreeFormatError, match="^line 4: expected 'u v' or a bare"):
            parse_tree(_document(["a b", "", "", "b c d", "b c d"], ch))

    def test_indented_comment_skipped(self, ch):
        assert parse_tree(f"{ch}# x y z\na b\n") == tree("a b")


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 20), seed=st.integers(0, 10**6))
def test_serialize_parse_round_trip(n, seed):
    t = random_tree(n, seed)
    assert parse_tree(serialize_tree(t)) == t


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 9), seed=st.integers(0, 10**6))
def test_tree_metric(n, seed):
    t = random_tree(n, seed)
    names = t.names
    dist = {u: t.distances_from(u) for u in names}
    for u in names:
        for v in names:
            assert dist[u][v] == dist[v][u]
    # v lies on the u-w path exactly when distances add up
    for u in names:
        for v in names:
            for w in names:
                duw = dist[u][w]
                dsum = dist[u][v] + dist[v][w]
                assert duw <= dsum
                assert (dsum - duw) % 2 == 0


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 9), seed=st.integers(0, 10**6), data=st.data())
def test_minimal_subtree_properties(n, seed, data):
    t = random_tree(n, seed)
    v = data.draw(st.sampled_from(t.names))
    others = data.draw(st.lists(st.sampled_from(t.names), max_size=4))
    sub = t.minimal_subtree(v, others)
    assert v in sub.names
    assert all(u in sub.names for u in others)
    for leaf in sub.leaves():
        assert leaf == v or leaf in others
