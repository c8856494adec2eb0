import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treepebble import (
    DirectedForest,
    Distribution,
    OverflowLimitError,
    Tree,
    TreeFormatError,
    UnknownVertexError,
    WeightFunction,
    parse_tree,
    parse_vertex_map,
    random_tree,
    serialize_tree,
)
from helpers import tree


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
        assert tree("a b;b c").distance("a", "c") == 2

    def test_identity(self):
        assert tree("a b;b c").distance("a", "a") == 0

    def test_star_through_center(self):
        assert tree("x c;y c;z c").distance("x", "y") == 2

    def test_symmetric(self):
        t = tree("a b;b c;c d")
        assert t.distance("a", "d") == t.distance("d", "a") == 3

    def test_unknown_vertex(self):
        with pytest.raises(UnknownVertexError):
            tree("a b").distance("a", "zz")


class TestLeaves:
    def test_path(self):
        assert tree("a b;b c").leaves() == ("a", "c")

    def test_star(self):
        assert tree("x c;y c;z c").leaves() == ("x", "y", "z")

    def test_single_vertex(self):
        assert parse_tree("v").leaves() == ("v",)


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


class TestOrientToward:
    def test_star_partial_sink(self):
        star = tree("a b;b c;b d")
        f = star.orient_toward(star.minimal_subtree("a", ["c"]))
        assert f.arcs == (("d", "b"),)

    def test_path_to_endpoint(self):
        f = tree("a b;b c").orient_toward(("c",))
        assert f.arcs == (("a", "b"), ("b", "c"))

    def test_whole_tree_sink_is_empty_forest(self):
        t = tree("a b;b c")
        f = t.orient_toward(t)
        assert f.arcs == ()

    def test_arc_count_matches_sink_complement(self):
        t = tree("a b;b c;c d;c e")
        sink = t.minimal_subtree("b", ["c"])
        f = t.orient_toward(sink)
        assert len(f.arcs) == len(t.edges) - len(sink.edges)

    def test_disconnected_sink_rejected(self):
        with pytest.raises(ValueError, match="connected"):
            tree("a b;b c").orient_toward(("a", "c"))

    def test_empty_sink_rejected(self):
        with pytest.raises(ValueError):
            tree("a b").orient_toward(())

    def test_foreign_subtree_rejected(self):
        with pytest.raises(ValueError, match="not an edge"):
            tree("a b;b c").orient_toward(tree("a c"))

    def test_unknown_sink_vertex(self):
        with pytest.raises(UnknownVertexError):
            tree("a b").orient_toward(("zz",))


class TestDirectedForest:
    def test_two_outgoing_arcs_rejected(self):
        t = tree("a b;a c")
        with pytest.raises(ValueError, match="two outgoing"):
            DirectedForest(t, [("a", "b"), ("a", "c")], ["b", "c"])

    def test_non_edge_arc_rejected(self):
        t = tree("a b;b c")
        with pytest.raises(ValueError, match="not over an edge"):
            DirectedForest(t, [("a", "c")], ["c"])

    def test_chain_must_reach_sinks(self):
        t = tree("a b;b c")
        with pytest.raises(ValueError, match="dead-ends"):
            DirectedForest(t, [("a", "b")], ["c"])

    def test_directed_cycle_rejected(self):
        t = tree("a b;b c")
        with pytest.raises(ValueError, match="directed cycle"):
            DirectedForest(t, [("a", "b"), ("b", "a")], ["c"])

    def test_sink_with_outgoing_arc_rejected(self):
        t = tree("a b;b c")
        with pytest.raises(ValueError, match="sink vertex 'b' has an outgoing arc"):
            DirectedForest(t, [("a", "b"), ("b", "c")], ["b", "c"])

    def test_out_neighbor(self):
        f = tree("a b;b c").orient_toward(("c",))
        assert f.out_neighbor("a") == "b"
        assert f.out_neighbor("c") is None


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

    def test_dominates(self):
        d = Distribution({"a": 2, "c": 1})
        assert d.dominates(WeightFunction({"a": 1, "c": 1}))
        assert not d.dominates(WeightFunction({"a": 3}))
        assert d.dominates(WeightFunction({}))

    def test_size(self):
        assert Distribution({"a": 2, "b": 3}).size == 5


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

    def test_duplicate_rejected(self):
        with pytest.raises(TreeFormatError, match="duplicate"):
            parse_vertex_map("a 1\na 2", tree("a b"))

    def test_non_integer_rejected(self):
        with pytest.raises(TreeFormatError, match="decimal"):
            parse_vertex_map("a x", tree("a b"))

    @pytest.mark.parametrize("raw", ["1_0", "+3", "\u0663", "-x"])
    def test_only_ascii_digits_accepted(self, raw):
        # int() would read the first three as 10, 3 and 3
        with pytest.raises(TreeFormatError, match="line 1: .* is not a decimal integer"):
            parse_vertex_map(f"a {raw}", tree("a b"))

    def test_negative_zero_rejected(self):
        with pytest.raises(TreeFormatError, match="negative"):
            parse_vertex_map("a -0", tree("a b"))

    def test_largest_int64_accepted(self):
        assert parse_vertex_map(f"a {2**63 - 1}\nb 007", tree("a b")) == {"a": 2**63 - 1, "b": 7}

    @pytest.mark.parametrize("raw", [str(2**63), str(2**70), "9" * 5000, "0" * 30 + str(2**63)])
    def test_above_int64_overflows(self, raw):
        with pytest.raises(OverflowLimitError, match="line 2: count for vertex 'b' exceeds"):
            parse_vertex_map(f"a 1\nb {raw}", tree("a b"))


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
    for u in names:
        row = t.distances_from(u)
        for v in names:
            assert row[v] == t.distance(v, u)
    # v lies on the u-w path exactly when distances add up
    for u in names:
        for v in names:
            for w in names:
                duw = t.distance(u, w)
                dsum = t.distance(u, v) + t.distance(v, w)
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
