import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treepebble import (
    CoverResult,
    Distribution,
    OverflowLimitError,
    Tree,
    WeightFunction,
    brute_solvable,
    cover_pebbling_number,
    extremal_distribution,
    is_solvable,
    random_tree,
    s_omega_at,
    t_pebbling_global,
    t_pebbling_number,
    TPebblingResult,
)
from helpers import (
    random_weights,
    reference_cover,
    reference_s_omega,
    reference_t_pebbling,
    tree,
)


class TestTPebblingNumber:
    def test_path_end(self):
        assert t_pebbling_number(tree("a b;b c"), "c", 1).value == 4

    def test_star_center(self):
        assert t_pebbling_number(tree("x c;y c;z c"), "c", 1).value == 4

    def test_star_leaf(self):
        result = t_pebbling_number(tree("x c;y c;z c"), "x", 1)
        assert result.value == 5
        assert result.partition.sizes == (2, 1)

    def test_path_end_two_pebbles(self):
        assert t_pebbling_number(tree("a b;b c"), "c", 2).value == 8

    def test_single_vertex_demands_k(self):
        t = Tree((), ("v",))
        result = t_pebbling_number(t, "v", 7)
        assert result.value == 7
        assert result.partition.sizes == ()

    def test_k_below_one_rejected(self):
        with pytest.raises(ValueError):
            t_pebbling_number(tree("a b"), "a", 0)


class TestTPebblingGlobal:
    def test_path(self):
        assert t_pebbling_global(tree("a b;b c"), 1) == (4, "a")

    def test_star(self):
        # leaves attain 5, the center only 4
        assert t_pebbling_global(tree("x c;y c;z c"), 1) == (5, "x")

    def test_single_vertex(self):
        assert t_pebbling_global(Tree((), ("v",)), 7) == (7, "v")


class TestSOmegaAt:
    def test_star_far_leaf(self):
        star = tree("a b;b c;b d")
        w = WeightFunction({"a": 1, "c": 1})
        assert s_omega_at(star, w, "d") == 8

    def test_star_supported_leaf(self):
        star = tree("a b;b c;b d")
        w = WeightFunction({"a": 1, "c": 1})
        assert s_omega_at(star, w, "a") == 6

    def test_star_center(self):
        star = tree("a b;b c;b d")
        w = WeightFunction({"a": 1, "c": 1})
        assert s_omega_at(star, w, "b") == 5

    def test_positive_demand_has_no_remainder(self):
        t = tree("a b;b c")
        w = WeightFunction({"a": 1, "b": 1, "c": 1})
        assert s_omega_at(t, w, "a") == 7

    def test_empty_support_rejected(self):
        with pytest.raises(ValueError, match="empty support"):
            s_omega_at(tree("a b"), WeightFunction({}), "a")


class TestCoverPebblingNumber:
    def test_star_two_leaf_demand(self):
        star = tree("a b;b c;b d")
        result = cover_pebbling_number(star, WeightFunction({"a": 1, "c": 1}))
        assert result.gamma == 8
        assert result.argmax_root == "d"
        assert result.per_vertex_s == {"a": 6, "b": 5, "c": 6, "d": 8}

    def test_uniform_path(self):
        result = cover_pebbling_number(tree("a b;b c"), WeightFunction({"a": 1, "b": 1, "c": 1}))
        assert result.gamma == 7
        assert result.argmax_root == "a"

    def test_zero_demand_is_degenerate(self):
        result = cover_pebbling_number(tree("a b"), WeightFunction({}))
        assert result.gamma == 0
        assert result.argmax_root is None
        assert result.per_vertex_s == {}

    def test_gamma_is_table_max(self):
        t = tree("a b;b c;c d;c e")
        result = cover_pebbling_number(t, WeightFunction({"b": 2, "e": 1}))
        assert result.gamma == max(result.per_vertex_s.values())
        assert result.per_vertex_s[result.argmax_root] == result.gamma


class TestExtremalDistribution:
    def test_star_concentrates_on_far_leaf(self):
        star = tree("a b;b c;b d")
        ex = extremal_distribution(star, WeightFunction({"a": 1, "c": 1}))
        assert dict(ex.items()) == {"d": 7}

    def test_path_single_demand(self):
        ex = extremal_distribution(tree("a b;b c"), WeightFunction({"c": 1}))
        assert dict(ex.items()) == {"a": 3}

    def test_star_center_demand_is_checked_not_guessed(self):
        star = tree("c x;c y;c z")
        w = WeightFunction({"c": 1})
        result = cover_pebbling_number(star, w)
        ex = extremal_distribution(star, w)
        assert ex.size == result.gamma - 1
        assert not is_solvable(star, ex, w).solvable
        assert not brute_solvable(star, ex, w)

    def test_empty_support_rejected(self):
        with pytest.raises(ValueError, match="empty support"):
            extremal_distribution(tree("a b"), WeightFunction({}))


class TestOverflowGuards:
    def test_deep_tree_overflows(self):
        names = [f"n{i:03d}" for i in range(65)]
        deep = Tree([(names[i], names[i + 1]) for i in range(64)])
        with pytest.raises(OverflowLimitError):
            t_pebbling_number(deep, names[0], 1)
        with pytest.raises(OverflowLimitError):
            cover_pebbling_number(deep, WeightFunction({names[0]: 1}))


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 8), seed=st.integers(0, 10**6), data=st.data())
def test_positive_demand_reduces_to_pure_distance_form(n, seed, data):
    t = random_tree(n, seed)
    w = WeightFunction(
        {v: data.draw(st.integers(1, 2)) for v in t.names}
    )
    for v in t.names:
        expected = sum(w[u] * 2 ** t.distance(u, v) for u in t.names)
        assert s_omega_at(t, w, v) == expected


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 8), seed=st.integers(0, 10**6), k=st.integers(1, 3), data=st.data())
def test_single_support_equals_t_pebbling(n, seed, k, data):
    t = random_tree(n, seed)
    v = data.draw(st.sampled_from(t.names))
    result = cover_pebbling_number(t, WeightFunction({v: k}))
    assert result.gamma == t_pebbling_number(t, v, k).value


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 7), seed=st.integers(0, 10**6), w_total=st.integers(1, 4))
def test_extremal_is_one_short_and_unsolvable(n, seed, w_total):
    rng = random.Random(seed)
    t = random_tree(n, seed)
    w = random_weights(t, w_total, rng)
    if not w.support:
        return
    gamma = cover_pebbling_number(t, w).gamma
    ex = extremal_distribution(t, w)
    assert ex.size == gamma - 1
    assert not is_solvable(t, ex, w).solvable


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 8), seed=st.integers(0, 10**6), w_total=st.integers(1, 4))
def test_gamma_invariant_under_renaming(n, seed, w_total):
    rng = random.Random(seed)
    t = random_tree(n, seed)
    w = random_weights(t, w_total, rng)
    relabel = {v: f"w{rng.randrange(10**9):09d}{i}" for i, v in enumerate(t.names)}
    t2 = Tree(
        [(relabel[u], relabel[v]) for u, v in t.edges],
        [relabel[v] for v in t.names],
    )
    w2 = WeightFunction({relabel[v]: k for v, k in w.items()})
    assert cover_pebbling_number(t, w).gamma == cover_pebbling_number(t2, w2).gamma


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 8), seed=st.integers(0, 10**6), w_total=st.integers(1, 3), data=st.data())
def test_gamma_monotone_in_demand(n, seed, w_total, data):
    rng = random.Random(seed)
    t = random_tree(n, seed)
    w = random_weights(t, w_total, rng)
    v = data.draw(st.sampled_from(t.names))
    bumped = WeightFunction({**dict(w.items()), v: w[v] + 1})
    assert cover_pebbling_number(t, bumped).gamma >= cover_pebbling_number(t, w).gamma


def _named(edges, n, rng):
    """Tree on vertices 0..n-1 with shuffled names, so name order hides the shape."""
    names = [f"u{x:03d}" for x in rng.sample(range(1000), n)]
    return Tree([(names[a], names[b]) for a, b in edges], names)


def _reference_instances():
    rng = random.Random(1903)
    for n in (9, 40, 256):
        yield random_tree(n, rng.randrange(2**32)), rng
    yield _named([(0, i) for i in range(1, 256)], 256, rng), rng
    spine = 48  # keeps the diameter, and so every 2^d, inside 64 bits
    legs = [(rng.randrange(spine), x) for x in range(spine, 256)]
    yield _named([(i, i + 1) for i in range(spine - 1)] + legs, 256, rng), rng


@pytest.mark.parametrize("case", range(5))
def test_matches_steiner_subtree_and_greedy_reference(case):
    t, rng = list(_reference_instances())[case]
    k = rng.randint(1, 3)
    for total in (1, 3, 7):
        w = random_weights(t, total, rng)
        gamma, root, table, extremal = reference_cover(t, w)
        assert cover_pebbling_number(t, w) == CoverResult(gamma, root, table)
        assert extremal_distribution(t, w) == extremal
    best = (-1, "")
    for v in t.names:
        value, part = reference_t_pebbling(t, v, k)
        assert t_pebbling_number(t, v, k) == TPebblingResult(value, part)
        best = max(best, (value, v), key=lambda pair: pair[0])
    assert t_pebbling_global(t, k) == best


def _outcome(fn, *args):
    try:
        return fn(*args)
    except OverflowLimitError as exc:
        return "OverflowLimitError", str(exc)


def test_overflow_matches_reference():
    names = [f"n{i:02d}" for i in range(70)]
    deep = Tree([(names[i], names[i + 1]) for i in range(69)])
    big = 2**62
    cases = [
        (deep, WeightFunction({names[0]: 1})),  # remainder path of 69 arcs
        (deep, WeightFunction({names[5]: 1, names[60]: 1})),  # demand at distance 64
        (tree("a b;b c"), WeightFunction({"a": big, "c": 1})),  # big demand doubled
        (tree("a b;b c"), WeightFunction({"a": big - 1, "b": big - 1})),  # sum of two terms
    ]
    for t, w in cases:
        for v in t.names:
            expected = _outcome(lambda: reference_s_omega(t, w, v)[0])
            assert _outcome(s_omega_at, t, w, v) == expected
        expected = _outcome(lambda: reference_cover(t, w)[0])
        assert _outcome(lambda: cover_pebbling_number(t, w).gamma) == expected
    for v in deep.names:
        expected = _outcome(lambda: reference_t_pebbling(deep, v, 1)[0])
        assert _outcome(lambda: t_pebbling_number(deep, v, 1).value) == expected
