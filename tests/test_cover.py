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
    max_path_partition,
    random_tree,
    s_omega_at,
    simulate,
    solve_witness,
    t_pebbling_global,
    t_pebbling_number,
    TPebblingResult,
    UnknownVertexError,
)
from treepebble.checked import INT64_MAX
from treepebble.cover import _all_scores, _extremal_at
from helpers import (
    all_shapes,
    random_weights,
    reference_cover,
    reference_s_omega,
    reference_t_pebbling,
    tree,
    weight_function_bound,
)


class TestTPebblingNumber:
    def test_path_end(self):
        assert t_pebbling_number(tree("a b;b c"), "c", 1).value == 4

    def test_star_center(self):
        assert t_pebbling_number(tree("x c;y c;z c"), "c", 1).value == 4

    def test_star_leaf(self):
        result = t_pebbling_number(tree("x c;y c;z c"), "x", 1)
        assert result.value == 5
        assert result.sizes == (2, 1)

    def test_path_end_two_pebbles(self):
        assert t_pebbling_number(tree("a b;b c"), "c", 2).value == 8

    def test_single_vertex_demands_k(self):
        t = Tree((), ("v",))
        result = t_pebbling_number(t, "v", 7)
        assert result.value == 7
        assert result.sizes == ()

    def test_k_below_one_rejected(self):
        with pytest.raises(ValueError):
            t_pebbling_number(tree("a b"), "a", 0)

    @pytest.mark.parametrize("k", [1.5, 2.0, True, "2", None, 0, -1], ids=repr)
    def test_k_must_be_an_int_of_at_least_one(self, k):
        # unchecked, a float prices a fractional target: 6.0 for k = 1.5 at a on a-b-c
        t = tree("a b;b c")
        message = (
            "pebble target k must be at least 1"
            if type(k) is int
            else f"pebble target k must be an int, got {k!r}"
        )
        for score in (lambda: t_pebbling_number(t, "a", k), lambda: t_pebbling_global(t, k)):
            with pytest.raises(ValueError) as info:
                score()
            assert str(info.value) == message

    def test_single_vertex_k_is_checked(self):
        t = Tree((), ("v",))
        assert t_pebbling_number(t, "v", INT64_MAX).value == INT64_MAX
        assert t_pebbling_global(t, INT64_MAX) == (INT64_MAX, "v")
        message = "^partition score 100000000000000000000 is outside the signed 64-bit range$"
        with pytest.raises(OverflowLimitError, match=message):
            t_pebbling_number(t, "v", 10**20)
        with pytest.raises(OverflowLimitError, match=message):
            t_pebbling_global(t, 10**20)


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

    def test_unknown_demand_vertex_names_the_smallest(self):
        with pytest.raises(UnknownVertexError, match="^unknown vertex 'y'$"):
            cover_pebbling_number(tree("a b"), WeightFunction({"z": 1, "a": 1, "y": 1}))

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

    def test_deep_tree_overflow_messages(self):
        # rooted at n000 the partition is one path of 64 arcs; the global scan raises at n000 first
        names = [f"n{i:03d}" for i in range(65)]
        deep = Tree([(names[i], names[i + 1]) for i in range(64)])
        message = "^partition score: 2\\^64 overflows a signed 64-bit integer$"
        with pytest.raises(OverflowLimitError, match=message):
            t_pebbling_number(deep, names[0], 1)
        with pytest.raises(OverflowLimitError, match=message):
            t_pebbling_global(deep, 1)

    def test_unknown_root(self):
        with pytest.raises(UnknownVertexError, match="^unknown vertex 'zz'$"):
            t_pebbling_number(tree("a b"), "zz", 1)


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 8), seed=st.integers(0, 10**6), data=st.data())
def test_positive_demand_reduces_to_pure_distance_form(n, seed, data):
    t = random_tree(n, seed)
    w = WeightFunction(
        {v: data.draw(st.integers(1, 2)) for v in t.names}
    )
    for v in t.names:
        dist = t.distances_from(v)
        expected = sum(w[u] * 2 ** dist[u] for u in t.names)
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
    names = [f"u{x:03d}" for x in rng.sample(range(max(n, 1000)), n)]
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
        assert t_pebbling_number(t, v, k) == TPebblingResult(value, part.sizes)
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


def _per_root(t, w):
    """``s_omega_at`` of each root in name order, None where it raises OverflowLimitError."""
    scores = []
    for v in t.names:
        try:
            scores.append(s_omega_at(t, w, v))
        except OverflowLimitError:
            scores.append(None)
    return scores


def _cover_from(t, w, scores):
    """What one ``s_omega_at`` per root in name order gives: the result, or the first raise."""
    if None in scores:
        return _outcome(s_omega_at, t, w, t.names[scores.index(None)])
    gamma = max(scores)
    return CoverResult(gamma, t.names[scores.index(gamma)], dict(zip(t.names, scores)))


def _families(n, rng):
    """A random recursive tree, a star, a caterpillar and a spider on ``n`` shuffled names.

    Spine and legs stay short enough that small demands score inside 64 bits.
    """
    yield _named([(rng.randrange(x), x) for x in range(1, n)], n, rng)
    yield _named([(0, x) for x in range(1, n)], n, rng)
    spine = min(n // 3 + 1, 40)
    legs = [(rng.randrange(spine), x) for x in range(spine, n)]
    yield _named([(i, i + 1) for i in range(spine - 1)] + legs, n, rng)
    edges, x = [], 1
    while x < n:
        prev = 0
        for _ in range(rng.randint(1, 25)):
            if x < n:
                edges.append((prev, x))
                prev, x = x, x + 1
    yield _named(edges, n, rng)


def _demands(t, rng):
    yield random_weights(t, rng.randint(1, 4), rng)
    yield WeightFunction({v: rng.randint(1, 3) for v in rng.sample(t.names, min(t.n, 12))})
    # entries near 2^62: sums of terms leave int64 at some roots
    yield WeightFunction(
        {v: 2 ** rng.randint(56, 62) + rng.randint(-3, 3) for v in rng.sample(t.names, min(t.n, 3))}
    )


def _spider(*legs):
    """Legs ``(letter, edges)`` from the centre o; leg g's vertices are g01, g02, ... outward."""
    return Tree(
        [(f"{g}{i - 1:02d}" if i > 1 else "o", f"{g}{i:02d}") for g, m in legs for i in range(1, m + 1)]
    )


class TestAllRootsScoring:
    """The one-rooting score table against one ``s_omega_at`` per root."""

    def test_matches_per_root_scores_and_reference(self):
        rng = random.Random(1906)
        cases = [(t, w) for t in all_shapes(8) for w in _demands(t, rng)]
        for n in (16, 100, 400, 1000):
            for t in _families(n, rng):
                cases += [(t, w) for w in _demands(t, rng)][: 3 if n < 1000 else 1]
        # a 70-vertex spine: roots near one end keep a demand or a remainder path past 2^63
        legs = [(rng.randrange(70), x) for x in range(70, 300)]
        deep = _named([(i, i + 1) for i in range(69)] + legs, 300, rng)
        cases += [(deep, random_weights(deep, k, rng)) for k in (1, 2, 5)]
        outcomes = {"equal": 0, "both raise": 0}
        for t, w in cases:
            scores = _per_root(t, w)
            assert _all_scores(t, w) == scores  # None exactly where s_omega_at raises
            expected = _cover_from(t, w, scores)
            assert _outcome(cover_pebbling_number, t, w) == expected
            if isinstance(expected, CoverResult):
                assert expected.gamma <= INT64_MAX
                outcomes["equal"] += 1
            else:
                assert _outcome(extremal_distribution, t, w) == expected
                outcomes["both raise"] += 1
            if t.n > 100:
                continue  # the Steiner-subtree and greedy model is cubic
            try:
                gamma, root, table, extremal = reference_cover(t, w)
            except OverflowLimitError as exc:
                assert expected == ("OverflowLimitError", str(exc))
            else:
                assert expected == CoverResult(gamma, root, table)
                assert extremal_distribution(t, w) == extremal
        assert min(outcomes.values()) > 0, outcomes

    @pytest.mark.parametrize("n", [60, 62, 63, 64, 65, 70])
    def test_deep_path_overflow_matches_per_root_scores(self, n):
        # demands 62-64 edges apart and remainder paths of 62-69 arcs, at both ends
        rng = random.Random(n)
        names = [f"n{i:02d}" for i in range(n)]
        ordered = Tree(list(zip(names, names[1:])))
        shuffled = _named([(i, i + 1) for i in range(n - 1)], n, rng)
        for t in (ordered, shuffled):
            path = sorted(t.names, key=t.distances_from(min(t.leaves())).__getitem__)
            for picks in ((0,), (n - 1,), (0, n - 1), (1, n - 2), (n // 2,), (0, n // 2)):
                for k in (1, 2**40):
                    # unequal entries, so a sum of 2^63 * omega can wrap to a small D
                    w = WeightFunction({path[i]: k * (j + 1) for j, i in enumerate(picks)})
                    scores = _per_root(t, w)
                    assert _all_scores(t, w) == scores
                    expected = _cover_from(t, w, scores)
                    assert _outcome(cover_pebbling_number, t, w) == expected
                    assert _outcome(lambda: CoverResult(*reference_cover(t, w)[:3])) == expected

    def test_farthest_demand_through_a_sibling(self):
        # rooted at a02, the name-smallest demand, o's c leg holds the farthest demand and
        # its b leg the runner-up; each leg finds the other's demand 31 to 70 edges away
        t = _spider(("a", 2), ("b", 30), ("c", 40))
        for w in ({"a02": 1, "b30": 1, "c40": 2}, {"a02": 2, "b30": 1, "c40": 1}):
            w = WeightFunction(w)
            assert _all_scores(t, w) == _per_root(t, w)

    @pytest.mark.parametrize("case", ["random", "path-63", "spider"])
    def test_roots_the_tree_once(self, monkeypatch, case):
        # no root overflows, so none is re-scored; the last two keep demands 62 edges apart
        rng = random.Random(12)
        if case == "random":
            t = next(_families(300, rng))
            w = random_weights(t, 6, rng)
        elif case == "path-63":
            t = _named([(i, i + 1) for i in range(62)], 63, rng)
            w = WeightFunction({v: 1 for v in t.names})
        else:
            t = _spider(("a", 31), ("b", 31), ("c", 20))
            w = WeightFunction({"a31": 1, "b31": 1})
        roots = []
        rooting = Tree._rooting
        monkeypatch.setattr(Tree, "_rooting", lambda self, r: roots.append(r) or rooting(self, r))
        cover_pebbling_number(t, w)
        assert len(roots) == 1
        roots.clear()
        extremal_distribution(t, w)
        assert len(roots) <= 2


@pytest.mark.parametrize("n", [50, 300, 1000])
def test_single_support_equals_t_pebbling_at_scale(n):
    rng = random.Random(n)
    for t in _families(n, rng):
        for v in rng.sample(t.names, 3):
            k = rng.randint(1, 3)
            assert cover_pebbling_number(t, WeightFunction({v: k})).gamma == (
                t_pebbling_number(t, v, k).value
            )


def test_one_rooting_matches_the_named_partition_and_the_cover_engine():
    # t_pebbling_number scores long_paths over one index rooting; on every root of every shape up
    # to 8 vertices its sizes are max_path_partition's, and its value the one-vertex cover number
    checked = 0
    for t in all_shapes(8):
        for v in t.names:
            sizes = max_path_partition(t.orient_toward((v,))).sizes
            for k in (1, 2, 3, 7):
                result = t_pebbling_number(t, v, k)
                assert result.sizes == sizes
                assert result.value == cover_pebbling_number(t, WeightFunction({v: k})).gamma
                checked += 1
    assert checked == 1304


@pytest.mark.parametrize("n", [100, 700, 2000])
def test_positive_demand_everywhere_is_the_distance_sum(n):
    # with every vertex demanded there is no remainder: s(v) = sum of omega(u) * 2^d(u, v)
    rng = random.Random(n)
    t = next(_families(n, rng))
    w = WeightFunction({v: rng.randint(1, 3) for v in t.names})
    table = {v: sum(w[u] << d for u, d in t.distances_from(v).items()) for v in t.names}
    gamma = max(table.values())
    result = cover_pebbling_number(t, w)
    assert result == CoverResult(gamma, next(v for v in t.names if table[v] == gamma), table)


@pytest.mark.parametrize("m", [1, 2, 5, 100, 9999])
def test_star_positive_demand_closed_form(m):
    # centre c: omega(c) + 2 L; leaf x: omega(x) + 2 omega(c) + 4 (L - omega(x)), L the leaf total
    rng = random.Random(m)
    leaves = [f"l{i:04d}" for i in range(m)]
    star = Tree([("c", x) for x in leaves])
    w = WeightFunction({"c": rng.randint(1, 5), **{x: rng.randint(1, 5) for x in leaves}})
    total = w.total - w["c"]
    table = {"c": w["c"] + 2 * total, **{x: 2 * w["c"] + 4 * total - 3 * w[x] for x in leaves}}
    result = cover_pebbling_number(star, w)
    assert result.per_vertex_s == table
    lightest = min(w[x] for x in leaves)
    assert result.gamma == max(w["c"] + 2 * total, 2 * w["c"] + 4 * total - 3 * lightest)


@pytest.mark.parametrize("n", [1, 2, 3, 40, 62, 63])
def test_path_positive_demand_closed_form(n):
    # vertex i of an n-path with unit demand everywhere scores 2^(i+1) + 2^(n-i) - 3
    names = [f"p{i:05d}" for i in range(n)]
    path = Tree(list(zip(names, names[1:])), names)
    result = cover_pebbling_number(path, WeightFunction({v: 1 for v in names}))
    assert result.per_vertex_s == {v: 2 ** (i + 1) + 2 ** (n - i) - 3 for i, v in enumerate(names)}
    assert (result.gamma, result.argmax_root) == (2**n - 1, names[0])  # 2^63 - 1 at n = 63


@pytest.mark.parametrize("n", [64, 70, 10**4])
def test_long_path_positive_demand_overflows(n):
    # the first root is an end: its farthest demand, n - 1 edges away, is the 2^d past int64
    names = [f"p{i:05d}" for i in range(n)]
    path = Tree(list(zip(names, names[1:])))
    w = WeightFunction({v: 1 for v in names})
    message = f"^demand term: 2\\^{n - 1} overflows a signed 64-bit integer$"
    with pytest.raises(OverflowLimitError, match=message):
        cover_pebbling_number(path, w)
    with pytest.raises(OverflowLimitError, match=message):
        extremal_distribution(path, w)


# Certificates past the oracle's reach, on seeded random trees. The
# unsolvable side rests on the collapse (is_solvable), which acceptance
# criterion 3 checks against the oracle.


def _certificate_instances(low, high, seed):
    rng = random.Random(seed)
    for _ in range(60):
        t = random_tree(rng.randint(low, high), rng.randrange(2**32))
        yield t, random_weights(t, rng.randint(1, 6), rng)


def test_extremal_lower_bound_at_every_root():
    # at each root v, the extremal distribution has s(v) - 1 pebbles and cannot meet the demand
    for t, w in _certificate_instances(10, 200, 5):
        table = cover_pebbling_number(t, w).per_vertex_s
        for v in t.names:
            d = _extremal_at(t, w, v)
            assert d.size == table[v] - 1
            assert not is_solvable(t, d, w).solvable, (t.edges, dict(w.items()), v)


def test_extremal_plus_one_pebble_is_solvable():
    # gamma is tight: one more pebble anywhere on the argmax extremal distribution meets the
    # demand, and the witness moves replay to dominate it (replayed only up to 2^14 pebbles)
    for t, w in _certificate_instances(5, 30, 6):
        result = cover_pebbling_number(t, w)
        extremal = _extremal_at(t, w, result.argmax_root)
        for v in t.names:
            d = Distribution(extremal.items() + ((v, 1),))
            cert = is_solvable(t, d, w)
            assert cert.solvable, (t.edges, dict(w.items()), v)
            if result.gamma <= 2**14:
                moves = solve_witness(t, d, w, cert.witness_root)
                assert simulate(t, d, moves).dominates(w)


def _certificate_families(n, rng):
    """A random recursive tree, a caterpillar on a spine of 40, a spider with legs of 1-40
    and a complete binary tree, on ``n`` shuffled names."""
    yield _named([(rng.randrange(x), x) for x in range(1, n)], n, rng)
    yield _named([(x - 1 if x < 40 else rng.randrange(40), x) for x in range(1, n)], n, rng)
    edges, x = [], 1
    while x < n:
        prev = 0
        for _ in range(rng.randint(1, 40)):
            if x < n:
                edges.append((prev, x))
                prev, x = x, x + 1
    yield _named(edges, n, rng)
    yield _named([((x - 1) // 2, x) for x in range(1, n)], n, rng)


def test_weight_function_certificates_past_the_oracle():
    # f_1(T, r) from both sides at 10^3-10^4 vertices: the weight function lemma bounds every
    # unsolvable distribution by the strategy's total, and the extremal one has that size and
    # is unsolvable; a root of height 62 or more scores past 64 bits and is skipped
    rng = random.Random(2017)
    checked = 0
    for n in (1000, 3000, 10**4):
        for t in _certificate_families(n, rng):
            for r in rng.sample(t.names, 3):
                if max(t.distances_from(r).values()) >= 62:
                    continue
                total = weight_function_bound(t, r)
                w = WeightFunction({r: 1})
                assert t_pebbling_number(t, r, 1).value == total + 1, (n, r)
                d = extremal_distribution(t, w)
                assert d.size == total, (n, r)
                assert not is_solvable(t, d, w).solvable, (n, r)
                checked += 1
    assert checked >= 30
