import itertools
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treepebble import (
    OverflowLimitError,
    Tree,
    max_path_partition,
    partition_score,
    random_tree,
)
from treepebble.partition import long_paths, path_sizes
from helpers import all_shapes, greedy_partition, majorize_cmp, random_path_partition, tree


class TestMaxPathPartition:
    def test_star_toward_leaf(self):
        # both partitions of this forest are (2,1) and (1,1,1); (2,1) wins
        f = tree("x c;y c;z c").orient_toward(("x",))
        p = max_path_partition(f)
        assert p.sizes == (2, 1)
        assert p.paths == (("y", "c", "x"), ("z", "c"))

    def test_single_path(self):
        f = tree("a b;b c").orient_toward(("c",))
        assert max_path_partition(f).sizes == (2,)

    def test_empty_forest(self):
        t = tree("a b")
        assert max_path_partition(t.orient_toward(t.names)).sizes == ()

    def test_sizes_sum_to_arc_count(self):
        t = tree("a b;b c;c d;c e;b f;f g")
        f = t.orient_toward(("d",))
        p = max_path_partition(f)
        assert sum(p.sizes) == len(f.arcs)

    def test_tie_break_is_lexicographic(self):
        f = tree("x c;y c;z c").orient_toward(("c",))
        p = max_path_partition(f)
        assert p.paths[0] == ("x", "c")


class TestMajorizeCmp:
    def test_first_index_wins(self):
        assert majorize_cmp((3, 1, 1), (2, 2, 2)) == 1

    def test_equal(self):
        assert majorize_cmp((3, 1), (3, 1)) == 0

    def test_zero_padding(self):
        assert majorize_cmp((3,), (3, 1)) == -1

    def test_not_nonincreasing_rejected(self):
        with pytest.raises(ValueError, match="nonincreasing"):
            majorize_cmp((1, 2), (1, 1))


class TestPartitionScore:
    def test_single_path(self):
        assert partition_score((2,), 1) == 4

    def test_three_singletons(self):
        assert partition_score((1, 1, 1), 1) == 4

    def test_two_one(self):
        assert partition_score((2, 1), 1) == 5

    def test_single_path_is_power_of_two(self):
        for a in range(1, 20):
            assert partition_score((a,), 1) == 2**a

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            partition_score((), 1)

    def test_t_below_one_rejected(self):
        with pytest.raises(ValueError):
            partition_score((2,), 0)

    def test_overflow_reported(self):
        with pytest.raises(OverflowLimitError) as info:
            partition_score((63,), 1)
        assert str(info.value) == "partition score: 2^63 overflows a signed 64-bit integer"

    @pytest.mark.parametrize("sizes, t", [((62, 62), 1), ((1,), 2**62)])
    def test_partial_sum_past_int64_is_reported(self, sizes, t):
        # only the exact score is checked: (62, 62) passes 2^63 on its way to 2^63 - 1
        if sizes == (62, 62):
            assert partition_score(sizes, t) == 2**63 - 1
            return
        with pytest.raises(OverflowLimitError) as info:
            partition_score(sizes, t)
        assert str(info.value) == (
            "partition score 9223372036854775808 is outside the signed 64-bit range"
        )

    def test_largest_sum_in_range(self):
        # 2^62 + ... + 2^1 = 2^63 - 2, the largest sum of distinct positive sizes inside int64
        assert partition_score(tuple(range(62, 0, -1)), 1) == 2**63 - 63

    @pytest.mark.parametrize(
        "sizes, bad",
        [((2, 0), 0), ((True,), True), ((2.0,), 2.0), ((2, -1), -1), ((2, "1"), "1"), ((1, None), None)],
        ids=repr,
    )
    def test_sizes_must_be_positive_ints(self, sizes, bad):
        # checked before the order, so (2, "1") and (1, None) are named rather than compared
        with pytest.raises(ValueError) as info:
            partition_score(sizes, 1)
        assert str(info.value) == f"partition score size must be a positive int, got {bad!r}"

    @pytest.mark.parametrize("t", [1.5, 2.0, True, "2", None, 0, -1], ids=repr)
    def test_t_must_be_an_int_of_at_least_one(self, t):
        # unchecked, a float gives a float score: 7.0 for (2, 1) at t = 1.5
        message = (
            "pebble target t must be at least 1"
            if type(t) is int
            else f"pebble target t must be an int, got {t!r}"
        )
        with pytest.raises(ValueError) as info:
            partition_score((2, 1), t)
        assert str(info.value) == message


def _random_forest(n, seed):
    rng = random.Random(seed)
    t = random_tree(n, seed)
    root = rng.choice(t.names)
    return t.orient_toward((root,))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 10), seed=st.integers(0, 10**6))
def test_greedy_majorizes_random_partitions(n, seed):
    forest = _random_forest(n, seed)
    greedy = max_path_partition(forest)
    rng = random.Random(seed ^ 0xBEEF)
    for _ in range(25):
        other = random_path_partition(forest, rng)
        assert sum(other.sizes) == len(forest.arcs)
        assert majorize_cmp(greedy.sizes, other.sizes) >= 0


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 10), seed=st.integers(0, 10**6))
def test_size_sequence_invariant_under_tie_break(n, seed):
    forest = _random_forest(n, seed)
    sizes = max_path_partition(forest).sizes
    rng = random.Random(seed)
    for _ in range(5):
        assert greedy_partition(forest, rng).sizes == sizes


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 10), seed=st.integers(0, 10**6))
def test_path_count_lower_bound(n, seed):
    forest = _random_forest(n, seed)
    p = max_path_partition(forest)
    if p.sizes:
        assert len(p.sizes) >= len(forest.arcs) / p.sizes[0]


def _relabelings(t, rng, count):
    """``count`` copies of ``t`` under random names, so name order differs from shape order."""
    for _ in range(count):
        names = rng.sample(range(10**6), t.n)
        rename = {v: f"r{x:06d}" for v, x in zip(t.names, names)}
        yield Tree([(rename[u], rename[v]) for u, v in t.edges], rename.values())


def test_matches_greedy_on_all_small_trees():
    # the root alone, and the Steiner subtree of the root and a random support
    rng = random.Random(2019)
    shapes = all_shapes(8)
    assert len(shapes) == 1 + 1 + 1 + 2 + 3 + 6 + 11 + 23
    checked = 0
    for base in shapes:
        for t in _relabelings(base, rng, 3):
            for root in t.names:
                support = rng.sample(t.names, rng.randint(1, t.n))
                for sink in ((root,), t.minimal_subtree(root, support).names):
                    forest = t.orient_toward(sink)
                    assert max_path_partition(forest) == greedy_partition(forest)
                    checked += 1
    assert checked == 2 * 3 * sum(t.n for t in shapes)


def test_matches_greedy_on_hand_built_forest():
    # two sinks, a and e, on a..f: d points away from the long chain f -> c -> b -> a
    out = [-1, 0, 1, 4, -1, 2]
    paths = long_paths(out, [3, 5, 2, 1, 0, 4])
    assert paths == [[5, 2, 1, 0], [3, 4]]
    named = tuple(tuple("abcdef"[i] for i in p) for p in paths)
    arcs = tuple(("abcdef"[x], "abcdef"[p]) for x, p in enumerate(out) if p >= 0)
    assert greedy_partition(SimpleNamespace(arcs=arcs)).paths == named


def test_path_sizes_match_long_paths():
    # every root of every shape up to 9 vertices, every connected sink set of every shape up to 7,
    # the hand-built two-sink forest above, and seeded trees of 500 and 2,000 vertices
    forests = [t._rooting(v)[::-1] for t in all_shapes(9) for v in range(t.n)]
    for t in all_shapes(7):
        for r in range(1, t.n + 1):
            for sink in itertools.combinations(t.names, r):
                try:
                    f = t.orient_toward(sink)
                except ValueError:  # not connected
                    continue
                forests.append((f._out, f._order))
    forests.append(([-1, 0, 1, 4, -1, 2], [3, 5, 2, 1, 0, 4]))
    for n in (500, 2000):
        t = random_tree(n, n)
        forests += [t._rooting(v)[::-1] for v in random.Random(n).sample(range(n), 5)]
    for out, order in forests:
        assert path_sizes(out, order) == [len(p) - 1 for p in long_paths(out, order)]
    assert len(forests) == 749 + 714 + 1 + 10
