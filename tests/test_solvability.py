import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treepebble import (
    Distribution,
    IllegalMoveError,
    NotSolvableError,
    OverflowLimitError,
    PebblingMove,
    Tree,
    TreeFormatError,
    UnknownVertexError,
    WeightFunction,
    brute_solvable,
    hat_c,
    is_solvable,
    parse_moves,
    random_tree,
    serialize_moves,
    simulate,
    solve_witness,
)
from treepebble.checked import INT64_MAX, INT64_MIN
from helpers import (
    GeneralizedDistribution,
    all_shapes,
    compositions,
    fold_hat_random_order,
    neighbors,
    random_distribution,
    random_weights,
    reduce_leaf,
    reference_witness,
    simulate_each,
    tree,
    weight_functions,
)


class TestReduceLeaf:
    def test_surplus_fold(self):
        t = tree("a b;b c")
        c = GeneralizedDistribution({"a": 4, "b": 0, "c": -1})
        smaller, folded = reduce_leaf(c, t, "a")
        assert smaller.names == ("b", "c")
        assert dict(folded.values) == {"b": 2, "c": -1}

    def test_chain_to_single_vertex(self):
        t = tree("b c")
        smaller, folded = reduce_leaf(GeneralizedDistribution({"b": 2, "c": -1}), t, "b")
        assert smaller.names == ("c",)
        assert dict(folded.values) == {"c": 0}

    def test_deficit_doubles(self):
        t = tree("a b")
        smaller, folded = reduce_leaf(GeneralizedDistribution({"a": 1, "b": -1}), t, "b")
        assert smaller.names == ("a",)
        assert dict(folded.values) == {"a": -1}

    def test_not_a_leaf_rejected(self):
        t = tree("a b;b c")
        with pytest.raises(ValueError, match="not a leaf"):
            reduce_leaf(GeneralizedDistribution({"a": 0, "b": 0, "c": 0}), t, "b")

    def test_single_vertex_rejected(self):
        t = tree("v")
        with pytest.raises(ValueError, match="single-vertex"):
            reduce_leaf(GeneralizedDistribution({"v": 0}), t, "v")

    def test_wrong_vertex_set_rejected(self):
        t = tree("a b")
        with pytest.raises(ValueError, match="vertex set"):
            reduce_leaf(GeneralizedDistribution({"a": 0}), t, "a")


class TestHatC:
    def test_chain_collapse(self):
        t = tree("a b;b c")
        assert hat_c(t, Distribution({"a": 4}), WeightFunction({"c": 1}), "c") == 0

    def test_two_vertex_deficit(self):
        t = tree("a b")
        assert hat_c(t, Distribution({"a": 1}), WeightFunction({"b": 1}), "b") == -1

    def test_single_vertex_no_reduction(self):
        t = tree("v")
        assert hat_c(t, Distribution({"v": 3}), WeightFunction({"v": 1}), "v") == 2

    def test_matches_explicit_reduce_leaf_chain(self):
        t = tree("a b;b c")
        c0 = GeneralizedDistribution.from_difference(
            t, Distribution({"a": 4}), WeightFunction({"c": 1})
        )
        t1, c1 = reduce_leaf(c0, t, "a")
        t2, c2 = reduce_leaf(c1, t1, "b")
        assert c2["c"] == hat_c(t, Distribution({"a": 4}), WeightFunction({"c": 1}), "c")

    @pytest.mark.parametrize(
        "dist,weights,bad",
        [
            ({"b": 2**63}, {}, 2**63),
            ({"c": 2**63}, {"a": 2**63 + 5}, -(2**63 + 5)),  # name order: a before c
            ({"a": 2**63 + 1}, {"a": 2}, None),  # counts beyond 2^63 that cancel
        ],
    )
    def test_initial_value_outside_int64(self, dist, weights, bad):
        t = tree("a b;b c")
        d, w = Distribution(dist), WeightFunction(weights)
        if bad is None:
            assert hat_c(t, d, w, "a") == 2**63 - 1
            return
        message = f"initial value {bad} is outside the signed 64-bit range"
        with pytest.raises(OverflowLimitError) as exc:
            hat_c(t, d, w, "b")
        assert str(exc.value) == message
        with pytest.raises(OverflowLimitError) as exc:
            is_solvable(t, d, w)
        assert str(exc.value) == message


class TestIsSolvable:
    def test_solvable_path(self):
        t = tree("a b;b c")
        cert = is_solvable(t, Distribution({"a": 4}), WeightFunction({"c": 1}))
        assert cert.solvable
        assert cert.hat_values["c"] == 0
        # every root collapses to 0 here, so the name-smallest one wins
        assert cert.witness_root == "a"

    def test_unsolvable_single_pebble(self):
        t = tree("a b")
        cert = is_solvable(t, Distribution({"a": 1}), WeightFunction({"b": 1}))
        assert not cert.solvable
        assert cert.witness_root is None
        assert cert.hat_values == {"a": -1, "b": -1}

    def test_distribution_equal_to_demand_is_solvable(self):
        cases = [
            (t, w)
            for t in all_shapes(6)
            for w in itertools.islice(weight_functions(t), 12)
        ]
        rng = random.Random(5)
        for _ in range(60):
            t = random_tree(rng.randint(7, 8), rng.randrange(2**32))
            cases.append((t, random_weights(t, rng.randint(1, 6), rng)))
        for t, w in cases:
            d = Distribution(dict(w.items()))
            cert = is_solvable(t, d, w)
            assert cert.solvable
            assert all(v >= 0 for v in cert.hat_values.values())

    def test_certificate_consistency(self):
        t = tree("a b;b c;c d")
        cert = is_solvable(t, Distribution({"d": 5}), WeightFunction({"a": 1}))
        assert cert.solvable == any(v >= 0 for v in cert.hat_values.values())
        if cert.solvable:
            assert cert.hat_values[cert.witness_root] >= 0

    def test_matches_hat_c_at_every_root(self):
        # one rerooted collapse against one hat_c per root, with entries near 2^62
        rng = random.Random(2019)
        trees = [t for t in all_shapes(8) for _ in range(4)]
        for n in (16, 64, 256):
            trees += [random_tree(n, rng.randrange(2**32)) for _ in range(3)]
            trees += [_star(n), _caterpillar(n, rng)]
        outcomes = {"equal": 0, "both raise": 0}
        for t in trees:
            for big in (False, True):
                d, w = _signed_instance(t, rng, big)
                hats: dict[str, int] = {}
                for root in t.names:
                    try:
                        hats[root] = hat_c(t, d, w, root)
                    except OverflowLimitError:
                        pass
                try:
                    cert = is_solvable(t, d, w)
                except OverflowLimitError:
                    assert len(hats) < t.n
                    outcomes["both raise"] += 1
                    continue
                assert len(hats) == t.n
                assert all(INT64_MIN <= v <= INT64_MAX for v in cert.hat_values.values())
                assert cert.hat_values == hats
                witness = next((r for r in t.names if hats[r] >= 0), None)
                assert (cert.solvable, cert.witness_root) == (witness is not None, witness)
                outcomes["equal"] += 1
        assert min(outcomes.values()) > 0, outcomes

    def test_partial_sum_overflow_is_not_raised(self):
        # at m the deficits of a and b come first: their sum leaves int64, the total does not
        t = tree("m a;m b;m x;m y")
        d = Distribution({"x": 2**63 - 1, "y": 2**63 - 1})
        w = WeightFunction({"a": 2**61 + 2**59, "b": 2**61 + 2**59})
        # the fold order is a, b, x, y: a and b leave m at -2^63 - 2^61 before x and y add back
        cert = is_solvable(t, d, w)
        assert hat_c(t, d, w, "m") == cert.hat_values["m"] == -(2**61) - 2
        with pytest.raises(NotSolvableError):
            solve_witness(t, d, w, "m")
        assert cert.hat_values["a"] == hat_c(t, d, w, "a") == -(2**60) - 1
        assert not cert.solvable

    def test_roots_the_tree_once(self, monkeypatch):
        t = random_tree(50, 11)
        rng = random.Random(11)
        d, w = random_distribution(t, 60, rng), random_weights(t, 8, rng)
        roots = []
        rooting = Tree._rooting
        monkeypatch.setattr(Tree, "_rooting", lambda self, r: roots.append(r) or rooting(self, r))
        is_solvable(t, d, w)
        assert len(roots) == 1


def _star(n):
    return Tree([("c", f"l{i:03d}") for i in range(1, n)])


def _caterpillar(n, rng):
    """A spine of about n/3 vertices, each remaining vertex a leg on a random spine vertex."""
    spine = [f"s{i:03d}" for i in range(n // 3)]
    legs = [(f"l{i:03d}", rng.choice(spine)) for i in range(n - len(spine))]
    return Tree(list(zip(spine, spine[1:])) + legs)


def _deep_families(n, rng):
    """A spider, a caterpillar and a random recursive tree on ``n`` shuffled names.

    Each vertex x > 0 hangs from an earlier one: the spider's x starts a leg at the hub 0 or
    extends a random leg, the caterpillar's x extends a spine of 40 or is a leg on it.
    """
    ends: list[int] = []
    spider = []
    for x in range(1, n):
        if not ends or rng.random() < 0.15:
            ends.append(0)
        leg = rng.randrange(len(ends))
        spider.append((ends[leg], x))
        ends[leg] = x
    caterpillar = [(x - 1 if x < 40 else rng.randrange(40), x) for x in range(1, n)]
    recursive = [(rng.randrange(x), x) for x in range(1, n)]
    for edges in (spider, caterpillar, recursive):
        names = [f"u{x:04d}" for x in rng.sample(range(10 * n), n)]
        yield Tree([(names[a], names[b]) for a, b in edges])


def _signed_instance(t, rng, big):
    """A few pebble piles and demands; with ``big`` they lie near 2^62, so folds can overflow."""

    def pile():
        return 2 ** rng.randint(58, 62) + rng.randint(-3, 3) if big else rng.randint(1, 9)

    d = Distribution({v: pile() for v in rng.sample(t.names, min(t.n, 3))})
    w = WeightFunction({v: pile() for v in rng.sample(t.names, min(t.n, 3))})
    return d, w


class TestSolveWitness:
    def test_chain_moves(self):
        t = tree("a b;b c")
        moves = solve_witness(t, Distribution({"a": 4}), WeightFunction({"c": 1}), "c")
        assert [str(m) for m in moves] == ["a b 2", "b c"]
        final = simulate(t, Distribution({"a": 4}), moves)
        assert final.items() == (("c", 1),)

    def test_no_surplus_no_deficit_is_empty(self):
        t = tree("a b;b c")
        w = WeightFunction({"a": 1, "c": 2})
        d = Distribution(dict(w.items()))
        assert solve_witness(t, d, w, "a") == []

    def test_star_outward_delivery(self):
        t = tree("a b;b c;b d")
        d = Distribution({"b": 8})
        w = WeightFunction({"a": 1, "c": 1})
        moves = solve_witness(t, d, w, "b")
        final = simulate(t, d, moves)
        assert dict(final.items()) == {"a": 1, "b": 4, "c": 1}

    def test_root_with_negative_hat_rejected(self):
        t = tree("a b")
        with pytest.raises(NotSolvableError):
            solve_witness(t, Distribution({"a": 1}), WeightFunction({"b": 1}), "b")

    @pytest.mark.parametrize(
        "edges,dist,demand,root,vertex",
        [
            ("a b", {"a": INT64_MAX, "b": 2}, {"a": 1}, "a", "a"),
            ("p x;x c", {"p": 4, "x": INT64_MAX}, {"x": INT64_MAX, "c": 1}, "c", "x"),
            ("p x;x c", {"p": 4, "x": INT64_MAX}, {"x": INT64_MAX, "c": 1}, "p", "x"),
        ],
        ids=["surplus onto a full root", "surplus phase", "deficit phase"],
    )
    def test_a_pile_past_2_63_is_refused(self, edges, dist, demand, root, vertex):
        # unguarded, these batches were returned and simulate refused them at move 0
        t, d, w = tree(edges), Distribution(dist), WeightFunction(demand)
        assert is_solvable(t, d, w).hat_values[root] >= 0
        with pytest.raises(OverflowLimitError) as info:
            solve_witness(t, d, w, root)
        assert str(info.value) == f"witness would put more than {INT64_MAX} pebbles on '{vertex}'"

    @pytest.mark.parametrize(
        "edges,dist,demand,root",
        [
            ("a b", {"a": INT64_MAX - 2, "b": 4}, {"a": 1}, "a"),
            ("a b;b c", {"a": 2**62, "c": 2**62}, {"b": 1}, "b"),
            ("p x;x c", {"p": 4, "x": INT64_MAX - 2}, {"x": INT64_MAX - 2, "c": 1}, "p"),
        ],
        ids=["root filled to 2^63-1", "two piles of 2^62", "deficit filled to 2^63-1"],
    )
    def test_a_distribution_past_2_63_replays_when_no_vertex_overflows(
        self, edges, dist, demand, root
    ):
        t, d, w = tree(edges), Distribution(dist), WeightFunction(demand)
        assert d.size > INT64_MAX
        assert simulate(t, d, solve_witness(t, d, w, root)).dominates(w)

    def test_move_order_matches_the_recursive_reference(self):
        # surplus batches in post-order, children by name, then deficit batches in its reverse
        rng = random.Random(26)
        solvable = several = 0
        for t in all_shapes(7):
            for _ in range(20):
                w = random_weights(t, rng.randint(1, 4), rng)
                d = random_distribution(t, rng.randint(0, 32), rng)
                for root in t.names:
                    expected = reference_witness(t, d, w, root)
                    if expected is None:
                        with pytest.raises(NotSolvableError):
                            solve_witness(t, d, w, root)
                        continue
                    assert solve_witness(t, d, w, root) == expected, (t.edges, d, w, root)
                    solvable += 1
                    several += len(expected) > 1
        assert solvable > 2000 and several > 1800  # most cases order several batches

    def test_move_order_matches_the_recursive_reference_on_larger_trees(self):
        # deep subtrees among deficit siblings, which all_shapes(7) never has: a pile on the root
        # feeds a demand on two in five vertices of 200-vertex spiders, caterpillars and random
        # recursive trees; the pile outweighs 200 demands at depth 41, so every case is solvable
        rng = random.Random(27)
        deficit_batches, siblings = [], 0
        for _ in range(3):
            for t in _deep_families(200, rng):
                for root in rng.sample(t.names, 4):
                    w = WeightFunction({v: 1 for v in rng.sample(t.names, 80)})
                    d = Distribution({**{v: rng.randint(0, 3) for v in t.names}, root: 2**60})
                    expected = reference_witness(t, d, w, root)
                    assert solve_witness(t, d, w, root) == expected, (t.edges, d, w, root)
                    depth = t.distances_from(root)
                    feeders = [m.src for m in expected if depth[m.dst] > depth[m.src]]
                    deficit_batches.append(len(feeders))
                    siblings += len(feeders) - len(set(feeders))
        # every case feeds several deficits, and parents often feed several children
        assert min(deficit_batches) >= 5 and sum(deficit_batches) > 900 and siblings > 100


class TestSimulate:
    def test_single_move(self):
        t = tree("a b")
        final = simulate(t, Distribution({"a": 2}), [PebblingMove("a", "b")])
        assert dict(final.items()) == {"b": 1}

    def test_underfunded_source_reports_index(self):
        t = tree("a b")
        with pytest.raises(IllegalMoveError) as exc:
            simulate(t, Distribution({"a": 1}), [PebblingMove("a", "b")])
        assert exc.value.index == 0

    def test_chained_moves(self):
        t = tree("a b;b c")
        moves = [PebblingMove("a", "b"), PebblingMove("a", "b"), PebblingMove("b", "c")]
        assert dict(simulate(t, Distribution({"a": 4}), moves).items()) == {"c": 1}

    def test_non_adjacent_rejected(self):
        t = tree("a b;b c")
        with pytest.raises(IllegalMoveError, match="adjacent"):
            simulate(t, Distribution({"a": 4}), [PebblingMove("a", "c")])

    def test_self_move_rejected(self):
        with pytest.raises(IllegalMoveError, match="'a' and 'a' are not adjacent") as exc:
            simulate(tree("a b"), Distribution({"a": 4}), [PebblingMove("a", "a")])
        assert exc.value.index == 0

    def test_accepts_exactly_the_edges(self):
        for t in all_shapes(8):
            for u in t.names:
                d = Distribution({u: 2})
                for v in t.names:
                    try:
                        simulate(t, d, [PebblingMove(u, v)])
                        accepted = True
                    except IllegalMoveError as exc:
                        assert exc.reason == f"'{u}' and '{v}' are not adjacent"
                        accepted = False
                    assert accepted == (v in neighbors(t, u)), (t.edges, u, v)

    def test_later_index_reported(self):
        t = tree("a b;b c")
        moves = [PebblingMove("a", "b")] * 2 + [PebblingMove("b", "c")] * 2
        with pytest.raises(IllegalMoveError) as exc:
            simulate(t, Distribution({"a": 4}), moves)
        assert exc.value.index == 3

    def test_each_move_burns_one_pebble(self):
        t = tree("a b;b c")
        d = Distribution({"a": 6, "b": 1})
        moves = [PebblingMove("a", "b")] * 3 + [PebblingMove("b", "c")] * 2
        final = simulate(t, d, moves)
        assert final.size == d.size - len(moves)

    def test_destination_past_int64_raises(self):
        t = tree("a b;b c")
        d = Distribution({"a": INT64_MAX, "b": INT64_MAX - 1})
        moves = [PebblingMove("a", "b")] * 2
        message = f"^move 1 would put more than {INT64_MAX} pebbles on 'b'$"
        with pytest.raises(OverflowLimitError, match=message):
            simulate(t, d, moves)
        # one move short of the bound lands on exactly 2^63 - 1
        assert simulate(t, d, moves[:1])["b"] == INT64_MAX

    @pytest.mark.parametrize("k", [-1, 1.0, True, "2", None])
    def test_batch_size_must_be_a_nonnegative_int(self, k):
        t = tree("a b")
        d = Distribution({"b": 4})
        # checked before the batch moves anything: a negative k would move pebbles backwards
        with pytest.raises(ValueError, match=f"^batch 'a' -> 'b' needs a nonnegative int k, got {k!r}$"):
            simulate(t, d, [PebblingMove("b", "a"), PebblingMove("a", "b", k)])
        assert simulate(t, d, [PebblingMove("a", "b", 0)]) == d


def _replay(replay, t, d, moves):
    """The final distribution, or the error's type, index and message."""
    try:
        return replay(t, d, moves)
    except (IllegalMoveError, OverflowLimitError, UnknownVertexError) as exc:
        return type(exc), getattr(exc, "index", None), str(exc)


def _each(moves):
    """The batches as single ``(src, dst)`` moves, the input ``simulate_each`` replays."""
    return [(m.src, m.dst) for m in moves for _ in range(m.k)]


def _run_moves(t, rng):
    """Batches of 0-6 moves: mostly along edges, some self, non-adjacent or unknown."""
    moves = []
    for _ in range(rng.randint(0, 8)):
        u = rng.choice(t.names)
        roll = rng.random()
        if roll < 0.75 and t.n > 1:
            v = rng.choice(neighbors(t, u))
        elif roll < 0.85:
            v = u
        elif roll < 0.9:
            u, v = rng.choice([(u, "zz"), ("zz", u)])
        else:
            v = rng.choice(t.names)
        moves.append(PebblingMove(u, v, rng.randint(0, 6)))
    return moves


def _pile(rng):
    return rng.choice([rng.randint(0, 12), INT64_MAX - rng.randint(0, 4)])


# path a-b-c; the batch of two c->b moves shifts every index by 2
_RUN_CASES = {
    "dry mid-run": ({"a": 7, "c": 4}, [("c", "b", 2), ("a", "b", 5)]),
    "overflow mid-run": ({"a": 100, "b": INT64_MAX - 4, "c": 4}, [("c", "b", 2), ("a", "b", 5)]),
    "dry and overflow at one move": ({"a": 5, "b": INT64_MAX - 4, "c": 4}, [("c", "b", 2), ("a", "b", 5)]),
    "destination above int64 from the start": ({"a": 10, "b": 2**64}, [("a", "b", 3)]),
    "non-adjacent": ({"a": 9}, [("a", "b", 2), ("a", "c", 2)]),
    "self": ({"a": 9}, [("a", "b", 2), ("a", "a", 2)]),
    "unknown destination": ({"a": 9}, [("a", "b", 2), ("a", "zz", 2)]),
    "unknown source": ({"a": 9}, [("a", "b", 2), ("zz", "a", 2)]),
    "legal runs": ({"a": 12}, [("a", "b", 6), ("b", "c", 3)]),
    "equal batches in a row": ({"a": 9}, [("a", "b", 2), ("a", "b", 3)]),
    "empty batches": ({"a": 4}, [("a", "b", 0), ("a", "b", 1), ("b", "c", 0), ("a", "b", 2)]),
}


class TestRunsAgainstEachMove:
    """``simulate`` applies a batch at once; it must read the same as its single moves."""

    @pytest.mark.parametrize("counts,moves", _RUN_CASES.values(), ids=_RUN_CASES)
    def test_constructed_runs(self, counts, moves):
        t = tree("a b;b c")
        moves = [PebblingMove(*m) for m in moves]
        d = Distribution(counts)
        assert _replay(simulate, t, d, moves) == _replay(simulate_each, t, d, _each(moves))

    def test_constructed_run_outcomes(self):
        t = tree("a b;b c")

        def outcome(name):
            counts, moves = _RUN_CASES[name]
            return _replay(simulate, t, Distribution(counts), [PebblingMove(*m) for m in moves])

        dry = "illegal move at index 5: source 'a' has 1 pebbles"
        assert outcome("dry mid-run") == (IllegalMoveError, 5, dry)
        overflow = f"move 4 would put more than {INT64_MAX} pebbles on 'b'"
        assert outcome("overflow mid-run") == (OverflowLimitError, None, overflow)
        both = "illegal move at index 4: source 'a' has 1 pebbles"
        assert outcome("dry and overflow at one move") == (IllegalMoveError, 4, both)

    def test_seeded_runs_on_every_small_shape(self):
        rng = random.Random(15)
        for t in all_shapes(6):
            for _ in range(40):
                moves = _run_moves(t, rng)
                d = Distribution({v: _pile(rng) for v in t.names})
                each = _replay(simulate_each, t, d, _each(moves))
                assert _replay(simulate, t, d, moves) == each
                # a generator is replayed the same as a list
                assert _replay(simulate, t, d, iter(moves)) == each
                text = serialize_moves(moves)
                if "zz" not in text.split():
                    # equal batches in a row come back as one, the same single moves
                    assert _each(parse_moves(text, t)) == _each(moves)


# insertion order puts 'zz' first; the name-smallest unknown is reported
_TWO_UNKNOWN = {"zz": 1, "yy": 1}


@pytest.mark.parametrize(
    "call",
    [
        lambda t: simulate(t, Distribution(_TWO_UNKNOWN), []),
        lambda t: brute_solvable(t, Distribution(_TWO_UNKNOWN), WeightFunction({"a": 1})),
        lambda t: brute_solvable(t, Distribution({"a": 2}), WeightFunction(_TWO_UNKNOWN)),
        lambda t: is_solvable(t, Distribution(_TWO_UNKNOWN), WeightFunction({"a": 1})),
        lambda t: is_solvable(t, Distribution({"a": 2}), WeightFunction(_TWO_UNKNOWN)),
    ],
    ids=["simulate", "brute-dist", "brute-demand", "solvable-dist", "solvable-demand"],
)
def test_first_unknown_name_in_name_order(call):
    with pytest.raises(UnknownVertexError) as exc:
        call(tree("a b"))
    assert str(exc.value) == "unknown vertex 'yy'"


class TestPebblingMove:
    def test_text_forms(self):
        mv = PebblingMove("a", "b")
        assert repr(mv) == "PebblingMove(src='a', dst='b', k=1)"
        assert str(mv) == "a b"
        assert str(PebblingMove("a", "b", 3)) == "a b 3"
        assert str(PebblingMove("a", "b", 0)) == "a b 0"

    def test_equality_and_hash(self):
        assert PebblingMove("a", "b") == PebblingMove("a", "b")
        assert PebblingMove("a", "b") != PebblingMove("b", "a")
        assert PebblingMove("a", "b") == PebblingMove("a", "b", 1) != PebblingMove("a", "b", 2)
        assert hash(PebblingMove("a", "b")) == hash(PebblingMove("a", "b"))
        assert len({PebblingMove("a", "b"), PebblingMove("a", "b"), PebblingMove("b", "a")}) == 2

    def test_immutable(self):
        mv = PebblingMove("a", "b")
        with pytest.raises(AttributeError):
            mv.src = "c"

    def test_json_is_src_dst_k(self):
        assert json.dumps(PebblingMove("a", "b")) == '["a", "b", 1]'
        assert json.dumps(PebblingMove("a", "b", 5)) == '["a", "b", 5]'


class TestMoveDocuments:
    def test_round_trip(self):
        t = tree("a b;b c")
        moves = [PebblingMove("a", "b"), PebblingMove("b", "c")]
        assert parse_moves(serialize_moves(moves), t) == moves

    def test_batch_round_trip(self):
        t = tree("a b;b c")
        moves = [PebblingMove("a", "b", 5), PebblingMove("b", "c"), PebblingMove("a", "b", 0),
                 PebblingMove("b", "a", INT64_MAX)]
        text = serialize_moves(moves)
        assert text == f"a b 5\nb c\na b 0\nb a {INT64_MAX}\n"
        assert parse_moves(text, t) == moves

    def test_repeated_lines_read_as_one_batch(self):
        # r two-token lines, as older move files repeat a move, read as one 'from to r' line
        t = tree("a b;b c")
        old = "a b\n" * 4 + "# c\n" + "b c\n" * 2 + "a b 3\n" * 2
        assert parse_moves(old, t) == parse_moves("a b 4\n# c\nb c 2\na b 6\n", t)
        assert parse_moves(old, t) == [PebblingMove("a", "b", 4), PebblingMove("b", "c", 2),
                                       PebblingMove("a", "b", 6)]

    def test_empty_document(self):
        assert serialize_moves([]) == ""
        assert parse_moves("", tree("a b")) == []

    def test_unknown_vertex_rejected(self):
        with pytest.raises(Exception, match="unknown vertex"):
            parse_moves("a zz", tree("a b"))

    def test_malformed_line_is_format_error(self):
        with pytest.raises(TreeFormatError, match="line 2: expected 'from to'"):
            parse_moves("a b\na b 1 c\n", tree("a b"))


@settings(max_examples=120, deadline=None)
@given(
    n=st.integers(1, 8),
    seed=st.integers(0, 10**6),
    d_size=st.integers(0, 10),
    w_total=st.integers(0, 4),
)
def test_hat_is_order_independent(n, seed, d_size, w_total):
    rng = random.Random(seed)
    t = random_tree(n, seed)
    d = random_distribution(t, d_size, rng)
    w = random_weights(t, w_total, rng)
    root = rng.choice(t.names)
    reference = hat_c(t, d, w, root)
    for _ in range(5):
        assert fold_hat_random_order(t, d, w, root, rng) == reference


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 7),
    seed=st.integers(0, 10**6),
    d_size=st.integers(0, 10),
    w_total=st.integers(0, 4),
)
def test_matches_brute_force_search(n, seed, d_size, w_total):
    rng = random.Random(seed)
    t = random_tree(n, seed)
    d = random_distribution(t, d_size, rng)
    w = random_weights(t, w_total, rng)
    assert is_solvable(t, d, w).solvable == brute_solvable(t, d, w)


def test_exhaustive_equivalence_on_tiny_trees():
    # every distribution of up to 6 pebbles against a spread of demands
    for t in all_shapes(4):
        for w in itertools.islice(weight_functions(t), 20):
            for size in range(7):
                for comp in compositions(size, t.n):
                    d = Distribution({v: c for v, c in zip(t.names, comp) if c})
                    assert is_solvable(t, d, w).solvable == brute_solvable(t, d, w)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 8),
    seed=st.integers(0, 10**6),
    d_size=st.integers(0, 10),
    w_total=st.integers(1, 4),
)
def test_witness_replay_meets_demand(n, seed, d_size, w_total):
    rng = random.Random(seed)
    t = random_tree(n, seed)
    d = random_distribution(t, d_size, rng)
    w = random_weights(t, w_total, rng)
    cert = is_solvable(t, d, w)
    if not cert.solvable:
        return
    moves = solve_witness(t, d, w, cert.witness_root)
    assert len(moves) <= t.n - 1  # one batch per vertex that moves
    final = simulate(t, d, moves)
    assert final.dominates(w)
    assert final.size == d.size - sum(m.k for m in moves)
