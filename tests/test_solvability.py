import itertools
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
from treepebble.oracle import _compositions
from helpers import (
    GeneralizedDistribution,
    all_unlabeled_trees,
    fold_hat_random_order,
    random_distribution,
    random_weights,
    reduce_leaf,
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
            for t in all_unlabeled_trees(6)
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


class TestSolveWitness:
    def test_chain_moves(self):
        t = tree("a b;b c")
        moves = solve_witness(t, Distribution({"a": 4}), WeightFunction({"c": 1}), "c")
        assert [str(m) for m in moves] == ["a b", "a b", "b c"]
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


class TestMoveDocuments:
    def test_round_trip(self):
        t = tree("a b;b c")
        moves = [PebblingMove("a", "b"), PebblingMove("b", "c")]
        assert parse_moves(serialize_moves(moves), t) == moves

    def test_empty_document(self):
        assert serialize_moves([]) == ""
        assert parse_moves("", tree("a b")) == []

    def test_unknown_vertex_rejected(self):
        with pytest.raises(Exception, match="unknown vertex"):
            parse_moves("a zz", tree("a b"))

    def test_malformed_line_is_format_error(self):
        with pytest.raises(TreeFormatError, match="line 2: expected 'from to'"):
            parse_moves("a b\na b c\n", tree("a b"))


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
    for t in all_unlabeled_trees(4):
        for w in itertools.islice(weight_functions(t), 20):
            for size in range(7):
                for comp in _compositions(size, t.n):
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
    final = simulate(t, d, moves)
    assert final.dominates(w)
    assert final.size == d.size - len(moves)
