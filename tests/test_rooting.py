"""The rooting contract: callers of ``Tree._rooting`` rely only on children before parents.

Each test computes every rooted output twice, once with the depth-first rooting and once
with ``helpers.breadth_first_rooting`` swapped in, and requires the same results. Two
outputs follow the actual order and are compared by what they promise instead: a witness
by its multiset of batches, its replay and the order of each batch after every batch into
its source; an overflow by its exception type, since the value it names is the first
out-of-range one in fold order.
"""

import random
from collections import Counter

import pytest

from treepebble import (
    Distribution,
    OverflowLimitError,
    PebblingError,
    Tree,
    WeightFunction,
    cover_pebbling_number,
    extremal_distribution,
    hat_c,
    is_solvable,
    max_path_partition,
    random_tree,
    simulate,
    solve_witness,
    t_pebbling_global,
    t_pebbling_number,
    verify_gamma,
)
from helpers import all_shapes, breadth_first_rooting, random_distribution, random_weights, tree


def _outcome(fn, *args):
    try:
        return fn(*args)
    except OverflowLimitError:
        return OverflowLimitError
    except (PebblingError, ValueError) as error:
        return type(error), str(error)


def _results(t, w, d, roots, *, oracle):
    """Every rooted output on one instance, with each witness as a Counter of its batches,
    and the witnesses' batch lists, each checked by its replay and its order."""
    sink = t.minimal_subtree(w.support[0], w.support[1:]).names if w.support else t.names[:1]
    results = {
        "global": [_outcome(t_pebbling_global, t, k) for k in (1, 3)],
        "sink partition": max_path_partition(t.orient_toward(sink)),
        "cover": _outcome(cover_pebbling_number, t, w),
        "extremal": _outcome(extremal_distribution, t, w),
        "solvable": _outcome(is_solvable, t, d, w),
        "verify": _outcome(verify_gamma, t, w) if oracle else None,
    }
    witnesses = []
    for v in roots:
        moves = _outcome(solve_witness, t, d, w, v)
        if isinstance(moves, list):
            assert simulate(t, d, moves).dominates(w), (t.edges, d, w, v)
            # a surplus batch comes after every batch into its source, and a deficit batch
            # after the batch into its parent, which is its source
            last_into = {dst: i for i, (_, dst, _) in enumerate(moves)}
            assert all(last_into.get(src, -1) < i for i, (src, _, _) in enumerate(moves)), moves
            witnesses.append(moves)
        results[v] = (
            [_outcome(t_pebbling_number, t, v, k) for k in (1, 3)],
            max_path_partition(t.orient_toward((v,))),
            t.distances_from(v),
            _outcome(hat_c, t, d, w, v),
            Counter(moves) if isinstance(moves, list) else moves,
        )
    return results, witnesses


def _compare_rootings(monkeypatch, cases, *, oracle=False) -> tuple[int, int]:
    """Require the same results of every ``(t, w, d, roots)`` case under both rootings; return
    how many witnesses there were and how many came out in another order."""
    depth_first = [_results(*case, oracle=oracle) for case in cases]
    with monkeypatch.context() as m:
        m.setattr(Tree, "_rooting", breadth_first_rooting)
        breadth_first = [_results(*case, oracle=oracle) for case in cases]
    witnesses = reordered = 0
    for (t, w, d, _), (expected, before), (got, after) in zip(cases, depth_first, breadth_first):
        assert got == expected, (t.edges, w, d)
        witnesses += len(before)
        reordered += sum(a != b for a, b in zip(before, after))
    return witnesses, reordered


def _near_2_62(t, rng, k):
    """``k`` piles or demands of about 2^62 on random vertices, so that folds can overflow."""
    return {v: 2 ** rng.randint(58, 62) + rng.randint(-3, 3) for v in rng.sample(t.names, k)}


def test_all_shapes_of_up_to_7_vertices(monkeypatch):
    # per shape: three small instances, the first also verified by the oracle, and one near 2^62
    rng = random.Random(37)
    verified, unverified = [], []
    for t in all_shapes(7):
        for i in range(3):
            w = random_weights(t, rng.randint(1, 4), rng)
            d = random_distribution(t, rng.randint(0, 16), rng)
            (unverified if i else verified).append((t, w, d, t.names))
        k = min(t.n, 2)
        w, d = WeightFunction(_near_2_62(t, rng, k)), Distribution(_near_2_62(t, rng, k))
        unverified.append((t, w, d, t.names))
    counts = _compare_rootings(monkeypatch, verified, oracle=True)
    witnesses, reordered = map(sum, zip(counts, _compare_rootings(monkeypatch, unverified)))
    assert witnesses > 200 and reordered > 100  # the swap reorders many witnesses


def test_seeded_trees_of_200_vertices(monkeypatch):
    # a pile on one vertex meets demands spread over the tree from every root; piles and
    # demands near 2^62 make folds, scores and witnesses overflow
    rng = random.Random(38)
    cases = []
    for seed in range(4):
        t = random_tree(200, seed)
        roots = rng.sample(t.names, 15)
        w = WeightFunction({v: rng.randint(1, 3) for v in rng.sample(t.names, 40)})
        d = Distribution({**{v: rng.randint(0, 5) for v in t.names}, roots[0]: 2**50})
        cases.append((t, w, d, roots))
        w, d = WeightFunction(_near_2_62(t, rng, 3)), Distribution(_near_2_62(t, rng, 3))
        cases.append((t, w, d, roots))
    witnesses, reordered = _compare_rootings(monkeypatch, cases)
    assert witnesses == 60 and reordered > 50


def test_an_overflow_names_the_first_value_out_of_range_in_fold_order(monkeypatch):
    # x1 and y1 each charge their parent twice their deficit, past -2^63; each rooting folds
    # a different one first, so only the exception type is part of the contract
    t = tree("r x;x x1;r y;y y1")
    w = WeightFunction({"x1": 2**62 + 1, "y1": 2**62 + 5})
    d = Distribution({"r": 1})
    named = []
    for rooting in (Tree._rooting, breadth_first_rooting):
        monkeypatch.setattr(Tree, "_rooting", rooting)
        with pytest.raises(OverflowLimitError) as info:
            hat_c(t, d, w, "r")
        named.append(str(info.value))
    assert named == [
        "induced value -9223372036854775810 is outside the signed 64-bit range",
        "induced value -9223372036854775818 is outside the signed 64-bit range",
    ]
