"""One overflow rule: each reported value is exact when it fits int64, and raises otherwise.

The references below sum unchecked Python ints. A score raises exactly
when its exact value is outside int64, and the cover table is worded by
its first such root in name order; a collapse raises exactly when some
vertex's final value in it is. Counts sit near 2^62 and trees reach depth
62-70, so every function sees both outcomes, and partial sums past int64
whose total fits.
"""

import random
from collections import Counter

import pytest

from treepebble import (
    Distribution,
    OverflowLimitError,
    Tree,
    WeightFunction,
    cover_pebbling_number,
    hat_c,
    is_solvable,
    partition_score,
    random_tree,
    s_omega_at,
    t_pebbling_number,
)
from treepebble.checked import INT64_MAX, INT64_MIN
from helpers import all_shapes, greedy_partition, neighbors, reference_orient, reference_steiner

OVERFLOW = "overflow"


def _outcome(fn, *args):
    try:
        return fn(*args)
    except OverflowLimitError:
        return OVERFLOW


def _message(fn, *args) -> str:
    with pytest.raises(OverflowLimitError) as info:
        fn(*args)
    return str(info.value)


def _fits(value: int) -> bool:
    return INT64_MIN <= value <= INT64_MAX


def _exact_score(t: Tree, w: WeightFunction, v: str) -> int:
    dist = t.distances_from(v)
    part = greedy_partition(reference_orient(t, reference_steiner(t, (v, *w.support))))
    return sum(k * 2 ** dist[u] for u, k in w.items()) + sum(2**a - 1 for a in part.sizes)


def _exact_t_pebbling(sizes: tuple[int, ...], k: int) -> int:
    if not sizes:
        return k
    return k * 2 ** sizes[0] + sum(2**a for a in sizes[1:]) - len(sizes) + 1


def _exact_collapse(
    t: Tree, d: Distribution, w: WeightFunction, root: str
) -> tuple[dict[str, int], bool]:
    """Each vertex's final value in the collapse onto ``root`` (its own D - demand plus the
    fold of each child's final value, children in name order), and whether a partial sum
    of those folds left int64."""
    final: dict[str, int] = {}
    partial_out = False

    def fold(x: str, parent: str | None) -> None:
        nonlocal partial_out
        value = d[x] - w[x]
        for y in neighbors(t, x):
            if y != parent:
                fold(y, x)
                value += final[y] // 2 if final[y] >= 0 else 2 * final[y]
                partial_out |= not _fits(value)
        final[x] = value

    fold(root, None)
    return final, partial_out


def _count(rng: random.Random) -> int:
    return rng.choice([1, rng.randint(2, 9), (1 << rng.randint(52, 63)) - rng.randint(1, 3)])


def _spider(legs: list[int]) -> Tree:
    edges = []
    for j, length in enumerate(legs):
        leg = ["c"] + [f"{chr(97 + j)}{i:02d}" for i in range(1, length + 1)]
        edges += zip(leg, leg[1:])
    return Tree(edges)


def _instances(rng: random.Random):
    """(tree, roots) pairs: every shape up to 9 vertices at every root, and deep trees of
    62-70 vertices (paths, spiders with a leg near 62, random trees) at a seeded sample."""
    for t in all_shapes(9):
        yield t, t.names
    deep = [_spider([62, 62])]
    for _ in range(3):
        n = rng.randint(62, 70)
        names = [f"p{i:02d}" for i in range(n)]
        deep.append(Tree(list(zip(names, names[1:]))))
        long = rng.randint(58, 63)
        short = [rng.randint(1, 3) for _ in range(rng.randint(1, 3))]
        deep.append(_spider([long, *short]))
        deep.append(random_tree(n, rng.randrange(2**32)))
    for t in deep:
        yield t, sorted({"c", *rng.sample(t.names, 12)} & set(t.names))


def test_every_value_is_exact_or_overflows():
    rng = random.Random(32)
    seen: Counter = Counter()
    windows: Counter = Counter()  # exact values in range with a partial sum outside

    def expect(label, got, exact):
        assert got == exact, (label, got, exact)
        seen[label, got == OVERFLOW] += 1

    for t, roots in _instances(rng):
        for _ in range(2):
            support = rng.sample(t.names, rng.randint(1, min(3, t.n)))
            w = WeightFunction({u: _count(rng) for u in support})
            scores = {v: _exact_score(t, w, v) for v in t.names}
            for v in roots:
                exact = scores[v] if _fits(scores[v]) else OVERFLOW
                expect("s_omega_at", _outcome(s_omega_at, t, w, v), exact)
            table = scores if all(map(_fits, scores.values())) else OVERFLOW
            got = _outcome(cover_pebbling_number, t, w)
            expect("cover_pebbling_number", got if got == OVERFLOW else got.per_vertex_s, table)
            if got == OVERFLOW:  # worded by the first root in name order that overflows
                first = next(v for v in t.names if not _fits(scores[v]))
                assert _message(cover_pebbling_number, t, w) == _message(s_omega_at, t, w, first)

            for k in (1, (1 << rng.randint(50, 62)) + rng.randint(-2, 2)):
                for v in roots:
                    sizes = greedy_partition(reference_orient(t, (v,))).sizes
                    value = _exact_t_pebbling(sizes, k)
                    exact = value if _fits(value) else OVERFLOW
                    got = _outcome(t_pebbling_number, t, v, k)
                    expect("t_pebbling_number", got if got == OVERFLOW else got.value, exact)
                    if sizes:
                        expect("partition_score", _outcome(partition_score, sizes, k), exact)
                        windows["score"] += _fits(value) and not _fits(value + len(sizes) - 1)

            d = Distribution({u: _count(rng) for u in rng.sample(t.names, rng.randint(1, t.n))})
            w = WeightFunction({u: _count(rng) for u in rng.sample(t.names, rng.randint(1, t.n))})
            hats = {}
            for v in t.names:
                final, partial_out = _exact_collapse(t, d, w, v)
                fits = all(map(_fits, final.values()))
                hats[v] = final[v] if fits else OVERFLOW
                windows["collapse"] += fits and partial_out
            for v in roots:
                expect("hat_c", _outcome(hat_c, t, d, w, v), hats[v])
            got = _outcome(is_solvable, t, d, w)
            exact = OVERFLOW if OVERFLOW in hats.values() else hats
            expect("is_solvable", got if got == OVERFLOW else got.hat_values, exact)
    for label in {label for label, _ in seen}:
        assert seen[label, False] and seen[label, True], seen
    assert windows["score"] and windows["collapse"], windows
