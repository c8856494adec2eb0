"""Acceptance suite: every criterion as one test printing one PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria complete. The random instance family is seeded, so the whole suite
is reproducible.
"""

import io
import random
from collections import Counter
from contextlib import contextmanager

import pytest

from treepebble import (
    Distribution,
    WeightFunction,
    brute_solvable,
    cover_pebbling_number,
    extremal_distribution,
    hat_c,
    is_solvable,
    max_path_partition,
    random_tree,
    simulate,
    solve_witness,
    t_pebbling_number,
    verify_gamma,
)
from treepebble.cli import run as cli_run
from helpers import (
    all_shapes,
    fold_hat_random_order,
    majorize_cmp,
    random_distribution,
    random_path_partition,
    random_weights,
    tree,
    weight_functions,
)

SEED = 20260808
RANDOM_INSTANCES = 10_000


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} {name}: FAIL", flush=True)
        raise
    print(f"ACCEPTANCE {num} {name}: PASS", flush=True)


@pytest.fixture(scope="module")
def random_family():
    """Criterion-3 family: seeded random (tree, distribution, demand) triples."""
    rng = random.Random(SEED)
    instances = []
    for _ in range(RANDOM_INSTANCES):
        n = rng.randint(1, 8)
        t = random_tree(n, rng.randrange(2**32))
        d = random_distribution(t, rng.randint(0, 14), rng)
        w = random_weights(t, rng.randint(0, 4), rng)
        instances.append((t, d, w))
    return instances


@pytest.fixture(scope="module")
def random_family_results(random_family):
    results = []
    for t, d, w in random_family:
        results.append((t, d, w, is_solvable(t, d, w), brute_solvable(t, d, w)))
    return results


def test_criterion_1_cover_formula_on_small_trees():
    with criterion(1, "cover formula matches the oracle on all trees up to 6 vertices"):
        trees = all_shapes(6)
        assert Counter(t.n for t in trees) == {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6}
        checked = 0
        for t in trees:
            for w in weight_functions(t, max_entry=2, max_total=4):
                report = verify_gamma(t, w)
                assert report.status == "PASS", (t.edges, dict(w.items()), report)
                checked += 1
        assert checked == 1417


def _seven_vertex_cover_cases():
    """Every demand with entries up to 2 and total up to 4 on every 7-vertex shape."""
    cases = [
        (t, w)
        for t in all_shapes(7)
        if t.n == 7
        for w in weight_functions(t, max_entry=2, max_total=4)
    ]
    assert len(cases) == 3003
    return cases


def test_cover_formula_vs_oracle_on_a_7_vertex_stride():
    """Criterion 1 at 7 vertices, on every 15th case of the full scan.

    The full scan (the next test) is 3,003 cases and takes ~30 s (Python
    3.11, two cores); this stride keeps 201 of them, spread over every
    shape, in ~2 s, so it can be rerun cheaply, e.g. under other hash seeds.
    """
    for t, w in _seven_vertex_cover_cases()[::15]:
        report = verify_gamma(t, w)
        assert report.status == "PASS", (t.edges, dict(w.items()), report)


def test_cover_formula_vs_oracle_on_all_7_vertex_trees():
    """Criterion 1 at 7 vertices, on every case of the full scan."""
    for t, w in _seven_vertex_cover_cases():
        report = verify_gamma(t, w)
        assert report.status == "PASS", (t.edges, dict(w.items()), report)


def test_criterion_2_t_pebbling_formula_vs_oracle():
    with criterion(2, "t-pebbling formula on all trees up to 7 vertices"):
        trees = all_shapes(7)
        assert Counter(t.n for t in trees) == {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11}
        for t in trees:
            for v in t.names:
                for k in (1, 2, 3):
                    formula = t_pebbling_number(t, v, k).value
                    report = verify_gamma(t, WeightFunction({v: k}))
                    assert report.status == "PASS", (t.edges, v, k, report)
                    assert report.oracle_gamma == formula, (t.edges, v, k)


def test_pebbling_number_vs_oracle_on_8_vertices():
    """Criterion 2 at t = 1 and t = 2 on every 8-vertex shape and root.

    The test takes ~10 s (Python 3.11, two cores), most of it at t = 2:
    gamma roughly doubles, and the size-gamma scan enumerates every leaf
    composition of that size. t = 3 is left out.
    """
    trees = [t for t in all_shapes(8) if t.n == 8]
    assert len(trees) == 23
    for t in trees:
        for v in t.names:
            for k in (1, 2):
                report = verify_gamma(t, WeightFunction({v: k}))
                assert report.status == "PASS", (t.edges, v, k, report)
                assert report.oracle_gamma == t_pebbling_number(t, v, k).value, (t.edges, v, k)


def test_criterion_3_solvability_equivalence(random_family_results):
    with criterion(3, "decision procedure agrees with exhaustive search"):
        assert len(random_family_results) >= 10_000
        for t, d, w, cert, brute in random_family_results:
            assert cert.solvable == brute, (t.edges, dict(d.items()), dict(w.items()))


def test_criterion_4_witness_soundness(random_family_results):
    with criterion(4, "witness replay meets the demand on every solvable instance"):
        solvable_count = 0
        for t, d, w, cert, _ in random_family_results:
            if not cert.solvable:
                continue
            solvable_count += 1
            moves = solve_witness(t, d, w, cert.witness_root)
            final = simulate(t, d, moves)
            assert final.dominates(w)
            assert final.size == d.size - sum(m.k for m in moves)
        assert solvable_count > 0


def test_criterion_5_named_worked_values():
    with criterion(5, "golden values"):
        star = tree("a b;b c;b d")
        two_leaf = WeightFunction({"a": 1, "c": 1})
        assert cover_pebbling_number(star, two_leaf).gamma == 8
        assert verify_gamma(star, two_leaf).status == "PASS"

        p3 = tree("a b;b c")
        uniform = WeightFunction({"a": 1, "b": 1, "c": 1})
        assert cover_pebbling_number(p3, uniform).gamma == 7
        assert verify_gamma(p3, uniform).status == "PASS"

        k13 = tree("x c;y c;z c")
        assert t_pebbling_number(k13, "x", 1).value == 5
        assert t_pebbling_number(k13, "c", 1).value == 4
        assert verify_gamma(k13, WeightFunction({"x": 1})).oracle_gamma == 5
        assert verify_gamma(k13, WeightFunction({"c": 1})).oracle_gamma == 4

        assert t_pebbling_number(p3, "c", 2).value == 8
        assert verify_gamma(p3, WeightFunction({"c": 2})).oracle_gamma == 8


def test_criterion_6_extremal_lower_bound():
    with criterion(6, "extremal distribution is one short and unsolvable"):
        for t in all_shapes(6):
            for w in weight_functions(t, max_entry=2, max_total=4):
                gamma = cover_pebbling_number(t, w).gamma
                ex = extremal_distribution(t, w)
                assert ex.size == gamma - 1
                assert not is_solvable(t, ex, w).solvable
                assert not brute_solvable(t, ex, w, max_pebbles=512)


def test_criterion_7_structural_properties(random_family_results):
    with criterion(7, "order independence, majorization, monotonicity"):
        rng = random.Random(SEED ^ 0x7E57)
        # hat collapse is elimination-order independent
        for t, d, w, cert, _ in random_family_results:
            root = rng.choice(t.names)
            reference = hat_c(t, d, w, root)
            for _ in range(20):
                assert fold_hat_random_order(t, d, w, root, rng) == reference

        # greedy partition majorizes random valid partitions
        for _ in range(100):
            t = random_tree(rng.randint(2, 8), rng.randrange(2**32))
            forest = t.orient_toward((rng.choice(t.names),))
            greedy = max_path_partition(forest)
            for _ in range(100):
                other = random_path_partition(forest, rng)
                assert sum(other.sizes) == len(forest.arcs)
                assert majorize_cmp(greedy.sizes, other.sizes) >= 0

        # one extra pebble never breaks solvability
        checked = 0
        for t, d, w, cert, _ in random_family_results:
            if not cert.solvable or checked >= 2000:
                continue
            checked += 1
            v = rng.choice(t.names)
            bigger = Distribution({**dict(d.items()), v: d[v] + 1})
            assert is_solvable(t, bigger, w).solvable
        assert checked == 2000


def test_criterion_8_cli_determinism(tmp_path):
    with criterion(8, "CLI output is byte-identical across runs"):
        tree_file = tmp_path / "star.tree"
        tree_file.write_text("a b\nb c\nb d\n")
        weights_file = tmp_path / "w.map"
        weights_file.write_text("a 1\nc 1\n")
        dist_file = tmp_path / "d.map"
        dist_file.write_text("b 8\n")

        def invoke(argv):
            out, err = io.StringIO(), io.StringIO()
            code = cli_run(argv, stdout=out, stderr=err)
            return code, out.getvalue(), err.getvalue()

        code, moves_text, _ = invoke(
            ["witness", "--tree", str(tree_file), "--weights", str(weights_file),
             "--dist", str(dist_file)]
        )
        assert code == 0
        moves_file = tmp_path / "m.moves"
        moves_file.write_text(moves_text)

        batches = [
            ["partition", "--tree", str(tree_file), "--root", "a"],
            ["tpebble", "--tree", str(tree_file)],
            ["tpebble", "--tree", str(tree_file), "--root", "d", "-t", "2"],
            ["cover", "--tree", str(tree_file), "--weights", str(weights_file)],
            ["solvable", "--tree", str(tree_file), "--weights", str(weights_file),
             "--dist", str(dist_file)],
            ["witness", "--tree", str(tree_file), "--weights", str(weights_file),
             "--dist", str(dist_file)],
            ["simulate", "--tree", str(tree_file), "--dist", str(dist_file),
             "--moves", str(moves_file)],
            ["extremal", "--tree", str(tree_file), "--weights", str(weights_file)],
            ["verify", "--tree", str(tree_file), "--weights", str(weights_file)],
            ["gen-tree", "-n", "8", "--seed", "11"],
        ]
        for argv in batches:
            assert invoke(argv) == invoke(argv)
            assert invoke(argv + ["--json"]) == invoke(argv + ["--json"])
