import itertools
import json
import random
from math import comb
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treepebble import (
    BudgetExceededError,
    Distribution,
    Tree,
    UnknownVertexError,
    WeightFunction,
    brute_solvable,
    cover_pebbling_number,
    oracle,
    random_tree,
    verify_gamma,
)
from helpers import (
    all_shapes,
    compositions,
    enumerate_distributions,
    packed_compositions,
    random_distribution,
    random_weights,
    reference_solver,
    reference_verify_gamma,
    tree,
    unreduced_verify_gamma,
    weight_functions,
)


class TestBruteSolvable:
    def test_one_move_suffices(self):
        assert brute_solvable(tree("a b"), Distribution({"a": 2}), WeightFunction({"b": 1}))

    def test_stuck_single_pebbles(self):
        assert not brute_solvable(
            tree("a b"), Distribution({"a": 1, "b": 1}), WeightFunction({"b": 2})
        )

    def test_three_pebbles_cannot_cross_two_edges(self):
        assert not brute_solvable(
            tree("a b;b c"), Distribution({"a": 3}), WeightFunction({"c": 1})
        )

    def test_zero_demand_always_met(self):
        assert brute_solvable(tree("a b"), Distribution({}), WeightFunction({}))

    def test_vertex_bound_enforced(self):
        t = random_tree(9, 1)
        with pytest.raises(BudgetExceededError, match="vertices"):
            brute_solvable(t, Distribution({}), WeightFunction({}))

    def test_pebble_bound_enforced(self):
        with pytest.raises(BudgetExceededError, match="pebbles"):
            brute_solvable(tree("a b"), Distribution({"a": 25}), WeightFunction({}))

    def test_pebble_bound_far_above_the_start(self):
        # 2^6 pebbles cross the six edges of a path; one fewer cannot
        path = tree("a b;b c;c d;d e;e f;f g")
        end = WeightFunction({"g": 1})
        assert brute_solvable(path, Distribution({"a": 64}), end, max_pebbles=10**18)
        assert not brute_solvable(path, Distribution({"a": 63}), end, max_pebbles=10**18)

    @pytest.mark.parametrize("max_pebbles", [2.5, True, "9", None], ids=repr)
    def test_max_pebbles_must_be_an_int(self, max_pebbles):
        # unchecked, True and 2.5 were taken as bounds and "9" raised a bare TypeError
        with pytest.raises(ValueError) as info:
            brute_solvable(
                tree("a b;b c"), Distribution({"a": 4}), WeightFunction({"c": 1}),
                max_pebbles=max_pebbles,
            )
        assert str(info.value) == f"max_pebbles must be an int, got {max_pebbles!r}"

    def test_error_order(self):
        # vertex bound, then pebble bound, then demand names, then pebble names
        path = tree("v0 v1;v1 v2;v2 v3")
        many = Distribution({"zz": 30})
        unknown_demand = WeightFunction({"yy": 1})
        with pytest.raises(BudgetExceededError, match="^tree has 9 vertices, oracle bound is 8$"):
            brute_solvable(random_tree(9, 1), many, unknown_demand)
        with pytest.raises(BudgetExceededError, match="^30 pebbles exceed oracle bound 24$"):
            brute_solvable(path, many, unknown_demand)
        with pytest.raises(UnknownVertexError, match="'yy'"):
            brute_solvable(path, Distribution({"zz": 3}), unknown_demand)
        with pytest.raises(UnknownVertexError, match="'zz'"):
            brute_solvable(path, Distribution({"zz": 3}), WeightFunction({"v1": 1}))


class TestBudgets:
    # the limits are module constants, read at call time
    PATH = "v0 v1;v1 v2;v2 v3"
    STAR = "v0 v1;v0 v2;v0 v3;v0 v4"

    def test_memo_limit_in_brute_solvable(self, monkeypatch):
        # the search writes 7 states (see the threshold test below)
        monkeypatch.setattr(oracle, "MEMO_LIMIT", 5)
        with pytest.raises(BudgetExceededError, match="^solvability memo exceeded 5 states$"):
            brute_solvable(
                tree(self.STAR),
                Distribution({"v0": 1, "v1": 3, "v2": 3, "v4": 4}),
                WeightFunction({"v2": 1, "v3": 1, "v4": 1}),
            )

    def test_memo_limit_in_verify_gamma(self, monkeypatch):
        monkeypatch.setattr(oracle, "MEMO_LIMIT", 5)
        with pytest.raises(BudgetExceededError, match="^solvability memo exceeded 5 states$"):
            verify_gamma(tree(self.PATH), WeightFunction({"v3": 1}))

    @pytest.mark.parametrize(
        "dist,demand,verdict,states",
        [
            ({"v0": 1, "v1": 3, "v2": 3, "v4": 4}, {"v2": 1, "v3": 1, "v4": 1}, True, 7),
            ({"v2": 4, "v4": 2}, {"v1": 1, "v2": 1, "v4": 1}, False, 6),
        ],
    )
    def test_memo_limit_has_one_threshold(self, monkeypatch, dist, demand, verdict, states):
        # the budget is checked before every memo write, so a search that
        # writes `states` states raises under every smaller cap and answers
        # under the rest; met and cut states are never written
        star, d, w = tree(self.STAR), Distribution(dist), WeightFunction(demand)
        assert brute_solvable(star, d, w) == verdict
        outcomes = []
        for m in range(1, 41):
            monkeypatch.setattr(oracle, "MEMO_LIMIT", m)
            try:
                outcomes.append(brute_solvable(star, d, w))
            except BudgetExceededError as error:
                assert str(error) == f"solvability memo exceeded {m} states"
                outcomes.append(None)
        assert outcomes == [None] * (states - 1) + [verdict] * (41 - states)

    def test_start_cut_by_the_demand_weighted_sum(self, monkeypatch):
        # row a weighs a, b, c, d as 4, 2, 1, 1: the start holds 4, and meeting
        # the demand needs at least 4 + 1, so the start is cut before any move
        monkeypatch.setattr(oracle, "MEMO_LIMIT", 1)
        assert not brute_solvable(
            tree("a b;b c;b d"), Distribution({"d": 4}), WeightFunction({"a": 1, "c": 1})
        )

    def test_enumeration_limit(self, monkeypatch):
        # two leaves: sizes 0-2 have 1-3 distributions, size 3 has 4
        monkeypatch.setattr(oracle, "ENUM_LIMIT", 3)
        monkeypatch.setattr(oracle, "FULL_CONFIRM_LIMIT", min(oracle.FULL_CONFIRM_LIMIT, 3))
        with pytest.raises(
            BudgetExceededError, match="^4 distributions of size 3 exceed enumeration limit 3$"
        ):
            verify_gamma(tree(self.PATH), WeightFunction({"v3": 1}))

    def test_enumeration_limit_below_a_huge_pile_found_by_bisection(self, monkeypatch):
        # the pile holds 2 * 10^12 - 1 pebbles; the first size past the
        # limit is found without counting the distributions of every size
        calls, composition_count = [], oracle._composition_count

        def count(total, parts):
            calls.append(total)
            return composition_count(total, parts)

        monkeypatch.setattr(oracle, "_composition_count", count)
        with pytest.raises(
            BudgetExceededError,
            match="^10000001 distributions of size 10000000 exceed enumeration limit 10000000$",
        ):
            verify_gamma(tree("a b"), WeightFunction({"a": 10**12}), max_pebbles=10**18)
        assert len(calls) <= 100

    @pytest.mark.parametrize("max_pebbles", [2.5, 512.0, True, "512", None], ids=repr)
    def test_max_pebbles_must_be_an_int(self, max_pebbles):
        # unchecked, a float reaches the scan and fails there with a bare AttributeError
        with pytest.raises(ValueError) as info:
            verify_gamma(tree("a b;b c"), WeightFunction({"a": 1}), max_pebbles=max_pebbles)
        assert str(info.value) == f"max_pebbles must be an int, got {max_pebbles!r}"

    def test_all_support_scans_stay_within_the_enumeration_limit(self):
        assert oracle.FULL_CONFIRM_LIMIT <= oracle.ENUM_LIMIT


class TestEnumerateDistributions:
    def test_two_vertices_size_two(self):
        items = [dict(d.items()) for d in enumerate_distributions(tree("a b"), 2)]
        assert items == [{"a": 2}, {"a": 1, "b": 1}, {"b": 2}]

    def test_size_zero_is_single_empty(self):
        items = list(enumerate_distributions(tree("a b;b c"), 0))
        assert len(items) == 1
        assert items[0].size == 0

    def test_leaf_support(self):
        t = tree("a b;b c")
        items = [dict(d.items()) for d in enumerate_distributions(t, 2, support=t.leaves())]
        assert items == [{"a": 2}, {"a": 1, "c": 1}, {"c": 2}]

    def test_count_is_stars_and_bars(self):
        t = tree("a b;b c;c d")
        for size in range(6):
            got = sum(1 for _ in enumerate_distributions(t, size))
            assert got == comb(size + t.n - 1, t.n - 1)

    def test_budget_error_reports_count(self):
        t = random_tree(8, 3)
        with pytest.raises(BudgetExceededError) as exc:
            enumerate_distributions(t, 40, limit=1000)
        assert str(comb(40 + 7, 7)) in str(exc.value)


class TestVerifyGamma:
    def test_star_demand_on_two_leaves(self):
        report = verify_gamma(tree("a b;b c;b d"), WeightFunction({"a": 1, "c": 1}))
        assert report.status == "PASS"
        assert report.oracle_gamma == report.formula_gamma == 8
        assert dict(report.unsolvable_witness.items()) == {"d": 7}
        assert not brute_solvable(
            tree("a b;b c;b d"), report.unsolvable_witness, WeightFunction({"a": 1, "c": 1})
        )

    def test_edge_with_demand_one(self):
        report = verify_gamma(tree("a b"), WeightFunction({"b": 1}))
        assert report.status == "PASS"
        assert report.oracle_gamma == 2
        assert dict(report.unsolvable_witness.items()) == {"a": 1}

    def test_uniform_path(self):
        report = verify_gamma(tree("a b;b c"), WeightFunction({"a": 1, "b": 1, "c": 1}))
        assert report.status == "PASS"
        assert report.oracle_gamma == 7

    def test_zero_demand(self):
        report = verify_gamma(tree("a b"), WeightFunction({}))
        assert report.status == "PASS"
        assert report.oracle_gamma == 0
        assert report.unsolvable_witness is None

    def test_witness_size_is_gamma_minus_one(self):
        report = verify_gamma(tree("a b;b c;c d"), WeightFunction({"d": 2}))
        assert report.unsolvable_witness.size == report.oracle_gamma - 1

    def test_text_and_json_forms(self):
        report = verify_gamma(tree("a b"), WeightFunction({"b": 1}))
        payload = report.to_json_dict()
        assert payload["status"] == "PASS"
        assert payload["witness"] == {"a": 1}
        json.dumps(payload)  # must be serializable

    def test_leaf_mode_on_large_gamma(self):
        p6 = tree("a b;b c;c d;d e;e f")
        report = verify_gamma(p6, WeightFunction({"a": 2, "f": 2}))
        assert report.status == "PASS"
        assert report.oracle_gamma == 66
        assert report.confirmation == "leaves"

    def test_scan_order_on_all_small_trees(self):
        # distributions_checked counts the scan's steps, so this pins its order
        reports = [
            verify_gamma(t, w)
            for t in all_shapes(4)
            for w in weight_functions(t, max_entry=2, max_total=4)
        ]
        assert len(reports) == 130
        assert sum(r.distributions_checked for r in reports) == 70_930
        for r in reports:
            assert r.confirmation == "full"
            assert r.unsolvable_witness.size == r.oracle_gamma - 1

    def test_scan_ceiling_enforced(self):
        p6 = tree("a b;b c;c d;d e;e f")
        with pytest.raises(BudgetExceededError, match="max_pebbles"):
            verify_gamma(p6, WeightFunction({"a": 2, "f": 2}), max_pebbles=10)


def _scan_cases():
    # every demand up to 5 vertices, the zero demand included, and seeded
    # demands at 6 and 7 vertices
    cases = [
        (t, w)
        for t in all_shapes(5)
        for w in [WeightFunction({}), *weight_functions(t, max_entry=2, max_total=4)]
    ]
    rng = random.Random(20261020)
    for n in (6, 7):
        for _ in range(8):
            t = random_tree(n, rng.randrange(2**32))
            cases.append((t, random_weights(t, rng.randint(1, 3), rng)))
    return cases


SCAN_CASES = _scan_cases()


def _decisions(report):
    return report.formula_gamma, report.oracle_gamma, report.status, report.confirmation


def _outcome(scan, t, w, **kwargs):
    """What a size scan decides, or the type and message of the error it raised."""
    try:
        return _decisions(scan(t, w, **kwargs))
    except BudgetExceededError as error:
        return type(error), str(error)


class TestClimbAgainstTheReferenceScan:
    """The climb certifies sizes below gamma by extending the last witness;
    the reference scans every size in lex order. Both must decide the same."""

    def test_same_decisions_and_a_largest_unsolvable_witness(self):
        assert len(SCAN_CASES) == 8 + 415 + 16
        for t, w in SCAN_CASES:
            got, ref = verify_gamma(t, w), reference_verify_gamma(t, w)
            case = (t.edges, dict(w.items()))
            assert _decisions(got) == _decisions(ref), case
            assert got.status == "PASS", case
            witness = got.unsolvable_witness
            if ref.witness is None:
                assert witness is None, case
                continue
            assert witness.size == got.oracle_gamma - 1, case
            assert brute_solvable(t, witness, w, max_pebbles=witness.size) is False, case

    def test_leaf_pile_is_one_pebble_short(self):
        # the climb starts above the pile only when the search proves it
        # unsolvable; the raw move space, with no cut and no arc
        # restriction, must agree that it is, and that one more pebble on
        # the same leaf solves it
        for t, w in SCAN_CASES:
            if not w.support:
                continue
            leaf, pile = oracle._leaf_pile(t, w)
            solve = reference_solver(t, w, prune=False)
            counts = [0] * t.n
            counts[leaf] = pile
            case = (t.edges, dict(w.items()))
            assert t.names[leaf] in t.leaves() and pile >= 0, case
            assert solve(tuple(counts)) is False, case
            counts[leaf] += 1
            assert solve(tuple(counts)) is True, case

    def test_same_errors_under_pebble_ceilings(self):
        for t, w in SCAN_CASES[::5]:
            gamma = cover_pebbling_number(t, w).gamma
            for ceiling in {-1, gamma // 2, gamma - 1, gamma}:
                expected = _outcome(reference_verify_gamma, t, w, max_pebbles=ceiling)
                got = _outcome(verify_gamma, t, w, max_pebbles=ceiling)
                assert got == expected, (t.edges, dict(w.items()), ceiling)

    def test_same_errors_under_enumeration_limits(self, monkeypatch):
        # caps that bite at half of gamma (within the sizes the leaf pile
        # covers), below gamma, at gamma and at the confirmation; an
        # all-support scan is never held to ENUM_LIMIT, so its own cap is
        # kept within it, as it is in the module
        full_limit = oracle.FULL_CONFIRM_LIMIT
        for t, w in SCAN_CASES[::5]:
            gamma, leaves = cover_pebbling_number(t, w).gamma, len(t.leaves())
            counts = (
                oracle._composition_count(gamma // 2, leaves),
                oracle._composition_count(max(gamma - 1, 0), leaves),
                oracle._composition_count(gamma, leaves),
                oracle._composition_count(gamma, t.n),
            )
            for limit in {0, *(c - 1 for c in counts)}:
                monkeypatch.setattr(oracle, "ENUM_LIMIT", limit)
                monkeypatch.setattr(oracle, "FULL_CONFIRM_LIMIT", min(full_limit, limit))
                expected = _outcome(reference_verify_gamma, t, w)
                assert _outcome(verify_gamma, t, w) == expected, (t.edges, dict(w.items()), limit)

    def test_same_errors_under_memo_limits(self, monkeypatch):
        # a scan raises exactly under the caps below the number of states it
        # writes; the two scans write different numbers, so between those
        # counts one answers and one raises, and below and above both they
        # must agree
        def least_memo_limit(scan, t, w):
            def answers(cap):
                monkeypatch.setattr(oracle, "MEMO_LIMIT", cap)
                outcome = _outcome(scan, t, w)
                if outcome[0] is BudgetExceededError:
                    assert outcome[1] == f"solvability memo exceeded {cap} states"
                    return False
                return True

            lo, hi = -1, 1
            while not answers(hi):
                lo, hi = hi, 2 * hi
            while hi - lo > 1:
                mid = (lo + hi) // 2
                lo, hi = (lo, mid) if answers(mid) else (mid, hi)
            return hi

        for t, w in SCAN_CASES[::11]:
            case = (t.edges, dict(w.items()))
            caps = sorted(least_memo_limit(scan, t, w) for scan in (verify_gamma, reference_verify_gamma))
            for cap in {0, caps[0] // 2, caps[0] - 1, caps[1]} - {-1}:
                monkeypatch.setattr(oracle, "MEMO_LIMIT", cap)
                expected = _outcome(reference_verify_gamma, t, w)
                assert _outcome(verify_gamma, t, w) == expected, (case, cap)


def _twin_cases():
    # every small demand up to 6 vertices, and seeded demands at 7 and 8
    cases = [(t, w) for t in all_shapes(6) for w in weight_functions(t, max_entry=2, max_total=3)]
    rng = random.Random(20261021)
    for n in (7, 8):
        for _ in range(6):
            t = random_tree(n, rng.randrange(2**32))
            cases.append((t, random_weights(t, rng.randint(1, 2), rng)))
    return cases


class TestTwinOrbits:
    """The scan searches one start per orbit of swaps of twin leaves and
    counts the rest; the unreduced scan searches every start. Both must
    report the same gamma, witness, confirmation and count."""

    def test_same_report_as_the_unreduced_scan(self):
        cases = _twin_cases()
        assert len(cases) == 697 + 12
        for t, w in cases:
            got, expected = verify_gamma(t, w), unreduced_verify_gamma(t, w)
            assert got == expected, (t.edges, dict(w.items()))

    def test_capped_odometer_yields_the_canonical_subsequence(self):
        # under a zero demand, leaves with one neighbour are twins
        capped = 0
        for t in all_shapes(7):
            _, zero, unit, _ = oracle._solver(t, WeightFunction({}), 6)
            for members in (range(t.n), [t.index[name] for name in t.leaves()]):
                caps = oracle._twin_caps(t, [0] * t.n, members)
                capped += max(caps) >= 0
                units = [unit[v] for v in members]
                for total in range(7):
                    canonical = [
                        zero + sum(map(mul, c, units))
                        for c in compositions(total, len(units))
                        if all(j < 0 or c[i] <= c[j] for i, j in enumerate(caps))
                    ]
                    got = list(packed_compositions(total, units, zero, caps))
                    assert got == canonical, (t.edges, list(members), total)
        assert capped == 2 * 16  # 16 shapes of up to 7 vertices have twin leaves

    def test_composition_rank_is_the_position_in_the_scan(self):
        for parts in range(1, 8):
            for total in range(7):
                for rank, c in enumerate(compositions(total, parts)):
                    assert oracle._composition_rank(list(c)) == rank, c

    @pytest.mark.parametrize(
        "doc,demand,fewer",
        [
            ("c a;c b;c d;c x;x y", {"y": 2}, True),  # a, b and d are twins
            ("c a;c b;c d;c x;x y", {"a": 1, "b": 2, "y": 1}, False),  # no two leaves share a demand
            ("a b;b c;c d;d e", {"e": 2}, False),  # a path: no two leaves share a neighbour
        ],
    )
    def test_twins_save_solver_calls(self, monkeypatch, doc, demand, fewer):
        # the same pruned scan with and without twin caps: the caps save
        # calls exactly when there are twins, and the count is still the
        # number of starts the unreduced scan searches
        calls, solver = [], oracle._solver

        def counting_solver(*args):
            solve, *rest = solver(*args)

            def counted(state):
                calls.append(state)
                return solve(state)

            return (counted, *rest)

        monkeypatch.setattr(oracle, "_solver", counting_solver)
        t, w = tree(doc), WeightFunction(demand)
        report = verify_gamma(t, w)
        capped = len(calls)
        calls.clear()
        with monkeypatch.context() as m:
            m.setattr(oracle, "_twin_caps", lambda tree, demand, members: [-1] * len(members))
            uncapped_report = verify_gamma(t, w)
        uncapped = len(calls)
        assert uncapped_report == report
        calls.clear()
        unreduced_verify_gamma(t, w)
        assert report.distributions_checked == len(calls)
        assert (capped < uncapped) if fewer else (capped == uncapped)


class TestPrunedWalk:
    """The size scan walks the compositions of a size as a prefix tree and
    skips every completion of a solvable prefix; the reference loop hands
    every capped composition to the solver. Both must stop at the same one."""

    def test_same_first_unsolvable_composition_as_the_reference_loop(self):
        # the same composition has the same rank, so the scan counts the
        # same starts; TestTwinOrbits checks that count against the
        # unreduced scan's solver calls
        instances = pruned = 0
        for t in all_shapes(6):
            leaves = [t.index[name] for name in t.leaves()]
            for w in weight_functions(t):
                gamma = cover_pebbling_number(t, w).gamma
                solve, zero, unit, _ = oracle._solver(t, w, gamma)
                walked = 0

                def counted(state):
                    nonlocal walked
                    walked += 1
                    return solve(state)

                for members in (range(t.n), leaves):
                    units = [unit[v] for v in members]
                    caps = oracle._twin_caps(t, w.row(t), members)
                    # every size the scan could confirm over these supports
                    for size in range(gamma + 1):
                        if oracle._composition_count(size, len(units)) > oracle.FULL_CONFIRM_LIMIT:
                            break
                        walked = 0
                        got = oracle._first_unsolvable(counted, size, units, zero, caps)
                        expected, looped = None, 0
                        for looped, state in enumerate(packed_compositions(size, units, zero, caps), 1):
                            if not solve(state):
                                expected = state
                                break
                        assert got == expected, (t.edges, dict(w.items()), list(members), size)
                        instances += 1
                        pruned += walked < looped
        assert instances == 56_593 and pruned > 0


def _max_unsolvable_size(t, w, ceiling, support=None):
    best = -1
    for size in range(ceiling + 1):
        found = False
        for d in enumerate_distributions(t, size, support=support):
            if not brute_solvable(t, d, w, max_pebbles=ceiling):
                found = True
                break
        if not found:
            return best
        best = size
    return best


@pytest.mark.parametrize(
    "doc,wmap",
    [
        ("a b;b c", {"c": 1}),
        ("a b;b c", {"a": 1, "c": 1}),
        ("a b;b c;b d", {"b": 2}),
        ("a b;b c;b d", {"a": 1, "c": 1}),
        ("a b;b c;c d;c e", {"a": 1, "d": 1}),
    ],
)
def test_leaf_restriction_is_complete(doc, wmap):
    # the largest unsolvable distribution over leaf supports only is as large
    # as the largest over all supports
    t = tree(doc)
    w = WeightFunction(wmap)
    ceiling = cover_pebbling_number(t, w).gamma + 1
    full = _max_unsolvable_size(t, w, ceiling)
    leaf_only = _max_unsolvable_size(t, w, ceiling, support=t.leaves())
    assert leaf_only == full


def test_packed_solver_matches_reference():
    # the packed fields are sized by the start's pebble count, so starts at
    # that count on one vertex and weights far above it are the edge cases
    rng = random.Random(20261019)
    checked = 0
    for _ in range(500):
        t = random_tree(rng.randint(1, 7), rng.randrange(2**32))
        demanded = rng.sample(t.names, min(t.n, rng.randint(1, 4)))
        w = WeightFunction({v: rng.choice((1, 1, 2, 3, 2**40, 2**62)) for v in demanded})
        bound = rng.randint(1, 12)
        starts = (
            Distribution({}),
            random_distribution(t, rng.randrange(bound), rng),
            Distribution({rng.choice(t.names): bound}),
        )
        for d in starts:
            got = brute_solvable(t, d, w, max_pebbles=bound)
            # against the reference's pruned search and its raw move space
            for prune in (True, False):
                expected = reference_solver(t, w, prune)(tuple(d.row(t)))
                assert got == expected, (t.edges, dict(d.items()), dict(w.items()), prune)
                checked += 1
    assert checked == 3000


def test_arc_restriction_matches_the_raw_move_space():
    # the oracle never moves a pebble into a branch without demand; the
    # reference without the cut tries every move, so this checks both
    # shortcuts on every start, through one shared memo per instance
    cases = 0
    for t in all_shapes(5):
        for w in weight_functions(t, max_entry=2, max_total=3):
            solve, zero, unit, _ = oracle._solver(t, w, 7)
            expected = reference_solver(t, w, prune=False)
            for size in range(8):
                for counts in compositions(size, t.n):
                    got = solve(zero + sum(map(mul, counts, unit)))
                    assert got == expected(counts), (t.edges, counts, dict(w.items()))
                    cases += 1
    assert cases == 140_788


@pytest.mark.parametrize(
    "doc,demand",
    [
        ("a b;a c;a d", {"d": 2}),  # two leaves without demand on one neighbour
        ("a b;b c", {"b": 2, "c": 1}),  # a leaf whose neighbour is demanded
        ("a b", {"b": 3}),  # the 2-vertex tree
        ("a b;a c;a d;d e", {"b": 1, "e": 2}),  # a demanded leaf beside one without demand
    ],
)
def test_leaf_fold_matches_the_raw_move_space(doc, demand):
    # every leaf without demand gets 0-12 pebbles, odd and even, which the
    # oracle folds into its neighbour before it searches; every other vertex
    # gets 0-2; the reference searches the unfolded start's raw move space
    t, w = tree(doc), WeightFunction(demand)
    row = w.row(t)
    expected = reference_solver(t, w, prune=False)
    ranges = [range(13) if len(t._adj[x]) == 1 and not row[x] else range(3) for x in range(t.n)]
    for counts in itertools.product(*ranges):
        d = Distribution.from_row(t, list(counts))
        assert brute_solvable(t, d, w, max_pebbles=32) == expected(counts), (doc, counts)


def test_leaf_fold_matches_the_raw_move_space_on_seeded_trees():
    # starts of up to 16 pebbles, most of them piled on leaves without demand,
    # through one shared solver per instance (its memo holds folded starts)
    # and through a fresh one per start
    rng = random.Random(20261021)
    verdicts = []
    for _ in range(40):
        t = random_tree(rng.choice((6, 7)), rng.randrange(2**32))
        w = random_weights(t, rng.randint(1, 4), rng)
        row = w.row(t)
        folded = [x for x in range(t.n) if len(t._adj[x]) == 1 and not row[x]]
        solve, zero, unit, _ = oracle._solver(t, w, 16)
        expected = reference_solver(t, w, prune=False)
        for _ in range(50):
            counts = [0] * t.n
            size = rng.randint(0, 16)
            for x in folded:
                counts[x] = rng.randint(0, size - sum(counts))
            for _ in range(size - sum(counts)):
                counts[rng.randrange(t.n)] += 1
            got = solve(zero + sum(map(mul, counts, unit)))
            assert got == expected(tuple(counts)), (t.edges, counts, dict(w.items()))
            assert brute_solvable(t, Distribution.from_row(t, counts), w) == got
            verdicts.append(got)
    assert len(verdicts) == 2000 and 500 < sum(verdicts) < 1500


def test_packed_compositions_follow_the_reference_order():
    t = random_tree(7, 1)
    _, zero, unit, _ = oracle._solver(t, WeightFunction({t.names[0]: 1}), 8)
    for parts in range(1, 8):
        units = unit[:parts]
        for total in range(9):
            expected = [zero + sum(map(mul, c, units)) for c in compositions(total, parts)]
            assert list(packed_compositions(total, units, zero)) == expected


def test_packed_states_hash_apart_at_wide_fields():
    # an int hashes as x mod 2^61 - 1: count fields 61 bits wide would hash
    # a state as little more than its size, and the memo would probe chains
    # of thousands; 10^18 and 2^120 pebbles make 61- and 122-bit fields
    for seed in (1, 2, 3):
        t = random_tree(7, seed)
        w = WeightFunction({t.names[0]: 2, t.names[3]: 1})
        for size in (512, 10**18, 2**120):
            _, zero, unit, _ = oracle._solver(t, w, size)
            states = list(packed_compositions(10, unit, zero))
            assert len({hash(x) for x in states}) > len(states) // 2, (seed, size)


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 6),
    seed=st.integers(0, 10**6),
    d_size=st.integers(0, 10),
    w_total=st.integers(0, 3),
)
def test_prune_never_changes_the_verdict(n, seed, d_size, w_total):
    rng = random.Random(seed)
    t = random_tree(n, seed)
    d = random_distribution(t, d_size, rng)
    w = random_weights(t, w_total, rng)
    assert brute_solvable(t, d, w) == reference_solver(t, w, False)(tuple(d.row(t)))


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(2, 8),
    seed=st.integers(0, 10**6),
    d_size=st.integers(1, 12),
    w_total=st.integers(1, 4),
    data=st.data(),
)
def test_adding_a_pebble_preserves_solvability(n, seed, d_size, w_total, data):
    rng = random.Random(seed)
    t = random_tree(n, seed)
    d = random_distribution(t, d_size, rng)
    w = random_weights(t, w_total, rng)
    if not brute_solvable(t, d, w):
        return
    v = data.draw(st.sampled_from(t.names))
    bigger = Distribution({**dict(d.items()), v: d[v] + 1})
    assert brute_solvable(t, bigger, w)


class TestRandomTree:
    def test_golden_five_vertex_tree(self):
        t = random_tree(5, 42)
        assert t.edges == (("v1", "v2"), ("v1", "v3"), ("v1", "v4"), ("v3", "v5"))

    def test_single_vertex(self):
        t = random_tree(1, 7)
        assert t.names == ("v1",)
        assert t.edges == ()

    def test_two_vertices(self):
        assert random_tree(2, 99).edges == (("v1", "v2"),)

    def test_deterministic(self):
        for seed in range(10):
            assert random_tree(8, seed) == random_tree(8, seed)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 40), seed=st.integers(0, 10**6))
    def test_always_a_valid_tree(self, n, seed):
        t = random_tree(n, seed)
        assert t.n == n
        assert len(t.edges) == n - 1  # Tree construction already checked connectivity

    def test_refuses_more_vertices_than_its_ceiling(self, monkeypatch):
        # tests/test_limits.py asks for 10^12 vertices from the CLI and the library under a
        # capped address space; here a lowered ceiling shows where the refusal starts
        monkeypatch.setattr(oracle, "RANDOM_TREE_LIMIT", 5)
        assert random_tree(5, 0).n == 5
        with pytest.raises(BudgetExceededError, match="^6 vertices exceed random tree limit 5$"):
            random_tree(6, 0)

    def test_name_padding_keeps_numeric_order(self):
        t = random_tree(12, 5)
        assert t.names[0] == "v01"
        assert t.names == tuple(sorted(t.names))
