"""Brute-force ground truth, independent of the closed-form machinery.

One solver per (tree, demand) pair decides solvability by exhaustive
depth-first search over the states reachable by legal pebbling moves (each
move burns one pebble, so the search terminates), memoizing verdicts across
start states. The cover number is re-derived by scanning distribution sizes
upward until every distribution of a size is solvable. Nothing here consults
path partitions or score formulas. The search has three shortcuts, all
derived directly from the move definition: a weighted-sum cut of hopeless
states, an arc restriction that never moves a pebble into a branch
without demand, and a fold of each start's leaves without demand into
their neighbours. It tries the nearest approaching move first, an order that
changes no verdict. The size scan adds the leaf-support restriction for
witness hunting (a maximum-size unsolvable distribution always exists with
all pebbles on leaves), and climbs: unsolvable distributions are closed
downward (a move open to a distribution is open to every larger one), so
each size first tries the last size's unsolvable witness plus one leaf
pebble, and enumerates the size only when every such extension is
solvable, over all supports when it has at most ``FULL_CONFIRM_LIMIT``
distributions and over leaves otherwise. That always happens at the cover
number itself, the first size with no unsolvable start. The enumeration
prunes by the same closure: solvable distributions are closed upward, so
it walks the compositions as a prefix tree, in the same lex order, solves
a prefix alone, with every later coordinate 0, and skips every completion
of a solvable prefix. Each completion dominates its
prefix, so every skipped start is solvable, and the walk meets the
unsolvable starts in the same order: it stops at the same first one. Prefix
solves share the memo with every other start. The scan does not
start at size 0: it first solves one pile on the leaf a lone pile costs
most to meet the demand from, one pebble short of that cost. When the
search proves the pile unsolvable, downward closure gives every smaller
size an unsolvable distribution too, so the scan starts one size above
the pile, from the pile as witness. The price only picks the pile; the
search decides it. Twin leaves, leaves with the same neighbour and the
same demand, can be swapped by an automorphism of (T, w), so a start and
its swap share a verdict: the scan searches one start per orbit of such
swaps, the canonical one whose counts do not increase along each twin
class, and gives the others their canonical twin's verdict. A report's
``distributions_checked`` counts every start state decided, by a search,
by its canonical twin's verdict or by a solvable prefix, the pile and the
extensions included: the starts a scan with neither rule would search.

Each search state is one int: a count field per vertex, a met field per
demanded vertex and a filter field per weighted sum, each biased so that
one bit says whether it reaches its threshold. The widths come from the
caller's pebble bound, so every field stays in range, a move is one add
and each test is one mask.
"""

from __future__ import annotations

import heapq
import random
import sys
from dataclasses import dataclass
from math import comb
from operator import mul
from typing import Callable, Sequence

from .checked import require_int
from .cover import cover_pebbling_number
from .errors import BudgetExceededError
from .tree import Distribution, Tree, WeightFunction, tree_id

DEFAULT_MAX_PEBBLES = 24
MAX_VERTICES = 8
ENUM_LIMIT = 10**7
MEMO_LIMIT = 10**7
# a size with more distributions than this is scanned over leaf supports
# only, or the size scans would dwarf every other runtime bound; at most
# ENUM_LIMIT, so an all-support scan never needs that limit
FULL_CONFIRM_LIMIT = 10_000
# random_tree's ceiling, checked before it allocates: 10^6 vertices take ~7 s and ~340 MB
RANDOM_TREE_LIMIT = 10**7


def _solver(
    tree: Tree, weights: WeightFunction, size: int
) -> tuple[Callable[[int], bool], int, list[int], Callable[[int], list[int]]]:
    """``solve(x)``: can some move sequence from packed state ``x`` meet the demand?

    Three shortcuts, none of which changes a verdict. The cut: a state is
    hopeless when some weighted pebble sum sum_x c_x * w_x is below the
    demand's own sum_x demand_x * w_x, for a row w that changes by at most a
    factor 2 across every edge. A move u -> v changes that sum by
    w_v - 2*w_u <= 0, so it never grows, and a state meeting the demand
    holds at least the demand's sum. The rows are, per demanded j,
    2^{-d(x, j)} scaled by 2^{max d} to stay in integers. The pebble total
    needs no row: with one demanded j, j's own row implies it, since no
    weight 2^{max d - d} exceeds the 2^{max d} that j's demand carries.

    The arcs: a move u -> v is tried only when v's side B of the edge uv
    holds a demanded vertex, that is d(v, j) < d(u, j) for some demanded j.
    Take a solution from any state with the fewest moves. By the No-Cycle
    Lemma (Milans and Clark, "The complexity of graph pebbling", 2006) its
    moves form no directed cycle, which on a tree means no edge is used
    both ways. Say it moves u -> v into a B without demand. It makes no
    move v -> u, so no pebble leaves B. Delete every u -> v move and every
    move inside B. A vertex outside B then sees the same moves in the same
    order, except that u keeps two more pebbles per deleted move, so every
    kept move is still legal and the end state outside B is no smaller.
    All demand lies outside B, so this shorter sequence is still a
    solution, a contradiction. Every state's verdict is therefore the same
    over the restricted arcs, and memoized verdicts mean the same either way.

    The fold: before it searches, ``solve`` moves floor(c/2) times from
    each leaf l without demand that holds c pebbles to its neighbour u, and
    deletes the odd pebble left on l. l's side of the edge lu is l alone and
    holds no demand, so by the arc restriction a fewest-move solution never
    moves into l, and it moves some m <= floor(c/2) times l -> u. Making all
    floor(c/2) of those moves first keeps every later move legal, as u holds
    at least as many pebbles at every step, and every vertex but l ends
    with at least as many, so the start shares its verdict with the state
    those moves reach. The pebble left on l never moves and meets no
    demand: deleting it from a solution leaves a solution, and a solution
    without it is one with it, since a move open to a distribution is open
    to every larger one. A fold is legal moves and a deletion, so every
    field stays in range. Only starts are folded, not the states a search
    reaches.

    Arcs are tried nearest first: by the distance from u to the nearest
    demanded vertex the move approaches, then by the most demand it
    approaches, ties in (u, v) order. A verdict is a property of the state
    and the states form an acyclic graph (each move burns a pebble), so the
    order changes how soon a search ends and which states it visits, never
    a verdict. All calls share one memo, capped at ``MEMO_LIMIT`` states. It
    holds only states no mask decides: a met state and a hopeless one are
    each decided by one mask. A folded start shares its verdict with every
    start that folds to it, so the memo holds folded starts next to the
    states that searches reach, and a start whose fold was searched before
    is one lookup.

    A state of at most ``size`` pebbles is one int of fields. Each field is
    a sum v = sum_x c_x * r_x held against a threshold t and stored as
    v - t + H, with H a power of two above every v, so bit H is set iff
    v >= t. A count field per vertex (t = 2: it may move), a met field per
    demanded vertex (t = its demand) and a filter field per row (t = the
    demand's sum). Every v stays in [0, H) and t is clamped to at most
    max v + 1 <= H, which changes no test, so each field stays in [0, 2H):
    a move is one add that never carries across fields, "met" is one mask
    with every met bit set and "hopeless" one mask with a filter bit clear.
    Returns ``solve``, the packed empty distribution, the packed pebble of
    each vertex, and the decoder of a state's counts.
    """
    n, adj = tree.n, tree._adj
    demand = weights.row(tree)
    support = [j for j, d in enumerate(demand) if d]
    eye = [[int(x == i) for x in range(n)] for i in range(n)]
    fields = [(row, 2) for row in eye] + [(eye[j], demand[j]) for j in support]
    drows = [tree._depths(*tree._rooting(j)) for j in support]
    for drow in drows:
        top = max(drow)
        row = [1 << (top - d) for d in drow]
        fields.append((row, sum(map(mul, demand, row))))
    zero, unit, bits, layout, shift = 0, [0] * n, [], [], 0
    for row, floor in fields:
        top = size * max(row)  # the field's largest sum
        width = top.bit_length() + 1
        high = 1 << (width - 1)
        bias = high - min(floor, top + 1)
        zero += bias << shift
        unit = [u + (r << shift) for u, r in zip(unit, row)]
        bits.append(high << shift)
        layout.append((shift, 2 * high - 1, bias))
        # an int hashes as x mod 2^61 - 1, so fields 61 bits apart would
        # hash as their sum: no field is a multiple of 61 bits wide
        shift += width + (width % sys.hash_info.modulus.bit_length() == 0)
    met, cut = sum(bits[n : n + len(support)]), sum(bits[n + len(support) :])
    arcs = []
    for u in range(n):
        for v in adj[u]:
            # the demanded vertices on v's side of the edge, and their distance from u
            ahead = [(drow[u], demand[j]) for j, drow in zip(support, drows) if drow[v] < drow[u]]
            if ahead:
                arcs.append((min(ahead)[0], -sum(d for _, d in ahead), u, v))
    arcs.sort()  # ties in (u, v) order
    steps = [(bits[u], unit[v] - 2 * unit[u]) for _, _, u, v in arcs]
    # each leaf without demand: its count field and the packed pebble of it and its neighbour
    folds = [
        (*layout[x], unit[x], unit[adj[x][0]])
        for x in range(n)
        if len(adj[x]) == 1 and not demand[x]
    ]
    memo: dict[int, bool] = {}
    lookup = memo.get

    def full() -> BudgetExceededError:
        return BudgetExceededError(f"solvability memo exceeded {MEMO_LIMIT} states")

    def solve(start: int) -> bool:
        for s, mask, bias, leaf, into in folds:
            c = ((start >> s) & mask) - bias
            if c > 0:
                start += (c >> 1) * into - c * leaf
        verdict = lookup(start)
        if verdict is not None:
            return verdict
        if start & met == met:
            return True
        if start & cut != cut:
            return False
        frames = [(start, iter(steps))]
        while frames:
            state, succ = frames[-1]
            for bit, step in succ:
                if not state & bit:
                    continue
                nxt = state + step
                verdict = lookup(nxt)
                if verdict is None:
                    # a met or hopeless state costs one mask, so it is never memoized
                    if nxt & met == met:
                        verdict = True
                    elif nxt & cut != cut:
                        continue
                    else:
                        frames.append((nxt, iter(steps)))
                        break
                if verdict:
                    # the whole stack is a chain of moves reaching a met demand;
                    # its states are distinct and new, so one check stands for
                    # the check before each write
                    if len(memo) + len(frames) > MEMO_LIMIT:
                        raise full()
                    for s, _ in frames:
                        memo[s] = True
                    return True
            else:
                if len(memo) >= MEMO_LIMIT:  # no state is written twice
                    raise full()
                memo[state] = False
                frames.pop()
        return False

    def row_of(state: int) -> list[int]:
        return [((state >> s) & mask) - bias for s, mask, bias in layout[:n]]

    return solve, zero, unit, row_of


def brute_solvable(
    tree: Tree,
    dist: Distribution,
    weights: WeightFunction,
    *,
    max_pebbles: int = DEFAULT_MAX_PEBBLES,
) -> bool:
    """Exhaustive reachability check: can some move sequence meet the demand?

    States that a weighted pebble sum proves hopeless are cut (see ``_solver``),
    which never changes the verdict.
    """
    require_int(max_pebbles, "max_pebbles")
    if tree.n > MAX_VERTICES:
        raise BudgetExceededError(f"tree has {tree.n} vertices, oracle bound is {MAX_VERTICES}")
    if dist.size > max_pebbles:
        raise BudgetExceededError(f"{dist.size} pebbles exceed oracle bound {max_pebbles}")
    solve, zero, unit, _ = _solver(tree, weights, dist.size)
    return solve(zero + sum(map(mul, dist.row(tree), unit)))


def _first_unsolvable(
    solve: Callable[[int], bool], total: int, units: list[int], base: int, caps: list[int]
) -> int | None:
    """The first state ``base`` plus sum_i c_i * units[i], over the weak
    compositions c of ``total`` with the first coordinate descending, that
    ``solve`` rejects, or None. Every tree has a leaf, so ``units`` is never
    empty.

    ``caps[i] = j``, with j < i, keeps only the compositions with c_i <= c_j,
    and -1 caps nothing: the capped sequence is the uncapped one with the
    other compositions left out, in the same order.

    A walk over the prefix tree of that order, which skips every completion
    of a solvable prefix: solvable states are closed upward, and each
    completion dominates its prefix. A prefix (c_0, ..., c_i) is solved
    alone, every later coordinate 0, when 0 < c_i < rest, the pebbles that
    coordinates i onward share: at c_i = 0 it is its parent, already found
    unsolvable, and at c_i = rest it is its one completion. A prefix that
    ends one coordinate short of the last has one completion too, so only
    that completion is solved.
    """
    last = len(units) - 1
    if not last:
        state = base + total * units[0]
        return None if solve(state) else state
    counts = [0] * last

    def walk(i: int, rest: int, state: int) -> int | None:
        unit, cap = units[i], caps[i]
        top = rest if cap < 0 else min(rest, counts[cap])
        if i == last - 1:
            # each c_i from top down to lo leaves rest - c_i to the last
            # coordinate, within its cap
            final = caps[last]
            lo = 0
            if final == i:
                lo = (rest + 1) // 2
            elif final >= 0:
                lo = max(rest - counts[final], 0)
            step = units[last] - unit
            state += top * unit + (rest - top) * units[last]
            for _ in range(top - lo + 1):
                if not solve(state):
                    return state
                state += step
            return None
        for c in range(top, -1, -1):
            counts[i] = c
            prefix = state + c * unit
            if c == rest:
                if not solve(prefix):
                    return prefix
            elif c == 0 or not solve(prefix):
                bad = walk(i + 1, rest - c, prefix)
                if bad is not None:
                    return bad
        return None

    return walk(0, total, base)


def _composition_rank(counts: list[int]) -> int:
    """How many weak compositions of the same total into as many parts come
    before ``counts`` in ``_first_unsolvable``'s order.

    Those that agree with it before coordinate i and hold more at i leave at
    most rest - c_i - 1 pebbles to the q coordinates after i, and there are
    C(rest - c_i - 1 + q, q) ways to do that.
    """
    rank, rest, after = 0, sum(counts), len(counts)
    for c in counts[:-1]:
        after -= 1
        rank += comb(rest - c - 1 + after, after)
        rest -= c
    return rank


def _twin_caps(tree: Tree, demand: list[int], members: Sequence[int]) -> list[int]:
    """For each position of ``members``, vertex indices in index order, the
    position of the last member before it that is its twin leaf, or -1.

    Twin leaves have the same neighbour and the same demand, so swapping two
    is an automorphism of (T, w), and a start and its swap share a verdict.
    """
    adj = tree._adj
    last: dict[tuple[int, int], int] = {}
    caps = []
    for pos, v in enumerate(members):
        row = adj[v]
        if len(row) == 1:
            key = (row[0], demand[v])
            caps.append(last.get(key, -1))
            last[key] = pos
        else:
            caps.append(-1)
    return caps


def _leaf_pile(tree: Tree, weights: WeightFunction) -> tuple[int, int]:
    """``(leaf, pebbles)``: the leaf whose lone pile needs the most pebbles to
    meet the demand, and that need less one; ties go to the first leaf.

    A pile on v meets the demand iff it holds sum_j w(j) * 2^d(v, j)
    pebbles (the stacking bound): that many suffice, path by path, and no
    move raises sum_x c_x * 2^d(x, v), which starts at the pile's size. A
    zero demand needs 0, so it gives -1.
    """
    leaves = [tree.index[name] for name in tree.leaves()]
    prices = [-1] * len(leaves)
    for j, d in enumerate(weights.row(tree)):
        if d:
            drow = tree._depths(*tree._rooting(j))
            prices = [p + (d << drow[i]) for p, i in zip(prices, leaves)]
    top = max(prices)
    return leaves[prices.index(top)], top


def _composition_count(total: int, parts: int) -> int:
    return comb(total + parts - 1, parts - 1)


@dataclass(frozen=True)
class VerificationReport:
    """Formula-versus-oracle comparison for one (tree, demand) instance."""

    tree_id: str
    omega: WeightFunction
    formula_gamma: int
    oracle_gamma: int
    status: str
    unsolvable_witness: Distribution | None
    distributions_checked: int
    confirmation: str

    def to_json_dict(self) -> dict:
        witness = self.unsolvable_witness
        return {
            "status": self.status,
            "formula_gamma": self.formula_gamma,
            "oracle_gamma": self.oracle_gamma,
            "confirmation": self.confirmation,
            "distributions_checked": self.distributions_checked,
            "tree": self.tree_id,
            "omega": dict(self.omega.items()),
            "witness": None if witness is None else dict(witness.items()),
        }


def verify_gamma(
    tree: Tree, weights: WeightFunction, *, max_pebbles: int = 512
) -> VerificationReport:
    """Re-derive the cover number by search and compare with the formula.

    Scans distribution sizes upward until a size has no unsolvable
    distribution, keeping the largest unsolvable one found as the witness.
    One scan decides each size k. It first tries the last witness plus one
    pebble on each leaf, in leaf order. Unsolvable distributions are closed
    downward, since every move sequence open to a distribution is open to
    it with a pebble more, so the last witness's extensions are the first
    place to look, and an unsolvable one proves k < gamma. When every
    extension is solvable, the scan enumerates the compositions of k in lex
    order: over all vertices when there are at most ``FULL_CONFIRM_LIMIT``
    of them, otherwise over leaves, which is where a maximum-size
    unsolvable distribution is guaranteed to live. The first size whose
    scan finds no unsolvable start is gamma, and ``confirmation`` names the
    supports that scan enumerated. Before the scan, one start state covers
    the small sizes at once: P pebbles on the leaf l with the largest
    P = sum_j w(j) * 2^d(l, j) - 1 (first leaf on ties, at most
    ``max_pebbles``). A lone pile meets the demand only with P + 1, so the
    search finds this one unsolvable, and by downward closure every size up
    to P then holds an unsolvable distribution: the scan starts at P + 1
    with the pile as witness. Were the pile solvable, the scan would start
    at 0. Gamma, the status and the confirmation are those of a scan of
    every size in full, though the witness may be another distribution of
    size gamma - 1. Status is MISMATCH when formula and oracle disagree;
    callers must treat that as a failure.

    Twin leaves have the same neighbour and the same demand. Swapping two
    is an automorphism of (T, w), so it maps solvable starts to solvable
    ones, and the search is asked about one start per orbit of such swaps.
    A composition is canonical when its counts do not increase, in index
    order, within each class of twins. The scan meets compositions with
    the first coordinate descending, and sorting one within its twin
    classes (larger counts to earlier twins) never moves it later in that
    order, so the first unsolvable composition is canonical: the scan
    enumerates only canonical ones and stops where the full scan would.

    The enumeration is a walk over the prefix tree of that order (see
    ``_first_unsolvable``). It solves a prefix (c_0, ..., c_i) alone, every
    later coordinate 0, and skips all its completions when the prefix is
    solvable. Solvable distributions are closed upward, since every move
    sequence open to a distribution is open to every larger one, and each
    completion dominates its prefix, so every skipped composition is
    solvable. The walk keeps the order, so the first unsolvable composition
    it meets, and with it the witness and its rank, is the one a scan of
    every composition meets first. Prefix solves share the memo, so a
    prefix's search also serves the starts that reach its states.

    ``distributions_checked`` counts every start state decided, by a
    search, by the verdict of its canonical twin or by a solvable prefix:
    the pile, each extension, and the compositions up to the first
    unsolvable one (its lex rank plus one), or all C(k + p - 1, p - 1)
    compositions of k over p vertices at gamma. It is the number of starts
    an unreduced scan passes to the solver, and the prefixes solved are
    not among them. A leaf scan is held to
    ``ENUM_LIMIT`` by its full composition count before it is tried (sizes
    up to P before the pile, the first one past the limit found by
    bisection); an all-vertex scan stays within ``FULL_CONFIRM_LIMIT``,
    which is at most ``ENUM_LIMIT``. Each size is held to ``max_pebbles``,
    so both budgets raise where a scan of every size from 0 would.
    """
    require_int(max_pebbles, "max_pebbles")
    if tree.n > MAX_VERTICES:
        raise BudgetExceededError(f"tree has {tree.n} vertices, oracle bound is {MAX_VERTICES}")
    # every scanned size is at most max_pebbles
    solve, zero, all_units, row_of = _solver(tree, weights, max(max_pebbles, 0))
    demand = weights.row(tree)
    every = range(tree.n)
    leaves = [tree.index[name] for name in tree.leaves()]
    leaf_units = [all_units[v] for v in leaves]
    # per confirmation: the support's vertices, their packed pebbles and twin caps
    supports = {
        "full": (every, all_units, _twin_caps(tree, demand, every)),
        "leaves": (leaves, leaf_units, _twin_caps(tree, demand, leaves)),
    }
    checked_count = 0

    def hold(size: int, parts: int) -> int:
        count = _composition_count(size, parts)
        if count > ENUM_LIMIT:
            raise BudgetExceededError(
                f"{count} distributions of size {size} exceed enumeration limit {ENUM_LIMIT}"
            )
        return count

    witness_state = None
    k = 0
    # the scan starts above the costliest leaf pile the search proves unsolvable
    leaf, pile = _leaf_pile(tree, weights)
    pile = min(pile, max_pebbles)
    if pile >= 1:
        # counts grow with size: bisect for the first size up to the pile's
        # past the limit, where a scan from 0 would raise
        lo, hi = 0, pile
        while lo < hi:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if _composition_count(mid, len(leaf_units)) > ENUM_LIMIT else (mid + 1, hi)
        hold(lo, len(leaf_units))
        state = zero + pile * all_units[leaf]
        checked_count += 1
        if not solve(state):
            # downward closure: every size up to the pile's has an unsolvable one
            witness_state, k = state, pile + 1
    confirmation = "full"
    # a zero demand scans no size
    while weights.support:
        if k > max_pebbles:
            raise BudgetExceededError(f"size scan passed max_pebbles={max_pebbles}")
        confirmation = "full" if _composition_count(k, tree.n) <= FULL_CONFIRM_LIMIT else "leaves"
        members, units, caps = supports[confirmation]
        count = hold(k, len(units))
        # the last witness plus one leaf pebble first, then the compositions
        bad = None
        if witness_state is not None:
            for unit in leaf_units:
                checked_count += 1
                if not solve(witness_state + unit):
                    bad = witness_state + unit
                    break
        if bad is None:
            bad = _first_unsolvable(solve, k, units, zero, caps)
            if bad is None:
                checked_count += count
                break
            # each composition before it was decided: by a search, by its
            # canonical twin's verdict or by a solvable prefix
            row = row_of(bad)
            checked_count += _composition_rank([row[v] for v in members]) + 1
        witness_state, k = bad, k + 1

    witness = None if witness_state is None else Distribution.from_row(tree, row_of(witness_state))
    formula = cover_pebbling_number(tree, weights).gamma
    return VerificationReport(
        tree_id=tree_id(tree),
        omega=weights,
        formula_gamma=formula,
        oracle_gamma=k,
        status="PASS" if formula == k else "MISMATCH",
        unsolvable_witness=witness,
        distributions_checked=checked_count,
        confirmation=confirmation,
    )


def random_tree(n: int, seed: int) -> Tree:
    """Uniform random labeled tree on ``n`` vertices, fixed by ``seed``.

    Decodes a random Pruefer sequence; the same (n, seed) always yields the
    same tree. Vertex names are v1..vN, zero-padded so name order matches
    numeric order. More than ``RANDOM_TREE_LIMIT`` vertices raise
    BudgetExceededError before anything is allocated.
    """
    if n < 1:
        raise ValueError("a tree needs at least one vertex")
    if n > RANDOM_TREE_LIMIT:
        raise BudgetExceededError(f"{n} vertices exceed random tree limit {RANDOM_TREE_LIMIT}")
    width = len(str(n))
    names = [f"v{i:0{width}d}" for i in range(1, n + 1)]
    if n == 1:
        return Tree((), names)
    rng = random.Random(seed)
    sequence = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for x in sequence:
        degree[x] += 1
    leaves = [i for i in range(n) if degree[i] == 1]  # ascending, so already a heap
    edges: list[tuple[str, str]] = []
    for x in sequence:
        leaf = heapq.heappop(leaves)
        edges.append((names[leaf], names[x]))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((names[u], names[v]))
    return Tree(edges)
