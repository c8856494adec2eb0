"""Brute-force ground truth, independent of the closed-form machinery.

One solver per (tree, demand) pair decides solvability by exhaustive
depth-first search over the states reachable by legal pebbling moves (each
move burns one pebble, so the search terminates), memoizing verdicts across
start states. The cover number is re-derived by scanning distribution sizes
upward until every distribution of a size is solvable. Nothing here consults
path partitions or score formulas; the only shortcuts are necessary
conditions derived directly from the move definition, plus the leaf-support
restriction for witness hunting (a maximum-size unsolvable distribution
always exists with all pebbles on leaves).
"""

from __future__ import annotations

import heapq
import random
import time
from dataclasses import dataclass
from math import comb
from operator import mul
from typing import Callable, Iterator

from .cover import cover_pebbling_number
from .errors import BudgetExceededError
from .tree import Distribution, Tree, WeightFunction, tree_id

DEFAULT_MAX_PEBBLES = 24
MAX_VERTICES = 8
ENUM_LIMIT = 10**7
MEMO_LIMIT = 10**7
# full-support confirmation switches to leaf supports above this many
# distributions, or the size scans would dwarf every other runtime bound
FULL_CONFIRM_LIMIT = 10_000


def _solver(
    tree: Tree, weights: WeightFunction, prune: bool = True
) -> Callable[[tuple[int, ...]], bool]:
    """``solve(state)``: can some move sequence from ``state`` meet the demand?

    One rule prunes: a state is hopeless when some weighted pebble sum
    sum_x c_x * w_x is below the demand's own sum_x demand_x * w_x, for a
    row w that changes by at most a factor 2 across every edge. A move
    u -> v changes that sum by w_v - 2*w_u <= 0, so it never grows, and a
    state meeting the demand holds at least the demand's sum. The rows are
    all ones (the pebble total) and, per demanded j, 2^{-d(x, j)} scaled by
    2^{max d} to stay in integers. ``prune=False`` gives the filter no rows:
    the raw move space. All calls share one memo, capped at ``MEMO_LIMIT``
    states.
    """
    n, adj = tree.n, tree._adj
    demand = tuple(weights.row(tree))
    support = tuple(i for i, d in enumerate(demand) if d)
    filters: list[tuple[tuple[int, ...], int]] = []
    # the all-zero distance row weighs every vertex 2^0 = 1
    for drow in [[0] * n] + [tree._rooting(j)[2] for j in support] if prune else []:
        top = max(drow)
        row = tuple(1 << (top - d) for d in drow)
        filters.append((row, sum(map(mul, demand, row))))
    memo: dict[tuple[int, ...], bool] = {}

    def met(state: tuple[int, ...]) -> bool:
        for j in support:
            if state[j] < demand[j]:
                return False
        return True

    def hopeless(state: tuple[int, ...]) -> bool:
        """True only when no move sequence from ``state`` can meet the demand."""
        for row, bound in filters:
            if sum(map(mul, state, row)) < bound:
                return True
        return False

    def moves(state: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        for u in range(n):
            if state[u] >= 2:
                for v in adj[u]:
                    nxt = list(state)
                    nxt[u] -= 2
                    nxt[v] += 1
                    yield tuple(nxt)

    def remember(state: tuple[int, ...], verdict: bool) -> bool:
        if state not in memo and len(memo) >= MEMO_LIMIT:
            raise BudgetExceededError(f"solvability memo exceeded {MEMO_LIMIT} states")
        memo[state] = verdict
        return verdict

    def solve(start: tuple[int, ...]) -> bool:
        if start in memo:
            return memo[start]
        if met(start):
            return True  # a met start is never memoized: it costs no search
        if hopeless(start):
            return remember(start, False)
        frames: list[tuple[tuple[int, ...], Iterator[tuple[int, ...]]]] = [(start, moves(start))]
        while frames:
            state, succ = frames[-1]
            for nxt in succ:
                verdict = memo.get(nxt)
                if verdict is None:
                    if met(nxt):
                        verdict = remember(nxt, True)
                    elif hopeless(nxt):
                        verdict = remember(nxt, False)
                    else:
                        frames.append((nxt, moves(nxt)))
                        break
                if verdict:
                    # the whole stack is a chain of moves reaching a met demand
                    for s, _ in frames:
                        remember(s, True)
                    return True
            else:
                remember(state, False)
                frames.pop()
        return False

    return solve


def brute_solvable(
    tree: Tree,
    dist: Distribution,
    weights: WeightFunction,
    *,
    max_pebbles: int = DEFAULT_MAX_PEBBLES,
    prune: bool = True,
) -> bool:
    """Exhaustive reachability check: can some move sequence meet the demand?

    ``prune=False`` explores the raw move space without the necessary-condition
    filters, for equivalence testing; the verdict is the same either way.
    """
    if tree.n > MAX_VERTICES:
        raise BudgetExceededError(f"tree has {tree.n} vertices, oracle bound is {MAX_VERTICES}")
    if dist.size > max_pebbles:
        raise BudgetExceededError(f"{dist.size} pebbles exceed oracle bound {max_pebbles}")
    return _solver(tree, weights, prune)(tuple(dist.row(tree)))


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Weak compositions of ``total`` into ``parts``, first coordinate descending."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _composition_count(total: int, parts: int) -> int:
    if parts == 0:
        return 1 if total == 0 else 0
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
    elapsed: float
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

    Scans distribution sizes upward over leaf supports until a size has no
    unsolvable distribution, keeping the largest unsolvable one found as the
    witness. The resulting candidate is then confirmed over all-vertex
    supports whenever that enumeration stays within ``FULL_CONFIRM_LIMIT``
    (otherwise the leaf-support scan stands, which is where a maximum-size
    unsolvable distribution is guaranteed to live). Status is MISMATCH when
    formula and oracle disagree; callers must treat that as a failure.
    """
    started = time.perf_counter()
    if tree.n > MAX_VERTICES:
        raise BudgetExceededError(f"tree has {tree.n} vertices, oracle bound is {MAX_VERTICES}")
    solve = _solver(tree, weights)
    checked_count = 0

    def first_unsolvable(size: int, positions: list[int]) -> tuple[int, ...] | None:
        nonlocal checked_count
        count = _composition_count(size, len(positions))
        if count > ENUM_LIMIT:
            raise BudgetExceededError(
                f"{count} distributions of size {size} exceed enumeration limit {ENUM_LIMIT}"
            )
        for comp in _compositions(size, len(positions)):
            state = [0] * tree.n
            for pos, c in zip(positions, comp):
                state[pos] = c
            frozen = tuple(state)
            checked_count += 1
            if not solve(frozen):
                return frozen
        return None

    all_positions = list(range(tree.n))
    positions = leaf_positions = [tree.index[name] for name in tree.leaves()]
    witness_state: tuple[int, ...] | None = None
    k = 0
    confirmation = "full"
    # a zero demand scans no size; a failed confirmation resumes the leaf scan
    while weights.support:
        if k > max_pebbles:
            raise BudgetExceededError(f"size scan passed max_pebbles={max_pebbles}")
        bad = first_unsolvable(k, positions)
        if bad is not None:
            witness_state, k, positions = bad, k + 1, leaf_positions
        elif positions is all_positions:
            break
        elif _composition_count(k, tree.n) > FULL_CONFIRM_LIMIT:
            confirmation = "leaves"
            break
        else:
            positions = all_positions

    witness = None if witness_state is None else Distribution.from_row(tree, witness_state)
    formula = cover_pebbling_number(tree, weights).gamma
    return VerificationReport(
        tree_id=tree_id(tree),
        omega=weights,
        formula_gamma=formula,
        oracle_gamma=k,
        status="PASS" if formula == k else "MISMATCH",
        unsolvable_witness=witness,
        distributions_checked=checked_count,
        elapsed=time.perf_counter() - started,
        confirmation=confirmation,
    )


def random_tree(n: int, seed: int) -> Tree:
    """Uniform random labeled tree on ``n`` vertices, fixed by ``seed``.

    Decodes a random Pruefer sequence; the same (n, seed) always yields the
    same tree. Vertex names are v1..vN, zero-padded so name order matches
    numeric order.
    """
    if n < 1:
        raise ValueError("a tree needs at least one vertex")
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
