"""Brute-force ground truth, independent of the closed-form machinery.

Solvability here is decided by exhaustive depth-first search over the
distribution states reachable by legal pebbling moves (each move burns one
pebble, so the search always terminates). The cover number is re-derived by
scanning distribution sizes upward until every distribution of a size is
solvable. Nothing in this module consults path partitions or score
formulas; the only shortcuts are necessary conditions derived directly from
the move definition, plus the leaf-support restriction for witness hunting
(a maximum-size unsolvable distribution always exists with all pebbles on
leaves).
"""

from __future__ import annotations

import heapq
import random
import time
from dataclasses import dataclass
from math import comb
from typing import Iterator, Sequence

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


class _SearchSpace:
    """Move tables and sound filters for one (tree, demand) pair."""

    __slots__ = ("n", "adj", "demand", "support", "total_demand", "rows", "thresholds", "prune")

    def __init__(self, tree: Tree, weights: WeightFunction, prune: bool = True):
        self.n = tree.n
        self.adj = tree._adj
        self.demand = tuple(weights.row(tree))
        self.support = tuple(i for i, d in enumerate(self.demand) if d)
        self.total_demand = sum(self.demand)
        self.prune = prune
        rows: list[tuple[int, ...]] = []
        thresholds: list[int] = []
        if prune:
            # A move from u to an adjacent v changes sum_x c_x * 2^{-d(x,j)}
            # by -2*2^{-d(u,j)} + 2^{-d(v,j)} <= 0, so that sum never grows;
            # if it is already below demand(j), vertex j can never be met.
            # Scaled by 2^{max d} to stay in integers.
            for j in self.support:
                drow = tree._rooting(j)[2]
                top = max(drow)
                rows.append(tuple(1 << (top - d) for d in drow))
                thresholds.append(self.demand[j] << top)
        self.rows = tuple(rows)
        self.thresholds = tuple(thresholds)

    def dominates(self, state: tuple[int, ...]) -> bool:
        demand = self.demand
        for j in self.support:
            if state[j] < demand[j]:
                return False
        return True

    def hopeless(self, state: tuple[int, ...]) -> bool:
        """True only when no move sequence from ``state`` can meet the demand."""
        if not self.prune:
            return False
        if sum(state) < self.total_demand:
            return True
        for row, bound in zip(self.rows, self.thresholds):
            acc = 0
            for c, coefficient in zip(state, row):
                if c:
                    acc += c * coefficient
            if acc < bound:
                return True
        return False

    def successors(self, state: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        for u in range(self.n):
            if state[u] >= 2:
                for v in self.adj[u]:
                    nxt = list(state)
                    nxt[u] -= 2
                    nxt[v] += 1
                    yield tuple(nxt)


def _remember(cache: dict[tuple[int, ...], bool], state: tuple[int, ...], verdict: bool) -> bool:
    if state not in cache and len(cache) >= MEMO_LIMIT:
        raise BudgetExceededError(f"solvability memo exceeded {MEMO_LIMIT} states")
    cache[state] = verdict
    return verdict


def _search(
    space: _SearchSpace, start: tuple[int, ...], cache: dict[tuple[int, ...], bool]
) -> bool:
    known = cache.get(start)
    if known is not None:
        return known
    if space.dominates(start):
        return True  # a met start is never memoized: it costs no search
    if space.hopeless(start):
        return _remember(cache, start, False)

    frames: list[tuple[tuple[int, ...], Iterator[tuple[int, ...]]]] = [
        (start, space.successors(start))
    ]
    while frames:
        state, succ = frames[-1]
        pushed = False
        solved = False
        for nxt in succ:
            verdict = cache.get(nxt)
            if verdict is True:
                solved = True
                break
            if verdict is False:
                continue
            if space.dominates(nxt):
                _remember(cache, nxt, True)
                solved = True
                break
            if space.hopeless(nxt):
                _remember(cache, nxt, False)
                continue
            frames.append((nxt, space.successors(nxt)))
            pushed = True
            break
        if solved:
            # the whole stack is a chain of moves reaching a met demand
            for s, _ in frames:
                _remember(cache, s, True)
            return True
        if not pushed:
            _remember(cache, state, False)
            frames.pop()
    return False


def brute_solvable(
    tree: Tree,
    dist: Distribution,
    weights: WeightFunction,
    *,
    max_pebbles: int = DEFAULT_MAX_PEBBLES,
    prune: bool = True,
) -> bool:
    """Exhaustive reachability check: can some move sequence meet the demand?

    ``prune=False`` disables the necessary-condition filters and explores
    the raw move space (useful for equivalence testing; the verdict is
    identical either way).
    """
    if tree.n > MAX_VERTICES:
        raise BudgetExceededError(f"tree has {tree.n} vertices, oracle bound is {MAX_VERTICES}")
    if dist.size > max_pebbles:
        raise BudgetExceededError(f"{dist.size} pebbles exceed oracle bound {max_pebbles}")
    space = _SearchSpace(tree, weights, prune=prune)
    return _search(space, tuple(dist.row(tree)), {})


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

    def to_text(self) -> str:
        return _report_text(self.to_json_dict())

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


def _report_text(payload: dict) -> str:
    """``key value`` lines of a ``to_json_dict`` payload, vertex maps as ``v k;v k``."""

    def pairs(values: dict) -> str:
        return ";".join(f"{v} {k}" for v, k in values.items())

    keys = "status formula_gamma oracle_gamma confirmation distributions_checked tree"
    witness = payload["witness"]
    lines = [f"{key} {payload[key]}" for key in keys.split()]
    lines.append(f"omega {pairs(payload['omega']) or 'none'}")
    lines.append(f"witness {'none' if witness is None else pairs(witness) or 'empty'}")
    return "\n".join(lines) + "\n"


def verify_gamma(
    tree: Tree,
    weights: WeightFunction,
    *,
    max_pebbles: int = 512,
    prune: bool = True,
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

    space = _SearchSpace(tree, weights, prune=prune)
    cache: dict[tuple[int, ...], bool] = {}
    checked_count = 0

    def first_unsolvable(size: int, positions: Sequence[int]) -> tuple[int, ...] | None:
        nonlocal checked_count
        count = _composition_count(size, len(positions))
        if count > ENUM_LIMIT:
            raise BudgetExceededError(
                f"{count} distributions of size {size} exceed enumeration limit {ENUM_LIMIT}"
            )
        base = [0] * tree.n
        for comp in _compositions(size, len(positions)):
            state = list(base)
            for pos, c in zip(positions, comp):
                state[pos] = c
            frozen = tuple(state)
            checked_count += 1
            if not _search(space, frozen, cache):
                return frozen
        return None

    leaf_positions = [tree.index[name] for name in tree.leaves()]
    all_positions = list(range(tree.n))
    witness_state: tuple[int, ...] | None = None
    k = 0
    confirmation = "full"
    # a zero demand is met by the empty distribution: no size is scanned
    while weights.support:
        # scan leaf supports upward until a size has no unsolvable distribution
        while True:
            if k > max_pebbles:
                raise BudgetExceededError(f"size scan passed max_pebbles={max_pebbles}")
            bad = first_unsolvable(k, leaf_positions)
            if bad is None:
                break
            witness_state = bad
            k += 1
        # re-confirm over every support when the enumeration is affordable
        if _composition_count(k, tree.n) > FULL_CONFIRM_LIMIT:
            confirmation = "leaves"
            break
        bad = first_unsolvable(k, all_positions)
        if bad is None:
            break
        witness_state = bad
        k += 1

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
    if n == 2:
        return Tree([(names[0], names[1])])
    rng = random.Random(seed)
    sequence = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for x in sequence:
        degree[x] += 1
    leaves = [i for i in range(n) if degree[i] == 1]
    heapq.heapify(leaves)
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
