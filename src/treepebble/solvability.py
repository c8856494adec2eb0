"""Deciding whether a pebble distribution can meet a per-vertex demand.

The decision procedure works on the signed value map C = D - demand. It
collapses the tree onto a chosen root, one leaf at a time: a removed leaf
with surplus c >= 0 adds floor(c/2) to its neighbor (pebbles moved in), a
leaf in deficit c < 0 charges 2*c to its neighbor (pebbles that must be
sent out). The sign of the single remaining value answers solvability from
that root, and replaying the folds produces an explicit move sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import sub
from typing import Iterable, Sequence

from .checked import INT64_MAX, INT64_MIN, checked
from .errors import IllegalMoveError, NotSolvableError, TreeFormatError
from .tree import Distribution, Tree, WeightFunction, _content_lines


@dataclass(frozen=True)
class PebblingMove:
    """Take two pebbles off ``src`` and put one on the adjacent ``dst``."""

    src: str
    dst: str

    def __str__(self) -> str:
        return f"{self.src} {self.dst}"


@dataclass(frozen=True)
class SolvabilityCertificate:
    """Outcome of the all-roots collapse.

    ``solvable`` holds exactly when some root's collapsed value is
    nonnegative; ``witness_root`` is the name-smallest such root.
    """

    solvable: bool
    witness_root: str | None
    hat_values: dict[str, int]


def _initial_values(tree: Tree, dist: Distribution, weights: WeightFunction) -> list[int]:
    """C = D - demand as a dense list; entries off both supports are 0."""
    values = list(map(sub, dist.row(tree), weights.row(tree)))
    # each entry lies in [-weights.total, dist.total]
    if dist.total > INT64_MAX or weights.total > -INT64_MIN:
        for value in values:  # the first one out of range, in name order
            checked(value, "initial value")
    return values


def _fold(value: int) -> int:
    return value // 2 if value >= 0 else 2 * value


def _collapse(
    tree: Tree, dist: Distribution, weights: WeightFunction, root: str
) -> tuple[list[int], list[int], list[int]]:
    """Fold every vertex into its parent in post-order toward ``root``.

    Returns the values (each non-root entry as it was when folded, the
    root's entry the collapsed value), the post-order and the parents.
    """
    ir = tree._require(root)
    values = _initial_values(tree, dist, weights)
    order, parent, _ = tree._rooting(ir)
    for x in order[:-1]:
        values[parent[x]] = checked(values[parent[x]] + _fold(values[x]), "induced value")
    return values, order, parent


def hat_c(tree: Tree, dist: Distribution, weights: WeightFunction, root: str) -> int:
    """Collapse the whole tree onto ``root`` and return the remaining value.

    Equivalent to reducing every leaf other than ``root`` in deterministic
    post-order until only ``root`` is left, without building the
    intermediate trees.
    """
    values, order, _ = _collapse(tree, dist, weights, root)
    return values[order[-1]]


def is_solvable(tree: Tree, dist: Distribution, weights: WeightFunction) -> SolvabilityCertificate:
    """Decide solvability, reporting the collapsed value at every root."""
    hats = {name: hat_c(tree, dist, weights, name) for name in tree.names}
    witness = next((name for name in tree.names if hats[name] >= 0), None)
    return SolvabilityCertificate(witness is not None, witness, hats)


def solve_witness(
    tree: Tree, dist: Distribution, weights: WeightFunction, root: str
) -> list[PebblingMove]:
    """Explicit move list that meets the demand, built from the root's collapse.

    Two phases: surplus vertices first send floor(c/2) pebbles to their
    parent in post-order (leaves inward), then deficit vertices receive
    -c pebbles from their parent in pre-order (root outward), so a parent's
    own deficit is always settled before it feeds a child. Requires the
    root's collapsed value to be nonnegative.
    """
    fold_value, order, parent = _collapse(tree, dist, weights, root)
    ir = order[-1]
    if fold_value[ir] < 0:
        raise NotSolvableError(
            f"root '{root}' cannot be satisfied (collapsed value {fold_value[ir]})"
        )

    names = tree.names
    moves: list[PebblingMove] = []
    for x in order[:-1]:
        cv = fold_value[x]
        if cv >= 0 and cv // 2:
            moves.extend([PebblingMove(names[x], names[parent[x]])] * (cv // 2))

    pre: list[int] = []
    stack = [ir]
    while stack:
        x = stack.pop()
        pre.append(x)
        children = [y for y in tree._adj[x] if parent[y] == x]
        stack.extend(reversed(children))
    for x in pre:
        if x == ir:
            continue
        cv = fold_value[x]
        if cv < 0:
            moves.extend([PebblingMove(names[parent[x]], names[x])] * (-cv))
    return moves


def simulate(tree: Tree, dist: Distribution, moves: Iterable[PebblingMove]) -> Distribution:
    """Apply moves in order; each needs two pebbles on its source.

    Raises IllegalMoveError (with the offending index) on a non-adjacent
    move or an underfunded source.
    """
    counts = dist.row(tree)
    for i, mv in enumerate(moves):
        iu = tree._require(mv.src)
        iv = tree._require(mv.dst)
        if iu == iv or iv not in tree._adj[iu]:
            raise IllegalMoveError(i, f"'{mv.src}' and '{mv.dst}' are not adjacent")
        if counts[iu] < 2:
            raise IllegalMoveError(i, f"source '{mv.src}' has {counts[iu]} pebbles")
        counts[iu] -= 2
        counts[iv] += 1
    return Distribution.from_row(tree, counts)


def parse_moves(text: str, tree: Tree) -> list[PebblingMove]:
    """Parse ``from to`` lines into moves over ``tree``'s vertices."""
    moves: list[PebblingMove] = []
    for lineno, line in _content_lines(text):
        tokens = line.split()
        if len(tokens) != 2:
            raise TreeFormatError(f"line {lineno}: expected 'from to'")
        src, dst = tokens
        tree._require(src)
        tree._require(dst)
        moves.append(PebblingMove(src, dst))
    return moves


def serialize_moves(moves: Sequence[PebblingMove]) -> str:
    """Replayable ``from to`` document; empty for an empty move list."""
    if not moves:
        return ""
    return "\n".join(str(mv) for mv in moves) + "\n"
