"""Deciding whether a pebble distribution can meet a per-vertex demand.

The decision procedure works on the signed value map C = D - demand. It
collapses the tree onto a chosen root, one leaf at a time: a removed leaf
with surplus c >= 0 adds floor(c/2) to its neighbor (pebbles moved in), a
leaf in deficit c < 0 charges 2*c to its neighbor (pebbles that must be
sent out). The sign of the single remaining value answers solvability from
that root, and replaying the folds produces an explicit list of moves, one
batch ``(src, dst, k)`` per vertex that sends or receives pebbles.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import sub
from typing import Iterable, NamedTuple

from .checked import INT64_MAX, INT64_MIN, checked
from .errors import IllegalMoveError, NotSolvableError, OverflowLimitError, TreeFormatError
from .tree import Distribution, Tree, WeightFunction, _parse_count, _token_runs


class PebblingMove(NamedTuple):
    """``k`` moves, each taking two pebbles off ``src`` and putting one on the adjacent ``dst``."""

    src: str
    dst: str
    k: int = 1

    def __str__(self) -> str:
        return f"{self.src} {self.dst}" + (f" {self.k}" if self.k != 1 else "")


@dataclass(frozen=True)
class SolvabilityCertificate:
    """Outcome of the all-roots collapse.

    ``solvable`` holds exactly when some root's collapsed value is
    nonnegative; ``witness_root`` is the name-smallest such root.
    """

    solvable: bool
    witness_root: str | None
    hat_values: dict[str, int]


def _collapse(
    tree: Tree, dist: Distribution, weights: WeightFunction, root: str
) -> tuple[list[int], list[int], list[int]]:
    """Fold every vertex into its parent in post-order toward ``root``.

    Returns the values (each non-root entry as it was when folded, the
    root's entry the collapsed value), post-order and parents.
    A value outside the signed 64-bit range raises: C = D - demand in name
    order, then each vertex's value once it is final, in fold order.
    """
    ir = tree._require(root)
    values = list(map(sub, dist.row(tree), weights.row(tree)))
    if min(values) < INT64_MIN or max(values) > INT64_MAX:
        for value in values:
            checked(value, "initial value")
    order, parent = tree._rooting(ir)
    for x in order[:-1]:
        value = values[x]
        if not INT64_MIN <= value <= INT64_MAX:
            checked(value, "induced value")
        values[parent[x]] += value // 2 if value >= 0 else 2 * value
    checked(values[ir], "induced value")
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
    """Decide solvability, reporting the collapsed value at every root.

    Collapses once toward the name-smallest vertex, then moves the root
    down each edge p-x in pre-order: p's side without x, collapsed onto p,
    is hat(p) - fold(value(x)), and hat(x) = value(x) + fold of that.

    Overflow: this raises exactly where some ``hat_c`` raises, and
    otherwise every value it returns equals ``hat_c`` at that root.
    """
    hat, order, parent = _collapse(tree, dist, weights, tree.names[0])
    for x in reversed(order[:-1]):  # hat[parent[x]] is final, hat[x] not yet
        value = hat[x]
        rest = hat[parent[x]] - (value // 2 if value >= 0 else 2 * value)
        if not INT64_MIN <= rest <= INT64_MAX:
            checked(rest, "induced value")
        total = value + (rest // 2 if rest >= 0 else 2 * rest)
        if not INT64_MIN <= total <= INT64_MAX:
            checked(total, "induced value")
        hat[x] = total
    witness = next((name for name, value in zip(tree.names, hat) if value >= 0), None)
    return SolvabilityCertificate(witness is not None, witness, dict(zip(tree.names, hat)))


def solve_witness(
    tree: Tree, dist: Distribution, weights: WeightFunction, root: str
) -> list[PebblingMove]:
    """Explicit move batches that meet the demand, built from the root's collapse.

    Two phases: surplus vertices first send floor(c/2) pebbles to their
    parent in post-order (leaves inward), then deficit vertices receive
    -c pebbles from their parent in pre-order (root outward), so a parent's
    own deficit is always settled before it feeds a child. Each vertex moves
    one batch at most. Requires the root's collapsed value to be nonnegative.

    Raises OverflowLimitError when the batches would put more than 2^63 - 1
    pebbles on a vertex at once, naming the name-smallest such vertex.
    """
    values, order, parent = _collapse(tree, dist, weights, root)
    ir = order[-1]
    if values[ir] < 0:
        raise NotSolvableError(f"root '{root}' cannot be satisfied (collapsed value {values[ir]})")

    names = tree.names
    # every move burns a pebble, so no vertex ever holds more than the distribution's size
    if dist.size > INT64_MAX:
        # a vertex peaks once its surplus children have sent, or once its own deficit arrives
        peak = dist.row(tree)
        for x in order[:-1]:
            if values[x] >= 0:
                peak[parent[x]] += values[x] // 2
            else:
                peak[x] -= values[x]
        over = next((x for x, count in enumerate(peak) if count > INT64_MAX), None)
        if over is not None:
            raise OverflowLimitError(
                f"witness would put more than {INT64_MAX} pebbles on '{names[over]}'"
            )
    moves: list[PebblingMove] = []
    size = [1] * len(order)
    for x in order[:-1]:
        size[parent[x]] += size[x]
        cv = values[x]
        if cv >= 2:
            moves.append(PebblingMove(names[x], names[parent[x]], cv // 2))

    # pre-order rank (children by name): before x come the i - size + 1 vertices that the
    # post-order lists before x's subtree, and x's depth many ancestors; the root adds no move
    depth = tree._depths(order, parent)
    ranked = sorted((i - size[x] + 1 + depth[x], x) for i, x in enumerate(order) if values[x] < 0)
    moves += [PebblingMove(names[parent[x]], names[x], -values[x]) for _, x in ranked]
    return moves


def simulate(tree: Tree, dist: Distribution, moves: Iterable[PebblingMove]) -> Distribution:
    """Apply batches of moves in order; each move needs two pebbles on its source.

    Raises IllegalMoveError (with the offending move's index, counting single
    moves) on a batch between non-adjacent vertices or an underfunded source,
    OverflowLimitError on a count past 2^63 - 1, and ValueError on a batch
    whose ``k`` is not a nonnegative int; a batch of no moves is skipped.

    A batch of k moves u->v is checked and applied in one step: from counts
    c_u and c_v, exactly min(k, c_u // 2, 2^63 - 1 - c_v) of them are legal,
    and the first illegal one raises what a move-by-move replay would, the
    source check first.
    """
    counts = dist.row(tree)
    edges = set(zip(tree._us, tree._vs))  # index pairs, each edge in its document's direction
    top = INT64_MAX
    i = 0  # index of the batch's first move
    for src, dst, k in moves:
        if type(k) is not int or k < 0:
            raise ValueError(f"batch '{src}' -> '{dst}' needs a nonnegative int k, got {k!r}")
        if k == 0:  # no move, so nothing to check
            continue
        iu = tree._require(src)
        iv = tree._require(dst)
        if (iu, iv) not in edges and (iv, iu) not in edges:
            raise IllegalMoveError(i, f"'{src}' and '{dst}' are not adjacent")
        legal = min(k, counts[iu] // 2, max(top - counts[iv], 0))
        counts[iu] -= 2 * legal
        counts[iv] += legal
        if legal < k:
            i += legal
            if counts[iu] < 2:
                raise IllegalMoveError(i, f"source '{src}' has {counts[iu]} pebbles")
            raise OverflowLimitError(f"move {i} would put more than {top} pebbles on '{dst}'")
        i += k
    return Distribution.from_row(tree, counts)


def parse_moves(text: str, tree: Tree) -> list[PebblingMove]:
    """Parse ``from to [k]`` lines into move batches over ``tree``'s vertices.

    ``k`` is a count as in a vertex map and defaults to 1. A run of r equal
    consecutive lines is tokenized and checked once and becomes one batch of
    r * k moves; a FORMAT error names the run's first line.
    """
    moves: list[PebblingMove] = []
    for lineno, tokens, r in _token_runs(text):
        if len(tokens) not in (2, 3):
            raise TreeFormatError(f"line {lineno}: expected 'from to'")
        src, dst = tokens[:2]
        tree._require(src)
        tree._require(dst)
        k = _parse_count(tokens[2], lineno, "move count") if len(tokens) == 3 else 1
        moves.append(PebblingMove(src, dst, r * k))
    return moves


def serialize_moves(moves: Iterable[PebblingMove]) -> str:
    """Replayable move document, one ``from to [k]`` line per batch; empty for none."""
    return "".join(f"{move}\n" for move in moves)
