"""Per-layer spans recorded from outside the package.

The tracer wraps public functions of ``treepebble`` at the layer boundaries.
A function is found in its home module and replaced, by object identity, in
every loaded ``treepebble.*`` namespace that binds it, so calls between
modules go through the wrapper too; a method is replaced on its class. A
symbol that no longer exists is reported as absent, never as an error.

Spans are kept in memory as ``(query, parent, layer, function, start, end)``
tuples and written out when the run ends. A layer's self time is the sum of
its spans' durations minus the durations of their direct children.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable


def _arc_count(args, kwargs, result) -> int:
    return args[0].arc_count


def _text_bytes(args, kwargs, result) -> int:
    return len(args[0].encode("utf-8"))


def _moves_emitted(args, kwargs, result) -> int:
    return len(result)


def _moves_replayed(args, kwargs, result) -> int:
    # each move burns one pebble, whatever the move list's type or format
    return args[1].size - result.size


def _distributions_checked(args, kwargs, result) -> int:
    return result.distributions_checked


# (module, attribute path, layer, counter, counter function)
SYMBOLS = [
    ("treepebble.cli", "run", "cli", None, None),
    ("treepebble.tree", "parse_tree", "tree.parse", "tree.parse.bytes", _text_bytes),
    ("treepebble.tree", "parse_weights", "tree.parse", "tree.parse.bytes", _text_bytes),
    ("treepebble.tree", "parse_distribution", "tree.parse", "tree.parse.bytes", _text_bytes),
    ("treepebble.tree", "Tree.orient_toward", "tree.orient", None, None),
    ("treepebble.tree", "Tree.minimal_subtree", "tree.subtree", None, None),
    ("treepebble.tree", "Tree.distances_from", "tree.distances", None, None),
    ("treepebble.partition", "max_path_partition", "partition.max_path", "partition.arcs", _arc_count),
    ("treepebble.partition", "partition_score", "partition.score", None, None),
    ("treepebble.cover", "cover_pebbling_number", "cover", None, None),
    ("treepebble.cover", "t_pebbling_global", "cover", None, None),
    ("treepebble.cover", "extremal_distribution", "cover", None, None),
    ("treepebble.cover", "s_omega_at", "cover", None, None),
    ("treepebble.cover", "t_pebbling_number", "cover", None, None),
    ("treepebble.solvability", "is_solvable", "solvability.collapse", None, None),
    ("treepebble.solvability", "hat_c", "solvability.collapse", None, None),
    ("treepebble.solvability", "solve_witness", "solvability.witness", "solvability.moves_emitted", _moves_emitted),
    ("treepebble.solvability", "serialize_moves", "solvability.moves_io", None, None),
    ("treepebble.solvability", "parse_moves", "solvability.moves_io", None, None),
    ("treepebble.solvability", "simulate", "solvability.simulate", "solvability.moves_replayed", _moves_replayed),
    ("treepebble.oracle", "verify_gamma", "oracle.verify", "oracle.distributions_checked", _distributions_checked),
]

LAYERS = sorted({layer for _, _, layer, _, _ in SYMBOLS})
COUNTERS = sorted({counter for _, _, _, counter, _ in SYMBOLS if counter})
# functions that score one root, and the one collapse onto one root
ROOT_SCORERS = {"s_omega_at", "t_pebbling_number"}
COLLAPSE = "hat_c"


class Tracer:
    """Spans and counters of one traced run; install, run queries, uninstall."""

    def __init__(self, symbols=SYMBOLS):
        self.symbols = symbols
        self.spans: list[tuple | None] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.absent: list[str] = []
        self.counter_errors: set[str] = set()
        self.query = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- wrapping ------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "treepebble" or name.startswith("treepebble."))]
        for module_name, path, layer, counter, count in self.symbols:
            owner = sys.modules.get(module_name)
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if owner is None or not callable(original):
                self.absent.append(f"{module_name}.{path}")
                continue
            wrapper = self._wrap(original, layer, attr, counter, count)
            if owner_path:
                self._replace(owner, attr, original, wrapper)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, name, original, wrapper)

    def _replace(self, owner, name: str, original, wrapper) -> None:
        self._restore.append((owner, name, original))
        setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def _wrap(self, fn: Callable, layer: str, name: str, counter: str | None, count) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (self.query, parent, layer, name, start, end)
            if counter is not None:
                try:
                    self.counters[counter] += count(args, kwargs, result)
                except (AttributeError, TypeError, IndexError):
                    self.counter_errors.add(counter)
            return result

        return traced

    # -- results -------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span is not None and span[1] >= 0:
                child[span[1]] += span[5] - span[4]
        totals = dict.fromkeys(LAYERS, 0.0)
        for sid, span in enumerate(self.spans):
            if span is not None:
                totals[span[2]] += span[5] - span[4] - child[sid]
        return totals

    def calls(self, function: str | None = None, layer: str | None = None,
              queries: set[int] | None = None) -> int:
        """Spans of one function or one layer, optionally within some queries only."""
        return sum(
            1 for s in self.spans
            if s is not None and (function is None or s[3] == function)
            and (layer is None or s[2] == layer) and (queries is None or s[0] in queries)
        )

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                if span is not None:
                    handle.write(json.dumps(span) + "\n")
