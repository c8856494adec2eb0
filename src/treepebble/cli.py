"""Command-line interface: parse input files, compute, print stable text.

Text output is deterministic: tables are ``vertex value`` lines sorted by
name under a single ``#`` header line, and ``--json`` emits the structured
equivalent with sorted keys. Exit codes: 0 success, 1 negative verdict
(UNSOLVABLE, verify MISMATCH, illegal replay), 2 usage or input errors,
3 overflow, 4 oracle budget exceeded.

Each command is one row of ``COMMANDS``: its help line, its arguments, a
handler and a text renderer. ``run`` parses the arguments and loads the
input files among them (``--tree`` first, then ``--weights``, ``--dist``
and ``--moves`` over that tree). The handler returns an exit code and one
payload dict. With ``--json`` the payload and the command name are printed
as one sorted-key JSON line; otherwise the renderer prints the payload as
text. ``_FAILURES`` maps each error type to its stderr label and exit code.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
from typing import IO, Callable, Mapping, NamedTuple, Sequence

from .cover import _extremal_at, cover_pebbling_number, t_pebbling_global, t_pebbling_number
from .errors import (
    BudgetExceededError,
    IllegalMoveError,
    NotSolvableError,
    OverflowLimitError,
    TreeFormatError,
    UnknownVertexError,
)
from .oracle import random_tree, verify_gamma
from .partition import max_path_partition
from .solvability import is_solvable, parse_moves, serialize_moves, simulate, solve_witness
from .tree import _edge_list, parse_distribution, parse_tree, parse_weights

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_OVERFLOW = 3
EXIT_BUDGET = 4

# tpebble without --root scores every root with a linear pass; above this
# many vertices that quadratic cost gets a stderr warning
QUADRATIC_WARN_SIZE = 1000


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        raise _UsageError(message)


# error type -> stderr label and exit code; the first matching row wins
_FAILURES = (
    (_UsageError, "USAGE", EXIT_USAGE),
    (TreeFormatError, "FORMAT", EXIT_USAGE),
    (UnknownVertexError, "UNKNOWN_VERTEX", EXIT_USAGE),
    (NotSolvableError, "UNSOLVABLE", EXIT_NEGATIVE),
    (IllegalMoveError, "ILLEGAL_MOVE", EXIT_NEGATIVE),
    (OverflowLimitError, "OVERFLOW", EXIT_OVERFLOW),
    (BudgetExceededError, "BUDGET", EXIT_BUDGET),
    (OSError, "IO", EXIT_USAGE),
    (ValueError, "VALUE", EXIT_USAGE),
)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _sizes_line(sizes: Sequence[int]) -> str:
    return "sizes" + "".join(f" {a}" for a in sizes) + "\n"


def _table(out: IO[str], header: str, names: Sequence[str], values: Mapping[str, int]) -> None:
    out.write(header)
    for name in names:
        out.write(f"{name} {values.get(name, 0)}\n")


def _partition(a) -> tuple[int, dict]:
    part = max_path_partition(a.tree.orient_toward((a.root,)))
    return EXIT_OK, {"root": a.root, "sizes": part.sizes, "paths": part.paths}


def _partition_text(out: IO[str], p: dict, a) -> None:
    out.write(f"# partition root={p['root']}\n" + _sizes_line(p["sizes"]))
    for path in p["paths"]:
        out.write("path " + " ".join(path) + "\n")


def _tpebble(a) -> tuple[int, dict]:
    if a.root is None:
        value, argmax = t_pebbling_global(a.tree, a.t)
        return EXIT_OK, {"t": a.t, "value": value, "argmax": argmax}
    result = t_pebbling_number(a.tree, a.root, a.t)
    sizes = result.partition.sizes
    return EXIT_OK, {"t": a.t, "root": a.root, "value": result.value, "sizes": sizes}


def _tpebble_text(out: IO[str], p: dict, a) -> None:
    if a.root is None:
        out.write(f"# tpebble t={p['t']}\nvalue {p['value']}\nargmax {p['argmax']}\n")
    else:
        out.write(f"# tpebble root={p['root']} t={p['t']}\nvalue {p['value']}\n")
        out.write(_sizes_line(p["sizes"]))


def _cover(a) -> tuple[int, dict]:
    result = cover_pebbling_number(a.tree, a.weights)
    return EXIT_OK, {
        "gamma": result.gamma,
        "argmax": result.argmax_root,
        "s": result.per_vertex_s,
        "degenerate": result.argmax_root is None,
    }


def _cover_text(out: IO[str], p: dict, a) -> None:
    if p["degenerate"]:
        out.write("# cover gamma=0 argmax=none (degenerate demand: empty support)\n")
    else:
        _table(out, f"# cover gamma={p['gamma']} argmax={p['argmax']}\n", a.tree.names, p["s"])


def _solvable(a) -> tuple[int, dict]:
    cert = is_solvable(a.tree, a.dist, a.weights)
    payload = {"solvable": cert.solvable, "witness_root": cert.witness_root, "hat": cert.hat_values}
    return (EXIT_OK if cert.solvable else EXIT_NEGATIVE), payload


def _solvable_text(out: IO[str], p: dict, a) -> None:
    if p["solvable"]:
        out.write(f"SOLVABLE {p['witness_root']}\n")
    else:
        _table(out, "UNSOLVABLE\n# hat value per root\n", a.tree.names, p["hat"])


def _witness(a) -> tuple[int, dict]:
    root = a.root
    if root is None:
        cert = is_solvable(a.tree, a.dist, a.weights)
        if not cert.solvable:
            raise NotSolvableError("distribution cannot meet the demand from any root")
        root = cert.witness_root
    return EXIT_OK, {"root": root, "moves": solve_witness(a.tree, a.dist, a.weights, root)}


def _witness_text(out: IO[str], p: dict, a) -> None:
    out.write(f"# witness root={p['root']} moves={sum(move.k for move in p['moves'])}\n")
    out.write(serialize_moves(p["moves"]))


def _simulate(a) -> tuple[int, dict]:
    try:
        final = simulate(a.tree, a.dist, a.moves)
    except IllegalMoveError as exc:
        return EXIT_NEGATIVE, {"illegal_index": exc.index, "reason": exc.reason}
    return EXIT_OK, {"final": dict(final.items()), "size": final.size}


def _simulate_text(out: IO[str], p: dict, a) -> None:
    if "final" in p:
        _table(out, f"# final size={p['size']}\n", a.tree.names, p["final"])
    else:
        out.write(f"ILLEGAL {p['illegal_index']} {p['reason']}\n")


def _extremal(a) -> tuple[int, dict]:
    result = cover_pebbling_number(a.tree, a.weights)
    if result.argmax_root is None:
        raise ValueError("demand has empty support, no extremal distribution exists")
    dist = _extremal_at(a.tree, a.weights, result.argmax_root)
    return EXIT_OK, {
        "gamma": result.gamma,
        "root": result.argmax_root,
        "size": dist.size,
        "distribution": dict(dist.items()),
    }


def _extremal_text(out: IO[str], p: dict, a) -> None:
    header = f"# extremal gamma={p['gamma']} size={p['size']} root={p['root']}\n"
    _table(out, header, a.tree.names, p["distribution"])


def _verify(a) -> tuple[int, dict]:
    report = verify_gamma(a.tree, a.weights, max_pebbles=a.max_pebbles)
    return (EXIT_OK if report.status == "PASS" else EXIT_NEGATIVE), report.to_json_dict()


def _report_text(out: IO[str], p: dict, a) -> None:
    """``key value`` lines of the report payload, vertex maps as ``v k;v k``."""

    def pairs(values: dict) -> str:
        return ";".join(f"{v} {k}" for v, k in values.items())

    keys = "status formula_gamma oracle_gamma confirmation distributions_checked tree"
    for key in keys.split():
        out.write(f"{key} {p[key]}\n")
    out.write(f"omega {pairs(p['omega']) or 'none'}\n")
    witness = p["witness"]
    out.write(f"witness {'none' if witness is None else pairs(witness) or 'empty'}\n")


def _gen_tree(a) -> tuple[int, dict]:
    tree = random_tree(a.n, a.seed)
    return EXIT_OK, {"n": a.n, "seed": a.seed, "vertices": tree.names, "edges": tree.edges}


class _Command(NamedTuple):
    help: str
    args: tuple  # (flags, add_argument keywords) pairs, in usage order
    # parsed arguments with the input files loaded -> (exit code, payload)
    handler: Callable[[argparse.Namespace], tuple[int, dict]]
    # (stdout, payload, parsed arguments) -> None
    text: Callable[[IO[str], dict, argparse.Namespace], None]
    all_roots: bool = False  # without --root, warn on stderr above QUADRATIC_WARN_SIZE vertices


def _arg(*flags: str, **options) -> tuple:
    return flags, options


_TREE = _arg("--tree", required=True, help="edge-list file")
_WEIGHTS = _arg("--weights", required=True, help="vertex-valued demand file")
_DIST = _arg("--dist", required=True, help="vertex-valued pebble file")

COMMANDS = {
    "partition": _Command(
        "maximum path partition toward a root",
        (_TREE, _arg("--root", required=True, help="orientation target vertex")),
        _partition,
        _partition_text,
    ),
    "tpebble": _Command(
        "t-pebbling number of a root or of the tree",
        (
            _TREE,
            _arg("--root", help="target vertex; omit for the global maximum"),
            _arg("-t", type=int, default=1, help="pebbles demanded at the root (default 1)"),
        ),
        _tpebble,
        _tpebble_text,
        all_roots=True,
    ),
    "cover": _Command(
        "cover pebbling number and per-vertex score table",
        (_TREE, _WEIGHTS),
        _cover,
        _cover_text,
    ),
    "solvable": _Command(
        "decide solvability; exit 0/1",
        (_TREE, _WEIGHTS, _DIST),
        _solvable,
        _solvable_text,
    ),
    "witness": _Command(
        "replayable move list meeting the demand",
        (
            _TREE,
            _WEIGHTS,
            _DIST,
            _arg("--root", help="collapse root (default: the certificate's witness root)"),
        ),
        _witness,
        _witness_text,
    ),
    "simulate": _Command(
        "replay a move list over a distribution",
        (_TREE, _DIST, _arg("--moves", required=True, help="move file, 'from to [k]' per line")),
        _simulate,
        _simulate_text,
    ),
    "extremal": _Command(
        "unsolvable distribution of size gamma-1",
        (_TREE, _WEIGHTS),
        _extremal,
        _extremal_text,
    ),
    "verify": _Command(
        "brute-force verification of the cover number",
        (
            _TREE,
            _WEIGHTS,
            _arg("--max-pebbles", type=int, default=512, help="size-scan ceiling (default 512)"),
        ),
        _verify,
        _report_text,
    ),
    "gen-tree": _Command(
        "random tree in edge-list format",
        (
            _arg("-n", type=int, required=True, help="vertex count"),
            _arg("--seed", type=int, default=0, help="generator seed (default 0)"),
        ),
        _gen_tree,
        lambda out, p, a: out.write(_edge_list(p["edges"], p["vertices"])),
    ),
}


@functools.cache
def build_parser() -> _Parser:
    # cached: building takes milliseconds, so in-process callers of ``run`` build it once
    # --help shows the docstring without its last paragraph, which is about the code
    parser = _Parser(prog="treepebble", description=__doc__.rsplit("\n\n", 1)[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--json", action="store_true", help="emit JSON instead of text")
        for flags, options in command.args:
            p.add_argument(*flags, **options)
    return parser


def _execute(argv: Sequence[str] | None, out: IO[str], err: IO[str]) -> int:
    with contextlib.redirect_stdout(out):  # argparse prints --help itself
        args = build_parser().parse_args(argv)
    command = COMMANDS[args.command]
    # the input files among the arguments: the tree first, the rest over it
    if hasattr(args, "tree"):
        args.tree = parse_tree(_read(args.tree))
    if hasattr(args, "weights"):
        args.weights = parse_weights(_read(args.weights), args.tree)
    if hasattr(args, "dist"):
        args.dist = parse_distribution(_read(args.dist), args.tree)
    if hasattr(args, "moves"):
        args.moves = parse_moves(_read(args.moves), args.tree)
    all_roots = command.all_roots and getattr(args, "root", None) is None
    if all_roots and args.tree.n > QUADRATIC_WARN_SIZE:
        err.write(
            f"warning: {args.command} repeats a linear pass for every root; "
            f"{args.tree.n} vertices will be slow\n"
        )
    code, payload = command.handler(args)
    if args.json:
        payload = {"command": args.command, **payload}
        out.write(json.dumps(payload, sort_keys=True) + "\n")
    else:
        command.text(out, payload, args)
    return code


def run(
    argv: Sequence[str] | None = None,
    stdout: IO[str] | None = None,
    stderr: IO[str] | None = None,
) -> int:
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    try:
        return _execute(argv, out, err)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except tuple(kind for kind, _, _ in _FAILURES) as exc:
        label, code = next((lb, code) for kind, lb, code in _FAILURES if isinstance(exc, kind))
        err.write(f"error: {label}: {exc}\n")
        return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
