"""Command-line interface: parse input files, compute, print stable text.

Text output is deterministic: tables are ``vertex value`` lines sorted by
name under a single ``#`` header line, and ``--json`` emits the structured
equivalent with sorted keys. Exit codes: 0 success, 1 negative verdict
(UNSOLVABLE, verify MISMATCH, illegal replay), 2 usage or input errors,
3 overflow, 4 oracle budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import IO, Sequence

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
from .tree import Tree, parse_distribution, parse_tree, parse_weights, serialize_tree

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_OVERFLOW = 3
EXIT_BUDGET = 4

# solvable and cover repeat a linear pass (a collapse, a score) for every
# root; above this size that quadratic cost gets noticeable and the user is
# warned on stderr
QUADRATIC_WARN_SIZE = 1000


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        raise _UsageError(message)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _load_tree(args) -> Tree:
    return parse_tree(_read(args.tree))


def _emit_json(out: IO[str], payload: dict) -> None:
    out.write(json.dumps(payload, sort_keys=True) + "\n")


def _warn_quadratic(tree: Tree, err: IO[str], command: str) -> None:
    if tree.n > QUADRATIC_WARN_SIZE:
        err.write(
            f"warning: {command} repeats a linear pass for every root; "
            f"{tree.n} vertices will be slow\n"
        )


def _cmd_partition(args, out: IO[str], err: IO[str]) -> int:
    tree = _load_tree(args)
    tree._require(args.root)
    part = max_path_partition(tree.orient_toward((args.root,)))
    if args.json:
        _emit_json(
            out,
            {
                "command": "partition",
                "root": args.root,
                "sizes": list(part.sizes),
                "paths": [list(p) for p in part.paths],
            },
        )
        return EXIT_OK
    out.write(f"# partition root={args.root}\n")
    out.write("sizes" + "".join(f" {a}" for a in part.sizes) + "\n")
    for path in part.paths:
        out.write("path " + " ".join(path) + "\n")
    return EXIT_OK


def _cmd_tpebble(args, out: IO[str], err: IO[str]) -> int:
    tree = _load_tree(args)
    if args.root is not None:
        result = t_pebbling_number(tree, args.root, args.t)
        if args.json:
            _emit_json(
                out,
                {
                    "command": "tpebble",
                    "t": args.t,
                    "root": args.root,
                    "value": result.value,
                    "sizes": list(result.partition.sizes),
                },
            )
            return EXIT_OK
        out.write(f"# tpebble root={args.root} t={args.t}\n")
        out.write(f"value {result.value}\n")
        out.write("sizes" + "".join(f" {a}" for a in result.partition.sizes) + "\n")
        return EXIT_OK
    value, argmax = t_pebbling_global(tree, args.t)
    if args.json:
        _emit_json(
            out, {"command": "tpebble", "t": args.t, "value": value, "argmax": argmax}
        )
        return EXIT_OK
    out.write(f"# tpebble t={args.t}\n")
    out.write(f"value {value}\n")
    out.write(f"argmax {argmax}\n")
    return EXIT_OK


def _cmd_cover(args, out: IO[str], err: IO[str]) -> int:
    tree = _load_tree(args)
    weights = parse_weights(_read(args.weights), tree)
    _warn_quadratic(tree, err, "cover")
    result = cover_pebbling_number(tree, weights)
    if args.json:
        _emit_json(
            out,
            {
                "command": "cover",
                "gamma": result.gamma,
                "argmax": result.argmax_root,
                "s": result.per_vertex_s,
                "degenerate": result.argmax_root is None,
            },
        )
        return EXIT_OK
    if result.argmax_root is None:
        out.write("# cover gamma=0 argmax=none (degenerate demand: empty support)\n")
        return EXIT_OK
    out.write(f"# cover gamma={result.gamma} argmax={result.argmax_root}\n")
    for name in tree.names:
        out.write(f"{name} {result.per_vertex_s[name]}\n")
    return EXIT_OK


def _cmd_solvable(args, out: IO[str], err: IO[str]) -> int:
    tree = _load_tree(args)
    weights = parse_weights(_read(args.weights), tree)
    dist = parse_distribution(_read(args.dist), tree)
    _warn_quadratic(tree, err, "solvable")
    cert = is_solvable(tree, dist, weights)
    if args.json:
        _emit_json(
            out,
            {
                "command": "solvable",
                "solvable": cert.solvable,
                "witness_root": cert.witness_root,
                "hat": cert.hat_values,
            },
        )
        return EXIT_OK if cert.solvable else EXIT_NEGATIVE
    if cert.solvable:
        out.write(f"SOLVABLE {cert.witness_root}\n")
        return EXIT_OK
    out.write("UNSOLVABLE\n")
    out.write("# hat value per root\n")
    for name in tree.names:
        out.write(f"{name} {cert.hat_values[name]}\n")
    return EXIT_NEGATIVE


def _cmd_witness(args, out: IO[str], err: IO[str]) -> int:
    tree = _load_tree(args)
    weights = parse_weights(_read(args.weights), tree)
    dist = parse_distribution(_read(args.dist), tree)
    root = args.root
    if root is None:
        cert = is_solvable(tree, dist, weights)
        if not cert.solvable:
            raise NotSolvableError("distribution cannot meet the demand from any root")
        root = cert.witness_root
    moves = solve_witness(tree, dist, weights, root)
    if args.json:
        _emit_json(
            out,
            {
                "command": "witness",
                "root": root,
                "moves": [[mv.src, mv.dst] for mv in moves],
            },
        )
        return EXIT_OK
    out.write(f"# witness root={root} moves={len(moves)}\n")
    out.write(serialize_moves(moves))
    return EXIT_OK


def _cmd_simulate(args, out: IO[str], err: IO[str]) -> int:
    tree = _load_tree(args)
    dist = parse_distribution(_read(args.dist), tree)
    moves = parse_moves(_read(args.moves), tree)
    try:
        final = simulate(tree, dist, moves)
    except IllegalMoveError as exc:
        if args.json:
            _emit_json(
                out,
                {"command": "simulate", "illegal_index": exc.index, "reason": exc.reason},
            )
            return EXIT_NEGATIVE
        out.write(f"ILLEGAL {exc.index} {exc.reason}\n")
        return EXIT_NEGATIVE
    if args.json:
        _emit_json(
            out,
            {
                "command": "simulate",
                "final": dict(final.items()),
                "size": final.size,
            },
        )
        return EXIT_OK
    out.write(f"# final size={final.size}\n")
    for name in tree.names:
        out.write(f"{name} {final[name]}\n")
    return EXIT_OK


def _cmd_extremal(args, out: IO[str], err: IO[str]) -> int:
    tree = _load_tree(args)
    weights = parse_weights(_read(args.weights), tree)
    result = cover_pebbling_number(tree, weights)
    if result.argmax_root is None:
        raise ValueError("demand has empty support, no extremal distribution exists")
    dist = _extremal_at(tree, weights, result.argmax_root)
    if args.json:
        _emit_json(
            out,
            {
                "command": "extremal",
                "gamma": result.gamma,
                "root": result.argmax_root,
                "size": dist.size,
                "distribution": dict(dist.items()),
            },
        )
        return EXIT_OK
    out.write(f"# extremal gamma={result.gamma} size={dist.size} root={result.argmax_root}\n")
    for name in tree.names:
        out.write(f"{name} {dist[name]}\n")
    return EXIT_OK


def _cmd_verify(args, out: IO[str], err: IO[str]) -> int:
    tree = _load_tree(args)
    weights = parse_weights(_read(args.weights), tree)
    report = verify_gamma(tree, weights, max_pebbles=args.max_pebbles)
    if args.json:
        payload = report.to_json_dict()
        payload["command"] = "verify"
        _emit_json(out, payload)
    else:
        out.write(report.to_text())
    return EXIT_OK if report.status == "PASS" else EXIT_NEGATIVE


def _cmd_gen_tree(args, out: IO[str], err: IO[str]) -> int:
    tree = random_tree(args.n, args.seed)
    if args.json:
        _emit_json(
            out,
            {
                "command": "gen-tree",
                "n": args.n,
                "seed": args.seed,
                "vertices": list(tree.names),
                "edges": [list(e) for e in tree.edges],
            },
        )
        return EXIT_OK
    out.write(serialize_tree(tree))
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="treepebble", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, help_text: str) -> _Parser:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--json", action="store_true", help="emit JSON instead of text")
        return p

    p = add("partition", _cmd_partition, "maximum path partition toward a root")
    p.add_argument("--tree", required=True, help="edge-list file")
    p.add_argument("--root", required=True, help="orientation target vertex")

    p = add("tpebble", _cmd_tpebble, "t-pebbling number of a root or of the tree")
    p.add_argument("--tree", required=True)
    p.add_argument("--root", help="target vertex; omit for the global maximum")
    p.add_argument("-t", type=int, default=1, help="pebbles demanded at the root (default 1)")

    p = add("cover", _cmd_cover, "cover pebbling number and per-vertex score table")
    p.add_argument("--tree", required=True)
    p.add_argument("--weights", required=True, help="vertex-valued demand file")

    p = add("solvable", _cmd_solvable, "decide solvability; exit 0/1")
    p.add_argument("--tree", required=True)
    p.add_argument("--weights", required=True)
    p.add_argument("--dist", required=True, help="vertex-valued pebble file")

    p = add("witness", _cmd_witness, "replayable move list meeting the demand")
    p.add_argument("--tree", required=True)
    p.add_argument("--weights", required=True)
    p.add_argument("--dist", required=True)
    p.add_argument("--root", help="collapse root (default: the certificate's witness root)")

    p = add("simulate", _cmd_simulate, "replay a move list over a distribution")
    p.add_argument("--tree", required=True)
    p.add_argument("--dist", required=True)
    p.add_argument("--moves", required=True, help="move-list file, 'from to' per line")

    p = add("extremal", _cmd_extremal, "unsolvable distribution of size gamma-1")
    p.add_argument("--tree", required=True)
    p.add_argument("--weights", required=True)

    p = add("verify", _cmd_verify, "brute-force verification of the cover number")
    p.add_argument("--tree", required=True)
    p.add_argument("--weights", required=True)
    p.add_argument("--max-pebbles", type=int, default=512, help="size-scan ceiling (default 512)")

    p = add("gen-tree", _cmd_gen_tree, "random tree in edge-list format")
    p.add_argument("-n", type=int, required=True, help="vertex count")
    p.add_argument("--seed", type=int, default=0, help="generator seed (default 0)")

    return parser


def run(
    argv: Sequence[str] | None = None,
    stdout: IO[str] | None = None,
    stderr: IO[str] | None = None,
) -> int:
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        err.write(f"error: USAGE: {exc}\n")
        return EXIT_USAGE
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        return args.func(args, out, err)
    except _UsageError as exc:
        err.write(f"error: USAGE: {exc}\n")
        return EXIT_USAGE
    except TreeFormatError as exc:
        err.write(f"error: FORMAT: {exc}\n")
        return EXIT_USAGE
    except UnknownVertexError as exc:
        err.write(f"error: UNKNOWN_VERTEX: {exc}\n")
        return EXIT_USAGE
    except NotSolvableError as exc:
        err.write(f"error: UNSOLVABLE: {exc}\n")
        return EXIT_NEGATIVE
    except IllegalMoveError as exc:
        err.write(f"error: ILLEGAL_MOVE: {exc}\n")
        return EXIT_NEGATIVE
    except OverflowLimitError as exc:
        err.write(f"error: OVERFLOW: {exc}\n")
        return EXIT_OVERFLOW
    except BudgetExceededError as exc:
        err.write(f"error: BUDGET: {exc}\n")
        return EXIT_BUDGET
    except OSError as exc:
        err.write(f"error: IO: {exc}\n")
        return EXIT_USAGE
    except ValueError as exc:
        err.write(f"error: VALUE: {exc}\n")
        return EXIT_USAGE


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
