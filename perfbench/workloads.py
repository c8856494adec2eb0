"""The three workloads: seeded query lists, their input files and output checks.

A workload is a fixed list of CLI queries that makes up one pass. Each query
gives the argv for ``treepebble.cli.run``, the file its stdout goes to, the
exit code it must return and a check of what it printed. Checks read only
the meaning of an output (values, tables, verdicts, replay results), never
fixed bytes, so a new output layout that says the same thing still passes.
A move list is read as ``src dst`` or ``src dst count`` lines, so a
run-length move format also passes.

Why these workloads (they stress disjoint code):

* ``formula``: closed forms on shallow trees of 32..256 vertices. The
  per-root partition, orientation, Steiner-subtree and collapse loops do
  nearly all the work.
* ``witness``: move lists of 10^4..5*10^5 moves on trees of 1k..5k vertices,
  written by ``witness`` and replayed by ``simulate``. Move emission,
  move-file I/O, replay and tree parsing do the work; partitions are idle.
* ``oracle``: ``verify`` on random trees of 4..7 vertices. The brute-force
  search does the work; the cost per instance is heavy-tailed, which is why
  a pass is a fixed list and not a time-boxed stream.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import gen


class CheckFailed(Exception):
    """An output that does not mean what the query's inputs imply."""


@dataclass
class Query:
    command: str
    argv: list[str]
    out: Path
    expect_exit: int
    # stdout text -> moves the output accounts for; raises CheckFailed
    check: Callable[[str], int]
    n: int
    all_roots: bool = False


# -- output parsing -----------------------------------------------------


def _header(text: str) -> dict[str, str]:
    """``key=value`` fields of the first ``#`` line."""
    for line in text.splitlines():
        if line.startswith("#"):
            return dict(f.split("=", 1) for f in line[1:].split() if "=" in f)
    return {}


def _rows(text: str) -> list[list[str]]:
    return [line.split() for line in text.splitlines() if line.strip() and not line.startswith("#")]


def _table(text: str, tree: gen.TreeSpec) -> dict[str, int]:
    """``vertex value`` lines; every vertex exactly once."""
    table: dict[str, int] = {}
    for row in _rows(text):
        if len(row) == 2 and row[0] in tree.adj:
            if row[0] in table:
                raise CheckFailed(f"vertex {row[0]} listed twice")
            table[row[0]] = int(row[1])
    if len(table) != tree.n:
        raise CheckFailed(f"table lists {len(table)} of {tree.n} vertices")
    return table


def _keyed(text: str) -> dict[str, str]:
    """First value of each ``key value...`` line."""
    return {row[0]: row[1] if len(row) > 1 else "" for row in _rows(text)}


def count_moves(text: str, tree: gen.TreeSpec) -> int:
    """Moves in a ``src dst`` or ``src dst count`` document over ``tree``."""
    total = 0
    for row in _rows(text):
        if len(row) not in (2, 3) or row[0] not in tree.adj or row[1] not in tree.adj:
            raise CheckFailed(f"unreadable move line {' '.join(row)!r}")
        total += int(row[2]) if len(row) == 3 else 1
    return total


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _demand_term(dists: dict[str, dict[str, int]], demand: dict[str, int], v: str) -> int:
    """Pebbles that meet ``demand`` from a single pile on ``v``."""
    return sum(k << dists[b][v] for b, k in demand.items())


# -- checks --------------------------------------------------------------


def check_partition(tree: gen.TreeSpec, root: str) -> Callable[[str], int]:
    """Arc-disjoint paths toward ``root`` covering every edge, longest = eccentricity."""
    depth = tree.distances(root)

    def check(text: str) -> int:
        sizes = [int(a) for row in _rows(text) if row[0] == "sizes" for a in row[1:]]
        paths = [row[1:] for row in _rows(text) if row[0] == "path"]
        _expect(sizes == sorted(sizes, reverse=True), f"sizes {sizes} not nonincreasing")
        _expect(sizes == [len(p) - 1 for p in paths], "sizes do not match the paths")
        arcs = set()
        for p in paths:
            for a, b in zip(p, p[1:]):
                _expect(b in tree.adj[a] and depth[b] == depth[a] - 1, f"arc {a}->{b} not toward root")
                arcs.add(a)
        _expect(len(arcs) == tree.n - 1 == sum(sizes), "paths do not cover every arc once")
        _expect(sizes[0] == max(depth.values()), "longest path is not the eccentricity")
        return 0

    return check


def _score(sizes: list[int], t: int) -> int:
    return t * 2 ** sizes[0] + sum(2**a - 1 for a in sizes[1:])


def check_tpebble_root(tree: gen.TreeSpec, root: str, t: int) -> Callable[[str], int]:
    """Value is the partition score; closed forms on path ends and star centres."""
    depth = tree.distances(root)

    def check(text: str) -> int:
        keyed = _keyed(text)
        value = int(keyed["value"])
        sizes = [int(a) for row in _rows(text) if row[0] == "sizes" for a in row[1:]]
        _expect(sum(sizes) == tree.n - 1, "sizes do not cover every arc")
        _expect(sizes[0] == max(depth.values()), "longest path is not the eccentricity")
        _expect(value == _score(sizes, t), f"value {value} is not the score of {sizes}")
        if tree.family == "path":
            _expect(value == t * 2 ** (tree.n - 1), f"path end: {value} != t*2^(n-1)")
        if tree.family == "star":
            _expect(value == 2 * t + tree.n - 2, f"star centre: {value} != 2t+n-2")
        return 0

    return check


def check_tpebble_global(tree: gen.TreeSpec, t: int) -> Callable[[str], int]:
    """At least t*2^diam + n-1-diam; closed forms on paths and stars."""
    diam = tree.diameter()

    def check(text: str) -> int:
        keyed = _keyed(text)
        value, argmax = int(keyed["value"]), keyed["argmax"]
        _expect(argmax in tree.adj, f"argmax {argmax} is not a vertex")
        _expect(value >= t * 2**diam + tree.n - 1 - diam, f"value {value} below the diameter bound")
        if tree.family == "path":
            _expect(value == t * 2 ** (tree.n - 1), f"path: {value} != t*2^(n-1)")
            _expect(argmax == gen.path_end(tree), "path argmax is not the smaller end")
        if tree.family == "star":
            _expect(value == 4 * t + tree.n - 3, f"star: {value} != 4t+n-3")
            leaves = [v for v in tree.names if len(tree.adj[v]) == 1]
            _expect(argmax == leaves[0], "star argmax is not the smallest leaf")
        return 0

    return check


def check_cover(tree: gen.TreeSpec, demand: dict[str, int]) -> Callable[[str], int]:
    """gamma is the table maximum, argmax its smallest holder, no score below the pile bound."""
    dists = {b: tree.distances(b) for b in demand}

    def check(text: str) -> int:
        head = _header(text)
        table = _table(text, tree)
        gamma = int(head["gamma"])
        _expect(gamma == max(table.values()), f"gamma {gamma} is not the table maximum")
        _expect(head["argmax"] == min(v for v in table if table[v] == gamma), "argmax is not the smallest holder")
        for v, s in table.items():
            _expect(s >= _demand_term(dists, demand, v), f"score of {v} below its single-pile cost")
        return 0

    return check


def check_extremal(tree: gen.TreeSpec, demand: dict[str, int]) -> Callable[[str], int]:
    """Size gamma-1, the listed pebbles add up, gamma above every single-pile cost."""
    dists = {b: tree.distances(b) for b in demand}

    def check(text: str) -> int:
        head = _header(text)
        table = _table(text, tree)
        gamma, size = int(head["gamma"]), int(head["size"])
        _expect(size == gamma - 1, f"size {size} != gamma-1 = {gamma - 1}")
        _expect(sum(table.values()) == size, "pebbles do not add up to the size")
        _expect(min(table.values()) >= 0, "negative pile")
        _expect(gamma >= max(_demand_term(dists, demand, v) for v in tree.names), "gamma below a single-pile cost")
        return 0

    return check


def check_solvable(tree: gen.TreeSpec, solvable: bool) -> Callable[[str], int]:
    """Verdict as built; UNSOLVABLE lists a negative collapsed value for every root."""

    def check(text: str) -> int:
        verdict = _rows(text)[0]
        if solvable:
            _expect(verdict[0] == "SOLVABLE" and verdict[1] in tree.adj, f"expected SOLVABLE, got {verdict}")
        else:
            _expect(verdict == ["UNSOLVABLE"], f"expected UNSOLVABLE, got {verdict}")
            _expect(max(_table(text, tree).values()) < 0, "a root has a nonnegative collapsed value")
        return 0

    return check


def check_witness(tree: gen.TreeSpec, shared: dict) -> Callable[[str], int]:
    """A readable move list; its count agrees with the header when one is given."""

    def check(text: str) -> int:
        shared.pop("moves", None)
        moves = count_moves(text, tree)
        head = _header(text)
        if "moves" in head:
            _expect(int(head["moves"]) == moves, f"header says {head['moves']} moves, file has {moves}")
        shared["moves"] = moves
        return moves

    return check


def check_simulate(tree: gen.TreeSpec, demand: dict[str, int], start_size: int, shared: dict) -> Callable[[str], int]:
    """The replay meets the demand and burns exactly one pebble per move."""

    def check(text: str) -> int:
        _expect("moves" in shared, "the witness before this replay did not produce a move list")
        final = _table(text, tree)
        size = int(_header(text)["size"])
        _expect(sum(final.values()) == size, "final pebbles do not add up to the size")
        for b, k in demand.items():
            _expect(final[b] >= k, f"replay leaves {final[b]} < {k} pebbles on {b}")
        _expect(size == start_size - shared["moves"], f"final size {size} != {start_size} - {shared['moves']} moves")
        return start_size - size

    return check


def check_verify(tree: gen.TreeSpec, demand: dict[str, int]) -> Callable[[str], int]:
    """PASS with oracle_gamma == formula_gamma, both above every single-pile cost."""
    dists = {b: tree.distances(b) for b in demand}

    def check(text: str) -> int:
        keyed = _keyed(text)
        _expect(keyed["status"] == "PASS", f"status {keyed['status']}")
        oracle, formula = int(keyed["oracle_gamma"]), int(keyed["formula_gamma"])
        _expect(oracle == formula, f"oracle_gamma {oracle} != formula_gamma {formula}")
        _expect(formula >= max(_demand_term(dists, demand, v) for v in tree.names), "gamma below a single-pile cost")
        return 0

    return check


# -- instance builders ----------------------------------------------------


def _write(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


def formula_queries(tree: gen.TreeSpec, rng: random.Random, all_roots: str, work: Path, tag: str) -> list[Query]:
    """partition, tpebble --root, one all-roots command and two solvable queries on one tree.

    ``all_roots`` is ``cover``, ``tpebble`` or ``extremal``; an extremal
    query is followed by ``solvable`` on the distribution it printed.
    """
    n = tree.n
    tfile = _write(work / f"{tag}.tree", tree.text())
    if tree.family == "star":
        root = gen.star_centre(tree)
    elif tree.family == "path":
        root = rng.choice([v for v in tree.names if len(tree.adj[v]) == 1])
    else:
        root = rng.choice(tree.names)
    t = rng.randint(1, 3)
    demand = gen.random_demand(tree, rng, min(n, rng.randint(1, 8)), 3)
    wfile = _write(work / f"{tag}.w", gen.map_text(demand))
    pile_root = rng.choice(tree.names)
    solvable = {pile_root: gen.covering_pile(tree, pile_root, demand)}
    for v in rng.sample(tree.names, 3):
        solvable[v] = solvable.get(v, 0) + rng.randint(0, 5)
    short = {}
    for _ in range(sum(demand.values()) - 1):
        v = rng.choice(tree.names)
        short[v] = short.get(v, 0) + 1
    solv_file = _write(work / f"{tag}.solv.dist", gen.map_text(solvable))
    short_file = _write(work / f"{tag}.short.dist", gen.map_text(short))

    def out(name: str) -> Path:
        return work / f"{tag}.{name}.out"

    queries = [
        Query("partition", ["partition", "--tree", tfile, "--root", root], out("partition"), 0,
              check_partition(tree, root), n),
        Query("tpebble", ["tpebble", "--tree", tfile, "--root", root, "-t", str(t)], out("tpebble_root"), 0,
              check_tpebble_root(tree, root, t), n),
    ]
    if all_roots == "cover":
        queries.append(Query("cover", ["cover", "--tree", tfile, "--weights", wfile], out("cover"), 0,
                             check_cover(tree, demand), n, all_roots=True))
    elif all_roots == "tpebble":
        queries.append(Query("tpebble", ["tpebble", "--tree", tfile, "-t", str(t)], out("tpebble"), 0,
                             check_tpebble_global(tree, t), n, all_roots=True))
    else:
        queries.append(Query("extremal", ["extremal", "--tree", tfile, "--weights", wfile], out("extremal"), 0,
                             check_extremal(tree, demand), n, all_roots=True))
        queries.append(Query("solvable", ["solvable", "--tree", tfile, "--weights", wfile, "--dist", str(out("extremal"))],
                             out("solvable_extremal"), 1, check_solvable(tree, False), n))
    queries.append(Query("solvable", ["solvable", "--tree", tfile, "--weights", wfile, "--dist", solv_file],
                         out("solvable"), 0, check_solvable(tree, True), n))
    queries.append(Query("solvable", ["solvable", "--tree", tfile, "--weights", wfile, "--dist", short_file],
                         out("solvable_short"), 1, check_solvable(tree, False), n))
    return queries


def witness_queries(tree: gen.TreeSpec, rng: random.Random, target: int, work: Path, tag: str) -> list[Query]:
    """``witness --root r`` then ``simulate`` of the list it wrote, ~``target`` moves.

    r holds the covering pile for a demand on 1..8 vertices, so the instance
    is solvable from r by construction. A demand k_b at distance d costs
    k_b*(2^d - 1) moves along its path, which sets the move count: each
    demand vertex gets an equal share, with d small enough that rounding
    loses at most 1/32 of it, and the shallowest one takes the remainder.
    A few small extra piles add a little surplus folding.
    """
    root = rng.choice(tree.names)
    depth = tree.distances(root)
    support = rng.randint(1, 8)
    share = target // support
    cost = {v: (1 << d) - 1 for v, d in depth.items()}
    near = [v for v in tree.names if 1 <= cost[v] <= share // 32]
    chosen = rng.sample(near, min(support, len(near)))
    demand = {b: share // cost[b] for b in chosen}
    shallowest = min(chosen, key=lambda b: (depth[b], b))
    demand[shallowest] += (target - sum(k * cost[b] for b, k in demand.items())) // cost[shallowest]
    dist = {root: gen.covering_pile(tree, root, demand)}
    for v in rng.sample(tree.names, 4):
        dist[v] = dist.get(v, 0) + rng.randint(0, 50)
    tfile = _write(work / f"{tag}.tree", tree.text())
    wfile = _write(work / f"{tag}.w", gen.map_text(demand))
    dfile = _write(work / f"{tag}.dist", gen.map_text(dist))
    moves = work / f"{tag}.moves"
    shared: dict = {}
    return [
        Query("witness", ["witness", "--tree", tfile, "--weights", wfile, "--dist", dfile, "--root", root],
              moves, 0, check_witness(tree, shared), tree.n),
        Query("simulate", ["simulate", "--tree", tfile, "--dist", dfile, "--moves", str(moves)],
              work / f"{tag}.final.out", 0, check_simulate(tree, demand, sum(dist.values()), shared), tree.n),
    ]


def oracle_queries(tree: gen.TreeSpec, rng: random.Random, work: Path, tag: str) -> list[Query]:
    """``verify`` with a demand in the style of acceptance criteria 1 and 2.

    Up to 6 vertices: 1..3 demand vertices, weights 1..3, total at most 4
    (criterion 1 has the same shape with entries up to 2). At 7 vertices:
    one demand vertex of weight 1..3, as in criterion 2. Larger demands
    exceed the oracle's default budget of 10^7 memo states (gigabytes) on
    some trees.
    """
    if tree.n == 7:
        demand = {rng.choice(tree.names): rng.randint(1, 3)}
    else:
        while True:
            demand = gen.random_demand(tree, rng, rng.randint(1, 3), 3)
            if sum(demand.values()) <= 4:
                break
    tfile = _write(work / f"{tag}.tree", tree.text())
    wfile = _write(work / f"{tag}.w", gen.map_text(demand))
    return [Query("verify", ["verify", "--tree", tfile, "--weights", wfile], work / f"{tag}.verify.out", 0,
                  check_verify(tree, demand), tree.n)]


# -- workloads -------------------------------------------------------------

# (family, n) per formula tree. All-roots queries on rrt and binary trees
# cost ~8x per doubling of n, on the other families ~4x, so rrt and binary
# stop at 144 and the cheap families go up to 256. Many mid-size trees,
# rather than a few big ones, keep one tree's shape from setting the pass.
FORMULA_TREES = [
    (family, n)
    for family in ("rrt", "binary")
    for n in (32, 48, 64, 80, 96, 112, 128, 144)
] + [
    (family, n)
    for family in ("caterpillar", "spider", "star")
    for n in (32, 64, 96, 128, 160, 192, 224, 256)
]
FORMULA_PATHS = (12, 24, 40)
ALL_ROOTS_COMMANDS = ("cover", "tpebble", "extremal")

# (family, n, moves) per witness instance. Most lists are short (10^4 to
# 3*10^4 moves, on all four families), so a pass has enough queries for a
# tail figure. Three long ones (10^5, 2*10^5, 5*10^5) set the peak memory;
# they avoid spiders and caterpillars, whose hubs of ~100-400 neighbours
# make the cost per replayed move depend on whether the seed routes moves
# through a hub. Replay costs ~5 us per move, so one pass takes ~6 s.
WITNESS_INSTANCES = [
    (("rrt", "binary", "caterpillar", "spider")[i % 4], 1000 * (1 + i % 5), round(10_000 * 1.06**i))
    for i in range(21)
] + [("rrt", 3000, 100_000), ("rrt", 4000, 200_000), ("binary", 5000, 500_000)]

# vertex count -> verify queries per pass. The instances are the same for
# every seed, which only shuffles their order: the oracle's cost is
# heavy-tailed (1 ms to ~4 s) and chaotic in the labelling (relabelling
# one instance changes it up to 7x), so with a set drawn per seed, of a
# size that fits a run, the quartiles of the median and tail latency over
# five seeds lay 10% and 17% apart.
ORACLE_COUNTS = {4: 30, 5: 40, 6: 40, 7: 40}
ORACLE_INSTANCE_SEED = "oracle"


def build(workload: str, seed: int, work: Path) -> list[Query]:
    """Write the input files of ``workload`` under ``work`` and return one pass."""
    rng = random.Random(f"{workload}:{seed}")
    queries: list[Query] = []
    if workload == "formula":
        for i, (family, n) in enumerate(FORMULA_TREES):
            tree = gen.SHALLOW_FAMILIES[family](n, rng)
            queries += formula_queries(tree, rng, ALL_ROOTS_COMMANDS[i % 3], work, f"f{i:02d}")
        for i, n in enumerate(FORMULA_PATHS):
            tree = gen.path(n, rng)
            queries += formula_queries(tree, rng, "tpebble", work, f"p{i:02d}")
    elif workload == "witness":
        for i, (family, n, target) in enumerate(WITNESS_INSTANCES):
            tree = gen.SHALLOW_FAMILIES[family](n, rng)
            queries += witness_queries(tree, rng, target, work, f"w{i:02d}")
    elif workload == "oracle":
        fixed = random.Random(ORACLE_INSTANCE_SEED)
        sizes = [n for n, count in ORACLE_COUNTS.items() for _ in range(count)]
        for i, n in enumerate(sizes):
            queries += oracle_queries(gen.uniform_labeled(n, fixed), fixed, work, f"o{i:03d}")
        rng.shuffle(queries)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return queries


WORKLOADS = ("formula", "witness", "oracle")
