"""The CLI at its size limits: each command in a child interpreter, 60 s each.

The inputs are a 10^5-leaf star (edges ``c v1`` ... ``c v100000``; ``v99999``
is the last of the hub's neighbours by name), the same star with its lines
shuffled and every other edge written leaf first, a 10^5-vertex path, and
random recursive trees (edges ``v<parent> v<i>``) of 2,000 vertices, for the
quadratic global ``tpebble``, and of 10^6 vertices. All commands run
in one directory per module, so each input is written once. Three runs
have their address space capped: one so that an allocation fails, and two
to show that a tree past ``gen-tree``'s ceiling is refused before any is.
"""

import functools
import os
import random
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import treepebble

SRC = str(Path(treepebble.__file__).resolve().parent.parent)


def cli(work: Path, *argv: str, **options) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "treepebble.cli", *argv],
        cwd=work, env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True, timeout=60,
        **options,
    )


@pytest.fixture(scope="module")
def work(tmp_path_factory) -> Path:
    work = tmp_path_factory.mktemp("limits")
    shuffled = [f"v{i} c\n" if i % 2 else f"c v{i}\n" for i in range(1, 100001)]
    random.Random(1).shuffle(shuffled)
    files = {
        "star.tree": "".join(f"c v{i}\n" for i in range(1, 100001)),
        "shuffled.tree": "".join(shuffled),
        "demand.map": "v1 1\n",
        "dist.map": "c 3\n",
        "path.tree": "".join(f"p{i:06d} p{i + 1:06d}\n" for i in range(99999)),
        "end.map": "p000000 1\n",
    }
    for k in (10**5, 10**6):
        files[f"hub{k}.demand"] = f"v99999 {k}\n"
        files[f"hub{k}.dist"] = f"c {2 * k}\n"
    for name, text in files.items():
        (work / name).write_text(text)
    return work


@pytest.fixture(scope="module")
def hub(work):
    @functools.cache
    def witness_and_replay(k: int) -> tuple[subprocess.CompletedProcess, ...]:
        """``witness`` of one batch of k moves c -> v99999, then its ``simulate``."""
        demand, dist, moves = f"hub{k}.demand", f"hub{k}.dist", f"hub{k}.moves"
        witness = cli(work, "witness", "--tree", "star.tree", "--weights", demand, "--dist", dist)
        (work / moves).write_text(witness.stdout)
        return witness, cli(work, "simulate", "--tree", "star.tree", "--dist", dist, "--moves", moves)

    return witness_and_replay


@pytest.mark.parametrize("command", ["solvable", "cover", "extremal"])
def test_star_needs_no_warning(work, command):
    dist = ("--dist", "dist.map") if command == "solvable" else ()
    run = cli(work, command, "--tree", "star.tree", "--weights", "demand.map", *dist)
    assert (run.returncode, run.stderr) == (0, "")


def test_partition_toward_the_hub(work):
    # one sink vertex: orienting checks the sink by counting the cut arcs of all 10^5 + 1 vertices
    run = cli(work, "partition", "--tree", "star.tree", "--root", "c")
    assert (run.returncode, run.stderr) == (0, "")
    lines = run.stdout.splitlines()
    assert lines[:1] == ["# partition root=c"] and len(lines) == 2 + 10**5


def test_tpebble_at_a_leaf(work):
    # one path v10 -> c -> v1 of 2 arcs and 99998 single arcs: 2 * 2^2 + 99998 * 2^1 - 99999 + 1
    run = cli(work, "tpebble", "--tree", "star.tree", "--root", "v1", "-t", "2")
    assert (run.returncode, run.stderr) == (0, "")
    assert run.stdout.splitlines()[:2] == ["# tpebble root=v1 t=2", "value 100006"]


def test_cover_on_the_shuffled_star_prints_what_it_prints_on_the_sorted_one(work):
    # the names' order and the hub's row come from sorting, whatever the line order and orientation
    trees = ("star.tree", "shuffled.tree")
    runs = [cli(work, "cover", "--tree", t, "--weights", "demand.map") for t in trees]
    assert [(run.returncode, run.stderr) for run in runs] == [(0, "")] * 2
    assert runs[1].stdout == runs[0].stdout


@pytest.mark.parametrize("k", [10**5, 10**6])
def test_witness_writes_one_batch_line_and_simulate_replays_it(hub, k):
    witness, replay = hub(k)
    assert (witness.returncode, witness.stderr) == (0, "")
    moves = [line for line in witness.stdout.splitlines() if not line.startswith("#")]
    assert moves == [f"c v99999 {k}"]
    assert (replay.returncode, replay.stderr) == (0, "")
    assert f"v99999 {k}" in replay.stdout.splitlines()


def test_two_token_lines_replay_as_the_batch(work, hub):
    # the older move format, one 'from to' line per move: the run of equal lines is one batch
    (work / "each.moves").write_text("c v99999\n" * 10**6)
    run = cli(work, "simulate", "--tree", "star.tree", "--dist", "hub1000000.dist", "--moves", "each.moves")
    assert (run.returncode, run.stderr) == (0, "")
    assert run.stdout == hub(10**6)[1].stdout


def test_global_tpebble_on_a_random_recursive_tree(work):
    # every root is scored, so this is the one quadratic command; its maximum is the cover number
    # of the one-vertex demand {argmax: 2}
    rng = random.Random(7)
    text = "".join(f"v{rng.randrange(i)} v{i}\n" for i in range(1, 2000))
    (work / "rrt2000.tree").write_text(text)
    run = cli(work, "tpebble", "--tree", "rrt2000.tree", "-t", "2")
    assert run.returncode == 0
    warning = "warning: tpebble repeats a linear pass for every root; 2000 vertices will be slow\n"
    assert run.stderr == warning
    header, value, argmax = run.stdout.splitlines()
    assert header == "# tpebble t=2" and argmax.startswith("argmax ")
    demand = treepebble.WeightFunction({argmax.removeprefix("argmax "): 2})
    gamma = treepebble.cover_pebbling_number(treepebble.parse_tree(text), demand).gamma
    assert value == f"value {gamma}"


def test_cover_on_the_path_overflows(work):
    run = cli(work, "cover", "--tree", "path.tree", "--weights", "end.map")
    assert run.returncode == 3
    assert any(line.startswith("error: OVERFLOW:") for line in run.stderr.splitlines())


def test_witness_on_a_random_recursive_tree_of_a_million_vertices(work):
    # a canonical document, so the tree is parsed by one split; one pebble demanded at the last
    # vertex costs 2^d - 1 moves from v0 at depth d, one batch per arc of the path
    rng = random.Random(6)
    depth = [0]
    lines = []
    for i in range(1, 10**6):
        parent = rng.randrange(i)
        depth.append(depth[parent] + 1)
        lines.append(f"v{parent} v{i}\n")
    d = depth[-1]
    (work / "rrt.tree").write_text("".join(lines))
    (work / "rrt.demand").write_text(f"v{10**6 - 1} 1\n")
    (work / "rrt.dist").write_text(f"v0 {2**d}\n")
    run = cli(work, "witness", "--tree", "rrt.tree", "--weights", "rrt.demand", "--dist", "rrt.dist",
              "--root", "v0")
    assert (run.returncode, run.stderr) == (0, "")
    header, *moves = run.stdout.splitlines()
    assert header == f"# witness root=v0 moves={2**d - 1}"
    assert len(moves) == d and moves[-1].split()[1] == f"v{10**6 - 1}"
    # the replay tests adjacency on the tree's edge columns, with no adjacency rows or rooting
    (work / "rrt.moves").write_text(run.stdout)
    replay = cli(work, "simulate", "--tree", "rrt.tree", "--dist", "rrt.dist", "--moves", "rrt.moves")
    assert (replay.returncode, replay.stderr) == (0, "")
    header, *table = replay.stdout.splitlines()
    assert header == f"# final size={2**d - (2**d - 1)}"
    assert int(dict(line.split() for line in table)[f"v{10**6 - 1}"]) >= 1


def _capped() -> None:
    limit = 256 * 2**20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def test_out_of_memory_is_a_budget_error(work):
    # 10^7 vertex names, the most gen-tree accepts, need gigabytes, past a 256 MB address space
    run = cli(work, "gen-tree", "-n", "10000000", preexec_fn=_capped)
    assert (run.returncode, run.stdout, run.stderr) == (4, "", "error: BUDGET: out of memory\n")


def test_a_tree_past_the_ceiling_is_refused_before_any_allocation(work):
    # 10^12 vertex names would need ~34 TB; under the 256 MB cap an allocation would fail
    # with "out of memory", so the refusal's own message shows that nothing was allocated
    refusal = "1000000000000 vertices exceed random tree limit 10000000"
    run = cli(work, "gen-tree", "-n", "1000000000000", preexec_fn=_capped)
    assert (run.returncode, run.stdout, run.stderr) == (4, "", f"error: BUDGET: {refusal}\n")
    # the library raises the same refusal, uncaught, as the last line of its traceback
    run = subprocess.run(
        [sys.executable, "-c", "import treepebble; treepebble.random_tree(10**12, 0)"],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True, timeout=60,
        preexec_fn=_capped,
    )
    assert run.returncode == 1
    assert run.stderr.splitlines()[-1] == f"treepebble.errors.BudgetExceededError: {refusal}"
