"""The CLI at its size limits: each command in a child interpreter, 60 s each.

The inputs are a 10^5-leaf star (edges ``c v1`` ... ``c v100000``; ``v99999``
is the last of the hub's neighbours by name) and a 10^5-vertex path. All
commands run in one directory per module, so each input is written once.
"""

import functools
import os
import subprocess
import sys
from pathlib import Path

import pytest

import treepebble

SRC = str(Path(treepebble.__file__).resolve().parent.parent)


def cli(work: Path, *argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "treepebble.cli", *argv],
        cwd=work, env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True, timeout=60,
    )


@pytest.fixture(scope="module")
def work(tmp_path_factory) -> Path:
    work = tmp_path_factory.mktemp("limits")
    files = {
        "star.tree": "".join(f"c v{i}\n" for i in range(1, 100001)),
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


def test_cover_on_the_path_overflows(work):
    run = cli(work, "cover", "--tree", "path.tree", "--weights", "end.map")
    assert run.returncode == 3
    assert any(line.startswith("error: OVERFLOW:") for line in run.stderr.splitlines())
