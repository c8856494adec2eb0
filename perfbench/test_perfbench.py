"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

import io
import random
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
import treepebble.cli as cli  # noqa: E402


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(workload, tmp_path):
    runs = []
    for seed, name in ((5, "a"), (5, "b"), (6, "c")):
        (tmp_path / name).mkdir()
        queries = workloads.build(workload, seed, tmp_path / name)
        runs.append((_files(tmp_path / name), [q.argv[1:] for q in queries]))
    first, again, other = runs
    assert first[0] == again[0]
    assert first[1] == [[a.replace("/b/", "/a/") for a in argv] for argv in again[1]]
    # another seed gives other inputs; for the oracle, the same instances in another order
    assert first != other


@pytest.mark.parametrize("family", sorted(gen.SHALLOW_FAMILIES))
def test_families_stay_shallow(family):
    rng = random.Random(1)
    for n in (32, 256, 5000):
        tree = gen.SHALLOW_FAMILIES[family](n, rng)
        assert tree.n == n and len(tree.edges) == n - 1
        assert tree.diameter() < 63


def test_witness_instances_are_solvable_by_construction(tmp_path):
    tree = gen.random_recursive(300, random.Random(3))
    witness, simulate = workloads.witness_queries(tree, random.Random(4), 5_000, tmp_path, "w")
    measured = run.Measured()
    assert run.run_query(cli, witness, measured) is not None
    assert run.run_query(cli, simulate, measured) is not None
    assert measured.failed == 0
    assert 2_000 <= measured.moves // 2 <= 6_000


class _Corrupting:
    """A cli whose ``command`` output is rewritten by ``corrupt``."""

    def __init__(self, command, corrupt):
        self.command, self.corrupt = command, corrupt

    def run(self, argv, stdout, stderr):
        if argv[0] != self.command:
            return cli.run(argv, stdout=stdout, stderr=stderr)
        buffer = io.StringIO()
        code = cli.run(argv, stdout=buffer, stderr=stderr)
        stdout.write(self.corrupt(buffer.getvalue()))
        return code


def _failed(client, queries) -> int:
    measured = run.Measured()
    for query in queries:
        run.run_query(client, query, measured)
    return measured.failed


def test_wrong_gamma_counts_as_failed(tmp_path):
    tree = gen.random_recursive(40, random.Random(2))
    queries = workloads.formula_queries(tree, random.Random(2), "cover", tmp_path, "f")
    assert _failed(cli, queries) == 0
    wrong = _Corrupting("cover", lambda text: re.sub(r"gamma=(\d+)", lambda m: f"gamma={int(m[1]) + 1}", text))
    assert _failed(wrong, queries) == 1


def test_wrong_extremal_counts_as_failed(tmp_path):
    tree = gen.caterpillar(40, random.Random(2))
    queries = workloads.formula_queries(tree, random.Random(2), "extremal", tmp_path, "f")
    assert _failed(cli, queries) == 0
    # one more pebble on every vertex: the sizes no longer add up
    wrong = _Corrupting("extremal", lambda text: re.sub(r"^(\S+) (\d+)$", lambda m: f"{m[1]} {int(m[2]) + 1}",
                                                        text, flags=re.M))
    assert _failed(wrong, queries) >= 1


def test_illegal_move_list_counts_as_failed(tmp_path):
    tree = gen.spider(200, random.Random(5))
    queries = workloads.witness_queries(tree, random.Random(5), 3_000, tmp_path, "w")
    assert _failed(cli, queries) == 0
    # every move reversed: the replay runs a source dry at once
    reverse = _Corrupting("witness", lambda text: re.sub(r"^(\S+) (\S+)$", r"\2 \1", text, flags=re.M))
    assert _failed(reverse, queries) == 1


def test_tracer_reports_missing_symbols_as_absent(tmp_path):
    symbols = tracing.SYMBOLS + [
        ("treepebble.partition", "no_such_function", "partition.max_path", None, None),
        ("treepebble.tree", "Tree.no_such_method", "tree.orient", None, None),
        ("treepebble.no_such_module", "run", "cli", None, None),
    ]
    original = cli.run
    tracer = tracing.Tracer(symbols)
    tracer.install()
    try:
        assert cli.run is not original
        tree = gen.star(30, random.Random(1))
        queries = workloads.formula_queries(tree, random.Random(1), "tpebble", tmp_path, "s")
        for qid, query in enumerate(queries):
            tracer.query = qid
            assert run.run_query(cli, query, run.Measured()) is not None
    finally:
        tracer.uninstall()
    assert cli.run is original
    assert tracer.absent == [
        "treepebble.partition.no_such_function",
        "treepebble.tree.Tree.no_such_method",
        "treepebble.no_such_module.run",
    ]
    assert not tracer.counter_errors
    assert tracer.calls(function="t_pebbling_number") == 31  # one rooted query, 30 roots for the global one
    self_times = tracer.self_times()
    assert min(self_times.values()) >= 0
    roots = sum(s[5] - s[4] for s in tracer.spans if s[1] < 0)
    assert sum(self_times.values()) == pytest.approx(roots)


def test_tail_percentile_keeps_ten_queries_above():
    assert run.tail_percentile(20) == 50
    assert run.tail_percentile(52) == 75
    assert run.tail_percentile(159) == 90
    assert run.tail_percentile(250) == 95


def test_a_failed_query_counts_in_every_pass(tmp_path):
    tree = gen.random_recursive(40, random.Random(2))
    queries = workloads.formula_queries(tree, random.Random(2), "cover", tmp_path, "f")
    wrong = _Corrupting("cover", lambda text: text.replace("gamma=", "gamma=1"))
    with speed.SpeedProbe() as probe:
        measured = run.measure(wrong, queries, 0.0, probe)
    values, notes = run.end_to_end(measured, 0.1)
    assert (measured.passes, measured.failed) == (3, 3)
    assert notes["failed_frac"] == pytest.approx(3 / (3 * len(queries)))
    assert values["queries_per_s"] > 0 and values["latency_p50_ms"] > 0
