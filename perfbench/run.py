"""treepebble benchmark: one workload, closed loop, one client, in-process.

Usage (from the repository root):

    python3 perfbench/run.py --workload formula --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Set-up imports ``treepebble`` from ``src/`` and writes the workload's input
files under ``.perfbench_work/``. A pass runs the workload's fixed query
list once; each query calls ``treepebble.cli.run(argv)`` in this process
with stdout going to a file, as a shell redirect would, so Python start-up
is not measured. Passes repeat, one after another, until ``--seconds`` is
reached; only whole passes count, and there are at least ``MIN_PASSES``.

Every query is checked (see ``workloads.py``). A query fails when its exit
code is unexpected, it prints an ``error:`` line or its output check fails;
a failed query counts as missing every latency figure.

Times are scaled to a reference speed (see ``speed.py``). A query's latency
is its median over the passes; the latency figures are taken over the
queries of one pass, and throughput is one pass of median latencies.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs untraced
for half the time, then traced for the other half, and reports the
per-layer metrics (see ``tracer.py``) per pass, with ``trace.overhead_frac``
comparing the two halves. The last stdout line is one JSON object.
``--workload all`` runs every workload in a fresh process, one after another.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import speed
import tracer as tracing
import workloads

CLOCK = speed.CLOCK
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 5
MIN_PASSES = 3
TAIL_LADDER = (50, 75, 90, 95, 99, 99.9)
MIN_ABOVE_TAIL = 10
SHOW_FAILURES = 5

END_TO_END_UNITS = {
    "queries_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


@dataclass
class Measured:
    passes: int = 0
    # latencies[i]: scaled latency of the pass's i-th query in each pass, inf when it failed
    latencies: list[list[float]] = field(default_factory=list)
    busy_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    moves: int = 0
    problems: list[str] = field(default_factory=list)
    # query ids (traced runs) of the all-roots and the solvable queries, with their sizes
    all_roots_n: dict[int, int] = field(default_factory=dict)
    solvable_n: dict[int, int] = field(default_factory=dict)

    def query_latencies(self) -> list[float]:
        """Each query's median latency over the passes."""
        return [statistics.median(s) for s in self.latencies]

    def median_pass_s(self) -> float:
        """One pass with every completed query at its median latency."""
        return sum(x for x in self.query_latencies() if math.isfinite(x))

    def queries_per_s(self) -> float:
        completed = sum(1 for x in self.query_latencies() if math.isfinite(x))
        return _ratio(completed, self.median_pass_s())


def set_up(workload: str, seed: int, work: Path):
    """Import the package from source and write the inputs; returns (cli, queries)."""
    for name in [m for m in sys.modules if m == "treepebble" or m.startswith("treepebble.")]:
        del sys.modules[name]
    import treepebble.cli as cli

    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"treepebble imported from {cli.__file__}, not from {SRC}")
    return cli, workloads.build(workload, seed, work)


def run_query(cli, query: workloads.Query, measured: Measured) -> tuple[float, float] | None:
    """Run and check one query; its (start, end), or None when it failed."""
    err = io.StringIO()
    problem = None
    start = CLOCK()
    try:
        with open(query.out, "w", encoding="utf-8") as handle:
            code = cli.run(query.argv, stdout=handle, stderr=err)
    except Exception as exc:  # a crash of the program is a failed query, not a failed benchmark
        problem = f"raised {exc!r}"
    end = CLOCK()
    measured.busy_s += end - start
    measured.attempted += 1
    if problem is None:
        errors = [line for line in err.getvalue().splitlines() if line.startswith("error:")]
        if code != query.expect_exit:
            problem = f"exit {code}, expected {query.expect_exit}: {err.getvalue().strip()[:200]}"
        elif errors:
            problem = errors[0]
        else:
            try:
                measured.moves += query.check(query.out.read_text(encoding="utf-8"))
            except (workloads.CheckFailed, ValueError, KeyError, IndexError) as exc:
                problem = f"check: {exc!r}"
    if problem is None:
        return start, end
    measured.failed += 1
    if len(measured.problems) < SHOW_FAILURES:
        measured.problems.append(f"{query.command} {' '.join(query.argv)}: {problem}")
    return None


def measure(cli, queries: list[workloads.Query], seconds: float, probe: speed.SpeedProbe,
            min_passes: int = MIN_PASSES, tracer: tracing.Tracer | None = None) -> Measured:
    """Whole passes, at least ``min_passes``, until the next would end past ``seconds`` by half a pass."""
    measured = Measured()
    intervals: list[list] = [[] for _ in queries]
    start = CLOCK()
    qid = 0
    while True:
        for query, runs in zip(queries, intervals):
            if tracer is not None:
                tracer.query = qid
                if query.all_roots:
                    measured.all_roots_n[qid] = query.n
                if query.command == "solvable":
                    measured.solvable_n[qid] = query.n
            # each query starts with no garbage left by earlier ones, as in a fresh process
            gc.collect()
            runs.append(run_query(cli, query, measured))
            qid += 1
        measured.passes += 1
        elapsed = CLOCK() - start
        if measured.passes >= min_passes and elapsed + 0.5 * elapsed / measured.passes >= seconds:
            break
    measured.latencies = [[probe.scaled(*iv) if iv else math.inf for iv in runs] for runs in intervals]
    return measured


def tail_percentile(pass_length: int) -> float:
    """Highest ladder percentile with at least 10 queries of one pass above it.

    Fixed by the pass, not by how many passes fit in the run, so a faster
    program is compared at the same percentile.
    """
    fitting = [p for p in TAIL_LADDER if pass_length - math.ceil(p / 100 * pass_length) >= MIN_ABOVE_TAIL]
    return max(fitting, default=TAIL_LADDER[0])


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def end_to_end(measured: Measured, setup_s: float) -> tuple[dict[str, float], dict]:
    latencies = measured.query_latencies()
    tail_p = tail_percentile(len(latencies))
    values = {
        "queries_per_s": measured.queries_per_s(),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_tail_ms": percentile(latencies, tail_p) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
    }
    notes = {
        "tail_percentile": tail_p,
        "moves_per_s": _ratio(measured.moves / measured.passes, measured.median_pass_s()),
        "failed_frac": measured.failed / measured.attempted,
    }
    return values, notes


def per_layer(tracer: tracing.Tracer, traced: Measured, untraced: Measured) -> dict[str, tuple[float, str]]:
    """Per-pass layer figures of the traced half; times are unscaled seconds."""
    passes = traced.passes
    wall = traced.busy_s
    metrics: dict[str, tuple[float, str]] = {}
    for layer, self_s in tracer.self_times().items():
        metrics[f"{layer}.self_s"] = (self_s / passes, "s")
        metrics[f"{layer}.self_share"] = (self_s / wall, "frac")
    for layer in ("tree.parse", "tree.orient", "tree.subtree"):
        metrics[f"{layer}.calls"] = (tracer.calls(layer=layer) / passes, "count")
    metrics["partition.max_path.calls"] = (tracer.calls(function="max_path_partition") / passes, "count")
    for counter in tracing.COUNTERS:
        metrics[counter] = (tracer.counters.get(counter, 0) / passes, "B" if counter == "tree.parse.bytes" else "count")

    scored = sum(tracer.calls(function=f) for f in tracing.ROOT_SCORERS)
    scored_all_roots = sum(tracer.calls(function=f, queries=set(traced.all_roots_n)) for f in tracing.ROOT_SCORERS)
    metrics["cover.roots_scored"] = (scored / passes, "count")
    metrics["cover.roots_scored_per_vertex"] = (_ratio(scored_all_roots, sum(traced.all_roots_n.values())), "ratio")

    collapses = tracer.calls(function=tracing.COLLAPSE)
    solvable_collapses = tracer.calls(function=tracing.COLLAPSE, queries=set(traced.solvable_n))
    metrics["solvability.collapses"] = (collapses / passes, "count")
    metrics["solvability.collapses_per_vertex"] = (_ratio(solvable_collapses, sum(traced.solvable_n.values())), "ratio")

    verifies = tracer.calls(function="verify_gamma")
    metrics["oracle.verifies"] = (verifies / passes, "count")
    metrics["oracle.checked_per_verify"] = (
        _ratio(tracer.counters.get("oracle.distributions_checked", 0), verifies), "ratio")
    metrics["trace.wall_s"] = (wall / passes, "s")
    metrics["trace.overhead_frac"] = (_ratio(untraced.queries_per_s(), traced.queries_per_s()) - 1, "frac")
    return metrics


def _ratio(part: float, base: float) -> float:
    return part / base if base else 0.0


def _report_failures(measured: Measured) -> None:
    for problem in measured.problems:
        print(f"FAILED {problem}", file=sys.stderr)


def _print_end_to_end(measured: Measured, values: dict[str, float], notes: dict, workload: str) -> None:
    print(f"# {measured.passes} passes, {measured.attempted} queries attempted, {measured.failed} failed")
    for name, value in values.items():
        extra = ""
        if name == "latency_tail_ms":
            extra = (f"  (p{notes['tail_percentile']:g} of the {len(measured.latencies)} queries "
                     f"of a pass, each at its median over {measured.passes} passes)")
        print(f"{name} {value:.6g} {END_TO_END_UNITS[name]}{extra}")
    if workload == "witness":
        print(f"moves_per_s {notes['moves_per_s']:.6g} 1/s  (moves emitted + moves replayed)")
    print(f"failed_frac {notes['failed_frac']:.6g} frac")


def run_workload(args) -> int:
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        with speed.SpeedProbe() as probe:
            setups = []
            for _ in range(SETUP_REPEATS):
                start = CLOCK()
                cli, queries = set_up(args.workload, args.seed, work)
                setups.append(probe.scaled(start, CLOCK()))
            setup_s = statistics.median(setups)
            # the harness's own objects stay out of the program's collections
            gc.collect()
            gc.freeze()
            if not args.trace:
                measured = measure(cli, queries, args.seconds, probe)
            else:
                # one pass per half at least: per-layer figures are per pass, and
                # a traced run should take no longer than an untraced one
                untraced = measure(cli, queries, args.seconds / 2, probe, 1)
                tracer = tracing.Tracer()
                tracer.install()
                try:
                    measured = measure(cli, queries, args.seconds / 2, probe, 1, tracer)
                finally:
                    tracer.uninstall()

        print(f"# workload {args.workload} seed {args.seed}: {len(queries)} queries per pass, "
              f"one in-process client, closed loop, Python start-up excluded, "
              f"times scaled to the reference speed")
        if not args.trace:
            _report_failures(measured)
            values, notes = end_to_end(measured, setup_s)
            _print_end_to_end(measured, values, notes, args.workload)
            metrics = {name: (value, END_TO_END_UNITS[name]) for name, value in values.items()}
        else:
            tracer.write(WORK / f"spans-{args.workload}.jsonl")
            _report_failures(untraced)
            _report_failures(measured)
            metrics = per_layer(tracer, measured, untraced)
            measured.attempted += untraced.attempted
            measured.failed += untraced.failed
            print(f"# traced: {measured.passes} passes; per-layer values are per pass; "
                  f"absent symbols: {', '.join(tracer.absent) or 'none'}; "
                  f"counters unavailable: {', '.join(sorted(tracer.counter_errors)) or 'none'}")
            for name, (value, unit) in metrics.items():
                print(f"{name} {value:.6g} {unit}")
        result = {
            "correct": measured.failed == 0,
            "attempted": measured.attempted,
            "failed": measured.failed,
            "metrics": {name: {"value": value if math.isfinite(value) else None, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_all(args) -> int:
    """Every workload in a fresh process; exit 1 if any of them failed a query."""
    status = 0
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        if result is None or not result["correct"]:
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "treepebble" / "cli.py").is_file():
        print(f"error: no treepebble sources under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
