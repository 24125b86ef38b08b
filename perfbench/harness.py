"""Run one workload, check its outputs, and report its metrics.

An untraced run (``--trace 0``) plays timed passes of the workload's
seeded stream, each on a fixture freshly set up from the seed, until
``--seconds`` of submission time are measured (and at least
``MIN_PASSES`` passes ran), and reports the end-to-end metrics;
``setup_s`` is the median of the timed set-ups.  A traced run
(``--trace 1``) alternates an untraced and a traced pass and reports
the per-layer metrics of the traced passes, with the tracing overhead
the pairs show.

Every pass is checked: stock-Pig oracle on the outputs, the
workload's non-vacuity checks, and identical decisions, simulated
times and stored bytes on every pass of the same seed.  The last line
of standard output is the JSON result; the exit code is 0 only when
every check passed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from perfbench.recording import PassResult, Recorder
from perfbench.tracing import (
    EXECUTE,
    GC,
    QUEUE_WAIT,
    REPLY,
    SESSION_RUN,
    SUBMIT,
    Tracer,
)
from perfbench.workloads import WORKLOADS, Sizes

#: passes (and so timed set-ups) a run makes at least: two passes of
#: one seed are needed to check that they repeat each other
MIN_PASSES = 2
#: spans must cover at least this share of a submission's wall time
MIN_COVERAGE = 0.95
#: ... on at least this share of submissions: a host scheduling stall
#: landing in the harness's own glue cannot be attributed to a layer
MIN_COVERED_SHARE = 0.99
#: percentile whose tail must hold at least MIN_TAIL samples
TAIL_PERCENTILE = 95
MIN_TAIL = 10

#: end-to-end metric -> unit (BENCHMARK.json holds bounds/directions)
END_TO_END = {
    "setup_s": "s",
    "query_p50_ms": "ms",
    "query_p95_ms": "ms",
    "queries_per_s": "1/s",
    "sim_cluster_s": "s",
    "stored_bytes_ratio": "ratio",
    "peak_rss_mb": "MB",
}

#: per-layer time metric -> the span whose self time it reports
LAYER_TIMES = {
    "pig.compile_ms": "pig.compile",
    "pig.parse_ms": "pig.parse",
    "pig.plan_ms": "pig.plan",
    "pig.mrcompile_ms": "pig.mrcompile",
    "pig.collect_ms": "pig.collect",
    "core.candidates_ms": "core.candidates",
    "core.order_ms": "core.order",
    "core.traverse_ms": "core.traverse",
    "core.rewrite_ms": "core.rewrite",
    "core.inject_ms": "core.inject",
    "core.register_ms": "core.register",
    "core.freshness_ms": "core.freshness",
    "core.workflow_start_ms": "core.workflow_start",
    "core.workflow_end_ms": "core.workflow_end",
    "mapreduce.workflow_ms": "mapreduce.workflow",
    "mapreduce.run_job_ms": "mapreduce.run_job",
    "mapreduce.cleanup_ms": "mapreduce.cleanup",
    "execution.interpret_ms": "execution.interpret",
    "costmodel.job_time_ms": "costmodel.job_time",
    "dfs.read_rows_ms": "dfs.read_rows",
    "dfs.write_rows_ms": "dfs.write_rows",
    "persistence.flush_ms": "persistence.flush",
    "persistence.snapshot_ms": "persistence.snapshot",
    "persistence.blocks_ms": "persistence.blocks",
    "service.queue_wait_ms": QUEUE_WAIT,
    "service.reply_ms": REPLY,
    "runtime.gc_ms": GC,
}

#: per-layer counts and ratios -> unit
LAYER_OTHER = {
    "session.front_ms": "ms",
    "persistence.recover_ms": "ms",
    "service.exec_ms": "ms",
    "core.scans": "count",
    "core.entries_scanned": "count",
    "core.candidates": "count",
    "core.pruned": "count",
    "core.prune_ratio": "ratio",
    "core.traversals": "count",
    "core.matches": "count",
    "core.match_yield": "ratio",
    "core.rewrites": "count",
    "core.delta_rewrites": "count",
    "core.eliminations": "count",
    "core.reuse_ratio": "ratio",
    "core.subjobs_stored": "count",
    "core.subjobs_discarded": "count",
    "core.stored_used_ratio": "ratio",
    "core.condemned": "count",
    "core.refreshes": "count",
    "core.delta_fallbacks": "count",
    "core.quarantined": "count",
    "core.evictions": "count",
    "core.entries_end": "count",
    "mapreduce.jobs_compiled": "count",
    "mapreduce.jobs_executed": "count",
    "mapreduce.jobs_eliminated": "count",
    "execution.input_records": "count",
    "execution.shuffle_bytes": "bytes",
    "execution.store_bytes": "bytes",
    "execution.records_per_s": "1/s",
    "dfs.read_rows_calls": "count",
    "dfs.bytes_read": "bytes",
    "dfs.bytes_written": "bytes",
    "dfs.replica_bytes_written": "bytes",
    "persistence.journal_records": "count",
    "persistence.journal_bytes": "bytes",
    "persistence.snapshots": "count",
    "persistence.snapshot_bytes": "bytes",
    "persistence.block_bytes": "bytes",
    "persistence.write_amp": "ratio",
    "persistence.restart_s": "s",
    "service.failed": "count",
    "service.retried": "count",
    "trace.submissions": "count",
    "trace.coverage": "ratio",
    "trace.coverage_min": "ratio",
    "trace.unattributed_ms": "ms",
    "trace.covered_share": "ratio",
    "trace.overhead_pct": "%",
}

PER_LAYER = {**{name: "ms" for name in LAYER_TIMES}, **LAYER_OTHER}

#: tally key -> per-layer metric
TALLY_METRICS = {
    "scans": "core.scans",
    "entries_scanned": "core.entries_scanned",
    "candidates": "core.candidates",
    "pruned": "core.pruned",
    "traversals": "core.traversals",
    "matches": "core.matches",
    "rewrites": "core.rewrites",
    "delta_rewrites": "core.delta_rewrites",
    "eliminations": "core.eliminations",
    "subjobs_stored": "core.subjobs_stored",
    "subjobs_discarded": "core.subjobs_discarded",
    "condemned": "core.condemned",
    "refreshes": "core.refreshes",
    "delta_fallbacks": "core.delta_fallbacks",
    "quarantined": "core.quarantined",
    "evictions": "core.evictions",
    "journal_records": "persistence.journal_records",
    "journal_bytes": "persistence.journal_bytes",
    "snapshots": "persistence.snapshots",
    "snapshot_bytes": "persistence.snapshot_bytes",
}

#: outcome stats key -> per-layer metric
STAT_METRICS = {
    "jobs_compiled": "mapreduce.jobs_compiled",
    "jobs_executed": "mapreduce.jobs_executed",
    "jobs_eliminated": "mapreduce.jobs_eliminated",
    "input_records": "execution.input_records",
    "shuffle_bytes": "execution.shuffle_bytes",
    "store_bytes": "execution.store_bytes",
    "service_failed": "service.failed",
    "service_retried": "service.retried",
}


class Run:
    """The passes of one benchmark run and what they measured."""

    def __init__(self) -> None:
        self.setup_samples: List[float] = []
        self.untraced: List[PassResult] = []
        self.traced: List[PassResult] = []
        self.tracer: Optional[Tracer] = None
        self.problems: List[str] = []

    @property
    def passes(self) -> List[PassResult]:
        return self.untraced + self.traced

    @property
    def attempted(self) -> int:
        return sum(p.attempted for p in self.passes)

    @property
    def failed(self) -> int:
        return sum(len(p.failures) for p in self.passes)


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    scale: float = 1.0,
    workdir: str,
) -> Run:
    """Set up, play passes until ``seconds`` of submissions are timed,
    and check every pass.  ``scale`` shrinks the sizes (tests)."""
    workload = WORKLOADS[name](Sizes().scaled(scale), workdir)
    run = Run()
    if trace:
        run.tracer = Tracer()
    measured = 0.0
    rounds = 0
    loop_start = perf_counter()
    while True:
        for traced in (False, True) if trace else (False,):
            gc.collect()
            start = perf_counter()
            fixture = workload.setup(seed)
            run.setup_samples.append(perf_counter() - start)
            result = PassResult()
            recorder = Recorder(result, run.tracer if traced else None)
            gc.collect()
            if traced:
                run.tracer.new_pass()
                run.tracer.install()
            try:
                workload.run_pass(fixture, recorder)
            finally:
                if traced:
                    run.tracer.uninstall()
                fixture.close()
            result.problems.extend(workload.checks(result))
            (run.traced if traced else run.untraced).append(result)
            measured += result.stream_s
        rounds += 1
        if len(run.passes) < MIN_PASSES:
            continue
        per_round = measured / rounds
        # set-ups take up to about 1.5 times the stream time they serve
        # (pigmix_reuse); the wall-time cap only stops a stalled host
        if measured + per_round > seconds or perf_counter() - loop_start > 4 * seconds:
            break
    check(run, full_size=scale == 1)
    return run


def check(run: Run, full_size: bool) -> None:
    """Fold every pass's problems, failures and determinism into the
    run's verdict."""
    first = run.passes[0]
    reference = first.fingerprint()
    for number, result in enumerate(run.passes):
        for problem in result.problems:
            run.problems.append(f"pass {number}: {problem}")
        for sub, error in result.failures[:3]:
            run.problems.append(f"pass {number}: submission {sub} failed: {error}")
        if number and result.fingerprint() != reference:
            run.problems.append(
                f"pass {number} differs from pass 0 on the same seed "
                "(decisions, simulated time or stored bytes)"
            )
    if full_size and not run.traced:
        latencies = [s.latency for p in run.untraced for s in p.submitted]
        cut = percentile(latencies, TAIL_PERCENTILE)
        if sum(1 for x in latencies if x > cut) < MIN_TAIL:
            run.problems.append(
                f"only {len(latencies)} samples: fewer than {MIN_TAIL} lie "
                f"beyond p{TAIL_PERCENTILE}"
            )
    if run.traced:
        shares = list(run.tracer.coverage().values())
        covered = _ratio(sum(1 for s in shares if s >= MIN_COVERAGE), len(shares))
        if covered < MIN_COVERED_SHARE:
            run.problems.append(
                f"spans cover {MIN_COVERAGE:.0%} of the wall time of only "
                f"{covered:.1%} of {len(shares)} submissions"
            )


def percentile(values: List[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(run: Run, import_s: float) -> Dict[str, float]:
    passes = run.untraced
    first = passes[0]
    latencies_ms = [s.latency * 1000.0 for p in passes for s in p.submitted]
    return {
        "setup_s": import_s + statistics.median(run.setup_samples),
        "query_p50_ms": percentile(latencies_ms, 50),
        "query_p95_ms": percentile(latencies_ms, TAIL_PERCENTILE),
        "queries_per_s": sum(len(p.submitted) for p in passes)
        / sum(p.stream_s for p in passes),
        "sim_cluster_s": first.sim_s,
        "stored_bytes_ratio": first.stored_bytes / first.input_bytes,
        "peak_rss_mb": peak_rss_mb(),
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(run: Run, uses_service: bool) -> Dict[str, float]:
    tracer = run.tracer
    first = run.traced[0]
    n_passes = len(run.traced)
    spans = tracer.counts()
    submissions = spans.get(SUBMIT, 0)
    self_s = tracer.self_times()
    metrics: Dict[str, float] = {}
    for metric, span in LAYER_TIMES.items():
        metrics[metric] = _ratio(self_s.get(span, 0.0) * 1000.0, submissions)
    shares = tracer.coverage()
    walls = _walls_by_sub(tracer)
    # the front door's own time: building the request, the manager's
    # session scope, wrapping the outcome
    metrics["session.front_ms"] = _ratio(
        (self_s.get(SESSION_RUN, 0.0) + self_s.get(EXECUTE, 0.0)) * 1000.0,
        submissions,
    )
    # wall time no layer span covers: the harness's own glue
    metrics["trace.unattributed_ms"] = _ratio(
        sum(wall * (1.0 - shares[sub]) for sub, wall in walls) * 1000.0,
        submissions,
    )
    recoveries = spans.get("persistence.recover", 0)
    metrics["persistence.recover_ms"] = _ratio(
        self_s.get("persistence.recover", 0.0) * 1000.0, recoveries
    )
    executes = tracer.durations(EXECUTE) if uses_service else []
    metrics["service.exec_ms"] = _ratio(sum(executes) * 1000.0, len(executes))
    tally = first.tally
    for key, metric in TALLY_METRICS.items():
        metrics[metric] = tally.get(key)
    for key, metric in STAT_METRICS.items():
        metrics[metric] = first.stats.get(key, 0)
    metrics["core.prune_ratio"] = _ratio(
        tally.get("pruned"), tally.get("entries_scanned")
    )
    metrics["core.match_yield"] = _ratio(
        tally.get("matches"), tally.get("traversals")
    )
    metrics["core.reuse_ratio"] = _ratio(
        tally.get("rewrites") + tally.get("eliminations"),
        first.stats.get("jobs_compiled", 0),
    )
    metrics["core.stored_used_ratio"] = tally.stored_used_ratio()
    metrics["core.entries_end"] = first.entries_end
    interpret_s = self_s.get("execution.interpret", 0.0) / n_passes
    metrics["execution.records_per_s"] = _ratio(
        first.stats.get("input_records", 0), interpret_s
    )
    metrics["dfs.read_rows_calls"] = spans.get("dfs.read_rows", 0) / n_passes
    for key in ("bytes_read", "bytes_written", "replica_bytes_written"):
        metrics[f"dfs.{key}"] = first.dfs.get(key, 0)
    block_bytes = tracer.block_bytes / n_passes
    metrics["persistence.block_bytes"] = block_bytes
    metrics["persistence.write_amp"] = _ratio(
        tally.get("journal_bytes") + tally.get("snapshot_bytes") + block_bytes,
        first.stored_bytes,
    )
    restarts = [p.restart_s for p in run.untraced if p.restart_s]
    metrics["persistence.restart_s"] = statistics.median(restarts) if restarts else 0.0
    metrics["trace.submissions"] = submissions
    metrics["trace.coverage"] = _ratio(
        sum(shares[sub] * wall for sub, wall in walls),
        sum(wall for _, wall in walls),
    )
    metrics["trace.coverage_min"] = min(shares.values()) if shares else 0.0
    metrics["trace.covered_share"] = _ratio(
        sum(1 for s in shares.values() if s >= MIN_COVERAGE), len(shares)
    )
    metrics["trace.overhead_pct"] = 100.0 * (
        _ratio(sum(p.stream_s for p in run.traced),
               sum(p.stream_s for p in run.untraced)) - 1.0
    )
    return metrics


def _walls_by_sub(tracer: Tracer) -> List[Tuple[str, float]]:
    return [(s[4], s[2] - s[1]) for s in tracer.spans() if s[0] == SUBMIT]


def summary_lines(name: str, run: Run, metrics: Dict[str, float], units) -> List[str]:
    latencies = [s.latency for p in run.untraced for s in p.submitted]
    lines = [
        f"workload {name}: {len(run.untraced)} untraced + {len(run.traced)} "
        f"traced pass(es), {run.attempted} submissions, {run.failed} failed, "
        f"set-up median {statistics.median(run.setup_samples):.3f}s "
        f"(min {min(run.setup_samples):.3f}s, max {max(run.setup_samples):.3f}s)",
    ]
    if latencies and not run.traced:
        cut = percentile(latencies, TAIL_PERCENTILE)
        beyond = sum(1 for x in latencies if x > cut)
        lines.append(
            f"latency samples {len(latencies)}, {beyond} beyond p{TAIL_PERCENTILE}"
        )
    for metric, value in metrics.items():
        lines.append(f"  {metric:32s} {value:14.6g} {units[metric]}")
    for problem in run.problems:
        lines.append(f"CHECK FAILED: {problem}")
    return lines


def main(argv=None, started: Optional[float] = None) -> int:
    entry = perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_s = entry - started if started is not None else 0.0

    out_dir = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
    workdir = os.path.join(out_dir, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        run = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace),
            workdir=workdir,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.trace:
        metrics = per_layer(run, WORKLOADS[args.workload].uses_service)
        units = PER_LAYER
        run.tracer.dump(
            os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl")
        )
    else:
        metrics = end_to_end(run, import_s)
        units = END_TO_END
    for line in summary_lines(args.workload, run, metrics, units):
        print(line)
    correct = not run.problems
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0 if correct else 1
