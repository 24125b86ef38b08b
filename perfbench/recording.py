"""What one timed pass records: latencies, reuse events, job stats.

A :class:`Recorder` times each submission from submit until its
outcome is back with the caller and folds the outcome's public
statistics into per-pass totals.  A :class:`Tally` subscribes to the
typed event buses (the manager's and the persister's) and counts the
reuse decisions and persistence writes they announce.
"""

from __future__ import annotations

import contextlib
import hashlib
import threading
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from repro.events import (
    DeltaFallback,
    EntryEvicted,
    EntryQuarantined,
    EntryRefreshed,
    JobEliminated,
    JournalAppended,
    MatchScanned,
    RewriteApplied,
    SnapshotTaken,
    SubJobDiscarded,
    SubJobStored,
)
from repro.relational.tuples import serialize_row

from perfbench.tracing import REPLY, SUBMIT


def canonical(rows) -> str:
    """Digest of an output's order-free form, in the DFS's own text
    format.  A pass keeps this, not the rows, from the moment a
    submission returns: hundreds of retained outputs would otherwise
    swell the heap the program's collector pauses and peak memory are
    measured over."""
    lines = sorted(serialize_row(row) for row in rows)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def decisions(events) -> Tuple[tuple, ...]:
    """The reuse decisions of one submission, free of job ids (which
    depend on how concurrent tenants interleave script allocation)."""
    out = []
    for event in events:
        if isinstance(event, RewriteApplied):
            kind = "delta" if event.delta else (
                "whole" if event.whole_job else "partial")
            out.append(("rewrite", kind, event.entry_id))
        elif isinstance(event, JobEliminated):
            out.append(("eliminate", event.reason, event.entry_id))
    return tuple(out)


class Tally:
    """Counts the events of every bus it is attached to."""

    def __init__(self) -> None:
        self.counts: Dict[str, int] = {}
        self.stored_ids: set = set()
        self.used_ids: set = set()
        self._lock = threading.Lock()

    def attach(self, bus) -> Callable[[], None]:
        return bus.subscribe(self._on_event)

    def _add(self, key: str, amount: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def _on_event(self, event) -> None:
        with self._lock:
            if isinstance(event, MatchScanned):
                self._add("scans")
                self._add("entries_scanned", event.entries_total * event.passes)
                self._add("candidates", event.candidates)
                self._add("pruned", event.pruned)
                self._add("traversals", event.traversals)
                self._add("matches", event.matches)
            elif isinstance(event, RewriteApplied):
                self._add("rewrites")
                if event.delta:
                    self._add("delta_rewrites")
                self.used_ids.add(event.entry_id)
            elif isinstance(event, JobEliminated):
                self._add("eliminations")
                self.used_ids.add(event.entry_id)
            elif isinstance(event, SubJobStored):
                self._add("subjobs_stored")
                self.stored_ids.add(event.entry_id)
            elif isinstance(event, SubJobDiscarded):
                self._add("subjobs_discarded")
            elif isinstance(event, EntryEvicted):
                if event.policy == "stale-input":
                    self._add("condemned")
                elif event.policy != "quarantined":
                    self._add("evictions")
            elif isinstance(event, EntryQuarantined):
                self._add("quarantined")
            elif isinstance(event, EntryRefreshed):
                self._add("refreshes")
            elif isinstance(event, DeltaFallback):
                self._add("delta_fallbacks")
            elif isinstance(event, JournalAppended):
                self._add("journal_records", event.records)
                self._add("journal_bytes", event.bytes)
            elif isinstance(event, SnapshotTaken):
                self._add("snapshots")
                self._add("snapshot_bytes", event.bytes)

    def get(self, key: str) -> int:
        return self.counts.get(key, 0)

    def stored_used_ratio(self) -> float:
        if not self.stored_ids:
            return 0.0
        return len(self.stored_ids & self.used_ids) / len(self.stored_ids)


@dataclass
class Submitted:
    """One timed submission and what it produced."""

    sub: str
    key: str
    latency: float
    #: output path -> :func:`canonical` digest
    outputs: Dict[str, str]
    decisions: Tuple[tuple, ...]
    sim_s: float


@dataclass
class PassResult:
    """Everything one pass of a workload measured."""

    submitted: List[Submitted] = field(default_factory=list)
    failures: List[Tuple[str, str]] = field(default_factory=list)
    #: timed-stream wall time (submissions only, no bookkeeping)
    stream_s: float = 0.0
    tally: Tally = field(default_factory=Tally)
    stats: Dict[str, int] = field(default_factory=dict)
    stored_bytes: int = 0
    input_bytes: int = 1
    entries_end: int = 0
    dfs: Dict[str, int] = field(default_factory=dict)
    #: append_restart: recovery plus the first dashboard round
    restart_s: float = 0.0
    restart_rewrites: int = 0
    problems: List[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.submitted) + len(self.failures)

    @property
    def sim_s(self) -> float:
        # summed in submission order, so concurrent completion order
        # cannot move the last bits of the float
        return sum(s.sim_s for s in sorted(self.submitted, key=lambda s: s.sub))

    def fingerprint(self) -> tuple:
        """What must repeat exactly when the same seed runs again."""
        ordered = sorted(self.submitted, key=lambda s: s.sub)
        return (
            tuple((s.sub, s.key, s.decisions) for s in ordered),
            self.sim_s,
            self.stored_bytes,
            self.entries_end,
            tuple(sorted(self.stats.items())),
        )


class Recorder:
    """Times submissions and folds their outcomes into a pass."""

    def __init__(self, result: PassResult, tracer=None) -> None:
        self.result = result
        self.tracer = tracer
        self._lock = threading.Lock()

    def untraced(self):
        """A block of the benchmark's own work (the oracle) that the
        traced pass must not count as a layer's."""
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.paused()

    def mark_submitted(self, sub: str) -> None:
        """Service submissions: stamp the enqueue time so the traced
        run can measure the queue wait."""
        if self.tracer is not None:
            self.tracer.submitted_at[self.tracer.key(sub)] = perf_counter()

    def submit(self, sub: str, key: str, call: Callable[[], object]):
        """Run ``call`` (one submission) timed; returns its outcome, or
        None when it raised (the failure is recorded)."""
        tracer = self.tracer
        if tracer is not None:
            span = tracer.open(SUBMIT, tracer.begin_submission(sub))
        start = perf_counter()
        try:
            outcome = call()
        except Exception as exc:  # a failed submission is a result
            with self._lock:
                self.result.failures.append((sub, repr(exc)))
            return None
        finally:
            end = perf_counter()
            if tracer is not None:
                traced_sub = tracer.key(sub)
                executed = tracer.executed_at.pop(traced_sub, None)
                if executed is not None:
                    tracer.record(REPLY, traced_sub, executed, end)
                tracer.close(span)
                tracer.end_submission()
        self._fold(sub, key, end - start, outcome)
        return outcome

    def _fold(self, sub: str, key: str, latency: float, outcome) -> None:
        stats = outcome.stats
        executed = stats.job_stats.values()
        add = {
            "jobs_compiled": len(outcome.workflow.jobs),
            "jobs_executed": stats.n_jobs_executed,
            "jobs_eliminated": len(stats.eliminated_jobs),
            "input_records": sum(s.input_records for s in executed),
            "shuffle_bytes": sum(s.shuffle_bytes for s in executed),
            "store_bytes": sum(s.total_store_bytes for s in executed),
        }
        record = Submitted(
            sub=sub,
            key=key,
            latency=latency,
            outputs={
                path: canonical(rows) for path, rows in outcome.outputs.items()
            },
            decisions=decisions(outcome.events),
            sim_s=stats.sim_seconds,
        )
        with self._lock:
            self.result.submitted.append(record)
            totals = self.result.stats
            for name, value in add.items():
                totals[name] = totals.get(name, 0) + value


def dfs_counters(dfs) -> Dict[str, int]:
    return {
        "bytes_read": dfs.bytes_read,
        "bytes_written": dfs.bytes_written,
        "replica_bytes_written": dfs.replica_bytes_written,
    }


def add_dfs_delta(result: PassResult, dfs, before: Dict[str, int]) -> None:
    after = dfs_counters(dfs)
    for name, value in after.items():
        result.dfs[name] = result.dfs.get(name, 0) + value - before[name]


def stored_bytes(repository, dfs) -> int:
    """Bytes the repository's entries keep in the DFS."""
    paths = {entry.output_path for entry in repository.entries()}
    return sum(dfs.file_size(path) for path in paths if dfs.exists(path))


def first_mismatch(
    submitted: List[Submitted], expected: Callable[[Submitted], Optional[str]]
) -> Optional[str]:
    """Compare outputs against the oracle; ``expected`` returns None
    for submissions outside the checked sample."""
    for record in sorted(submitted, key=lambda s: s.sub):
        want = expected(record)
        if want is None:
            continue
        if len(record.outputs) != 1:
            return f"{record.sub} ({record.key}): {len(record.outputs)} outputs"
        (digest,) = record.outputs.values()
        if digest != want:
            return f"{record.sub} ({record.key}): output differs from stock Pig"
    return None
