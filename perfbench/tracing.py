"""Span recording around the public calls into each ReStore layer.

The tracer patches the entry points listed in :data:`SPANS` for the
duration of one traced pass and restores them afterwards; nothing
inside ``src/repro`` knows it is being traced.  Each call records a
span ``[name, start, end, parent index, submission id]`` on a list
owned by the calling thread, so concurrent service workers never share
a list.  Spans stay in memory until the run ends.

A layer's self time is its span's duration minus the time its direct
children cover; children never overlap because one thread runs them.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import json
import threading
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import repro.core.manager as manager_module
import repro.pig.engine as engine_module
import repro.session as session_module
from repro.core.enumerator import SubJobEnumerator
from repro.core.manager import ReStoreManager
from repro.core.matcher import PlanMatcher
from repro.core.repository import Repository
from repro.costmodel.model import CostModel
from repro.dfs.filesystem import DistributedFileSystem
from repro.execution.interpreter import JobInterpreter
from repro.mapreduce.runner import HadoopSimulator
from repro.persistence.blockstore import BlockStore
from repro.persistence.durability import RepositoryPersister
from repro.pig.engine import PigServer
from repro.pig.logical.optimizer import LogicalOptimizer
from repro.pig.mrcompiler import MRCompiler
from repro.session import ReStoreSession

#: the root span the harness opens around one submission, from submit
#: until its outcome is back in the caller's hands
SUBMIT = "bench.submit"
#: ``ReStoreSession.execute``: the submission surface every run and
#: every thread-mode service job converges on
EXECUTE = "session.execute"
#: ``ReStoreSession.run``: builds the request and unwraps the outcome
SESSION_RUN = "session.run"
#: the time a service submission waited before its execute began
QUEUE_WAIT = "service.queue_wait"
#: from the end of a service execute until the caller holds the outcome
REPLY = "service.reply"
#: a garbage-collector pause, on whichever thread triggered it
GC = "runtime.gc"
#: spans that only frame others; their self time is the harness's
#: glue, which no layer owns, so it counts against coverage
FRAMES = frozenset({SUBMIT})

#: (owner, attribute, span name, parent names under which the call is
#: folded into its parent instead of getting a span of its own)
SPANS: Tuple[Tuple[object, str, str, Tuple[str, ...]], ...] = (
    (ReStoreSession, "run", SESSION_RUN, ()),
    (PigServer, "compile", "pig.compile", ()),
    (engine_module, "parse", "pig.parse", ()),
    (engine_module, "build_logical_plan", "pig.plan", ()),
    (LogicalOptimizer, "optimize", "pig.plan", ()),
    (MRCompiler, "compile", "pig.mrcompile", ()),
    (PigServer, "run_workflow", "pig.collect", ()),
    (Repository, "match_candidates", "core.candidates", ()),
    # containment checks maintain the §3 scan order; the traversals
    # they run are order upkeep, not Algorithm-1 matching of a job
    (PlanMatcher, "contains", "core.order", ()),
    (PlanMatcher, "match", "core.traverse", ("core.order",)),
    (ReStoreManager, "before_job", "core.rewrite", ()),
    (SubJobEnumerator, "enumerate_and_inject", "core.inject", ()),
    (ReStoreManager, "after_job", "core.register", ()),
    (manager_module, "classify_entry", "core.freshness", ()),
    (ReStoreManager, "on_workflow_start", "core.workflow_start", ()),
    (ReStoreManager, "on_workflow_end", "core.workflow_end", ()),
    (HadoopSimulator, "run_workflow", "mapreduce.workflow", ()),
    (HadoopSimulator, "run_job", "mapreduce.run_job", ()),
    (HadoopSimulator, "cleanup_temporaries", "mapreduce.cleanup", ()),
    (JobInterpreter, "run", "execution.interpret", ()),
    (CostModel, "job_time", "costmodel.job_time", ()),
    (DistributedFileSystem, "read_rows", "dfs.read_rows", ()),
    (DistributedFileSystem, "write_rows", "dfs.write_rows", ()),
    (RepositoryPersister, "flush", "persistence.flush", ()),
    (RepositoryPersister, "take_snapshot", "persistence.snapshot", ()),
    (BlockStore, "append", "persistence.blocks", ()),
    (session_module, "recover", "persistence.recover", ()),
)


class _ThreadState(threading.local):
    def __init__(self) -> None:
        self.spans: Optional[List[list]] = None
        self.stack: List[int] = []
        self.sub = ""
        #: inside ``Tracer.paused()``: calls on this thread record nothing
        self.paused = False


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self) -> None:
        self._state = _ThreadState()
        self._lists: List[List[list]] = []
        self._lists_lock = threading.Lock()
        self._originals: List[Tuple[object, str, object]] = []
        #: submission id -> perf_counter() at submit, for queue waits
        self.submitted_at: Dict[str, float] = {}
        #: submission id -> perf_counter() when its execute returned
        self.executed_at: Dict[str, float] = {}
        #: bytes handed to the payload block store while installed
        self.block_bytes = 0
        #: passes reuse submission ids; spans carry "<pass>:<sub>"
        self._pass = 0

    def new_pass(self) -> None:
        self._pass += 1

    def key(self, sub: str) -> str:
        """The span-level id of submission *sub* in the current pass."""
        return f"{self._pass}:{sub}"

    # -- recording -----------------------------------------------------------

    def _spans(self) -> List[list]:
        state = self._state
        if state.spans is None:
            state.spans = []
            with self._lists_lock:
                self._lists.append(state.spans)
        return state.spans

    def open(self, name: str, sub: str, start: Optional[float] = None) -> int:
        spans = self._spans()
        stack = self._state.stack
        span = [name, perf_counter() if start is None else start, 0.0,
                stack[-1] if stack else -1, sub]
        # index after the append: building the span may set off a
        # collection whose own span lands first
        spans.append(span)
        index = len(spans) - 1
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self._state.stack.pop()
        self._state.spans[index][2] = perf_counter()

    def record(self, name: str, sub: str, start: float, end: float) -> None:
        """A closed span measured elsewhere (queue waits)."""
        spans = self._spans()
        stack = self._state.stack
        spans.append([name, start, end, stack[-1] if stack else -1, sub])

    def begin_submission(self, sub: str) -> str:
        self._state.sub = self.key(sub)
        return self._state.sub

    def end_submission(self) -> None:
        self._state.sub = ""

    @contextlib.contextmanager
    def paused(self):
        """Record nothing on this thread inside the block."""
        state = self._state
        state.paused = True
        try:
            yield
        finally:
            state.paused = False

    def _wrap(self, fn: Callable, name: str, fold_under: Tuple[str, ...]):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = tracer._state
            if state.paused:
                return fn(*args, **kwargs)
            if fold_under and state.stack:
                if state.spans[state.stack[-1]][0] in fold_under:
                    return fn(*args, **kwargs)
            index = tracer.open(name, state.sub)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(index)

        return traced

    def _wrap_execute(self, fn: Callable):
        """``ReStoreSession.execute``: adopt the request's name as the
        submission id on this thread and close its queue wait."""
        tracer = self

        @functools.wraps(fn)
        def traced(session, request, *args, **kwargs):
            entered = perf_counter()
            state = tracer._state
            if state.paused:
                return fn(session, request, *args, **kwargs)
            previous = state.sub
            state.sub = tracer.key(request.name) if request.name else previous
            submitted = tracer.submitted_at.pop(state.sub, None)
            if submitted is not None:
                tracer.record(QUEUE_WAIT, state.sub, submitted, entered)
            index = tracer.open(EXECUTE, state.sub, start=entered)
            try:
                return fn(session, request, *args, **kwargs)
            finally:
                tracer.close(index)
                if submitted is not None:
                    tracer.executed_at[state.sub] = perf_counter()
                state.sub = previous

        return traced

    def _wrap_blocks(self, fn: Callable):
        tracer = self
        traced_append = self._wrap(fn, "persistence.blocks", ())

        @functools.wraps(fn)
        def counted(store, path, data, *args, **kwargs):
            if tracer._state.paused:
                return fn(store, path, data, *args, **kwargs)
            tracer.block_bytes += len(data)
            return traced_append(store, path, data, *args, **kwargs)

        return counted

    def _on_gc(self, phase: str, info: dict) -> None:
        state = self._state
        if state.paused:
            return
        if phase == "start":
            self.open(GC, state.sub)
        elif state.stack and state.spans[state.stack[-1]][0] == GC:
            self.close(state.stack[-1])

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("tracer already installed")
        patches = [(ReStoreSession, "execute", self._wrap_execute)]
        for owner, attr, name, fold_under in SPANS:
            if owner is BlockStore:
                patches.append((owner, attr, self._wrap_blocks))
            else:
                patches.append(
                    (owner, attr,
                     functools.partial(self._wrap, name=name,
                                       fold_under=fold_under))
                )
        for owner, attr, make in patches:
            original = vars(owner)[attr]
            self._originals.append((owner, attr, original))
            setattr(owner, attr, make(original))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------------

    def spans(self) -> Iterable[list]:
        with self._lists_lock:
            lists = list(self._lists)
        for spans in lists:
            yield from spans

    def self_times(self) -> Dict[str, float]:
        """Span name -> summed self time in seconds."""
        totals: Dict[str, float] = {}
        with self._lists_lock:
            lists = list(self._lists)
        for spans in lists:
            child = [0.0] * len(spans)
            for name, start, end, parent, _ in spans:
                if parent >= 0:
                    child[parent] += end - start
            for index, (name, start, end, _, _) in enumerate(spans):
                own = (end - start) - child[index]
                totals[name] = totals.get(name, 0.0) + own
        return totals

    def counts(self) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        for span in self.spans():
            totals[span[0]] = totals.get(span[0], 0) + 1
        return totals

    def durations(self, name: str) -> List[float]:
        return [s[2] - s[1] for s in self.spans() if s[0] == name]

    def coverage(self) -> Dict[str, float]:
        """Per submission: the share of its submit-to-outcome wall time
        that layer spans cover (frame spans excluded)."""
        walls: Dict[str, Tuple[float, float]] = {}
        layer: Dict[str, List[Tuple[float, float]]] = {}
        for name, start, end, _, sub in self.spans():
            if name == SUBMIT:
                walls[sub] = (start, end)
            elif name not in FRAMES:
                layer.setdefault(sub, []).append((start, end))
        shares = {}
        for sub, (start, end) in walls.items():
            covered = _union_length(layer.get(sub, ()), start, end)
            shares[sub] = covered / (end - start) if end > start else 1.0
        return shares

    def dump(self, path) -> None:
        """Write every span as one JSON line; ``parent`` indexes the
        spans of the same ``thread``."""
        with self._lists_lock:
            lists = list(self._lists)
        with open(path, "w", encoding="utf-8") as handle:
            for thread, spans in enumerate(lists):
                for name, start, end, parent, sub in spans:
                    handle.write(json.dumps(
                        {"thread": thread, "name": name, "start": start,
                         "end": end, "parent": parent, "submission": sub}
                    ) + "\n")


def _union_length(intervals, lo: float, hi: float) -> float:
    covered = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            covered += end - start
            reach = end
    return covered
