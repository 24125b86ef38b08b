"""The ReStore repository of stored MapReduce job outputs.

Each entry keeps exactly what the paper lists (§2.2): (1) the physical
plan of the job that produced the output, (2) the output's filename in
the DFS, and (3) statistics — input/output sizes, execution time, how
often and how recently the output was reused.

``ordered_entries`` realizes §3's ordering rules so that the *first*
match found during the sequential scan is the best one:

1. plan A before plan B when A subsumes B (all of B's operators have
   equivalents in A);
2. otherwise by the input/output size ratio, then by execution time
   (both: higher first).

The repository is fingerprint-indexed and **concurrency-safe**.  The
three inverted indexes from the fingerprint work are now *sharded*:
each index key (whole-plan fingerprint, load signature, input path)
hashes to one of ``n_shards`` stripes, each with its own lock.  Be
clear about what that buys today: entry-level operations (add,
remove, match, ordering) still serialize on the repository lock, so
under CPython's GIL the striping is not a parallelism knob — it lets
bucket readers that bypass the entry lock (``input_paths``, the
merged index views) see consistent buckets, and it is the structure a
free-threaded build needs to let disjoint key ranges stop contending
on index-bucket maintenance:

* whole-plan fingerprint → entry ids: O(1) exact-equivalence lookup
  (``find_equivalent`` no longer runs a linear matcher scan);
* load-signature → entry ids (inverted index): a submitted job's
  Load set prunes the repository to the entries that can possibly be
  contained in it, so Algorithm 1's pairwise traversal only runs
  against real candidates (``match_candidates``);
* input path → entry ids: eviction Rule 4 checks each source dataset
  once instead of walking every entry's recorded mtimes.

Entry-level state (the entry table, insertion sequence, and the §3
ordering structures) is guarded by one reentrant repository lock; the
locking discipline is strictly *repository lock before shard lock*,
never the reverse, so the two layers can never deadlock.

The §3 scan order is maintained *incrementally*, and registration is
**batched**: entries added while no scan is running accumulate in a
pending batch, and the next scan integrates the whole batch at once —
the subsumption pairs are still computed (with fingerprint pruning)
per entry, and placement costs whichever is cheaper for the observed
sizes: a bisection per batch entry when the batch is small next to the
integrated list, one sort of the merged list otherwise (bulk loads).
The resulting order is provably identical to one-at-a-time inserts:
the sort key is a strict total order (the insertion sequence breaks
every tie), so any maintenance strategy converges to the same list.
The same fact lets a match scan sort just its surviving candidates by
the scan key instead of walking the whole order: a submission pays for
the entries pruning keeps, not for the repository.
"""

from __future__ import annotations

import json
import re
import threading
import zlib
from bisect import insort
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Set, Tuple

from repro.core.matcher import PlanMatcher
from repro.dfs.namenode import InputExtent
from repro.exceptions import RepositoryError
from repro.pig.physical.plan import PhysicalPlan
from repro.relational.schema import Schema

_ENTRY_ID_PATTERN = re.compile(r"^entry_(\d+)$")


@dataclass
class EntryStats:
    """Execution statistics stored with a repository entry (§5)."""

    input_bytes: int = 0
    output_bytes: int = 0
    output_records: int = 0
    #: estimated standalone execution time of the producing job (sim s)
    exec_time_s: float = 0.0

    @property
    def io_ratio(self) -> float:
        """Input/output size ratio — ordering metric 1 (higher = better)."""
        return self.input_bytes / max(1, self.output_bytes)


@dataclass
class RepositoryEntry:
    """One stored job (or sub-job) output.

    ``entry_id`` is assigned by the owning :class:`Repository` when the
    entry is added (scoped per repository, so two sessions in one
    process produce identical, deterministic id sequences); entries
    loaded from persisted JSON keep their recorded ids.
    """

    plan: PhysicalPlan
    output_path: str
    output_schema: Schema
    stats: EntryStats = field(default_factory=EntryStats)
    anchor_kind: str = "whole-job"
    created_at: int = 0
    last_used_at: int = 0
    use_count: int = 0
    #: DFS logical mtimes of the entry's source datasets at creation
    #: (eviction Rule 4 compares against current mtimes)
    input_mtimes: Dict[str, int] = field(default_factory=dict)
    #: exact per-input identity + length fingerprints recorded at
    #: registration (and advanced on every delta refresh); the
    #: freshness classifier distinguishes appended from rewritten
    #: inputs with these — entries restored from pre-extent state keep
    #: the dict empty and degrade to the conservative mtime check
    input_extents: Dict[str, InputExtent] = field(default_factory=dict)
    entry_id: str = ""

    def mark_used(self, now: int) -> None:
        self.use_count += 1
        self.last_used_at = now

    def to_dict(self) -> dict:
        return {
            "entry_id": self.entry_id,
            "plan": self.plan.to_dict(),
            "output_path": self.output_path,
            "output_schema": self.output_schema.to_dict(),
            "stats": {
                "input_bytes": self.stats.input_bytes,
                "output_bytes": self.stats.output_bytes,
                "output_records": self.stats.output_records,
                "exec_time_s": self.stats.exec_time_s,
            },
            "anchor_kind": self.anchor_kind,
            "created_at": self.created_at,
            "last_used_at": self.last_used_at,
            "use_count": self.use_count,
            "input_mtimes": self.input_mtimes,
            "input_extents": {
                path: extent.to_list()
                for path, extent in self.input_extents.items()
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RepositoryEntry":
        return cls(
            plan=PhysicalPlan.from_dict(data["plan"]),
            output_path=data["output_path"],
            output_schema=Schema.from_dict(data["output_schema"]),
            stats=EntryStats(**data["stats"]),
            anchor_kind=data.get("anchor_kind", "whole-job"),
            created_at=data.get("created_at", 0),
            last_used_at=data.get("last_used_at", 0),
            use_count=data.get("use_count", 0),
            input_mtimes=dict(data.get("input_mtimes", {})),
            input_extents={
                path: InputExtent.from_list(extent)
                for path, extent in data.get("input_extents", {}).items()
            },
            entry_id=data.get("entry_id", ""),
        )


@dataclass
class MatchScanStats:
    """What one candidate-selection pass over the repository saw."""

    entries_total: int = 0
    candidates: int = 0
    pruned: int = 0


@dataclass
class RepositoryIndexStats:
    """Cumulative counters for the fingerprint index (reporting/CI)."""

    exact_lookups: int = 0
    exact_hits: int = 0
    scans: int = 0
    candidates_examined: int = 0
    candidates_pruned: int = 0
    #: matcher traversals spent maintaining the §3 subsumption order
    subsume_checks: int = 0
    #: ordering pairs dismissed by fingerprint pruning (no traversal)
    subsume_pruned: int = 0
    #: entries folded into the order one at a time (insort path)
    order_integrations: int = 0
    #: batched order flushes, and entries amortized across them
    batch_flushes: int = 0
    batch_entries: int = 0
    #: batch entries placed by bisection rather than by a list sort
    batch_bisections: int = 0


class _IndexShard:
    """One lock stripe of the inverted indexes.

    Keys (fingerprints, load signatures, input paths) hash to a shard;
    all buckets for a key live in that key's shard and are only touched
    under its lock.
    """

    __slots__ = ("lock", "by_fingerprint", "by_load_sig", "by_input_path")

    def __init__(self) -> None:
        self.lock = threading.RLock()
        #: whole-plan fingerprint -> entry ids (insertion order)
        self.by_fingerprint: Dict[str, List[str]] = {}
        #: load signature -> entry ids
        self.by_load_sig: Dict[str, Set[str]] = {}
        #: input path -> entry ids
        self.by_input_path: Dict[str, Set[str]] = {}


class Repository:
    """Fingerprint-indexed, scan-ordered, concurrency-safe collection.

    ``n_shards`` controls the lock striping of the inverted indexes
    (shard assignment is a deterministic CRC of the key, so layouts are
    stable across processes).  All public methods may be called from
    any thread; reads return snapshots.
    """

    def __init__(
        self,
        matcher: Optional[PlanMatcher] = None,
        ordering_enabled: bool = True,
        n_shards: int = 8,
    ):
        if n_shards < 1:
            raise ValueError("need at least one index shard")
        self.matcher = matcher or PlanMatcher()
        #: when False, ordered_entries() returns insertion order —
        #: an ablation knob showing why §3's ordering rules matter
        #: (the first match found is used for the rewrite)
        self.ordering_enabled = ordering_enabled
        self.index_stats = RepositoryIndexStats()
        self.n_shards = n_shards
        #: guards the entry table, sequence numbers, sig counts, the
        #: ordering structures, and index_stats; shard locks are only
        #: ever taken while holding (or after) this lock, never before
        self._lock = threading.RLock()
        self._entries: Dict[str, RepositoryEntry] = {}
        self._id_counter = 1
        self._seq_counter = 0
        #: entry id -> insertion sequence (stable-sort tie-break)
        self._seq: Dict[str, int] = {}
        # -- sharded fingerprint indexes (kept in step with _entries) --
        self._shards: List[_IndexShard] = [_IndexShard() for _ in range(n_shards)]
        self._sig_counts: Dict[str, Dict[str, int]] = {}
        # -- incremental §3 ordering ---------------------------------
        #: entry id -> how many other entries its plan subsumes
        self._scores: Dict[str, int] = {}
        #: a -> {b: a's plan contains b's plan} and the inverse
        self._subsumes: Dict[str, Set[str]] = {}
        self._subsumed_by: Dict[str, Set[str]] = {}
        #: integrated entry ids, sorted by the §3 scan key
        self._sorted: List[str] = []
        #: added but not yet integrated into the order (lazy, so
        #: ordering-free workloads never pay for matcher calls; flushed
        #: as one batch by the next ordered scan)
        self._pending: List[str] = []
        #: durability hooks: called as ``listener(kind, entry)`` with
        #: kind "added"/"removed"/"refreshed", *under the repository
        #: lock*, right after the mutation commits (see
        #: subscribe_mutations)
        self._mutation_listeners: List[Callable[[str, RepositoryEntry], None]] = []

    @contextmanager
    def locked(self):
        """Hold the repository lock across a multi-step read (snapshot
        capture pairs :meth:`snapshot_state` with :meth:`entries`
        atomically).  Reentrant; honor the manager → repository →
        shard lock order when combining with manager state."""
        with self._lock:
            yield self

    def subscribe_mutations(
        self, listener: Callable[[str, "RepositoryEntry"], None]
    ) -> Callable[[], None]:
        """Register a durability listener; returns an unsubscribe
        function.

        The listener runs under the repository lock, synchronously
        with the mutation — that is the point: a journaling listener
        serializes the entry *exactly* as committed, with no window
        for a concurrent re-add or eviction to slip between commit and
        record.  Listeners must not call back into entry-level
        repository methods (the lock is held) and must never fire
        during :meth:`from_persisted_state` — restored entries are
        already persisted.
        """
        with self._lock:
            self._mutation_listeners.append(listener)

        def unsubscribe() -> None:
            with self._lock:
                if listener in self._mutation_listeners:
                    self._mutation_listeners.remove(listener)

        return unsubscribe

    def _notify_mutation(self, kind: str, entry: "RepositoryEntry") -> None:
        for listener in self._mutation_listeners:
            listener(kind, entry)

    # -- basic operations ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        with self._lock:
            return iter(list(self._entries.values()))

    def entries(self) -> List[RepositoryEntry]:
        with self._lock:
            return list(self._entries.values())

    def get(self, entry_id: str) -> RepositoryEntry:
        try:
            return self._entries[entry_id]
        except KeyError:
            raise RepositoryError(f"no such entry: {entry_id}") from None

    def has_entry(self, entry_id: str) -> bool:
        """Whether *entry_id* is still live (snapshot validation: a
        matcher works on candidate snapshots, so an entry can be
        evicted mid-scan; callers re-check before acting on a match)."""
        return entry_id in self._entries

    def _assign_id(self, entry: RepositoryEntry) -> None:
        if entry.entry_id:
            # Persisted id: keep it, but advance the counter past it so
            # later generated ids can never collide.
            match = _ENTRY_ID_PATTERN.match(entry.entry_id)
            if match:
                self._id_counter = max(self._id_counter, int(match.group(1)) + 1)
            return
        while True:
            candidate = f"entry_{self._id_counter:06d}"
            self._id_counter += 1
            if candidate not in self._entries:
                entry.entry_id = candidate
                return

    def add(self, entry: RepositoryEntry) -> RepositoryEntry:
        with self._lock:
            return self._add_locked(entry)

    def _add_locked(self, entry: RepositoryEntry) -> RepositoryEntry:
        self._assign_id(entry)
        eid = entry.entry_id
        if eid in self._entries:
            # Same-id re-add replaces the old entry like the historical
            # dict assignment did: deindex the old one but keep the
            # entry's insertion position (dict slot and seq tie-break).
            self._deindex_entry(self._entries[eid])
            if eid in self._pending:
                self._pending.remove(eid)
            else:
                self._retire_from_order(eid)
        else:
            self._seq[eid] = self._seq_counter
            self._seq_counter += 1
        self._entries[eid] = entry
        self._index_entry(entry)
        self._pending.append(eid)
        self._notify_mutation("added", entry)
        return entry

    def add_batch(self, entries: Iterable[RepositoryEntry]) -> List[RepositoryEntry]:
        """Add many entries in one registration batch.

        The batch defers subsumption-order upkeep: all entries land in
        the pending set and the next ordered scan (or :meth:`flush`)
        integrates them together — by bisection when the batch is
        small next to the integrated order, by one list sort of the
        merged order when it is not (see :meth:`_integrate_batch`).
        """
        with self._lock:
            return [self._add_locked(entry) for entry in entries]

    def add_if_absent(self, entry: RepositoryEntry) -> Tuple[RepositoryEntry, bool]:
        """Atomically register *entry* unless an equivalent plan is
        already stored.

        Returns ``(stored_entry, added)``.  This is the check-then-add
        race closed: two concurrent registrations of the same
        computation can both pass a bare :meth:`find_equivalent` probe,
        but only one can win this method; the loser receives the
        winner's entry and ``added=False``.
        """
        with self._lock:
            existing = self.find_equivalent(entry.plan)
            if existing is not None:
                return existing, False
            return self._add_locked(entry), True

    def remove(self, entry_id: str) -> RepositoryEntry:
        with self._lock:
            entry = self.get(entry_id)
            del self._entries[entry_id]
            del self._seq[entry_id]
            self._deindex_entry(entry)
            if entry_id in self._pending:
                self._pending.remove(entry_id)
            else:
                self._retire_from_order(entry_id)
            self._notify_mutation("removed", entry)
            return entry

    def refresh_entry(
        self,
        entry_id: str,
        *,
        input_mtimes: Optional[Mapping[str, int]] = None,
        input_extents: Optional[Mapping[str, InputExtent]] = None,
        input_bytes_delta: int = 0,
        output_bytes_delta: int = 0,
        output_records_delta: int = 0,
    ) -> RepositoryEntry:
        """Advance an entry's recorded input state after a delta merge.

        The incremental-recomputation layer appended the tail-run's
        output onto the entry's stored file; the entry now describes
        the *grown* computation: input mtimes/extents move to the
        captured live values and the size statistics grow by the
        delta.  The plan (and therefore the fingerprint and the
        signature indexes) is unchanged; only the §3 order position may
        move with the statistics, and the ``by_input_path`` buckets are
        extended for any genuinely new path (defensive — a delta
        refresh never changes the path set today).  Listeners observe
        the mutation as kind ``"refreshed"``.
        """
        with self._lock:
            entry = self.get(entry_id)
            if input_mtimes:
                for path in input_mtimes:
                    if path not in entry.input_mtimes:
                        shard = self._shard_of(path)
                        with shard.lock:
                            shard.by_input_path.setdefault(path, set()).add(
                                entry_id
                            )
                entry.input_mtimes.update(input_mtimes)
            if input_extents:
                entry.input_extents.update(input_extents)
            entry.stats.input_bytes += input_bytes_delta
            entry.stats.output_bytes += output_bytes_delta
            entry.stats.output_records += output_records_delta
            if entry_id in self._sorted:
                # io_ratio / exec_time feed the §3 scan key: re-place
                # the entry so _sorted stays sorted under current keys
                self._reposition(entry_id)
            self._notify_mutation("refreshed", entry)
            return entry

    def flush(self) -> None:
        """Integrate every pending entry into the §3 order now.

        Equivalent to what the next :meth:`ordered_entries` call would
        do; exposed so batch writers can pay the upkeep at a chosen
        point (e.g. between workloads) instead of inside a match scan.
        """
        if not self.ordering_enabled:
            return
        with self._lock:
            self._flush_pending_locked()

    # -- sharded fingerprint indexes ----------------------------------------------

    def _shard_of(self, key: str) -> _IndexShard:
        return self._shards[zlib.crc32(key.encode()) % self.n_shards]

    def _index_entry(self, entry: RepositoryEntry) -> None:
        eid = entry.entry_id
        fingerprint = entry.plan.fingerprint()
        shard = self._shard_of(fingerprint)
        with shard.lock:
            bucket = shard.by_fingerprint.setdefault(fingerprint, [])
            # keep buckets in insertion-sequence order even through
            # same-id re-adds, so find_equivalent can take bucket[0]
            insort(bucket, eid, key=lambda e: self._seq[e])
        for sig in entry.plan.load_signature_set():
            shard = self._shard_of(sig)
            with shard.lock:
                shard.by_load_sig.setdefault(sig, set()).add(eid)
        for path in entry.input_mtimes:
            shard = self._shard_of(path)
            with shard.lock:
                shard.by_input_path.setdefault(path, set()).add(eid)
        self._sig_counts[eid] = dict(entry.plan.signature_counts())

    def _deindex_entry(self, entry: RepositoryEntry) -> None:
        eid = entry.entry_id
        fingerprint = entry.plan.fingerprint()
        shard = self._shard_of(fingerprint)
        with shard.lock:
            bucket = shard.by_fingerprint.get(fingerprint, [])
            if eid in bucket:
                bucket.remove(eid)
                if not bucket:
                    del shard.by_fingerprint[fingerprint]
        for sig in entry.plan.load_signature_set():
            shard = self._shard_of(sig)
            with shard.lock:
                holders = shard.by_load_sig.get(sig)
                if holders is not None:
                    holders.discard(eid)
                    if not holders:
                        del shard.by_load_sig[sig]
        for path in entry.input_mtimes:
            shard = self._shard_of(path)
            with shard.lock:
                holders = shard.by_input_path.get(path)
                if holders is not None:
                    holders.discard(eid)
                    if not holders:
                        del shard.by_input_path[path]
        self._sig_counts.pop(eid, None)

    def _load_sig_pool(self, sigs: Iterable[str]) -> Set[str]:
        """Union of the load-signature buckets for *sigs* (per-shard
        locking; the caller decides whether entry-level state is also
        locked)."""
        pool: Set[str] = set()
        for sig in sigs:
            shard = self._shard_of(sig)
            with shard.lock:
                pool |= shard.by_load_sig.get(sig, set())
        return pool

    # -- merged index views (tests, debugging) ------------------------------------

    def merged_index_views(self) -> Dict[str, Dict]:
        """Deep-copied, merged snapshots of the sharded indexes, keyed
        ``by_fingerprint`` / ``by_load_sig`` / ``by_input_path``.

        Read-only by construction: the returned containers are copies,
        so code that mutates them (as pre-shard code mutated the old
        ``_by_*`` dict attributes) cannot silently desync the real
        shard buckets — there is deliberately no attribute exposing
        them directly.
        """
        views: Dict[str, Dict] = {
            "by_fingerprint": {},
            "by_load_sig": {},
            "by_input_path": {},
        }
        for shard in self._shards:
            with shard.lock:
                for key, bucket in shard.by_fingerprint.items():
                    views["by_fingerprint"][key] = list(bucket)
                for key, holders in shard.by_load_sig.items():
                    views["by_load_sig"][key] = set(holders)
                for key, holders in shard.by_input_path.items():
                    views["by_input_path"][key] = set(holders)
        return views

    def find_equivalent(self, plan: PhysicalPlan) -> Optional[RepositoryEntry]:
        """An existing entry whose plan computes exactly *plan*.

        O(1): one cached fingerprint plus one dict probe in the
        fingerprint's shard (used to be a linear scan re-fingerprinting
        every stored plan).
        """
        fingerprint = plan.fingerprint()
        shard = self._shard_of(fingerprint)
        with self._lock:
            self.index_stats.exact_lookups += 1
            with shard.lock:
                bucket = shard.by_fingerprint.get(fingerprint)
                if not bucket:
                    return None
                # buckets are kept in insertion order, matching the
                # historical first-found scan
                first = bucket[0]
            self.index_stats.exact_hits += 1
            return self._entries[first]

    def find_by_output_path(self, path: str) -> Optional[RepositoryEntry]:
        for entry in self.entries():
            if entry.output_path == path:
                return entry
        return None

    def input_paths(self) -> List[str]:
        """Distinct source-dataset paths recorded by live entries."""
        paths: List[str] = []
        for shard in self._shards:
            with shard.lock:
                paths.extend(shard.by_input_path)
        return paths

    def entries_with_input(self, path: str) -> List[RepositoryEntry]:
        """Entries whose plans read *path* (insertion order)."""
        with self._lock:
            shard = self._shard_of(path)
            with shard.lock:
                ids = set(shard.by_input_path.get(path, set()))
            return [
                self._entries[eid] for eid in sorted(ids, key=lambda e: self._seq[e])
            ]

    @property
    def total_stored_bytes(self) -> int:
        return sum(e.stats.output_bytes for e in self.entries())

    # -- candidate pruning (the indexed fast path) --------------------------------

    @staticmethod
    def _counts_contained(inner: Dict[str, int], outer: Dict[str, int]) -> bool:
        """True when *inner* is a sub-multiset of *outer* — necessary
        for inner's plan to be contained in outer's (every repo
        operator needs a distinct, signature-equal image)."""
        if not inner.keys() <= outer.keys():
            return False  # rejects most pairs without a Python loop
        return all(outer[sig] >= n for sig, n in inner.items())

    def match_candidates(
        self, plan: PhysicalPlan, *, indexed: bool = True
    ) -> Tuple[List[RepositoryEntry], MatchScanStats]:
        """Scan-ordered entries that can possibly be contained in
        *plan*, plus what the pruning saw.

        With ``indexed=False`` this degrades to the historical full
        scan (every entry is a candidate) — kept as the benchmark and
        ablation baseline.  Pruning is sound: it only removes entries
        whose Load set or operator-signature multiset proves Algorithm
        1 would reject them, so the surviving first match is byte-for-
        byte the one the full scan finds.

        The indexed scan costs O(pool) for the Load-signature buckets
        plus a sort of the survivors by the scan key, never a walk of
        the whole order: the key is a strict total order and the
        maintained order is sorted under current keys, so sorting the
        survivors yields exactly the full order filtered to them.  The
        returned list is a snapshot: entries removed concurrently stay
        visible to a scan already in flight.
        """
        load_sigs = plan.load_signature_set()
        counts = dict(plan.signature_counts())
        with self._lock:
            if not indexed:
                ordered = self._ordered_entries_locked()
                stats = MatchScanStats(
                    entries_total=len(ordered), candidates=len(ordered)
                )
                self.index_stats.scans += 1
                self.index_stats.candidates_examined += len(ordered)
                return ordered, stats
            if self.ordering_enabled:
                self._flush_pending_locked()
                scan_key = self._order_key
            else:
                scan_key = self._seq.__getitem__
            keep = sorted(
                (
                    eid
                    for eid in self._load_sig_pool(load_sigs)
                    if eid in self._sig_counts
                    and self._counts_contained(self._sig_counts[eid], counts)
                ),
                key=scan_key,
            )
            candidates = [self._entries[eid] for eid in keep]
            stats = MatchScanStats(
                entries_total=len(self._entries),
                candidates=len(candidates),
                pruned=len(self._entries) - len(candidates),
            )
            self.index_stats.scans += 1
            self.index_stats.candidates_examined += stats.candidates
            self.index_stats.candidates_pruned += stats.pruned
            return candidates, stats

    # -- ordering (§3, incrementally maintained) ----------------------------------

    def _order_key(self, entry_id: str) -> tuple:
        entry = self._entries[entry_id]
        return (
            -self._scores.get(entry_id, 0),
            -entry.stats.io_ratio,
            -entry.stats.exec_time_s,
            self._seq[entry_id],
        )

    def _contains_traversal(self, a: RepositoryEntry, b: RepositoryEntry) -> bool:
        self.index_stats.subsume_checks += 1
        return self.matcher.contains(a.plan, b.plan)

    def _record_subsumption(self, a_id: str, b_id: str) -> None:
        self._subsumes.setdefault(a_id, set()).add(b_id)
        self._subsumed_by.setdefault(b_id, set()).add(a_id)
        self._scores[a_id] = self._scores.get(a_id, 0) + 1

    def _reposition(self, entry_id: str) -> None:
        self._sorted.remove(entry_id)
        insort(self._sorted, entry_id, key=self._order_key)

    def _compute_subsumptions(self, entry_id: str, reposition: bool) -> None:
        """Record the subsumption pairs of one pending entry: compare
        it (fingerprint-pruned) against every integrated or
        earlier-batched entry sharing a Load, updating scores on both
        sides.

        With ``reposition`` each *other* entry whose score grew is
        re-placed immediately — ``_sorted`` must stay sorted under
        current keys at every step, or later ``insort`` calls bisect a
        stale list.  A batch flush that ends in a sort passes False:
        the one total-order sort supersedes every intermediate
        placement.
        """
        entry = self._entries[entry_id]
        counts = self._sig_counts[entry_id]
        pool = self._load_sig_pool(entry.plan.load_signature_set())
        pool.discard(entry_id)
        self._scores.setdefault(entry_id, 0)
        for other_id in sorted(pool, key=self._seq.__getitem__):
            if other_id not in self._scores:
                continue  # still pending; handled when it integrates
            other = self._entries[other_id]
            other_counts = self._sig_counts[other_id]
            if self._counts_contained(other_counts, counts):
                if self._contains_traversal(entry, other):
                    self._record_subsumption(entry_id, other_id)
            else:
                self.index_stats.subsume_pruned += 1
            if self._counts_contained(counts, other_counts):
                if self._contains_traversal(other, entry):
                    self._record_subsumption(other_id, entry_id)
                    if reposition and other_id in self._sorted:
                        self._reposition(other_id)
            else:
                self.index_stats.subsume_pruned += 1

    def _integrate(self, entry_id: str) -> None:
        """Fold one pending entry into the maintained order: record its
        subsumption pairs (repositioning as scores change), insert by
        key."""
        self._compute_subsumptions(entry_id, reposition=True)
        insort(self._sorted, entry_id, key=self._order_key)

    def _integrate_batch(self, batch: List[str]) -> None:
        """Fold a whole pending batch into the order at once.

        Subsumption pairs are computed per entry exactly as the
        one-at-a-time path would (earlier batch entries are visible to
        later ones, mirroring FIFO integration).  Placement takes the
        cheaper strategy for the observed sizes: a sort evaluates the
        scan key of every integrated entry, bisection about
        log2(len(order)) keys per batch entry.  A batch small next to
        the integrated order is therefore placed entry by entry with
        :meth:`_integrate`; a bulk load onto an empty or small order
        pays one total-order sort of the merged list.  Both end in the
        same list, since the key is a strict total order.
        """
        self.index_stats.batch_flushes += 1
        self.index_stats.batch_entries += len(batch)
        integrated = len(self._sorted)
        if len(batch) * integrated.bit_length() < integrated:
            self.index_stats.batch_bisections += len(batch)
            for entry_id in batch:
                self._integrate(entry_id)
            return
        for entry_id in batch:
            self._compute_subsumptions(entry_id, reposition=False)
        self._sorted.extend(batch)
        self._sorted.sort(key=self._order_key)

    def _flush_pending_locked(self) -> None:
        if not self._pending:
            return
        if len(self._pending) == 1:
            self.index_stats.order_integrations += 1
            self._integrate(self._pending.pop(0))
            return
        batch, self._pending = self._pending, []
        self._integrate_batch(batch)

    def _retire_from_order(self, entry_id: str) -> None:
        """Remove an integrated entry: retire its cached subsumption
        pairs (no matcher calls) and fix the scores they carried."""
        # drop the victim first — repositioning probes _sorted keys
        if entry_id in self._sorted:
            self._sorted.remove(entry_id)
        for a_id in self._subsumed_by.pop(entry_id, set()):
            subsumed = self._subsumes.get(a_id)
            if subsumed is not None:
                subsumed.discard(entry_id)
            if a_id in self._scores:
                self._scores[a_id] -= 1
                if a_id in self._sorted:
                    self._reposition(a_id)
        for b_id in self._subsumes.pop(entry_id, set()):
            holders = self._subsumed_by.get(b_id)
            if holders is not None:
                holders.discard(entry_id)
        self._scores.pop(entry_id, None)

    def _ordered_entries_locked(self) -> List[RepositoryEntry]:
        if not self.ordering_enabled:
            return list(self._entries.values())
        self._flush_pending_locked()
        return [self._entries[eid] for eid in self._sorted]

    def ordered_entries(self) -> List[RepositoryEntry]:
        """Entries in match-scan order (best candidates first).

        Ordered by (subsumption score desc, io ratio desc, exec time
        desc, insertion order) — provably the same order as the
        historical two-pass stable sort, but maintained entry by entry
        (or batch by batch) instead of recomputed O(n²) per mutation.
        Returns a snapshot safe to iterate without locks; building it
        is O(n), which the indexed match scan avoids (see
        :meth:`match_candidates`).

        Integration of pending entries (including its matcher
        traversals) runs under the repository lock — the §3 order is
        global state, so upkeep is deliberately exclusive; a pending
        batch is placed by bisection or one sort, whichever costs
        less for its size (see :meth:`_integrate_batch`).
        """
        with self._lock:
            return self._ordered_entries_locked()

    # -- persistence --------------------------------------------------------------

    def snapshot_state(self) -> dict:
        """Everything beyond the entries themselves that a faithful
        restore needs: the id/sequence counters, configuration, the
        per-entry insertion sequence, and the full incremental §3
        ordering state (scores keep zero-valued members — membership
        in ``scores`` is what marks an entry as *integrated*, which
        pending-batch subsumption computation relies on)."""
        with self._lock:
            return {
                "id_counter": self._id_counter,
                "seq_counter": self._seq_counter,
                "ordering_enabled": self.ordering_enabled,
                "n_shards": self.n_shards,
                "seq": dict(self._seq),
                "order": {
                    "scores": dict(self._scores),
                    "subsumes": {
                        a: sorted(bs) for a, bs in self._subsumes.items() if bs
                    },
                    "sorted": list(self._sorted),
                    "pending": list(self._pending),
                },
            }

    @classmethod
    def from_persisted_state(
        cls,
        entries: Iterable[RepositoryEntry],
        seqs: Mapping[str, int],
        state: Mapping,
        *,
        matcher: Optional[PlanMatcher] = None,
        n_shards: Optional[int] = None,
    ) -> "Repository":
        """Install persisted entries and ordering state directly —
        O(entries) index rebuild, zero matcher traversals, zero
        re-registration.

        Mutation listeners deliberately never fire here: restored
        entries are already persisted, and the persister attaches only
        after recovery completes.
        """
        repo = cls(
            matcher=matcher,
            ordering_enabled=bool(state.get("ordering_enabled", True)),
            n_shards=n_shards or int(state.get("n_shards", 8)),
        )
        with repo._lock:
            max_seq = -1
            max_id = 0
            for entry in sorted(entries, key=lambda e: seqs[e.entry_id]):
                eid = entry.entry_id
                if not eid:
                    raise RepositoryError("persisted entry without an id")
                seq = int(seqs[eid])
                repo._seq[eid] = seq
                repo._entries[eid] = entry
                repo._index_entry(entry)
                max_seq = max(max_seq, seq)
                match = _ENTRY_ID_PATTERN.match(eid)
                if match:
                    max_id = max(max_id, int(match.group(1)))
            # counters resume past everything persisted, so new
            # registrations can never collide with restored ids
            repo._id_counter = max(int(state.get("id_counter", 1)), max_id + 1)
            repo._seq_counter = max(int(state.get("seq_counter", 0)), max_seq + 1)
            order = state.get("order")
            if order is None:
                # no recorded order (minimal/legacy payload): entries
                # integrate lazily, in insertion-sequence order
                repo._pending = sorted(repo._entries, key=repo._seq.__getitem__)
            else:
                repo._scores = {
                    eid: int(score) for eid, score in order.get("scores", {}).items()
                }
                repo._subsumes = {
                    a: set(bs) for a, bs in order.get("subsumes", {}).items()
                }
                for a_id, subsumed in repo._subsumes.items():
                    for b_id in subsumed:
                        repo._subsumed_by.setdefault(b_id, set()).add(a_id)
                repo._sorted = list(order.get("sorted", []))
                repo._pending = list(order.get("pending", []))
        return repo

    @classmethod
    def restore(
        cls,
        snapshot,
        journal=None,
        *,
        matcher: Optional[PlanMatcher] = None,
        n_shards: Optional[int] = None,
    ) -> "Repository":
        """Rebuild a repository from a persisted snapshot plus the
        post-snapshot journal — the crash-recovery entry point.

        *snapshot* is a :class:`~repro.persistence.snapshot.RepositorySnapshot`
        or its encoded bytes; *journal* is raw journal bytes or an
        iterable of decoded records.  All inverted indexes and the
        incremental §3 order come back in O(entries read) without
        re-registering any plan, and the entry-id counter resumes past
        every persisted id.  (For full-system recovery — kept paths,
        clock, DFS id floors — use :func:`repro.persistence.recover`.)
        """
        from repro.persistence.durability import ReplayTarget
        from repro.persistence.journal import decode_journal
        from repro.persistence.snapshot import RepositorySnapshot

        if isinstance(snapshot, (bytes, bytearray, memoryview)):
            snapshot = RepositorySnapshot.from_bytes(bytes(snapshot))
        repo = snapshot.restore_repository(matcher=matcher, n_shards=n_shards)
        if journal:
            if isinstance(journal, (bytes, bytearray, memoryview)):
                records = decode_journal(bytes(journal)).records
            else:
                records = journal
            ReplayTarget(repo).apply_all(records)
        return repo

    @classmethod
    def from_legacy_json(
        cls, text: str, matcher: Optional[PlanMatcher] = None
    ) -> "Repository":
        """The one legacy-JSON loader: rebuild a repository from the
        pre-snapshot ``{"entries": [...]}`` dump shape via batched
        re-registration.

        Everything else goes through the snapshot codec —
        :meth:`restore` for snapshot/journal bytes, or
        :class:`repro.persistence.RepositorySnapshot` to capture and
        encode live state.
        """
        data = json.loads(text)
        repo = cls(matcher=matcher)
        repo.add_batch(
            RepositoryEntry.from_dict(entry_data)
            for entry_data in data.get("entries", [])
        )
        return repo

    def __repr__(self) -> str:
        return (
            f"Repository(entries={len(self._entries)}, "
            f"stored_bytes={self.total_stored_bytes})"
        )
