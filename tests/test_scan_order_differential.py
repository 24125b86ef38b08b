"""Differential test of the §3 scan order and of candidate selection.

The repository keeps its scan order incrementally and answers a match
scan by sorting only the entries that survive index pruning.  Both
shortcuts must be invisible: after every step of a seeded random
sequence of ``add``, ``add_batch``, ``remove``, ``refresh_entry``,
``flush`` and probes,

* ``ordered_entries()`` equals the historical two-pass sort (or
  insertion order when ordering is disabled), and
* the indexed ``match_candidates(plan)`` list equals the full-scan
  (``indexed=False``) list filtered to the same surviving ids, in the
  same order, and the survivors are exactly the entries whose Load
  set and operator multiset allow containment in *plan*.

The sequences start from an already large order and keep landing
small batches on it, so both ways of placing a pending batch (one
bisection per entry, or one sort of the merged list) are exercised.
"""

from __future__ import annotations

import random

import pytest
from test_fingerprint_index import (
    assert_index_consistent,
    build_plan,
    legacy_two_pass_order,
    make_entry,
)

from repro.core.repository import Repository

SEEDS = [1, 2, 3]
STEPS = 40
INITIAL = 24


def random_specs(rng, longest):
    return [
        (rng.choice(["filter", "project"]), rng.randint(0, 2))
        for _ in range(rng.randint(1, longest))
    ]


class EntryFactory:
    def __init__(self, rng):
        self.rng = rng
        self.made = 0

    def __call__(self, n):
        entries = []
        for _ in range(n):
            entries.append(
                make_entry(
                    random_specs(self.rng, 3),
                    path=f"ds{self.rng.randint(0, 2)}",
                    out=f"stored/o{self.made}",
                    input_bytes=self.rng.randrange(100, 10_000),
                    output_bytes=self.rng.randrange(10, 1_000),
                    exec_time=float(self.rng.randint(1, 50)),
                )
            )
            self.made += 1
        return entries


def could_be_contained(entry, plan) -> bool:
    """The pruning predicate, restated from plan fingerprints."""
    if not entry.plan.load_signature_set() & plan.load_signature_set():
        return False
    counts = plan.signature_counts()
    return all(
        counts.get(sig, 0) >= n for sig, n in entry.plan.signature_counts().items()
    )


def check_probe(repo, plan):
    candidates, stats = repo.match_candidates(plan)
    full, full_stats = repo.match_candidates(plan, indexed=False)
    kept = {e.entry_id for e in candidates}
    assert [e.entry_id for e in candidates] == [
        e.entry_id for e in full if e.entry_id in kept
    ]
    assert kept == {e.entry_id for e in full if could_be_contained(e, plan)}
    assert stats.entries_total == full_stats.entries_total == len(repo)
    assert stats.candidates + stats.pruned == len(repo)


def check_order(repo, live):
    ordered = [e.entry_id for e in repo.ordered_entries()]
    if repo.ordering_enabled:
        assert ordered == legacy_two_pass_order(repo)
    else:
        assert ordered == live
    assert_index_consistent(repo)


def run_sequence(seed, ordering_enabled):
    rng = random.Random(seed)
    make = EntryFactory(rng)
    repo = Repository(ordering_enabled=ordering_enabled)
    live = [e.entry_id for e in repo.add_batch(make(INITIAL))]
    repo.flush()
    check_order(repo, live)
    for step in range(STEPS):
        roll = rng.random()
        if step == STEPS // 2:
            # a batch a third the size of the order: merged sort
            bulk = make(len(live) // 3 + 2)
            live.extend(e.entry_id for e in repo.add_batch(bulk))
        elif roll < 0.15:
            live.append(repo.add(make(1)[0]).entry_id)
        elif roll < 0.4:
            # small batches on a large order: bisection
            small = make(rng.randint(2, 3))
            live.extend(e.entry_id for e in repo.add_batch(small))
        elif roll < 0.6 and live:
            repo.remove(live.pop(rng.randrange(len(live))))
        elif roll < 0.75 and live:
            repo.refresh_entry(
                rng.choice(live),
                input_bytes_delta=rng.randrange(0, 5_000),
                output_bytes_delta=rng.randrange(0, 200),
            )
        elif roll < 0.85:
            repo.flush()
        # a probe scans before anything else flushes, so pending
        # entries are integrated by the scan itself
        probe = build_plan(
            random_specs(rng, 5), path=f"ds{rng.randint(0, 2)}", out="probe"
        )
        check_probe(repo, probe)
        check_order(repo, live)
    return repo


@pytest.mark.parametrize("seed", SEEDS)
def test_ordered_scan_matches_oracles(seed):
    repo = run_sequence(seed, ordering_enabled=True)
    stats = repo.index_stats
    # both batch placements ran: bisection onto the large order, and
    # merged sorts beyond the initial bulk load
    assert stats.batch_bisections > 0
    assert stats.batch_entries - stats.batch_bisections > INITIAL


@pytest.mark.parametrize("seed", SEEDS)
def test_unordered_scan_matches_insertion_order(seed):
    repo = run_sequence(seed, ordering_enabled=False)
    assert repo.index_stats.subsume_checks == 0
    assert repo.index_stats.batch_flushes == 0
