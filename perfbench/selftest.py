"""The benchmark's own tests: tiny runs of every workload, metric
names against BENCHMARK.json, the oracle tripping on a corrupted
output, traced spans that belong to submissions only, exact repeats
for one seed, and seeds that change the stream.

    python3 -m pytest -q perfbench/selftest.py
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro.session import ReStoreSession  # noqa: E402

from perfbench import compare, harness  # noqa: E402
from perfbench.recording import PassResult, Recorder  # noqa: E402
from perfbench.tracing import GC, SUBMIT  # noqa: E402
from perfbench.workloads import WORKLOADS, SharedRepo, Sizes  # noqa: E402

TINY = 0.1
SECONDS = 0.5
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny_run(name, tmp_path, seed=1, trace=False):
    return harness.run_workload(
        name, seed, SECONDS, trace, scale=TINY, workdir=str(tmp_path)
    )


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(name, tmp_path):
    run = tiny_run(name, tmp_path)
    assert run.problems == []
    metrics = harness.end_to_end(run, import_s=0.0)
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        assert harness.END_TO_END[metric["name"]] == metric["unit"]
        assert metrics[metric["name"]] > 0

    traced = tiny_run(name, tmp_path, trace=True)
    assert traced.problems == []
    layers = harness.per_layer(traced, WORKLOADS[name].uses_service)
    assert set(layers) == {m["name"] for m in SPEC["per_layer"]}
    for metric in SPEC["per_layer"]:
        assert harness.PER_LAYER[metric["name"]] == metric["unit"]


def test_setup_parses_each_input_once_for_the_queries(tmp_path):
    workload = WORKLOADS["pigmix_reuse"](Sizes().scaled(TINY), str(tmp_path))
    fixture = workload.setup(1)
    try:
        dfs = fixture.session.dfs
        warmed = {p: set(dfs.namenode.lookup(p).datasets) for p in fixture.files}
        assert all(warmed.values())
        for query in fixture.extra["stream"][:20]:
            fixture.session.run(query.source)
        for path, keys in warmed.items():
            assert set(dfs.namenode.lookup(path).datasets) == keys
    finally:
        fixture.close()


def test_workloads_in_spec_match_the_harness():
    assert {w["name"] for w in SPEC["workloads"]} == set(WORKLOADS)


def test_oracle_trips_on_a_corrupted_output(tmp_path, monkeypatch):
    original = ReStoreSession.run
    calls = []

    def corrupting(self, source, name=""):
        result = original(self, source, name=name)
        calls.append(name)
        if len(calls) == 5:
            (rows,) = result.outputs.values()
            rows.append(("corrupted",))
        return result

    monkeypatch.setattr(ReStoreSession, "run", corrupting)
    run = tiny_run("pigmix_reuse", tmp_path)
    assert any("oracle" in problem for problem in run.problems)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_spans_belong_to_submissions(name, tmp_path):
    """The oracle runs between submissions: none of its calls may land
    in a layer's spans."""
    run = tiny_run(name, tmp_path, trace=True)
    assert run.problems == []
    spans = list(run.tracer.spans())
    submissions = {span[4] for span in spans if span[0] == SUBMIT}
    assert len(submissions) == sum(len(p.submitted) for p in run.traced)
    # outside a submission only GC pauses (idle threads) and the
    # restart's close and recovery, between two submissions, record
    outside = {span[0] for span in spans if span[4] not in submissions}
    assert {n for n in outside if not n.startswith("persistence.")} <= {GC}
    counts = run.tracer.counts()
    assert counts["pig.compile"] == len(submissions)


def _repeatable(run):
    first = run.passes[0]
    metrics = harness.end_to_end(run, import_s=0.0)
    return (first.fingerprint(), dict(first.tally.counts),
            metrics["sim_cluster_s"], metrics["stored_bytes_ratio"])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_repeats_exactly(name, tmp_path):
    assert _repeatable(tiny_run(name, tmp_path, seed=3)) == _repeatable(
        tiny_run(name, tmp_path, seed=3)
    )


def test_shared_repo_decisions_equal_a_one_worker_run(tmp_path):
    class OneWorker(SharedRepo):
        WORKERS = 1

    def decisions(workload_cls):
        workload = workload_cls(Sizes().scaled(TINY), str(tmp_path))
        fixture = workload.setup(5)
        result = PassResult()
        try:
            workload.run_pass(fixture, Recorder(result))
        finally:
            fixture.close()
        assert result.problems == []
        return {s.sub: s.decisions for s in result.submitted}

    benchmark = decisions(SharedRepo)
    assert SharedRepo.WORKERS == 2 and SharedRepo.TENANTS == 2
    assert any(benchmark.values())
    assert benchmark == decisions(OneWorker)


def test_another_seed_changes_the_stream(tmp_path):
    sizes = Sizes().scaled(TINY)
    for name, cls in WORKLOADS.items():
        workload = cls(sizes, str(tmp_path))
        one, two = workload.setup(1), workload.setup(2)
        try:
            if name == "shared_repo":
                assert workload.probes(1, 20) != workload.probes(2, 20)
            elif name.startswith("pigmix"):
                assert one.extra["stream"] != two.extra["stream"]
            assert one.files != two.files
        finally:
            one.close()
            two.close()


def test_compare_verdicts():
    lower = {"better": "lower", "bound": 0.1}
    base = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]
    faster = [v * 0.7 for v in base]
    slower = [v * 1.3 for v in base]
    noisy = [5.0, 15.0, 8.0, 12.0, 6.0, 14.0, 9.0, 11.0, 7.0, 13.0]
    assert compare.verdict(base, faster, lower) == "better"
    assert compare.verdict(base, slower, lower) == "worse"
    assert compare.verdict(base, list(base), lower) == "unchanged"
    assert compare.verdict(noisy, list(reversed(noisy)), lower) == "unresolved"
