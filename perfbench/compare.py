"""Compare two sets of benchmark runs, metric by metric.

Collect paired runs of two checkouts (a parent and a change), with the
side that runs first alternating from pair to pair::

    python3 perfbench/compare.py collect PARENT_DIR CHANGE_DIR --pairs 10 \\
        --out runs.jsonl [--workload NAME ...]

Pair *i* runs seed *i* (1-based) on both sides.  Then report, for each
workload and end-to-end metric, each side's median and quartiles and a
verdict::

    python3 perfbench/compare.py report runs.jsonl

Verdicts follow the benchmark's own bounds (BENCHMARK.json):

* ``better`` — the change wins at least nine tenths of the pairs (ties
  count for neither side) and the medians differ by more than the
  parent's own quartile spread;
* ``worse`` — the change's median is worse than the parent's by more
  than the metric's bound;
* ``unresolved`` — the run-to-run spread is wider than the bound, so a
  change of that size could not be told apart from noise (unless every
  run of the change reads better than every run of the parent);
* ``unchanged`` — none of the above.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def quartiles(values: List[float]):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _better(a: float, b: float, lower_is_better: bool) -> bool:
    """True when *a* reads better than *b*."""
    return a < b if lower_is_better else a > b


def verdict(parent: List[float], change: List[float], metric: dict) -> str:
    """Verdict for one metric from paired runs (pair i = index i)."""
    lower = metric["better"] == "lower"
    p1, pmed, p3 = quartiles(parent)
    c1, cmed, c3 = quartiles(change)
    scale = abs(pmed) or 1.0
    bound = metric["bound"]
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if _better(c, p, lower))
    if wins >= 0.9 * len(pairs) and abs(cmed - pmed) > (p3 - p1):
        return "better"
    worse_by = (cmed - pmed) / scale if lower else (pmed - cmed) / scale
    spread = max((p3 - p1) / scale, (c3 - c1) / (abs(cmed) or 1.0))
    if worse_by > bound:
        return "worse" if spread <= bound else "unresolved"
    every_better = all(_better(c, p, lower) for c in change for p in parent)
    if spread > bound and not every_better:
        return "unresolved"
    return "unchanged"


def _run(checkout: Path, workload: str, seed: int, seconds: int):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result


def collect(args) -> int:
    spec = json.loads(SPEC_PATH.read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    sides = {"parent": Path(args.parent), "change": Path(args.change)}
    with open(args.out, "a", encoding="utf-8") as out:
        for pair in range(args.pairs):
            seed = pair + 1
            order = ["parent", "change"] if pair % 2 == 0 else ["change", "parent"]
            for workload in workloads:
                for side in order:
                    code, result = _run(sides[side], workload, seed,
                                        spec["run_seconds"])
                    out.write(json.dumps({
                        "side": side, "workload": workload, "seed": seed,
                        "pair": pair, "first": order[0], "exit": code,
                        "result": result,
                    }) + "\n")
                    out.flush()
                    print(f"pair {pair} {workload} {side}: exit {code}")
    return 0


def report(args) -> int:
    spec = json.loads(SPEC_PATH.read_text())
    metrics: Dict[str, dict] = {m["name"]: m for m in spec["end_to_end"]}
    runs: Dict[tuple, Dict[int, dict]] = {}
    for line in Path(args.runs).read_text().splitlines():
        record = json.loads(line)
        if record["result"] is None or not record["result"]["correct"]:
            print(f"excluded: {record['workload']} {record['side']} "
                  f"seed {record['seed']} (exit {record['exit']})")
            continue
        runs.setdefault((record["workload"], record["side"]), {})[
            record["seed"]] = record["result"]["metrics"]
    print(f"{'workload':16s} {'metric':28s} {'parent median [q1, q3]':>32s} "
          f"{'change median [q1, q3]':>32s}  verdict")
    for workload in sorted({w for w, _ in runs}):
        parent = runs.get((workload, "parent"), {})
        change = runs.get((workload, "change"), {})
        seeds = sorted(set(parent) & set(change))
        if not seeds:
            continue
        for name, spec_metric in metrics.items():
            p = [parent[s][name]["value"] for s in seeds]
            c = [change[s][name]["value"] for s in seeds]
            pq, cq = quartiles(p), quartiles(c)
            print(f"{workload:16s} {name:28s} "
                  f"{pq[1]:12.5g} [{pq[0]:.5g}, {pq[2]:.5g}]".ljust(78)
                  + f"{cq[1]:12.5g} [{cq[0]:.5g}, {cq[2]:.5g}]".rjust(34)
                  + f"  {verdict(p, c, spec_metric)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    gather = commands.add_parser("collect", help="run paired benchmark runs")
    gather.add_argument("parent")
    gather.add_argument("change")
    gather.add_argument("--pairs", type=int, default=10)
    gather.add_argument("--workload", action="append")
    gather.add_argument("--out", required=True)
    show = commands.add_parser("report", help="medians, quartiles, verdicts")
    show.add_argument("runs")
    args = parser.parse_args(argv)
    return collect(args) if args.command == "collect" else report(args)


if __name__ == "__main__":
    sys.exit(main())
