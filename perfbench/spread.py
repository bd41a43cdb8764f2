#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, and agreement between sets.

Runs ``perfbench/run.py`` ``--runs`` times per workload, each with another
seed, ``--sets`` times over.  For every end-to-end metric it reports each
set's median and the distance between the first and third quartile
(``statistics.quantiles(n=4)``) as a share of the median, and by how much
each later set's median is worse than the first set's; both are compared
with the metric's bound in ``BENCHMARK.json``::

    python3 perfbench/spread.py --runs 10 --sets 2 --output perfbench/spread.json

Exits 1 when a spread (``setup_s`` excepted) or a median shift exceeds its
bound, or when a run reports a failed operation.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_once(workload: str, seed: int, seconds: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def summarise(results: list[dict], metrics: list[dict]) -> dict:
    out = {}
    for metric in metrics:
        values = [r["metrics"][metric["name"]]["value"] for r in results]
        q1, _, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
        out[metric["name"]] = {"median": med, "spread": (q3 - q1) / med, "values": values}
    return out


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--output", type=Path)
    args = parser.parse_args(argv)

    metrics = bench["end_to_end"]
    report: dict = {"runs": args.runs, "sets": args.sets, "seconds": args.seconds,
                    "workloads": {}}
    ok = True
    seed = args.first_seed
    for workload in args.workload or [w["name"] for w in bench["workloads"]]:
        sets = []
        for _ in range(args.sets):
            seeds = list(range(seed, seed + args.runs))
            seed += args.runs
            results = [run_once(workload, s, args.seconds) for s in seeds]
            failed = sum(r["failed"] for r in results)
            ok = ok and failed == 0 and all(r["correct"] for r in results)
            sets.append({"seeds": seeds, "failed": failed,
                         "metrics": summarise(results, metrics)})
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            first = sets[0]["metrics"][name]["median"]
            for i, entry in enumerate(sets):
                m = entry["metrics"][name]
                worse = (m["median"] - first) / first
                if metric["better"] == "higher":
                    worse = -worse
                m["worse_than_first_set"] = worse
                if (name != "setup_s" and m["spread"] > bound) or worse > bound:
                    ok = False
                print(f"{workload:14s} set {i + 1} {name:13s} median={m['median']:12.6g} "
                      f"spread={m['spread']:7.4f} worse={worse:+7.4f} bound={bound}")
        report["workloads"][workload] = sets
    report["within_bounds"] = ok
    if args.output:
        args.output.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
