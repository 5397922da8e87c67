#!/usr/bin/env python3
"""Run the benchmark in sets and report whether the sets agree.

Usage, from the root of a checkout::

    python3 perfbench/steadiness.py --runs 5 --sets 2
    python3 perfbench/steadiness.py --workloads campaign --runs 10 --sets 1

Each run is a fresh ``perfbench/run.py`` process with its own seed
(set ``s``, run ``r`` uses seed ``100 + 1000*s + r``) and the run
length of ``BENCHMARK.json``.  Per workload and end-to-end metric it
prints each set's median and its spread (the distance between the
first and third quartile of ``statistics.quantiles(values, n=4)`` as
a share of the median) and, with two sets, how much worse the second
median is than the first (negative: better).  A metric passes when
every spread stays within its bound (``setup_s`` exempt) and the two
medians differ by no more than the bound in either direction; the
failed share of operations must also be identical between the sets.
The sets run one after the other, each over every workload, so that
they lie apart in time.  The report is also written as JSON
(``--out``).  Exit code 0 when everything passes, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    """One benchmark run; its parsed JSON line plus its wall time."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{proc.returncode}:\n{proc.stdout}\n{proc.stderr}")
    doc = json.loads(lines[-1])
    doc["wall_s"] = wall
    return doc


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(first: float, second: float, better: str) -> float:
    """Share by which ``second`` is worse than ``first`` (<0: better)."""
    change = (second - first) / first
    return -change if better == "higher" else change


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+", default=names,
                        help="default: the workloads BENCHMARK.json lists")
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=2)
    parser.add_argument("--out", type=pathlib.Path,
                        default=HERE / "out" / "steadiness.json")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 (quartiles need two)")

    runs_of = {workload: [] for workload in args.workloads}
    for s in range(args.sets):
        for workload in args.workloads:
            runs = []
            for r in range(args.runs):
                seed = 100 + 1000 * s + r
                doc = run_once(workload, seed, bench["run_seconds"])
                print(f"{workload} set {s + 1} seed {seed}: "
                      f"{doc['wall_s']:.1f}s correct={doc['correct']} "
                      f"failed {doc['failed']}/{doc['attempted']}",
                      flush=True)
                runs.append(doc)
            runs_of[workload].append(runs)

    report, ok = {}, True
    for workload, sets in runs_of.items():
        entry = {"runs": sets, "metrics": {}}
        shares = [sum(d["failed"] for d in runs)
                  / sum(d["attempted"] for d in runs) for runs in sets]
        entry["failed_share"] = shares
        if len(set(shares)) > 1 or not all(d["correct"] for runs in sets
                                           for d in runs):
            ok = False
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [[d["metrics"][name]["value"] for d in runs]
                      for runs in sets]
            medians = [statistics.median(v) for v in values]
            spreads = [spread(v) for v in values]
            row = {"medians": medians, "spreads": spreads, "bound": bound}
            passed = name == "setup_s" or max(spreads) <= bound
            if len(sets) == 2:
                row["worse_by"] = worse_by(medians[0], medians[1],
                                           metric["better"])
                passed = passed and abs(row["worse_by"]) <= bound
            row["pass"] = passed
            ok = ok and passed
            entry["metrics"][name] = row
        report[workload] = entry

    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=1))
    print(f"\n{'workload':<15} {'metric':<22} {'median(s)':<24} "
          f"{'spread(s)':<16} {'worse':>7} {'bound':>6}  verdict")
    for workload, entry in report.items():
        for name, row in entry["metrics"].items():
            medians = " / ".join(f"{m:.5g}" for m in row["medians"])
            spreads = " / ".join(f"{s:.1%}" for s in row["spreads"])
            worse = (f"{row['worse_by']:+.1%}" if "worse_by" in row
                     else "")
            print(f"{workload:<15} {name:<22} {medians:<24} {spreads:<16} "
                  f"{worse:>7} {row['bound']:>6.2f}  "
                  f"{'ok' if row['pass'] else 'FAIL'}")
        print(f"{workload:<15} failed share {entry['failed_share']}")
    print(f"\nreport written to {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
