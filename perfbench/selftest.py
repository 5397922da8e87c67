#!/usr/bin/env python3
"""Fast self-test of the benchmark (about half a minute).

Usage, from the root of a checkout::

    python3 perfbench/selftest.py

It checks that ``BENCHMARK.json`` names exactly the metrics the runner
prints, that the output checks reject wrong outputs, that the tracer
restores every wrapped attribute, and it runs every workload at the
tiny sizes through ``run.py`` (untraced and traced) in fresh
interpreters, as the benchmark is run.  Finally it confirms that the
runner refuses to produce a result in a directory holding only the
benchmark.  Exit code 0 when everything holds.
"""

from __future__ import annotations

import json
import math
import pathlib
import re
import shutil
import subprocess
import sys

import numpy as np

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from tracing import TRACED_CALLS, Tracer, _resolve  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

failures: list[str] = []


def expect(condition: bool, what: str) -> None:
    print(f"{'ok  ' if condition else 'FAIL'} {what}", flush=True)
    if not condition:
        failures.append(what)


def test_benchmark_json() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect(set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"},
           "BENCHMARK.json has exactly the contract's keys")
    expect(bench["command"] == ["python3", "perfbench/run.py"]
           and bench["paths"] == ["perfbench"], "command and paths")
    expect(isinstance(bench["run_seconds"], int)
           and 1 <= bench["run_seconds"] <= 60, "run_seconds in 1..60")
    listed = [w["name"] for w in bench["workloads"]]
    expect(2 <= len(listed) <= 8 and set(listed) <= set(workloads.WORKLOADS),
           "listed workloads are ones the runner knows")
    covered = set().union(*(LAYERS_USED.get(w, ()) for w in listed))
    missing = set(workloads.LAYER_UNITS) - covered - {"resilience.retries"}
    expect(not missing, "the listed workloads call every timed layer"
           + (f"; not: {sorted(missing)}" if missing else ""))
    expect({m["name"]: m["unit"] for m in bench["end_to_end"]}
           == workloads.E2E_UNITS, "end-to-end names and units match")
    expect({m["name"]: m["unit"] for m in bench["per_layer"]}
           == workloads.LAYER_UNITS, "per-layer names and units match")
    metrics = bench["end_to_end"] + bench["per_layer"]
    names = [m["name"] for m in metrics + bench["workloads"]]
    expect(all(NAME.match(n) for n in names) and len(set(names)) == len(names),
           "names are valid and unique")
    expect(all(UNIT.match(m["unit"]) and m["better"] in ("higher", "lower")
               for m in metrics), "units and directions are valid")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    expect(all(0 < b <= 0.25 for b in bounds.values())
           and bounds["setup_s"] == max(bounds.values()),
           "bounds within 0.25, setup_s has the largest")


def test_checks_reject_wrong_outputs() -> None:
    root = checks.landau_root(0.5, 1.0)
    expect(abs(root.real - 1.4157) < 1e-3 and abs(root.imag + 0.1534) < 1e-3,
           f"dispersion root {root:.4f} is 1.4157-0.1534j")
    t = np.arange(0, 15, 0.1)
    damped = np.abs(np.exp(root.imag * t) * np.cos(root.real * t + 0.3))
    expect(checks.check_landau_rate(damped, t, 0.5, 1.0).ok,
           "landau-rate accepts the theoretical envelope")
    slower = np.abs(np.exp(-0.10 * t) * np.cos(root.real * t + 0.3))
    expect(not checks.check_landau_rate(slower, t, 0.5, 1.0).ok,
           "landau-rate rejects a rate of -0.10")
    lx = ly = 4 * math.pi
    expect(checks.check_charge(-lx * ly, 10, lx, ly).ok
           and not checks.check_charge(-lx * ly * (1 + 1e-8), 10, lx, ly).ok,
           "charge accepts the exact total and rejects a 1e-8 error")
    a = {"x": np.linspace(0.0, 1.0, 50)}
    b = {"x": a["x"].copy()}
    b["x"][17] = np.nextafter(b["x"][17], 2.0)
    diff = checks.first_difference(a, b)
    expect(diff == ("x", "first at index 17")
           and checks.first_difference(a, {"x": a["x"].copy()}) is None,
           "bitwise compare finds a one-ULP change at its index")
    expect(checks.first_difference({"x": np.zeros(3)},
                                   {"x": -np.zeros(3)}) is not None,
           "bitwise compare tells -0.0 from 0.0")


def test_tracer_restores() -> None:
    before = [(target, attr, _resolve(target).__dict__.get(attr))
              for target, attr, _ in TRACED_CALLS]
    with Tracer("selftest"):
        wrapped = all(_resolve(target).__dict__.get(attr) is not orig
                      for target, attr, orig in before)
    after = [_resolve(target).__dict__.get(attr)
             for target, attr, _ in TRACED_CALLS]
    expect(wrapped and after == [orig for _, _, orig in before],
           "tracer wraps every call and restores each attribute")


def run(workload: str, trace: int, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace),
         "--sizes", "tiny"], cwd=cwd, capture_output=True, text=True,
        timeout=300)
    return proc


#: per-layer metrics that must be non-zero on a workload; the two
#: workloads BENCHMARK.json lists together cover every timed layer
_STEPPING = ("core.step_ms", "core.update_v_ns_per_particle",
             "core.update_x_ns_per_particle",
             "core.accumulate_ns_per_particle", "particles.sort_ms",
             "grid.poisson_ms", "grid.field_load_ms")
_SERVICE = ("resilience.checkpoint_ms", "resilience.checkpoint_mb",
            "resilience.checkpoints_per_job", "service.build_ms",
            "service.journal_append_ms", "service.journal_appends_per_job",
            "service.job_overhead_ms")
LAYERS_USED = {
    "landau-2d": _STEPPING,
    "hybrid-2d": _STEPPING + ("parallel.run_shards_ms",
                              "parallel.run_shards_per_step"),
    "campaign": _STEPPING + _SERVICE,
    "preempt-resume": _STEPPING + _SERVICE + (
        "resilience.park_ms", "resilience.restore_ms",
        "service.preemptions", "service.resumes"),
}


def test_workloads() -> None:
    for workload in workloads.WORKLOADS:
        for trace, units in ((0, workloads.E2E_UNITS),
                             (1, workloads.LAYER_UNITS)):
            proc = run(workload, trace)
            label = f"{workload} --trace {trace}"
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                expect(False, f"{label} exited {proc.returncode}:\n"
                              f"{proc.stdout}{proc.stderr}")
                continue
            doc = json.loads(lines[-1])
            values = {k: v["value"] for k, v in doc["metrics"].items()}
            expect(set(doc) == {"correct", "attempted", "failed", "metrics"}
                   and doc["correct"] and doc["attempted"] >= 1
                   and doc["failed"] == 0, f"{label}: correct, none failed")
            expect({k: v["unit"] for k, v in doc["metrics"].items()} == units
                   and all(math.isfinite(v) and v >= 0
                           for v in values.values()),
                   f"{label}: every metric present with its unit")
            if trace:
                unused = [k for k in LAYERS_USED[workload] if not values[k] > 0]
                expect(not unused, f"{label}: layers on its path are "
                                   f"measured" + (f"; 0: {unused}"
                                                  if unused else ""))
            else:
                expect(all(v > 0 for v in values.values()),
                       f"{label}: no end-to-end metric reads 0")


def test_refuses_without_program() -> None:
    bare = workloads.OUT_DIR / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.iterdir():
        if path.is_file():
            shutil.copy(path, bare / "perfbench")
    try:
        proc = run("landau-2d", 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and '"metrics"' not in proc.stdout,
           f"without src/ the runner exits {proc.returncode}, no result")


def main() -> int:
    test_benchmark_json()
    test_checks_reject_wrong_outputs()
    test_tracer_restores()
    test_refuses_without_program()
    test_workloads()
    print(f"\n{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
