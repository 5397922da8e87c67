#!/usr/bin/env python3
"""Run one benchmark workload and print its result.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload landau-2d --seed 1 --seconds 25 --trace 0

The program under test is imported from ``src/`` of the checkout this
file sits in.  Human-readable lines (checks, counts, notes) come
first; the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  A traced run also writes its spans to
``perfbench/out/trace-<workload>-seed<seed>.json``.

Exit codes: 0 when every output check passed, 1 when a check failed
(the JSON line still printed), 2 when the program could not be run.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import traceback

HERE = pathlib.Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _import_program():
    """Put the checkout's ``src/`` first on the path and import it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise ImportError(f"no program sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if pathlib.Path(repro.__file__).resolve().parent != SRC / "repro":
        raise ImportError(f"imported repro from {repro.__file__}, not {SRC}")


def _stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker and wait for it.

    The ``numpy-mp`` backend's shared memory starts the tracker as a
    child process that would otherwise outlive the workload until the
    interpreter exits."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sizes", choices=("full", "tiny"), default="full",
                        help="tiny: the self-test's scale")
    args = parser.parse_args(argv)

    try:
        _import_program()
        import workloads
        from tracing import Tracer
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    sizes = workloads.FULL if args.sizes == "full" else workloads.TINY

    try:
        if args.trace:
            with Tracer(args.workload) as tracer:
                out = workloads.run(args.workload, args.seed, args.seconds,
                                    sizes, tracer)
        else:
            out = workloads.run(args.workload, args.seed, args.seconds, sizes)
    except Exception:  # report, print no result line
        traceback.print_exc()
        return 2
    finally:
        _stop_resource_tracker()

    for line in out.notes:
        print(f"# {line}")
    for check in out.checks:
        print(f"# {check.line()}")
    print(f"# steps attempted {out.steps_attempted} failed "
          f"{out.steps_failed}; jobs attempted {out.jobs_attempted} "
          f"failed {out.jobs_failed}")
    for name, value in out.metrics.items():
        print(f"# {name} = {value:.6g} {workloads.E2E_UNITS[name]}")
    units = workloads.LAYER_UNITS if args.trace else workloads.E2E_UNITS
    values = out.layers if args.trace else out.metrics
    if args.trace:
        workloads.OUT_DIR.mkdir(exist_ok=True)
        path = (workloads.OUT_DIR
                / f"trace-{args.workload}-seed{args.seed}.json")
        path.write_text(json.dumps(tracer.document({
            "seed": args.seed, "end_to_end": out.metrics,
            "per_layer": out.layers}), indent=1))
        for name, value in out.layers.items():
            print(f"# {name} = {value:.6g} {units[name]}")
        print(f"# spans written to {path.relative_to(HERE.parent)}")
    print(json.dumps({
        "correct": out.correct,
        "attempted": int(out.attempted),
        "failed": int(out.failed),
        "metrics": {name: {"value": float(values[name]), "unit": units[name]}
                    for name in units},
    }))
    return 0 if out.correct else 1


if __name__ == "__main__":
    sys.exit(main())
