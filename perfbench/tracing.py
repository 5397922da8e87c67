"""Span tracing of the program's layers, from outside the program.

:class:`Tracer` replaces a fixed set of public methods (and the one
module-level function the job engine calls to restore checkpoints) by
thin wrappers that record a span per call: name, start, end, parent
span, thread and job id.  The wrappers are installed at class level
for the traced run only and removed again on exit, so an untraced run
executes the program unmodified.  Spans stay in memory;
:meth:`Tracer.document` turns them into a JSON-ready document with
per-layer self times, and :func:`layer_metrics` into the per-layer
metrics of ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import os
import pathlib
import statistics
import threading
import time

#: (import path, attribute, span name) of every wrapped call
TRACED_CALLS = (
    ("repro.core.stepper:PICStepper", "step", "core.step"),
    ("repro.core.simulation:Simulation", "step", "core.sim_step"),
    ("repro.grid.poisson:SpectralPoissonSolver", "solve", "grid.poisson"),
    ("repro.grid.fields:RedundantFields", "set_field_from_grid",
     "grid.field_load"),
    ("repro.parallel.executor:WorkerPool", "run_shards",
     "parallel.run_shards"),
    ("repro.resilience.supervisor:CheckpointRotation", "save",
     "resilience.checkpoint"),
    ("repro.resilience.supervisor:SupervisedRun", "run",
     "resilience.supervised_run"),
    ("repro.resilience.supervisor:SupervisedRun", "park", "resilience.park"),
    # the engine imports the loader by name: patch the engine's binding
    ("repro.service.engine", "load_checkpoint", "resilience.restore"),
    ("repro.service.job:PICJob", "build_simulation", "service.build"),
    ("repro.service.journal:JobJournal", "append", "service.journal_append"),
)

#: particle-loop phases whose hook-to-hook interval is reported per
#: particle, keyed by the phase that precedes them on the split path
LOOP_PHASES = (("update_v", "sort"), ("update_x", "update_v"),
               ("accumulate", "update_x"))


def _resolve(path: str):
    module_name, _, qual = path.partition(":")
    obj = __import__(module_name, fromlist=["_"])
    for part in filter(None, qual.split(".")):
        obj = getattr(obj, part)
    return obj


class Tracer:
    """Records spans around the calls in :data:`TRACED_CALLS`.

    Use as a context manager; :attr:`window` is set by the workload to
    the ``(start, end)`` of its timed window so that set-up, warm-up
    and the output checks run afterwards are left out of the metrics.
    """

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[dict] = []
        self.window = (0.0, float("inf"))
        self._local = threading.local()
        self._lock = threading.Lock()
        self._saved: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def __enter__(self) -> "Tracer":
        for target, attr, name in TRACED_CALLS:
            owner = _resolve(target)
            original = getattr(owner, attr)
            # a method inherited from a base class is shadowed on the
            # named class and the shadow deleted again on exit
            inherited = isinstance(owner, type) and attr not in vars(owner)
            self._saved.append((owner, attr, None if inherited else original))
            setattr(owner, attr, self._wrap(original, name))
        return self

    def __exit__(self, *exc_info) -> None:
        for owner, attr, original in reversed(self._saved):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._saved.clear()

    # ------------------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            span = {"name": name, "parent": parent,
                    "thread": threading.get_ident(),
                    "job": tracer.spans[parent]["job"] if parent is not None
                    else None}
            tracer._annotate(name, span, args, kwargs)
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append(span)
            stack.append(index)
            hook_owner = args[0] if name == "core.step" else None
            if hook_owner is not None:
                previous_hook = hook_owner.phase_hook
                hook_owner.phase_hook = tracer._phase_hook(span, previous_hook)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
                if hook_owner is not None:
                    hook_owner.phase_hook = previous_hook
            if name == "resilience.checkpoint":
                span["bytes"] = os.path.getsize(result)
            return result

        return wrapper

    @staticmethod
    def _annotate(name, span, args, kwargs) -> None:
        if name == "core.step":
            stepper = args[0]
            period = stepper.config.sort_period
            span["particles"] = int(stepper.particles.n)
            span["sorts"] = bool(period and stepper.iteration
                                 and stepper.iteration % period == 0)
        elif name == "resilience.supervised_run":
            span["job"] = pathlib.Path(args[0].rotation.directory).name
        elif name == "service.journal_append":
            span["job"] = kwargs.get("job_id", span["job"])

    @staticmethod
    def _phase_hook(span, previous):
        marks = span["marks"] = []

        def hook(phase, stepper):
            marks.append((phase, time.perf_counter()))
            if previous is not None:
                previous(phase, stepper)

        return hook

    # ------------------------------------------------------------------
    def windowed(self) -> list[dict]:
        """Finished spans that started inside the timed window."""
        lo, hi = self.window
        return [s for s in self.spans
                if "end" in s and lo <= s["start"] <= hi]

    def attribute_jobs(self) -> None:
        """Give root spans without a job the job of the next
        supervised segment on the same thread (the engine builds or
        restores a job's simulation just before supervising it)."""
        pending: dict[int, list[dict]] = {}
        for span in self.spans:
            if span["parent"] is not None:
                continue
            if span["job"] is None:
                pending.setdefault(span["thread"], []).append(span)
            elif span["name"] == "resilience.supervised_run":
                for waiting in pending.pop(span["thread"], []):
                    waiting["job"] = span["job"]
        for span in self.spans:
            if span["parent"] is not None and span["job"] is None:
                span["job"] = self.spans[span["parent"]]["job"]

    def self_times(self) -> dict[str, float]:
        """Seconds per span name not covered by that span's children,
        over the spans of the timed window."""
        inside = {id(span) for span in self.windowed()}
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None and id(span) in inside:
                covered[span["parent"]] += span["end"] - span["start"]
        out: dict[str, float] = {}
        for span, child in zip(self.spans, covered):
            if id(span) in inside:
                own = span["end"] - span["start"] - child
                out[span["name"]] = out.get(span["name"], 0.0) + own
        return out

    def document(self, extra: dict) -> dict:
        """JSON-ready dump: spans relative to the window start."""
        origin = self.window[0]
        spans = []
        for span in self.spans:
            if "end" not in span:
                continue
            rec = {k: v for k, v in span.items() if k != "marks"}
            rec["start"] -= origin
            rec["end"] -= origin
            if "marks" in span:
                rec["marks"] = [(p, t - origin) for p, t in span["marks"]]
            spans.append(rec)
        return {"workload": self.workload,
                "window_s": self.window[1] - self.window[0],
                "self_seconds": self.self_times(), **extra, "spans": spans}


def _median(values, scale=1.0) -> float:
    return statistics.median(values) * scale if values else 0.0


def layer_metrics(tracer: Tracer, jobs: list[dict], engine_stats) -> dict:
    """Per-layer metrics from the spans of the timed window.

    ``jobs`` holds one ``{"job_id", "latency_s", "recoveries"}`` entry
    per job settled in the window (empty for the stepping workloads);
    ``engine_stats`` the ``(preemptions, resumes)`` the engine counted
    in the window, or ``None``.  A layer a workload never calls reads
    0: its calls and time are both nil there.
    """
    tracer.attribute_jobs()
    by_name: dict[str, list[dict]] = {}
    for span in tracer.windowed():
        by_name.setdefault(span["name"], []).append(span)

    def durations(name):
        return [s["end"] - s["start"] for s in by_name.get(name, [])]

    steps = by_name.get("core.step", [])
    per_particle = {phase: [] for phase, _ in LOOP_PHASES}
    sort_s = []
    for span in steps:
        marks = dict(span.get("marks", ()))
        for phase, before in LOOP_PHASES:
            if phase in marks and before in marks:
                per_particle[phase].append(
                    (marks[phase] - marks[before]) / span["particles"])
        if span["sorts"] and "sort" in marks:
            sort_s.append(marks["sort"] - span["start"])

    n_jobs = len(jobs)
    step_s_by_job: dict[str, float] = {}
    for span in by_name.get("core.sim_step", []):
        step_s_by_job[span["job"]] = (step_s_by_job.get(span["job"], 0.0)
                                      + span["end"] - span["start"])
    overhead = [j["latency_s"] - step_s_by_job.get(j["job_id"], 0.0)
                for j in jobs]
    ckpt_bytes = [s["bytes"] for s in by_name.get("resilience.checkpoint", [])]
    preemptions, resumes = engine_stats if engine_stats else (0, 0)
    return {
        "core.step_ms": _median(durations("core.step"), 1e3),
        "core.update_v_ns_per_particle": _median(per_particle["update_v"], 1e9),
        "core.update_x_ns_per_particle": _median(per_particle["update_x"], 1e9),
        "core.accumulate_ns_per_particle":
            _median(per_particle["accumulate"], 1e9),
        "particles.sort_ms": _median(sort_s, 1e3),
        "grid.poisson_ms": _median(durations("grid.poisson"), 1e3),
        "grid.field_load_ms": _median(durations("grid.field_load"), 1e3),
        "parallel.run_shards_ms": _median(durations("parallel.run_shards"),
                                          1e3),
        "parallel.run_shards_per_step":
            len(by_name.get("parallel.run_shards", [])) / max(1, len(steps)),
        "resilience.checkpoint_ms":
            _median(durations("resilience.checkpoint"), 1e3),
        "resilience.checkpoint_mb": _median(ckpt_bytes, 1e-6),
        "resilience.checkpoints_per_job":
            len(ckpt_bytes) / n_jobs if n_jobs else 0.0,
        "resilience.park_ms": _median(durations("resilience.park"), 1e3),
        "resilience.restore_ms": _median(durations("resilience.restore"), 1e3),
        "resilience.retries": sum(j["recoveries"] for j in jobs),
        "service.build_ms": _median(durations("service.build"), 1e3),
        "service.journal_append_ms":
            _median(durations("service.journal_append"), 1e3),
        "service.journal_appends_per_job":
            len(by_name.get("service.journal_append", [])) / n_jobs
            if n_jobs else 0.0,
        "service.job_overhead_ms": _median(overhead, 1e3),
        "service.preemptions": preemptions,
        "service.resumes": resumes,
    }
