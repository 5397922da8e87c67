"""The benchmark's four workloads.

Each workload generates its inputs from the seed, builds what it runs
(timed as ``setup_s``), runs a timed window of whole rounds of the
same operations, then checks the program's outputs with
:mod:`checks`.  The program is driven only through the public API of
``repro.core``, ``repro.grid``, ``repro.particles``,
``repro.parallel`` (via the ``numpy-mp`` backend), ``repro.resilience``
(via the engine's supervised runs) and ``repro.service``.

* ``landau-2d`` -- one 2D Landau damping run on the in-process numpy
  backend; the particle loops do almost all the work.
* ``hybrid-2d`` -- the same problem on ``numpy-mp`` with two worker
  processes (the paper's share-nothing particle loops, Sec. V).
* ``campaign`` -- a closed loop of two clients keeping two small
  supervised jobs in flight on ``JobEngine(max_workers=2)``.
* ``preempt-resume`` -- one engine worker runs large low-priority
  jobs; every 20th step an urgent job arrives, parks the running job
  and is waited for, so every arrival writes and later restores a
  checkpoint.

See README.md for the inputs, the metric definitions and the checks.
"""

from __future__ import annotations

import math
import os
import pathlib
import shutil
import statistics
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

import checks
from tracing import Tracer, layer_metrics

OUT_DIR = pathlib.Path(__file__).resolve().parent / "out"

WORKLOADS = ("landau-2d", "hybrid-2d", "campaign", "preempt-resume")

#: end-to-end metrics (untraced runs), name -> unit
E2E_UNITS = {
    "particle_steps_per_s": "1/s",
    "step_ms_p50": "ms",
    "jobs_per_s": "1/s",
    "job_latency_ms_p50": "ms",
    "job_latency_ms_p90": "ms",
    "urgent_latency_ms_p50": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: per-layer metrics (traced runs), name -> unit
LAYER_UNITS = {
    "core.step_ms": "ms",
    "core.update_v_ns_per_particle": "ns/particle",
    "core.update_x_ns_per_particle": "ns/particle",
    "core.accumulate_ns_per_particle": "ns/particle",
    "particles.sort_ms": "ms",
    "grid.poisson_ms": "ms",
    "grid.field_load_ms": "ms",
    "parallel.run_shards_ms": "ms",
    "parallel.run_shards_per_step": "count",
    "resilience.checkpoint_ms": "ms",
    "resilience.checkpoint_mb": "MB",
    "resilience.checkpoints_per_job": "count",
    "resilience.park_ms": "ms",
    "resilience.restore_ms": "ms",
    "resilience.retries": "count",
    "service.build_ms": "ms",
    "service.journal_append_ms": "ms",
    "service.journal_appends_per_job": "count",
    "service.job_overhead_ms": "ms",
    "service.preemptions": "count",
    "service.resumes": "count",
}

#: initial conditions the job workloads draw from
JOB_CASES = ("landau", "two-stream", "bump-on-tail")


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; :data:`FULL` is the benchmark, :data:`TINY` the
    self-test's scale (same code paths, seconds instead of minutes)."""

    # landau-2d / hybrid-2d
    grid: tuple = (128, 128)
    particles: int = 200_000
    dt: float = 0.1
    #: t = 12: five envelope peaks of the damped mode
    min_steps: int = 120
    #: one sort period (OptimizationConfig.sort_period): every round
    #: holds exactly one sorting step, so round times are unimodal
    round_steps: int = 20
    warmup_steps: int = 2
    #: the serial comparison run crosses the sort at iteration 20
    serial_check_steps: int = 25
    workers: int = 2
    #: set-ups per run; setup_s is their median
    setups: int = 3
    #: set-ups per run on the job workloads; the first of a process
    #: runs cold, about twice as long as the rest
    engine_setups: int = 5
    # campaign
    campaign_grid: tuple = (32, 32)
    campaign_particles: int = 4096
    campaign_steps: int = 100
    #: job_latency_ms_p90 needs ten jobs beyond it
    campaign_min_jobs: int = 100
    campaign_samples: int = 3
    # preempt-resume
    low_grid: tuple = (64, 64)
    low_particles: int = 50_000
    low_steps: int = 80
    urgent_grid: tuple = (32, 32)
    urgent_particles: int = 4096
    urgent_steps: int = 50
    urgent_every: int = 20


FULL = Sizes()
TINY = replace(
    FULL, particles=50_000, setups=2, engine_setups=2,
    campaign_grid=(16, 16), campaign_particles=1024, campaign_steps=30,
    campaign_min_jobs=6, campaign_samples=2,
    low_grid=(32, 32), low_particles=8000, low_steps=60,
    urgent_grid=(16, 16), urgent_particles=1024, urgent_steps=10,
)


@dataclass
class Outcome:
    """What one run measured and checked."""

    metrics: dict
    checks: list
    steps_attempted: int
    steps_failed: int
    jobs_attempted: int
    jobs_failed: int
    #: the operations the JSON line counts: steps or jobs
    attempted: int
    failed: int
    layers: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return all(c.ok for c in self.checks)


# ----------------------------------------------------------------------
# shared helpers
# ----------------------------------------------------------------------
def _quantile(values, q: int) -> float:
    """The ``q``-th decile (``statistics.quantiles``, exclusive)."""
    return statistics.quantiles(values, n=10)[q - 1]


def _descendants(pid: int) -> list[int]:
    found = []
    for task in pathlib.Path(f"/proc/{pid}/task").glob("*"):
        try:
            kids = (task / "children").read_text().split()
        except OSError:
            continue
        for kid in map(int, kids):
            found.append(kid)
            found.extend(_descendants(kid))
    return found


def _peak_rss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its live descendants
    (the ``numpy-mp`` workers), in MB."""
    pids = [os.getpid()] + _descendants(os.getpid())
    return sum(_peak_rss_kb(p) for p in pids) * 1024 / 1e6


def _landau_setup(seed: int, sizes: Sizes):
    from repro.grid import GridSpec
    from repro.particles import LandauDamping

    rng = np.random.default_rng(seed)
    # the seed varies the perturbation, not the cost: particle count,
    # grid and step count stay fixed
    alpha = float(rng.uniform(0.04, 0.06))
    ncx, ncy = sizes.grid
    grid = GridSpec(ncx, ncy, 0.0, 4 * math.pi, 0.0, 4 * math.pi)
    return grid, LandauDamping(alpha=alpha, vth=1.0, mode=1), alpha


def _state(sim) -> dict:
    st = sim.stepper
    p = st.particles
    return {
        "icell": np.array(p.icell), "dx": np.array(p.dx),
        "dy": np.array(p.dy), "vx": np.array(p.vx), "vy": np.array(p.vy),
        "rho_grid": np.array(st.rho_grid), "ex_grid": np.array(st.ex_grid),
        "ey_grid": np.array(st.ey_grid),
    }


# ----------------------------------------------------------------------
# landau-2d and hybrid-2d
# ----------------------------------------------------------------------
def run_stepping(name: str, seed: int, seconds: float, sizes: Sizes,
                 tracer: Tracer | None) -> Outcome:
    from repro.core import OptimizationConfig, Simulation

    grid, case, alpha = _landau_setup(seed, sizes)
    serial = OptimizationConfig(backend="numpy")
    config = serial if name == "landau-2d" else OptimizationConfig(
        backend="numpy-mp", workers=sizes.workers)

    def build(cfg):
        return Simulation(grid, case, sizes.particles, cfg, dt=sizes.dt,
                          seed=None, quiet=True)

    setup_s, sim = [], None
    for _ in range(sizes.setups):
        if sim is not None:
            sim.close()
        t0 = time.perf_counter()
        sim = build(config)
        setup_s.append(time.perf_counter() - t0)
    snapshot = None
    try:
        def advance():
            nonlocal snapshot
            sim.step()
            if sim.stepper.iteration == sizes.serial_check_steps:
                snapshot = _state(sim)

        for _ in range(sizes.warmup_steps):
            advance()
        step_s, round_s = [], []
        t_start = time.perf_counter()
        if tracer is not None:
            tracer.window = (t_start, float("inf"))
        while True:
            r0 = time.perf_counter()
            for _ in range(sizes.round_steps):
                t0 = time.perf_counter()
                advance()
                step_s.append(time.perf_counter() - t0)
            round_s.append(time.perf_counter() - r0)
            elapsed = time.perf_counter() - t_start
            if elapsed >= seconds and sim.stepper.iteration >= sizes.min_steps:
                break
        window = time.perf_counter() - t_start
        if tracer is not None:
            tracer.window = (t_start, t_start + window)
        rss = peak_rss_mb()
        backend = sim.stepper.backend.name

        hist = sim.history
        found = [
            checks.check_landau_rate(hist.mode_amplitude, hist.times,
                                     k=2 * math.pi / grid.lx, vth=case.vth),
            checks.check_charge(
                float(np.sum(sim.stepper.rho_grid)) * grid.cell_area,
                sim.particles.n, grid.lx, grid.ly),
        ]
        if name == "hybrid-2d":
            k = sizes.serial_check_steps
            with build(serial) as ref:
                ref.run(k)
                found.append(checks.check_bitwise(
                    "serial-history", checks.history_arrays(ref.history),
                    checks.history_arrays(hist), upto=k + 1,
                    what=f"steps 0..{k} vs serial numpy"))
                found.append(checks.check_bitwise(
                    "serial-state", _state(ref), snapshot,
                    what=f"particles and fields at step {k} vs serial numpy"))
    finally:
        sim.close()

    p50 = statistics.median(step_s)
    steps = len(step_s)
    metrics = {
        "particle_steps_per_s": sizes.particles * steps / window,
        "step_ms_p50": p50 * 1e3,
        # a stepping run serves whole rounds of steps: the round is its
        # job, and no step jumps the queue, so the next step is urgent.
        # Every round is the same work, so round times have no tail of
        # their own: their 90th percentile measured only the machine's
        # bursts (spreads up to 28 % between runs), and a run holds
        # far fewer than the 100 rounds a p90 needs to have ten beyond
        # it; p90 reads the median round here
        "jobs_per_s": len(round_s) / window,
        "job_latency_ms_p50": statistics.median(round_s) * 1e3,
        "job_latency_ms_p90": statistics.median(round_s) * 1e3,
        "urgent_latency_ms_p50": p50 * 1e3,
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": rss,
    }
    out = Outcome(metrics, found, steps, 0, len(round_s), 0, steps, 0,
                  notes=[f"backend {backend}, alpha {alpha:.5f}, "
                         f"{sizes.particles} particles on "
                         f"{sizes.grid[0]}x{sizes.grid[1]}, {steps} timed "
                         f"steps to t={hist.times[-1]:.1f}"])
    if tracer is not None:
        out.layers = layer_metrics(tracer, [], None)
    return out


# ----------------------------------------------------------------------
# campaign and preempt-resume
# ----------------------------------------------------------------------
def _job_stream(rng, grid, particles, steps, priority=0):
    """Jobs in rounds of three, one per case in a seeded order, each
    with its own seeded random start (so every round has the same mix
    of work)."""
    from repro.service import PICJob

    while True:
        for case in rng.permutation(JOB_CASES):
            yield PICJob(case=str(case), grid=grid, n_particles=particles,
                         steps=steps, dt=0.1, seed=int(rng.integers(2**31)),
                         priority=priority)


class _Engines:
    """Starts engines with their data directory inside the checkout and
    removes each directory again after the engine is closed."""

    def __init__(self):
        self._open = []

    def start(self, workers: int, first_job):
        """Start an engine and build ``first_job``'s simulation as the
        engine builds it for a run; returns the engine and the seconds
        both took.

        That is what the workload's first job needs before its first
        step: a running engine (journal open, worker threads started)
        and the job's particles, sort and first field solve.  The
        simulation is closed again; the engine builds its own when it
        runs the job."""
        from repro.service import JobEngine

        data_dir = OUT_DIR / f"engine-{os.getpid()}-{len(self._open)}"
        shutil.rmtree(data_dir, ignore_errors=True)
        t0 = time.perf_counter()
        engine = JobEngine(max_workers=workers, data_dir=data_dir)
        self._open.append((engine, data_dir))
        sim = first_job.build_simulation()
        elapsed = time.perf_counter() - t0
        sim.close()
        return engine, elapsed

    def start_median(self, workers: int, repeats: int, first_job,
                     warmup_job):
        """``repeats`` set-ups (:meth:`start`), each engine closed again
        but the last; the last engine then serves ``warmup_job``,
        untimed.  Returns that engine with the median set-up time."""
        times = []
        engine = None
        for _ in range(repeats):
            if engine is not None:
                self.close(engine)
            engine, elapsed = self.start(workers, first_job)
            times.append(elapsed)
        result = engine.result(engine.submit(warmup_job))
        if not result.ok:
            raise RuntimeError(f"warm-up job failed: {result.error}")
        return engine, statistics.median(times)

    def close(self, engine=None) -> None:
        for entry in list(self._open):
            if engine is None or entry[0] is engine:
                entry[0].close()
                shutil.rmtree(entry[1], ignore_errors=True)
                self._open.remove(entry)


def _follow(engine, jid, step_s: list, arrive=None):
    """Read a job's event stream until the job settles; returns its
    result.

    Appends to ``step_s`` the wall seconds between consecutive step
    events as this client receives them.  ``arrive(event)`` may
    interrupt the job and returns ``True`` when it did; the intervals
    that span the interruption (the steps the job ran before it parked,
    and its restore) are then skipped, as is the first interval of
    each segment."""
    last = None  # (segment, receive time) of the previous event
    parked = None  # the segment an arrival ended
    for event in engine.stream(jid):
        now = time.perf_counter()
        segment = event["segment"]
        if last is not None and segment == last[0] and segment != parked:
            step_s.append(now - last[1])
        last = (segment, now)
        if arrive is not None and arrive(event):
            parked = segment
    return engine.result(jid)


def _job_checks(records) -> list:
    bad = [r for r in records
           if not r["result"].ok or r["result"].steps_done != r["job"].steps]
    detail = (f"{len(records) - len(bad)} of {len(records)} jobs succeeded "
              f"with all steps")
    if bad:
        detail += f"; first failure {bad[0]['jid']}: {bad[0]['result'].error}"
    return [checks.Check("jobs-complete", not bad, detail)]


def _direct_history(job):
    with job.build_simulation() as sim:
        sim.run(job.steps)
        return checks.history_arrays(sim.history)


def _job_counts(records):
    steps = sum(r["job"].steps for r in records)
    done = sum(min(r["result"].steps_done, r["job"].steps) for r in records)
    failed = sum(1 for r in records if not r["result"].ok)
    return steps, steps - done, len(records), failed


def _particle_steps(records) -> float:
    return float(sum(r["job"].n_particles * r["result"].steps_done
                     for r in records))


def _trace_jobs(records):
    return [{"job_id": r["jid"], "latency_s": r["latency_s"],
             "recoveries": int(r["result"].supervisor.get("recoveries", 0))}
            for r in records]


def run_campaign(seed: int, seconds: float, sizes: Sizes,
                 tracer: Tracer | None) -> Outcome:
    rng = np.random.default_rng(seed)
    jobs = _job_stream(rng, sizes.campaign_grid, sizes.campaign_particles,
                       sizes.campaign_steps)
    engines = _Engines()
    try:
        first = next(jobs)
        engine, setup = engines.start_median(2, sizes.engine_setups, first,
                                             first)
        records, step_s, lock = [], [], threading.Lock()
        submitted = 0
        t_start = time.perf_counter()
        if tracer is not None:
            tracer.window = (t_start, float("inf"))

        def client():
            # closed loop: the next job goes in only after this
            # client's previous job settled
            nonlocal submitted
            while True:
                with lock:
                    if (time.perf_counter() - t_start >= seconds
                            and submitted >= sizes.campaign_min_jobs
                            and submitted % len(JOB_CASES) == 0):
                        return
                    job = next(jobs)
                    index = submitted
                    submitted += 1
                t0 = time.perf_counter()
                jid = engine.submit(job)
                steps = []
                result = _follow(engine, jid, steps)
                latency = time.perf_counter() - t0
                with lock:
                    records.append({"job": job, "jid": jid, "index": index,
                                    "latency_s": latency, "result": result})
                    step_s.extend(steps)

        with ThreadPoolExecutor(max_workers=2) as pool:
            for future in [pool.submit(client) for _ in range(2)]:
                future.result()
        window = time.perf_counter() - t_start
        if tracer is not None:
            tracer.window = (t_start, t_start + window)
        rss = peak_rss_mb()
    finally:
        engines.close()

    records.sort(key=lambda r: r["index"])
    found = _job_checks(records)
    check_rng = np.random.default_rng([seed, 1])
    picks = check_rng.choice(len(records), size=min(sizes.campaign_samples,
                                                    len(records)),
                             replace=False)
    for i in sorted(int(i) for i in picks):
        rec = records[i]
        found.append(checks.check_bitwise(
            f"direct-run[{rec['jid']}]", _direct_history(rec["job"]),
            checks.history_arrays(rec["result"].history),
            what=f"{rec['job'].describe()} vs build_simulation().run()"))

    latencies = [r["latency_s"] for r in records]
    p50 = statistics.median(latencies)
    metrics = {
        "particle_steps_per_s": _particle_steps(records) / window,
        "step_ms_p50": statistics.median(step_s) * 1e3,
        "jobs_per_s": len(records) / window,
        "job_latency_ms_p50": p50 * 1e3,
        "job_latency_ms_p90": _quantile(latencies, 9) * 1e3,
        # one priority class: every job is served at the top priority
        "urgent_latency_ms_p50": p50 * 1e3,
        "setup_s": setup,
        "peak_rss_mb": rss,
    }
    steps, steps_failed, n_jobs, jobs_failed = _job_counts(records)
    out = Outcome(metrics, found, steps, steps_failed, n_jobs, jobs_failed,
                  n_jobs, jobs_failed,
                  notes=[f"{n_jobs} jobs of {sizes.campaign_particles} "
                         f"particles x {sizes.campaign_steps} steps, "
                         f"2 clients, 2 engine workers"])
    if tracer is not None:
        out.layers = layer_metrics(tracer, _trace_jobs(records), None)
    return out


def _run_preempted(engine, low_job, urgent, every, hurried,
                   step_s: list) -> dict:
    """Run one low-priority job; each time its event stream passes an
    ``every``-th step, submit the next urgent job and wait for it."""
    arrivals = set()

    def arrive(event) -> bool:
        step = event["step"]
        if step % every or step >= low_job.steps or step in arrivals:
            return False
        # the stream is at-least-once: one arrival per step
        arrivals.add(step)
        job = next(urgent)
        u0 = time.perf_counter()
        ujid = engine.submit(job)
        result = engine.result(ujid)
        hurried.append({"job": job, "jid": ujid, "result": result,
                        "latency_s": time.perf_counter() - u0})
        return True

    t0 = time.perf_counter()
    jid = engine.submit(low_job)
    result = _follow(engine, jid, step_s, arrive)
    return {"job": low_job, "jid": jid, "result": result,
            "latency_s": time.perf_counter() - t0,
            "arrivals": len(arrivals)}


def run_preempt_resume(seed: int, seconds: float, sizes: Sizes,
                       tracer: Tracer | None) -> Outcome:
    rng = np.random.default_rng(seed)
    # every round runs the same three low-priority jobs, one per case
    low_stream = _job_stream(rng, sizes.low_grid, sizes.low_particles,
                             sizes.low_steps)
    low_jobs = [next(low_stream) for _ in JOB_CASES]
    urgent = _job_stream(rng, sizes.urgent_grid, sizes.urgent_particles,
                         sizes.urgent_steps, priority=10)
    every = sizes.urgent_every
    expected = (sizes.low_steps - 1) // every
    engines = _Engines()
    try:
        engine, setup = engines.start_median(1, sizes.engine_setups,
                                             low_jobs[0], next(urgent))
        low, hurried, step_s = [], [], []
        stats0 = (engine.stats.preemptions, engine.stats.resumes)
        t_start = time.perf_counter()
        if tracer is not None:
            tracer.window = (t_start, float("inf"))
        while not low or time.perf_counter() - t_start < seconds:
            for low_job in low_jobs:
                low.append(_run_preempted(engine, low_job, urgent, every,
                                          hurried, step_s))
        window = time.perf_counter() - t_start
        if tracer is not None:
            tracer.window = (t_start, t_start + window)
        stats = (engine.stats.preemptions - stats0[0],
                 engine.stats.resumes - stats0[1])
        rss = peak_rss_mb()
    finally:
        engines.close()

    records = low + hurried
    found = _job_checks(records)
    wrong = [r["jid"] for r in low
             if not r["arrivals"] == r["result"].preemptions == expected]
    found.append(checks.Check(
        "preemptions", not wrong and stats == (len(hurried),) * 2,
        f"{len(low)} low-priority jobs, {len(hurried)} urgent arrivals, "
        f"engine counted {stats[0]} preemptions and {stats[1]} resumes "
        f"(expected {expected} per job)"
        + (f"; mismatched: {wrong}" if wrong else "")))
    direct = {job: _direct_history(job) for job in low_jobs}
    for rec in low:
        found.append(checks.check_bitwise(
            f"uninterrupted[{rec['jid']}]", direct[rec["job"]],
            checks.history_arrays(rec["result"].history),
            what=f"{rec['result'].preemptions} preemptions vs one "
                 f"uninterrupted build_simulation().run()"))

    latencies = [r["latency_s"] for r in records]
    metrics = {
        "particle_steps_per_s": _particle_steps(records) / window,
        "step_ms_p50": statistics.median(step_s) * 1e3,
        "jobs_per_s": len(records) / window,
        "job_latency_ms_p50": statistics.median(latencies) * 1e3,
        "job_latency_ms_p90": _quantile(latencies, 9) * 1e3,
        "urgent_latency_ms_p50":
            statistics.median(r["latency_s"] for r in hurried) * 1e3,
        "setup_s": setup,
        "peak_rss_mb": rss,
    }
    steps, steps_failed, n_jobs, jobs_failed = _job_counts(records)
    out = Outcome(metrics, found, steps, steps_failed, n_jobs, jobs_failed,
                  n_jobs, jobs_failed,
                  notes=[f"{len(low)} low-priority jobs ("
                         + "; ".join(j.describe() for j in low_jobs)
                         + f"), {len(hurried)} urgent jobs, 1 engine worker"])
    if tracer is not None:
        out.layers = layer_metrics(tracer, _trace_jobs(records), stats)
    return out


def run(name: str, seed: int, seconds: float, sizes: Sizes = FULL,
        tracer: Tracer | None = None) -> Outcome:
    """Run one workload; ``tracer`` (already entered) makes it traced."""
    if name in ("landau-2d", "hybrid-2d"):
        return run_stepping(name, seed, seconds, sizes, tracer)
    if name == "campaign":
        return run_campaign(seed, seconds, sizes, tracer)
    if name == "preempt-resume":
        return run_preempt_resume(seed, seconds, sizes, tracer)
    raise ValueError(f"unknown workload {name!r}; one of {WORKLOADS}")
