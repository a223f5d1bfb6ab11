"""The benchmark workloads.

Every workload does its set-up, then a timed phase whose cost is counted in
CPU seconds of the benchmark process plus its server child, and checks the
results it delivers. A traced run (``--trace 1``) repeats the same work
twice, untraced then traced, and compares the two runs' fingerprints.

* ``fig10-cold`` - the ``repro figures`` path on an empty cache:
  ``run_fig10_ipc`` then ``run_fig11_traffic`` through one engine, on the
  ``fig10`` sweep of ``BENCH_perf.json`` (12 benches x 3 models, 8000
  accesses). Bound by simulation; Fig. 11 is served from the engine memo.
* ``serve-mixed`` - a ``repro serve`` child with one worker and two
  closed-loop client threads sending a seeded mix of fresh simulations,
  repeats (memo hits), near-simultaneous duplicates (coalesced) and jobs
  simulated into the cache during set-up (disk hits).
"""

from __future__ import annotations

import json
import math
import os
import random
import selectors
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

from repro.config import SystemConfig
from repro.harness.client import RemoteEngine, ServiceClient
from repro.harness.engine import ExperimentEngine, SimJob
from repro.harness.experiments import run_fig10_ipc, run_fig11_traffic
from repro.sim.metrics import derived_metrics
from repro.workloads.suite import benchmark_names

from . import layers
from .measure import (
    fig10_gain_err_pp,
    fig11_traffic_err_pp,
    peak_rss_mb,
    percentile,
    proc_cpu_s,
    samples_needed,
    tree_cpu_s,
)

#: The models of Figures 10 and 11, in ``BENCH_perf.json`` order.
FIG10_MODELS = ("nosec", "baseline", "salus")
#: Trace length of the ``fig10`` sweep recorded in ``BENCH_perf.json``.
FIG10_ACCESSES = 8000
#: Seed at which ``fig10-cold`` must reproduce the recorded fingerprints.
REFERENCE_SEED = 7
REFERENCE_LABEL = "post"
#: Trace length of the ``serve-mixed`` disk pool, a Fig-10-shaped sweep
#: simulated during set-up. Long enough that the paper-error figures stay
#: well away from zero at every seed.
SHORT_SWEEP_ACCESSES = 1000
#: Both latency percentiles must be reportable, so a timed phase runs on
#: until it has this many samples.
MIN_RT_SAMPLES = samples_needed(90)


@dataclass
class Outcome:
    """What one timed phase measured and checked."""

    metrics: Dict[str, float]
    attempted: int
    failed: int
    #: Failed correctness checks, one line each.
    problems: List[str] = field(default_factory=list)
    #: Human-readable lines printed before the result.
    notes: List[str] = field(default_factory=list)
    #: Wall-clock twin of ``results_per_cpu_s``, printed for comparison
    #: only (never gated).
    results_per_wall_s: float = 0.0


def _percentiles(rt_s: List[float]) -> Dict[str, float]:
    ms = [value * 1000.0 for value in rt_s]
    return {"rt_ms_p50": percentile(ms, 50), "rt_ms_p90": percentile(ms, 90)}


def sim_guards(results: Iterable) -> Dict[str, float]:
    """Simulated guards (exact for a given set of results): the mean over
    ``results`` of ratios :func:`repro.sim.metrics.derived_metrics`
    computes, and the total number of page fills."""
    results = list(results)
    derived = [derived_metrics(result.metrics, result.stats) for result in results]

    def mean(key: str) -> float:
        return math.fsum(d[key] for d in derived) / len(derived) if derived else 0.0

    return {
        "sim.l2_hit_rate": mean("derived.l2_hit_rate"),
        "sim.mapping_hit_rate": mean("derived.mapping_hit_rate"),
        "sim.counter_cache_hit_rate.device": mean(
            "derived.counter_cache_hit_rate.device"),
        "sim.security_share.total": mean("derived.security_share.total"),
        "sim.fills": float(sum(result.fills for result in results)),
    }


@contextmanager
def job_times(samples: List[Tuple[SimJob, float, float]]):
    """Append ``(job, CPU seconds, wall seconds)`` of every
    ``SimJob.execute`` call to ``samples`` while the block runs (serial
    engine: one job at a time)."""
    raw = SimJob.__dict__["execute"]

    def execute(job, *args, **kwargs):
        cpu0, wall0 = time.process_time(), time.perf_counter()
        try:
            return raw(job, *args, **kwargs)
        finally:
            samples.append((job, time.process_time() - cpu0,
                            time.perf_counter() - wall0))

    SimJob.execute = execute
    try:
        yield samples
    finally:
        SimJob.execute = raw


def paper_errors(fig10, fig11) -> Dict[str, float]:
    return {
        "fig10_gain_err_pp": fig10_gain_err_pp(fig10.summary["geomean_improvement"]),
        "fig11_traffic_err_pp": fig11_traffic_err_pp(
            fig11.summary["mean_normalized_traffic"]
        ),
    }


def _figure_errors(config, accesses: int, seed: int, engine) -> Dict[str, float]:
    return paper_errors(
        run_fig10_ipc(config, n_accesses=accesses, seed=seed, engine=engine),
        run_fig11_traffic(config, n_accesses=accesses, seed=seed, engine=engine),
    )


def _traced_metrics(snapshot, untraced_cpu: float, traced_cpu: float,
                    results) -> Dict[str, float]:
    """Per-layer metrics shared by every workload's traced run."""
    out = layers.layer_metrics(snapshot, traced_cpu)
    out.update(sim_guards(results))
    out["trace.overhead_cpu_s"] = traced_cpu - untraced_cpu
    out["trace.overhead_share"] = (traced_cpu - untraced_cpu) / untraced_cpu
    for name in SERVICE_METRICS:
        out.setdefault(name, 0.0)
    return out


def _rescaled(passes: List[List[float]], total: float) -> List[float]:
    """Every job's CPU seconds, each pass scaled to sum to ``total``.

    A host slowdown stretches a whole pass, which the cheapest-run sweep
    cost already discounts; what the per-job latency percentiles describe
    is how that cost divides among jobs, measured anew in every pass. The
    36 cheapest runs alone are too few for a p90 with 10 samples beyond it.
    """
    return [cpu * total / sum(runs) for runs in passes for cpu in runs]


def _absent_note(absent: List[str]) -> List[str]:
    return [f"trace targets absent (their metrics read 0): {', '.join(absent)}"
            ] if absent else []


class Workload:
    """Base: subclasses implement set-up, the timed phase and a traced run."""

    name = ""

    def __init__(self, root: Path, work: Path, seed: int) -> None:
        self.root = root
        self.work = work
        self.seed = seed

    def live_pids(self) -> List[int]:
        """Child processes still running whose CPU counts as this run's."""
        return []

    def setup(self) -> None:
        raise NotImplementedError

    def run(self, seconds: float) -> Outcome:
        raise NotImplementedError

    def run_traced(self, seconds: float) -> Outcome:
        raise NotImplementedError

    def close(self) -> None:
        """Stop every process the workload started."""

    def _sweep_jobs(self, accesses: int) -> List[SimJob]:
        return [
            SimJob.of(self.config, bench, model, accesses, self.seed)
            for bench in benchmark_names()
            for model in FIG10_MODELS
        ]


# --------------------------------------------------------------------------- fig10-cold
class Fig10Cold(Workload):
    name = "fig10-cold"

    def setup(self) -> None:
        self.config = SystemConfig.bench()
        self.jobs = self._sweep_jobs(FIG10_ACCESSES)
        self.reference = (
            self._reference() if self.seed == REFERENCE_SEED else None
        )

    def _reference(self) -> Dict[str, str]:
        """Recorded fingerprints of the ``fig10`` sweep (read only)."""
        store = json.loads((self.root / "BENCH_perf.json").read_text(encoding="utf-8"))
        sweep = store["sweeps"]["fig10"]
        expected = {"accesses": FIG10_ACCESSES, "seed": REFERENCE_SEED,
                    "models": list(FIG10_MODELS),
                    "benches": [job.trace.bench for job in self.jobs[::3]]}
        for key, value in expected.items():
            if sweep[key] != value:
                raise RuntimeError(
                    f"BENCH_perf.json fig10 sweep has {key}={sweep[key]!r}, "
                    f"expected {value!r}"
                )
        entry = next(e for e in sweep["entries"] if e["label"] == REFERENCE_LABEL)
        return {label: job["fingerprint"] for label, job in entry["jobs"].items()}

    def _pass(self):
        """One cold sweep on a fresh cache directory; returns
        ``(cpu_s, wall_s, engine, cache_dir, (fig10, fig11), job times)``
        with job times as :func:`job_times` records them."""
        cache = Path(tempfile.mkdtemp(prefix="cold-", dir=self.work))
        cpu0, wall0 = tree_cpu_s(), time.perf_counter()
        with job_times([]) as jobs:
            engine = ExperimentEngine(jobs=1, cache_dir=cache)
            fig10 = run_fig10_ipc(self.config, n_accesses=FIG10_ACCESSES,
                                  seed=self.seed, engine=engine)
            fig11 = run_fig11_traffic(self.config, n_accesses=FIG10_ACCESSES,
                                      seed=self.seed, engine=engine)
        cpu, wall = tree_cpu_s() - cpu0, time.perf_counter() - wall0
        return cpu, wall, engine, cache, (fig10, fig11), jobs

    def _fingerprints(self, engine, cache: Path) -> Dict[str, str]:
        """The sweep's result fingerprints, read from the engine memo."""
        results = engine.map(self.jobs)
        shutil.rmtree(cache, ignore_errors=True)
        self.last_results = list(results.values())
        return {f"{job.trace.bench}/{job.model}": results[job].fingerprint()
                for job in self.jobs}

    def _check(self, fps: Dict[str, str], first: Optional[Dict[str, str]],
               problems: List[str]) -> int:
        """Count results whose fingerprint differs from the first pass or
        from the recorded reference."""
        wanted = [("first pass", first)] if first is not None else []
        if self.reference is not None:
            wanted.append((f"BENCH_perf.json {REFERENCE_LABEL}", self.reference))
        failed = 0
        for label, fp in fps.items():
            for what, ref in wanted:
                if ref.get(label) != fp:
                    failed += 1
                    problems.append(f"{label}: fingerprint {fp[:12]} != {what} "
                                    f"{str(ref.get(label))[:12]}")
                    break
        return failed

    def run(self, seconds: float) -> Outcome:
        problems: List[str] = []
        cpus: List[float] = []
        # CPU and wall seconds of each job in every pass, and of the engine
        # work around the jobs in every pass.
        job_cpus: Dict[SimJob, List[float]] = {}
        job_walls: Dict[SimJob, List[float]] = {}
        engine_cpus: List[float] = []
        engine_walls: List[float] = []
        passes: List[List[float]] = []
        first = None
        failed = attempted = 0
        start = time.perf_counter()
        while True:
            cpu, wall, engine, cache, figures, jobs = self._pass()
            failed += engine.stats.errors
            fps = self._fingerprints(engine, cache)
            attempted += len(fps)
            failed += self._check(fps, first, problems)
            if first is None:
                first, errors = fps, paper_errors(*figures)
            cpus.append(cpu)
            for job, job_cpu, job_wall in jobs:
                job_cpus.setdefault(job, []).append(job_cpu)
                job_walls.setdefault(job, []).append(job_wall)
            passes.append([job[1] for job in jobs])
            engine_cpus.append(cpu - sum(passes[-1]))
            engine_walls.append(wall - sum(job[2] for job in jobs))
            samples = sum(len(runs) for runs in passes)
            elapsed = time.perf_counter() - start
            if elapsed + wall / 2 >= seconds and samples >= MIN_RT_SAMPLES:
                break
        # A sweep's cost is each job's cheapest run plus the median engine
        # work around the jobs: the minimum over repeats of the same job is
        # its cost with the least interference from the rest of the host,
        # which moves a job's CPU time by about 16% from pass to pass.
        best_jobs = sum(min(runs) for runs in job_cpus.values())
        best_cpu = best_jobs + statistics.median(engine_cpus)
        best_wall = (sum(min(runs) for runs in job_walls.values())
                     + statistics.median(engine_walls))
        results_rate = len(self.jobs) / best_cpu
        metrics = {
            "results_per_cpu_s": results_rate,
            "sim_req_per_cpu_s": results_rate * FIG10_ACCESSES,
            "peak_rss_mb": peak_rss_mb(),
            "success_rate": 1.0 - failed / attempted,
            **_percentiles(_rescaled(passes, best_jobs)),
            **errors,
        }
        notes = [
            f"{len(cpus)} cold passes of {len(self.jobs)} simulations; "
            f"CPU s per pass {', '.join(f'{c:.3f}' for c in cpus)}; "
            f"wall s elapsed {time.perf_counter() - start:.3f}; "
            f"sweep CPU s from each job's cheapest pass {best_cpu:.3f}",
            f"rt samples: {samples} simulated jobs (CPU s per job, each pass "
            "rescaled to the sweep's cheapest-run cost)",
            "reference check: " + (
                f"all {len(self.jobs)} fingerprints vs BENCH_perf.json fig10/"
                f"{REFERENCE_LABEL}" if self.reference is not None
                else f"seed {self.seed} has no recorded reference; passes "
                     "checked against each other"),
        ]
        return Outcome(metrics, attempted, failed, problems, notes,
                       len(self.jobs) / best_wall)

    def run_traced(self, seconds: float) -> Outcome:
        problems: List[str] = []
        cpu_u, _, engine, cache, _, _ = self._pass()
        fps_u = self._fingerprints(engine, cache)
        failed = self._check(fps_u, None, problems)
        tracer = layers.LayerTracer()
        absent = tracer.install()
        try:
            cpu_t, _, engine, cache, _, _ = self._pass()
            snapshot = tracer.snapshot()
        finally:
            tracer.uninstall()
        fps_t = self._fingerprints(engine, cache)
        failed += self._check(fps_t, fps_u, problems)
        metrics = _traced_metrics(snapshot, cpu_u, cpu_t, self.last_results)
        notes = [f"untraced pass {cpu_u:.3f} CPU s, traced pass {cpu_t:.3f} CPU s",
                 *_absent_note(absent)]
        return Outcome(metrics, 2 * len(self.jobs), failed, problems, notes)


# --------------------------------------------------------------------------- serve-mixed
#: Service counters reported per layer (``/stats`` plus the child's CPU).
SERVICE_METRICS = (
    "service.cpu_s", "service.simulations", "service.disk_hits",
    "service.memo_hits", "service.coalesced", "service.rejected",
    "service.coalesce_ratio",
)
CLIENT_THREADS = 2
#: Request mix of the seeded stream (weights per draw; a duplicate draw
#: emits the same fresh job twice in a row, so the second copy usually
#: arrives while the first is in flight).
MIX = (("fresh", 0.20), ("duplicate", 0.06), ("repeat", 0.725), ("disk", 0.015))
#: Repeats pick among this many most recently issued jobs, all of which
#: the service still holds as completed or in-flight records.
REPEAT_WINDOW = 16
#: Trace lengths of fresh jobs: short, so per-job fixed costs matter.
FRESH_ACCESSES = (200, 300, 400)
#: CPU is sampled this often during a serve-mixed phase; throughput is the
#: median over these windows, which a burst of host contention in a few of
#: them does not move.
WINDOW_S = 1.0
SERVER_START_TIMEOUT_S = 60.0
SERVER_STOP_TIMEOUT_S = 60.0


class RequestStream:
    """Seeded, thread-safe stream of jobs shared by the client threads.

    The job sequence depends only on the seed; which thread takes which
    job does not, which is what a closed loop of independent callers does.
    """

    def __init__(self, seed: int, config, pool: List, limit: int = 0) -> None:
        self._benches = benchmark_names()
        self._rng = random.Random(seed)
        self._seed = seed
        self._config = config
        self._pool = list(pool)
        self._recent: List = []
        self._pending: List = []
        self._fresh = 0
        self._lock = threading.Lock()
        self.limit = limit
        self.taken = 0

    def _fresh_job(self):
        self._fresh += 1
        return SimJob.of(
            self._config, self._rng.choice(self._benches),
            self._rng.choice(FIG10_MODELS), self._rng.choice(FRESH_ACCESSES),
            1_000_000 * (self._seed + 1) + self._fresh,
        )

    def _draw(self) -> None:
        kinds, weights = zip(*MIX)
        kind = self._rng.choices(kinds, weights)[0]
        if kind == "disk" and not self._pool:
            kind = "repeat"
        if kind == "repeat" and not self._recent:
            kind = "fresh"
        if kind == "repeat":
            self._pending.append(self._rng.choice(self._recent))
            return
        job = self._pool.pop(0) if kind == "disk" else self._fresh_job()
        self._pending.extend([job, job] if kind == "duplicate" else [job])
        self._recent = (self._recent + [job])[-REPEAT_WINDOW:]

    def take(self):
        """Next job, or ``None`` once ``limit`` jobs have been handed out."""
        with self._lock:
            if self.limit and self.taken >= self.limit:
                return None
            if not self._pending:
                self._draw()
            self.taken += 1
            return self._pending.pop(0)


class ServeMixed(Workload):
    name = "serve-mixed"
    proc: Optional[subprocess.Popen] = None

    def setup(self) -> None:
        self.config = SystemConfig.bench()
        self.cache = Path(tempfile.mkdtemp(prefix="serve-", dir=self.work))
        self.pool = self._sweep_jobs(SHORT_SWEEP_ACCESSES)
        random.Random(self.seed).shuffle(self.pool)
        outcomes = ExperimentEngine(jobs=1, cache_dir=self.cache).run_jobs(self.pool)
        bad = [o.job.label() for o in outcomes if not o.ok]
        if bad:
            raise RuntimeError(f"set-up simulation failed for {bad}")
        self.pool_fps = {o.job: o.result.fingerprint() for o in outcomes}
        self.url = self._start_server(self.cache)

    def live_pids(self) -> List[int]:
        return [self.proc.pid] if self.proc is not None else []

    # -- server child --------------------------------------------------------
    def _start_server(self, cache: Path, stats_out: Optional[Path] = None) -> str:
        serve_args = ["--host", "127.0.0.1", "--port", "0", "--workers", "1",
                      "--cache-dir", str(cache)]
        if stats_out is None:
            cmd = [sys.executable, "-m", "repro", "serve", *serve_args]
        else:
            script = Path(__file__).resolve().parent.parent / "serve_traced.py"
            cmd = [sys.executable, str(script), str(stats_out), *serve_args]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(self.root / "src"), env.get("PYTHONPATH")) if p
        )
        self._stderr = open(self.work / "server.stderr", "ab")
        self.proc = subprocess.Popen(
            cmd, cwd=self.root, env=env, stdout=subprocess.PIPE,
            stderr=self._stderr, text=True,
        )
        url = self._await_url()
        client = ServiceClient(url, timeout_s=30.0)
        deadline = time.monotonic() + SERVER_START_TIMEOUT_S
        while client.health().get("status") != "ok":
            if time.monotonic() > deadline:
                raise RuntimeError("job service never reported healthy")
            time.sleep(0.01)
        return url

    def _await_url(self) -> str:
        deadline = time.monotonic() + SERVER_START_TIMEOUT_S
        with selectors.DefaultSelector() as sel:
            sel.register(self.proc.stdout, selectors.EVENT_READ)
            while time.monotonic() < deadline:
                if not sel.select(timeout=max(0.0, deadline - time.monotonic())):
                    break
                line = self.proc.stdout.readline()
                if not line:
                    break
                if "listening on " in line:
                    return line.split("listening on ", 1)[1].strip()
        raise RuntimeError(
            f"job service did not start (see {self.work / 'server.stderr'})"
        )

    def _stop_server(self) -> None:
        """Drain and reap the server child (its CPU moves to RUSAGE_CHILDREN)."""
        if self.proc is None:
            return
        proc, self.proc = self.proc, None
        try:
            if proc.poll() is None:
                try:
                    ServiceClient(self.url, timeout_s=10.0).shutdown(drain=True)
                except Exception:
                    proc.terminate()
                try:
                    proc.wait(timeout=SERVER_STOP_TIMEOUT_S)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
        finally:
            proc.stdout.close()
            self._stderr.close()

    def close(self) -> None:
        self._stop_server()

    # -- closed loop -----------------------------------------------------------
    def _phase(self, stream: RequestStream, seconds: float,
               keep_results: bool = False):
        """Run the client threads until the stream's limit, or for
        ``seconds`` with enough latency samples; returns the tallies.

        ``keep_results`` hashes and keeps every result (traced runs compare
        them); otherwise only disk-pool hits are hashed, since the client
        has already verified every result against its claimed hash.
        """
        records: List[Tuple] = []
        errors: List[str] = []
        start = time.perf_counter()

        def done() -> bool:
            return (not stream.limit and time.perf_counter() - start >= seconds
                    and len(records) >= MIN_RT_SAMPLES)

        def client() -> None:
            engine = RemoteEngine(self.url)
            try:
                while not done():
                    job = stream.take()
                    if job is None:
                        break
                    t0 = time.perf_counter()
                    outcome = engine.run_jobs([job])[0]
                    rt = time.perf_counter() - t0
                    result = outcome.result if keep_results else None
                    fp = None
                    if outcome.ok and (keep_results or job in self.pool_fps):
                        fp = outcome.result.fingerprint()
                    records.append((job, outcome.ok, outcome.source, rt, fp,
                                    outcome.error, result))
            except Exception as exc:  # reported as a failed phase, not lost
                errors.append(f"client thread: {exc!r}")

        def sample() -> None:
            ok = [record[0] for record in records if record[1]]
            windows.append((len(ok), sum(job.trace.n_accesses for job in ok),
                            tree_cpu_s(self.live_pids())))

        windows: List[Tuple[int, int, float]] = []
        sample()
        threads = [threading.Thread(target=client) for _ in range(CLIENT_THREADS)]
        for thread in threads:
            thread.start()
        tick = time.perf_counter()
        while any(thread.is_alive() for thread in threads):
            tick += WINDOW_S
            for thread in threads:
                thread.join(max(0.0, tick - time.perf_counter()))
            sample()
        wall = time.perf_counter() - start
        return windows, wall, records, errors

    def _check(self, records, problems: List[str]) -> int:
        failed = 0
        for job, ok, _, _, fp, error, _ in records:
            if not ok:
                failed += 1
                problems.append(f"{job.label()}: {error}")
            elif fp is not None and job in self.pool_fps and fp != self.pool_fps[job]:
                failed += 1
                problems.append(f"{job.label()}: disk hit does not hash to the "
                                "fingerprint its set-up produced")
        return failed

    def _service(self, cpu_s: float) -> Dict[str, float]:
        stats = ServiceClient(self.url).stats()["stats"]
        answered = stats["coalesced"] + stats["memo_hits"]
        submissions = stats["submitted"] + answered
        return {
            "service.cpu_s": cpu_s,
            "service.simulations": float(stats["simulations"]),
            "service.disk_hits": float(stats["disk_hits"]),
            "service.memo_hits": float(stats["memo_hits"]),
            "service.coalesced": float(stats["coalesced"]),
            "service.rejected": float(stats["rejected"]),
            "service.coalesce_ratio": answered / submissions if submissions else 0.0,
        }

    def _server_cpu(self) -> float:
        return proc_cpu_s(self.proc.pid)

    def _summary(self, records) -> str:
        sources: Dict[str, int] = {}
        for record in records:
            sources[record[2]] = sources.get(record[2], 0) + 1
        return ", ".join(f"{k} {v}" for k, v in sorted(sources.items()))

    def run(self, seconds: float) -> Outcome:
        stream = RequestStream(self.seed, self.config, self.pool)
        server_cpu0 = self._server_cpu()
        windows, wall, records, errors = self._phase(stream, seconds)
        server_cpu = self._server_cpu() - server_cpu0
        rss = peak_rss_mb(self.live_pids())
        service = self._service(server_cpu)
        problems = list(errors)
        failed = self._check(records, problems) + len(errors)
        attempted = len(records) + len(errors)
        self._stop_server()
        errors_pp = _figure_errors(
            self.config, SHORT_SWEEP_ACCESSES, self.seed,
            ExperimentEngine(jobs=1, cache_dir=self.cache, ledger=False),
        )
        # Whole windows only; the last one is cut short by the stop.
        full = list(zip(windows, windows[1:]))[:-1]
        metrics = {
            "results_per_cpu_s": statistics.median(
                (b[0] - a[0]) / (b[2] - a[2]) for a, b in full),
            "sim_req_per_cpu_s": statistics.median(
                (b[1] - a[1]) / (b[2] - a[2]) for a, b in full),
            "peak_rss_mb": rss,
            "success_rate": 1.0 - failed / attempted,
            **_percentiles([r[3] for r in records]),
            **errors_pp,
        }
        cpu = windows[-1][2] - windows[0][2]
        notes = [
            f"{len(records)} requests from {CLIENT_THREADS} closed-loop clients "
            f"in {wall:.3f} wall s; CPU s {cpu:.3f} (server {server_cpu:.3f}); "
            f"{len(full)} windows of {WINDOW_S:g} s",
            f"rt samples: {len(records)} requests; sources: {self._summary(records)}",
            "service: " + ", ".join(f"{k.split('.', 1)[1]} {v:g}"
                                    for k, v in service.items()),
        ]
        return Outcome(metrics, attempted, failed, problems, notes,
                       windows[-1][0] / wall)

    def run_traced(self, seconds: float) -> Outcome:
        # The traced phase replays the untraced phase's requests against a
        # second server whose cache starts from the same set-up state.
        traced_cache = self.work / "serve-traced-cache"
        shutil.copytree(self.cache, traced_cache)
        stream = RequestStream(self.seed, self.config, self.pool)
        server_cpu0 = self._server_cpu()
        win_u, _, rec_u, errors = self._phase(stream, seconds / 2,
                                              keep_results=True)
        cpu_u = win_u[-1][2] - win_u[0][2]
        service = self._service(self._server_cpu() - server_cpu0)
        self._stop_server()

        stats_out = self.work / "server-spans.json"
        self.url = self._start_server(traced_cache, stats_out)
        replay = RequestStream(self.seed, self.config, self.pool, limit=len(rec_u))
        tracer = layers.LayerTracer()
        absent = tracer.install()
        try:
            win_t, _, rec_t, errors_t = self._phase(replay, 0.0, keep_results=True)
            cpu_t = win_t[-1][2] - win_t[0][2]
            client_snapshot = tracer.snapshot()
        finally:
            tracer.uninstall()
        self._stop_server()
        server_snapshot = json.loads(stats_out.read_text(encoding="utf-8"))

        problems = errors + errors_t
        failed = self._check(rec_u, problems) + self._check(rec_t, problems)
        failed += len(errors) + len(errors_t)
        untraced = {r[0]: r[4] for r in rec_u if r[1]}
        results = {}
        for job, ok, _, _, fp, _, result in rec_t:
            if not ok:
                continue
            results.setdefault(job, result)
            if job in untraced and untraced[job] != fp:
                failed += 1
                problems.append(f"{job.label()}: traced result differs from untraced")
        metrics = _traced_metrics(
            layers.merge(client_snapshot, server_snapshot), cpu_u, cpu_t,
            list(results.values()),
        )
        metrics.update(service)
        notes = [f"{len(rec_u)} requests each: untraced {cpu_u:.3f} CPU s, "
                 f"traced {cpu_t:.3f} CPU s", *_absent_note(absent)]
        return Outcome(metrics, len(rec_u) + len(rec_t), failed, problems, notes)


WORKLOADS = {cls.name: cls for cls in (Fig10Cold, ServeMixed)}

#: End-to-end metrics every untraced run reports, ``name -> unit``.
END_TO_END_UNITS: Dict[str, str] = {
    "setup_s": "s",
    "sim_req_per_cpu_s": "1/s",
    "results_per_cpu_s": "1/s",
    "rt_ms_p50": "ms",
    "rt_ms_p90": "ms",
    "peak_rss_mb": "MiB",
    "success_rate": "ratio",
    "fig10_gain_err_pp": "pp",
    "fig11_traffic_err_pp": "pp",
}

#: Per-layer metrics every traced run reports, ``name -> unit``.
PER_LAYER_UNITS: Dict[str, str] = {
    **layers.SPAN_METRICS,
    "harness.engine.cache_hit_ratio": "ratio",
    "harness.client.result_wait.s": "s",
    "service.cpu_s": "s",
    **{name: "count" for name in SERVICE_METRICS[1:-1]},
    "service.coalesce_ratio": "ratio",
    "sim.l2_hit_rate": "ratio",
    "sim.mapping_hit_rate": "ratio",
    "sim.counter_cache_hit_rate.device": "ratio",
    "sim.security_share.total": "ratio",
    "sim.fills": "count",
    "unattributed.self_s": "s",
    "unattributed.share": "ratio",
    "trace.overhead_cpu_s": "s",
    "trace.overhead_share": "ratio",
}
