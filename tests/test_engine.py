"""Tests for the job-based experiment engine (parallelism + result cache)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro.harness.engine as engine_mod
from repro.config import SystemConfig
from repro.errors import EngineError
from repro.harness.engine import (
    SCHEMA_VERSION,
    ExperimentEngine,
    ResultCache,
    SimJob,
    TraceSpec,
)
from repro.harness.experiments import (
    EVAL_MODELS,
    run_fig03_motivation,
    run_fig10_ipc,
)
from repro.harness.runner import run_benchmark
from repro.kernel import numpy_or_none
from repro.workloads.suite import benchmark_names, build_trace

SRC_DIR = Path(__file__).resolve().parents[1] / "src"

CFG = SystemConfig.small()
N, SEED = 600, 3


def job(bench="nw", model="nosec", config=CFG, n=N, seed=SEED):
    return SimJob.of(config, bench, model, n, seed)


class TestFingerprints:
    def test_simjob_fingerprint_is_stable(self):
        assert job().fingerprint() == job().fingerprint()

    def test_fingerprint_distinguishes_every_axis(self):
        base = job().fingerprint()
        assert job(model="salus").fingerprint() != base
        assert job(bench="sgemm").fingerprint() != base
        assert job(n=800).fingerprint() != base
        assert job(seed=4).fingerprint() != base
        assert job(config=CFG.with_capacity_ratio(0.5)).fingerprint() != base

    def test_config_fingerprint_covers_nested_fields(self):
        assert CFG.fingerprint() == SystemConfig.small().fingerprint()
        assert CFG.fingerprint() != SystemConfig.bench().fingerprint()
        assert CFG.fingerprint() != CFG.with_cxl_bw_ratio(0.25).fingerprint()

    def test_schema_version_is_part_of_the_key(self, monkeypatch):
        before = job().fingerprint()
        monkeypatch.setattr("repro.harness.engine.SCHEMA_VERSION", SCHEMA_VERSION + 1)
        assert job().fingerprint() != before


class TestTraceDeterminism:
    """build_trace must be deterministic across processes - the cross-process
    cache key (bench, n_accesses, seed, geometry) depends on it."""

    def test_same_recipe_same_fingerprint_in_process(self):
        a = build_trace("nw", n_accesses=N, seed=SEED, num_sms=CFG.gpu.num_sms)
        b = build_trace("nw", n_accesses=N, seed=SEED, num_sms=CFG.gpu.num_sms)
        assert a.fingerprint() == b.fingerprint()
        assert build_trace("nw", n_accesses=N, seed=SEED + 1,
                           num_sms=CFG.gpu.num_sms).fingerprint() != a.fingerprint()

    def test_same_recipe_same_fingerprint_across_processes(self):
        local = build_trace("btree", n_accesses=500, seed=11, num_sms=4).fingerprint()
        code = (
            "from repro.workloads.suite import build_trace\n"
            "print(build_trace('btree', n_accesses=500, seed=11, num_sms=4)"
            ".fingerprint())\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
        # Randomized hashing in the child catches any hash()-order dependence.
        env["PYTHONHASHSEED"] = "random"
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env=env, check=True,
        )
        assert out.stdout.strip() == local


class TestResultCache:
    def test_put_then_get_round_trips(self, tmp_path):
        cache = ResultCache(tmp_path)
        j = job()
        result = j.execute()
        cache.put(j.fingerprint(), j, result)
        back, back_fingerprint = cache.get(j.fingerprint())
        assert back.to_dict() == result.to_dict()
        assert back_fingerprint == result.fingerprint()
        assert len(cache) == 1

    def test_missing_and_corrupt_entries_are_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        fp = job().fingerprint()
        assert cache.get(fp) is None
        path = cache.path_for(fp)
        path.parent.mkdir(parents=True)
        path.write_text("{not json")
        assert cache.get(fp) is None
        path.write_text(json.dumps({"schema": SCHEMA_VERSION + 99,
                                    "fingerprint": fp, "result": {}}))
        assert cache.get(fp) is None

    def test_clear_invalidates(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        j = job()
        cache.put(j.fingerprint(), j, j.execute())
        assert len(cache) == 1
        cache.clear()
        assert len(cache) == 0
        assert cache.get(j.fingerprint()) is None


def _truncate(path, envelope, other):
    path.write_text(path.read_text(encoding="utf-8")[:-40], encoding="utf-8")


def _swap_in_other_jobs_entry(path, envelope, other):
    other.replace(path)


def _tamper_one_metric(path, envelope, other):
    name = sorted(envelope["result"]["metrics"])[0]
    envelope["result"]["metrics"][name] += 1
    path.write_text(json.dumps(envelope), encoding="utf-8")


def _drop_result_fingerprint(path, envelope, other):
    del envelope["result_fingerprint"]
    path.write_text(json.dumps(envelope), encoding="utf-8")


class TestVerifiedCacheReads:
    """A cache entry is served only if its result rehashes to the result
    fingerprint stored with it; anything else is a clean miss."""

    def test_entry_stores_the_result_fingerprint(self, tmp_path):
        cache = ResultCache(tmp_path)
        j = job()
        result = j.execute()
        cache.put(j.fingerprint(), j, result)
        envelope = json.loads(cache.path_for(j.fingerprint()).read_text())
        assert envelope["result_fingerprint"] == result.fingerprint()

    @pytest.mark.parametrize("damage", [
        _truncate, _swap_in_other_jobs_entry, _tamper_one_metric,
        _drop_result_fingerprint,
    ])
    def test_damaged_entry_misses_and_resimulates(self, tmp_path, damage):
        mine, other = job(), job(seed=SEED + 1)
        ExperimentEngine(cache_dir=tmp_path).run_jobs([mine, other])
        truth = mine.execute().fingerprint()
        cache = ResultCache(tmp_path)
        path = cache.path_for(mine.fingerprint())
        envelope = json.loads(path.read_text(encoding="utf-8"))
        damage(path, envelope, cache.path_for(other.fingerprint()))
        assert cache.get(mine.fingerprint()) is None

        engine = ExperimentEngine(cache_dir=tmp_path)
        outcome = engine.run_jobs([mine])[0]
        assert (engine.stats.simulations, engine.stats.disk_hits) == (1, 0)
        assert outcome.source == "run"
        assert outcome.result.fingerprint() == outcome.result_fingerprint == truth
        # the re-simulation rewrote the entry, which now verifies
        assert cache.get(mine.fingerprint())[1] == truth

    def test_disk_hit_hashes_once(self, tmp_path, monkeypatch):
        j = job()
        ExperimentEngine(cache_dir=tmp_path).run_jobs([j])
        calls = []
        real = engine_mod.RunResult.fingerprint

        def counting(self):
            calls.append(1)
            return real(self)

        monkeypatch.setattr(engine_mod.RunResult, "fingerprint", counting)
        engine = ExperimentEngine(cache_dir=tmp_path)
        outcome = engine.run_jobs([j])[0]
        assert outcome.source == "disk"
        assert len(calls) == 1  # the verification; the ledger reuses it
        outcome = engine.run_jobs([j])[0]
        assert outcome.source == "memory" and len(calls) == 1
        sources = [e.source for e in engine.ledger.entries()]
        assert sources == ["run", "disk", "memory"]


class TestEngine:
    def test_duplicates_fold_into_one_simulation(self):
        engine = ExperimentEngine()
        outcomes = engine.run_jobs([job(), job(), job()])
        assert len(outcomes) == 3
        assert engine.stats.simulations == 1
        assert outcomes[0].result is outcomes[2].result

    def test_memoized_rerun_is_identical_object(self):
        engine = ExperimentEngine()
        r1 = engine.run_one(CFG, "nw", "nosec", N, SEED)
        r2 = engine.run_one(CFG, "nw", "nosec", N, SEED)
        assert r1 is r2
        assert engine.stats.simulations == 1
        assert engine.stats.memory_hits == 1

    def test_warm_disk_cache_runs_zero_simulations(self, tmp_path):
        cache_dir = tmp_path / "cache"
        cold = ExperimentEngine(cache_dir=cache_dir)
        fig_cold = run_fig10_ipc(config=CFG, benchmarks=("nw",), n_accesses=N,
                                 seed=SEED, engine=cold)
        assert cold.stats.simulations == 3  # nosec, baseline, salus

        warm = ExperimentEngine(cache_dir=cache_dir)  # fresh process-equivalent
        fig_warm = run_fig10_ipc(config=CFG, benchmarks=("nw",), n_accesses=N,
                                 seed=SEED, engine=warm)
        assert warm.stats.simulations == 0
        assert warm.stats.disk_hits == 3
        assert fig_warm.to_text() == fig_cold.to_text()

    def test_parallel_output_matches_serial(self):
        serial = ExperimentEngine(jobs=1)
        parallel = ExperimentEngine(jobs=2)
        kwargs = dict(config=CFG, benchmarks=("nw", "sgemm"), n_accesses=N,
                      seed=SEED)
        assert (
            run_fig03_motivation(engine=parallel, **kwargs).to_text()
            == run_fig03_motivation(engine=serial, **kwargs).to_text()
        )

    def test_one_failed_job_does_not_kill_the_batch(self):
        engine = ExperimentEngine()
        good, bad = job(), job(model="quantum")
        outcomes = engine.run_jobs([good, bad])
        assert outcomes[0].ok and outcomes[0].result is not None
        assert not outcomes[1].ok
        assert "quantum" in outcomes[1].error
        assert engine.stats.errors == 1

    def test_failed_jobs_survive_in_parallel_mode_too(self):
        engine = ExperimentEngine(jobs=2)
        outcomes = engine.run_jobs([job(), job(model="quantum")])
        assert outcomes[0].ok
        assert not outcomes[1].ok

    def test_map_raises_engine_error_naming_the_job(self):
        engine = ExperimentEngine()
        with pytest.raises(EngineError, match="nw/quantum"):
            engine.map([job(model="quantum")])

    def test_errors_are_not_cached(self, tmp_path):
        engine = ExperimentEngine(cache_dir=tmp_path / "cache")
        engine.run_jobs([job(model="quantum")])
        assert len(engine.cache) == 0

    def test_rejects_nonpositive_worker_count(self):
        with pytest.raises(EngineError):
            ExperimentEngine(jobs=0)


class TestRunBenchmarkViaEngine:
    def test_trace_spec_routes_through_engine(self, tmp_path):
        engine = ExperimentEngine(cache_dir=tmp_path / "cache")
        spec = TraceSpec("nw", N, SEED)
        results = run_benchmark(CFG, spec, models=("nosec", "salus"),
                                engine=engine)
        assert set(results) == {"nosec", "salus"}
        assert engine.stats.simulations == 2

        warm = ExperimentEngine(cache_dir=tmp_path / "cache")
        again = run_benchmark(CFG, spec, models=("nosec", "salus"), engine=warm)
        assert warm.stats.simulations == 0
        assert {m: r.to_dict() for m, r in again.items()} == {
            m: r.to_dict() for m, r in results.items()
        }

    def test_materialized_trace_still_runs_directly(self):
        trace = build_trace("nw", n_accesses=400, num_sms=CFG.gpu.num_sms,
                            scale=0.1)
        results = run_benchmark(CFG, trace, models=("nosec",))
        assert results["nosec"].workload == "nw"


@pytest.fixture
def built_traces(monkeypatch):
    """Every ``(bench, trace)`` the engine builds, in build order."""
    built = []
    real = engine_mod.build_trace

    def counting(bench, **kwargs):
        trace = real(bench, **kwargs)
        built.append((bench, trace))
        return trace

    monkeypatch.setattr(engine_mod, "build_trace", counting)
    return built


class TestTraceSharing:
    """A batch builds each distinct trace once and shares it among the
    models that simulate it."""

    def test_matrix_builds_each_trace_once_and_holds_one(self, built_traces,
                                                          monkeypatch):
        held = []
        raw = SimJob.execute

        def execute(job, *args, **kwargs):
            result = raw(job, *args, **kwargs)
            held.append(len(kwargs["traces"]))
            return result

        monkeypatch.setattr(SimJob, "execute", execute)
        benches = benchmark_names()
        assert len(benches) == 12
        ExperimentEngine().matrix(CFG, benches, EVAL_MODELS, 200, SEED)
        assert [bench for bench, _ in built_traces] == list(benches)
        assert len(held) == 36 and max(held) == 1

    def test_fresh_engine_and_new_batch_rebuild(self, built_traces):
        benches = ("nw", "sgemm")
        ExperimentEngine().matrix(CFG, benches, ("nosec",), N, SEED)
        assert len(built_traces) == 2
        engine = ExperimentEngine()
        engine.matrix(CFG, benches, ("nosec",), N, SEED)
        assert len(built_traces) == 4  # no trace outlives its engine
        engine.matrix(CFG, benches, ("salus",), N, SEED)
        assert len(built_traces) == 6  # nor its batch

    def test_shared_trace_is_unchanged_by_its_models(self, built_traces):
        ExperimentEngine().matrix(CFG, ("nw", "kmeans"), EVAL_MODELS, N, SEED)
        for bench, trace in built_traces:
            fresh = build_trace(bench, n_accesses=N, seed=SEED,
                                num_sms=CFG.gpu.num_sms, geometry=CFG.geometry)
            assert trace.fingerprint() == fresh.fingerprint()

    @pytest.mark.parametrize("kernel,workers", [
        ("scalar", 1),
        pytest.param("batched", 1, marks=pytest.mark.skipif(
            numpy_or_none() is None, reason="batched kernel needs numpy")),
        (None, 2),
    ])
    def test_shared_results_match_unshared(self, kernel, workers):
        jobs = [job(bench, model) for bench in ("nw", "sgemm")
                for model in EVAL_MODELS]
        shared = ExperimentEngine(jobs=workers, kernel=kernel).map(jobs)
        for j in jobs:
            alone = j.execute(kernel=kernel)
            assert shared[j].fingerprint() == alone.fingerprint()
            assert shared[j].to_dict() == alone.to_dict()
