"""Tests for the simulation job service (src/repro/service/) and its client.

Covers the ISSUE acceptance criteria:

* N concurrent identical submissions -> exactly one simulation (one
  ledger ``run`` entry; every submitter gets the same fingerprint);
* a full queue yields a retryable saturation error (HTTP 429 +
  Retry-After over the wire);
* graceful shutdown drains in-flight jobs and leaves the ledger flushed;
* a service-mode quick sweep reproduces the exact result fingerprints
  recorded in BENCH_perf.json - service execution is bit-identical to
  local execution.
"""

import asyncio
import gc
import http.client
import json
import logging
import socket
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.config import ConfigError, SystemConfig
from repro.errors import ServiceClosedError, ServiceError, ServiceSaturatedError
from repro.gpu.gpusim import RunResult
from repro.harness.client import RemoteEngine, ServiceClient, job_payload
from repro.harness.engine import SimJob, TraceSpec
from repro.harness.ledger import RunLedger
from repro.service import (
    CacheEvictionPolicy,
    ServiceConfig,
    SimService,
    SimServiceServer,
    evict_result_cache,
    parse_job_payload,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
CFG = SystemConfig.small()
N = 400
SEED = 3


def small_job(model="nosec", bench="nw", seed=SEED, n=N):
    return SimJob(config=CFG, trace=TraceSpec(bench, n, seed), model=model)


def run_async(coro):
    return asyncio.run(coro)


def count_calls(monkeypatch, cls, name):
    """Patch ``cls.name`` to record each call; returns the call list."""
    calls = []
    real = getattr(cls, name)

    def counting(self, *args, **kwargs):
        calls.append(name)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(cls, name, counting)
    return calls


def take(*call_lists):
    """How many calls each list holds, emptying them."""
    counts = tuple(len(calls) for calls in call_lists)
    for calls in call_lists:
        del calls[:]
    return counts


# -- config round trip (what makes remote submission content-addressed) ------

class TestConfigRoundTrip:
    @pytest.mark.parametrize("config", [
        SystemConfig.bench(),
        SystemConfig.small(),
        SystemConfig.volta(),
        SystemConfig.bench().with_cxl_devices(3, sharding="range"),
        SystemConfig.bench().with_cxl_bw_ratio(1 / 4),
        SystemConfig.small().with_capacity_ratio(0.5),
    ])
    def test_from_dict_preserves_fingerprint(self, config):
        clone = SystemConfig.from_dict(config.to_dict())
        assert clone.fingerprint() == config.fingerprint()
        assert clone.to_dict() == config.to_dict()

    def test_from_dict_survives_json(self):
        config = SystemConfig.bench().with_cxl_devices(2)
        wire = json.loads(json.dumps(config.to_dict()))
        assert SystemConfig.from_dict(wire).fingerprint() == config.fingerprint()

    def test_from_dict_rejects_non_dict(self):
        with pytest.raises(ConfigError):
            SystemConfig.from_dict("volta")


class TestJobPayload:
    def test_payload_round_trips_to_same_fingerprint(self):
        job = small_job("salus")
        parsed = parse_job_payload(json.loads(json.dumps(job_payload(job))))
        assert parsed.fingerprint() == job.fingerprint()

    def test_rejects_unknown_bench_and_model(self):
        with pytest.raises(ConfigError):
            parse_job_payload({"bench": "nope", "model": "nosec"})
        with pytest.raises(ConfigError):
            parse_job_payload({"bench": "nw", "model": "nope"})
        with pytest.raises(ConfigError):
            parse_job_payload({"bench": "nw", "model": "nosec",
                               "n_accesses": "lots"})


# -- cache eviction (store.py) -----------------------------------------------

def _fake_entry(root, name, mtime, size=100):
    path = root / name[:2] / f"{name}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("x" * size)
    import os

    os.utime(path, (mtime, mtime))
    return path


class TestEviction:
    def test_disabled_policy_keeps_everything(self, tmp_path):
        _fake_entry(tmp_path, "aa" * 20, 1000.0)
        report = evict_result_cache(tmp_path, CacheEvictionPolicy())
        assert report.evicted == 0 and report.scanned == 0

    def test_ttl_drops_only_stale_entries(self, tmp_path):
        old = _fake_entry(tmp_path, "aa" * 20, 1000.0)
        new = _fake_entry(tmp_path, "bb" * 20, 9000.0)
        report = evict_result_cache(
            tmp_path, CacheEvictionPolicy(ttl_s=500.0), now=9100.0
        )
        assert report.evicted_ttl == 1 and report.kept == 1
        assert not old.exists() and new.exists()
        # the emptied shard directory is pruned
        assert not old.parent.exists()

    def test_lru_keeps_most_recently_used(self, tmp_path):
        names = [f"{i:02d}" * 20 for i in range(5)]
        for i, name in enumerate(names):
            _fake_entry(tmp_path, name, 1000.0 + i)
        report = evict_result_cache(
            tmp_path, CacheEvictionPolicy(max_entries=2), now=2000.0
        )
        assert report.evicted_lru == 3 and report.kept == 2
        survivors = {p.stem for p in tmp_path.glob("*/*.json")}
        assert survivors == set(names[-2:])

    def test_ledger_is_never_evicted(self, tmp_path):
        _fake_entry(tmp_path, "aa" * 20, 1000.0)
        ledger = tmp_path / "ledger.jsonl"
        ledger.write_text('{"bench": "nw"}\n')
        report = evict_result_cache(
            tmp_path, CacheEvictionPolicy(max_entries=0, ttl_s=1.0), now=99999.0
        )
        assert report.evicted == 1
        assert ledger.exists()

    def test_cache_read_refreshes_mtime_for_lru(self, tmp_path):
        # ResultCache.get touches mtime on hit, so a recently *read* entry
        # outranks a recently *written* one under LRU.
        from repro.harness.engine import ResultCache

        cache = ResultCache(tmp_path)
        job = small_job()
        result = job.execute()
        fp = job.fingerprint()
        path = cache.put(fp, job, result)
        import os

        os.utime(path, (1000.0, 1000.0))
        assert cache.get(fp) is not None
        assert path.stat().st_mtime > 1000.0

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            CacheEvictionPolicy(max_entries=-1)
        with pytest.raises(ValueError):
            CacheEvictionPolicy(ttl_s=-0.5)


# -- SimService core (no HTTP) -----------------------------------------------

class TestSimService:
    def test_identical_submissions_coalesce_into_one_simulation(self, tmp_path):
        async def scenario():
            service = SimService(ServiceConfig(
                workers=2, queue_depth=8, cache_dir=str(tmp_path)
            ))
            await service.start()
            try:
                await service.pause()  # hold dispatch so all 5 attach in flight
                job = small_job()
                records = [service.submit(job) for _ in range(5)]
                assert [c for _, c in records] == [False, True, True, True, True]
                assert len({id(r) for r, _ in records}) == 1
                await service.resume()
                record = records[0][0]
                await asyncio.wait_for(record.done.wait(), timeout=60)
                assert record.state == "done"
                return service.stats, record
            finally:
                await service.shutdown(drain=True)

        stats, record = run_async(scenario())
        assert stats.simulations == 1
        assert stats.submitted == 1 and stats.coalesced == 4
        # exactly one simulated ledger entry; one attach entry per rider
        ledger = RunLedger(tmp_path)
        sources = sorted(e.source for e in ledger.entries())
        assert sources == ["coalesced"] * 4 + ["run"]
        fingerprints = {e.result_fingerprint for e in ledger.entries()}
        assert fingerprints == {record.result.fingerprint()}

    def test_completed_record_answers_as_memo_hit(self, tmp_path):
        async def scenario():
            service = SimService(ServiceConfig(
                workers=1, queue_depth=4, cache_dir=str(tmp_path)
            ))
            await service.start()
            try:
                job = small_job()
                record, coalesced = service.submit(job)
                assert not coalesced
                await asyncio.wait_for(record.done.wait(), timeout=60)
                again, coalesced = service.submit(job)
                assert coalesced and again is record
                return service.stats
            finally:
                await service.shutdown(drain=True)

        stats = run_async(scenario())
        assert stats.memo_hits == 1 and stats.simulations == 1
        assert [e.source for e in RunLedger(tmp_path).entries(source="memory")]

    def test_full_queue_raises_retryable_saturation(self, tmp_path):
        async def scenario():
            service = SimService(ServiceConfig(
                workers=1, queue_depth=2, cache_dir=str(tmp_path),
                retry_after_s=2.5,
            ))
            await service.start()
            try:
                await service.pause()
                service.submit(small_job(seed=101))
                service.submit(small_job(seed=102))
                with pytest.raises(ServiceSaturatedError) as exc_info:
                    service.submit(small_job(seed=103))
                assert exc_info.value.retry_after_s == 2.5
                # the queued jobs still complete once resumed
                await service.resume()
                for rec in list(service.records.values()):
                    await asyncio.wait_for(rec.done.wait(), timeout=60)
                return service.stats
            finally:
                await service.shutdown(drain=True)

        stats = run_async(scenario())
        assert stats.rejected == 1
        assert stats.completed == 2

    def test_graceful_shutdown_drains_and_flushes_ledger(self, tmp_path):
        async def scenario():
            service = SimService(ServiceConfig(
                workers=1, queue_depth=8, cache_dir=str(tmp_path)
            ))
            await service.start()
            records = [service.submit(small_job(seed=s))[0] for s in (7, 8)]
            await service.shutdown(drain=True)  # returns only when drained
            return records

        records = run_async(scenario())
        assert all(r.state == "done" for r in records)
        entries = RunLedger(tmp_path).entries()
        assert sorted(e.source for e in entries) == ["run", "run"]
        assert {e.result_fingerprint for e in entries} == {
            r.result.fingerprint() for r in records
        }

    def test_abandoning_shutdown_cancels_queued_jobs(self, tmp_path):
        async def scenario():
            service = SimService(ServiceConfig(
                workers=1, queue_depth=8, cache_dir=str(tmp_path)
            ))
            await service.start()
            await service.pause()  # nothing dispatches
            records = [service.submit(small_job(seed=s))[0] for s in (11, 12)]
            await service.shutdown(drain=False)
            return service.stats, records

        stats, records = run_async(scenario())
        assert all(r.state == "cancelled" for r in records)
        assert stats.cancelled == 2
        assert not RunLedger(tmp_path).entries()

    def test_hash_budget_per_answer(self, tmp_path, monkeypatch):
        """A result is hashed once, where it is produced or read back from
        the cache, and a submission's job fingerprint once, at submit."""
        result_hashes = count_calls(monkeypatch, RunResult, "fingerprint")
        job_hashes = count_calls(monkeypatch, SimJob, "fingerprint")
        job, rider = small_job(), small_job(seed=SEED + 1)

        async def answer(service, job):
            record, _ = service.submit(job)
            await asyncio.wait_for(record.done.wait(), timeout=60)
            return record

        async def scenario():
            budgets = {}
            service = SimService(ServiceConfig(
                workers=1, queue_depth=8, cache_dir=str(tmp_path)
            ))
            await service.start()
            try:
                assert (await answer(service, job)).source == "run"
                budgets["run"] = take(result_hashes, job_hashes)
                await answer(service, job)
                budgets["memory"] = take(result_hashes, job_hashes)
                await service.pause()
                record, _ = service.submit(rider)
                service.submit(rider)  # coalesces onto the queued record
                await service.resume()
                await asyncio.wait_for(record.done.wait(), timeout=60)
                budgets["run + coalesced"] = take(result_hashes, job_hashes)
            finally:
                await service.shutdown(drain=True)
            service = SimService(ServiceConfig(
                workers=1, queue_depth=8, cache_dir=str(tmp_path)
            ))
            await service.start()
            try:
                assert (await answer(service, job)).source == "disk"
                budgets["disk"] = take(result_hashes, job_hashes)
            finally:
                await service.shutdown(drain=True)
            return budgets

        budgets = run_async(scenario())
        # (RunResult.fingerprint calls, SimJob.fingerprint calls)
        assert budgets == {
            "run": (1, 1), "memory": (0, 1), "run + coalesced": (1, 2),
            "disk": (1, 1),
        }
        entries = RunLedger(tmp_path).entries()
        assert [e.source for e in entries] == [
            "run", "memory", "run", "coalesced", "disk",
        ]
        truth = {j.fingerprint(): j.execute().fingerprint() for j in (job, rider)}
        for e in entries:
            assert e.result_fingerprint == truth[e.job_fingerprint]
            assert e.config_fingerprint == CFG.fingerprint()

    def test_draining_service_rejects_new_submissions(self, tmp_path):
        async def scenario():
            service = SimService(ServiceConfig(workers=1, queue_depth=4))
            await service.start()
            await service.shutdown(drain=True)
            with pytest.raises(ServiceClosedError):
                service.submit(small_job())

        run_async(scenario())


# -- HTTP server + client -----------------------------------------------------

class ServerHarness:
    """Run SimService + SimServiceServer on a private loop thread."""

    def __init__(self, tmp_path, **config_kwargs):
        config_kwargs.setdefault("workers", 2)
        config_kwargs.setdefault("queue_depth", 8)
        config_kwargs.setdefault("cache_dir", str(tmp_path))
        self.config = ServiceConfig(**config_kwargs)
        self.url = None
        self.loop = None
        self.service = None
        self.server = None
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        asyncio.run(self._main())

    async def _main(self):
        self.loop = asyncio.get_running_loop()
        self.service = SimService(self.config)
        await self.service.start()
        self.server = SimServiceServer(self.service, "127.0.0.1", 0)
        await self.server.start()
        self.url = self.server.url
        self._ready.set()
        await self.server.serve_until_shutdown()

    def __enter__(self):
        self._thread.start()
        assert self._ready.wait(timeout=30), "server failed to start"
        return self

    def __exit__(self, *exc):
        try:
            with ServiceClient(self.url) as client:
                client.shutdown(drain=True)
        except ServiceError:
            pass
        self._thread.join(timeout=60)


class TestServiceHTTP:
    def test_health_and_stats(self, tmp_path):
        with ServerHarness(tmp_path) as srv:
            client = ServiceClient(srv.url)
            health = client.health()
            assert health["status"] == "ok"
            assert health["queue_capacity"] == 8
            stats = client.stats()
            assert stats["stats"]["submitted"] == 0
            assert "eviction_policy" in stats

    def test_submit_result_matches_local_execution(self, tmp_path):
        job = small_job("salus")
        with ServerHarness(tmp_path) as srv:
            client = ServiceClient(srv.url)
            snapshot = client.submit(job)
            assert snapshot["fingerprint"] == job.fingerprint()
            assert snapshot["coalesced"] is False
            envelope = client.result(job.fingerprint(), timeout_s=120)
            remote = RunResult.from_dict(envelope["result"])
        local = job.execute()
        assert remote.fingerprint() == local.fingerprint()
        assert envelope["result_fingerprint"] == local.fingerprint()
        assert envelope["source"] == "run"

    def test_event_stream_ends_with_terminal_result(self, tmp_path):
        job = small_job()
        with ServerHarness(tmp_path) as srv:
            client = ServiceClient(srv.url)
            client.submit(job)
            events = list(client.events(job.fingerprint(), timeout_s=120))
        kinds = [e["kind"] for e in events]
        assert kinds[0] == "start"
        assert kinds[-1] == "result"
        assert all(e["fingerprint"] == job.fingerprint() for e in events)
        assert events[-1]["state"] == "done"

    def test_unknown_job_is_404(self, tmp_path):
        with ServerHarness(tmp_path) as srv:
            status, _body = ServiceClient(srv.url).request(
                "GET", "/jobs/" + "0" * 40
            )
            assert status == 404

    def test_saturated_server_returns_429_with_retry_after(self, tmp_path):
        with ServerHarness(tmp_path, workers=1, queue_depth=1,
                           retry_after_s=3.0) as srv:
            client = ServiceClient(srv.url, submit_attempts=1)
            client.pause()
            client.submit(small_job(seed=31))
            with pytest.raises(ServiceSaturatedError) as exc_info:
                client.submit(small_job(seed=32))
            assert exc_info.value.retry_after_s == 3.0
            # raw status check: proper HTTP semantics, not just the mapping
            req = urllib.request.Request(
                srv.url + "/jobs", method="POST",
                data=json.dumps(job_payload(small_job(seed=33))).encode(),
                headers={"Content-Type": "application/json"},
            )
            with pytest.raises(urllib.error.HTTPError) as http_err:
                urllib.request.urlopen(req, timeout=30)
            assert http_err.value.code == 429
            assert http_err.value.headers["Retry-After"] == "3"
            client.resume()

    def test_concurrent_identical_submissions_simulate_once(self, tmp_path):
        """ISSUE acceptance: N concurrent clients, one simulation."""
        job = small_job("baseline", seed=77)
        workers = 6
        results = [None] * workers
        with ServerHarness(tmp_path) as srv:
            ServiceClient(srv.url).pause()  # everyone attaches pre-dispatch

            def submit_and_wait(i):
                client = ServiceClient(srv.url)
                snapshot = client.submit(job)
                envelope = client.result(job.fingerprint(), timeout_s=120)
                results[i] = (snapshot, envelope)

            threads = [
                threading.Thread(target=submit_and_wait, args=(i,))
                for i in range(workers)
            ]
            for t in threads:
                t.start()
            # let every submission land before dispatch starts
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                stats = ServiceClient(srv.url).stats()["stats"]
                if stats["submitted"] + stats["coalesced"] >= workers:
                    break
                time.sleep(0.05)
            ServiceClient(srv.url).resume()
            for t in threads:
                t.join(timeout=120)
            stats = ServiceClient(srv.url).stats()["stats"]

        assert all(r is not None for r in results)
        fingerprints = {env["result_fingerprint"] for _snap, env in results}
        assert fingerprints == {job.execute().fingerprint()}
        assert stats["simulations"] == 1
        assert stats["submitted"] == 1 and stats["coalesced"] == workers - 1
        # ledger: exactly one simulated entry; one attach entry per rider
        entries = RunLedger(tmp_path).entries()
        assert [e.source for e in entries].count("run") == 1
        assert [e.source for e in entries].count("coalesced") == workers - 1
        coalesced = [s for s, _ in results if s["coalesced"]]
        assert len(coalesced) == workers - 1

    def test_admin_evict_applies_policy(self, tmp_path):
        with ServerHarness(
            tmp_path, workers=1,
            eviction=CacheEvictionPolicy(max_entries=1),
        ) as srv:
            client = ServiceClient(srv.url)
            for seed in (51, 52, 53):
                client.submit(small_job(seed=seed))
                client.result(small_job(seed=seed).fingerprint(),
                              timeout_s=120)
            report = client.evict()
            assert report["kept"] <= 1
        assert len(list(Path(tmp_path).glob("*/*.json"))) <= 1


    def test_result_reuses_the_server_side_hash(self, tmp_path, monkeypatch):
        job = small_job("salus")
        result_hashes = count_calls(monkeypatch, RunResult, "fingerprint")
        with ServerHarness(tmp_path) as srv:
            client = ServiceClient(srv.url)  # hashes nothing itself
            client.submit(job)
            envelope = client.result(job.fingerprint(), timeout_s=120)
            assert take(result_hashes) == (1,)
            client.submit(job)
            again = client.result(job.fingerprint(), timeout_s=120)
            assert take(result_hashes) == (0,)
        assert again == {**envelope, "attached": 1}
        assert envelope["result_fingerprint"] == job.execute().fingerprint()


def raw_exchange(url, request: bytes, timeout=60.0) -> bytes:
    """Send raw bytes, then read until the server closes the connection
    (a server that kept it open makes this time out)."""
    host, port = url.split("://", 1)[1].rsplit(":", 1)
    with socket.create_connection((host, int(port)), timeout=timeout) as sock:
        sock.sendall(request)
        data = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return data
            data += chunk


class TestKeepAlive:
    def test_one_client_thread_uses_one_connection(self, tmp_path):
        with ServerHarness(tmp_path) as srv:
            client = ServiceClient(srv.url)
            for seed in (81, 82, 81):
                job = small_job(seed=seed)
                client.submit(job)
                envelope = client.result(job.fingerprint(), timeout_s=120)
                assert envelope["state"] == "done"
            client.health()
            assert srv.server.accepted == 1
            client.close()
            client.health()  # reconnects
            assert srv.server.accepted == 2

    def test_shared_client_keeps_one_connection_per_thread(self, tmp_path):
        threads_n, rounds = 8, 20
        failures = []
        with ServerHarness(tmp_path) as srv:
            client = ServiceClient(srv.url)

            def hammer():
                try:
                    for _ in range(rounds):
                        assert client.health()["status"] == "ok"
                except Exception as exc:  # reported below
                    failures.append(repr(exc))

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                threads = [threading.Thread(target=hammer) for _ in range(threads_n)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
            assert not any(t.is_alive() for t in threads)
            assert failures == []
            assert srv.server.accepted == threads_n
            gc.collect()  # a finished thread's connection goes with it
            assert len(client._connections) == 0

    def test_client_reconnects_after_server_closes_idle_connection(self, tmp_path):
        with ServerHarness(tmp_path) as srv:
            client = ServiceClient(srv.url)
            assert client.health()["status"] == "ok"
            closed = threading.Event()

            def close_idle():
                idle = list(srv.server._idle)
                for writer in idle:
                    writer.close()
                if idle:
                    closed.set()

            deadline = time.monotonic() + 10
            while not closed.is_set() and time.monotonic() < deadline:
                srv.loop.call_soon_threadsafe(close_idle)
                closed.wait(0.05)
            assert closed.is_set(), "the connection never went idle"
            time.sleep(0.1)  # let the close reach the client's socket
            assert client.health()["status"] == "ok"
            assert srv.server.accepted == 2

    def test_event_stream_closes_its_connection(self, tmp_path):
        job = small_job()
        with ServerHarness(tmp_path) as srv:
            ServiceClient(srv.url).submit(job)
            data = raw_exchange(
                srv.url,
                f"GET /jobs/{job.fingerprint()}/events HTTP/1.1\r\n"
                f"Host: test\r\n\r\n".encode(),
            )
        head, _, body = data.partition(b"\r\n\r\n")
        assert b"Connection: close" in head
        assert json.loads(body.splitlines()[-1])["kind"] == "result"

    @pytest.mark.parametrize("request_bytes, status", [
        (b"nonsense\r\n\r\n", b"400"),
        (b"GET /healthz HTTP/1.0\r\n\r\n", b"200"),
        (b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n", b"200"),
    ])
    def test_malformed_and_closing_requests_close(self, tmp_path,
                                                   request_bytes, status):
        with ServerHarness(tmp_path) as srv:
            data = raw_exchange(srv.url, request_bytes)
        assert data.split(b"\r\n", 1)[0].split()[1] == status
        assert b"Connection: close" in data

    def test_shutdown_closes_idle_connections_promptly(self, tmp_path, caplog,
                                                       capfd):
        with caplog.at_level(logging.WARNING):
            with ServerHarness(tmp_path) as srv:
                host, port = srv.url.split("://", 1)[1].rsplit(":", 1)
                idle = http.client.HTTPConnection(host, int(port), timeout=30)
                idle.request("GET", "/healthz")
                response = idle.getresponse()
                response.read()
                assert response.getheader("Connection") == "keep-alive"
                started = time.monotonic()
                with ServiceClient(srv.url) as client:
                    client.shutdown(drain=True)
                srv._thread.join(timeout=30)
                elapsed = time.monotonic() - started
                assert not srv._thread.is_alive()
        assert elapsed < 5.0
        idle.sock.settimeout(5)
        assert idle.sock.recv(1) == b""  # the server closed it
        idle.close()
        assert not [r for r in caplog.records if r.levelno >= logging.ERROR]
        assert "Traceback" not in capfd.readouterr().err


class TestRemoteEngine:
    def test_remote_engine_is_a_drop_in(self, tmp_path):
        with ServerHarness(tmp_path) as srv:
            engine = RemoteEngine(srv.url)
            results = engine.matrix(CFG, ["nw"], ["nosec", "salus"], N, SEED)
            assert engine.stats.simulations == 2
            # warm pass: served from the service's completed records
            results2 = engine.matrix(CFG, ["nw"], ["nosec", "salus"], N, SEED)
            assert engine.stats.simulations == 2
            assert engine.stats.memory_hits == 2
        for key, result in results.items():
            assert results2[key].fingerprint() == result.fingerprint()
        local = small_job("salus").execute()
        assert results[("nw", "salus")].fingerprint() == local.fingerprint()

    def test_run_jobs_reports_outcomes_in_order(self, tmp_path):
        jobs = [small_job(m, seed=61) for m in ("nosec", "baseline")]
        with ServerHarness(tmp_path) as srv:
            engine = RemoteEngine(srv.url)
            outcomes = engine.run_jobs(jobs)
            assert engine.last_outcomes == outcomes
        assert [o.job.model for o in outcomes] == ["nosec", "baseline"]
        assert all(o.ok and o.source == "run" for o in outcomes)

    def test_result_not_matching_the_served_hash_is_rejected(self, tmp_path):
        # The server hands out the hash it carried with the result; the
        # client must still rehash and refuse a result that disagrees.
        job = small_job()
        with ServerHarness(tmp_path) as srv:
            engine = RemoteEngine(srv.url)
            assert engine.run_jobs([job])[0].ok
            record = srv.service.get_record(job.fingerprint())
            record.result_fingerprint = "0" * 64
            outcome = engine.run_jobs([job])[0]
        assert not outcome.ok
        assert "result fingerprint mismatch" in outcome.error
        assert engine.stats.errors == 1

    def test_unreachable_server_is_a_service_error(self):
        engine = RemoteEngine("http://127.0.0.1:1", timeout_s=2)
        from repro.errors import EngineError

        with pytest.raises(EngineError, match="cannot reach job service"):
            engine.run_one(CFG, "nw", "nosec", N, SEED)


class TestServiceQuickSweepReference:
    """ISSUE acceptance: a service-mode quick sweep is fingerprint-identical
    to the recorded BENCH_perf.json reference - remote execution provably
    changes nothing about the results."""

    def test_served_sweep_matches_recorded_fingerprints(self, tmp_path):
        store = json.loads(
            (REPO_ROOT / "BENCH_perf.json").read_text(encoding="utf-8")
        )
        sweep = store["sweeps"]["quick"]
        ref = next(e for e in sweep["entries"] if e["label"] == "post")
        config = SystemConfig.bench()

        with ServerHarness(tmp_path, workers=2, queue_depth=16) as srv:
            engine = RemoteEngine(srv.url)
            results = engine.matrix(
                config, sweep["benches"],
                ["nosec", "baseline", "salus"],
                sweep["accesses"], sweep["seed"],
            )

        assert len(results) == len(ref["jobs"])
        for (bench, model), result in results.items():
            label = f"{bench}/{model}"
            assert result.fingerprint() == ref["jobs"][label]["fingerprint"], (
                f"{label}: service-mode result fingerprint diverged from "
                f"the recorded reference"
            )
        # and the server-side ledger recorded those exact fingerprints
        recorded = {
            e.result_fingerprint for e in RunLedger(tmp_path).entries(source="run")
        }
        assert recorded == {j["fingerprint"] for j in ref["jobs"].values()}


class TestServeCLI:
    def test_parser_accepts_serve_and_server_flags(self):
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args([
            "serve", "--port", "0", "--workers", "3", "--queue-depth", "5",
            "--cache-max-entries", "100", "--cache-ttl", "3600",
        ])
        assert args.func.__name__ == "cmd_serve"
        assert args.workers == 3 and args.cache_max_entries == 100
        args = parser.parse_args(["run", "nw", "--server", "http://x:1"])
        assert args.server == "http://x:1"
        args = parser.parse_args(["runs", "--source", "coalesced"])
        assert args.source == "coalesced"

    def test_cli_run_against_server_is_identical_and_coalesces(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        with ServerHarness(tmp_path) as srv:
            rc = main([
                "run", "nw", "--accesses", str(N), "--seed", str(SEED),
                "--json", "--server", srv.url,
            ])
            assert rc == 0
            payload = json.loads(capsys.readouterr().out)
        assert len(payload) == 3
        for entry in payload:
            assert entry["engine"]["source"] == "run"

    def test_cli_trace_with_server_is_rejected(self, tmp_path, capsys):
        from repro.cli import main

        rc = main([
            "run", "nw", "--server", "http://127.0.0.1:1", "--trace",
        ])
        assert rc == 2
        assert "--trace" in capsys.readouterr().err
