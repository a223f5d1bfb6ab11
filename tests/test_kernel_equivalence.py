"""The dual-engine contract: scalar and batched kernels are bit-identical.

Three layers of evidence, mirroring how the batched engine is built:

1. unit equivalence of the vectorized primitives the engine uses against
   their scalar twins (shard maps and the fabric page tables built from
   them, trace fingerprints and dense columns) and of the memoized BMT
   walk steps;
2. whole-run equivalence - identical ``RunResult.to_dict()`` trees and
   fingerprints - across security models, device counts, fill
   granularities, and hypothesis-generated workload shapes;
3. harness equivalence - the experiment engine and run ledger record the
   same fingerprints whichever kernel executed the job.
"""

import json
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.address import ShardMap
from repro.config import SystemConfig
from repro.errors import ConfigError
from repro.harness.runner import run_model
from repro.kernel import KERNEL_ENV_VAR, numpy_or_none, resolve_kernel
from repro.metadata.bmt import BMTGeometry
from repro.security.fabric import MemoryFabric
from repro.sim.stats import StatRegistry
from repro.workloads.generators import WorkloadSpec, generate_trace
from repro.workloads.suite import build_trace

np = numpy_or_none()
pytestmark = pytest.mark.skipif(np is None, reason="batched kernel needs numpy")

CFG = SystemConfig.small()


# -- kernel resolution --------------------------------------------------------

class TestResolveKernel:
    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV_VAR, "batched")
        assert resolve_kernel("scalar") == "scalar"

    def test_env_beats_default(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV_VAR, "scalar")
        assert resolve_kernel() == "scalar"

    def test_auto_resolves_to_batched_with_numpy(self, monkeypatch):
        monkeypatch.delenv(KERNEL_ENV_VAR, raising=False)
        assert resolve_kernel("auto") == "batched"
        assert resolve_kernel() == "batched"

    def test_empty_env_means_default(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV_VAR, "")
        assert resolve_kernel() in ("scalar", "batched")

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigError):
            resolve_kernel("simd")

    def test_case_and_whitespace_normalized(self):
        assert resolve_kernel("  Scalar ") == "scalar"


# -- trace fingerprints -------------------------------------------------------

class TestTraceFingerprint:
    def test_numpy_and_struct_paths_agree(self, monkeypatch):
        trace = build_trace("nw", n_accesses=700, seed=3,
                            num_sms=CFG.gpu.num_sms)
        vectorized = trace.fingerprint()
        import repro.workloads.trace as trace_mod

        monkeypatch.setattr(trace_mod, "numpy_or_none", lambda: None)
        assert trace.fingerprint() == vectorized

    def test_dense_view_matches_requests(self):
        trace = build_trace("kmeans", n_accesses=400, seed=5,
                            num_sms=CFG.gpu.num_sms)
        d = trace.dense()
        assert len(d) == len(trace)
        for i, req in enumerate(trace.requests):
            assert int(d.addrs[i]) == req.cxl_addr
            assert int(d.is_write[i]) == (1 if req.is_write else 0)
            assert int(d.sm_id[i]) == req.sm
            assert int(d.warp[i]) == req.warp
        assert d.ts.tolist() == list(range(len(trace)))

    def test_dense_cache_invalidates_on_growth(self):
        trace = build_trace("nw", n_accesses=100, seed=1,
                            num_sms=CFG.gpu.num_sms)
        first = trace.dense()
        trace.requests.append(trace.requests[0])
        assert len(trace.dense()) == len(first) + 1


# -- address-layer batch queries ----------------------------------------------

class TestShardBatchQueries:
    @pytest.mark.parametrize("policy", ["page", "range"])
    @pytest.mark.parametrize("devices", [1, 2, 4])
    def test_home_and_local_match_scalar(self, policy, devices):
        shard = ShardMap(geometry=CFG.geometry, num_devices=devices,
                         policy=policy, total_pages=1000)
        pages = list(range(0, 1000, 7)) + [0, 999]
        homes = shard.home_of_pages(pages)
        locals_ = shard.local_pages(pages)
        for i, page in enumerate(pages):
            assert int(homes[i]) == shard.home_of_page(page)
            assert int(locals_[i]) == shard.local_page(page)

    def test_negative_page_rejected(self):
        from repro.errors import AddressError

        shard = ShardMap(geometry=CFG.geometry, num_devices=2)
        with pytest.raises(AddressError):
            shard.home_of_pages([3, -1])

    def test_fabric_page_tables_match_shard(self):
        config = CFG.with_cxl_devices(4)
        fabric = MemoryFabric(config, 128, StatRegistry())
        for page in range(128):
            assert fabric.home_of_page(page) == fabric.shard.home_of_page(page)
            assert fabric.local_page(page) == fabric.shard.local_page(page)


# -- metadata walk tables -----------------------------------------------------

class TestMetadataWalkTables:
    def test_bmt_path_steps(self):
        for leaves in (1, 8, 64, 100, 512):
            geom = BMTGeometry(num_leaves=leaves)
            for leaf in range(leaves):
                steps = [
                    (geom.node_ordinal(lv, ix) // 2,
                     (geom.node_ordinal(lv, ix) % 2) * 2)
                    for lv, ix in geom.path(leaf)
                ]
                assert list(geom.path_steps(leaf)) == steps


# -- whole-run equivalence ----------------------------------------------------

def _pair(config, trace, model):
    a = run_model(config, trace, model, kernel="scalar")
    b = run_model(config, trace, model, kernel="batched")
    return a, b


def _assert_identical(a, b):
    assert a.fingerprint() == b.fingerprint()
    assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(
        b.to_dict(), sort_keys=True
    )


class TestRunEquivalence:
    @pytest.mark.parametrize("model", ["nosec", "baseline", "salus"])
    def test_models_identical(self, model):
        trace = build_trace("backprop", n_accesses=1500, seed=7,
                            num_sms=CFG.gpu.num_sms)
        _assert_identical(*_pair(CFG, trace, model))

    @pytest.mark.parametrize("devices", [2, 4])
    def test_multi_device_identical(self, devices):
        config = CFG.with_cxl_devices(devices)
        trace = build_trace("kmeans", n_accesses=1200, seed=11,
                            num_sms=config.gpu.num_sms)
        for model in ("nosec", "salus"):
            _assert_identical(*_pair(config, trace, model))

    def test_migration_heavy_identical(self):
        # bfs streams far beyond device capacity -> constant fills/evicts,
        # exercising the batched engine's fallback seams hardest.
        trace = build_trace("bfs", n_accesses=2000, seed=3,
                            num_sms=CFG.gpu.num_sms)
        for model in ("nosec", "baseline", "salus"):
            _assert_identical(*_pair(CFG, trace, model))

    def test_chunk_fill_granularity_identical(self):
        config = SystemConfig.small(
            gpu=replace(CFG.gpu, fill_granularity="chunk")
        )
        trace = build_trace("backprop", n_accesses=1200, seed=7,
                            num_sms=config.gpu.num_sms)
        _assert_identical(*_pair(config, trace, "salus"))

    def test_out_of_range_raises_identically(self):
        from repro.errors import TraceError
        from repro.workloads.trace import Trace
        from repro.memsys.request import Access, MemoryRequest

        good = MemoryRequest(cxl_addr=0, access=Access.READ)
        bad = MemoryRequest(
            cxl_addr=10**12, access=Access.READ
        )
        trace = Trace(name="bad", footprint_pages=8, compute_per_mem=0,
                      requests=[good, good, bad, good])
        from repro.gpu.gpusim import GpuSim
        from repro.harness.runner import model_factory

        messages = []
        for kernel in ("scalar", "batched"):
            sim = GpuSim(CFG, 8, model_factory("nosec"))
            with pytest.raises(TraceError) as err:
                sim.run(trace, kernel=kernel)
            messages.append(str(err.value))
            # The valid prefix was processed before the raise.
            assert sum(sm.instructions for sm in sim.sms) == 2
        assert messages[0] == messages[1]


spec_strategy = st.builds(
    WorkloadSpec,
    name=st.just("keq"),
    footprint_pages=st.sampled_from([48, 96, 160]),
    chunk_coverage=st.floats(min_value=0.15, max_value=1.0),
    concurrent_pages=st.integers(1, 12),
    write_fraction=st.floats(min_value=0.0, max_value=0.6),
    sectors_per_chunk_touched=st.integers(2, 8),
    reuse=st.integers(1, 3),
    compute_per_mem=st.integers(0, 8),
    page_order=st.sampled_from(["stream", "tiled", "zipf"]),
)


@given(spec=spec_strategy, seed=st.integers(0, 4),
       model=st.sampled_from(["nosec", "baseline", "salus"]))
@settings(max_examples=10, deadline=None)
def test_random_traces_identical(spec, seed, model):
    trace = generate_trace(spec, 900, seed=seed, num_sms=CFG.gpu.num_sms)
    _assert_identical(*_pair(CFG, trace, model))


# -- harness equivalence ------------------------------------------------------

class TestHarnessEquivalence:
    def test_engine_and_ledger_agree_across_kernels(self, tmp_path):
        from repro.harness.engine import ExperimentEngine, SimJob
        from repro.harness.ledger import RunLedger

        fingerprints = {}
        for kernel in ("scalar", "batched"):
            cache_dir = tmp_path / kernel
            engine = ExperimentEngine(cache_dir=cache_dir, kernel=kernel)
            job = SimJob.of(CFG, "nw", "salus", 800, 7)
            result = engine.map([job])[job]
            fingerprints[kernel] = result.fingerprint()
            entries = RunLedger(cache_dir).entries()
            assert entries[0].result_fingerprint == result.fingerprint()
        assert fingerprints["scalar"] == fingerprints["batched"]

    def test_kernel_not_in_job_fingerprint(self):
        # Same cache slot for both kernels: a batched run may be served by
        # a scalar-produced entry, which is exactly the contract.
        from repro.harness.engine import SimJob

        job = SimJob.of(CFG, "nw", "salus", 800, 7)
        twin = SimJob.of(CFG, "nw", "salus", 800, 7)
        assert job.fingerprint() == twin.fingerprint()

    def test_compare_harness_reports_match(self):
        from repro.harness.compare import compare_kernels

        rows = compare_kernels("scalar", "batched", accesses=300,
                               benches=("nw",), models=("nosec", "salus"))
        assert len(rows) == 2
        assert all(row["match"] for row in rows)

    def test_cli_kernel_flag_and_compare(self, tmp_path, capsys):
        from repro.cli import main

        rc = main(["run", "nw", "--accesses", "300", "--models", "nosec",
                   "--kernel", "batched", "--no-cache", "--json"])
        assert rc == 0
        batched_out = json.loads(capsys.readouterr().out)
        rc = main(["run", "nw", "--accesses", "300", "--models", "nosec",
                   "--kernel", "scalar", "--no-cache", "--json"])
        assert rc == 0
        scalar_out = json.loads(capsys.readouterr().out)
        for entry in (*batched_out, *scalar_out):
            entry.pop("engine", None)
        assert batched_out == scalar_out

    def test_cli_perf_compare_smoke(self, capsys):
        from repro.cli import main

        rc = main(["perf", "--compare", "scalar", "batched",
                   "--compare-accesses", "200"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "bit-identical across kernels" in out
