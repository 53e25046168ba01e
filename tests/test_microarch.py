"""Tests for the microarchitecture activity/power simulator."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, PowerTraceError
from repro.floorplan import ev6_floorplan
from repro.microarch import (
    BimodalPredictor,
    CacheHierarchy,
    IntervalCore,
    MicroarchSimulator,
    PipelineConfig,
    SetAssociativeCache,
    TraceSynthesizer,
    gcc_like_workload,
)
from repro.microarch.core import STRUCTURES, ActivityCounts
from repro.microarch.workload import BRANCH, LOAD, N_CLASSES, Phase, STORE
from tests.microarch_reference import (
    compression_workload,
    fp_intensive_workload,
    memory_bound_workload,
    mix_summary,
    mixed_workload,
)


class TestWorkload:
    def test_chunk_arrays_consistent(self):
        workload = gcc_like_workload(instructions=20_000)
        total = 0
        for phase_index, chunk in workload.chunks(4096):
            n = len(chunk)
            total += n
            assert chunk.pcs.shape == (n,)
            assert chunk.addresses.shape == (n,)
            assert chunk.taken.shape == (n,)
            assert np.all(chunk.classes < N_CLASSES)
            # non-branches are never "taken"
            assert not chunk.taken[chunk.classes != BRANCH].any()
            # only memory ops carry addresses
            is_mem = (chunk.classes == LOAD) | (chunk.classes == STORE)
            assert np.all(chunk.addresses[~is_mem] == 0)
        assert total == workload.total_instructions

    def test_deterministic_for_seed(self):
        a = list(gcc_like_workload(instructions=10_000, seed=5).chunks())
        b = list(gcc_like_workload(instructions=10_000, seed=5).chunks())
        for (pa, ca), (pb, cb) in zip(a, b):
            assert pa == pb
            np.testing.assert_array_equal(ca.classes, cb.classes)
            np.testing.assert_array_equal(ca.addresses, cb.addresses)

    def test_mix_summary_sums_to_one(self):
        mix = mix_summary(gcc_like_workload())
        assert sum(mix.values()) == pytest.approx(1.0)
        # gcc-like = integer-dominated
        assert mix["fp_add"] + mix["fp_mul"] < 0.05

    def test_fp_workload_is_fp_heavy(self):
        mix = mix_summary(fp_intensive_workload())
        assert mix["fp_add"] + mix["fp_mul"] > 0.4

    def test_phase_validation(self):
        with pytest.raises(ConfigurationError):
            Phase((1.0,) * 3, instructions=10)  # wrong mix length
        bad_mix = (0.5, 0.5, 0.0, 0.0, 0.0, 0.0, 0.1)
        with pytest.raises(ConfigurationError):
            Phase(bad_mix, instructions=10)  # does not sum to 1


class TestBpred:
    def test_learns_biased_branches(self):
        predictor = BimodalPredictor(table_bits=10)
        rng = np.random.default_rng(0)
        pcs = np.full(4000, 0x1000, dtype=np.int64)
        taken = rng.random(4000) < 0.95
        wrong = predictor.predict_and_update(pcs, taken)
        # a 95%-taken branch should mispredict near 5%
        assert wrong[500:].mean() < 0.12

    def test_alternating_branch_is_hard(self):
        predictor = BimodalPredictor(table_bits=10)
        pcs = np.full(1000, 0x2000, dtype=np.int64)
        taken = np.arange(1000) % 2 == 0
        wrong = predictor.predict_and_update(pcs, taken)
        assert wrong.mean() > 0.4  # bimodal can't learn alternation

    def test_statistics_accumulate(self):
        predictor = BimodalPredictor()
        predictor.predict_and_update(
            np.array([0, 4], dtype=np.int64), np.array([True, False])
        )
        assert predictor.predictions == 2


class TestCaches:
    def test_repeated_access_hits(self):
        cache = SetAssociativeCache(1024, 64, 2)
        assert not cache.access(0x100)  # cold miss
        assert cache.access(0x100)      # now hot
        assert cache.access(0x13F)      # same 64 B line

    def test_lru_eviction(self):
        cache = SetAssociativeCache(128, 64, 2)  # 1 set, 2 ways
        cache.access(0 * 64)
        cache.access(1 * 64)
        cache.access(0 * 64)      # touch A: B becomes LRU
        cache.access(2 * 64)      # evicts B
        assert cache.access(0 * 64)       # A still resident
        assert not cache.access(1 * 64)   # B was evicted

    def test_streaming_misses(self):
        cache = SetAssociativeCache(4096, 64, 4)
        addresses = np.arange(0, 1 << 20, 64)
        hits = cache.access_block(addresses)
        assert not hits.any()

    def test_geometry_validation(self):
        with pytest.raises(ConfigurationError):
            SetAssociativeCache(1000, 64, 2)  # sets not a power of two
        with pytest.raises(ConfigurationError):
            SetAssociativeCache(1024, 48, 2)  # line not a power of two

    def test_hierarchy_l2_sees_only_l1_misses(self):
        hierarchy = CacheHierarchy(
            l1i=(1024, 64, 2), l1d=(1024, 64, 2), l2=(65536, 64, 4)
        )
        pcs = np.zeros(100, dtype=np.int64)  # all the same line
        data = np.zeros(100, dtype=np.int64)
        stats = hierarchy.simulate_chunk(pcs, data)
        assert stats.l1i_misses == 1
        assert stats.l1d_misses == 1
        assert stats.l2_accesses == 2


class TestCore:
    def make_chunk(self, n=1000):
        workload = gcc_like_workload(instructions=n)
        return next(iter(workload.chunks(n)))[1]

    def test_activity_counts_cover_all_structures(self):
        from repro.microarch.caches import HierarchyStats
        chunk = self.make_chunk()
        stats = HierarchyStats(250, 5, 300, 10, 15, 3)
        activity = IntervalCore().chunk_activity(chunk, stats, 20)
        assert set(activity.accesses) == set(STRUCTURES)
        assert activity.cycles > 0
        assert 0 < activity.ipc < PipelineConfig().width

    def test_misses_add_stall_cycles(self):
        from repro.microarch.caches import HierarchyStats
        chunk = self.make_chunk()
        clean = IntervalCore().chunk_activity(
            chunk, HierarchyStats(250, 0, 300, 0, 0, 0), 0
        )
        dirty = IntervalCore().chunk_activity(
            chunk, HierarchyStats(250, 50, 300, 50, 100, 50), 50
        )
        assert dirty.cycles > clean.cycles
        assert dirty.ipc < clean.ipc

    def test_activity_addition_and_scaling(self):
        a = ActivityCounts(10.0, 5, {"icache": 4.0})
        b = ActivityCounts(20.0, 10, {"icache": 2.0, "l2": 1.0})
        merged = a + b
        assert merged.cycles == 30.0
        assert merged.accesses == {"icache": 6.0, "l2": 1.0}
        half = merged.scaled(0.5)
        assert half.cycles == 15.0
        assert half.accesses["icache"] == 3.0

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            PipelineConfig(width=0)
        with pytest.raises(ConfigurationError):
            PipelineConfig(ilp_efficiency=1.5)


class TestSimulator:
    @pytest.fixture(scope="class")
    def run(self):
        plan = ev6_floorplan()
        simulator = MicroarchSimulator(plan)
        trace = simulator.run(gcc_like_workload(instructions=200_000))
        return plan, simulator, trace

    def test_trace_shape_and_dt(self, run):
        plan, simulator, trace = run
        assert trace.n_blocks == len(plan)
        # 10 kcycle windows at 3 GHz = 3.33 us
        assert trace.dt == pytest.approx(10_000 / 3.0e9)
        assert trace.n_samples > 10

    def test_summary_statistics_realistic(self, run):
        _, simulator, _ = run
        summary = simulator.last_summary
        assert 0.2 < summary.ipc < 4.0
        assert 0.0 < summary.branch_misprediction_rate < 0.25
        assert summary.l1d_miss_rate < 0.2

    def test_gcc_power_structure(self, run):
        plan, _, trace = run
        avg = dict(zip(plan.names, trace.average()))
        density = {n: avg[n] / plan[n].area for n in plan.names}
        # the spatial power structure every thermal figure relies on:
        assert max(density, key=density.get) == "IntReg"
        assert avg["FPAdd"] + avg["FPMul"] < 0.1 * avg["IntExec"]
        assert density["L2"] < 0.1 * density["Dcache"]

    def test_phase_labels_align(self, run):
        _, simulator, trace = run
        labels = simulator.last_window_phases
        assert labels.shape == (trace.n_samples,)
        assert labels.min() == 0

    def test_memory_bound_has_lower_ipc(self):
        plan = ev6_floorplan()
        sim = MicroarchSimulator(plan)
        sim.run(memory_bound_workload(instructions=100_000))
        memory_ipc = sim.last_summary.ipc
        sim2 = MicroarchSimulator(plan)
        sim2.run(gcc_like_workload(instructions=100_000))
        assert memory_ipc < sim2.last_summary.ipc


class TestSynthesis:
    def test_synthesized_length_and_stats(self):
        plan = ev6_floorplan()
        simulator = MicroarchSimulator(plan)
        base = simulator.run(gcc_like_workload(instructions=100_000))
        synth = TraceSynthesizer(base, simulator.last_window_phases, seed=1)
        long_trace = synth.synthesize(duration=0.01)
        assert long_trace.duration >= 0.01 - long_trace.dt
        assert long_trace.dt == base.dt
        # synthesized powers stay within the observed envelope
        assert long_trace.samples.max() <= base.samples.max() + 1e-9
        np.testing.assert_allclose(
            long_trace.average(), base.average(), rtol=0.5
        )

    def test_deterministic(self):
        plan = ev6_floorplan()
        simulator = MicroarchSimulator(plan)
        base = simulator.run(gcc_like_workload(instructions=50_000))
        labels = simulator.last_window_phases
        a = TraceSynthesizer(base, labels, seed=9).synthesize(0.005)
        b = TraceSynthesizer(base, labels, seed=9).synthesize(0.005)
        np.testing.assert_allclose(a.samples, b.samples)

    def test_label_shape_validated(self):
        plan = ev6_floorplan()
        simulator = MicroarchSimulator(plan)
        base = simulator.run(gcc_like_workload(instructions=50_000))
        with pytest.raises(PowerTraceError):
            TraceSynthesizer(base, np.zeros(3, dtype=int))


class TestWorkloadPresets:
    def test_compression_is_branchy_integer(self):
        mix = mix_summary(compression_workload(instructions=10_000))
        assert mix["fp_add"] + mix["fp_mul"] == pytest.approx(0.0, abs=1e-9)
        assert mix["branch"] > 0.12

    def test_compression_harder_to_predict_than_gcc(self):
        plan = ev6_floorplan()
        sim_c = MicroarchSimulator(plan)
        sim_c.run(compression_workload(instructions=100_000))
        sim_g = MicroarchSimulator(plan)
        sim_g.run(gcc_like_workload(instructions=100_000))
        assert sim_c.last_summary.branch_misprediction_rate > \
            sim_g.last_summary.branch_misprediction_rate

    def test_mixed_workload_alternates_fp_and_int_power(self):
        plan = ev6_floorplan()
        simulator = MicroarchSimulator(plan)
        trace = simulator.run(mixed_workload(instructions=200_000))
        labels = simulator.last_window_phases
        fp_power = trace.samples[:, plan.index_of("FPMul")]
        int_power = trace.samples[:, plan.index_of("IntExec")]
        fp_phase = (labels % 2) == 1
        if fp_phase.any() and (~fp_phase).any():
            # FP units burn far more in the FP phases and vice versa
            assert fp_power[fp_phase].mean() > \
                3 * fp_power[~fp_phase].mean()
            assert int_power[~fp_phase].mean() > \
                int_power[fp_phase].mean()
