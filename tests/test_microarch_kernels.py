"""Exactness of the microarchitecture array kernels.

The LRU caches, the bimodal predictor and stream generation run as
array work; :mod:`tests.microarch_reference` keeps the per-element
loops they replaced.  Every hit flag, counter, stream array, summary
and trace sample must match those loops exactly.
"""

import dataclasses

import numpy as np
import pytest

import repro.microarch.workload as workload_module
from repro.errors import ConfigurationError
from repro.floorplan import ev6_floorplan
from repro.microarch import (
    BimodalPredictor,
    CacheHierarchy,
    MicroarchSimulator,
    SetAssociativeCache,
    gcc_like_workload,
)
from repro.microarch.scan import compose_prefix
from repro.microarch.workload import BRANCH, LOAD, STORE
from tests.microarch_reference import (
    ReferenceCache,
    ReferenceHierarchy,
    ReferencePredictor,
    compression_workload,
    fp_intensive_workload,
    memory_bound_workload,
    mixed_workload,
    reference_generate_chunk,
)

PRESETS = (
    gcc_like_workload,
    fp_intensive_workload,
    compression_workload,
    mixed_workload,
    memory_bound_workload,
)


def _chunks(make, instructions, chunk_size, generator=None, monkeypatch=None):
    """The preset's chunks, optionally from a replacement generator."""
    if generator is None:
        return list(make(instructions=instructions).chunks(chunk_size))
    with monkeypatch.context() as patch:
        patch.setattr(workload_module, "_generate_chunk", generator)
        return list(make(instructions=instructions).chunks(chunk_size))


def _assert_caches_equal(cache, reference):
    np.testing.assert_array_equal(cache._tags, reference._tags)
    assert (cache.accesses, cache.misses) == (
        reference.accesses, reference.misses)


# --- stream generation, caches and predictor, chunk by chunk ---------------


@pytest.mark.parametrize("make", PRESETS, ids=lambda f: f.__name__)
def test_every_chunk_matches_the_reference_loops(make, monkeypatch):
    chunk_size = 8192
    fast = _chunks(make, 60_000, chunk_size)
    slow = _chunks(make, 60_000, chunk_size, reference_generate_chunk,
                   monkeypatch)
    assert len(fast) == len(slow)
    hierarchy, ref_hierarchy = CacheHierarchy(), ReferenceHierarchy()
    predictor, ref_predictor = BimodalPredictor(), ReferencePredictor()
    for (phase, chunk), (ref_phase, ref_chunk) in zip(fast, slow):
        assert phase == ref_phase
        for name in ("classes", "pcs", "addresses", "taken"):
            got, want = getattr(chunk, name), getattr(ref_chunk, name)
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want, err_msg=name)
        is_mem = (chunk.classes == LOAD) | (chunk.classes == STORE)
        stats = hierarchy.simulate_chunk(chunk.pcs[::4],
                                         chunk.addresses[is_mem])
        assert stats == ref_hierarchy.simulate_chunk(
            chunk.pcs[::4], chunk.addresses[is_mem])
        is_branch = chunk.classes == BRANCH
        wrong = predictor.predict_and_update(chunk.pcs[is_branch],
                                             chunk.taken[is_branch])
        np.testing.assert_array_equal(
            wrong, ref_predictor.predict_and_update(chunk.pcs[is_branch],
                                                    chunk.taken[is_branch]))
    for level in ("l1i", "l1d", "l2"):
        _assert_caches_equal(getattr(hierarchy, level),
                             getattr(ref_hierarchy, level))
    np.testing.assert_array_equal(predictor.counters, ref_predictor.counters)


@pytest.mark.parametrize("chunk_size", [1, 2, 3, 17])
def test_tiny_chunks_match_the_reference_generator(chunk_size, monkeypatch):
    fast = _chunks(gcc_like_workload, 400, chunk_size)
    slow = _chunks(gcc_like_workload, 400, chunk_size,
                   reference_generate_chunk, monkeypatch)
    for (_, chunk), (_, ref_chunk) in zip(fast, slow):
        for name in ("classes", "pcs", "addresses", "taken"):
            np.testing.assert_array_equal(getattr(chunk, name),
                                          getattr(ref_chunk, name))


@pytest.mark.parametrize("make", PRESETS, ids=lambda f: f.__name__)
def test_simulation_matches_the_reference_pipeline(make, monkeypatch):
    plan = ev6_floorplan()
    simulator = MicroarchSimulator(plan)
    trace = simulator.run(make(instructions=100_000))
    with monkeypatch.context() as patch:
        patch.setattr(workload_module, "_generate_chunk",
                      reference_generate_chunk)
        reference = MicroarchSimulator(plan, hierarchy=ReferenceHierarchy(),
                                       predictor=ReferencePredictor())
        ref_trace = reference.run(make(instructions=100_000))
    assert dataclasses.asdict(simulator.last_summary) == \
        dataclasses.asdict(reference.last_summary)
    np.testing.assert_array_equal(trace.samples, ref_trace.samples)
    np.testing.assert_array_equal(simulator.last_window_phases,
                                  reference.last_window_phases)


# --- cache edge cases ------------------------------------------------------


def _random_blocks(rng, n_blocks, span, line):
    for _ in range(n_blocks):
        n = int(rng.integers(0, 200))
        yield (rng.integers(0, span, size=n) * line
               + rng.integers(0, line, size=n))


@pytest.mark.parametrize("ways", [1, 2, 3, 8])
@pytest.mark.parametrize("n_sets", [1, 2, 16])
def test_cache_matches_reference_with_warm_state(ways, n_sets):
    rng = np.random.default_rng(ways * 100 + n_sets)
    size = n_sets * ways * 64
    cache = SetAssociativeCache(size, 64, ways)
    reference = ReferenceCache(size, 64, ways)
    # a few more lines than the cache holds, so sets both hit and thrash
    for block in _random_blocks(rng, 8, n_sets * (ways + 2), 64):
        np.testing.assert_array_equal(cache.access_block(block),
                                      reference.access_block(block))
        _assert_caches_equal(cache, reference)


def test_ways_plus_one_tags_thrash_one_set():
    ways = 4
    cache = SetAssociativeCache(64 * 1024, 64, ways)
    # ways + 1 lines that all map to set 0, visited cyclically
    stride = cache.n_sets * 64
    addresses = np.tile(np.arange(ways + 1) * stride, 5)
    hits = cache.access_block(addresses)
    assert not hits.any()
    reference = ReferenceCache(64 * 1024, 64, ways)
    np.testing.assert_array_equal(hits, reference.access_block(addresses))
    _assert_caches_equal(cache, reference)


def test_empty_block_changes_nothing():
    cache = SetAssociativeCache(1024, 64, 2)
    cache.access_block(np.array([0, 64, 128], dtype=np.int64))
    tags = cache._tags.copy()
    hits = cache.access_block(np.array([], dtype=np.int64))
    assert hits.shape == (0,) and hits.dtype == bool
    np.testing.assert_array_equal(cache._tags, tags)
    assert (cache.accesses, cache.misses) == (3, 3)


def test_warm_state_carries_across_blocks():
    cache = SetAssociativeCache(128, 64, 2)  # 1 set, 2 ways
    assert not cache.access_block(np.array([0, 64])).any()
    # both lines stay resident for the next block; a third evicts the LRU
    np.testing.assert_array_equal(
        cache.access_block(np.array([0, 64, 128, 64, 0])),
        [True, True, False, True, False])


def test_l2_sees_instruction_misses_before_data_misses():
    # a one-way, one-set L2 remembers only the last line it saw
    hierarchy = CacheHierarchy(l1i=(1024, 64, 2), l1d=(1024, 64, 2),
                               l2=(64, 64, 1))
    stats = hierarchy.simulate_chunk(np.array([0]), np.array([4096]))
    assert (stats.l2_accesses, stats.l2_misses) == (2, 2)
    assert hierarchy.l2._tags[0, 0] == 4096 // 64


# --- predictor and prefix composition --------------------------------------


@pytest.mark.parametrize("table_bits", [4, 6, 12])
def test_predictor_matches_reference_with_aliasing(table_bits):
    rng = np.random.default_rng(table_bits)
    predictor = BimodalPredictor(table_bits)
    reference = ReferencePredictor(table_bits)
    for _ in range(6):
        n = int(rng.integers(0, 500))
        # few distinct PCs, many of them aliasing the same entry
        pcs = rng.integers(0, 1 << (table_bits + 3), size=n) * 4
        taken = rng.random(n) < rng.random()
        np.testing.assert_array_equal(
            predictor.predict_and_update(pcs, taken),
            reference.predict_and_update(pcs, taken))
        np.testing.assert_array_equal(predictor.counters, reference.counters)
    assert predictor.mispredictions == reference.mispredictions


def test_compose_prefix_matches_a_sequential_fold():
    rng = np.random.default_rng(7)
    tables = rng.integers(0, 3, size=(40, 3))
    starts = np.repeat([0, 5, 6, 30], [5, 1, 24, 10])
    out = compose_prefix(tables, starts)
    for i in range(len(tables)):
        for x in range(3):
            state = x
            for row in range(starts[i], i + 1):
                state = tables[row, state]
            assert out[i, x] == state
    assert compose_prefix(tables[:0], starts[:0]).shape == (0, 3)


# --- input validation ------------------------------------------------------


def test_cold_cache_rejects_negative_address():
    # -1 once matched the invalid-way marker and reported a hit
    cache = SetAssociativeCache(64 * 1024, 64, 2)
    with pytest.raises(ConfigurationError):
        cache.access(-1)
    with pytest.raises(ConfigurationError):
        cache.access_block(np.array([0, 64, -64]))
    assert (cache.accesses, cache.misses) == (0, 0)


@pytest.mark.parametrize("addresses", [
    [1.7e3, 2.9],                      # floats were silently truncated
    np.array([[0, 64], [128, 192]]),   # 2-D
    np.array([True, False]),
], ids=["float", "2-D", "bool"])
def test_cache_rejects_non_integer_or_non_1d_blocks(addresses):
    cache = SetAssociativeCache(1024, 64, 2)
    with pytest.raises(ConfigurationError):
        cache.access_block(addresses)


@pytest.mark.parametrize("pcs, taken", [
    (np.zeros((2, 3), dtype=np.int64), np.zeros((2, 3), dtype=bool)),
    (np.array([0.0, 4.0]), np.array([True, False])),
    (np.array([0, 4]), np.array([True, False, True])),
], ids=["2-D", "float-pcs", "misaligned"])
def test_predictor_rejects_malformed_branches(pcs, taken):
    predictor = BimodalPredictor()
    with pytest.raises(ConfigurationError):
        predictor.predict_and_update(pcs, taken)
    assert predictor.predictions == 0
