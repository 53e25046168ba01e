"""Bench: the static analyzer itself.

The analyzer is designed to run on every commit, so its own speed is a
tracked number alongside the physics benches:

(a) cold full-repo run — parse + per-file rules + whole-program link
    for every ``.py`` file under ``src/``;
(b) warm cached rerun — identical inputs, every per-file outcome served
    from the content-addressed cache, must be at least 5x faster
    in-process (the acceptance criterion of the analyzer-v2 issue);
(c) parallel vs serial cold run — recorded, not asserted: at this
    repo's size the process-pool startup can eat the win on small
    runners, and the number is the point.
"""

import os
import time

from repro.analysis.static import analyze_paths

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src")


def _timed(**kwargs):
    start = time.perf_counter()
    result = analyze_paths([SRC], **kwargs)
    return result, time.perf_counter() - start


def test_bench_analyze_cold_warm_parallel(benchmark, tmp_path):
    cache_dir = str(tmp_path / "analysis-cache")
    workers = min(4, os.cpu_count() or 1)

    cold, cold_s = _timed(use_cache=True, cache_dir=cache_dir)
    assert cold.cache_hits == 0

    warm, warm_s = benchmark.pedantic(
        lambda: _timed(use_cache=True, cache_dir=cache_dir),
        rounds=3, iterations=1,
    )

    serial, serial_s = _timed(use_cache=False)
    parallel, parallel_s = _timed(use_cache=False, jobs=workers)

    print(f"\nStatic analyzer over src/ ({cold.files_analyzed} files)")
    print(f"  cold (caching)   {cold_s:7.3f} s")
    print(f"  warm cached      {warm_s:7.3f} s  (speedup {cold_s / warm_s:.1f}x)")
    print(f"  serial no-cache  {serial_s:7.3f} s")
    print(f"  parallel -j{workers}     {parallel_s:7.3f} s  "
          f"(speedup {serial_s / parallel_s:.2f}x)")

    # identical findings on every path
    def key(finding):
        return (finding.path, finding.line, finding.rule, finding.message)

    baseline_keys = sorted(key(f) for _, f in cold.all_pairs)
    for other in (warm, serial, parallel):
        assert sorted(map(key, [f for _, f in other.all_pairs])) == \
            baseline_keys

    # the warm run must be served from the cache, and be >= 5x faster
    assert warm.cache_hits == warm.files_analyzed
    assert warm_s < cold_s / 5.0
    # pool overhead must stay bounded even on a single-core runner
    assert parallel_s < 3.0 * serial_s + 2.0
