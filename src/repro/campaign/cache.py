"""Content-addressed on-disk result store.

Results are keyed by the SHA-256 of the job spec that produced them
(see :mod:`repro.campaign.spec`): re-running any campaign with
unchanged inputs short-circuits the solves entirely.  Each entry is a
small JSON sidecar (scalars + metadata) plus an optional ``.npz`` of
arrays, written atomically (temp file + ``os.replace``) so concurrent
workers never observe half-written entries.

The same store also holds named :class:`~repro.power.PowerTrace`
objects — the functional-simulation traces of
:mod:`repro.experiments.common` — so the microarchitectural simulation
runs once per machine, not once per process.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    TYPE_CHECKING, Any, Dict, Iterator, Optional, Union,
)

try:
    import fcntl
except ImportError:  # non-POSIX: counter updates fall back to lock-free
    fcntl = None  # type: ignore[assignment]

if TYPE_CHECKING:
    from ..power.trace import PowerTrace

import numpy as np

from .. import obs

#: Environment knobs: ``REPRO_CACHE_DIR`` relocates the store,
#: ``REPRO_DISK_CACHE=0`` disables it (solves always recompute).
CACHE_DIR_ENV = "REPRO_CACHE_DIR"
DISK_CACHE_ENV = "REPRO_DISK_CACHE"


def default_cache_dir() -> str:
    """The store location: ``$REPRO_CACHE_DIR`` or ``~/.cache/repro-campaign``."""
    configured = os.environ.get(CACHE_DIR_ENV)
    if configured:
        return configured
    return os.path.join(os.path.expanduser("~"), ".cache", "repro-campaign")


def disk_cache_enabled() -> bool:
    """Whether the machine-wide disk cache is enabled (default yes)."""
    return os.environ.get(DISK_CACHE_ENV, "1") != "0"


@dataclass(eq=False)
class JobResult:
    """What a campaign job returns: scalars, arrays, and metadata.

    Deliberately plain data — picklable across the process pool and
    serializable to JSON + ``.npz`` — rather than the rich per-figure
    result objects, which the experiment modules reassemble from it.
    """

    scalars: Dict[str, float] = field(default_factory=dict)
    arrays: Dict[str, np.ndarray] = field(default_factory=dict)
    meta: Dict[str, Any] = field(default_factory=dict)

    def same_values(self, other: "JobResult") -> bool:
        """Exact (bitwise) equality of all payloads, for tests."""
        return (
            self.scalars == other.scalars
            and self.meta == other.meta
            and set(self.arrays) == set(other.arrays)
            and all(
                np.array_equal(self.arrays[k], other.arrays[k])
                for k in self.arrays
            )
        )


class ResultCache:
    """A content-addressed store of :class:`JobResult` and traces."""

    #: Counter names tracked per instance and persisted per store.
    COUNTER_NAMES = (
        "hits", "misses", "stores", "evictions",
        "trace_hits", "trace_misses", "trace_stores",
    )

    def __init__(self, root: Union[str, os.PathLike]) -> None:
        self.root = Path(root)
        self._results = self.root / "results"
        self._traces = self.root / "traces"
        self._results.mkdir(parents=True, exist_ok=True)
        self._traces.mkdir(parents=True, exist_ok=True)
        #: Session-local op counts (this instance only); the lifetime
        #: totals live in ``counters.json`` under the store root.
        self.counters: Dict[str, int] = {name: 0 for name in self.COUNTER_NAMES}

    # -- atomic file helpers ------------------------------------------------

    @staticmethod
    def _atomic_write(path: Path, payload: bytes) -> None:
        tmp = path.with_suffix(path.suffix + f".{os.getpid()}.tmp")
        tmp.write_bytes(payload)
        os.replace(tmp, path)

    # -- hit/miss accounting ------------------------------------------------

    def _counters_path(self) -> Path:
        return self.root / "counters.json"

    def persisted_counters(self) -> Dict[str, int]:
        """Lifetime op counts of this store (best effort, cross-process)."""
        try:
            data = json.loads(self._counters_path().read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return {}
        return {str(k): int(v) for k, v in data.items()
                if isinstance(v, (int, float))}

    @contextlib.contextmanager
    def _counters_lock(self) -> Iterator[None]:
        """Advisory cross-process lock for the counters read-modify-write.

        ``flock`` on a sidecar lockfile serializes concurrent campaigns'
        increments; where ``fcntl`` is unavailable the update degrades
        to the old lock-free best effort.
        """
        if fcntl is None:
            yield
            return
        lock_path = self.root / "counters.json.lock"
        with open(lock_path, "a", encoding="utf-8") as handle:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)

    def _bump(self, name: str, n: int = 1) -> None:
        """Count one cache event: session, global metrics, and on disk.

        The on-disk update is a read-modify-write under an advisory
        file lock (:meth:`_counters_lock`) plus an atomic temp-file
        replace, so two concurrent campaigns bumping the same store
        can interleave without either losing an increment.
        """
        self.counters[name] = self.counters.get(name, 0) + n
        obs.metrics().counter(f"campaign.cache.{name}").inc(n)
        try:
            with self._counters_lock():
                totals = self.persisted_counters()
                totals[name] = totals.get(name, 0) + n
                self._atomic_write(
                    self._counters_path(),
                    json.dumps(totals, sort_keys=True).encode("utf-8"),
                )
        except OSError:  # read-only store: session counters still work
            pass

    # -- job results --------------------------------------------------------

    def _json_path(self, key: str) -> Path:
        return self._results / f"{key}.json"

    def _npz_path(self, key: str) -> Path:
        return self._results / f"{key}.npz"

    def contains(self, key: str) -> bool:
        """Whether a result for ``key`` is stored (JSON sidecar present)."""
        return self._json_path(key).exists()

    def put(self, key: str, result: JobResult) -> None:
        """Store one result under its content hash (atomic)."""
        sidecar = {
            "scalars": result.scalars,
            "meta": result.meta,
            "array_names": sorted(result.arrays),
        }
        if result.arrays:
            import io

            buffer = io.BytesIO()
            np.savez(buffer, **result.arrays)
            self._atomic_write(self._npz_path(key), buffer.getvalue())
        self._atomic_write(
            self._json_path(key),
            json.dumps(sidecar, sort_keys=True).encode("utf-8"),
        )
        self._bump("stores")

    def get(self, key: str) -> Optional[JobResult]:
        """Load one result, or ``None`` on a miss or corrupt entry."""
        path = self._json_path(key)
        try:
            sidecar = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            self._bump("misses")
            return None
        arrays: Dict[str, np.ndarray] = {}
        names = sidecar.get("array_names", [])
        if names:
            try:
                with np.load(self._npz_path(key), allow_pickle=False) as data:
                    arrays = {name: data[name] for name in names}
            except (OSError, ValueError, KeyError):
                self._bump("misses")
                return None  # sidecar without its arrays: treat as miss
        self._bump("hits")
        return JobResult(
            scalars=dict(sidecar.get("scalars", {})),
            arrays=arrays,
            meta=dict(sidecar.get("meta", {})),
        )

    # -- power traces -------------------------------------------------------

    def _trace_path(self, name: str) -> Path:
        digest = hashlib.sha256(name.encode("utf-8")).hexdigest()
        return self._traces / f"{digest}.npz"

    def put_trace(self, name: str, trace: "PowerTrace") -> None:
        """Store a :class:`~repro.power.PowerTrace` under a string key."""
        import io

        buffer = io.BytesIO()
        np.savez(
            buffer,
            key=np.array(name),
            samples=trace.samples,
            dt=np.array(trace.dt),
            block_names=np.array(trace.block_names),
        )
        self._atomic_write(self._trace_path(name), buffer.getvalue())
        self._bump("trace_stores")

    def get_trace(self, name: str) -> Optional["PowerTrace"]:
        """Load a stored trace, or ``None`` on a miss/corrupt entry."""
        from ..power.trace import PowerTrace

        path = self._trace_path(name)
        try:
            with np.load(path, allow_pickle=False) as data:
                if str(data["key"]) != name:  # hash collision guard
                    self._bump("trace_misses")
                    return None
                loaded = PowerTrace(
                    [str(n) for n in data["block_names"]],
                    np.asarray(data["samples"], dtype=float),
                    float(data["dt"]),
                )
        except (OSError, ValueError, KeyError):
            self._bump("trace_misses")
            return None
        self._bump("trace_hits")
        return loaded

    # -- maintenance --------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """Entry counts and on-disk footprint, for ``campaign status``."""
        results = list(self._results.glob("*.json"))
        traces = list(self._traces.glob("*.npz"))
        size = sum(
            f.stat().st_size
            for d in (self._results, self._traces)
            for f in d.iterdir()
            if f.is_file()
        )
        return {
            "root": str(self.root),
            "n_results": len(results),
            "n_traces": len(traces),
            "bytes": size,
            "counters": dict(self.counters),
            "lifetime_counters": self.persisted_counters(),
        }

    def clear(self) -> int:
        """Delete every stored entry; returns how many files went away."""
        removed = 0
        for directory in (self._results, self._traces):
            for path in directory.iterdir():
                if path.is_file():
                    path.unlink()
                    removed += 1
        if removed:
            self._bump("evictions", removed)
        return removed


def machine_cache() -> Optional[ResultCache]:
    """The machine-wide cache, or ``None`` when disabled/uncreatable."""
    if not disk_cache_enabled():
        return None
    try:
        return ResultCache(default_cache_dir())
    except OSError:
        return None
