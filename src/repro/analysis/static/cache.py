"""Content-addressed per-file analysis cache.

A file's analysis outcome — raw per-file findings plus its
:class:`~repro.analysis.static.callgraph.ModuleSummary` — depends only
on the file's bytes and the analyzer configuration (the units tables,
the material constants, the obs taxonomy, and the rule set).  Both are
hashed into the cache key, so a warm run re-parses nothing: it loads
JSON payloads and goes straight to the whole-program pass.  Editing a
file, or any configuration table, changes the key and transparently
re-analyzes.

Same layout discipline as the campaign result cache: one JSON file per
entry under a fan-out directory, atomic ``os.replace`` writes so a
killed run never leaves a torn entry, corrupt entries treated as
misses.  Override the location with ``--cache-dir`` or
``REPRO_ANALYZE_CACHE_DIR``; disable with ``--no-cache``.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from typing import Dict, Optional

#: Bump to invalidate every cached outcome (e.g. when a rule changes).
ANALYSIS_CACHE_VERSION = 4

_ENV_CACHE_DIR = "REPRO_ANALYZE_CACHE_DIR"


def default_cache_dir() -> str:
    """Resolve the cache root: env override, else ``~/.cache``."""
    env = os.environ.get(_ENV_CACHE_DIR)
    if env:
        return env
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = xdg if xdg else os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "repro-analyze")


def config_fingerprint() -> str:
    """Hash of everything that invalidates cached outcomes globally."""
    from ... import units
    from ...obs import taxonomy
    from .core import rule_names
    from .rules_units import material_constants

    payload = json.dumps(
        {
            "version": ANALYSIS_CACHE_VERSION,
            "dimensions": units.DIMENSIONS,
            "attributes": units.ATTRIBUTE_DIMENSIONS,
            # R1's magic-number check reads these values: a
            # recalibrated material must re-judge every cached file
            "materials": {
                symbol: value
                for value, symbol in material_constants().items()
            },
            "spans": sorted(taxonomy.SPAN_NAMES),
            "metrics": sorted(taxonomy.METRIC_NAMES),
            "prefixes": list(taxonomy.METRIC_PREFIXES),
            "rules": rule_names(),
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def outcome_key(text: str, config: str) -> str:
    """Cache key for one file's analysis outcome."""
    digest = hashlib.sha256()
    digest.update(config.encode("utf-8"))
    digest.update(b"\x00")
    digest.update(text.encode("utf-8"))
    return digest.hexdigest()


class AnalysisCache:
    """Disk store mapping outcome keys to JSON payloads."""

    def __init__(self, root: Optional[str] = None) -> None:
        self.root = root if root else default_cache_dir()

    def _entry_path(self, key: str) -> str:
        return os.path.join(self.root, "files", key[:2], f"{key}.json")

    def probe(self, key: str) -> Optional[Dict[str, object]]:
        """Load a cached outcome; any corruption is a miss."""
        path = self._entry_path(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            return None
        if not isinstance(payload, dict):
            return None
        return payload

    def store(self, key: str, payload: Dict[str, object]) -> None:
        """Atomically persist one outcome (best effort: IO errors pass)."""
        path = self._entry_path(key)
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=os.path.dirname(path), suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    json.dump(payload, handle, separators=(",", ":"))
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError:
            pass
