"""Append-only JSONL result cache keyed by canonical parameter hashes.

A cache key is the sha256 of the canonical JSON serialization of
(command, parameters, tolerances, code version), so any change to inputs or
to the package version misses cleanly.  Records are appended as one JSON
object per line through one handle per cache, flushed after each record, so
a run that is killed keeps every record it finished; corrupt lines are
skipped with a warning instead of failing the run.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
from pathlib import Path
from typing import Any, Optional

log = logging.getLogger(__name__)

ENV_CACHE_DIR = "MEANFORCE_CACHE_DIR"
_CACHE_FILE = "results.jsonl"

# json.dumps with keyword arguments builds an encoder per call: reuse two
_KEY_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                                allow_nan=False)
_LINE_ENCODER = json.JSONEncoder(sort_keys=True)


def canonical_key(payload: dict) -> str:
    """sha256 hex digest of the sorted-key JSON form of payload."""
    blob = _KEY_ENCODER.encode(payload)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class ResultCache:
    """File-backed record store with in-memory index.

    Pass path=None to disable caching (get always misses, put is a no-op).
    """

    def __init__(self, path: Optional[str]):
        self.path = Path(path) / _CACHE_FILE if path else None
        self._index: dict[str, Any] = {}
        self._fh = None
        self.hits = 0
        self.misses = 0
        if self.path is not None and self.path.exists():
            self._load()

    def _load(self) -> None:
        with open(self.path) as fh:
            for ln, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                    self._index[rec["key"]] = rec["value"]
                except (json.JSONDecodeError, KeyError, TypeError):
                    log.warning("skipping corrupt cache line %d in %s",
                                ln, self.path)

    def get(self, key: str):
        if key in self._index:
            self.hits += 1
            return self._index[key]
        self.misses += 1
        return None

    def put(self, key: str, value) -> None:
        if key in self._index:
            return
        self._index[key] = value
        if self.path is None:
            return
        if self._fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = open(self.path, "a")
        line = _LINE_ENCODER.encode({"key": key, "value": value})
        self._fh.write(line + "\n")
        self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "ResultCache":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def default_cache_dir(explicit: Optional[str] = None) -> Optional[str]:
    """Resolve the cache directory: explicit flag, then environment."""
    if explicit:
        return explicit
    return os.environ.get(ENV_CACHE_DIR) or None
