"""Persistent storage for adaptive-scheduling decisions.

Converged tunings are written to a small JSON document so a warmed process
(or a worker process forked before any tuning happened) starts from the
previous run's decisions instead of re-exploring.  The file is advisory: a
missing, unreadable or schema-incompatible cache is treated as empty, and
writes are atomic (temp file + ``os.replace``) so a crashed writer can never
leave a truncated document behind.

Document schema (``schema_version`` 1)::

    {
      "schema_version": 1,
      "generated_by": "repro.tune",
      "sites": {
        "MolDyn.compute_forces|11|4|threads": {
          "schedule": "static_cyclic",   # Schedule value, or "serial"
          "chunk": 1,
          "serial": false,
          "best_seconds": 0.0123,
          "invocations": 9
        },
        ...
      }
    }

Site keys are ``loop-name|trip-count-bucket|team-size|backend`` — the same
key the in-memory tuner uses (:meth:`repro.tune.tuner.SiteKey.cache_key`;
a site that never learned its backend keeps the older three-field key).
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any, Mapping

SCHEMA_VERSION = 1


def load_cache(path: "str | os.PathLike | None") -> dict[str, dict[str, Any]]:
    """Read the cached site entries, or ``{}`` for missing/invalid documents."""
    if path is None:
        return {}
    try:
        document = json.loads(Path(path).read_text())
    except (OSError, ValueError):
        return {}
    if not isinstance(document, dict) or document.get("schema_version") != SCHEMA_VERSION:
        return {}
    sites = document.get("sites")
    if not isinstance(sites, dict):
        return {}
    entries: dict[str, dict[str, Any]] = {}
    for key, entry in sites.items():
        if isinstance(key, str) and isinstance(entry, dict) and "schedule" in entry:
            entries[key] = dict(entry)
    return entries


def save_cache(path: "str | os.PathLike", sites: Mapping[str, Mapping[str, Any]]) -> None:
    """Atomically write the site entries to ``path`` (parents created)."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    document = {
        "schema_version": SCHEMA_VERSION,
        "generated_by": "repro.tune",
        "sites": {key: dict(entry) for key, entry in sites.items()},
    }
    fd, temp_name = tempfile.mkstemp(dir=target.parent, prefix=target.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            json.dump(document, handle, indent=1, sort_keys=True)
            handle.write("\n")
        os.replace(temp_name, target)
    except BaseException:
        try:
            os.unlink(temp_name)
        except OSError:
            pass
        raise
