"""A runtime process loads a tier only when it runs that tier.

OpenSSL and the HTTP stack (:data:`footprint.HEAVY_MODULES`) and the socket
plane are for the ``distributed`` backend and the scrape endpoint alone; a
forked pool worker inherits every page its master loaded, so whatever the
master imports for nothing it carries twice.  The master side is checked in
a fresh interpreter — the test process cannot be asked, as ``pytest`` and
``hypothesis`` import ``hashlib`` and ``email`` themselves.  The spawned
``distributed`` worker's side is in ``test_warm_distributed.py``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.runtime import shm

TESTS = Path(__file__).resolve().parents[1]
SRC = TESTS.parent / "src"


def _fresh(script: str) -> dict:
    """Run ``script`` in a new interpreter that sees ``src`` and ``tests`` and
    no ``AOMP_`` variable; return the JSON object it prints last."""
    env = {key: value for key, value in os.environ.items() if not key.startswith("AOMP_")}
    env["PYTHONPATH"] = os.pathsep.join((str(SRC), str(TESTS)))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


#: a script starts with REPORT, may add to ``EXTRA`` and ends with PRINT.
REPORT = "import json, sys\nfrom footprint import SOCKET_PLANE, heavy_loaded\nEXTRA = {}\n"
PRINT = "print(json.dumps({'heavy': heavy_loaded(), 'plane': SOCKET_PLANE in sys.modules, **EXTRA}))\n"


def test_importing_the_library_loads_no_openssl_http_or_socket_plane():
    seen = _fresh(REPORT + "import repro.runtime, aomp, repro.core, repro.jgf, repro.tune\n" + PRINT)
    assert seen == {"heavy": [], "plane": False}


@pytest.mark.skipif(not shm.fork_available(), reason="the pool needs fork")
def test_a_pooled_region_with_metrics_on_loads_none_of_them():
    """Shared arrays, the warm pool, metrics and their snapshot and text
    rendering: every tier a benchmark's master runs, and still none of it."""
    seen = _fresh(
        REPORT
        + "from footprint import LoadedModules\n"
        + "from repro.obs import render_prometheus, stats\n"
        + "from repro.runtime.backend import ProcessBackend\n"
        + "from repro.runtime.config import config_override\n"
        + "from repro.runtime.team import parallel_region\n"
        + "backend, body = ProcessBackend(), LoadedModules(2)\n"
        + "with config_override(metrics=True, metrics_port=None):\n"
        + "    parallel_region(body.run, num_threads=2, backend=backend)\n"
        + "    stats(), render_prometheus()\n"
        + "backend.shutdown()\n"
        + "EXTRA['members'] = body.report()\n"
        + "body.close()\n"
        + PRINT
    )
    # the pool worker is forked from the master, so it has what the master had
    assert seen == {"heavy": [], "plane": False, "members": [[0, 0], [0, 0]]}


def test_a_scrape_port_loads_the_http_stack():
    """The names above are the ones the endpoint really loads: the check is
    not passing because they are misspelt."""
    seen = _fresh(
        REPORT
        + "from repro.obs.exposition import ensure_exporter, stop_exporter\n"
        + "assert ensure_exporter(0) is not None\n"
        + "stop_exporter()\n"
        + PRINT
    )
    assert {"http.server", "http.client", "email"} <= set(seen["heavy"]) and not seen["plane"]
