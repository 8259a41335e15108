#!/usr/bin/env python
"""Run the always-on compute service (``src/repro/service``) as a process.

Quick start::

    AOMP_METRICS=1 AOMP_METRICS_PORT=9464 \
    PYTHONPATH=src python scripts/aomp_serve.py --port 9465 --workers 2 &
    python - <<'EOF'
    from repro.service.client import ServiceClient
    with ServiceClient("127.0.0.1", 9465) as client:
        print(client.submit("series", size="tiny", wait=True))
    EOF

Configuration comes from ``AOMP_SERVICE_*`` (see ``repro/service/config.py``)
with flags overriding the environment.  The service prints one
``listening host:port`` line to stdout once ready (CI waits on it), and a
SIGTERM or SIGINT starts a graceful drain on a thread of its own, which the
main thread waits for: no new admissions, in-flight requests finish
(bounded by ``--drain-timeout``, then cancelled through the team-abort
path), pools and the metrics endpoint shut down, exit code 0.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import threading
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.service.config import ServiceConfig  # noqa: E402  (path set up above)
from repro.service.server import ComputeService  # noqa: E402


def build_config(argv: "list[str] | None" = None) -> ServiceConfig:
    defaults = ServiceConfig()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--host", default=defaults.host, help="bind address (default: %(default)s)")
    parser.add_argument("--port", type=int, default=defaults.port, help="listen port; 0 = ephemeral")
    parser.add_argument("--workers", type=int, default=defaults.workers, help="dispatch workers")
    parser.add_argument("--queue", type=int, default=defaults.queue_limit, help="admission queue bound")
    parser.add_argument("--tenant-cap", type=int, default=defaults.tenant_cap, help="per-tenant running cap")
    parser.add_argument("--backend", default=defaults.backend, help="execution backend ('' = AOMP_BACKEND)")
    parser.add_argument("--tune-dir", default=defaults.tune_dir, help="per-tenant tune-cache directory")
    parser.add_argument("--num-threads", type=int, default=defaults.num_threads, help="team size per request")
    parser.add_argument(
        "--drain-timeout", type=float, default=defaults.drain_timeout,
        help="seconds a drain waits for in-flight requests before cancelling them",
    )
    args = parser.parse_args(argv)
    return defaults.with_overrides(
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_limit=args.queue,
        tenant_cap=args.tenant_cap,
        backend=args.backend,
        tune_dir=args.tune_dir,
        num_threads=args.num_threads,
        drain_timeout=args.drain_timeout,
    )


def main(argv: "list[str] | None" = None) -> int:
    service = ComputeService(build_config(argv))
    host, port = service.start()
    draining = False

    def drain(signame: str) -> None:
        try:
            print(f"{signame} received; draining", flush=True)
        except OSError:
            pass  # the launcher's end of stdout is gone: drain all the same
        service.drain()

    def request_drain(signum: int, _frame: object) -> None:
        # The handler runs on the main thread, maybe inside one of its own
        # prints: it starts the drain and writes nothing itself.
        nonlocal draining
        if draining:
            return
        draining = True
        threading.Thread(
            target=drain, args=(signal.Signals(signum).name,), name="aomp-service-drain", daemon=True
        ).start()

    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, request_drain)
    if service.metrics_port is not None:
        print(f"metrics http://127.0.0.1:{service.metrics_port}/metrics", flush=True)
    print(f"listening {host}:{port}", flush=True)

    service.serve_forever()  # until a drain (a signal's, or the drain op's) is done
    leaked = service.dispatch.leaked_workers()
    snapshot = service.queue.snapshot()
    try:
        print(
            f"drained: requests_by_state={snapshot['requests_by_state']} "
            f"leaked_workers={len(leaked)}",
            flush=True,
        )
    except OSError:
        # Nobody reads stdout any more.  Point it at /dev/null, so that the
        # interpreter's flush at exit does not fail on the unwritten lines
        # (the SIGPIPE note in Python's ``signal`` documentation).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 1 if leaked else 0


if __name__ == "__main__":
    raise SystemExit(main())
