"""Socket data-plane cost model — what one claim round-trip actually costs.

Companion to ``bench_overhead.py`` for the distributed backend
(:mod:`repro.runtime.dataplane`).  The socket plane replaces shared-memory
atomics with length-prefixed TCP RPCs to a master-side coordinator, so every
scheduling decision a remote member makes has a wire cost; this benchmark
measures it against an in-process :class:`~repro.runtime.shm.SyncArena`
doing the identical claim sequence, using a real coordinator + worker
session over loopback (no spawned processes — the wire, framing and
dispatch code paths are exactly the production ones; only the worker lives
in this process).

Headline numbers:

* ``ping`` — empty-payload RPC round-trip: the floor any remote claim pays;
* ``fetch_add`` — one static/cyclic-style counter claim, proxy vs direct
  (the direct number is the shm plane's cost for the same operation);
* ``claim_batch`` — one *batched* dynamic claim returning up to ``batch``
  chunks: the per-chunk cost is the RTT amortised over the batch, which is
  why dynamic/guided distributed loops reuse the ``_claim_batch`` shapes
  instead of claiming chunk-by-chunk;
* ``barrier`` — a 2-party barrier round-trip (handler thread waits on the
  remote member's behalf);
* ``gather``/``publish`` — bulk array movement per element, the BSP
  coherence cost paid at barriers.

Usage::

    PYTHONPATH=src python benchmarks/bench_dataplane.py                # table
    PYTHONPATH=src python benchmarks/bench_dataplane.py --mode smoke   # CI smoke
    PYTHONPATH=src python benchmarks/bench_dataplane.py --json         # JSON
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import threading
import time
from typing import Any

import numpy as np

from repro.runtime import dataplane, shm

SCHEMA_VERSION = 1

#: (rpc repetitions, barrier repetitions, array elements) per mode.
MODES = {
    "smoke": (200, 50, 4_096),
    "quick": (1_000, 200, 65_536),
    "full": (5_000, 1_000, 262_144),
}

#: chunks claimed per batched dynamic round-trip (the worksharing default).
CLAIM_BATCH = 8


def _best_of(repeats: int, measure) -> float:
    return min(measure() for _ in range(repeats))


def run_suite(mode: str = "quick", *, repeats: int = 3) -> "dict[str, Any]":
    rpc_reps, barrier_reps, elements = MODES[mode]
    coordinator = dataplane.Coordinator(2)
    coordinator.start()
    session = dataplane.WorkerSession(
        dataplane.LOOPBACK_HOST, coordinator.port, coordinator.token, 1, install_hook=False
    )
    master = shm.shared_zeros(elements)
    try:
        metrics: "dict[str, Any]" = {}

        def time_rpcs(call) -> float:
            start = time.perf_counter()
            for _ in range(rpc_reps):
                call()
            return (time.perf_counter() - start) / rpc_reps

        metrics["ping"] = {"rtt_seconds": _best_of(repeats, lambda: time_rpcs(lambda: session.call("ping")))}

        # -- fetch_add: proxy RTT vs the identical in-process arena claim ----
        proxy_slot = dataplane.RemoteArena(session, "arena").slot(0)
        metrics["fetch_add"] = {
            "proxy_rtt_seconds": _best_of(repeats, lambda: time_rpcs(lambda: proxy_slot.fetch_add(1)))
        }
        direct = shm.heap_slot(shm.SyncArena, 0)

        def time_direct() -> float:
            start = time.perf_counter()
            for _ in range(rpc_reps):
                direct.fetch_add(1)
            return (time.perf_counter() - start) / rpc_reps

        metrics["fetch_add"]["direct_seconds"] = _best_of(repeats, time_direct)

        # -- batched dynamic claims: RTT amortised over the batch ------------
        batch_slot = dataplane.RemoteArena(session, "arena").slot(1)
        total_chunks = rpc_reps * CLAIM_BATCH * (repeats + 1)

        def time_batched() -> float:
            start = time.perf_counter()
            for _ in range(rpc_reps):
                batch_slot.claim_batch(CLAIM_BATCH, 2, total_chunks)
            return (time.perf_counter() - start) / rpc_reps

        batch_rtt = _best_of(repeats, time_batched)
        metrics["claim_batch"] = {
            "batch": CLAIM_BATCH,
            "rtt_seconds": batch_rtt,
            "seconds_per_chunk": batch_rtt / CLAIM_BATCH,
        }

        # -- barrier round-trip (handler thread represents the remote party) -
        barrier = dataplane.SocketBarrier(session, 2)

        def master_waits() -> None:
            for _ in range(barrier_reps):
                coordinator.barrier.wait()

        def time_barriers() -> float:
            thread = threading.Thread(target=master_waits)
            start = time.perf_counter()
            thread.start()
            for _ in range(barrier_reps):
                barrier.wait()
            thread.join()
            return (time.perf_counter() - start) / barrier_reps

        metrics["barrier"] = {"seconds_per_barrier": _best_of(repeats, time_barriers)}

        # -- bulk array movement: the BSP coherence cost ---------------------
        mirror = session.attach_array(master.name, master.np.shape, master.np.dtype.str)

        def time_gather() -> float:
            start = time.perf_counter()
            mirror.refresh()
            return time.perf_counter() - start

        gather_seconds = _best_of(repeats, time_gather)

        def time_publish() -> float:
            np.asarray(mirror)[:] += 1.0  # dirty every element
            start = time.perf_counter()
            mirror.flush()
            return time.perf_counter() - start

        publish_seconds = _best_of(repeats, time_publish)
        metrics["arrays"] = {
            "elements": elements,
            "gather_seconds_per_element": gather_seconds / elements,
            "publish_seconds_per_element": publish_seconds / elements,
        }

        return {
            "schema_version": SCHEMA_VERSION,
            "benchmark": "bench_dataplane",
            "mode": mode,
            "python": platform.python_version(),
            "transport": dataplane.SOCKET_TRANSPORT,
            "metrics": metrics,
        }
    finally:
        session.close()
        coordinator.shutdown()
        master.close()


def _print_table(payload: "dict[str, Any]") -> None:
    metrics = payload["metrics"]
    us = 1e6
    print(f"socket data-plane costs (mode={payload['mode']}, {payload['transport']})")
    print(f"{'operation':<28} {'cost':>12}")
    print(f"{'ping RTT':<28} {metrics['ping']['rtt_seconds'] * us:>10.1f}us")
    print(f"{'fetch_add via proxy':<28} {metrics['fetch_add']['proxy_rtt_seconds'] * us:>10.1f}us")
    print(f"{'fetch_add direct (shm-style)':<28} {metrics['fetch_add']['direct_seconds'] * us:>10.3f}us")
    batch = metrics["claim_batch"]
    print(f"{'claim_batch(' + str(batch['batch']) + ') RTT':<28} {batch['rtt_seconds'] * us:>10.1f}us")
    print(f"{'  per claimed chunk':<28} {batch['seconds_per_chunk'] * us:>10.1f}us")
    print(f"{'barrier (2 parties)':<28} {metrics['barrier']['seconds_per_barrier'] * us:>10.1f}us")
    arrays = metrics["arrays"]
    print(f"{'gather per element':<28} {arrays['gather_seconds_per_element'] * 1e9:>10.2f}ns")
    print(f"{'publish per element':<28} {arrays['publish_seconds_per_element'] * 1e9:>10.2f}ns")
    ratio = metrics["fetch_add"]["proxy_rtt_seconds"] / max(metrics["fetch_add"]["direct_seconds"], 1e-12)
    print(f"\none remote claim costs ~{ratio:,.0f}x an in-process claim; batching {batch['batch']} "
          f"chunks per RTT recovers {batch['batch']}x of that")


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--mode", choices=sorted(MODES), default="quick")
    parser.add_argument("--repeats", type=int, default=3, help="best-of repetitions per metric")
    parser.add_argument("--json", action="store_true", help="emit the JSON payload instead of a table")
    args = parser.parse_args(argv)
    payload = run_suite(args.mode, repeats=max(1, args.repeats))
    if args.json:
        json.dump(payload, sys.stdout, indent=2)
        print()
    else:
        _print_table(payload)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
