"""Layer probes: one small measurement per layer, taken from outside.

Every probe calls public functions of one module under ``src/repro`` the way
the legacy ``benchmarks/bench_*.py`` scripts do, and reports the **median**
of several short repetitions.  They are workload-independent — a ``--trace
1`` run of any workload takes them all — so the per-layer unit costs sit
beside that workload's counted events in one result.
"""

from __future__ import annotations

import statistics
import threading
import time
from typing import Any, Callable

from bench.harness import SERVICE_CONFIG, TEAM, Tracer, calib_mops, median_metric, metric, timed

Metrics = "dict[str, dict[str, Any]]"


def _per_op(fn: Callable[[], Any], ops: int, repeats: int) -> "list[float]":
    """Seconds per operation of ``fn`` (which performs ``ops`` of them)."""
    return [timed(fn)[0] / ops for _ in range(repeats)]


def _us_per_call(op: Callable[[], Any], calls: int, repeats: int = 5) -> "dict[str, Any]":
    """Median microseconds of one ``op()``, from ``repeats`` loops of ``calls``."""
    return median_metric(_per_op(lambda: [op() for _ in range(calls)], calls, repeats), "us", 1e6)


def _noop() -> None:
    return None


class _Poke:
    def poke(self) -> int:
        return 1


class _EmptyRegion:
    """A picklable, shared-memory-only (stateless) body: eligible for the
    warm pool and for spawned socket-plane workers."""

    process_safe = True
    rounds = 200

    def run(self) -> None:
        return None

    def barriers(self) -> None:
        from repro.runtime.context import current_team

        team = current_team()
        for _ in range(self.rounds):
            team.barrier()


class _Counting:
    __slots__ = ("calls",)

    def __init__(self) -> None:
        self.calls = 0

    def __call__(self, start: int, end: int, step: int) -> None:
        self.calls += 1


def _as_member_zero(fn: Callable[[], Any]) -> Any:
    """Run ``fn`` as member 0 of a 2-member team on the calling thread only
    (``bench_overhead``'s harness: every claim is this member's, no thread noise)."""
    from repro.runtime import context as ctx
    from repro.runtime.team import Team

    ctx.push_context(ctx.ExecutionContext(team=Team(TEAM, name="bench-probe"), thread_id=0, nesting_level=0))
    try:
        return fn()
    finally:
        ctx.pop_context()


# ---------------------------------------------------------------------------
# core (weaver)
# ---------------------------------------------------------------------------


def core(scale: int) -> Metrics:
    from repro.core import MethodAspect, Weaver, call
    from repro.jgf.crypt import parallel as crypt
    from repro.jgf.crypt.kernel import CryptBenchmark
    from repro.jgf.series import parallel as series
    from repro.jgf.series.kernel import FourierSeries
    from repro.jgf.sor import parallel as sor
    from repro.jgf.sor.kernel import SORBenchmark

    # One weave_all + unweave_all of a kernel's whole aspect bundle, as
    # run_aomp pays it on every call.
    weave, unweave = [], []
    for _ in range(max(1, 5 // scale)):
        for module, target in ((series, FourierSeries), (sor, SORBenchmark), (crypt, CryptBenchmark)):
            aspects = module.build_aspects(TEAM)
            weaver = Weaver()
            weave.append(timed(lambda: weaver.weave_all(aspects, target))[0])
            unweave.append(timed(weaver.unweave_all)[0])

    calls = 20_000 // scale
    probe = _Poke()

    def loop() -> None:
        poke = probe.poke
        for _ in range(calls):
            poke()

    plain = statistics.median(_per_op(loop, calls, 5))
    weaver = Weaver()
    weaver.weave(MethodAspect(call("_Poke.poke")), _Poke)
    try:
        woven = _per_op(loop, calls, 5)
    finally:
        weaver.unweave_all()
    return {
        "core.weave_ms": median_metric(weave, "ms", 1e3),
        "core.unweave_ms": median_metric(unweave, "ms", 1e3),
        "core.woven_call_us": median_metric([max(0.0, sample - plain) for sample in woven], "us", 1e6),
    }


# ---------------------------------------------------------------------------
# team / backend
# ---------------------------------------------------------------------------


def team(scale: int) -> Metrics:
    from repro.runtime.backend import ProcessBackend, backend_by_name
    from repro.runtime.team import parallel_region

    body = _EmptyRegion()

    def regions(backend: Any, count: int, repeats: int) -> "dict[str, Any]":
        def region() -> None:
            parallel_region(body.run, num_threads=TEAM, backend=backend, name="bench-probe")

        region()
        return _us_per_call(region, count, repeats)

    out: Metrics = {"team.region_us.threads": regions("threads", 200 // scale, 5)}
    pool = ProcessBackend()
    prewarm = timed(lambda: pool.prewarm(TEAM - 1))[0]
    out["team.region_us.processes_pool"] = regions(pool, 60 // scale, 5)
    shutdown = timed(pool.shutdown)[0]
    out["backend.prewarm_ms"] = metric(prewarm * 1e3, "ms")
    out["backend.shutdown_ms"] = metric(shutdown * 1e3, "ms")
    out["team.region_us.processes_fork"] = regions(ProcessBackend(use_pool=False), 10 // scale or 1, 3)
    out["team.region_us.distributed"] = regions(backend_by_name("distributed"), 1, 3 // scale or 1)
    return out


# ---------------------------------------------------------------------------
# worksharing / scheduler
# ---------------------------------------------------------------------------


def worksharing(scale: int) -> Metrics:
    from repro.runtime.scheduler import StaticBlockScheduler
    from repro.runtime.worksharing import run_for

    iterations = 4_000 // scale
    out: Metrics = {}
    for schedule in ("static_block", "static_cyclic", "dynamic", "guided"):
        samples = []
        for _ in range(5):
            body = _Counting()
            seconds = _as_member_zero(
                lambda: timed(lambda: run_for(body, 0, iterations, 1, schedule=schedule, chunk=1, nowait=True))[0]
            )
            bare = _Counting()
            direct = timed(lambda: [bare(i, i + 1, 1) for i in range(body.calls)])[0]
            samples.append(max(0.0, seconds - direct) / max(1, body.calls))
        out[f"worksharing.chunk_us.{schedule}"] = median_metric(samples, "us", 1e6)
    scheduler = StaticBlockScheduler()
    sizes = range(1_000, 1_000 + 200 // scale)  # distinct ranges: no memoised plan is hit
    out["scheduler.partition_us"] = median_metric(
        [timed(lambda: scheduler.partition(TEAM, 0, total, 1))[0] for total in sizes], "us", 1e6
    )
    return out


# ---------------------------------------------------------------------------
# barrier / critical
# ---------------------------------------------------------------------------


def barrier(scale: int) -> Metrics:
    from repro.runtime.backend import ProcessBackend
    from repro.runtime.critical import critical_call
    from repro.runtime.team import parallel_region

    body = _EmptyRegion()
    body.rounds = 200 // scale

    def rounds(backend: Any) -> "list[float]":
        return _per_op(
            lambda: parallel_region(body.barriers, num_threads=TEAM, backend=backend, name="bench-probe"),
            body.rounds,
            5,
        )

    out: Metrics = {"barrier.round_us.threads": median_metric(rounds("threads"), "us", 1e6)}
    pool = ProcessBackend()
    pool.prewarm(TEAM - 1)
    try:
        out["barrier.round_us.shm"] = median_metric(rounds(pool), "us", 1e6)
    finally:
        pool.shutdown()
    out["critical.call_us"] = _us_per_call(lambda: critical_call(_noop, key="bench-probe"), 5_000 // scale)
    return out


# ---------------------------------------------------------------------------
# shm
# ---------------------------------------------------------------------------


def shm(scale: int) -> Metrics:
    import numpy as np

    from repro.runtime import shm as shmmod

    claims = 2_000 // scale
    arena = shmmod.SyncArena()
    slot = arena.slot(0)
    total_chunks = claims * 8 * 6

    megabytes = 4
    source = np.zeros(megabytes * 131_072, dtype=np.float64)

    def allocate() -> None:
        copied = shmmod.as_shared(source)
        zeroed = shmmod.shared_zeros(source.shape)
        copied.close()
        zeroed.close()

    alloc = _per_op(allocate, 2 * megabytes, max(1, 5 // scale))
    return {
        "shm.claim_batch_us": _us_per_call(lambda: slot.claim_batch(8, TEAM, total_chunks), claims),
        "shm.alloc_ms_per_mb": median_metric(alloc, "ms/MB", 1e3),
    }


# ---------------------------------------------------------------------------
# dataplane
# ---------------------------------------------------------------------------


def dataplane(scale: int) -> Metrics:
    import numpy as np

    from repro.runtime import dataplane as dp
    from repro.runtime import shm as shmmod

    rpcs, rounds, elements = 300 // scale, 100 // scale, 65_536 // scale
    coordinator = dp.Coordinator(TEAM)
    coordinator.start()
    session = dp.WorkerSession(dp.LOOPBACK_HOST, coordinator.port, coordinator.token, 1, install_hook=False)
    master = shmmod.shared_zeros(elements)
    try:
        out: Metrics = {"dataplane.ping_rtt_us": _us_per_call(lambda: session.call("ping"), rpcs)}
        counter = dp.ProxySyncArena(session).slot(0)
        out["dataplane.fetch_add_rtt_us"] = _us_per_call(lambda: counter.fetch_add(1), rpcs)
        batch = dp.ProxySyncArena(session).slot(1)
        total_chunks = rpcs * 8 * 6
        out["dataplane.claim_batch_rtt_us"] = _us_per_call(lambda: batch.claim_batch(8, TEAM, total_chunks), rpcs)

        remote = dp.SocketBarrier(session, TEAM)

        def barrier_rounds() -> None:
            partner = threading.Thread(target=lambda: [coordinator.barrier.wait() for _ in range(rounds)])
            partner.start()
            for _ in range(rounds):
                remote.wait()
            partner.join()

        out["dataplane.barrier_rtt_us"] = median_metric(_per_op(barrier_rounds, rounds, 3), "us", 1e6)

        mirror = session.attach_array(master.name, master.np.shape, master.np.dtype.str)
        out["dataplane.gather_ns_per_elem"] = median_metric(_per_op(mirror.refresh, elements, 5), "ns", 1e9)

        def publish() -> float:
            np.asarray(mirror)[:] += 1.0  # dirty every element
            return timed(mirror.flush)[0] / elements

        out["dataplane.publish_ns_per_elem"] = median_metric([publish() for _ in range(5)], "ns", 1e9)
        return out
    finally:
        session.close()
        coordinator.shutdown()
        master.close()


# ---------------------------------------------------------------------------
# tasks
# ---------------------------------------------------------------------------


def tasks(scale: int) -> Metrics:
    from repro.runtime.context import current_team
    from repro.runtime.tasks import TaskPool, run_taskloop

    count = 2_000 // scale

    def spawn_and_wait() -> float:
        pool = TaskPool.for_team(current_team())
        began = time.perf_counter()
        for _ in range(count):
            pool.spawn(_noop)
        pool.wait_all()
        return (time.perf_counter() - began) / count

    def taskloop() -> float:
        body = _Counting()
        seconds = timed(lambda: run_taskloop(body, 0, count, 1, grainsize=1, nowait=True))[0]
        return seconds / max(1, body.calls)

    return {
        "tasks.spawn_us": median_metric([_as_member_zero(spawn_and_wait) for _ in range(5)], "us", 1e6),
        "tasks.taskloop_tile_us": median_metric([_as_member_zero(taskloop) for _ in range(5)], "us", 1e6),
    }


# ---------------------------------------------------------------------------
# jgf bodies and the analytic model
# ---------------------------------------------------------------------------


def jgf(scale: int) -> Metrics:
    from repro.jgf import BENCHMARKS

    size = "tiny" if scale > 1 else "small"
    return {
        f"jgf.body_s.{name}": median_metric([timed(lambda: module.run_sequential(size))[0] for _ in range(3)], "s")
        for name, module in BENCHMARKS.items()
    }


def perf(scale: int) -> Metrics:
    """The ``repro.perf`` prediction beside a measured speedup of the same
    loop: Series on two pooled processes, modelled as a two-core machine."""
    from repro.experiments.harness import calibrate_cost_model_from_trace
    from repro.jgf.series import parallel as series
    from repro.perf import MachineModel, MakespanModel
    from repro.runtime.backend import ProcessBackend
    from repro.runtime.trace import TraceRecorder

    size = 16 if scale > 1 else 64
    calibration, parallel = TraceRecorder(), TraceRecorder()
    series.run_aomp(size, 1, calibration)
    series.run_aomp(size, TEAM, parallel)
    machine = MachineModel(name="bench host", cores=TEAM, hardware_threads=TEAM)
    predicted = MakespanModel(calibrate_cost_model_from_trace(calibration), machine).estimate(parallel, TEAM).speedup

    pool = ProcessBackend()
    pool.prewarm(TEAM - 1)
    try:
        series.run_backend(size, num_threads=TEAM, backend=pool)
        ratios = []
        for _ in range(5):
            sequential = timed(lambda: series.run_sequential(size))[0]
            pooled = timed(lambda: series.run_backend(size, num_threads=TEAM, backend=pool))[0]
            ratios.append(sequential / pooled)
    finally:
        pool.shutdown()
    measured = statistics.median(ratios)
    return {"perf.predicted_over_measured": metric(predicted / measured, "ratio", [predicted / r for r in ratios])}


# ---------------------------------------------------------------------------
# service
# ---------------------------------------------------------------------------


def service(scale: int) -> Metrics:
    from repro.service.admission import AdmissionQueue
    from repro.service.client import ServiceClient
    from repro.service.server import ServiceThread

    out: Metrics = {}
    thread = ServiceThread(**SERVICE_CONFIG)
    host, port = thread.start()
    client = ServiceClient(host, port, timeout=60.0)
    try:
        out["service.ping_rtt_us"] = _us_per_call(client.ping, 200 // scale)
        acks, unloaded = [], {}
        for kernel in ("crypt", "sor", "sparse", "series"):
            latencies = []
            for _ in range(max(2, 8 // scale)):
                seconds, ack = timed(lambda: client.submit(kernel, size="tiny", tenant="probe", coalesce=False, wait=False))
                acks.append(seconds)
                latencies.append(seconds + timed(lambda: client.wait(ack["id"], timeout=60.0))[0])
            unloaded[kernel] = latencies
        out["service.submit_ack_us"] = median_metric(acks, "us", 1e6)
        for kernel, latencies in unloaded.items():
            out[f"service.unloaded_ms.{kernel}"] = median_metric(latencies, "ms", 1e3)
    finally:
        client.close()
        out["service.drain_ms"] = metric(timed(thread.drain)[0] * 1e3, "ms")

    requests = 2_000 // scale
    admission = AdmissionQueue(queue_limit=requests, tenant_cap=requests)
    submit = _per_op(
        lambda: [admission.submit(tenant="probe", kernel="series", params={"size": "tiny"}) for _ in range(requests)],
        requests,
        1,
    )
    claim = _per_op(lambda: [admission.claim(timeout=0) for _ in range(requests)], requests, 1)
    out["service.admission.submit_us"] = metric(submit[0] * 1e6, "us")
    out["service.admission.claim_us"] = metric(claim[0] * 1e6, "us")
    return out


# ---------------------------------------------------------------------------
# all of them
# ---------------------------------------------------------------------------

PROBES = (core, team, worksharing, barrier, shm, dataplane, tasks, jgf, perf, service)


def run_all(tracer: Tracer, *, smoke: bool = False) -> Metrics:
    """Every layer probe, each under its own span; ``smoke`` shrinks the
    repetition counts tenfold (a plumbing check, not a measurement)."""
    scale = 10 if smoke else 1
    out: Metrics = {"host.calib_mops": calib_mops()}
    for probe in PROBES:
        with tracer.span(f"probe.{probe.__name__}"):
            out.update(probe(scale))
    return out
