"""The names the benchmark reports: the source ``BENCHMARK.json`` is written from.

``python3 bench/metrics.py`` prints the ``BENCHMARK.json`` document; the
self-test under ``bench/tests`` fails when the committed file and this table
disagree.  A per-layer row also says which end-to-end metric it should move
and on which workload (``BENCHMARK.json`` has no field for that; the table
here and bench/README.md carry it).
"""

from __future__ import annotations

import json

RUN_SECONDS = 12

#: ``(name, unit, better, bound)``: gated; every workload reports all of them.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("speedup_vs_baseline", "ratio", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
)

JGF_KERNELS = ("Crypt", "LUFact", "Series", "SOR", "Sparse", "MolDyn", "MonteCarlo", "RayTracer")
LOOP_BACKENDS = ("threads", "processes")
LOOP_SCHEDULES = ("static_block", "dynamic_1", "dynamic_16", "guided", "auto")

#: ``(name, unit, better, moves)``: ungated; ``moves`` names the end-to-end
#: metric (or the ungated headline number) the row should move, and where.
PER_LAYER = (
    # headline numbers a user sees, ungated because their run-to-run spread on
    # a shared 2-core box exceeds any bound the contract allows (README).
    ("solve_s", "s", "lower", "the absolute side of speedup_vs_baseline, every workload"),
    ("speedup_vs_serial", "ratio", "higher", "serial baseline / system where a serial baseline exists (= speedup_vs_baseline except on socket_plane); 0 on paper_woven"),
    ("woven_over_handwritten", "ratio", "lower", "1 / speedup_vs_baseline on paper_woven; 0 elsewhere"),
    ("p50_ms", "ms", "lower", "service_open open loop, from due time; 0 elsewhere"),
    ("p95_ms", "ms", "lower", "service_open open loop, from due time; 0 elsewhere"),
    ("throughput_rps", "1/s", "higher", "service_open closed-loop saturation; 0 elsewhere"),
    ("failed_share", "fraction", "lower", "failed / attempted, every workload; any increase is a regression"),
    ("setup_wall_s", "s", "lower", "set-up of this process as the clock read it (setup_s is the same, scaled to the reference host speed)"),
    # core
    ("core.weave_ms", "ms", "lower", "speedup_vs_baseline, solve_s on paper_woven; nothing elsewhere"),
    ("core.unweave_ms", "ms", "lower", "speedup_vs_baseline, solve_s on paper_woven; nothing elsewhere"),
    ("core.woven_call_us", "us", "lower", "speedup_vs_baseline on paper_woven (LUFact, MolDyn per-step calls)"),
    # team / backend
    ("team.region_us.threads", "us", "lower", "speedup_vs_baseline on fine_regions, paper_woven"),
    ("team.region_us.processes_pool", "us", "lower", "speedup_vs_baseline on fine_regions, service_open; jgf_coarse: none"),
    ("team.region_us.processes_fork", "us", "lower", "no workload forks per region; guards the fallback path"),
    ("team.region_us.distributed", "us", "lower", "speedup_vs_baseline on socket_plane only"),
    ("team.regions", "count", "lower", "regions entered per traced sweep; x region_us = share.spawn"),
    ("backend.prewarm_ms", "ms", "lower", "setup_s on every pooled workload"),
    ("backend.shutdown_ms", "ms", "lower", "teardown only; no end-to-end metric"),
    # worksharing / scheduler
    *(
        (f"worksharing.chunk_us.{schedule}", "us", "lower", moves)
        for schedule, moves in (
            ("static_block", "speedup_vs_baseline on fine_regions, jgf_coarse, paper_woven"),
            ("static_cyclic", "speedup_vs_baseline on paper_woven (cyclic kernels)"),
            ("dynamic", "speedup_vs_baseline on irregular_claims"),
            ("guided", "speedup_vs_baseline on irregular_claims"),
        )
    ),
    *(
        (f"worksharing.chunks.{schedule}", "count", "lower", "chunks dispatched per traced sweep; x chunk_us = share.dispatch")
        for schedule in ("static_block", "static_cyclic", "dynamic", "guided")
    ),
    *(
        (f"worksharing.loop_ms.{backend}.{schedule}", "ms", "lower", "phase wall on irregular_claims (static_block also on fine_regions); 0 elsewhere")
        for backend in LOOP_BACKENDS
        for schedule in LOOP_SCHEDULES
    ),
    ("worksharing.loop_ms.threads.taskloop", "ms", "lower", "taskloop phase wall on irregular_claims; 0 elsewhere"),
    ("scheduler.partition_us", "us", "lower", "speedup_vs_baseline on fine_regions (one plan per distinct range)"),
    # barrier / critical
    ("barrier.round_us.threads", "us", "lower", "speedup_vs_baseline on paper_woven (LUFact, MolDyn, SOR), fine_regions"),
    ("barrier.round_us.shm", "us", "lower", "speedup_vs_baseline on fine_regions, irregular_claims (pool phases)"),
    ("barrier.wait_share", "fraction", "lower", "rises with imbalance; share.barrier_wait of the same workload"),
    ("critical.call_us", "us", "lower", "speedup_vs_baseline on paper_woven (MolDyn, MonteCarlo)"),
    # shm
    ("shm.claim_batch_us", "us", "lower", "speedup_vs_baseline on irregular_claims (processes phases)"),
    ("shm.alloc_ms_per_mb", "ms/MB", "lower", "solve_s on jgf_coarse (arrays per call), p50_ms on service_open"),
    # dataplane
    ("dataplane.ping_rtt_us", "us", "lower", "speedup_vs_baseline on socket_plane only"),
    ("dataplane.fetch_add_rtt_us", "us", "lower", "speedup_vs_baseline on socket_plane only"),
    ("dataplane.claim_batch_rtt_us", "us", "lower", "speedup_vs_baseline on socket_plane only"),
    ("dataplane.barrier_rtt_us", "us", "lower", "speedup_vs_baseline on socket_plane (SOR: 100 barriers)"),
    ("dataplane.gather_ns_per_elem", "ns", "lower", "speedup_vs_baseline on socket_plane (SOR grid per barrier)"),
    ("dataplane.publish_ns_per_elem", "ns", "lower", "speedup_vs_baseline on socket_plane (SOR grid per barrier)"),
    ("dataplane.rpc_calls", "count", "lower", "RPCs per traced sweep; 0 on every workload but socket_plane"),
    ("dataplane.rpc_bytes", "count", "lower", "RPC bytes per traced sweep; 0 on every workload but socket_plane"),
    # tasks
    ("tasks.spawn_us", "us", "lower", "speedup_vs_baseline on irregular_claims (taskloop phase)"),
    ("tasks.taskloop_tile_us", "us", "lower", "speedup_vs_baseline on irregular_claims (taskloop phase)"),
    ("tasks.count", "count", "lower", "explicit tasks completed + taskloop tiles run, per traced sweep"),
    ("tasks.steal_share", "fraction", "lower", "steals / (tasks + tiles); rises with imbalance"),
    # tune
    ("tune.decisions", "count", "lower", "tuner decisions per traced sweep (auto phases of irregular_claims)"),
    ("tune.invocations_to_converge", "count", "lower", "setup_s on irregular_claims; 0 elsewhere"),
    ("tune.auto_over_best_fixed", "ratio", "lower", "speedup_vs_baseline on irregular_claims (auto phases); 0 elsewhere"),
    # jgf / perf model
    *((f"jgf.body_s.{kernel}", "s", "lower", "speedup_vs_baseline on jgf_coarse, paper_woven (the body itself)") for kernel in JGF_KERNELS),
    ("jgf.parallel_efficiency", "fraction", "higher", "speedup_vs_serial / team size on the compute workloads; 0 elsewhere"),
    ("perf.predicted_over_measured", "ratio", "lower", "model error of repro.perf, shown not hidden; moves nothing"),
    # service
    ("service.ping_rtt_us", "us", "lower", "p50_ms, p95_ms on service_open (wire)"),
    ("service.submit_ack_us", "us", "lower", "p50_ms on service_open (admission + wire)"),
    *((f"service.unloaded_ms.{kernel}", "ms", "lower", "p50_ms on service_open without queueing") for kernel in ("crypt", "sor", "sparse", "series")),
    ("service.wire_ms_p50", "ms", "lower", "p50_ms, throughput_rps on service_open"),
    ("service.queued_ms_p50", "ms", "lower", "p50_ms on service_open; rises before throughput_rps stops rising"),
    ("service.queued_ms_p95", "ms", "lower", "p95_ms on service_open"),
    ("service.dispatch_overhead_ms_p50", "ms", "lower", "p50_ms, throughput_rps, speedup_vs_baseline on service_open"),
    ("service.kernel_ms_p50", "ms", "lower", "p50_ms, throughput_rps on service_open (pool region + body)"),
    ("service.admission.submit_us", "us", "lower", "p50_ms on service_open (small share)"),
    ("service.admission.claim_us", "us", "lower", "p50_ms on service_open (small share)"),
    ("service.coalesce_hit_share", "fraction", "higher", "followers merged / duplicate submissions in the burst phase"),
    ("service.rejected", "count", "lower", "queue_full refusals; each also counts in failed"),
    ("service.generator_late_ms_p95", "ms", "lower", "noise guard: > 5 ms flags the set"),
    ("service.drain_ms", "ms", "lower", "teardown only; no end-to-end metric"),
    # observability, host, layer report
    ("obs.traced_over_untraced", "ratio", "lower", "cost of spans + runtime counters on this workload"),
    ("host.calib_mops", "Mops", "higher", "normalises numbers between machines; moves nothing"),
    ("mem.growth_kb_per_round", "kB", "lower", "memory gained per round after peak_rss_mb was read: a leak shows here, not there"),
    ("share.spawn", "fraction", "lower", "regions x region_us / solve_s: bound on what a spawn change can save"),
    ("share.dispatch", "fraction", "lower", "chunks x chunk_us / (team x solve_s)"),
    ("share.barrier_wait", "fraction", "lower", "barrier wait / (team x solve_s)"),
    ("share.body", "fraction", "higher", "baseline body time, divided by the team where members run in parallel, / solve_s"),
    ("share.unattributed", "fraction", "lower", "1 - the four shares above: weave, claims, result return, model error"),
)


def benchmark_document() -> "dict[str, object]":
    from bench.workloads import WORKLOADS

    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": cls.why} for name, cls in WORKLOADS.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound} for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [{"name": name, "unit": unit, "better": better} for name, unit, better, _moves in PER_LAYER],
    }


if __name__ == "__main__":
    import os
    import sys

    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    print(json.dumps(benchmark_document(), indent=2))
