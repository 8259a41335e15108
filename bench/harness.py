"""Measurement plumbing shared by every workload.

Statistics (median + the highest percentile that still has ten samples
beyond it), the interleaved sweep loop, benchmark-side spans, the
attempted/failed tally, the leak check and the environment capture.  Nothing
here reaches into ``src/`` beyond public functions: every layer is measured
from outside.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import threading
import time
from typing import Any, Callable, Iterable, Iterator, Sequence

#: team size everywhere (the reference box has two cores).
TEAM = 2

#: the compute service as every part of the benchmark starts it
SERVICE_CONFIG = dict(
    backend="processes", workers=2, port=0, queue_limit=64, tenant_cap=2, num_threads=TEAM, tune_dir=None
)

#: candidate tail percentiles, highest first; the reported one is the
#: highest that still has >= 10 samples beyond it.
_TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of ``values`` (0 for an empty sample)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[min(len(ordered), rank) - 1]


def quartiles(values: Sequence[float]) -> "tuple[float, float, float]":
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if not values:
        return 0.0, 0.0, 0.0
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail(values: Sequence[float]) -> "tuple[float, float]":
    """``(percentile, value)`` for the highest percentile with >= 10 samples
    beyond it; falls back to the median when the sample is too small."""
    for pct in _TAIL_PERCENTILES:
        if len(values) * (1.0 - pct / 100.0) >= 10.0:
            return pct, percentile(values, pct)
    return 50.0, percentile(values, 50.0)


def metric(value: float, unit: str, samples: "Sequence[float] | None" = None) -> "dict[str, Any]":
    """One reported number; ``samples`` adds count, quartiles and the tail."""
    out: "dict[str, Any]" = {"value": float(value), "unit": unit}
    if samples:
        q1, _median, q3 = quartiles(samples)
        tail_pct, tail_value = tail(samples)
        out.update(n=len(samples), q1=q1, q3=q3, tail_pct=tail_pct, tail=tail_value)
    return out


def median_metric(samples: Sequence[float], unit: str, scale: float = 1.0) -> "dict[str, Any]":
    """The median of ``samples`` (scaled into ``unit``) with its spread."""
    scaled = [sample * scale for sample in samples]
    return metric(statistics.median(scaled) if scaled else 0.0, unit, scaled)


def pair_ratios(numerator: Sequence[float], denominator: Sequence[float]) -> "list[float]":
    """Per-round ratios of two interleaved sides.

    Adjacent sweeps see the same host speed, so the ratio of a round cancels
    the slow CPU-speed swings a shared box shows; the ratio of two medians
    does not.
    """
    return [n / d for n, d in zip(numerator, denominator) if d > 0]


def geomean(values: Iterable[float]) -> float:
    logs = [math.log(value) for value in values if value > 0]
    return math.exp(sum(logs) / len(logs)) if logs else 0.0


def timed(fn: Callable[[], Any]) -> "tuple[float, Any]":
    began = time.perf_counter()
    result = fn()
    return time.perf_counter() - began, result


def calib_seconds(iterations: int = 200_000) -> float:
    """Wall time of a fixed pure-Python loop (the in-run calibration unit)."""
    began = time.perf_counter()
    acc = 0
    for i in range(iterations):
        acc += i & 3
    return time.perf_counter() - began


def calib_mops(repeats: int = 9, iterations: int = 200_000) -> "dict[str, Any]":
    """Calibration-loop speed in million iterations per second."""
    samples = [iterations / calib_seconds(iterations) / 1e6 for _ in range(repeats)]
    return median_metric(samples, "Mops")


#: calibration-loop speed of the reference box in a quiet moment
REFERENCE_MOPS = 25.0


def at_reference_speed(seconds: float) -> float:
    """``seconds`` just measured, scaled to the reference host speed.

    The host's speed drifts by 1.5x for minutes at a time, which no number
    of repetitions inside one run averages out; the calibration loop, run
    right after the measurement, sees the same speed, so the product is
    what the measurement would have read at ``REFERENCE_MOPS``.
    """
    return seconds * calib_mops(5)["value"] / REFERENCE_MOPS


# ---------------------------------------------------------------------------
# the interleaved sweep loop
# ---------------------------------------------------------------------------


def interleave(
    sides: "dict[str, Callable[[], float]]",
    seconds: float,
    *,
    min_rounds: int = 3,
    after_round: "Callable[[int], None] | None" = None,
) -> "dict[str, list[float]]":
    """Run the sides round after round for ``seconds``, rotating which goes first.

    Each side returns the seconds it measured itself (validation happens
    outside its timed part).  At least ``min_rounds`` rounds run however
    slow the host is; ``after_round(n)`` is called when round ``n`` is done.
    """
    names = list(sides)
    samples: "dict[str, list[float]]" = {name: [] for name in names}
    deadline = time.perf_counter() + seconds
    rounds = 0
    while rounds < min_rounds or time.perf_counter() < deadline:
        shift = rounds % len(names)
        for name in names[shift:] + names[:shift]:
            samples[name].append(sides[name]())
        rounds += 1
        if after_round is not None:
            after_round(rounds)
    return samples


# ---------------------------------------------------------------------------
# attempted / failed
# ---------------------------------------------------------------------------


class Tally:
    """Counts every validated operation against the number attempted."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: "list[str]" = []
        self._lock = threading.Lock()

    def check(self, ok: bool, what: str) -> bool:
        with self._lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
                if len(self.notes) < 20:
                    self.notes.append(what)
        return ok

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


# ---------------------------------------------------------------------------
# benchmark-side spans
# ---------------------------------------------------------------------------


class Tracer:
    """In-memory spans around the public calls a workload makes.

    A span is ``(id, parent, name, start, end, attrs)``; the parent is the
    span open on the same thread when it began.  Spans are recorded only
    while :attr:`enabled` — the traced sweeps of a ``--trace 1`` run — and
    written out once, at exit.
    """

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.enabled = False
        self.sweep = 0
        self.spans: "list[dict[str, Any]]" = []
        self._local = threading.local()
        self._lock = threading.Lock()

    @contextlib.contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        stack = self._local.__dict__.setdefault("stack", [])
        with self._lock:
            span_id = len(self.spans)
            record = {
                "id": span_id,
                "parent": stack[-1] if stack else None,
                "name": name,
                "workload": self.workload,
                "sweep": self.sweep,
                "start": time.perf_counter(),
                "end": None,
                **attrs,
            }
            self.spans.append(record)
        stack.append(span_id)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            stack.pop()

    def self_seconds(self) -> "dict[str, float]":
        """Per span name: duration minus the part covered by child spans."""
        child_time: "dict[int, float]" = {}
        for span in self.spans:
            if span["parent"] is not None and span["end"] is not None:
                child_time[span["parent"]] = child_time.get(span["parent"], 0.0) + span["end"] - span["start"]
        totals: "dict[str, float]" = {}
        for span in self.spans:
            if span["end"] is None:
                continue
            own = span["end"] - span["start"] - child_time.get(span["id"], 0.0)
            totals[span["name"]] = totals.get(span["name"], 0.0) + max(0.0, own)
        return totals

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"workload": self.workload, "self_seconds": self.self_seconds(), "spans": self.spans},
                handle,
            )


# ---------------------------------------------------------------------------
# leaks, memory, environment
# ---------------------------------------------------------------------------


def shm_segments() -> "set[str]":
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def _children() -> "list[tuple[str, str]]":
    """``(pid, command line)`` of every live child process of this one."""
    me = str(os.getpid())
    found = []
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            with open(f"/proc/{pid}/stat", encoding="utf-8") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
            if fields[1] != me:
                continue
            with open(f"/proc/{pid}/cmdline", "rb") as handle:
                command = handle.read().replace(b"\0", b" ").decode("utf-8", "replace").strip()
        except (OSError, IndexError):
            continue  # the process ended while we were looking
        found.append((pid, command))
    return found


def live_children() -> "list[str]":
    """Child processes of this one, as ``pid:command`` strings.

    ``multiprocessing``'s resource tracker is a child by design (it outlives
    every segment so it can unlink what a crash leaves) and is not a leak.
    """
    return [f"{pid}:{command[:80]}" for pid, command in _children() if "resource_tracker" not in command]


def adopt_orphans() -> None:
    """Make this process the parent of every descendant whose own parent ends.

    A pool worker or a ``--setup-only`` child leaves a resource tracker (and,
    if it dies early, workers) behind; without this they are handed to pid 1,
    where :func:`stop_children` cannot wait for them.  Linux only; elsewhere
    each process still stops its own children.
    """
    try:
        import ctypes

        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (ImportError, OSError, AttributeError):
        pass


def leave(code: int) -> None:
    """End this process with ``code`` and no process of ours left; never returns.

    The interpreter's exit hooks run first, here (the shared arrays' safety
    nets, ``multiprocessing``'s own shutdown), so whatever they start or stop
    is met by :func:`stop_children` too; then nothing is left to run but
    ``os._exit``: no hook or finaliser after the last look can start a
    resource tracker again.
    """
    import atexit
    import sys
    import traceback

    try:
        atexit._run_exitfuncs()
    except BaseException:  # a broken hook must not keep us from stopping the children
        traceback.print_exc()
    stop_children()
    for stream in (sys.stdout, sys.stderr):
        with contextlib.suppress(OSError, ValueError):
            stream.flush()
    os._exit(code)


def stop_children(grace: float = 3.0) -> None:
    """Stop every child process and wait until each has ended.

    Called by :func:`leave` on every path out of ``bench/run.py``.  The
    resource tracker ends by itself once its pipe is closed; anything else
    still alive is a leak the leak check has already counted, and is
    terminated, then killed, so that no run leaves a process (or a zombie)
    for the next one to meet.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_fd", None) is not None:
        os.close(tracker._fd)
        tracker._fd = None
    signals = [signal.SIGTERM, signal.SIGKILL]
    deadline = time.monotonic() + grace
    while True:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return  # no child left
        if pid:
            continue
        if time.monotonic() > deadline:
            if not signals:
                return  # killed and still not gone: nothing more a process can do
            signum = signals.pop(0)
            for child, _command in _children():
                with contextlib.suppress(OSError):
                    os.kill(int(child), signum)
            deadline = time.monotonic() + grace
        time.sleep(0.01)


def leak_check(tally: Tally, segments_before: "set[str]", leaked_workers: Sequence[Any] = ()) -> None:
    """After teardown: no pool worker, no child process, no new shm segment."""
    tally.check(not leaked_workers, f"leaked pool workers: {list(leaked_workers)!r}")
    children: "list[str]" = []
    for _ in range(20):  # a worker that was just told to stop needs a moment to exit
        children = live_children()
        if not children:
            break
        time.sleep(0.05)
    tally.check(not children, f"surviving child processes: {children}")
    new_segments = sorted(name for name in shm_segments() - segments_before if not _foreign_segment(name))
    tally.check(not new_segments, f"new /dev/shm segments: {new_segments}")


def _foreign_segment(name: str) -> bool:
    """Whether ``aomp_<pid>_<id>`` names another program that is still running
    (two benchmark children side by side must not see each other's arrays)."""
    parts = name.split("_")
    if len(parts) < 3 or parts[0] != "aomp" or not parts[1].isdigit():
        return False
    pid = int(parts[1])
    return pid != os.getpid() and os.path.exists(f"/proc/{pid}")


def peak_rss_mb() -> float:
    """High-water resident memory of this process plus its workers, now.

    Workers still alive count by their ``VmHWM`` (summed), workers already
    reaped by ``ru_maxrss`` (the largest); a workload has one kind or the
    other, so the larger of the two stands for "the workers".
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    live = 0
    for pid, _command in _children():
        try:
            with open(f"/proc/{pid}/status", encoding="utf-8") as handle:
                live += next(int(line.split()[1]) for line in handle if line.startswith("VmHWM:"))
        except (OSError, StopIteration):
            continue  # ended while we were looking, or a zombie without memory
    return (own + max(live, reaped)) / 1024.0


def environment() -> "dict[str, Any]":
    """What a reader needs to judge whether two sets are comparable."""
    import numpy

    from repro.runtime.backend import gil_enabled
    from repro.runtime.shm import fork_available
    from repro.runtime.subinterp import subinterpreters_available

    affinity = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
    load = os.getloadavg()[0]
    env = {
        "nproc": os.cpu_count(),
        "affinity": affinity,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "gil_enabled": bool(gil_enabled()),
        "fork_available": bool(fork_available()),
        "subinterpreters_available": bool(subinterpreters_available()),
        "loadavg_1m_at_start": load,
        "calib_mops": calib_mops()["value"],
        "flags": [],
    }
    if load > 0.5:
        env["flags"].append(f"load average {load:.2f} > 0.5 at start: timings are suspect")
    return env
