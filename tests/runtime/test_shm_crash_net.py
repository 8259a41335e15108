"""What becomes of a shared array's segment when its owner dies without closing it.

The owner of a segment holds a shared ``flock`` on it for as long as it lives;
a sweep unlinks every ``aomp_<pid>_<hex>`` segment that has a size and no such
holder.  A pool worker sweeps as it leaves, so a master killed with a warm pool
leaves nothing behind; a master killed without one leaves its segments to the
next process that allocates one.  No helper process is started for any of it.
"""

from __future__ import annotations

import json
import os
import secrets
import subprocess
import sys
import threading
import time
from pathlib import Path

import _posixshmem
import fcntl
import pytest

from repro.runtime import member, shm

pytestmark = [
    pytest.mark.skipif(not Path("/dev/shm").is_dir(), reason="no /dev/shm on this platform"),
    pytest.mark.skipif(not shm.fork_available(), reason="the process backend needs fork"),
]

SHM = Path("/dev/shm")
SRC = str(Path(shm.__file__).resolve().parents[2])

#: a picklable ``process_safe`` body over one shared array, for a subprocess master
PRELUDE = f"""
import json, os, pickle, sys, threading, time
sys.path.insert(0, {SRC!r})
from repro.runtime import shm
from repro.runtime.backend import ProcessBackend
from repro.runtime.context import get_thread_id
from repro.runtime.team import parallel_region
from repro.runtime.worksharing import run_for


class Fill:
    process_safe = True

    def __init__(self):
        self.out = shm.shared_zeros(64)
        self.pids = shm.shared_zeros(4, "int64")

    def body(self, start, end, step):
        for i in range(start, end, step):
            self.out.np[i] = 1

    def run(self):
        self.pids[get_thread_id()] = os.getpid()
        run_for(self.body, 0, 64, 1, schedule="static_block")
"""


def _start(script: str) -> "tuple[subprocess.Popen, list[str]]":
    """A master running ``PRELUDE + script``; returns it with its first output line's words."""
    proc = subprocess.Popen(
        [sys.executable, "-c", PRELUDE + script], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
    )
    line = proc.stdout.readline()
    assert line, f"the master exited with {proc.wait(timeout=30)} before it reported"
    return proc, line.split()


def _kill(proc: subprocess.Popen) -> None:
    proc.kill()
    proc.wait(timeout=30)
    proc.stdin.close()
    proc.stdout.close()


def _gone_within(path: Path, seconds: float) -> bool:
    deadline = time.monotonic() + seconds
    while path.exists() and time.monotonic() < deadline:
        time.sleep(0.02)
    return not path.exists()


def _running(pid: str) -> bool:
    try:  # a reaped process has no entry, an unreaped one is a zombie
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def _wait_exited(pids: "list[str]", seconds: float = 10.0) -> bool:
    """Give the orphaned workers of a killed master time to leave (they are not our children)."""
    deadline = time.monotonic() + seconds
    while any(map(_running, pids)) and time.monotonic() < deadline:
        time.sleep(0.05)
    return not any(map(_running, pids))


def _residue(name: str, workers: "list[str]") -> str:
    """What was left: each worker's state and parent, and whether the segment is locked."""
    rows = []
    for pid in workers:
        try:
            fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
            wchan = Path(f"/proc/{pid}/wchan").read_text() or "-"
            rows.append(f"worker {pid}: state {fields[0]}, ppid {fields[1]}, wchan {wchan}")
        except OSError:
            rows.append(f"worker {pid}: gone")
    try:
        fd = _posixshmem.shm_open("/" + name, os.O_RDONLY)
    except OSError:
        rows.append(f"{name}: unlinked")
    else:
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            rows.append(f"{name}: linked, nobody holds its lock")
        except OSError:
            rows.append(f"{name}: linked, its lock is held")
        finally:
            os.close(fd)
    return "; ".join(rows)


def _first_allocation_elsewhere() -> None:
    """A fresh process that allocates one array (and so sweeps first)."""
    script = f"import sys; sys.path.insert(0, {SRC!r})\nfrom repro.runtime import shm\nshm.shared_zeros(1).close()\n"
    subprocess.run([sys.executable, "-c", script], check=True, timeout=60)


def _bare_segment(size: int) -> "tuple[str, int]":
    """An ``aomp_`` segment made by hand with no lock on it, ``size`` bytes."""
    name = f"aomp_{os.getpid()}_{secrets.token_hex(4)}"
    fd = _posixshmem.shm_open("/" + name, os.O_CREAT | os.O_EXCL | os.O_RDWR, 0o600)
    if size:
        os.ftruncate(fd, size)
    return name, fd


def test_a_master_killed_with_a_warm_pool_leaves_no_residue():
    """The array is made before the pool forks, so every worker inherited it."""
    master, words = _start(
        "fill = Fill()\n"
        "pool = ProcessBackend()\n"
        "parallel_region(fill.run, num_threads=3, backend=pool)\n"
        "assert fill.out.np.sum() == 64\n"
        "print(fill.out.name, *[p.pid for p in pool.live_workers()], flush=True)\n"
        "sys.stdin.readline()\n"
    )
    name, workers = words[0], words[1:]
    assert len(workers) == 2 and (SHM / name).exists()
    _kill(master)
    assert _gone_within(SHM / name, 5.0), f"{name} outlived its killed master by 5 s: {_residue(name, workers)}"
    _wait_exited(workers)


def test_a_master_killed_mid_region_leaves_no_worker_and_no_segment():
    """Member 0 (the master) is killed before the closing barrier of a loop
    its workers have finished: they sleep in that barrier, whose round the
    master will never end, and must leave long before its timeout."""
    master, words = _start(
        "class Stall(Fill):\n"
        "    stall = False\n"
        "    def run(self):\n"
        "        if self.stall and get_thread_id() == 0:\n"
        "            while self.out.np[22:].sum() < 42:\n"  # members 1 and 2 did their static shares
        "                time.sleep(0.005)\n"
        "            print(self.out.name, *[p.pid for p in pool.live_workers()], flush=True)\n"
        "            time.sleep(600)\n"
        "        super().run()\n"
        "fill, pool = Stall(), ProcessBackend()\n"
        "parallel_region(fill.run, num_threads=3, backend=pool)\n"
        "fill.stall, fill.out[:] = True, 0\n"
        "parallel_region(fill.run, num_threads=3, backend=pool)\n"
    )
    name, workers = words[0], words[1:]
    assert len(workers) == 2
    time.sleep(0.2)  # the workers reach the barrier
    _kill(master)
    left = _wait_exited(workers, 5.0) and _gone_within(SHM / name, 0.0)
    assert left, f"5 s after the master's death: {_residue(name, workers)}"


def test_a_master_killed_mid_fork_region_leaves_no_member_and_no_segment():
    """The same on the fork-per-region path: the forked members sleep in the
    loop's closing barrier while the master sleeps before it."""
    master, words = _start(
        "class Stall(Fill):\n"
        "    def run(self):\n"
        "        if get_thread_id() == 0:\n"
        "            while self.out.np[22:].sum() < 42:\n"  # members 1 and 2 did their static shares
        "                time.sleep(0.005)\n"
        "            print(self.out.name, *self.pids.np[1:3], flush=True)\n"
        "            time.sleep(600)\n"
        "        super().run()\n"
        "fill = Stall()\n"
        "parallel_region(fill.run, num_threads=3, backend=ProcessBackend(use_pool=False))\n"
    )
    name, members = words[0], words[1:]
    assert len(members) == 2
    time.sleep(0.2)  # the members reach the barrier
    _kill(master)
    left = _wait_exited(members, 5.0) and _gone_within(SHM / name, 0.0)
    assert left, f"5 s after the master's death: {_residue(name, members)}"


def test_a_master_killed_without_a_pool_is_swept_by_the_next_allocation():
    """Nothing watches a master that has no pool: its segment stays in
    ``/dev/shm`` until the next process that allocates an array sweeps."""
    master, (name,) = _start("fill = Fill()\nprint(fill.out.name, flush=True)\nsys.stdin.readline()\n")
    _kill(master)
    _first_allocation_elsewhere()
    assert not (SHM / name).exists()


def test_a_live_owner_s_segment_is_never_swept():
    holder, (name,) = _start("fill = Fill()\nprint(fill.out.name, flush=True)\nsys.stdin.readline()\n")
    try:
        shm.sweep_orphans()
        _first_allocation_elsewhere()
        assert (SHM / name).exists()
    finally:
        holder.stdin.write("\n")
        holder.stdin.close()
        assert holder.wait(timeout=60) == 0
        holder.stdout.close()
    assert not (SHM / name).exists()  # the holder's exit hook closed it


def test_a_segment_not_yet_sized_is_never_swept():
    """Between ``shm_open`` and ``ftruncate`` a segment has no lock yet and no size."""
    name, fd = _bare_segment(0)
    try:
        shm.sweep_orphans()
        assert (SHM / name).exists()
    finally:
        os.close(fd)
        _posixshmem.shm_unlink("/" + name)


def test_a_sized_segment_nobody_holds_is_swept():
    name, fd = _bare_segment(64)
    os.close(fd)
    shm.sweep_orphans()
    assert not (SHM / name).exists()


def test_a_forked_child_neither_owns_nor_unlinks_its_parent_s_array():
    import multiprocessing

    with shm.shared_zeros(8) as array:
        child = multiprocessing.get_context(shm.FORK_METHOD).Process(target=array.close)
        child.start()
        child.join(timeout=30)
        assert child.exitcode == 0
        shm.sweep_orphans()  # the child took no lock description along either
        assert (SHM / array.name).exists()
        array[0] = 1.0


def test_no_resource_tracker_starts_and_register_stays_the_stdlib_function():
    """A pooled and a fork-per-region region over shared arrays, then threads
    creating and round-tripping arrays through pickle side by side: no
    resource tracker is started, and nothing swaps its ``register``."""
    master, words = _start(
        "from multiprocessing import resource_tracker\n"
        "fill, pool = Fill(), ProcessBackend()\n"
        "parallel_region(fill.run, num_threads=2, backend=pool)\n"
        "pooled = {p.pid for p in pool.live_workers()}\n"
        "assert int(fill.pids[1]) in pooled\n"
        "fill.out[:] = 0\n"
        "parallel_region(lambda: fill.run(), num_threads=2, backend=pool)\n"
        "assert fill.out.np.sum() == 64 and int(fill.pids[1]) not in pooled | {os.getpid()}\n"
        "def churn():\n"
        "    for _ in range(40):\n"
        "        with shm.shared_zeros(16) as array:\n"
        "            pickle.loads(pickle.dumps(array)).close()\n"
        "threads = [threading.Thread(target=churn) for _ in range(4)]\n"
        "for thread in threads: thread.start()\n"
        "for thread in threads: thread.join()\n"
        "children = []\n"
        "for pid in filter(str.isdigit, os.listdir('/proc')):\n"
        "    try:\n"
        "        parent = open(f'/proc/{pid}/stat').read().rsplit(')', 1)[1].split()[1]\n"
        "        command = open(f'/proc/{pid}/cmdline', 'rb').read().decode(errors='replace')\n"
        "    except OSError:\n"
        "        continue\n"
        "    if parent == str(os.getpid()):\n"
        "        children.append(command)\n"
        "print(json.dumps({\n"
        "    'tracker_pid': resource_tracker._resource_tracker._pid,\n"
        "    'tracker_children': [c for c in children if 'from multiprocessing.resource_' 'tracker' in c],\n"  # split: not to match this script
        "    'register_is_stdlib': resource_tracker.register.__func__ is resource_tracker.ResourceTracker.register,\n"
        "}), flush=True)\n"
        "pool.shutdown()\n"
    )
    report = json.loads(" ".join(words))
    assert master.wait(timeout=60) == 0
    master.stdin.close()
    master.stdout.close()
    assert report == {"tracker_pid": None, "tracker_children": [], "register_is_stdlib": True}


class _Barrier:
    """Stands in for the pool barrier a worker's master watch breaks."""

    def __init__(self) -> None:
        self.aborted = threading.Event()

    def abort(self) -> None:
        self.aborted.set()


def _watch(master: int) -> "tuple[threading.Thread, _Barrier, threading.Event]":
    barrier, gone = _Barrier(), threading.Event()
    thread = threading.Thread(target=member.watch_master, args=(master, barrier, gone), daemon=True)
    thread.start()
    return thread, barrier, gone


requires_pidfd = pytest.mark.skipif(not hasattr(os, "pidfd_open"), reason="needs pidfds")


@requires_pidfd
def test_the_master_watch_breaks_the_barrier_once_the_master_exits_and_not_before():
    master = subprocess.Popen([sys.executable, "-c", "import sys; sys.stdin.read()"], stdin=subprocess.PIPE)
    thread, barrier, gone = _watch(master.pid)
    try:
        assert not gone.wait(0.3) and not barrier.aborted.is_set(), "a live master is never affected"
    finally:
        master.stdin.close()
        master.wait(timeout=30)
    thread.join(5.0)
    assert not thread.is_alive() and gone.is_set() and barrier.aborted.is_set()


@requires_pidfd
def test_the_master_watch_of_a_master_already_gone_breaks_the_barrier_at_once():
    master = subprocess.Popen([sys.executable, "-c", "pass"])
    master.wait(timeout=30)
    barrier, gone = _Barrier(), threading.Event()
    member.watch_master(master.pid, barrier, gone)
    assert gone.is_set() and barrier.aborted.is_set()


def test_without_pidfds_the_master_watch_leaves_it_to_the_pipe(monkeypatch):
    monkeypatch.delattr(os, "pidfd_open", raising=False)
    barrier, gone = _Barrier(), threading.Event()
    member.watch_master(os.getpid(), barrier, gone)  # returns at once: nothing to sleep on
    assert not gone.is_set() and not barrier.aborted.is_set()
