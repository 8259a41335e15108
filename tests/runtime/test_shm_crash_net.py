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
import time
from pathlib import Path

import _posixshmem
import pytest

from repro.runtime import shm

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


def _wait_exited(pids: "list[str]", seconds: float = 10.0) -> None:
    """Give the orphaned workers of a killed master time to leave (they are not our children)."""
    deadline = time.monotonic() + seconds
    while any(map(_running, pids)) and time.monotonic() < deadline:
        time.sleep(0.05)


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
    assert _gone_within(SHM / name, 5.0), f"{name} outlived its killed master by 5 s"
    _wait_exited(workers)


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
