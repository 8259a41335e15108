"""Members that share a GIL run beside their master.

Two threads that alternate on a GIL never look imbalanced to the kernel, so
a parked worker left on another processor stays there and every hand-off
wakes that processor.  ``ThreadBackend.run_team`` therefore binds each worker
it takes to the processor the master is on — and only a worker: the master's
own mask is never written.  Where placing cannot help or cannot be done
(free-threaded build, one usable processor, no ``sched_getcpu``, a refused
call) the region runs exactly as before.

Every test that needs members to be placed is skipped where they are not (a
one-processor mask, a free-threaded build); the no-op tests are not, so
``taskset -c 0 pytest tests/runtime/test_placement.py`` proves that path
binds nothing.
"""

from __future__ import annotations

import ctypes
import os
import sys

import numpy as np
import pytest

import repro.obs.registry as obsreg
from repro.runtime import backend as backend_mod
from repro.runtime import context as ctx
from repro.runtime import shm
from repro.runtime.backend import ProcessBackend, ThreadBackend
from repro.runtime.config import config_override, usable_cpus
from repro.runtime.exceptions import BrokenTeamError
from repro.runtime.team import parallel_region

pytestmark = pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no sched_setaffinity here")

MASK = frozenset(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else frozenset()
two_processors = pytest.mark.skipif(
    ThreadBackend().true_parallel or backend_mod._find_sched_getcpu() is None,
    reason="members are not placed here (one usable processor, no GIL to share, or no sched_getcpu)",
)
#: two processors the tests move the master between
CPU_A, CPU_B = (sorted(MASK) + [None, None])[:2]


#: bound before any test patches ``ctypes.CDLL``
_sched_getcpu = getattr(ctypes.CDLL(None), "sched_getcpu", None)


def _moves() -> int:
    return obsreg.get_registry().snapshot()["counters"]["aomp_member_moves_total"]


def _as_if_never_placed() -> None:
    """Parked workers forget their place and get the whole mask back."""
    for worker in backend_mod._idle_workers:
        os.sched_setaffinity(worker.thread.native_id, MASK)
        worker.cpu = None
    backend_mod._find_sched_getcpu.cache_clear()


@pytest.fixture(autouse=True)
def placement(monkeypatch):
    """Each test finds placement decided under the whole mask (the runtime
    looks once, at its first multi-member region) and the parked workers as
    if never placed, sees every bind the runtime issues, and leaves the
    master's mask and the workers as it found them — some tests make a
    worker's mask and what it remembers disagree on purpose."""
    _as_if_never_placed()
    backend_mod._find_sched_getcpu()
    binds: "list[tuple[int, frozenset[int]]]" = []
    real = os.sched_setaffinity

    def recording(pid, mask):
        if pid:  # pid 0 is the test moving its own master
            binds.append((pid, frozenset(mask)))
        real(pid, mask)

    monkeypatch.setattr(os, "sched_setaffinity", recording)
    with config_override(metrics=True):
        yield binds
    monkeypatch.undo()
    os.sched_setaffinity(0, MASK)
    _as_if_never_placed()


def _where(num_threads: int = 3, backend=None) -> "dict[int, tuple[int, frozenset[int]]]":
    """Run a region; ``{member: (processor it ran on, its thread's mask)}``."""
    seen: "dict[int, tuple[int, frozenset[int]]]" = {}

    def body():
        seen[ctx.get_thread_id()] = (_sched_getcpu(), frozenset(os.sched_getaffinity(0)))

    parallel_region(body, num_threads=num_threads, backend=backend or ThreadBackend())
    assert sorted(seen) == list(range(num_threads))
    return seen


@two_processors
class TestMembersRunBesideTheirMaster:
    def test_every_member_reports_the_masters_processor(self):
        os.sched_setaffinity(0, {CPU_A})
        seen = _where()
        assert {cpu for cpu, _mask in seen.values()} == {CPU_A}
        assert seen[1][1] == seen[2][1] == {CPU_A}

    def test_a_free_master_keeps_its_whole_mask(self, placement):
        seen = _where()
        assert frozenset(os.sched_getaffinity(0)) == MASK == seen[0][1]
        # Wherever the kernel had the master at hand-off, both workers went there.
        assert seen[1][1] == seen[2][1] and len(seen[1][1]) == 1 and seen[1][1] <= MASK
        assert all(pid != os.getpid() for pid, _mask in placement)

    def test_a_placed_member_still_counts_the_whole_mask(self):
        """``usable_cpus`` sizes teams and pools: asked from a thread the
        runtime narrowed to one processor it still answers for the process."""
        counted: "dict[int, tuple[int, int]]" = {}

        def body():
            counted[ctx.get_thread_id()] = (len(os.sched_getaffinity(0)), usable_cpus())

        parallel_region(body, num_threads=3, backend=ThreadBackend())
        assert counted == {0: (len(MASK), len(MASK)), 1: (1, len(MASK)), 2: (1, len(MASK))}

    def test_the_masters_mask_survives_a_failing_member(self):
        os.sched_setaffinity(0, {CPU_B})

        def body():
            if ctx.get_thread_id() == 1:
                raise RuntimeError("member 1 fails")

        with pytest.raises(BrokenTeamError):
            parallel_region(body, num_threads=3, backend=ThreadBackend())
        assert os.sched_getaffinity(0) == {CPU_B}
        assert {mask for _cpu, mask in _where().values()} == {frozenset({CPU_B})}

    def test_members_follow_a_master_that_moves_and_comes_back(self, placement):
        os.sched_setaffinity(0, {CPU_A})
        _where()
        for cpu in (CPU_B, CPU_A):
            before, calls = _moves(), len(placement)
            os.sched_setaffinity(0, {cpu})
            seen = _where()
            assert {where for where, _mask in seen.values()} == {cpu}
            assert _moves() - before == 2 == len(placement) - calls  # exactly the workers taken
            assert os.sched_getaffinity(0) == {cpu}
        # At rest a region binds nothing and counts nothing.
        before, calls = _moves(), len(placement)
        for _ in range(20):
            _where()
        assert (_moves(), len(placement)) == (before, calls)

    @pytest.mark.nested
    def test_a_sub_team_follows_its_own_master(self):
        """Outer member 1 re-binds its own thread; its inner team goes with it,
        the main master's inner team stays with the main master."""
        os.sched_setaffinity(0, {CPU_A})
        inner_seen: "dict[tuple[int, int], frozenset[int]]" = {}

        def inner():
            inner_seen[ctx.get_ancestor_thread_id(1), ctx.get_thread_id()] = frozenset(os.sched_getaffinity(0))

        def outer():
            if ctx.get_thread_id() == 1:
                os.sched_setaffinity(0, {CPU_B})
            parallel_region(inner, num_threads=2, backend=ThreadBackend())

        parallel_region(outer, num_threads=2, backend=ThreadBackend())
        assert inner_seen == {
            (0, 0): {CPU_A}, (0, 1): {CPU_A},
            (1, 0): {CPU_B}, (1, 1): {CPU_B},
        }

    def test_a_body_that_rebinds_its_thread_keeps_it_until_the_master_moves(self):
        os.sched_setaffinity(0, {CPU_A})

        def body():
            if ctx.get_thread_id() == 1:
                os.sched_setaffinity(0, {CPU_B})

        parallel_region(body, num_threads=2, backend=ThreadBackend())
        assert _where(2)[1][1] == {CPU_B}  # documented, not fought
        os.sched_setaffinity(0, {CPU_B})
        _where(2)
        os.sched_setaffinity(0, {CPU_A})
        assert _where(2)[1][1] == {CPU_A}

    @pytest.mark.skipif(not shm.fork_available(), reason="needs fork")
    def test_a_forked_childs_first_region_starts_clean(self, watchdog):
        """The child has none of the parent's workers (nor what they remember):
        it starts its own beside *its* master and re-places nobody."""
        os.sched_setaffinity(0, {CPU_A})
        _where()  # workers parked in the parent, bound to CPU_A
        os.sched_setaffinity(0, {CPU_B})  # the child's master inherits this
        backend = ProcessBackend(use_pool=False)
        with shm.shared_zeros(4, np.int64) as report:

            def outer():
                if ctx.get_thread_id() == 1:
                    report[0] = len(backend_mod._idle_workers)
                    inner = _where(2)
                    report[1], report[2] = inner[1][0], len(inner[1][1])
                    report[3] = 1

            before = _moves()
            try:
                watchdog(lambda: parallel_region(outer, num_threads=2, backend=backend), timeout=30)
            finally:
                backend.shutdown()
            assert report.np.tolist() == [0, CPU_B, 1, 1]
            assert _moves() == before


class TestWherePlacingIsOff:
    """Correct results, the same threads, and not one bind."""

    def _assert_nothing_bound(self, binds):
        _where()  # asserts that every member ran
        assert not binds and _moves() == 0

    def test_members_that_run_in_parallel_are_left_alone(self, placement, monkeypatch):
        monkeypatch.setattr(ThreadBackend, "true_parallel", property(lambda self: True))
        backend_mod._find_sched_getcpu.cache_clear()
        self._assert_nothing_bound(placement)
        assert backend_mod._find_sched_getcpu.cache_info().currsize == 0  # never even looked for

    def test_one_usable_processor(self, placement):
        os.sched_setaffinity(0, {min(MASK)})
        backend_mod._find_sched_getcpu.cache_clear()
        self._assert_nothing_bound(placement)
        assert backend_mod._find_sched_getcpu() is None

    @pytest.mark.parametrize("missing", ["ctypes", "libc", "symbol"])
    def test_no_sched_getcpu(self, placement, monkeypatch, missing):
        def cdll(_name):
            if missing == "libc":
                raise OSError("no libc")
            return object()  # a libc without the symbol

        if missing == "ctypes":  # a build without _ctypes, an isolated subinterpreter
            monkeypatch.setitem(sys.modules, "ctypes", None)  # ``import ctypes`` raises ImportError
        else:
            monkeypatch.setattr(ctypes, "CDLL", cdll)
        backend_mod._find_sched_getcpu.cache_clear()
        self._assert_nothing_bound(placement)
        assert backend_mod._find_sched_getcpu() is None

    @two_processors
    def test_a_placement_that_raises_strands_no_worker(self, monkeypatch):
        _where()  # two workers parked
        parked = list(backend_mod._idle_workers)

        def broken():
            raise RuntimeError("placement is broken")

        monkeypatch.setattr(backend_mod, "_find_sched_getcpu", broken)
        with pytest.raises(RuntimeError, match="placement is broken"):
            _where()
        assert sorted(map(id, backend_mod._idle_workers)) == sorted(map(id, parked))

    @two_processors
    def test_a_refused_bind_never_fails_the_region(self, monkeypatch):
        asked: "list[int]" = []

        def refuse(pid, mask):
            asked.append(pid)
            raise PermissionError("cpuset says no")

        os.sched_setaffinity(0, {CPU_A})
        monkeypatch.setattr(os, "sched_setaffinity", refuse)
        for _ in range(3):
            _where()
        assert len(asked) == 2 and os.getpid() not in asked  # once per worker, not per region
        assert _moves() == 0
