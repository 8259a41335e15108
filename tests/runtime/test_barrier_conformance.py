"""One barrier, every storage: conformance of :class:`CyclicBarrier`.

The generation protocol is written once, over the cell allocator; only the
wake-up differs by storage.  Every case runs on each storage a team barrier
lives in, with the kinds of parties that meet there:

* ``heap-threads`` — :func:`~repro.runtime.shm.heap_cells` (thread teams, the
  socket plane's coordinator), parties are threads;
* ``mp-threads`` — :func:`~repro.runtime.shm.mp_cells` with thread parties;
* ``mp-processes`` — :func:`~repro.runtime.shm.mp_cells` with forked parties
  (fork and pool teams), the barrier built before they fork.

The test process is always one more party, as a team's master member is.
"""

from __future__ import annotations

import contextlib
import threading
import time

import pytest

from repro.runtime import dataplane, shm
from repro.runtime.backend import shm_process_sync
from repro.runtime.barrier import _COUNT, BrokenBarrierError, CyclicBarrier
from repro.runtime.config import DEFAULT_BARRIER_TIMEOUT

STORAGES = ["heap-threads", "mp-threads", "mp-processes"]


@pytest.fixture(params=STORAGES)
def storage(request):
    if request.param.startswith("mp") and not shm.fork_available():
        pytest.skip("mp cells are handed to parties by fork inheritance")
    return request.param


def make(storage: str, parties: int, **options) -> CyclicBarrier:
    cells = shm.heap_cells if storage.startswith("heap") else shm.mp_cells
    return CyclicBarrier(parties, cells=cells, **options)


def counter():
    """An int64 cell every kind of party can bump (fork-inherited memory)."""
    return shm._mp_context().RawValue("q", 0)  # noqa: SLF001


class Parties:
    """Runs callables as this storage's other parties: threads, or processes
    forked after the barrier exists.  ``join`` returns each one's outcome, in
    start order: ``("returned", value)`` or ``("raised", type name, message)``."""

    def __init__(self, storage: str, *bodies) -> None:
        self._forked = storage.endswith("processes")
        self._outcomes: dict = {}
        if self._forked:
            ctx = shm._mp_context()  # noqa: SLF001
            self._read, write = ctx.Pipe(duplex=False)
            self._runners = [ctx.Process(target=self._run, args=(i, body, write.send)) for i, body in enumerate(bodies)]
        else:
            self._runners = [
                threading.Thread(target=self._run, args=(i, body, self._record)) for i, body in enumerate(bodies)
            ]
        for runner in self._runners:
            runner.start()

    def _record(self, item) -> None:
        self._outcomes[item[0]] = item[1]

    @staticmethod
    def _run(index, body, report) -> None:
        try:
            report((index, ("returned", body())))
        except BaseException as exc:  # noqa: BLE001 - the outcome is the test's to judge
            report((index, ("raised", type(exc).__name__, str(exc))))

    def alive(self) -> int:
        return sum(runner.is_alive() for runner in self._runners)

    def join(self, timeout: float = 10.0) -> list:
        deadline = time.monotonic() + timeout
        for runner in self._runners:
            runner.join(max(0.0, deadline - time.monotonic()))
        assert self.alive() == 0, "a party is still blocked"
        if self._forked:
            for _ in self._runners:  # every writer is gone: a party that never reported leaves EOF
                with contextlib.suppress(EOFError):
                    self._record(self._read.recv())
        return [self._outcomes.get(i) for i in range(len(self._runners))]


def sleepers(barrier: CyclicBarrier, count: int, timeout: float = 10.0) -> None:
    """Wait until ``count`` parties sleep in the open round (the count cell)."""
    deadline = time.monotonic() + timeout
    while barrier._cells[_COUNT] < count:  # noqa: SLF001
        assert time.monotonic() < deadline, "parties never went to sleep"
        time.sleep(0.002)


def broken(outcome) -> bool:
    return outcome[:2] == ("raised", "BrokenBarrierError")


class TestBarrierConformance:
    def test_requires_positive_parties(self, storage):
        with pytest.raises(ValueError):
            make(storage, 0)
        with pytest.raises(ValueError):
            make(storage, 2).reset(0)

    def test_single_party_never_blocks(self, storage):
        barrier = make(storage, 1)
        for _ in range(5):
            assert barrier.wait(timeout=1) == 0
        assert barrier.wait() == 0

    @pytest.mark.parametrize("timeout", [5, "default"])
    def test_releases_all_parties_only_once_the_last_arrives(self, storage, timeout):
        barrier = make(storage, 3)
        kwargs = {} if timeout == "default" else {"timeout": timeout}
        parties = Parties(storage, *[lambda: barrier.wait(**kwargs)] * 2)
        sleepers(barrier, 2)
        time.sleep(0.05)
        assert parties.alive() == 2  # nobody released until the last party arrives
        assert barrier.wait(**kwargs) == 0
        assert sorted(outcome[1] for outcome in parties.join()) == [1, 2]

    @pytest.mark.parametrize("rounds", [3, 10])
    def test_reusable_across_rounds(self, storage, rounds):
        barrier = make(storage, 2)
        parties = Parties(storage, lambda: [barrier.wait(timeout=5) for _ in range(rounds)])
        mine = [barrier.wait(timeout=5) for _ in range(rounds)]
        (theirs,) = parties.join()
        assert [a + b for a, b in zip(mine, theirs[1])] == [1] * rounds  # indices 0 and 1 each round

    def test_arrival_index(self, storage):
        barrier = make(storage, 2)
        parties = Parties(storage, lambda: barrier.wait(timeout=5))
        sleepers(barrier, 1)
        assert barrier.wait(timeout=5) == 0
        assert parties.join() == [("returned", 1)]

    def test_barrier_action_runs_once_per_round(self, storage):
        actions = counter()

        def action():
            actions.value += 1

        barrier = make(storage, 2, action=action)
        parties = Parties(storage, lambda: [barrier.wait(timeout=5) for _ in range(3)])
        for _ in range(3):
            barrier.wait(timeout=5)
        parties.join()
        assert actions.value == 3

    def test_a_failing_action_breaks_the_barrier(self, storage):
        def action():
            raise RuntimeError("action failed")

        barrier = make(storage, 2, action=action)
        parties = Parties(storage, lambda: barrier.wait(timeout=5))
        sleepers(barrier, 1)
        with pytest.raises(RuntimeError, match="action failed"):
            barrier.wait(timeout=5)
        assert broken(parties.join()[0])
        assert barrier.broken

    @pytest.mark.parametrize("asleep", [True, False])
    def test_abort_wakes_waiters_with_error(self, storage, asleep):
        barrier = make(storage, 2)
        parties = Parties(storage, lambda: barrier.wait(timeout=5))
        if asleep:
            sleepers(barrier, 1)
        barrier.abort()
        assert broken(parties.join()[0])
        assert barrier.broken
        with pytest.raises(BrokenBarrierError):
            barrier.wait(timeout=1)

    def test_reset_breaks_the_open_round_and_reenables(self, storage):
        """A party asleep when ``reset`` runs gets ``BrokenBarrierError``."""
        barrier = make(storage, 2)
        parties = Parties(storage, lambda: barrier.wait(timeout=5))
        sleepers(barrier, 1)
        barrier.reset()
        assert broken(parties.join()[0])
        assert not barrier.broken
        parties = Parties(storage, lambda: barrier.wait(timeout=5))  # fresh rounds work again
        sleepers(barrier, 1)
        assert barrier.wait(timeout=5) == 0
        assert parties.join() == [("returned", 1)]

    def test_reset_restores_and_changes_parties(self, storage):
        barrier = make(storage, 4)
        barrier.abort()
        barrier.reset(1)
        assert barrier.parties == 1 and not barrier.broken
        assert barrier.wait() == 0  # single party: returns immediately
        barrier.reset(2)
        parties = Parties(storage, lambda: barrier.wait(timeout=5))
        barrier.wait(timeout=5)
        assert parties.join()[0][0] == "returned"

    @pytest.mark.parametrize("bound", ["wait", "construction"])
    def test_timeout_breaks_the_barrier(self, storage, bound):
        barrier = make(storage, 2, **({"timeout": 0.05} if bound == "construction" else {}))
        with pytest.raises(BrokenBarrierError, match="timed out after 0.05s"):
            barrier.wait(**({"timeout": 0.05} if bound == "wait" else {}))
        assert barrier.broken
        with pytest.raises(BrokenBarrierError):
            barrier.wait(timeout=1)

    def test_a_timed_out_party_breaks_the_round_for_every_sleeper(self, storage):
        barrier = make(storage, 4)
        parties = Parties(storage, *[lambda: barrier.wait(timeout=None)] * 2)
        sleepers(barrier, 2)
        with pytest.raises(BrokenBarrierError, match=r"timed out after 0.2s \(3 of 4 parties arrived\)"):
            barrier.wait(timeout=0.2)
        outcomes = parties.join()
        assert all(broken(outcome) and "timed out" not in outcome[2] for outcome in outcomes)
        assert barrier.broken

    def test_an_explicit_none_waits_past_a_short_construction_bound(self, storage):
        barrier = make(storage, 2, timeout=0.05)
        parties = Parties(storage, lambda: barrier.wait(timeout=None))
        sleepers(barrier, 1)
        time.sleep(0.3)
        assert parties.alive() == 1
        assert barrier.wait(timeout=5) == 0
        assert parties.join() == [("returned", 1)]
        assert not barrier.broken


class TestBarrierTimeoutContract:
    @pytest.mark.parametrize("cells", [shm.heap_cells, shm.mp_cells], ids=["heap", "mp"])
    def test_every_team_barrier_reads_the_env_knob(self, cells, monkeypatch):
        """Thread teams and fork/pool teams follow one timeout contract."""
        if cells is shm.mp_cells and not shm.fork_available():
            pytest.skip("mp cells are handed to parties by fork inheritance")
        monkeypatch.delenv("AOMP_BARRIER_TIMEOUT", raising=False)
        assert CyclicBarrier(2, cells=cells)._timeout == DEFAULT_BARRIER_TIMEOUT  # noqa: SLF001
        monkeypatch.setenv("AOMP_BARRIER_TIMEOUT", "300")
        assert CyclicBarrier(2, cells=cells)._timeout == 300.0  # noqa: SLF001
        monkeypatch.setenv("AOMP_BARRIER_TIMEOUT", "0")
        barrier = CyclicBarrier(2, cells=cells)
        assert barrier._timeout is None  # noqa: SLF001 - disabled: wait forever
        waiter = threading.Thread(target=barrier.wait)
        waiter.start()
        time.sleep(0.05)
        barrier.wait(timeout=5)
        waiter.join(timeout=5)
        assert not waiter.is_alive() and not barrier.broken

    def test_explicit_none_is_stored_as_unbounded(self):
        assert CyclicBarrier(2, timeout=None)._timeout is None  # noqa: SLF001

    def test_socket_coordinator_timeout_names_its_plane(self):
        barrier = dataplane.CyclicBarrier(2, timeout=0.05, transport=dataplane.SOCKET_TRANSPORT)
        with pytest.raises(BrokenBarrierError, match=r"socket data plane"):
            barrier.wait()

    def test_shm_plane_timeout_names_its_plane(self, monkeypatch):
        if not shm.fork_available():
            pytest.skip("the shm plane needs multiprocessing primitives")
        monkeypatch.setenv("AOMP_BARRIER_TIMEOUT", "0.05")
        barrier = shm_process_sync(2).barrier
        with pytest.raises(BrokenBarrierError, match=r"shm data plane"):
            barrier.wait()
