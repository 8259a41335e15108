"""Shared-memory primitives backing the process-based execution backend.

The thread backend shares state for free (one address space); the process
backend does not.  This module provides the pieces that make OpenMP-style
*shared* data and team synchronisation work across process boundaries:

* :class:`SharedArray` — a numpy array living in ``multiprocessing``
  POSIX shared memory.  Worksharing chunks executed by worker processes
  mutate the *same* pages the master reads, so a ``@For`` loop over a
  shared array behaves exactly as it does under threads — no pickling of
  array copies, no gather step.
* :class:`SharedBarrier` — a reusable cyclic barrier built on a
  ``multiprocessing`` condition variable, API-compatible with
  :class:`repro.runtime.barrier.CyclicBarrier` (``wait``/``abort``/``reset``).
* :class:`SyncArena` — a pre-allocated pool of shared claim counters.
  Dynamic/guided loop schedules need a cross-member claim counter, but loops
  are only *encountered* after worker processes have been created, when new
  ``multiprocessing`` primitives can no longer be shared.  The arena is
  allocated before the workers exist; because region bodies are SPMD, the
  *n*-th workshared loop encountered by each member maps to the same arena
  slot on every member (the same trick the thread runtime uses for its
  shared-slot keys).
* :class:`ProcessDynamicState` / :class:`ProcessGuidedState` — process-safe
  drop-ins for the thread schedulers' shared loop state, built on arena slots.
* :class:`TaskStealArena` — a pre-allocated pool of work-stealing *tile decks*
  for the task runtime's ``taskloop`` construct (see
  :mod:`repro.runtime.tasks`).  Like the :class:`SyncArena`, it is allocated
  before worker processes exist and indexed by the SPMD loop ordinal.

Everything here also works under the serial and thread backends (shared
memory is just memory), which is what lets the conformance test suite assert
identical construct behaviour across all backends.

**The fork constraint.**  Every ``multiprocessing`` primitive in this module
(barrier condition variables, arena locks, the queues of the persistent
pool) is created *before* worker processes exist and handed to them by
address-space inheritance — which only the ``fork`` start method provides.
Under ``spawn`` or ``forkserver`` the children would re-import and pickle
their arguments instead: closures and woven classes cannot be pickled, and a
pre-created ``SharedArray`` handoff would silently attach *after* the parent
may already have unlinked the segment.  The process backend therefore pins
:data:`FORK_METHOD` explicitly (never the ambient default, which 3.14
changed away from fork), degrades to the thread backend where fork is
missing, and components that cannot degrade — the persistent pool — fail
loudly through :func:`require_fork`.

The *subinterpreter* backend (:mod:`repro.runtime.subinterp`) reuses this
module as its data plane with one twist: ``multiprocessing`` locks and
condition variables cannot cross an interpreter boundary, so it builds the
same arenas over :class:`SharedArray` cell storage guarded by
:class:`PipeLock` (an OS-pipe token mutex — file descriptors are plain ints,
valid in every interpreter of the process) and uses the polling
:class:`InterpBarrier` instead of :class:`SharedBarrier`.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import pickle
import secrets
import time
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from typing import Any, Optional

import numpy as np

from repro.runtime.barrier import BrokenBarrierError
from repro.runtime.exceptions import BackendError
from repro.runtime.scheduler import block_counts, claim_cap, guided_claim_batch

#: start method used for every process-backend primitive.  Workers must
#: inherit the parent's address space (closures and woven classes cannot be
#: pickled), which only ``fork`` provides; the backend falls back to threads
#: on platforms without it.
FORK_METHOD = "fork"


def fork_available() -> bool:
    """Whether the ``fork`` start method exists on this platform."""
    return FORK_METHOD in multiprocessing.get_all_start_methods()


def require_fork(component: str) -> None:
    """Fail loudly when ``component`` needs fork semantics and fork is absent.

    Components that *can* degrade (the process backend itself) fall back to
    threads instead; components whose contract is fork inheritance — the
    persistent worker pool hands pre-created barriers, arenas and queues to
    its children by address-space inheritance — must not be constructed at
    all under spawn/forkserver, where the handoff would silently break.
    """
    if not fork_available():
        raise BackendError(
            f"{component} requires the {FORK_METHOD!r} multiprocessing start method "
            "(the shm data plane hands pre-created SharedArray/arena state to "
            "workers by address-space inheritance; spawn/forkserver would "
            "re-import and pickle instead), "
            f"but this platform only offers: {', '.join(multiprocessing.get_all_start_methods())}. "
            "Use the threads or subinterp backend here, or the distributed "
            "backend (socket data plane), which does not fork."
        )


#: Number of team nesting levels the arenas can namespace.  Loop ordinals are
#: per-team-level counters (SPMD bodies count the loops *their* team
#: workshares), so two teams at different levels sharing one arena would
#: collide on ordinal ``k`` without a namespace.  Every arena therefore maps
#: ``(ordinal, level)`` to the cell index ``ordinal * MAX_TEAM_LEVELS +
#: level``: distinct levels occupy distinct residues modulo
#: ``MAX_TEAM_LEVELS``, and because every arena capacity is a multiple of
#: ``MAX_TEAM_LEVELS`` the residues stay disjoint after the ``% capacity``
#: slot recycling too.
#:
#: Today this is a *defensive* invariant: process teams only exist at
#: nesting level 0 (``ProcessBackend.resolve_for_region`` routes nested
#: regions to in-process thread sub-teams, which use the heap
#: ``Team.shared_slot`` instead of the arenas), so production slots always
#: carry ``level=0``.  The namespace guarantees the arenas stay correct the
#: day a nested team *does* share an ancestor's ProcessSync — a silent
#: claim-slot collision would corrupt loop results, the worst failure mode
#: this module can have.
MAX_TEAM_LEVELS = 8


def _namespaced_ordinal(ordinal: int, level: int) -> int:
    """Map a per-level loop ordinal to the arena-wide slot ordinal."""
    if not (0 <= level < MAX_TEAM_LEVELS):
        raise ValueError(
            f"team nesting level {level} outside the arena namespace "
            f"[0, {MAX_TEAM_LEVELS}); deeper teams must not share this arena"
        )
    return ordinal * MAX_TEAM_LEVELS + level


def _mp_context():
    return multiprocessing.get_context(FORK_METHOD)


def fill_cells(cells: Any, start: int, stop: int, step: int, value: int) -> None:
    """``cells[start:stop:step] = value`` as one bulk store.

    The arenas' ``reset()`` runs before every pooled region, so it must not
    walk the cells in Python.  Works on each storage the arenas accept:
    heap lists (slice assignment), and ``SharedArray`` / ``multiprocessing``
    ctypes arrays / anything else exporting an int64 buffer (a strided numpy
    store straight into the shared pages).
    """
    if isinstance(cells, list):
        cells[start:stop:step] = [value] * len(range(start, stop, step))
        return
    view = cells.np if isinstance(cells, SharedArray) else np.frombuffer(cells, dtype=np.int64)
    view[start:stop:step] = value


# ---------------------------------------------------------------------------
# Shared arrays
# ---------------------------------------------------------------------------


class SharedArray:
    """A numpy array backed by ``multiprocessing.shared_memory``.

    Behaves like an ndarray for the operations kernels use (indexing, slice
    assignment, ufuncs through ``__array__``, attribute delegation for
    ``sum()``/``shape``/...).  Pickling ships only the segment *name*; the
    receiving process re-attaches to the same physical pages, so bound
    methods of kernels holding shared arrays can be sent to a persistent
    worker pool without copying the data.

    The creating process owns the segment and unlinks it in :meth:`close`;
    attached processes merely detach.  Both register :meth:`close` with
    ``atexit`` as a safety net — the owner's net guarantees no ``/dev/shm``
    residue even when a region body raises before its ``finally`` cleanup
    runs, the non-owner's guarantees a clean detach so the resource tracker
    has nothing to complain about at interpreter shutdown — and both
    unregister it again on an explicit close.
    """

    def __init__(self, shm: shared_memory.SharedMemory, shape: tuple, dtype: np.dtype, *, owner: bool) -> None:
        self._shm = shm
        self._shape = tuple(shape)
        self._dtype = np.dtype(dtype)
        self._owner = owner
        self._closed = False
        self.np: np.ndarray = np.ndarray(self._shape, dtype=self._dtype, buffer=shm.buf)
        atexit.register(self.close)

    # -- construction --------------------------------------------------------

    @classmethod
    def zeros(cls, shape: "int | tuple", dtype: Any = np.float64) -> "SharedArray":
        """Allocate a zero-filled shared array."""
        if isinstance(shape, int):
            shape = (shape,)
        dtype = np.dtype(dtype)
        size = max(1, int(np.prod(shape)) * dtype.itemsize)
        shm = shared_memory.SharedMemory(create=True, size=size, name=_segment_name())
        array = cls(shm, shape, dtype, owner=True)
        array.np.fill(0)
        return array

    @classmethod
    def from_array(cls, source: np.ndarray) -> "SharedArray":
        """Copy ``source`` into a fresh shared array of the same shape/dtype."""
        array = cls.zeros(source.shape, source.dtype)
        array.np[...] = source
        return array

    # -- pickling: attach by name -------------------------------------------

    def __reduce__(self):
        return (_attach_shared_array, (self._shm.name, self._shape, self._dtype.str))

    # -- ndarray-ish surface -------------------------------------------------

    def __array__(self, dtype=None) -> np.ndarray:
        return self.np.astype(dtype) if dtype is not None else self.np

    def __getitem__(self, key):
        return self.np[key]

    def __setitem__(self, key, value) -> None:
        self.np[key] = value

    def __len__(self) -> int:
        return len(self.np)

    def __getattr__(self, name):
        # Delegate everything numpy-ish (sum, shape, dtype, fill, ...) to the
        # underlying view.  Only called for attributes not found on self.
        return getattr(object.__getattribute__(self, "np"), name)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"SharedArray(name={self._shm.name!r}, shape={self._shape}, dtype={self._dtype})"

    # -- lifecycle -----------------------------------------------------------

    @property
    def name(self) -> str:
        """Name of the backing shared-memory segment."""
        return self._shm.name

    def close(self) -> None:
        """Detach from the segment; only the owner ever unlinks it.

        Safe to call twice and safe in an attached process racing the owner's
        unlink: the non-owner path never unlinks, so the owner's unlink is the
        single point where the segment's name disappears, and only the benign
        double-unlink race (two exits of the *owning* process's safety nets)
        is swallowed.
        """
        if self._closed:
            return
        self._closed = True
        # Symmetric with __init__ for owner *and* non-owner registrations.
        atexit.unregister(self.close)
        # Drop the view before closing the mmap underneath it.
        self.np = None  # type: ignore[assignment]
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover - an exported view pins the mmap
            return  # stay attached rather than crash; unlink still runs below
        finally:
            if self._owner:
                try:
                    self._shm.unlink()
                except FileNotFoundError:  # pragma: no cover - already unlinked
                    pass

    def __enter__(self) -> "SharedArray":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _segment_name() -> str:
    return f"aomp_{os.getpid()}_{secrets.token_hex(4)}"


#: Attach redirection hook installed by the socket data plane
#: (:class:`repro.runtime.dataplane.WorkerSession`): in a distributed worker
#: process the master's ``/dev/shm`` segments are a different host in
#: principle, so unpickled :class:`SharedArray` references resolve to
#: socket-backed mirrors instead of attaching locally.
_attach_hook = None

#: While :func:`loads_tracking_attachments` runs: the list every locally
#: attached array is appended to.
_attach_log: "list[SharedArray] | None" = None


def _attach_shared_array(name: str, shape: tuple, dtype_str: str):
    """Re-attach to an existing segment (pickle support for worker processes).

    Attaching registers the segment with the resource tracker (CPython
    < 3.13), and the duplicate register/unregister traffic from several
    workers attaching the same segment confuses the tracker at shutdown.
    Lifetime is managed by the creating process alone, so registration is
    suppressed for the duration of the attach.

    When a data-plane attach hook is installed (socket-plane worker), the
    reference resolves through it instead of touching local shared memory.
    """
    if _attach_hook is not None:
        return _attach_hook(name, shape, dtype_str)

    def _suppress_register(*args: Any, **kwargs: Any) -> None:
        return None

    original_register = resource_tracker.register
    resource_tracker.register = _suppress_register  # type: ignore[assignment]
    try:
        shm = shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original_register  # type: ignore[assignment]
    array = SharedArray(shm, shape, np.dtype(dtype_str), owner=False)
    if _attach_log is not None:
        _attach_log.append(array)
    return array


def loads_tracking_attachments(data: bytes) -> "tuple[Any, list[SharedArray]]":
    """``pickle.loads(data)`` plus the shared arrays it attached on the way.

    A long-lived worker that unpickles a body per region must
    :meth:`~SharedArray.close` those attachments when the region ends —
    nothing else ever does, and each one holds a mapping and a descriptor.
    The log is process-wide while the call runs: pool workers call this from
    their only thread, between regions.
    """
    global _attach_log
    attached: "list[SharedArray]" = []
    previous, _attach_log = _attach_log, attached
    try:
        return pickle.loads(data), attached
    except BaseException:
        for array in attached:
            array.close()
        raise
    finally:
        _attach_log = previous


def shared_zeros(shape: "int | tuple", dtype: Any = np.float64) -> SharedArray:
    """Convenience alias for :meth:`SharedArray.zeros`."""
    return SharedArray.zeros(shape, dtype)


def as_shared(array: "np.ndarray | SharedArray") -> SharedArray:
    """Return ``array`` as a :class:`SharedArray`, copying if necessary."""
    if isinstance(array, SharedArray):
        return array
    return SharedArray.from_array(np.asarray(array))


def is_shared(array: Any) -> bool:
    """Whether ``array`` is backed by shared memory."""
    return isinstance(array, SharedArray)


# ---------------------------------------------------------------------------
# Cross-process synchronisation
# ---------------------------------------------------------------------------

#: Upper bound on how long any member waits in a team barrier before
#: declaring it broken.  Prevents livelock when a sibling process dies
#: without reaching the barrier (the stress suite relies on this guard).
BARRIER_TIMEOUT = 120.0


class SharedBarrier:
    """A reusable cyclic barrier usable from multiple processes.

    Mirrors the :class:`~repro.runtime.barrier.CyclicBarrier` surface used by
    :class:`~repro.runtime.team.Team` (``wait``, ``abort``, ``reset``,
    ``parties``).  Built on a ``multiprocessing`` condition plus a small
    shared state vector so it can be *reset* to a new party count and reused
    by a persistent worker pool across regions.
    """

    _COUNT, _GENERATION, _BROKEN, _PARTIES = range(4)

    def __init__(self, parties: int, *, timeout: float = BARRIER_TIMEOUT) -> None:
        if parties < 1:
            raise ValueError(f"barrier needs at least 1 party, got {parties}")
        ctx = _mp_context()
        self._cond = ctx.Condition()
        self._state = ctx.Array("q", 4, lock=False)
        self._state[self._PARTIES] = parties
        self._timeout = timeout

    @property
    def parties(self) -> int:
        return int(self._state[self._PARTIES])

    @property
    def broken(self) -> bool:
        """Lock-free read of the flag cell (an aligned 8-byte load); a stale
        answer only delays a polling claim loop by one claim."""
        return bool(self._state[self._BROKEN])

    def wait(self, timeout: Optional[float] = None) -> int:
        """Block until all parties arrive; raises :class:`BrokenBarrierError` on abort/timeout."""
        limit = timeout if timeout is not None else self._timeout
        state = self._state
        with self._cond:
            if state[self._BROKEN]:
                raise BrokenBarrierError("barrier is broken")
            generation = state[self._GENERATION]
            index = state[self._PARTIES] - 1 - state[self._COUNT]
            state[self._COUNT] += 1
            if state[self._COUNT] == state[self._PARTIES]:
                state[self._COUNT] = 0
                state[self._GENERATION] += 1
                self._cond.notify_all()
                return int(index)
            while state[self._GENERATION] == generation and not state[self._BROKEN]:
                if not self._cond.wait(limit):
                    state[self._BROKEN] = 1
                    self._cond.notify_all()
                    raise BrokenBarrierError(
                        f"barrier wait timed out after {limit:g}s "
                        f"({int(state[self._COUNT])} of {int(state[self._PARTIES])} parties arrived) "
                        "[shm data plane, fork-inherited condition barrier]"
                    )
            if state[self._BROKEN]:
                raise BrokenBarrierError("barrier is broken")
            return int(index)

    def abort(self) -> None:
        """Break the barrier, releasing all waiters with an error."""
        with self._cond:
            self._state[self._BROKEN] = 1
            self._cond.notify_all()

    def reset(self, parties: Optional[int] = None) -> None:
        """Restore the barrier to a fresh state, optionally with a new party count."""
        with self._cond:
            state = self._state
            state[self._COUNT] = 0
            state[self._GENERATION] += 1
            state[self._BROKEN] = 0
            if parties is not None:
                if parties < 1:
                    raise ValueError(f"barrier needs at least 1 party, got {parties}")
                state[self._PARTIES] = parties
            self._cond.notify_all()


class HeartbeatArena:
    """Per-member liveness cells shared across the team's processes.

    Three int64 cells per member: the member's OS **pid** (written once at
    region entry), a monotonic-nanosecond **beat** refreshed at every team
    barrier, and a **barrier-arrival counter**.  Each member writes only its
    own cells and every write is an aligned 8-byte store, so no lock is
    needed; readers (the master's :class:`~repro.runtime.faults.WorkerMonitor`
    and error-enrichment paths) tolerate slightly stale values by design.

    The pid cell lets the master map a dead worker process back to the team
    member it was executing (pool workers pick members per region, so the
    process list alone cannot); the beat cell drives optional stale-member
    detection (``AOMP_HEARTBEAT_TIMEOUT``); the arrival counter feeds
    "which members had arrived" barrier-failure diagnostics.

    Like the other arenas, storage is pluggable: the subinterpreter backend
    passes a :class:`SharedArray` int64 view via ``cells=`` (with
    ``fresh=False`` on the attaching side).
    """

    _PID, _BEAT, _ARRIVALS = range(3)
    #: int64 cells per member (for sizing external storage; see ``cells=``).
    CELLS_PER_MEMBER = 3
    DEFAULT_CAPACITY = 64

    def __init__(self, capacity: int = DEFAULT_CAPACITY, *, cells: Any = None, fresh: bool = True) -> None:
        if capacity < 1:
            raise ValueError(f"heartbeat arena needs at least 1 member slot, got {capacity}")
        if cells is None:
            ctx = _mp_context()
            cells = ctx.Array("q", self.CELLS_PER_MEMBER * capacity, lock=False)
        self.capacity = capacity
        self._cells = cells
        if fresh:
            self.reset()

    @property
    def cells(self) -> Any:
        """The backing int64 cell storage (for attaching a second arena)."""
        return self._cells

    def reset(self) -> None:
        """Clear every member slot (called between regions by the pool)."""
        fill_cells(self._cells, 0, self.CELLS_PER_MEMBER * self.capacity, 1, 0)

    def register(self, member: int, pid: "int | None" = None) -> None:
        """Record the owner of ``member``'s slot.

        ``pid`` defaults to the calling process — the fork/subinterp planes
        register in-process — but the socket plane's coordinator registers on
        a remote worker's behalf and passes the pid from its hello frame.
        """
        if member >= self.capacity:
            return
        base = self.CELLS_PER_MEMBER * member
        self._cells[base + self._PID] = os.getpid() if pid is None else pid
        self._cells[base + self._BEAT] = time.monotonic_ns()

    def beat(self, member: int) -> None:
        """Refresh ``member``'s liveness timestamp."""
        if member >= self.capacity:
            return
        self._cells[self.CELLS_PER_MEMBER * member + self._BEAT] = time.monotonic_ns()

    def note_arrival(self, member: int) -> None:
        """Count a barrier arrival for ``member`` (also refreshes its beat)."""
        if member >= self.capacity:
            return
        base = self.CELLS_PER_MEMBER * member
        self._cells[base + self._ARRIVALS] += 1
        self._cells[base + self._BEAT] = time.monotonic_ns()

    def pid(self, member: int) -> int:
        """OS pid registered for ``member`` (0 = never registered)."""
        if member >= self.capacity:
            return 0
        return int(self._cells[self.CELLS_PER_MEMBER * member + self._PID])

    def age(self, member: int) -> "float | None":
        """Seconds since ``member``'s last beat, or ``None`` if unregistered."""
        if member >= self.capacity:
            return None
        beat = int(self._cells[self.CELLS_PER_MEMBER * member + self._BEAT])
        if beat == 0:
            return None
        return (time.monotonic_ns() - beat) / 1e9

    def arrivals(self, size: int) -> list[int]:
        """Barrier-arrival counts for the first ``size`` members."""
        size = min(size, self.capacity)
        return [int(self._cells[self.CELLS_PER_MEMBER * m + self._ARRIVALS]) for m in range(size)]

    def member_for_pid(self, pid: int) -> "int | None":
        """Team member registered by the process ``pid``, or ``None``."""
        if pid:
            for member in range(self.capacity):
                if int(self._cells[self.CELLS_PER_MEMBER * member + self._PID]) == pid:
                    return member
        return None


class PipeLock:
    """A mutex built on an OS pipe holding a single token byte.

    ``multiprocessing`` locks are Python objects and cannot cross a
    subinterpreter boundary; file descriptors are process-wide integers valid
    in *every* interpreter of the process (and, inherited across ``fork``, in
    child processes too).  ``acquire`` blocks in ``os.read`` until the token
    byte is available; ``release`` writes it back.  Not reentrant — exactly
    like the ``multiprocessing`` locks it substitutes for, which the arenas
    never nest.
    """

    __slots__ = ("_read_fd", "_write_fd", "_owner")

    def __init__(self, fds: "tuple[int, int] | None" = None) -> None:
        if fds is None:
            self._read_fd, self._write_fd = os.pipe()
            os.write(self._write_fd, b"\x00")  # seed the token: lock starts free
            self._owner = True
        else:
            self._read_fd, self._write_fd = fds
            self._owner = False

    @property
    def fds(self) -> "tuple[int, int]":
        """The ``(read, write)`` descriptor pair — the lock's shareable identity."""
        return (self._read_fd, self._write_fd)

    def acquire(self) -> None:
        os.read(self._read_fd, 1)

    def release(self) -> None:
        os.write(self._write_fd, b"\x00")

    def __enter__(self) -> "PipeLock":
        self.acquire()
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()

    def close(self) -> None:
        """Close the pipe (creator only: fds are shared by every attached party)."""
        if self._owner:
            self._owner = False
            os.close(self._read_fd)
            os.close(self._write_fd)


class InterpBarrier:
    """A cyclic barrier over :class:`SharedArray` cells and a :class:`PipeLock`.

    The polling twin of :class:`SharedBarrier` for teams whose members cannot
    share a ``multiprocessing`` condition variable (subinterpreters).  State
    layout and semantics (``wait``/``abort``/``reset``/``parties``/``broken``)
    are identical; waiters poll the generation counter instead of sleeping on
    a condvar, with the same cadence the tune-plan slots already use.
    """

    _COUNT, _GENERATION, _BROKEN, _PARTIES = range(4)
    CELLS = 4
    POLL_INTERVAL = 0.0002

    def __init__(
        self,
        parties: "int | None" = None,
        *,
        cells: Any = None,
        lock: Any = None,
        timeout: float = BARRIER_TIMEOUT,
    ) -> None:
        if cells is None:
            if parties is None or parties < 1:
                raise ValueError(f"barrier needs at least 1 party, got {parties}")
            cells = SharedArray.zeros(self.CELLS, np.int64)
            lock = PipeLock()
            cells[self._PARTIES] = parties
        elif lock is None:
            raise ValueError("external cells need an external lock")
        self._cells = cells
        self._lock = lock
        self._timeout = timeout

    @property
    def parties(self) -> int:
        return int(self._cells[self._PARTIES])

    @property
    def broken(self) -> bool:
        """Lock-free read of the flag cell, as on :class:`SharedBarrier`."""
        return bool(self._cells[self._BROKEN])

    def wait(self, timeout: Optional[float] = None) -> int:
        """Block until all parties arrive; raises :class:`BrokenBarrierError` on abort/timeout."""
        limit = timeout if timeout is not None else self._timeout
        cells = self._cells
        with self._lock:
            if cells[self._BROKEN]:
                raise BrokenBarrierError("barrier is broken")
            generation = int(cells[self._GENERATION])
            index = int(cells[self._PARTIES]) - 1 - int(cells[self._COUNT])
            cells[self._COUNT] += 1
            if cells[self._COUNT] == cells[self._PARTIES]:
                cells[self._COUNT] = 0
                cells[self._GENERATION] += 1
                return index
        deadline = time.monotonic() + limit
        while True:
            with self._lock:
                if cells[self._BROKEN]:
                    raise BrokenBarrierError("barrier is broken")
                if cells[self._GENERATION] != generation:
                    return index
                if time.monotonic() > deadline:
                    cells[self._BROKEN] = 1
                    raise BrokenBarrierError(
                        f"barrier wait timed out after {limit:g}s "
                        f"({int(cells[self._COUNT])} of {int(cells[self._PARTIES])} parties arrived) "
                        "[shm data plane, pipe-lock polling barrier]"
                    )
            time.sleep(self.POLL_INTERVAL)

    def abort(self) -> None:
        """Break the barrier, releasing all waiters with an error."""
        with self._lock:
            self._cells[self._BROKEN] = 1

    def reset(self, parties: Optional[int] = None) -> None:
        """Restore the barrier to a fresh state, optionally with a new party count."""
        with self._lock:
            cells = self._cells
            cells[self._COUNT] = 0
            cells[self._GENERATION] += 1
            cells[self._BROKEN] = 0
            if parties is not None:
                if parties < 1:
                    raise ValueError(f"barrier needs at least 1 party, got {parties}")
                cells[self._PARTIES] = parties


class SyncArena:
    """Pre-allocated pool of shared claim counters for workshared loops.

    Each slot is a ``(tag, next)`` pair guarded by one lock.  A member
    attaching a slot for loop-ordinal *n* resets the counter the first time
    that ordinal is seen; because ordinals increase monotonically and loops
    are barrier-separated, a slot is never concurrently reused for two
    different loops (adjacent ``nowait`` loops occupy adjacent slots).
    """

    _TAG, _NEXT = 0, 1
    #: int64 cells per slot (for sizing external storage; see ``cells=``).
    CELLS_PER_SLOT = 2

    def __init__(self, capacity: int = 256, *, cells: Any = None, lock: Any = None, fresh: bool = True) -> None:
        """``cells``/``lock`` plug in alternative storage (e.g. a
        :class:`SharedArray` int64 view guarded by a :class:`PipeLock` for the
        subinterpreter backend); ``fresh=False`` attaches to storage another
        party already initialised instead of resetting it."""
        if capacity % MAX_TEAM_LEVELS:
            raise ValueError(f"capacity must be a multiple of {MAX_TEAM_LEVELS}, got {capacity}")
        if cells is None:
            ctx = _mp_context()
            lock = ctx.Lock()
            cells = ctx.Array("q", self.CELLS_PER_SLOT * capacity, lock=False)
        elif lock is None:
            raise ValueError("external cells need an external lock")
        self.capacity = capacity
        self._lock = lock
        self._cells = cells
        if fresh:
            self.reset()

    def reset(self) -> None:
        """Mark every slot unused (called between regions by the pool)."""
        cells, stop = self._cells, self.CELLS_PER_SLOT * self.capacity
        with self._lock:
            fill_cells(cells, self._TAG, stop, self.CELLS_PER_SLOT, -1)
            fill_cells(cells, self._NEXT, stop, self.CELLS_PER_SLOT, 0)

    def slot(self, ordinal: int, *, level: int = 0) -> "ArenaSlot":
        """Return the claim slot for loop-ordinal ``ordinal`` of team ``level``.

        Ordinals count the loops encountered by one team; ``level`` namespaces
        them so nested teams sharing the arena cannot collide with an
        ancestor's slots (see :data:`MAX_TEAM_LEVELS`).
        """
        return ArenaSlot(self, _namespaced_ordinal(ordinal, level))

    # -- slot operations (called through ArenaSlot) --------------------------

    def _attach(self, ordinal: int) -> None:
        index = ordinal % self.capacity
        with self._lock:
            if self._cells[2 * index + self._TAG] != ordinal:
                self._cells[2 * index + self._TAG] = ordinal
                self._cells[2 * index + self._NEXT] = 0

    def _fetch_add(self, ordinal: int, amount: int) -> int:
        index = ordinal % self.capacity
        with self._lock:
            value = self._cells[2 * index + self._NEXT]
            self._cells[2 * index + self._NEXT] = value + amount
            return int(value)

    def _claim_batch(
        self, ordinal: int, limit: int, num_threads: int, total_chunks: int
    ) -> "tuple[int, int] | None":
        """Claim up to ``limit`` consecutive chunk indices in one round-trip.

        Same batching/tail policy as the in-process
        ``_DynamicLoopState.next_chunks``: near the tail the claim shrinks to
        a fraction of the remaining chunks (at least one) to preserve load
        balance.
        """
        index = ordinal % self.capacity
        with self._lock:
            first = int(self._cells[2 * index + self._NEXT])
            remaining = total_chunks - first
            if remaining <= 0:
                return None
            count = claim_cap(remaining, num_threads, limit)
            self._cells[2 * index + self._NEXT] = first + count
            return first, count

    def _fetch_add_guided(self, ordinal: int, total: int, min_chunk: int, num_threads: int) -> "tuple[int, int] | None":
        blocks = self._claim_guided_batch(ordinal, total, min_chunk, num_threads, 1)
        return None if blocks is None else blocks[0]

    def _claim_guided_batch(
        self, ordinal: int, total: int, min_chunk: int, num_threads: int, limit: int
    ) -> "list[tuple[int, int]] | None":
        """Claim up to ``limit`` guided blocks in one arena round-trip.

        Delegates to the scheduler's shared ``guided_claim_batch`` policy —
        only the cursor storage and locking live here — so claims are
        identical to the thread backend's by construction.
        """
        index = ordinal % self.capacity
        with self._lock:
            cursor = int(self._cells[2 * index + self._NEXT])
            blocks, cursor = guided_claim_batch(cursor, total, min_chunk, num_threads, limit)
            self._cells[2 * index + self._NEXT] = cursor
            return blocks or None


@dataclass
class ArenaSlot:
    """Handle to one :class:`SyncArena` cell, bound to a loop ordinal."""

    arena: SyncArena
    ordinal: int

    def __post_init__(self) -> None:
        self.arena._attach(self.ordinal)

    def fetch_add(self, amount: int = 1) -> int:
        """Atomically return the current value and advance it by ``amount``."""
        return self.arena._fetch_add(self.ordinal, amount)

    def claim_batch(self, limit: int, num_threads: int, total_chunks: int) -> "tuple[int, int] | None":
        """Atomically claim up to ``limit`` chunk indices: ``(first, count)``."""
        return self.arena._claim_batch(self.ordinal, limit, num_threads, total_chunks)

    def claim_guided(self, total: int, min_chunk: int, num_threads: int) -> "tuple[int, int] | None":
        """Atomically claim a guided-schedule ``(begin, count)`` block."""
        return self.arena._fetch_add_guided(self.ordinal, total, min_chunk, num_threads)

    def claim_guided_batch(
        self, total: int, min_chunk: int, num_threads: int, limit: int
    ) -> "list[tuple[int, int]] | None":
        """Atomically claim up to ``limit`` guided blocks in one round-trip."""
        return self.arena._claim_guided_batch(self.ordinal, total, min_chunk, num_threads, limit)


class TaskStealArena:
    """Pre-allocated pool of cross-process work-stealing decks for ``taskloop``.

    A *taskloop* tiles an iteration space into ``ntiles`` stealable tasks and
    gives every team member an initial contiguous block of tile indices.  A
    member takes tiles from the *head* of its own block (ascending order —
    cache-friendly) and, once its block is empty, steals from the *tail* of a
    victim's block (descending order), so owner and thief approach each other
    and never contend for the same tile.

    Shared-memory layout (one ``int64`` per cell, ``stride = 2 +
    2 * max_workers`` cells per slot, ``capacity`` slots)::

        slot s, cell 0:          tag        — loop ordinal owning the slot (-1 free)
        slot s, cell 1:          completed  — tiles finished so far (all members)
        slot s, cell 2 + 2*w:    head[w]    — next tile the owner ``w`` takes
        slot s, cell 3 + 2*w:    tail[w]    — one past the last unclaimed tile of ``w``

    Worker ``w``'s remaining tiles are ``range(head[w], tail[w])``; the block
    is empty when ``head[w] >= tail[w]``.  All cells of a slot are guarded by
    a single ``multiprocessing`` lock (claims are per *tile*, i.e. per
    ``grainsize`` iterations, so one lock round-trip amortises over the tile
    body).  Slots are recycled by loop ordinal exactly like
    :class:`SyncArena` slots: ordinals increase monotonically per region and
    taskloops are barrier-separated, so ``ordinal % capacity`` never serves
    two live loops at once.

    The arena works identically under the serial and thread backends (shared
    memory is just memory), which is what the cross-backend task conformance
    suite relies on; in-heap teams normally use the faster
    ``deque``-per-member pool in :mod:`repro.runtime.tasks` instead.
    """

    _TAG, _COMPLETED = 0, 1
    _FIELDS = 2  # per-slot header cells before the per-worker (head, tail) pairs

    @staticmethod
    def cells_needed(max_workers: int, capacity: int) -> int:
        """Total int64 cells external storage must provide (see ``cells=``)."""
        return (TaskStealArena._FIELDS + 2 * max_workers) * capacity

    def __init__(
        self, max_workers: int = 64, capacity: int = 64, *, cells: Any = None, lock: Any = None, fresh: bool = True
    ) -> None:
        """``cells``/``lock``/``fresh`` as for :class:`SyncArena`: alternative
        storage for backends whose locks cannot cross the member boundary."""
        if max_workers < 1:
            raise ValueError(f"arena needs at least 1 worker, got {max_workers}")
        if capacity % MAX_TEAM_LEVELS:
            raise ValueError(f"capacity must be a multiple of {MAX_TEAM_LEVELS}, got {capacity}")
        self.max_workers = max_workers
        self.capacity = capacity
        self._stride = self._FIELDS + 2 * max_workers
        if cells is None:
            ctx = _mp_context()
            lock = ctx.Lock()
            cells = ctx.Array("q", self._stride * capacity, lock=False)
        elif lock is None:
            raise ValueError("external cells need an external lock")
        self._lock = lock
        self._cells = cells
        if fresh:
            self.reset()

    def reset(self) -> None:
        """Mark every slot unused (called between regions by the pool)."""
        with self._lock:
            fill_cells(self._cells, self._TAG, self._stride * self.capacity, self._stride, -1)

    def slot(self, ordinal: int, num_workers: int, ntiles: int, *, level: int = 0) -> "TaskStealSlot":
        """Attach (and, first time, seed) the deck for loop-ordinal ``ordinal``.

        ``level`` namespaces the ordinal per team nesting level, exactly like
        :meth:`SyncArena.slot`.
        """
        if num_workers > self.max_workers:
            raise ValueError(
                f"taskloop team of {num_workers} exceeds the steal arena's "
                f"max_workers={self.max_workers}"
            )
        return TaskStealSlot(self, _namespaced_ordinal(ordinal, level), num_workers, ntiles)

    # -- slot operations (called through TaskStealSlot) ----------------------

    def _attach(self, ordinal: int, num_workers: int, ntiles: int) -> None:
        """Seed the slot's per-worker blocks on first attach (SPMD: every
        member computes the identical partition, only the first write wins)."""
        base = (ordinal % self.capacity) * self._stride
        cells = self._cells
        with self._lock:
            if cells[base + self._TAG] == ordinal:
                return
            cells[base + self._TAG] = ordinal
            cells[base + self._COMPLETED] = 0
            counts = block_counts(ntiles, num_workers)
            cursor = 0
            for w in range(self.max_workers):
                count = counts[w] if w < num_workers else 0
                cells[base + self._FIELDS + 2 * w] = cursor
                cells[base + self._FIELDS + 2 * w + 1] = cursor + count
                cursor += count

    def _claim_local(self, ordinal: int, worker: int) -> "int | None":
        base = (ordinal % self.capacity) * self._stride
        head = base + self._FIELDS + 2 * worker
        cells = self._cells
        with self._lock:
            tile = cells[head]
            if tile >= cells[head + 1]:
                return None
            cells[head] = tile + 1
            return int(tile)

    def _claim_steal(self, ordinal: int, thief: int, num_workers: int) -> "tuple[int, int] | None":
        base = (ordinal % self.capacity) * self._stride
        cells = self._cells
        with self._lock:
            for offset in range(1, num_workers):
                victim = (thief + offset) % num_workers
                head = base + self._FIELDS + 2 * victim
                tail = cells[head + 1]
                if cells[head] < tail:
                    cells[head + 1] = tail - 1
                    return victim, int(tail - 1)
            return None

    def _mark_done(self, ordinal: int, amount: int) -> int:
        base = (ordinal % self.capacity) * self._stride
        with self._lock:
            done = self._cells[base + self._COMPLETED] + amount
            self._cells[base + self._COMPLETED] = done
            return int(done)

    def _completed(self, ordinal: int) -> int:
        base = (ordinal % self.capacity) * self._stride
        with self._lock:
            return int(self._cells[base + self._COMPLETED])


class TaskStealSlot:
    """Handle to one :class:`TaskStealArena` deck, bound to a loop ordinal.

    Duck-types the task runtime's in-heap taskloop state (``claim_local`` /
    ``claim_steal`` / ``mark_done`` / ``finished``), so the ``taskloop``
    drain loop is backend-agnostic.
    """

    __slots__ = ("arena", "ordinal", "num_workers", "ntiles")

    def __init__(self, arena: TaskStealArena, ordinal: int, num_workers: int, ntiles: int) -> None:
        self.arena = arena
        self.ordinal = ordinal
        self.num_workers = num_workers
        self.ntiles = ntiles
        arena._attach(ordinal, num_workers, ntiles)

    def claim_local(self, worker: int) -> "int | None":
        """Take the next tile of ``worker``'s own block, or ``None`` if empty."""
        return self.arena._claim_local(self.ordinal, worker)

    def claim_steal(self, worker: int) -> "tuple[int, int] | None":
        """Steal a tile from another member's tail: ``(victim, tile)`` or ``None``."""
        return self.arena._claim_steal(self.ordinal, worker, self.num_workers)

    def mark_done(self, amount: int = 1) -> int:
        """Count ``amount`` tiles finished; returns the new completed total."""
        return self.arena._mark_done(self.ordinal, amount)

    def finished(self) -> bool:
        """Whether every tile of the loop has been executed (by anyone)."""
        return self.arena._completed(self.ordinal) >= self.ntiles


class TunePlanArena:
    """Pre-allocated pool of *tune plan* slots for ``schedule="auto"`` loops.

    The adaptive tuner lives in the parent process (its state is fed by the
    master's measurements), but every member of a process team must execute
    the *same* concrete schedule for a given loop invocation.  The master
    therefore publishes its decision — ``(schedule_code, chunk, flags,
    invocation)`` — into the slot for the loop's SPMD ordinal before
    dispatching, and workers read it (spin-waiting briefly for a master that
    has not arrived yet).  Slots are recycled by ordinal exactly like
    :class:`SyncArena` slots.

    Kept separate from :class:`SyncArena` on purpose: when the published plan
    is dynamic/guided, the *same ordinal's* SyncArena slot is used for the
    claim counter, so the two arenas must not share cells.
    """

    _TAG, _SCHEDULE, _CHUNK, _FLAGS, _INVOCATION = range(5)
    _FIELDS = 5
    #: int64 cells per slot (for sizing external storage; see ``cells=``).
    CELLS_PER_SLOT = 5

    def __init__(self, capacity: int = 256, *, cells: Any = None, lock: Any = None, fresh: bool = True) -> None:
        """``cells``/``lock``/``fresh`` as for :class:`SyncArena`: alternative
        storage for backends whose locks cannot cross the member boundary."""
        if capacity % MAX_TEAM_LEVELS:
            raise ValueError(f"capacity must be a multiple of {MAX_TEAM_LEVELS}, got {capacity}")
        if cells is None:
            ctx = _mp_context()
            lock = ctx.Lock()
            cells = ctx.Array("q", self._FIELDS * capacity, lock=False)
        elif lock is None:
            raise ValueError("external cells need an external lock")
        self.capacity = capacity
        self._lock = lock
        self._cells = cells
        if fresh:
            self.reset()

    def reset(self) -> None:
        """Mark every slot unused (called between regions by the pool)."""
        with self._lock:
            fill_cells(self._cells, self._TAG, self._FIELDS * self.capacity, self._FIELDS, -1)

    def slot(self, ordinal: int, *, level: int = 0) -> "TunePlanSlot":
        """Return the plan slot for loop-ordinal ``ordinal`` of team ``level``."""
        return TunePlanSlot(self, _namespaced_ordinal(ordinal, level))

    # -- slot operations (called through TunePlanSlot) -----------------------

    def _publish(self, ordinal: int, plan: "tuple[int, int, int, int]") -> None:
        base = (ordinal % self.capacity) * self._FIELDS
        cells = self._cells
        with self._lock:
            schedule_code, chunk, flags, invocation = plan
            cells[base + self._SCHEDULE] = schedule_code
            cells[base + self._CHUNK] = chunk
            cells[base + self._FLAGS] = flags
            cells[base + self._INVOCATION] = invocation
            # Tag written last: a reader that sees the tag sees the full plan.
            cells[base + self._TAG] = ordinal

    def _read(self, ordinal: int) -> "tuple[int, int, int, int] | None":
        base = (ordinal % self.capacity) * self._FIELDS
        cells = self._cells
        with self._lock:
            if cells[base + self._TAG] != ordinal:
                return None
            return (
                int(cells[base + self._SCHEDULE]),
                int(cells[base + self._CHUNK]),
                int(cells[base + self._FLAGS]),
                int(cells[base + self._INVOCATION]),
            )


class TunePlanSlot:
    """Handle to one :class:`TunePlanArena` slot, bound to a loop ordinal."""

    __slots__ = ("arena", "ordinal")

    #: seconds between polls while waiting for the master's plan.
    POLL_INTERVAL = 0.0002

    def __init__(self, arena: TunePlanArena, ordinal: int) -> None:
        self.arena = arena
        self.ordinal = ordinal

    def publish(self, plan: "tuple[int, int, int, int]") -> None:
        """Publish the master's ``(schedule, chunk, flags, invocation)`` plan."""
        self.arena._publish(self.ordinal, plan)

    def read(self, timeout: float = BARRIER_TIMEOUT) -> "tuple[int, int, int, int]":
        """Wait for and return the published plan (worker side)."""
        deadline = time.monotonic() + timeout
        while True:
            plan = self.arena._read(self.ordinal)
            if plan is not None:
                return plan
            if time.monotonic() > deadline:
                raise BrokenBarrierError(
                    f"timed out waiting for the tune plan of loop ordinal {self.ordinal} "
                    "(the master never published; did it fail before the loop?)"
                )
            time.sleep(self.POLL_INTERVAL)


class ProcessDynamicState:
    """Process-safe twin of the dynamic scheduler's shared claim counter.

    Duck-types ``_DynamicLoopState`` (``next_chunks(limit)`` returning
    ``(first_index, count)`` or ``None``), so
    :meth:`DynamicScheduler.chunks_from` works unchanged on top of it.
    """

    __slots__ = ("_slot", "total_chunks", "num_threads")

    def __init__(self, slot: ArenaSlot, total_chunks: int, num_threads: int = 1) -> None:
        self._slot = slot
        self.total_chunks = total_chunks
        self.num_threads = max(1, num_threads)

    def next_chunk(self) -> "int | None":
        claim = self.next_chunks(1)
        return None if claim is None else claim[0]

    def next_chunks(self, limit: int = 1) -> "tuple[int, int] | None":
        return self._slot.claim_batch(limit, self.num_threads, self.total_chunks)


class ProcessGuidedState:
    """Process-safe twin of the guided scheduler's shared claim state.

    Duck-types ``_GuidedLoopState`` (``next_ranges(limit)`` returning a list
    of ``(begin, count)`` blocks or ``None``).  ``total``/``min_chunk``/
    ``num_threads`` are derived identically by every member; only the claim
    cursor is shared.
    """

    __slots__ = ("_slot", "total", "min_chunk", "num_threads")

    def __init__(self, slot: ArenaSlot, total: int, min_chunk: int, num_threads: int) -> None:
        self._slot = slot
        self.total = total
        self.min_chunk = min_chunk
        self.num_threads = max(1, num_threads)

    def next_range(self) -> "tuple[int, int] | None":
        blocks = self.next_ranges(1)
        return None if blocks is None else blocks[0]

    def next_ranges(self, limit: int = 1) -> "list[tuple[int, int]] | None":
        return self._slot.claim_guided_batch(self.total, self.min_chunk, self.num_threads, limit)


@dataclass
class ProcessSync:
    """Cross-process synchronisation bundle attached to a process-backed team.

    Created by the process backend *before* workers exist (fork inherits it);
    the team's barrier and the worksharing loop states are built from it.
    ``pooled`` records whether the region runs on the persistent worker pool
    (picklable SPMD body) or on per-region forked workers (arbitrary
    closures, shipped by address-space inheritance).  ``steal`` carries the
    pre-allocated work-stealing deck pool used by ``taskloop``; ``tune``
    carries the plan-publication arena used by ``schedule="auto"`` loops
    (either may be ``None`` only for legacy constructions; the backend always
    provides both).
    """

    barrier: SharedBarrier
    arena: SyncArena
    pooled: bool = False
    steal: "TaskStealArena | None" = None
    tune: "TunePlanArena | None" = None
    #: per-member liveness cells (pid / beat / barrier arrivals) consulted by
    #: the worker monitor and the barrier-failure diagnostics; ``None`` only
    #: for legacy constructions — the backends always provide one.
    heartbeat: "HeartbeatArena | None" = None
    #: per-member metric cells (:class:`repro.obs.arena.MetricsArena`) the
    #: workers flush their counter deltas into; ``None`` when metrics are off
    #: (the arena only exists when ``RuntimeConfig.metrics`` is enabled) or on
    #: planes that aggregate another way (socket workers piggyback on frames).
    metrics: "object | None" = None
    #: the pickled region body, for tiers that ship it to their workers
    #: (``None`` on the fork path, whose workers inherit the live callable).
    body_bytes: "bytes | None" = None
    #: whatever the plane or backend that built this bundle keeps with it to
    #: share or release it — the socket plane's coordinator, the
    #: subinterpreter tier's cells and locks with their shareable names, the
    #: pool lock a pooled region holds.  Opaque to everyone else.
    owned: Any = None
