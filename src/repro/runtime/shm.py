"""Shared-memory primitives: the process tiers' data plane and every team's claim state.

The thread backend shares state for free (one address space); the process
backend does not.  This module provides the pieces that make OpenMP-style
*shared* data and team synchronisation work across process boundaries:

* :class:`SharedArray` — a numpy array living in a POSIX shared-memory
  segment the array creates, maps and unlinks itself.  Worksharing chunks
  executed by worker processes mutate the *same* pages the master reads, so
  a ``@For`` loop over a shared array behaves exactly as it does under
  threads — no pickling of array copies, no gather step.
* :class:`CellArena` — int64 cells in allocator-chosen storage, which every
  arena here and the team barrier (:class:`repro.runtime.barrier.CyclicBarrier`,
  on :func:`mp_cells` with semaphore wake-ups for fork and pool teams) build on.
* :class:`SyncArena` — a pool of shared claim counters: the dynamic/guided
  loop cursors.  Process teams need it pre-allocated, because loops are
  only *encountered* after worker processes have been created, when new
  ``multiprocessing`` primitives can no longer be shared.  Because region
  bodies are SPMD, the *n*-th workshared loop encountered by each member
  maps to the same arena slot on every member.
* :class:`TaskStealArena` — a pool of work-stealing *tile decks* for the task
  runtime's ``taskloop`` construct (see :mod:`repro.runtime.tasks`), and
  :class:`TunePlanArena` — the ``schedule="auto"`` plan hand-off; both are
  indexed by the SPMD loop ordinal like the :class:`SyncArena`.

These three slot arenas are the *only* claim state a team has, on every
tier: a :class:`ProcessSync` carries fork-inherited ones (built by
:func:`repro.runtime.backend.shm_process_sync`), and an in-process
team (and the socket plane's coordinator) builds the same arenas on heap
cells (:meth:`SlotArenas.build`).

**The fork constraint.**  Every ``multiprocessing`` primitive a process team
uses (barrier semaphores, arena locks, the pipes of the persistent pool) is
created *before* worker processes exist and handed to them by address-space
inheritance — which only the ``fork`` start method provides.
Under ``spawn`` or ``forkserver`` the children would re-import and pickle
their arguments instead: closures and woven classes cannot be pickled, and a
pre-created ``SharedArray`` handoff would silently attach *after* the parent
may already have unlinked the segment.  The process backend therefore pins
:data:`FORK_METHOD` explicitly (never the ambient default, which 3.14
changed away from fork), degrades to the thread backend where fork is
missing, and components that cannot degrade — the persistent pool — fail
loudly through :func:`require_fork`.

**Segment lifecycle and the crash net.**  The process that creates a
segment owns it: it holds a shared ``flock`` on the segment's descriptor from
before the segment has a size until :meth:`SharedArray.close` unlinks it, and
an exit hook closes what a body left open.  A forked child maps its parent's
arrays but drops their locks (:func:`_disown_inherited`), so only a living
owner holds one, and the kernel releases it when the owner dies — killed,
reaped or not.  A segment is named ``aomp_<pid>_<hex>``, the hex four
bytes of ``os.urandom`` (what ``secrets`` draws from, without the
``hashlib``/OpenSSL import ``secrets`` brings into every process that
allocates).  :func:`sweep_orphans` unlinks every such segment that has a
size and no lock holder.  It runs at a process's first
allocation and in every pool worker as it leaves, so a master killed with a
warm pool leaves nothing once its workers see it gone, and one killed
without a pool leaves its segments to the next process that allocates one.
No helper process watches the segments.

**One arena surface.**  Every arena here is a :class:`CellArena`: a count of
int64 cells only the arena knows, put wherever its *allocator* says —
:func:`mp_cells` (fork-inherited ``multiprocessing`` cells, the default),
:func:`heap_cells` (list cells and a thread lock: an in-process team, and
the socket plane's coordinator, whose every party is a thread of one
process).  The slot arenas add the tag-recycled slot layout once
(:class:`SlotArena`), and each slot *operation* is written once, as a
method of its slot class (:class:`ArenaSlot`, :class:`TaskStealSlot`,
:class:`TunePlanSlot`), which also declares — ``OPS`` / ``CLAIMS`` — what
the socket plane may call by name (:mod:`repro.runtime.dataplane` derives
its whole remote surface from those two tuples).
"""

from __future__ import annotations

import atexit
import contextlib
import fcntl
import functools
import mmap
import multiprocessing
import os
import pickle
import re
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple

import _posixshmem

import numpy as np

from repro.runtime.config import env
from repro.runtime.exceptions import BackendError, BrokenBarrierError
from repro.runtime.scheduler import block_counts

#: start method used for every process-backend primitive.  Workers must
#: inherit the parent's address space (closures and woven classes cannot be
#: pickled), which only ``fork`` provides; the backend falls back to threads
#: on platforms without it.
FORK_METHOD = "fork"


@functools.lru_cache(maxsize=None)
def fork_available() -> bool:
    """Whether the ``fork`` start method exists on this platform."""
    return FORK_METHOD in multiprocessing.get_all_start_methods()


def require_fork(component: str) -> None:
    """Fail loudly when ``component`` needs fork semantics and fork is absent.

    Components that *can* degrade (the process backend itself) fall back to
    threads instead; components whose contract is fork inheritance — the
    persistent worker pool hands pre-created barriers, arenas and pipes to
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
            "Use the threads backend here, or the distributed "
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
#: regions to in-process thread sub-teams, each of which builds arenas of
#: its own), so production slots always carry ``level=0``.  The namespace
#: guarantees the arenas stay correct the day a nested team *does* share an
#: ancestor's ProcessSync — a silent claim-slot collision would corrupt loop
#: results, the worst failure mode this module can have.
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
    """A numpy array in a POSIX shared-memory segment.

    Behaves like an ndarray for the operations kernels use (indexing, slice
    assignment, ufuncs through ``__array__``, attribute delegation for
    ``sum()``/``shape``/...).  Pickling ships only the segment *name*; the
    receiving process re-attaches to the same physical pages, so bound
    methods of kernels holding shared arrays can be sent to a persistent
    worker pool without copying the data.

    ``SharedArray(name, shape, dtype, create=True)`` creates segment
    ``name`` and owns it; without ``create`` it attaches to an existing one.
    The owner keeps a shared ``flock`` on its descriptor, taken before the
    segment has a size, and unlinks the segment in :meth:`close` before it
    lets the lock go; attached processes, and forked children of the owner,
    merely detach.  Every array registers :meth:`close` with ``atexit`` so a
    body that raised before its cleanup leaves no ``/dev/shm`` residue, and
    unregisters it again on an explicit close.  An owner that dies without
    either leaves a segment nobody locks, which :func:`sweep_orphans`
    removes (see the module docstring).
    """

    def __init__(self, name: str, shape: "int | tuple", dtype: Any = np.float64, *, create: bool = False) -> None:
        self._shape = (shape,) if isinstance(shape, int) else tuple(shape)
        self._dtype = np.dtype(dtype)
        #: what a reference to this array pickles to: segment, shape, dtype
        self._ref = (name, self._shape, self._dtype.str)
        self._owner = create
        self._closed = False
        size = max(1, int(np.prod(self._shape)) * self._dtype.itemsize)
        self._fd, self._map = _create(name, size) if create else _attach(name)
        if create:
            _owned.add(self)
        self.np: np.ndarray = np.ndarray(self._shape, dtype=self._dtype, buffer=self._map)
        atexit.register(self.close)

    # -- construction --------------------------------------------------------

    @classmethod
    def zeros(cls, shape: "int | tuple", dtype: Any = np.float64) -> "SharedArray":
        """Allocate a zero-filled shared array (a new segment reads as zeros)."""
        return cls(f"aomp_{os.getpid()}_{os.urandom(4).hex()}", shape, dtype, create=True)

    @classmethod
    def from_array(cls, source: np.ndarray) -> "SharedArray":
        """Copy ``source`` into a fresh shared array of the same shape/dtype."""
        array = cls.zeros(source.shape, source.dtype)
        array.np[...] = source
        return array

    # -- pickling: attach by name -------------------------------------------

    def __reduce__(self):
        return (_attach_shared_array, self._ref)

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
        return f"SharedArray(name={self.name!r}, shape={self._shape}, dtype={self._dtype})"

    # -- lifecycle -----------------------------------------------------------

    @property
    def name(self) -> str:
        """Name of the backing shared-memory segment."""
        return self._ref[0]

    def close(self) -> None:
        """Detach from the segment; only the owner ever unlinks it.

        Safe to call twice and safe in an attached process racing the owner's
        unlink: the non-owner path never unlinks, so the owner's unlink is the
        single point where the segment's name disappears.  The owner unlinks
        before it closes the descriptor its lock is on, so no sweep can find
        the segment linked and unlocked in between.
        """
        if self._closed:
            return
        self._closed = True
        # Symmetric with __init__ for owner *and* non-owner registrations.
        atexit.unregister(self.close)
        # Drop the view before closing the mmap underneath it.
        self.np = None  # type: ignore[assignment]
        with contextlib.suppress(BufferError):  # an exported view pins the mapping: it lives on with it
            self._map.close()
        if self._owner:
            _owned.discard(self)
            with contextlib.suppress(FileNotFoundError):
                _posixshmem.shm_unlink("/" + self.name)
        if self._fd >= 0:
            os.close(self._fd)

    def __enter__(self) -> "SharedArray":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _create(name: str, size: int) -> "tuple[int, mmap.mmap]":
    """Create segment ``name`` of ``size`` bytes: the owner's locked descriptor and the mapping.

    The mapping is made through a descriptor of its own, closed at once
    (``mmap`` keeps a duplicate of what it maps), so that a forked child,
    which keeps the mapping, can close every reference to the locked one.
    """
    _first_sweep()
    path = "/" + name
    fd = _posixshmem.shm_open(path, os.O_CREAT | os.O_EXCL | os.O_RDWR, 0o600)
    try:
        fcntl.flock(fd, fcntl.LOCK_SH)  # before ftruncate: a segment with a size has its owner's lock
        os.ftruncate(fd, size)
        mapped, mapping = _attach(name)
        os.close(mapped)
        return fd, mapping
    except BaseException:
        _posixshmem.shm_unlink(path)
        os.close(fd)
        raise


def _attach(name: str) -> "tuple[int, mmap.mmap]":
    """Open existing segment ``name`` and map it whole: the descriptor and the mapping."""
    fd = _posixshmem.shm_open("/" + name, os.O_RDWR)
    try:
        return fd, mmap.mmap(fd, 0)
    except BaseException:
        os.close(fd)
        raise


#: the arrays this process created and has not closed
_owned: "set[SharedArray]" = set()
_SEGMENT = re.compile(r"aomp_\d+_[0-9a-f]+")


def _disown_inherited() -> None:
    """In a forked child: keep the parent's arrays mapped, not their locks.

    The child closes its copy of every owner descriptor, so the parent is the
    only holder of each lock and its segments read ownerless once it dies,
    however long its children outlive it; the child never unlinks them.
    """
    for array in _owned:
        os.close(array._fd)
        array._fd, array._owner = -1, False
    _owned.clear()


os.register_at_fork(after_in_child=_disown_inherited)


def sweep_orphans() -> None:
    """Unlink every ``aomp_<pid>_<hex>`` segment that has a size and no owner.

    No owner means no shared lock: ``LOCK_EX | LOCK_NB`` succeeds.  A live
    owner — in any process, in any pid namespace sharing ``/dev/shm`` —
    holds its lock from before the segment has a size, so neither its
    segments nor one caught between ``shm_open`` and ``ftruncate`` are taken.
    """
    for name in filter(_SEGMENT.fullmatch, os.listdir("/dev/shm") if os.path.isdir("/dev/shm") else ()):
        with contextlib.suppress(OSError):  # gone meanwhile, not ours to open, or owned
            fd = _posixshmem.shm_open("/" + name, os.O_RDONLY)
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                stat = os.fstat(fd)
                if stat.st_size and stat.st_nlink:  # sized, and no other sweeper unlinked it first
                    _posixshmem.shm_unlink("/" + name)
            finally:
                os.close(fd)


#: the sweep at a process's first allocation (a forked child inherits "done")
_first_sweep = functools.lru_cache(maxsize=None)(sweep_orphans)


#: Attach redirection hook installed by the socket data plane
#: (:class:`repro.runtime.dataplane.WorkerSession`): in a distributed worker
#: process the master's ``/dev/shm`` segments are a different host in
#: principle, so unpickled :class:`SharedArray` references resolve to
#: socket-backed mirrors instead of attaching locally.
_attach_hook = None

#: While :func:`loads_tracking_attachments` runs: the kept arrays not yet
#: named again, by segment name, and the list every array the body resolves
#: locally is appended to.
_attach_log: "tuple[dict[str, SharedArray], list[SharedArray]] | None" = None


def _still_attachable(array: SharedArray, shape: tuple, dtype_str: str) -> bool:
    """Whether a kept attachment can stand for ``(its name, shape, dtype)``:
    open, the same view, and its segment still linked — a linked name
    denotes exactly one segment, so the name cannot have been recycled."""
    try:
        return array._ref[1:] == (shape, dtype_str) and os.fstat(array._fd).st_nlink > 0
    except OSError:  # closed
        return False


def _attach_shared_array(name: str, shape: tuple, dtype_str: str):
    """Re-attach to an existing segment (pickle support for worker processes).

    When a data-plane attach hook is installed (socket-plane worker), the
    reference resolves through it instead of touching local shared memory.
    """
    if _attach_hook is not None:
        return _attach_hook(name, shape, dtype_str)
    if _attach_log is not None:
        kept, resolved = _attach_log
        array = kept.pop(name, None)
        if array is not None:
            if _still_attachable(array, shape, dtype_str):
                resolved.append(array)
                return array
            array.close()
    array = SharedArray(name, shape, dtype_str)
    if _attach_log is not None:
        _attach_log[1].append(array)
    return array


def loads_tracking_attachments(
    data: bytes, kept: "list[SharedArray]" = ()
) -> "tuple[Any, list[SharedArray]]":
    """``pickle.loads(data)`` plus the shared arrays it attached on the way.

    A long-lived worker unpickles a body per region, and each attachment
    holds a mapping and a descriptor that only the worker can release.  It
    passes the arrays the previous body resolved as ``kept``: a reference to
    one of their segments (same name, shape and dtype, segment still linked)
    reuses the attachment instead of mapping the segment again, and every
    kept array the new body does not name is closed before this returns.  The
    caller owns the returned list: it closes it, or keeps it for the next
    body.  The log is process-wide while the call runs: workers call this
    from their only thread, between regions.
    """
    global _attach_log
    remaining: "dict[str, SharedArray]" = {}
    for array in kept:
        if remaining.setdefault(array.name, array) is not array:
            array.close()  # a second attachment of one segment
    resolved: "list[SharedArray]" = []
    previous, _attach_log = _attach_log, (remaining, resolved)
    try:
        return pickle.loads(data), resolved
    except BaseException:
        for array in resolved:
            array.close()
        raise
    finally:
        _attach_log = previous
        for array in remaining.values():
            array.close()


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
# Cell storage: where an arena's int64 cells live, and what guards them
# ---------------------------------------------------------------------------
#
# An *allocator* is ``(count, locked) -> (cells, lock)``.  The arena calls it
# with the cell count only the arena knows; the allocator decides where those
# cells live and, for arenas whose slots are shared between members
# (``locked``), which mutex every party reaching that storage can take.


def mp_cells(count: int, locked: bool) -> "tuple[Any, Any]":
    """``multiprocessing`` cells and lock, handed to workers by fork inheritance."""
    ctx = _mp_context()
    return ctx.Array("q", count, lock=False), ctx.Lock() if locked else None


def heap_cells(count: int, locked: bool) -> "tuple[Any, Any]":
    """List cells and a thread lock: every party is a thread of this process
    (an in-process team's members; the socket plane's coordinator acting for
    its remote members)."""
    return [0] * count, threading.Lock() if locked else None


def heap_slot(arena_class: "type[SlotArena]", *key: int, **options: Any) -> Any:
    """Slot ``key`` of a fresh ``arena_class`` arena on :func:`heap_cells`:
    one construct's claim state outside any team (oracles, tests, benchmarks)."""
    return arena_class(cells=heap_cells, **options).slot(*key)


class CellArena:
    """``count`` int64 cells in allocator-chosen storage, and the lock guarding them.

    The one constructor every arena shares: ask the allocator (see above) for
    the cells, and :meth:`reset` them unless attaching to storage another
    party already initialised (``fresh=False``).  ``LOCKED`` is ``False`` for
    arenas whose members each write only their own cells (aligned 8-byte
    stores need no mutex); those get no lock at all.
    """

    LOCKED = False

    def __init__(self, count: int, cells: Any, fresh: bool) -> None:
        self._count = count
        self._cells, self._lock = cells(count, self.LOCKED)
        if fresh:
            self.reset()

    def reset(self) -> None:
        """Zero every cell — one bulk store (the pool runs this before every region)."""
        fill_cells(self._cells, 0, self._count, 1, 0)


class HeartbeatArena(CellArena):
    """Per-member liveness cells shared across the team's processes.

    Three int64 cells per member: the member's OS **pid** (written once at
    region entry), a monotonic-nanosecond **beat** refreshed at every team
    barrier, and a **barrier-arrival counter**.  Each member writes only its
    own cells and every write is an aligned 8-byte store, so no lock is
    needed; readers (the master's :class:`~repro.runtime.monitor.WorkerMonitor`
    and error-enrichment paths) tolerate slightly stale values by design.

    The pid cell names the process of a member that never reported; the beat
    cell drives optional stale-member detection (``AOMP_HEARTBEAT_TIMEOUT``);
    the arrival counter feeds "which members had arrived" barrier-failure
    diagnostics.
    """

    _PID, _BEAT, _ARRIVALS = range(3)
    CELLS_PER_MEMBER = 3
    DEFAULT_CAPACITY = 64

    def __init__(self, capacity: int = DEFAULT_CAPACITY, *, cells: Any = mp_cells, fresh: bool = True) -> None:
        if capacity < 1:
            raise ValueError(f"heartbeat arena needs at least 1 member slot, got {capacity}")
        self.capacity = capacity
        super().__init__(self.CELLS_PER_MEMBER * capacity, cells, fresh)

    def register(self, member: int, pid: "int | None" = None) -> None:
        """Record the owner of ``member``'s slot.

        ``pid`` defaults to the calling process — the fork and pool planes
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


# ---------------------------------------------------------------------------
# Slot arenas: per-loop shared state, recycled by SPMD loop ordinal
# ---------------------------------------------------------------------------


class _Slot:
    """Handle to one slot of a :class:`SlotArena`: ``(arena, base cell index)``.

    A slot operation is a method of the slot class and nothing else: it does
    its work on ``arena._cells`` under ``arena._lock`` itself.  ``OPS`` names
    the operations the socket plane may invoke by name on a member's behalf
    and ``CLAIMS`` the ones among them that hand out work (refused once the
    team is broken); :mod:`repro.runtime.dataplane` derives its dispatch
    allowlist and its worker-side remote slots from these two tuples, so a
    new op is one method here plus its name in ``OPS``.
    """

    __slots__ = ("arena", "ordinal", "_base")
    OPS: "tuple[str, ...]" = ()
    CLAIMS: "tuple[str, ...]" = ()

    def __init__(self, arena: "SlotArena", ordinal: int, level: int = 0) -> None:
        self.arena = arena
        self.ordinal = ordinal = _namespaced_ordinal(ordinal, level)
        self._base = (ordinal % arena.capacity) * arena._stride


class SlotArena(CellArena):
    """``capacity`` slots of ``stride`` cells, cell 0 of each the slot's *tag*.

    The tag is the loop ordinal owning the slot (``-1``: free).  A member
    attaching the slot for ordinal *n* re-initialises it the first time that
    ordinal is seen; ordinals increase monotonically, so :meth:`reset` only
    has to clear the tags: after it every attach starts afresh.

    Constructs with no barrier between them (``nowait`` loops) let a fast
    member take a slot over for a later ordinal while a slow one has yet to
    finish an earlier one there.  The fast member only moved on once the
    earlier construct was claimed out, so the slow member's handle is
    *stale*: its claim and steal ops find a newer tag, write nothing, and
    report the construct exhausted.
    """

    LOCKED = True
    _TAG = 0
    #: the slot class :meth:`slot` returns; its constructor's positional
    #: arguments after the arena are the slot's *key*.
    SLOT: "type[_Slot]"

    def __init__(self, capacity: int, stride: int, cells: Any, fresh: bool, extra: int = 0) -> None:
        """``extra`` cells follow the slots, outside the tag-recycled layout."""
        if capacity % MAX_TEAM_LEVELS:
            raise ValueError(f"capacity must be a multiple of {MAX_TEAM_LEVELS}, got {capacity}")
        self.capacity = capacity
        self._stride = stride
        super().__init__(stride * capacity + extra, cells, fresh)

    def reset(self) -> None:
        """Mark every slot unused — one strided bulk store."""
        with self._lock:
            fill_cells(self._cells, self._TAG, self._stride * self.capacity, self._stride, -1)

    def slot(self, *key: int, **named: int) -> Any:
        """Attach the slot ``key`` names — ``SLOT``'s arguments: the loop ordinal
        first, a trailing ``level=0``.

        Ordinals count the loops encountered by one team; ``level`` namespaces
        them so nested teams sharing the arena cannot collide with an
        ancestor's slots (see :data:`MAX_TEAM_LEVELS`).
        """
        return self.SLOT(self, *key, **named)


def claim_cap(remaining: int, num_threads: int, limit: int) -> int:
    """Units one batched claim may take: the tail-fallback policy.

    At most a fraction of the ``remaining`` units (and never more than
    ``limit``), at least one — so one claimer can never strip a shared
    counter bare while other consumers still want work.
    """
    cap = remaining // (num_threads if num_threads > 2 else 2)
    if cap > limit:
        cap = limit
    elif cap < 1:
        cap = 1
    return cap


class ArenaSlot(_Slot):
    """Handle to one :class:`SyncArena` claim counter, bound to a loop ordinal."""

    __slots__ = ()
    _NEXT = 1
    CELLS = 2  # (tag, next)
    OPS = ("fetch_add", "claim_batch", "claim_guided", "claim_guided_batch")
    CLAIMS = ("claim_batch", "claim_guided", "claim_guided_batch")

    def __init__(self, arena: "SyncArena", ordinal: int, level: int = 0) -> None:
        super().__init__(arena, ordinal, level)
        cells, base = arena._cells, self._base
        with arena._lock:
            if cells[base] < self.ordinal:
                cells[base] = self.ordinal
                cells[base + self._NEXT] = 0

    def fetch_add(self, amount: int = 1) -> int:
        """Atomically return the current value and advance it by ``amount``;
        ``-1``, advancing nothing, on a stale handle (see :class:`SlotArena`)."""
        arena, cursor = self.arena, self._base + self._NEXT
        with arena._lock:
            if arena._cells[self._base] != self.ordinal:
                return -1
            value = arena._cells[cursor]
            arena._cells[cursor] = value + amount
            return int(value)

    def claim_batch(self, limit: int, num_threads: int, total_chunks: int) -> "tuple[int, int] | None":
        """Atomically claim up to ``limit`` consecutive chunk indices: ``(first, count)``.

        Near the tail the claim shrinks to a fraction of the remaining chunks
        (at least one, :func:`claim_cap`) to preserve load balance.
        """
        arena, cursor = self.arena, self._base + self._NEXT
        with arena._lock:
            first = int(arena._cells[cursor])
            remaining = total_chunks - first
            if remaining <= 0 or arena._cells[self._base] != self.ordinal:
                return None
            count = claim_cap(remaining, num_threads, limit)
            arena._cells[cursor] = first + count
            return first, count

    def claim_guided(self, total: int, min_chunk: int, num_threads: int) -> "tuple[int, int] | None":
        """Atomically claim a guided-schedule ``(begin, count)`` block."""
        blocks = self.claim_guided_batch(total, min_chunk, num_threads, 1)
        return None if blocks is None else blocks[0]

    def claim_guided_batch(
        self, total: int, min_chunk: int, num_threads: int, limit: int
    ) -> "list[tuple[int, int]] | None":
        """Atomically claim up to ``limit`` guided ``(begin, count)`` blocks in one round-trip.

        Blocks follow the standard guided decay: ``remaining // num_threads``
        iterations, at least ``min_chunk``, at most what remains.  Batching
        only kicks in once the decay has bottomed out at ``min_chunk`` (a
        larger block is plenty of work for one round-trip already), and
        :func:`claim_cap` over the remaining ``min_chunk``-sized tail blocks
        keeps one batch from taking more than a fraction of them, so block
        boundaries are those of unbatched claiming.
        """
        arena, cursor = self.arena, self._base + self._NEXT
        with arena._lock:
            if arena._cells[self._base] != self.ordinal:
                return None
            at = int(arena._cells[cursor])
            blocks: "list[tuple[int, int]]" = []
            for _ in range(claim_cap((total - at) // max(1, min_chunk), num_threads, limit)):
                remaining = total - at
                if remaining <= 0:
                    break
                count = min(max(remaining // num_threads, min_chunk), remaining)
                blocks.append((at, count))
                at += count
                if count > min_chunk:
                    break
            arena._cells[cursor] = at
            return blocks or None


class SyncArena(SlotArena):
    """Pre-allocated pool of shared claim counters for workshared loops.

    Each slot is a ``(tag, next)`` pair (see :class:`SlotArena` for the
    recycling discipline); :meth:`~SlotArena.slot` takes the loop ordinal and
    returns an :class:`ArenaSlot`.
    """

    SLOT = ArenaSlot

    def __init__(self, capacity: int = 256, *, cells: Any = mp_cells, fresh: bool = True) -> None:
        super().__init__(capacity, ArenaSlot.CELLS, cells, fresh)


class TaskStealSlot(_Slot):
    """Handle to one :class:`TaskStealArena` deck, bound to a loop ordinal:
    the ``taskloop`` drain loop's ``claim_local`` / ``claim_steal`` /
    ``mark_done`` / ``finished`` on every tier."""

    __slots__ = ("num_workers", "ntiles")
    _COMPLETED = 1
    _FIELDS = 2  # per-slot header cells before the per-worker (head, tail) pairs
    OPS = ("claim_local", "claim_steal", "mark_done", "finished")
    CLAIMS = ("claim_local", "claim_steal")

    def __init__(
        self, arena: "TaskStealArena", ordinal: int, num_workers: int, ntiles: int, level: int = 0
    ) -> None:
        """Attach the deck and, first time, seed its per-worker blocks (SPMD:
        every member computes the identical partition, only the first write wins)."""
        if num_workers > arena.max_workers:
            raise ValueError(
                f"taskloop team of {num_workers} exceeds the steal arena's "
                f"max_workers={arena.max_workers}"
            )
        super().__init__(arena, ordinal, level)
        self.num_workers = num_workers
        self.ntiles = ntiles
        cells, base = arena._cells, self._base
        with arena._lock:
            if cells[base] >= self.ordinal:
                return
            cells[base] = self.ordinal
            cells[base + self._COMPLETED] = 0
            counts = block_counts(ntiles, num_workers)
            cursor = 0
            for w in range(arena.max_workers):
                count = counts[w] if w < num_workers else 0
                cells[base + self._FIELDS + 2 * w] = cursor
                cells[base + self._FIELDS + 2 * w + 1] = cursor + count
                cursor += count

    def claim_local(self, worker: int) -> "int | None":
        """Take the next tile of ``worker``'s own block, or ``None`` if empty."""
        cells, head = self.arena._cells, self._base + self._FIELDS + 2 * worker
        with self.arena._lock:
            tile = cells[head]
            if tile >= cells[head + 1] or cells[self._base] != self.ordinal:
                return None
            cells[head] = tile + 1
            return int(tile)

    def claim_steal(self, worker: int) -> "tuple[int, int] | None":
        """Steal a tile from another member's tail: ``(victim, tile)`` or ``None``."""
        cells, blocks = self.arena._cells, self._base + self._FIELDS
        with self.arena._lock:
            if cells[self._base] != self.ordinal:
                return None
            for offset in range(1, self.num_workers):
                victim = (worker + offset) % self.num_workers
                head = blocks + 2 * victim
                tail = cells[head + 1]
                if cells[head] < tail:
                    cells[head + 1] = tail - 1
                    return victim, int(tail - 1)
            return None

    def mark_done(self, amount: int = 1) -> int:
        """Count ``amount`` tiles finished; returns the new completed total."""
        cells, completed = self.arena._cells, self._base + self._COMPLETED
        with self.arena._lock:
            if cells[self._base] != self.ordinal:
                return self.ntiles
            done = cells[completed] + amount
            cells[completed] = done
            return int(done)

    def finished(self) -> bool:
        """Whether every tile of the loop has been executed (by anyone)."""
        cells = self.arena._cells
        with self.arena._lock:
            return cells[self._base] != self.ordinal or cells[self._base + self._COMPLETED] >= self.ntiles


class TaskStealArena(SlotArena):
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
    the arena's one lock (claims are per *tile*, i.e. per ``grainsize``
    iterations, so one lock round-trip amortises over the tile body).
    :meth:`~SlotArena.slot` takes ``(ordinal, num_workers, ntiles)`` and
    returns a :class:`TaskStealSlot`.

    Every tier's taskloop draws its deck from one: a process team's is
    fork-inherited, an in-process team's lives on heap cells
    (:meth:`SlotArenas.build`).  (Explicit ``@Task`` spawns use the
    ``deque``-per-member :class:`~repro.runtime.tasks.TaskPool` instead.)
    """

    SLOT = TaskStealSlot

    def __init__(self, max_workers: int = 64, capacity: int = 64, *, cells: Any = mp_cells, fresh: bool = True) -> None:
        if max_workers < 1:
            raise ValueError(f"arena needs at least 1 worker, got {max_workers}")
        self.max_workers = max_workers
        super().__init__(capacity, TaskStealSlot._FIELDS + 2 * max_workers, cells, fresh)


class TunePlanSlot(_Slot):
    """Handle to one :class:`TunePlanArena` slot, bound to a loop ordinal."""

    __slots__ = ()
    _SCHEDULE, _CHUNK, _FLAGS, _INVOCATION, _UNREAD = range(1, 6)
    CELLS = 6  # the tag, the four plan fields, then how many readers have yet to read it
    OPS = ("publish", "read", "report", "reports")

    #: seconds between polls while waiting for the master's plan.
    POLL_INTERVAL = 0.0002

    def publish(self, plan: "tuple[int, int, int, int]", readers: int = 0) -> None:
        """Publish the master's ``(schedule, chunk, flags, invocation)`` plan
        for ``readers`` members to :meth:`read`.

        The slot is recycled (see :class:`SlotArena`): while an earlier loop's
        plan there still has readers to come — members that many ``nowait``
        auto loops behind the master — the master waits for them, so no plan
        is overwritten before its last reader took it.  The wait ends as
        :meth:`read`'s does.
        """
        cells, base = self.arena._cells, self._base

        def store() -> "bool | None":
            if cells[base] >= 0 and cells[base + self._UNREAD] > 0:
                return None
            schedule_code, chunk, flags, invocation = plan
            cells[base + self._SCHEDULE] = schedule_code
            cells[base + self._CHUNK] = chunk
            cells[base + self._FLAGS] = flags
            cells[base + self._INVOCATION] = invocation
            cells[base + self._UNREAD] = readers
            # Tag written last: a reader that sees the tag sees the full plan.
            cells[base] = self.ordinal
            return True

        self._await(store, f"the readers of the tune plan before loop ordinal {self.ordinal}'s", None)

    def read(self, timeout: "float | None" = None) -> "tuple[int, int, int, int]":
        """Wait for and return the published plan (worker side).

        A master that failed before the loop never publishes; it aborts the
        team barrier instead, so the wait ends within one poll of that break.
        A plan a later loop's overwrote — published with fewer ``readers``
        than came — is refused at once.  Otherwise the wait is bounded by
        ``timeout`` — by default the barrier timeout in force
        (``AOMP_BARRIER_TIMEOUT``; unbounded when disabled).
        """
        cells, base = self.arena._cells, self._base

        def take() -> "tuple[int, int, int, int] | None":
            tag = cells[base]
            if tag == self.ordinal:
                cells[base + self._UNREAD] -= 1
                return (
                    int(cells[base + self._SCHEDULE]),
                    int(cells[base + self._CHUNK]),
                    int(cells[base + self._FLAGS]),
                    int(cells[base + self._INVOCATION]),
                )
            if tag > self.ordinal:
                raise BrokenBarrierError(
                    f"the tune plan of loop ordinal {self.ordinal} was overwritten by ordinal {tag}'s "
                    "before this member read it"
                )
            return None

        return self._await(take, f"the tune plan of loop ordinal {self.ordinal}", timeout)

    def _await(self, attempt: Callable[[], Any], what: str, timeout: "float | None") -> Any:
        """Poll ``attempt`` under the arena lock until it returns non-``None``;
        a broken team barrier or the ``timeout`` (see :meth:`read`) ends the wait."""
        arena = self.arena
        limit = env("AOMP_BARRIER_TIMEOUT") if timeout is None else timeout
        deadline = None if limit is None else time.monotonic() + limit
        while True:
            with arena._lock:
                result = attempt()
            if result is not None:
                return result
            if arena._barrier.broken:
                raise BrokenBarrierError(f"the team barrier broke while waiting for {what} (a member failed)")
            if deadline is not None and time.monotonic() > deadline:
                raise BrokenBarrierError(f"timed out after {limit:g}s waiting for {what}")
            time.sleep(self.POLL_INTERVAL)

    def report(self, member: int, nanoseconds: int) -> None:
        """Record how long ``member`` spent on its own share of the loop.

        Lock-free: a member writes only its own cell, and the master reads
        the cells after the loop's barrier (:meth:`reports`).
        """
        arena = self.arena
        if not 0 <= member < arena.max_workers:
            raise ValueError(f"member {member} outside the tune arena's max_workers={arena.max_workers}")
        arena._cells[self._reports() + member] = nanoseconds

    def reports(self, count: int) -> "list[int]":
        """The report cells of members ``0 .. count - 1`` (master side)."""
        first = self._reports()
        return [int(value) for value in self.arena._cells[first : first + count]]

    def _reports(self) -> int:
        """First report cell of this slot's team level (see :class:`TunePlanArena`)."""
        arena = self.arena
        return arena._stride * arena.capacity + self.ordinal % MAX_TEAM_LEVELS * arena.max_workers


class TunePlanArena(SlotArena):
    """Pre-allocated pool of *tune plan* slots for ``schedule="auto"`` loops.

    The adaptive tuner lives in the master's process (its state is fed by
    the master's measurements), and every member of a team must execute the
    *same* concrete schedule for a given loop invocation.  The master
    therefore publishes its decision — ``(schedule_code, chunk, flags,
    invocation)`` — into the slot for the loop's SPMD ordinal before
    dispatching, and workers read it, waiting for a master that has not
    arrived yet — until ``barrier``, the team barrier the arena is built
    with, breaks.  :meth:`~SlotArena.slot` takes the loop ordinal and returns
    a :class:`TunePlanSlot`.  The master names the plan's readers, and
    does not re-publish a recycled slot before they all read it, so a member
    any number of ``nowait`` auto loops behind still finds its plan.

    When the plan's flags ask for it, each of up to ``max_workers`` members
    also reports the time its own share took, and the master reads the
    reports after the loop's barrier: the tuner's imbalance probe.  The
    report cells follow the slots, one row of ``max_workers`` per team level
    rather than per slot: a member reports only after it read the plan, and
    the master publishes the next plan only after it read the last reports,
    so one team never has two reporting loops in flight.

    Kept separate from :class:`SyncArena` on purpose: when the published plan
    is dynamic/guided, the *same ordinal's* SyncArena slot is used for the
    claim counter, so the two arenas must not share cells.
    """

    SLOT = TunePlanSlot

    def __init__(
        self, barrier: Any, capacity: int = 256, *, max_workers: int = 64, cells: Any = mp_cells, fresh: bool = True
    ) -> None:
        self._barrier = barrier
        self.max_workers = max_workers
        super().__init__(capacity, TunePlanSlot.CELLS, cells, fresh, MAX_TEAM_LEVELS * max_workers)


class SlotArenas(NamedTuple):
    """The three slot arenas every claiming construct draws from: a team's
    whole claim state.

    A :class:`ProcessSync` carries fork-inherited ones; an in-process team,
    and the socket plane's coordinator, build theirs on :func:`heap_cells`.
    """

    arena: SyncArena
    steal: TaskStealArena
    tune: TunePlanArena

    @classmethod
    def build(cls, workers: int, barrier: Any, cells: Any = mp_cells) -> "SlotArenas":
        """Arenas on ``cells`` for up to ``workers`` members whose team barrier
        is ``barrier`` (a tune-plan wait ends when it breaks)."""
        return cls(
            SyncArena(cells=cells),
            TaskStealArena(max_workers=workers, cells=cells),
            TunePlanArena(barrier, max_workers=workers, cells=cells),
        )


@dataclass
class ProcessSync:
    """Cross-process synchronisation bundle attached to a process-backed team.

    Created by the process backend *before* workers exist (fork inherits it);
    the team's barrier and its :class:`SlotArenas` come from it.
    ``pooled`` records whether the region runs on the persistent worker pool
    (picklable SPMD body) or on per-region forked workers (arbitrary
    closures, shipped by address-space inheritance).
    """

    #: the team barrier: a :class:`~repro.runtime.barrier.CyclicBarrier`, or a
    #: socket-plane worker's :class:`~repro.runtime.dataplane.SocketBarrier`.
    barrier: Any
    slots: SlotArenas
    #: per-member liveness cells (pid / beat / barrier arrivals) consulted by
    #: the worker monitor and the barrier-failure diagnostics.
    heartbeat: HeartbeatArena
    pooled: bool = False
    #: per-member metric cells (:class:`repro.obs.arena.MetricsArena`) the
    #: workers flush their counter deltas into; ``None`` when metrics are off
    #: (the arena only exists when ``RuntimeConfig.metrics`` is enabled) or on
    #: planes that aggregate another way (socket workers piggyback on frames).
    metrics: "object | None" = None
    #: the pickled region body, for tiers that ship it to their workers
    #: (``None`` on the fork path, whose workers inherit the live callable).
    body_bytes: "bytes | None" = None
    #: whatever the plane or backend that built this bundle keeps with it to
    #: share or release it — the socket plane's coordinator, the pool lock a
    #: pooled region holds.  Opaque to everyone else.
    owned: Any = None
