"""One slot surface, every storage: conformance over the declared ops.

A slot op is written once, as a method of its slot class; the class's ``OPS``
/ ``CLAIMS`` tuples are the only other place it is named.  This suite is
driven by that table (:data:`repro.runtime.dataplane.SLOT_KINDS`):

* **conformance** — one recorded op sequence per kind, covering every
  declared op, is driven through two views of the same slot state on each
  storage an arena can live in — fork-inherited ``multiprocessing`` cells,
  heap cells, and the generated remote slot against a live :class:`~repro.runtime.dataplane.Coordinator` next to
  the coordinator's real arena.  Ops alternate between the two views, and the
  returns must equal a private heap-cell reference arena's, op for op;
* **surface** — the slot classes expose nothing the table does not declare,
  the remote classes expose exactly the table, and every declared claim is
  refused once the coordinator barrier is broken.
"""

from __future__ import annotations

import contextlib
import itertools
import threading
import time
from types import SimpleNamespace
from typing import Any, NamedTuple

import pytest

from repro.runtime import dataplane, shm
from repro.runtime.barrier import BrokenBarrierError, CyclicBarrier

#: a team barrier nobody broke (what a tune arena polls while a reader waits).
_INTACT = SimpleNamespace(broken=False)


class Step(NamedTuple):
    """One recorded op: ``slot(*key).op(*args)``."""

    key: tuple
    op: str
    args: tuple = ()
    #: the literal return, where one is worth pinning; ``...`` pins nothing —
    #: the return must only equal the reference arena's.
    pinned: Any = ...


#: kind -> its recorded sequence, covering every op the kind declares.
SEQUENCES = {
    "arena": [
        # one counter, whichever view adds to it
        Step((0,), "fetch_add", (4,), 0),
        Step((0,), "fetch_add", (4,), 4),
        Step((0,), "fetch_add", (0,), 8),
        Step((0,), "fetch_add", (), 8),
        # chunk boundaries are the claim policy's, identical by construction
        *[Step((1,), "claim_batch", (3, 2, 25))] * 10,
        *[Step((2,), "claim_guided", (100, 4, 2))] * 12,
        *[Step((3,), "claim_guided_batch", (100, 4, 2, 3))] * 6,
        # ordinal 16 recycles ordinal 0's cell of the 16-slot arena, afresh
        Step((16,), "fetch_add", (1,), 0),
    ],
    "steal": [
        # worker 1 drains its half of the 8-tile deck ...
        Step((0, 2, 8), "claim_local", (1,), 4),
        Step((0, 2, 8), "mark_done", (), 1),
        Step((0, 2, 8), "claim_local", (1,), 5),
        Step((0, 2, 8), "mark_done", (), 2),
        Step((0, 2, 8), "claim_local", (1,), 6),
        Step((0, 2, 8), "mark_done", (), 3),
        Step((0, 2, 8), "claim_local", (1,), 7),
        Step((0, 2, 8), "mark_done", (), 4),
        Step((0, 2, 8), "claim_local", (1,), None),
        # ... then steals from the tail of worker 0's
        Step((0, 2, 8), "claim_steal", (1,), (0, 3)),
        Step((0, 2, 8), "finished", (), False),
        Step((0, 2, 8), "mark_done", (4,), 8),
        Step((0, 2, 8), "finished", (), True),
    ],
    "tune": [
        Step((0,), "publish", ((2, 7, 1, 3),), None),
        Step((0,), "read", (2.0,), (2, 7, 1, 3)),
        Step((1,), "publish", ((1, 16, 0, 9),), None),
        Step((1,), "read", (), (1, 16, 0, 9)),
        # each member reports its own cell; the master reads them all
        Step((1,), "report", (0, 1_500), None),
        Step((1,), "report", (1, 2_500), None),
        Step((1,), "reports", (2,), [1_500, 2_500]),
        Step((1,), "report", (1, 700), None),
        Step((1,), "reports", (2,), [1_500, 700]),
    ],
}


def _arena(kind: str, cells, *, barrier=_INTACT):
    if kind == "arena":
        return shm.SyncArena(16, cells=cells)
    if kind == "steal":
        return shm.TaskStealArena(2, 8, cells=cells)
    return shm.TunePlanArena(barrier, 8, cells=cells)


@contextlib.contextmanager
def _one_arena_twice(kind, cells):
    arena = _arena(kind, cells)
    yield arena, arena


@contextlib.contextmanager
def _mp_views(kind):
    if not shm.fork_available():
        pytest.skip("multiprocessing cells need the fork context")
    with _one_arena_twice(kind, shm.mp_cells) as views:
        yield views


@contextlib.contextmanager
def _heap_views(kind):
    with _one_arena_twice(kind, shm.heap_cells) as views:
        yield views


@contextlib.contextmanager
def _socket_session():
    coordinator = dataplane.Coordinator(2)
    coordinator.start()
    session = dataplane.WorkerSession(
        dataplane.LOOPBACK_HOST, coordinator.port, coordinator.token, 1, install_hook=False
    )
    try:
        yield coordinator, session
    finally:
        session.close()
        coordinator.shutdown()


@contextlib.contextmanager
def _remote_views(kind):
    with _socket_session() as (coordinator, session):
        yield getattr(coordinator, kind), dataplane.RemoteArena(session, kind)


STORAGES = {"mp": _mp_views, "heap": _heap_views, "remote": _remote_views}


def _drive(kind, views):
    """Run the kind's sequence, op *i* through view ``i % 2``; return the returns."""
    returns = []
    for step, view in zip(SEQUENCES[kind], itertools.cycle(views)):
        returns.append(getattr(view.slot(*step.key), step.op)(*step.args))
    return returns


def test_the_sequences_cover_every_declared_op():
    assert set(SEQUENCES) == set(dataplane.SLOT_KINDS)
    for kind, slot_class in dataplane.SLOT_KINDS.items():
        assert {step.op for step in SEQUENCES[kind]} == set(slot_class.OPS)


@pytest.mark.parametrize("storage", sorted(STORAGES))
@pytest.mark.parametrize("kind", sorted(SEQUENCES))
def test_every_storage_returns_what_the_reference_returns(kind, storage):
    with _heap_views(kind) as reference:
        expected = _drive(kind, reference)
    for step, value in zip(SEQUENCES[kind], expected):
        if step.pinned is not ...:
            assert value == step.pinned, step
    with STORAGES[storage](kind) as views:
        assert _drive(kind, views) == expected


class TestDeclaredSurface:
    @pytest.mark.parametrize("kind", sorted(dataplane.SLOT_KINDS))
    def test_a_slot_class_has_no_public_method_outside_its_declared_ops(self, kind):
        slot_class = dataplane.SLOT_KINDS[kind]
        public = {
            name
            for klass in slot_class.__mro__[:-1]
            for name, value in vars(klass).items()
            if callable(value) and not name.startswith("_")
        }
        assert public == set(slot_class.OPS)  # no local-only op exists today
        assert set(slot_class.CLAIMS) <= set(slot_class.OPS)

    @pytest.mark.parametrize("kind", sorted(dataplane.SLOT_KINDS))
    def test_the_remote_class_exposes_exactly_the_declared_ops(self, kind):
        remote = dataplane.REMOTE_SLOTS[kind]
        assert {name for name in dir(remote) if not name.startswith("_")} == set(dataplane.SLOT_KINDS[kind].OPS)
        # Bound at import, on the class: no per-call __getattr__ on the claim path.
        assert not hasattr(remote, "__getattr__")

    def test_every_declared_claim_is_refused_on_a_broken_barrier(self):
        # Derived from the table, not listed: the first recorded use of each
        # declared claim supplies a well-formed key and arguments.
        claims = [
            (kind, next(step for step in SEQUENCES[kind] if step.op == op))
            for kind, slot_class in dataplane.SLOT_KINDS.items()
            for op in slot_class.CLAIMS
        ]
        assert len(claims) >= 5  # the historical hand-kept set had five members
        with _socket_session() as (coordinator, session):
            coordinator.barrier.abort()
            for kind, step in claims:
                session.barrier_broken = False
                slot = dataplane.RemoteArena(session, kind).slot(*step.key)
                with pytest.raises(BrokenBarrierError, match=f"{kind}.{step.op} refused"):
                    getattr(slot, step.op)(*step.args)
                assert session.barrier_broken  # learned from the refused claim, not a poll
            # What hands out no work still answers: a broken team can drain.
            assert dataplane.RemoteArena(session, "arena").slot(9).fetch_add(2) == 0
            assert dataplane.RemoteArena(session, "steal").slot(0, 2, 8).finished() is False


class TestTunePlanWait:
    """``read`` is the one op that waits: what ends the wait, on any storage."""

    def test_a_broken_team_barrier_ends_the_wait_within_a_poll(self):
        barrier = CyclicBarrier(2)
        slot = _arena("tune", shm.heap_cells, barrier=barrier).slot(0)
        threading.Timer(0.05, barrier.abort).start()
        began = time.monotonic()
        with pytest.raises(BrokenBarrierError, match="team barrier broke"):
            slot.read()  # bounded by the 120 s default otherwise
        assert time.monotonic() - began < 2.0

    def test_the_wait_is_bounded_by_the_barrier_timeout_in_force(self, monkeypatch):
        monkeypatch.setenv("AOMP_BARRIER_TIMEOUT", "0.1")
        slot = _arena("tune", shm.heap_cells).slot(0)
        began = time.monotonic()
        with pytest.raises(BrokenBarrierError, match="timed out after 0.1s"):
            slot.read()
        assert time.monotonic() - began < 2.0
