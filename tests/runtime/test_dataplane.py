"""The data-plane abstraction and its socket transport.

Three layers of proof, cheapest first:

* **wire/unit** — framing round-trips, token and hello auth, the ``slot``
  request's allowlist and RemoteArray coherence, all against an in-process
  :class:`~repro.runtime.dataplane.Coordinator` (no worker processes; the
  slot ops themselves are ``test_slot_conformance``'s);
* **coherence** — a barrier is one ``sync`` RPC moving only what changed:
  the run codec, the *mirror == shadow == master array* invariant under
  random writes (hypothesis), and SOR's recorded op list;
* **conformance** — Series, Crypt, SOR and Sparse on ``backend="distributed"``
  (real spawned, non-forked worker processes talking TCP) must produce
  results identical to ``backend="processes"`` across static/cyclic/dynamic
  schedules, on a cold team and again on the parked one, which is the
  acceptance bar for the socket plane;
* **liveness** — a SIGKILLed remote member must surface as a diagnosed
  :class:`~repro.runtime.exceptions.WorkerProcessError` within seconds via
  the dropped-connection signal, not the barrier timeout.
"""

from __future__ import annotations

import copy
import pickle
import socket
import threading
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.obs.registry as obsreg
from faultkit import dies
from repro.runtime import context as ctx
from repro.runtime import dataplane, member, shm
from repro.runtime.backend import available_backends, backend_by_name
from repro.runtime.barrier import _COUNT, BrokenBarrierError, CyclicBarrier
from repro.runtime.config import config_override
from repro.runtime.distributed import DistributedBackend
from repro.runtime.exceptions import BrokenTeamError, WorkerProcessError
from repro.runtime.team import Team, parallel_region
from repro.runtime.worksharing import run_for

#: acceptance bound for dead-member detection (against a 120s barrier timeout).
DETECTION_BOUND = 5.0

#: records calls made *by unpickling* — a module-level function pickles by
#: reference, so loading the payload anywhere in this process appends here.
_UNPICKLED: "list[str]" = []


def _record_unpickle(tag: str) -> None:
    _UNPICKLED.append(tag)


class _UnpicklePayload:
    """Stand-in RCE payload: deserialising it calls :func:`_record_unpickle`."""

    def __reduce__(self):
        return (_record_unpickle, ("pwned",))

#: schedules the conformance acceptance criterion names explicitly.
CONFORMANCE_SCHEDULES = ("static_block", "static_cyclic", "dynamic,2")


@pytest.fixture
def coordinator():
    coord = dataplane.Coordinator(2)
    coord.start()
    yield coord
    coord.shutdown()


@pytest.fixture
def session(coordinator):
    sess = dataplane.WorkerSession(
        dataplane.LOOPBACK_HOST, coordinator.port, coordinator.token, 1, install_hook=False
    )
    yield sess
    sess.close()


class TestWireFraming:
    def test_round_trip(self):
        a, b = socket.socketpair()
        try:
            for payload in (("ping",), ("op", 1, None, b"\x00bytes"), {"k": [1.5, "v"]}, 0):
                dataplane.send_message(a, payload)
                assert dataplane.recv_message(b) == payload
        finally:
            a.close()
            b.close()

    def test_closed_peer_is_eof(self):
        a, b = socket.socketpair()
        a.close()
        try:
            with pytest.raises(EOFError, match="closed"):
                dataplane.recv_message(b)
        finally:
            b.close()

    def test_oversized_frame_is_refused(self):
        """A corrupt length header must not make the receiver allocate GBs."""
        a, b = socket.socketpair()
        try:
            a.sendall(dataplane._HEADER.pack(dataplane.MAX_FRAME_BYTES + 1))
            with pytest.raises(ConnectionError, match="exceeds"):
                dataplane.recv_message(b)
        finally:
            a.close()
            b.close()


class TestShmPlane:
    """The shm bundle is built from the same arena and barrier types every team uses."""

    def test_components_are_the_historical_types(self):
        sync = dataplane.shm_process_sync(3)
        assert isinstance(sync.barrier, CyclicBarrier) and sync.barrier.parties == 3
        assert isinstance(sync.slots.arena, shm.SyncArena)
        assert isinstance(sync.slots.steal, shm.TaskStealArena)
        assert isinstance(sync.slots.tune, shm.TunePlanArena)
        assert isinstance(sync.heartbeat, shm.HeartbeatArena)
        assert sync.barrier.parties == 3
        assert sync.pooled is False

    def test_pool_construction_knobs(self):
        sync = dataplane.shm_process_sync(1, pooled=True, max_workers=64)
        assert sync.pooled is True
        assert sync.slots.steal.max_workers == 64


class TestCoordinatorRPC:
    def test_ping_echo(self, session):
        assert session.call("ping", "marco") == "marco"

    def test_pickled_frame_without_token_preamble_is_rejected(self, coordinator):
        """A peer that skips the raw-token preamble and leads with a pickled
        frame must be refused: its bytes are consumed as a (mismatching)
        preamble, never as pickle."""
        sock = socket.create_connection((dataplane.LOOPBACK_HOST, coordinator.port), timeout=5.0)
        try:
            dataplane.send_message(sock, ("ping", "x" * len(coordinator.token)))
            ok, payload = dataplane.recv_message(sock)
            assert not ok and isinstance(payload, PermissionError)
        finally:
            sock.close()

    def test_authenticated_hello_must_come_first(self, coordinator):
        sock = socket.create_connection((dataplane.LOOPBACK_HOST, coordinator.port), timeout=5.0)
        try:
            sock.sendall(coordinator.token.encode("ascii"))
            dataplane.send_message(sock, ("ping",))
            ok, payload = dataplane.recv_message(sock)
            assert not ok and isinstance(payload, PermissionError)
        finally:
            sock.close()

    def test_unauthenticated_bytes_are_never_unpickled(self, coordinator):
        """The high-severity guarantee: a crafted pickle from a peer without
        the token must be rejected *without* being deserialised — reaching
        ``pickle.loads`` would execute arbitrary reduce callables."""
        _UNPICKLED.clear()
        evil = pickle.dumps(_UnpicklePayload())
        frame = dataplane._HEADER.pack(len(evil)) + evil
        # Pad so the server's fixed-length preamble read completes even for a
        # small bomb; the padding is garbage, never a valid token.
        frame += b"\x00" * max(0, len(coordinator.token) - len(frame))
        sock = socket.create_connection((dataplane.LOOPBACK_HOST, coordinator.port), timeout=5.0)
        try:
            sock.sendall(frame)
            ok, payload = dataplane.recv_message(sock)
            assert not ok and isinstance(payload, PermissionError)
            assert _UNPICKLED == []  # the pickle was never loaded
        finally:
            sock.close()

    @pytest.mark.parametrize(
        "token, member, complaint",
        [
            ("wrong-token", 1, "token"),
            # A valid token does not make every hello a team member's: the
            # master's own id, a negative index, an id past the team, a non-int.
            (None, 0, "member 0"),
            (None, -1, "member -1"),
            (None, 7, "member 7"),
            (None, "x", "member 'x'"),
        ],
    )
    def test_bad_token_rejected_without_marking_a_member_lost(self, coordinator, token, member, complaint):
        cells_before = list(coordinator.heartbeat._cells)
        with pytest.raises(PermissionError, match=complaint):
            dataplane.WorkerSession(
                dataplane.LOOPBACK_HOST, coordinator.port, token or coordinator.token, member, install_hook=False
            )
        # The impostor's disconnect must not be mistaken for a worker death,
        # and it never got to write a heartbeat cell (the master's included).
        time.sleep(0.05)
        assert coordinator.lost_members() == []
        assert not coordinator.barrier.broken
        assert list(coordinator.heartbeat._cells) == cells_before

    @pytest.mark.parametrize("attempt", ["second hello", "next_region before result"])
    def test_a_seat_can_be_taken_once(self, coordinator, session, attempt):
        """The token lives as long as the team, so it no longer proves who is
        asking: a second hello for a seated member is an impostor, and a
        seated member asking for the next region before answering this one
        would run it twice.  Both are refused without a trace."""
        cells_before = list(coordinator.heartbeat._cells)
        if attempt == "second hello":
            with pytest.raises(PermissionError, match="member 1 is already seated"):
                dataplane.WorkerSession(
                    dataplane.LOOPBACK_HOST, coordinator.port, coordinator.token, 1, install_hook=False
                )
        else:
            with pytest.raises(PermissionError, match="has not delivered its result"):
                session.call("next_region")
        time.sleep(0.05)
        # The seated member is neither displaced nor marked lost, no heartbeat
        # cell moved (ping's own beat comes after), and it is still served.
        assert list(coordinator._seats) == [1]
        assert coordinator.lost_members() == []
        assert not coordinator.barrier.broken
        assert list(coordinator.heartbeat._cells) == cells_before
        assert session.call("ping", "still seated") == "still seated"

    def test_a_vacated_seat_can_be_taken_again(self, coordinator, session):
        session.call("result", 1, b"done", None)
        session.close()
        deadline = time.monotonic() + 5.0
        while coordinator._seats and time.monotonic() < deadline:
            time.sleep(0.01)
        again = dataplane.WorkerSession(
            dataplane.LOOPBACK_HOST, coordinator.port, coordinator.token, 1, install_hook=False
        )
        try:
            assert again.call("ping", "seated") == "seated"
        finally:
            again.close()

    def test_unknown_op_raises_client_side(self, session):
        with pytest.raises(ValueError, match="unknown data-plane op"):
            session.call("no-such-op")

    @pytest.mark.parametrize(
        "request_args, error",
        [
            # A wire string names a declared op or nothing at all ...
            (("arena", (0, 0), "_lock", ()), ValueError),
            (("arena", (0, 0), "reset", ()), ValueError),
            (("arena", (0, 0), "__class__", ()), ValueError),
            (("tune", (0, 0), "__init__", ()), ValueError),
            (("heartbeat", (0, 0), "fetch_add", (1,)), ValueError),
            # ... and a key of the wrong arity attaches no slot.
            (("steal", (0, 0), "claim_local", (1,)), TypeError),
        ],
    )
    def test_the_slot_allowlist_holds_on_the_wire(self, coordinator, session, request_args, error):
        """The slot surface proper is ``test_slot_conformance``; this is what
        the one ``slot`` request does with a name its table does not hold."""

        def cells():
            return [list(arena._cells) for arena in coordinator.slots]

        before = cells()
        with pytest.raises(error, match="unknown data-plane op" if error is ValueError else None):
            session.call("slot", *request_args)
        assert session.call("ping", "still serving") == "still serving"
        assert cells() == before

    def test_rpcs_refresh_the_heartbeat(self, coordinator, session):
        session.call("ping")
        assert coordinator.heartbeat.pid(1) != 0
        age = coordinator.heartbeat.age(1)
        assert age is not None and age < 2.0


class TestRemoteArrayCoherence:
    def test_gather_flush_refresh(self, coordinator, session):
        master = shm.shared_zeros(8)
        try:
            master.np[:] = np.arange(8.0)
            mirror = session.attach_array(master.name, (8,), master.np.dtype.str)
            assert np.array_equal(np.asarray(mirror), np.arange(8.0))
            mirror[3] = 99.0
            session.flush_arrays()
            assert master.np[3] == 99.0
            master.np[0] = -1.0
            mirror.refresh()
            assert mirror[0] == -1.0 and mirror[3] == 99.0
        finally:
            coordinator.shutdown()  # release the master-side attachment first
            master.close()

    def test_refresh_keeps_buffer_identity(self, coordinator, session):
        """A kernel may cache ``arr.np`` across a barrier (valid under the shm
        plane, whose mapping is stable): refresh must overwrite in place, so
        the cached reference keeps seeing — and writing — the live mirror."""
        master = shm.shared_zeros(4)
        try:
            mirror = session.attach_array(master.name, (4,), master.np.dtype.str)
            cached = mirror.np  # what a kernel would hold across a barrier
            master.np[1] = 3.0
            mirror.refresh()
            assert mirror.np is cached
            assert cached[1] == 3.0  # refreshed data visible through the cache
            cached[2] = 8.0  # writes through the cache must flush
            session.flush_arrays()
            assert master.np[2] == 8.0
        finally:
            coordinator.shutdown()
            master.close()

    def test_untouched_elements_are_never_republished(self, coordinator, session):
        """The stale-overwrite guard: a concurrent master write to an element
        this worker never touched must survive the worker's flush."""
        master = shm.shared_zeros(4)
        try:
            mirror = session.attach_array(master.name, (4,), master.np.dtype.str)
            mirror[1] = 5.0  # worker's own chunk
            master.np[2] = 7.0  # master races ahead on a different element
            session.flush_arrays()
            assert master.np[1] == 5.0
            assert master.np[2] == 7.0  # not clobbered back to the stale 0.0
        finally:
            coordinator.shutdown()
            master.close()


def _meet(coordinator, barrier) -> None:
    """One barrier round: this thread as the socket member, a helper as the master."""
    master = threading.Thread(target=coordinator.barrier.wait)
    master.start()
    barrier.wait(timeout=10.0)
    master.join(timeout=10.0)
    assert not master.is_alive()


class TestRunCodec:
    @pytest.mark.parametrize(
        "indices, runs",
        [
            ([], []),
            ([5], [5, 1]),
            (list(range(8)), [0, 8]),
            ([0, 2, 4, 6], [0, 1, 2, 1, 4, 1, 6, 1]),
            ([2, 3, 4, 7, 9, 10], [2, 3, 7, 1, 9, 2]),
        ],
        ids=["empty", "single", "full", "alternating", "mixed"],
    )
    def test_round_trip(self, indices, runs):
        encoded = dataplane.encode_runs(np.asarray(indices, dtype=np.int64))
        assert encoded.dtype == np.int64 and encoded.tolist() == runs
        assert dataplane.decode_runs(encoded).tolist() == indices

    def test_change_sets_compare_bit_patterns(self):
        """A NaN is not forever dirty, and a 0.0 overwritten with -0.0 is."""
        known = np.array([np.nan, 0.0, 1.0, 2.0])
        current = np.array([np.nan, -0.0, 1.0, 3.0])
        runs, values = dataplane._take_changes(current, known)
        assert np.frombuffer(runs, dtype=np.int64).tolist() == [1, 1, 3, 1]
        assert known.tobytes() == current.tobytes()
        assert dataplane._take_changes(current, known) is None
        target = np.zeros(4)
        dataplane._put_changes(runs, values, target)
        assert target.tobytes() == np.array([0.0, -0.0, 0.0, 3.0]).tobytes()

    @pytest.mark.parametrize("dtype", ["u1", "<i4", "<f8", "<c16", "?"])
    def test_change_sets_work_at_every_item_size(self, dtype):
        known = np.zeros(6, dtype=dtype)
        current = known.copy()
        current[[1, 2, 5]] = 1
        runs, values = dataplane._take_changes(current, known)
        assert np.frombuffer(runs, dtype=np.int64).tolist() == [1, 2, 5, 1]
        assert len(values) == 3 * known.dtype.itemsize and known.tobytes() == current.tobytes()


_DTYPES = {"f8": np.float64, "i8": np.int64, "u2": np.uint16}


@st.composite
def _write_rounds(draw):
    """``(dtype, size, rounds)``: per round, disjoint master and worker writes
    as ``{index: value}`` — a value of ``None`` rewrites what is already there."""
    dtype = draw(st.sampled_from(sorted(_DTYPES)))
    size = draw(st.integers(1, 24))
    if dtype == "f8":
        values = st.one_of(st.none(), st.sampled_from([float("nan"), 0.0, -0.0]), st.floats(allow_nan=False))
    else:
        info = np.iinfo(_DTYPES[dtype])
        values = st.one_of(st.none(), st.integers(int(info.min), int(info.max)))
    rounds = []
    for _ in range(draw(st.integers(1, 4))):
        writes = draw(st.dictionaries(st.integers(0, size - 1), st.tuples(st.booleans(), values), max_size=size))
        rounds.append(
            (
                {index: value for index, (mine, value) in writes.items() if mine},
                {index: value for index, (mine, value) in writes.items() if not mine},
            )
        )
    return dtype, size, rounds


class TestBarrierCoherence:
    """The barrier is the single coherence message: one ``sync`` carries this
    member's writes out and the other members' writes back."""

    # One coordinator and one session serve every example: each example
    # attaches its own array and drops it (and its shadow) again.
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=_write_rounds())
    def test_mirror_shadow_and_master_agree_after_every_barrier(self, coordinator, session, case):
        dtype, size, rounds = case
        master = shm.SharedArray.zeros(size, _DTYPES[dtype])
        try:
            master.np[:] = np.arange(size)
            mirror = session.attach_array(master.name, (size,), master.np.dtype.str)
            barrier = dataplane.SocketBarrier(session, 2)
            for master_writes, worker_writes in rounds:
                for target, writes in ((master.np, master_writes), (mirror.np, worker_writes)):
                    for index, value in writes.items():
                        target[index] = target[index] if value is None else value
                _meet(coordinator, barrier)
                shadow = coordinator._shadows[1][master.name]
                assert mirror.np.tobytes() == master.np.tobytes() == shadow.tobytes()
                assert mirror._known.tobytes() == shadow.tobytes()
        finally:
            session._arrays.clear()
            coordinator.end_region()
            master.close()

    def test_a_barrier_moves_only_what_changed(self, coordinator, session):
        master = shm.shared_zeros(1000)
        frames = []
        real_exchange = session._exchange

        def recording_exchange(request):
            reply, sent, received = real_exchange(request)
            frames.append((request[0], sent, received))
            return reply, sent, received

        try:
            mirror = session.attach_array(master.name, (1000,), master.np.dtype.str)
            barrier = dataplane.SocketBarrier(session, 2)
            session._exchange = recording_exchange
            _meet(coordinator, barrier)  # nothing written: nothing moves
            mirror[10:14] = 1.0
            master.np[500:508] = 2.0
            _meet(coordinator, barrier)
            assert [op for op, _sent, _received in frames] == ["sync", "sync"]
            (_op, idle_sent, idle_received), (_op, sent, received) = frames
            # Out: 4 values and one (start, length) run; back: 8 values and one
            # run — plus the array's name and pickle framing, not 8000 bytes.
            assert 4 * 8 + 2 * 8 < sent - idle_sent < 4 * 8 + 2 * 8 + 64
            assert 8 * 8 + 2 * 8 < received - idle_received < 8 * 8 + 2 * 8 + 64
            assert np.array_equal(mirror.np, master.np) and mirror[500] == 2.0 and master.np[10] == 1.0
        finally:
            del session._exchange
            coordinator.shutdown()
            master.close()

    def test_sor_makes_one_rpc_per_barrier(self, coordinator, session):
        """SOR `small` as a two-member team, the socket member run in-process
        over its mirror of the grid: its whole conversation is the attach, one
        ``sync`` per barrier, and the ``result``."""
        from repro.jgf.sor.kernel import SORBenchmark

        bench = SORBenchmark(64, iterations=10, shared=True)
        expected = SORBenchmark(64, iterations=10).run()
        ops = []
        real_call = session.call

        def recording_call(op, *args):
            ops.append(op)
            return real_call(op, *args)

        session.call = recording_call
        try:
            remote = copy.copy(bench)
            remote.grid = session.attach_array(bench.grid.name, bench.grid.np.shape, bench.grid.np.dtype.str)
            master_sync = shm.ProcessSync(
                coordinator.barrier,
                coordinator.slots,
                heartbeat=coordinator.heartbeat,
            )
            teams = [
                Team(2, name="sor-ops", process_sync=master_sync),
                Team(2, name="sor-ops", process_sync=dataplane.worker_process_sync(session, 2)),
            ]

            def socket_member():
                result = member.run_member(teams[1], 1, remote.run_spmd)
                session.send_result(1, member._encode_result(result), None)

            worker = threading.Thread(target=socket_member)
            worker.start()
            value = member.run_member(teams[0], 0, bench.run_spmd)
            worker.join(timeout=60.0)
            assert not worker.is_alive()
            barriers = 2 * 10  # one per half-sweep
            assert ops == ["gather"] + ["sync"] * barriers + ["result"]
            _member, (result, exc) = coordinator.results.get(timeout=5.0)
            assert exc is None and value == expected == member._decode_result(result)
        finally:
            del session.call
            coordinator.shutdown()
            bench.release_shared()


class TestSocketBarrier:
    def test_a_sync_meeting_a_broken_barrier_is_answered_with_the_break(self, coordinator, session):
        barrier = dataplane.SocketBarrier(session, 2)
        coordinator.barrier.abort()
        with pytest.raises(BrokenBarrierError):
            barrier.wait(timeout=10.0)
        assert barrier.broken
        assert session.call("ping", "in step") == "in step"  # exactly one reply was sent

    def test_an_abort_releases_a_waiting_sync_with_the_break(self, coordinator, session):
        barrier = dataplane.SocketBarrier(session, 2)

        def abort_once_it_waits():
            deadline = time.monotonic() + 10.0
            while coordinator.barrier._cells[_COUNT] == 0 and time.monotonic() < deadline:  # noqa: SLF001
                time.sleep(0.005)
            coordinator.barrier.abort()

        aborter = threading.Thread(target=abort_once_it_waits)
        aborter.start()
        with pytest.raises(BrokenBarrierError):
            barrier.wait(timeout=10.0)
        aborter.join(timeout=10.0)
        assert not coordinator._syncing
        assert session.call("ping", "in step") == "in step"

    def test_master_and_remote_meet_at_the_barrier(self, coordinator, session):
        barrier = dataplane.SocketBarrier(session, 2)
        indices = []

        def master_side():
            indices.append(coordinator.barrier.wait())

        thread = threading.Thread(target=master_side)
        thread.start()
        indices.append(barrier.wait(timeout=10.0))
        thread.join(timeout=10.0)
        assert sorted(indices) == [0, 1]
        assert barrier.parties == 2 and barrier.broken is False
        # The handler counted the remote member's arrival server-side.
        assert coordinator.heartbeat.arrivals(2)[1] == 1

    def test_dropped_connection_marks_the_member_lost_and_breaks_the_barrier(self, coordinator, session):
        session._sock.close()  # simulate a worker dying mid-region
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline and not coordinator.lost_members():
            time.sleep(0.01)
        lost = coordinator.lost_members()
        assert lost and lost[0][0] == 1
        assert coordinator.barrier.broken

    def test_rpc_timeout_tracks_the_barrier_bound(self, monkeypatch):
        """A worker's socket timeout must sit above the *effective* barrier
        timeout (AOMP_BARRIER_TIMEOUT), not the 120s constant — and vanish
        entirely when the bound is disabled."""
        monkeypatch.setenv("AOMP_BARRIER_TIMEOUT", "600")
        assert dataplane._effective_rpc_timeout() == 600.0 + dataplane._RPC_GRACE
        monkeypatch.setenv("AOMP_BARRIER_TIMEOUT", "0")
        assert dataplane._effective_rpc_timeout() is None
        monkeypatch.delenv("AOMP_BARRIER_TIMEOUT")
        assert dataplane._effective_rpc_timeout() == 120.0 + dataplane._RPC_GRACE

    def test_session_socket_honours_a_raised_barrier_bound(self, coordinator, monkeypatch):
        monkeypatch.setenv("AOMP_BARRIER_TIMEOUT", "300")
        sess = dataplane.WorkerSession(
            dataplane.LOOPBACK_HOST, coordinator.port, coordinator.token, 1, install_hook=False
        )
        try:
            assert sess._sock.gettimeout() == 300.0 + dataplane._RPC_GRACE
        finally:
            sess.close()

    def test_reply_send_failure_after_result_does_not_break_the_barrier(self, coordinator, session):
        """A worker whose connection dies *after* its result frame was
        recorded is not lost: the payload is already queued, so aborting the
        barrier would only punish the survivors."""
        session.call("result", 1, b"payload", None)
        session._sock.close()
        time.sleep(0.2)  # let the handler observe the EOF
        assert coordinator.lost_members() == []
        assert not coordinator.barrier.broken
        assert coordinator.results.get_nowait() == (1, (b"payload", None))


class TestClaimLoopOnTheSocketPlane:
    """A worker's dynamic/guided claim loop, driven in-process as member 1
    over the proxy bundle: what it costs in RPCs, and how fast a cancel lands."""

    @staticmethod
    def _run_member_loop(session, loop, total):
        """Run ``loop`` under ``dynamic,1`` as the socket-plane member; returns
        ``(team, ops)`` with ``ops`` every RPC the loop made."""
        ops = []
        real_call = session.call

        def recording_call(op, *args):
            # a slot request reads ("slot", kind, key, method, args)
            ops.append(f"{args[0]}.{args[2]}" if op == "slot" else op)
            return real_call(op, *args)

        session.call = recording_call
        team = Team(2, process_sync=dataplane.worker_process_sync(session, 2))
        ctx.push_context(ctx.ExecutionContext(team=team, thread_id=1, nesting_level=0))
        try:
            run_for(loop, 0, total, 1, schedule="dynamic", chunk=1, nowait=True)
        finally:
            ctx.pop_context()
            del session.call
        return team, ops

    def test_dynamic_loop_makes_one_rpc_per_claim(self, session):
        calls = []
        _team, ops = self._run_member_loop(session, lambda s, e, st: calls.append((s, e)), 400)
        # One body call per claim, tiling the range in claim order ...
        assert calls[0][0] == 0 and calls[-1][1] == 400
        assert all(prev[1] == nxt[0] for prev, nxt in zip(calls, calls[1:]))
        assert len(calls) < 400 // 4
        # ... and one RPC per claim, the last one coming back empty.  Nothing
        # else: constructing the remote slot cost no round-trip, and no
        # ``barrier_broken`` poll rides along.
        assert ops == ["arena.claim_batch"] * (len(calls) + 1)

    def test_cancel_lands_within_one_claim(self, coordinator, session):
        calls = []

        def loop(start, end, step):
            calls.append((start, end))
            if len(calls) == 2:
                coordinator.barrier.abort()  # the master cancels mid-loop

        barrier = dataplane.SocketBarrier(session, 2)
        assert not barrier.broken
        with pytest.raises(BrokenBarrierError):
            self._run_member_loop(session, loop, 400)
        # The very next claim was refused: no body call after the cancel.
        assert len(calls) == 2
        assert barrier.broken  # learned from the refused claim, not a poll


class TestTransportNamedDiagnostics:
    def test_require_fork_names_both_planes(self, monkeypatch):
        monkeypatch.setattr(shm, "fork_available", lambda: False)
        with pytest.raises(Exception, match="shm data plane") as excinfo:
            shm.require_fork("the persistent process pool")
        assert "socket data plane" in str(excinfo.value)  # points at the alternative


class TestDistributedBackendResolution:
    def test_registered_with_aliases(self):
        assert "distributed" in available_backends()
        backend = backend_by_name("distributed")
        assert isinstance(backend, DistributedBackend)
        for alias in ("dist", "sockets", "socket"):
            assert isinstance(backend_by_name(alias), DistributedBackend)

    def test_size_one_runs_inline(self):
        backend = DistributedBackend()
        assert backend.resolve_for_region(size=1, requires_shared_locals=False, nesting_level=0) is backend
        assert backend.create_process_sync(1, lambda: None) is None

    def test_nested_regions_fall_back_to_threads(self):
        backend = DistributedBackend()
        resolved = backend.resolve_for_region(size=2, requires_shared_locals=False, nesting_level=1)
        assert resolved is backend.fallback

    def test_shared_locals_warn_and_fall_back(self):
        backend = DistributedBackend()
        with pytest.warns(RuntimeWarning, match="DistributedBackend"):
            resolved = backend.resolve_for_region(size=2, requires_shared_locals=True, nesting_level=0)
        assert resolved is backend.fallback

    def test_unpicklable_body_warns_and_runs_on_threads(self):
        backend = DistributedBackend()
        lock = threading.Lock()  # closures over locks cannot pickle

        def body():
            with lock:
                return 42

        with pytest.warns(RuntimeWarning, match="DistributedBackend"):
            result = parallel_region(body, num_threads=2, backend=backend, name="dist-unpicklable")
        assert result == 42  # parallel_region returns the master's result


class _SharedFillBody:
    """Picklable ``process_safe`` SPMD owner writing disjoint shared slots."""

    process_safe = True
    retry_safe = True

    def __init__(self, n: int) -> None:
        self.out = shm.shared_zeros(n)

    def run(self) -> None:
        from repro.runtime.worksharing import run_for

        run_for(self.fill, 0, len(self.out.view()), 1, loop_name="dataplane.fill")

    def fill(self, start: int, end: int, step: int) -> None:
        view = self.out.view()
        for i in range(start, end, step):
            view[i] = i * 2.0

    def close(self) -> None:
        self.out.close()


class TestDistributedExecution:
    def test_spmd_loop_fills_a_shared_array(self):
        backend = DistributedBackend()
        body = _SharedFillBody(24)
        try:
            parallel_region(body.run, num_threads=3, backend=backend, name="dist-fill")
            assert np.array_equal(body.out.view(), np.arange(24) * 2.0)
        finally:
            body.close()
            backend.shutdown()

    @staticmethod
    def _assert_matches_processes(kernel, schedule):
        """``==``, not approximately: once on a cold team, again on the parked one."""
        backend = DistributedBackend()
        try:
            with config_override(default_schedule=schedule, metrics=True):
                obsreg.reset()
                expected = kernel.run_backend("tiny", num_threads=3, backend="processes").value
                cold = kernel.run_backend("tiny", num_threads=3, backend=backend).value
                parked = kernel.run_backend("tiny", num_threads=3, backend=backend).value
                teams = obsreg.get_registry().snapshot()["counters"]["aomp_distributed_teams_total"]
        finally:
            backend.shutdown()
        assert cold == expected and parked == expected
        # On a loaded box the team may have lingered out between the two runs
        # (then both were cold); it must never have been spawned a third time.
        assert teams["spawned"] + teams["reused"] == 2 and teams["spawned"] >= 1

    @pytest.mark.parametrize("schedule", CONFORMANCE_SCHEDULES)
    def test_series_matches_processes(self, schedule):
        from repro.jgf.series import parallel as series

        self._assert_matches_processes(series, schedule)

    @pytest.mark.parametrize("schedule", CONFORMANCE_SCHEDULES)
    def test_crypt_matches_processes(self, schedule):
        from repro.jgf.crypt import parallel as crypt

        self._assert_matches_processes(crypt, schedule)

    @pytest.mark.parametrize("schedule", CONFORMANCE_SCHEDULES)
    def test_sor_matches_processes(self, schedule):
        """The kernel with a barrier (and a change set each way) per half-sweep."""
        from repro.jgf.sor import parallel as sor

        self._assert_matches_processes(sor, schedule)

    @pytest.mark.parametrize("schedule", CONFORMANCE_SCHEDULES)
    def test_sparse_matches_processes(self, schedule):
        """The scatter kernel: ``np.add.at`` needs the worker's mirror as a
        plain ndarray (it raised ``TypeError`` on the ``RemoteArray``)."""
        from repro.jgf.sparse import parallel as sparse

        self._assert_matches_processes(sparse, schedule)


class TestDeadMemberDetection:
    def test_sigkilled_remote_member_is_diagnosed_fast(self):
        """Acceptance bar: socket close + missed beats -> WorkerProcessError
        well inside 5s, with the member and signal named."""
        backend = DistributedBackend()
        body = _SharedFillBody(16)
        try:
            start = time.monotonic()
            with pytest.raises(BrokenTeamError) as excinfo:
                parallel_region(dies(body.run, member=1).run, num_threads=3, backend=backend, name="dist-kill")
            elapsed = time.monotonic() - start
            assert elapsed < DETECTION_BOUND, f"detection took {elapsed:.1f}s"
            cause = excinfo.value.__cause__
            assert isinstance(cause, WorkerProcessError)
            assert cause.member == 1
            assert "SIGKILL" in str(cause)
        finally:
            body.close()
            backend.shutdown()

    def test_region_after_a_death_still_works(self):
        """A team that lost a member is not handed back: a death must not poison the backend."""
        backend = DistributedBackend()
        body = _SharedFillBody(8)
        try:
            with pytest.raises(BrokenTeamError):
                parallel_region(dies(body.run, member=1).run, num_threads=3, backend=backend, name="dist-kill-1")
            body.out.view()[:] = 0.0
            parallel_region(body.run, num_threads=3, backend=backend, name="dist-after")
            assert np.array_equal(body.out.view(), np.arange(8) * 2.0)
        finally:
            body.close()
            backend.shutdown()
