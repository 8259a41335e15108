"""Data planes: where a process team's shared state physically lives.

Every process-backed team synchronises through one
:class:`~repro.runtime.shm.ProcessSync` bundle — a cyclic barrier, the
claim / steal / tune slot arenas and heartbeat cells — and everything above
it (worksharing, tasks, tuning, failure monitoring) only ever touches the
``ArenaSlot`` / ``TaskStealSlot`` / ``TunePlanSlot`` / barrier surfaces.
Two transports build that bundle:

* **shm** — :func:`~repro.runtime.backend.shm_process_sync`, beside the
  process backend that uses it: arenas over ``multiprocessing`` shared
  memory and locks, handed to forked members by address-space inheritance.
  The process backend's fork-per-region teams and the persistent pool are
  built by it, and never import this module.

* **socket** — this module, imported only by the ``distributed`` backend
  (:mod:`repro.runtime.distributed`), for members in *independent*
  (non-forked, possibly remote-capable) processes.  A :class:`Coordinator`
  in the master process hosts the **real** arena instances over plain heap
  cells (the :func:`~repro.runtime.shm.heap_cells` allocator) and serves
  claim / barrier / heartbeat RPCs over length-prefixed TCP on localhost; the
  ``distributed`` backend's worker team builds its bundle from the
  coordinator's own barrier, arenas and heartbeat cells.  Workers hold a
  :class:`RemoteArena` per slot kind (:func:`worker_process_sync`); the
  master, living in the coordinator's process, uses the arenas directly and
  pays zero round-trips.  Claim *policy* (the slot ops ``claim_batch`` /
  ``claim_guided_batch``, steal-deck seeding) therefore runs exactly once,
  master-side, through exactly the same code the shm plane and every
  in-process team use — which is what makes chunk boundaries identical
  across planes by construction rather than by testing luck.

The slot surface is not written here at all.  Each slot class in
:mod:`repro.runtime.shm` declares the operations the wire may name
(``OPS``) and which of them hand out work (``CLAIMS``); the coordinator's
one ``slot`` request checks the wire-supplied method against that
declaration before looking anything up, and the worker-side remote slot
classes are generated from the same tuples (:data:`SLOT_KINDS`).

Bulk arrays do not stream through the RPC channel.  Workers mirror each
:class:`~repro.runtime.shm.SharedArray` locally (:class:`RemoteArray`) and
move data in bulk-synchronous steps pinned to the team barrier, which is the
single coherence message: a worker's barrier is one ``sync`` request carrying
the run-encoded ``(start, length)`` sets of the elements it wrote; the
coordinator stores them, waits in the barrier on the worker's behalf, and
the last party to arrive — the team then quiescent — answers every waiting
worker with only the elements that differ from what that worker's mirror
holds.  It knows what each mirror holds from a per-(member, array) *shadow*,
brought up to date by exactly the values it receives from and sends to that
member, so *mirror == shadow* is an invariant and a reply can never be
stale or incomplete: whatever the master array holds that the shadow does
not is, by that invariant, what the mirror lacks.  Region bodies are SPMD
with barrier-separated phases, so everything a member may read after a
barrier was written — and therefore stored — before it.  A whole array
crosses the wire once, when a worker attaches it (``gather``); what a member
wrote after its last barrier goes out with ``publish`` before its ``result``.

A team outlives its region.  A worker that has delivered its ``result``
asks for the ``next_region`` and the coordinator holds the request until
:meth:`Coordinator.begin_region` arms it again (resetting barrier, arenas
and heartbeat cells in bulk, as the persistent pool does) or
:meth:`Coordinator.shutdown` answers ``None``; deciding when to do which is
the membership layer's business (:mod:`repro.runtime.distributed`).

Wire protocol (see ``send_message``/``recv_message``): a connection opens
with the coordinator's token as a **raw fixed-length preamble**,
constant-time-compared *before* any pickled frame is read — an
unauthenticated peer never reaches ``pickle.loads``, so a crafted frame
cannot execute code in the master.  The token is 16 bytes of
``os.urandom`` in hex; ``hmac.compare_digest`` is imported by the master's
first handshake, so a worker, which only sends the token, never loads
OpenSSL.  After authentication, every frame is a
4-byte little-endian length followed by a pickled payload: first a
``hello`` carrying the member id and pid (a member outside ``[1, size)``,
or one whose seat is already taken by an open connection, is turned away
like a bad token), then ``(op, *args)`` request tuples answered by
``(ok, payload)`` pairs where a falsy ``ok`` carries an encoded exception to
re-raise client-side.
"""

from __future__ import annotations

import os
import pickle
import queue
import socket
import struct
import threading
import time
from typing import Any, Optional

import numpy as np

import repro.obs.registry as obsreg
from repro.runtime import shm
from repro.runtime.barrier import BrokenBarrierError, CyclicBarrier
from repro.runtime.config import env, get_config

#: Socket planes bind to loopback only: the raw token preamble (verified
#: before anything is unpickled) guards against port-scanning neighbours,
#: not a hostile network.
LOOPBACK_HOST = "127.0.0.1"

#: Frame header: little-endian unsigned 32-bit payload length.
_HEADER = struct.Struct("<I")

#: Upper bound on a single frame (guards against a corrupt header making the
#: receiver try to allocate gigabytes).  Generous: gathers of benchmark-sized
#: arrays are a few MB.
MAX_FRAME_BYTES = 1 << 30

#: Bound on how long the coordinator waits for a connecting peer to present
#: its token preamble — an idle port-scanner must not pin a handler thread
#: (and its accepted socket) forever.
HANDSHAKE_TIMEOUT = 10.0


# ---------------------------------------------------------------------------
# Wire framing
# ---------------------------------------------------------------------------


def send_message(sock: socket.socket, payload: Any) -> int:
    """Write one length-prefixed pickled frame; return the bytes written."""
    data = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    frame = _HEADER.pack(len(data)) + data
    sock.sendall(frame)
    return len(frame)


def recv_message(sock: socket.socket) -> Any:
    """Read one length-prefixed pickled frame; ``EOFError`` on a closed peer."""
    payload, _ = recv_message_counted(sock)
    return payload


def recv_message_counted(sock: socket.socket) -> "tuple[Any, int]":
    """Like :func:`recv_message`, also returning the frame size in bytes."""
    header = _recv_exact(sock, _HEADER.size)
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ConnectionError(f"data-plane frame of {length} bytes exceeds the {MAX_FRAME_BYTES} byte bound")
    return pickle.loads(_recv_exact(sock, length)), _HEADER.size + length


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    chunks = []
    while count:
        chunk = sock.recv(count)
        if not chunk:
            raise EOFError("data-plane peer closed the connection")
        chunks.append(chunk)
        count -= len(chunk)
    return b"".join(chunks)


def _encode_error(exc: BaseException) -> Any:
    """Best-effort exception transfer: the object when picklable, else a repr."""
    try:
        pickle.dumps(exc)
        return exc
    except Exception:
        return RuntimeError(f"unpicklable data-plane error: {exc!r}")


# ---------------------------------------------------------------------------
# Change sets: which elements of an array differ from a known copy of it
# ---------------------------------------------------------------------------
#
# Both directions of array traffic are the same question — "what does this
# array hold that the other side does not know yet?" — asked of a pair
# ``(current, known)`` of flat arrays: the worker asks it of its mirror and
# what the coordinator last saw of it, the coordinator of the master's array
# and its shadow of the member's mirror.  Answering marks the answer as known.


def encode_runs(indices: np.ndarray) -> np.ndarray:
    """Sorted flat indices as int64 ``[start, length, start, length, ...]``."""
    if not indices.size:
        return np.empty(0, dtype=np.int64)
    breaks = np.flatnonzero(np.diff(indices) != 1) + 1
    starts = indices[np.concatenate(([0], breaks))]
    lengths = np.diff(np.concatenate((breaks, [indices.size])), prepend=0)
    return np.stack((starts, lengths), axis=1).astype(np.int64).reshape(-1)


def decode_runs(runs: np.ndarray) -> np.ndarray:
    """The flat indices :func:`encode_runs` was given."""
    starts, lengths = runs[0::2], runs[1::2]
    before = np.cumsum(lengths) - lengths  # elements in earlier runs
    return np.repeat(starts - before, lengths) + np.arange(int(lengths.sum()), dtype=np.int64)


def _bits(flat: np.ndarray) -> np.ndarray:
    """``flat`` viewed as unsigned integers, so ``!=`` compares bit patterns:
    a NaN equals itself and ``-0.0`` differs from ``0.0``."""
    size = flat.dtype.itemsize
    if size in (1, 2, 4, 8):
        return flat.view(f"u{size}")
    return flat.view(np.uint8).reshape(flat.size, size)


def _take_changes(current: np.ndarray, known: np.ndarray) -> "tuple[bytes, bytes] | None":
    """``(runs, values)`` of the elements of ``current`` that differ from
    ``known``, copied into ``known`` on the way; ``None`` when there are none."""
    differs = _bits(current) != _bits(known)
    changed = np.flatnonzero(differs if differs.ndim == 1 else differs.any(axis=1))
    if not changed.size:
        return None
    values = current[changed]
    known[changed] = values
    return encode_runs(changed).tobytes(), values.tobytes()


def _put_changes(runs: bytes, values: bytes, *targets: np.ndarray) -> None:
    """Store a change set into each flat array of ``targets``."""
    indices = decode_runs(np.frombuffer(runs, dtype=np.int64))
    for target in targets:
        target[indices] = np.frombuffer(values, dtype=target.dtype)


# ---------------------------------------------------------------------------
# Socket plane: master-side coordinator
# ---------------------------------------------------------------------------

#: transport label threaded into barrier-timeout messages (satellite of the
#: "name the active data plane" fix — a distributed failure must not
#: misreport itself as a fork/shm problem).
SOCKET_TRANSPORT = f"socket data plane, tcp://{LOOPBACK_HOST}"


#: wire name of each slot kind -> the slot class the coordinator hosts.  The
#: class's ``OPS`` is the allowlist a wire-supplied method name is checked
#: against, its ``CLAIMS`` what a broken team refuses; the worker-side remote
#: slots (:data:`REMOTE_SLOTS`) are generated from the same declaration.
SLOT_KINDS = {"arena": shm.ArenaSlot, "steal": shm.TaskStealSlot, "tune": shm.TunePlanSlot}


#: what a request handler returns when another thread has already sent the reply.
_ANSWERED = object()


class Coordinator:
    """Master-side server hosting a socket-plane team's real shared state.

    One instance per *team*, re-armed for each region the team runs
    (:meth:`begin_region`).  Hosts the *actual* :class:`~repro.runtime.shm`
    arenas over plain ``list`` cells guarded by ``threading.Lock`` (every
    mutation happens in this process — either directly by the master member
    or by a per-connection handler thread acting for a remote worker), plus
    an in-process :class:`CyclicBarrier` whose remote parties are represented
    by their handler threads blocking in ``wait`` on their behalf.

    Connection lifecycle is the liveness signal: a worker that dies mid-region
    drops its socket before sending its ``result`` frame.  The handler marks
    the member *lost* and breaks the barrier immediately, so detection is
    bounded by the monitor poll interval, not by a barrier timeout.  A worker
    whose ``result`` is in stays connected: its ``next_region`` request blocks
    until the next :meth:`begin_region` hands it a descriptor, or
    :meth:`shutdown` sends it home with ``None``.
    """

    def __init__(self, size: int) -> None:
        self.size = size
        self.token = os.urandom(16).hex()
        self.barrier = CyclicBarrier(size, action=self._answer_syncs, transport=SOCKET_TRANSPORT)
        self.slots = shm.SlotArenas.build(max(size, 2), self.barrier, cells=shm.heap_cells)
        #: each arena also under its kind's name, as the ``slot`` op looks it up.
        self.arena, self.steal, self.tune = self.slots
        self.heartbeat = shm.HeartbeatArena(cells=shm.heap_cells)
        #: worker result frames, drained by ``collect_member_payloads`` —
        #: ``queue.Queue`` deliberately matches the ``empty()``/``get()``
        #: channel surface the forked path uses.
        self.results: "queue.Queue[tuple[int, tuple[bytes | None, bytes | None]]]" = queue.Queue()
        #: region descriptor served to workers in the hello response and in
        #: every ``next_region`` reply; :meth:`begin_region` sets it.
        self.descriptor: "dict[str, Any] | None" = None
        #: ``time.perf_counter()`` of the latest accepted hello: the backend
        #: subtracts its spawn time to learn what a worker start costs.
        self.seated_at = 0.0
        #: guards everything below, and wakes parked ``next_region`` handlers.
        self._state = threading.Condition(threading.Lock())
        self._regions = 0  # regions begun so far
        self._seats: "dict[int, tuple[socket.socket, int]]" = {}  # member -> (open connection, pid)
        # A handler that blocks on its worker's behalf enters the member
        # here, and whoever ends the wait — the thread that begins the next
        # region, the last party to reach the barrier — takes it out and
        # answers the worker itself: the reply does not wait for the handler
        # thread to be scheduled (up to a GIL switch interval, 5 ms, when the
        # master member is computing).  Taking the entry out is the right, and
        # the duty, to reply.
        self._parked: "set[int]" = set()  # members waiting in next_region
        self._syncing: "dict[int, int]" = {}  # members waiting in the barrier -> arrival index
        self._lost: "dict[int, int]" = {}  # member -> last known pid
        self._reported: "set[int]" = set()
        self._conns: "list[socket.socket]" = []
        self._closing = False
        self._segments: "dict[str, shm.SharedArray]" = {}
        #: member -> segment name -> flat copy of what that member's mirror
        #: holds, kept equal to it by the member's gathers, publishes and syncs.
        self._shadows: "dict[int, dict[str, np.ndarray]]" = {}
        self._segments_lock = threading.Lock()
        self._listener: "socket.socket | None" = None
        self.port: "int | None" = None

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Bind the loopback listener and start accepting worker connections."""
        self._listener = socket.create_server((LOOPBACK_HOST, 0))
        self.port = self._listener.getsockname()[1]
        threading.Thread(target=self._accept_loop, name="aomp-dataplane-accept", daemon=True).start()

    def begin_region(self, descriptor: "dict[str, Any]") -> None:
        """Arm the team for one region and hand ``descriptor`` to its parked workers.

        The same bulk resets the persistent pool runs before a region; workers
        still to be spawned get the descriptor in their hello response.
        """
        self.barrier.reset()
        for arena in (*self.slots, self.heartbeat):
            arena.reset()
        self.results = queue.Queue()
        with self._state:
            self._lost.clear()
            self._reported.clear()
            for member, (_conn, pid) in self._seats.items():
                self.heartbeat.register(member, pid=pid)
            self.descriptor = descriptor
            self._regions += 1
            self._answer_parked(descriptor)

    def _answer_parked(self, descriptor: "dict[str, Any] | None") -> None:
        """Reply to every ``next_region`` in waiting (``_state`` held, so no
        handler touches its connection meanwhile)."""
        parked, self._parked = self._parked, set()
        for member in parked:
            try:
                send_message(self._seats[member][0], (True, descriptor))
            except OSError:
                pass  # the worker is gone; its handler reads the EOF and reports the loss
        self._state.notify_all()

    def end_region(self) -> None:
        """Drop the master-side array attachments and shadows a region left."""
        with self._segments_lock:
            segments, self._segments = self._segments, {}
            self._shadows = {}
        for segment in segments.values():
            segment.close()

    @property
    def reusable(self) -> bool:
        """Whether the region just run left the team fit for another one:
        every worker reported and is still connected, none was lost, the
        barrier is unbroken."""
        workers = self.size - 1
        with self._state:
            return (
                not self._closing
                and not self._lost
                and not self.barrier.broken
                and len(self._reported) == workers
                and len(self._seats) == workers
            )

    def shutdown(self) -> None:
        """Stop serving, send the workers home and release master-side attachments.

        A worker whose result is in leaves by the front door: its
        ``next_region`` — pending, or still on its way behind the ``result``
        acknowledgement — is answered ``None`` and it hangs up itself.  Every
        other connection (a member still inside the region, a peer that never
        said hello) is cut.
        """
        with self._state:
            self._closing = True
            self._answer_parked(None)
            leaving = {self._seats[member][0] for member in self._reported if member in self._seats}
            conns = [conn for conn in self._conns if conn not in leaving]
            self._conns = []
        # shutdown() before close(): close alone neither wakes a thread
        # blocked in accept()/recv() on the socket nor tells the peer.
        for sock in ([self._listener] if self._listener is not None else []) + conns:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            sock.close()
        self.end_region()

    def lost_members(self) -> "list[tuple[int, int]]":
        """``(member, pid)`` pairs whose connection dropped before a result."""
        with self._state:
            return list(self._lost.items())

    # -- server loop ---------------------------------------------------------

    def _accept_loop(self) -> None:
        assert self._listener is not None
        while True:
            try:
                conn, _addr = self._listener.accept()
            except OSError:
                return
            with self._state:
                if self._closing:
                    conn.close()
                    return
                self._conns.append(conn)
            threading.Thread(target=self._serve, args=(conn,), name="aomp-dataplane-serve", daemon=True).start()

    def _serve(self, conn: socket.socket) -> None:
        member = None
        pid = 0
        try:
            # Authenticate BEFORE deserialising anything: the preamble is the
            # raw token bytes, fixed length, compared in constant time.  An
            # unauthenticated peer never reaches pickle.loads, so a crafted
            # pickle frame cannot execute code in the master.
            from hmac import compare_digest  # master-side only: hmac loads OpenSSL

            conn.settimeout(HANDSHAKE_TIMEOUT)
            preamble = _recv_exact(conn, len(self.token))
            if not compare_digest(preamble, self.token.encode("ascii")):
                send_message(conn, (False, _encode_error(PermissionError("data-plane token rejected"))))
                return  # member is still None: an impostor is never marked lost
            conn.settimeout(None)
            hello = recv_message(conn)
            if not (isinstance(hello, tuple) and len(hello) == 3 and hello[0] == "hello"):
                send_message(conn, (False, _encode_error(PermissionError("data-plane hello frame expected"))))
                return
            refusal = self._seat(conn, hello[1], hello[2])
            if refusal is not None:
                # Same treatment as a bad token: no heartbeat cell is touched
                # and ``member`` stays None, so the impostor is never "lost".
                send_message(conn, (False, _encode_error(PermissionError(refusal))))
                return
            _op, member, pid = hello
            self.heartbeat.register(member, pid=pid)
            with self._state:
                served, descriptor = self._regions, self.descriptor
            send_message(conn, (True, descriptor))
            reported = False  # whether this connection delivered the result of the region it was handed
            while True:
                request = recv_message(conn)
                op, args = request[0], request[1:]
                if op == "next_region":
                    if not reported:
                        # Asking again before answering would run the region
                        # in flight twice.  Refused before the heartbeat below.
                        refusal = f"data-plane next_region refused: member {member} has not delivered its result"
                        send_message(conn, (False, _encode_error(PermissionError(refusal))))
                        continue
                    served = self._next_region(member, served)
                    reported = False
                    continue
                self.heartbeat.beat(member)
                try:
                    reply = self._dispatch(member, op, args)
                except BaseException as exc:  # noqa: BLE001 - shipped to the worker
                    send_message(conn, (False, _encode_error(exc)))
                else:
                    if reply is not _ANSWERED:
                        send_message(conn, (True, reply))
                    reported = reported or op == "result"
        except (EOFError, ConnectionError, OSError):
            if member is not None:
                with self._state:
                    # _dispatch adds to _reported under this lock; a member
                    # whose result is already queued is not lost — only the
                    # reply (or goodbye) failed after the payload landed, and
                    # breaking the barrier would punish the survivors.
                    lost = member not in self._reported and not self._closing
                    if lost:
                        self._lost[member] = pid
                if lost:
                    # Break the barrier now: surviving members must not sit
                    # out the full barrier timeout waiting for a peer that is
                    # gone.
                    self.barrier.abort()
        finally:
            with self._state:
                if member is not None and self._seats.get(member, (None,))[0] is conn:
                    del self._seats[member]
                if conn in self._conns:
                    self._conns.remove(conn)
            try:
                conn.close()
            except OSError:
                pass

    def _seat(self, conn: socket.socket, member: Any, pid: Any) -> "str | None":
        """Seat ``member`` on ``conn``; the refusal message when it may not sit."""
        if not (type(member) is int and 0 < member < self.size and type(pid) is int):
            return (
                f"data-plane hello rejected: member {member!r} (pid {pid!r}) is not a worker "
                f"of this {self.size}-member team (workers are members 1..{self.size - 1})"
            )
        with self._state:
            if member in self._seats:
                # The token outlives a region, so it no longer proves the peer
                # is the worker this seat was spawned for.
                return (
                    f"data-plane hello rejected: member {member} is already seated "
                    f"(pid {self._seats[member][1]}); a seat is taken once"
                )
            self._seats[member] = (conn, pid)
            self.seated_at = time.perf_counter()
        return None

    def _next_region(self, member: int, served: int) -> int:
        """Answer ``next_region`` with the descriptor of the first region begun
        after number ``served`` (``None`` sends the worker home), parking
        until there is one; returns that region's number."""
        with self._state:
            if self._regions == served and not self._closing:
                self._parked.add(member)
                while member in self._parked:
                    self._state.wait()
                return self._regions  # whoever took the entry out has replied
            descriptor = None if self._closing else self.descriptor
            send_message(self._seats[member][0], (True, descriptor))
            return self._regions

    def _sync(self, member: int, timeout: "float | None", delta: Any, dirty: list) -> Any:
        """A worker's barrier: store its change sets, wait on its behalf.

        The reply — what its mirrors lack — is sent by the round's last
        arrival (:meth:`_answer_syncs`), so this returns :data:`_ANSWERED`
        unless the barrier broke before the round completed.
        """
        if delta:
            # Metrics delta piggybacked on the barrier frame: the handler
            # thread runs in the master process, so fold the worker's
            # counts straight into the master registry.
            obsreg.absorb(delta)
        shadows = self._shadows.get(member, {})
        for name, runs, values in dirty:
            _put_changes(runs, values, self._segments[name].np.reshape(-1), shadows[name])
        self.heartbeat.note_arrival(member)

        counted = False

        def arrived(index: int) -> None:
            nonlocal counted
            counted = True
            self._syncing[member] = index

        try:
            self.barrier.wait(arrived=arrived, **({} if timeout is None else {"timeout": timeout}))
        except BaseException:
            if counted and self._syncing.pop(member, None) is None:
                # The round completed and was answered; the break belongs to
                # the next one, where this worker's next request meets it.
                return _ANSWERED
            raise  # turned away at the door, or released by the break: still owed a reply
        return _ANSWERED

    def _answer_syncs(self) -> None:
        """Barrier action: answer every worker waiting in this round.

        Runs in the last party to arrive, with the whole team quiescent: every
        change set is in, nobody computes.  Each worker is sent the elements
        that differ from what its mirror holds — the other members' writes
        since its last sync — and its shadow is brought up to date with
        exactly what was sent.
        """
        for member in list(self._syncing):
            updates = []
            for name, shadow in self._shadows.get(member, {}).items():
                changes = _take_changes(self._segments[name].np.reshape(-1), shadow)
                if changes is not None:
                    updates.append((name, *changes))
            index = self._syncing.pop(member)
            try:
                send_message(self._seats[member][0], (True, (index, updates)))
            except OSError:
                pass  # the worker is gone; its handler reads the EOF and reports the loss

    def _dispatch(self, member: "int | None", op: str, args: tuple) -> Any:
        if op == "slot":
            kind, key, method, call_args = args
            slot_class = SLOT_KINDS.get(kind)
            # The allowlist comes first: a wire string never reaches getattr
            # (or the arena) unless its slot class declares it an op.
            if slot_class is None or method not in slot_class.OPS:
                raise ValueError(f"unknown data-plane op {kind!r}.{method!r}")
            if method in slot_class.CLAIMS and self.barrier.broken:
                # The worker's abort check rides the claim it is making anyway:
                # one RPC per claim, and a broken team hands out no more work.
                raise BrokenBarrierError(
                    f"{kind}.{method} refused: the coordinator barrier is broken [{SOCKET_TRANSPORT}]"
                )
            # Attaching per op is what lets a remote slot exist without a
            # round-trip: the first op of a loop ordinal initialises its slot.
            return getattr(slot_class(getattr(self, kind), *key), method)(*call_args)
        if op == "ping":
            return args[0] if args else None
        if op == "sync":
            return self._sync(member, *args)
        if op == "barrier_abort":
            self.barrier.abort()
            return None
        if op == "gather":
            name, shape, dtype_str = args
            shadow = self._segment(name, shape, dtype_str).np.reshape(-1).copy()
            with self._segments_lock:
                self._shadows.setdefault(member, {})[name] = shadow
            return shadow.tobytes()
        if op == "publish":
            name, shape, dtype_str, runs, values = args
            targets = [self._segment(name, shape, dtype_str).np.reshape(-1)]
            shadow = self._shadows.get(member, {}).get(name)
            if shadow is not None:
                targets.append(shadow)
            _put_changes(runs, values, *targets)
            return None
        if op == "result":
            member_id, result_bytes, exc_bytes = args[:3]
            if len(args) > 3 and args[3]:
                obsreg.absorb(args[3])
            with self._state:
                self._reported.add(member_id)
            self.results.put((member_id, (result_bytes, exc_bytes)))
            return None
        raise ValueError(f"unknown data-plane op {op!r}")

    def _segment(self, name: str, shape: tuple, dtype_str: str) -> shm.SharedArray:
        """Master-side view of a named segment (attach once, close at region end).

        The coordinator never owns these segments — the region body created
        them — so the attachment is close-only and can never unlink data out
        from under the master.
        """
        with self._segments_lock:
            segment = self._segments.get(name)
            if segment is None:
                segment = shm._attach_shared_array(name, shape, dtype_str)
                self._segments[name] = segment
            return segment


# ---------------------------------------------------------------------------
# Socket plane: worker-side session, array mirrors and proxies
# ---------------------------------------------------------------------------

#: generous slack on top of the *effective* barrier timeout: a worker whose
#: RPC reply never arrives (coordinator process died) must unblock itself
#: eventually, but only after every legitimate barrier wait could have
#: completed server-side.
_RPC_GRACE = 30.0


def _effective_rpc_timeout() -> "float | None":
    """Socket timeout for worker RPCs, tracking ``AOMP_BARRIER_TIMEOUT``.

    The longest legitimate RPC is a ``sync`` held open server-side for the
    coordinator barrier's bound, so the socket timeout must sit
    *above* that bound — pinning it to the 120 s default would make a
    healthy worker spuriously break the barrier whenever the user raises
    ``AOMP_BARRIER_TIMEOUT`` past it.  When the bound is disabled (``<= 0``:
    wait forever) there is no meaningful RPC deadline either; liveness then
    rests on the connection itself (a dead coordinator closes the socket,
    surfacing as ``EOFError``/``ConnectionError``).
    """
    bound = env("AOMP_BARRIER_TIMEOUT")
    return None if bound is None else bound + _RPC_GRACE

#: the active worker session of this process, if any.  Installed by
#: :class:`WorkerSession` so ``shm._attach_shared_array`` can route unpickled
#: SharedArray references to socket-backed mirrors.
_worker_session: "WorkerSession | None" = None


def current_worker_session() -> "WorkerSession | None":
    """The socket-plane session this process runs under, or ``None``."""
    return _worker_session


class WorkerSession:
    """A worker process's connection to the coordinator.

    One socket, one lock: requests are strictly serialised, so the ordered
    stream guarantees every ``publish`` lands before the ``result`` that
    follows it.  The session also owns the process's array mirrors and
    (when ``install_hook`` is set) registers itself as the shm attach hook so
    unpickling a :class:`~repro.runtime.shm.SharedArray` reference yields a
    :class:`RemoteArray` instead of a doomed ``/dev/shm`` attach.
    """

    def __init__(
        self,
        host: str,
        port: int,
        token: str,
        member: int,
        *,
        install_hook: bool = True,
        rpc_timeout: "float | None" = None,
    ) -> None:
        self.member = member
        self._sock = socket.create_connection((host, port), timeout=10.0)
        self._sock.settimeout(rpc_timeout if rpc_timeout is not None else _effective_rpc_timeout())
        self._lock = threading.Lock()
        self._arrays: "dict[str, RemoteArray]" = {}
        #: what this worker has been told about the coordinator barrier: set
        #: when an RPC comes back with (or times out into) a
        #: ``BrokenBarrierError``, read by :attr:`SocketBarrier.broken`.
        self.barrier_broken = False
        #: one-predicate metrics guard for the RPC hot path; ``_worker_main``
        #: sets it to the master's flag once the region descriptor is in.
        self.metrics = get_config().metrics
        try:
            with self._lock:
                # Raw token preamble first (authenticated before the server
                # unpickles anything), then the pickled hello frame.
                self._sock.sendall(token.encode("ascii"))
                send_message(self._sock, ("hello", member, os.getpid()))
                ok, payload = recv_message(self._sock)
        except BaseException:
            self._sock.close()
            raise
        if not ok:
            self._sock.close()
            raise payload
        self.descriptor = payload
        if install_hook:
            self.install()

    # -- hook management -----------------------------------------------------

    def install(self) -> None:
        global _worker_session
        _worker_session = self
        shm._attach_hook = self.attach_array

    def close(self) -> None:
        global _worker_session
        if _worker_session is self:
            _worker_session = None
            shm._attach_hook = None
        try:
            self._sock.close()
        except OSError:
            pass

    # -- RPC -----------------------------------------------------------------

    def _exchange(self, request: tuple) -> "tuple[tuple[bool, Any], int, int]":
        """One request, one reply: ``((ok, payload), bytes sent, bytes received)``."""
        with self._lock:
            sent = send_message(self._sock, request)
            reply, received = recv_message_counted(self._sock)
        return reply, sent, received

    def call(self, op: str, *args: Any) -> Any:
        metrics = self.metrics
        start = time.perf_counter() if metrics else 0.0
        try:
            (ok, payload), sent, received = self._exchange((op, *args))
        except (TimeoutError, socket.timeout) as exc:
            self.barrier_broken = True
            raise BrokenBarrierError(
                f"data-plane RPC {op!r} timed out ({SOCKET_TRANSPORT}); the coordinator may be gone"
            ) from exc
        if metrics:
            obsreg.inc(obsreg.RPC_CALLS)
            obsreg.inc(obsreg.RPC_BYTES_SENT, sent)
            obsreg.inc(obsreg.RPC_BYTES_RECEIVED, received)
            obsreg.observe("aomp_rpc_rtt_seconds", time.perf_counter() - start)
        if ok:
            return payload
        if isinstance(payload, BrokenBarrierError):
            self.barrier_broken = True
        raise payload

    def send_result(self, member: int, result: "bytes | None", exc: "bytes | str | None") -> None:
        """The member's reply: the last frame of its region.

        Carries the final metrics flush — counts accumulated since the last
        barrier piggyback, including the publish RPCs made just here.
        """
        self.flush_arrays()
        delta = obsreg.flush_delta() if self.metrics else None
        self.call("result", member, result, exc, delta)

    def next_region(self) -> "dict[str, Any] | None":
        """Forget the region just reported and wait for the team's next one.

        Blocks for as long as the coordinator keeps the team parked; ``None``
        (also when the coordinator is gone) means there is none and the worker
        should leave.  Not counted as an RPC: the wait is the master's idle
        time, not a round-trip cost.
        """
        self._arrays.clear()
        self.barrier_broken = False
        try:
            (ok, payload), _sent, _received = self._exchange(("next_region",))
        except (EOFError, OSError):
            return None
        if not ok:
            raise payload
        return payload

    # -- array mirrors -------------------------------------------------------

    def attach_array(self, name: str, shape: tuple, dtype_str: str) -> "RemoteArray":
        mirror = self._arrays.get(name)
        if mirror is None:
            mirror = RemoteArray(self, name, shape, dtype_str)
            self._arrays[name] = mirror
        return mirror

    def flush_arrays(self) -> None:
        """Publish every mirror's dirty elements to the coordinator."""
        for mirror in self._arrays.values():
            mirror.flush()


class RemoteArray:
    """Worker-side mirror of a master-process :class:`~repro.runtime.shm.SharedArray`.

    Duck-types the ``SharedArray`` surface kernels use (indexing, ``__array__``,
    attribute delegation to the ndarray).  Coherence is bulk-synchronous and
    pinned to the team barrier.  Beside the mirror sits ``_known``, a copy of
    what the coordinator knows the mirror holds (the coordinator keeps the
    same copy, its *shadow* of this mirror): :meth:`take_dirty` is exactly the
    elements *this* worker changed since, and :meth:`put` stores what the
    coordinator sends back into both, *in place* — ``self.np`` keeps its
    buffer identity, so a kernel that caches it across a barrier stays
    coherent just as it would with a shared mapping.  Because members write
    disjoint chunks between barriers, change sets from different workers
    never overlap, and a concurrently-racing master write can never be
    clobbered by a stale value — an element the worker did not touch is never
    republished.  Comparison is bit for bit, so a NaN is not forever dirty and
    a ``0.0`` overwritten with ``-0.0`` is.
    """

    def __init__(self, session: WorkerSession, name: str, shape: tuple, dtype_str: str) -> None:
        self._session = session
        self._name = name
        self._shape = tuple(shape)
        self._dtype = np.dtype(dtype_str)
        self.np: np.ndarray = np.zeros(self._shape, dtype=self._dtype)
        self._known = self.np.copy()
        self.refresh()

    @property
    def name(self) -> str:
        return self._name

    def refresh(self) -> None:
        """Gather the whole array (attach time; a barrier moves only changes)."""
        data = self._session.call("gather", self._name, self._shape, self._dtype.str)
        fresh = np.frombuffer(data, dtype=self._dtype).reshape(self._shape)
        # Copy into the existing buffer instead of rebinding self.np: a kernel
        # that caches ``arr.np`` across a barrier (valid under the shm plane,
        # whose mapping is stable) must keep seeing — and writing — the live
        # mirror, not an orphaned buffer whose writes never flush.
        np.copyto(self.np, fresh)
        np.copyto(self._known, fresh)

    def take_dirty(self) -> "tuple[bytes, bytes] | None":
        """``(runs, values)`` of the elements written since the coordinator
        last saw this mirror, now counted as seen; ``None`` when clean."""
        return _take_changes(self.np.reshape(-1), self._known.reshape(-1))

    def put(self, runs: bytes, values: bytes) -> None:
        """Store a change set the coordinator sent for this mirror."""
        _put_changes(runs, values, self.np.reshape(-1), self._known.reshape(-1))

    def flush(self) -> None:
        dirty = self.take_dirty()
        if dirty is not None:
            self._session.call("publish", self._name, self._shape, self._dtype.str, *dirty)

    # -- ndarray-ish surface (mirrors SharedArray) ---------------------------

    def __array__(self, dtype=None) -> np.ndarray:
        return self.np.astype(dtype) if dtype is not None else self.np

    def __getitem__(self, key):
        return self.np[key]

    def __setitem__(self, key, value) -> None:
        self.np[key] = value

    def __len__(self) -> int:
        return len(self.np)

    def __getattr__(self, name):
        return getattr(object.__getattribute__(self, "np"), name)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"RemoteArray(name={self._name!r}, shape={self._shape}, dtype={self._dtype})"

    def close(self) -> None:
        """Mirror of ``SharedArray.close`` — nothing to detach worker-side."""


class SocketBarrier:
    """Worker-side barrier proxy: the coherence point of the socket plane.

    ``wait`` is one ``sync`` RPC: it carries the change sets of this worker's
    mirrors, the coordinator stores them, blocks in its barrier (the handler
    thread waits on the worker's behalf) and answers with what the mirrors
    lack — so after every team barrier the worker sees exactly what a
    fork-inherited member would see in shared pages.
    """

    def __init__(self, session: WorkerSession, parties: int) -> None:
        self._session = session
        self._parties = parties

    @property
    def parties(self) -> int:
        return self._parties

    @property
    def broken(self) -> bool:
        """Whether the coordinator has told this worker the barrier is broken.

        No RPC: every op that hands out work or waits (each slot class's
        ``CLAIMS``, ``tune.read``, ``sync``) comes back with a
        ``BrokenBarrierError`` once the coordinator barrier is broken, so a
        polling worker learns of the break from the claim it was making
        anyway — one round-trip per claim.
        """
        return self._session.barrier_broken

    def wait(self, timeout: Optional[float] = None) -> int:
        session = self._session
        mirrors = session._arrays
        dirty = [(name, *changes) for name, mirror in mirrors.items() if (changes := mirror.take_dirty())]
        # Piggyback this worker's metric delta on the barrier frame it is
        # sending anyway — team-wide aggregation costs zero extra round trips.
        delta = obsreg.flush_delta() if session.metrics else None
        index, updates = session.call("sync", timeout, delta, dirty)
        for name, runs, values in updates:
            mirrors[name].put(runs, values)
        return int(index)

    def abort(self) -> None:
        self._session.call("barrier_abort")
        self._session.barrier_broken = True


class RemoteSlot:
    """Worker-side handle to a coordinator-hosted slot: nothing but its address.

    Constructing one costs no round-trip — the coordinator attaches the real
    slot on every op.  The subclasses in :data:`REMOTE_SLOTS` add one method
    per op the hosted slot class declares, each a single ``slot`` RPC.
    """

    __slots__ = ("_session", "_key")

    def __init__(self, session: WorkerSession, key: tuple) -> None:
        self._session = session
        self._key = key


def _remote_slot_class(kind: str, hosted: type) -> type:
    """The remote twin of slot class ``hosted``: one RPC method per declared op."""

    def remote_op(op: str):
        def call(self: RemoteSlot, *args: Any) -> Any:
            return self._session.call("slot", kind, self._key, op, args)

        call.__name__ = op
        return call

    namespace = {"__slots__": (), **{op: remote_op(op) for op in hosted.OPS}}
    return type(f"Remote{hosted.__name__}", (RemoteSlot,), namespace)


#: kind -> remote slot class: exactly the declared ops, bound once here (no
#: per-call ``__getattr__`` on the claim path).
REMOTE_SLOTS = {kind: _remote_slot_class(kind, hosted) for kind, hosted in SLOT_KINDS.items()}


class RemoteArena:
    """Worker-side stand-in for the coordinator's arena of slot ``kind``."""

    def __init__(self, session: WorkerSession, kind: str) -> None:
        self._session = session
        self._slot = REMOTE_SLOTS[kind]

    def slot(self, *key: int, level: int = 0) -> RemoteSlot:
        return self._slot(self._session, (*key, level))


def ProxySyncArena(session: WorkerSession) -> RemoteArena:
    """``RemoteArena(session, "arena")``, under the name ``bench/`` imports it by."""
    return RemoteArena(session, "arena")


class SessionHeartbeat:
    """Worker-side heartbeat stub: liveness is *observed* by the coordinator.

    Every RPC the worker makes refreshes its beat server-side and the barrier
    handler counts its arrivals, so there is nothing for the worker to write;
    the master's monitor reads the coordinator's real arena.  The read
    surface answers conservatively for the (diagnostic-only) worker-side
    error enrichment paths.
    """

    def register(self, member: int, pid: "int | None" = None) -> None:
        pass

    def beat(self, member: int) -> None:
        pass

    def note_arrival(self, member: int) -> None:
        pass

    def pid(self, member: int) -> int:
        return 0

    def age(self, member: int) -> "float | None":
        return None

    def arrivals(self, size: int) -> "list[int]":
        return [0] * size


def worker_process_sync(session: WorkerSession, size: int) -> shm.ProcessSync:
    """The proxy ``ProcessSync`` bundle a socket-plane worker member runs on."""
    return shm.ProcessSync(
        SocketBarrier(session, size),
        shm.SlotArenas(*(RemoteArena(session, kind) for kind in shm.SlotArenas._fields)),
        heartbeat=SessionHeartbeat(),
    )
