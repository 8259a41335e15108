"""Tests for the PEP-734 subinterpreter backend and its sync primitives.

The backend's *plumbing* — the pipe-token lock, the polling barrier, the
shareable sync bundle, the length-prefixed result channel — is exercised
in-process with plain threads (file descriptors and shared-memory cells
behave identically there), so these tests run on every interpreter.  The
end-to-end worker-interpreter path additionally runs where
``subinterpreters_available()`` holds and skips cleanly elsewhere.
"""

from __future__ import annotations

import os
import pickle
import queue
import struct
import threading
import time
import warnings
from types import SimpleNamespace

import pytest

from repro.runtime import context as ctx
from repro.runtime.barrier import BrokenBarrierError
from repro.runtime import member as lifecycle
from repro.runtime import shm
from repro.runtime import subinterp
from repro.runtime.backend import SerialBackend, ThreadBackend
from repro.runtime.subinterp import (
    SubinterpreterBackend,
    _bootstrap_source,
    _ReplyPipes,
    subinterpreters_available,
)
from repro.runtime.team import parallel_region


class SharedFillKernel:
    """Minimal ``process_safe`` SPMD body: picklable, state in shared memory."""

    process_safe = True

    def __init__(self, array: shm.SharedArray) -> None:
        self.array = array

    def fill(self) -> None:
        tid = ctx.get_thread_id()
        self.array[tid] = tid + 1.0


class TestAvailability:
    def test_probe_is_cached_and_boolean(self):
        first = subinterpreters_available()
        assert isinstance(first, bool)
        # Cached: repeated calls agree (and don't re-pay the probe).
        assert subinterpreters_available() is first

    def test_true_parallel_mirrors_probe(self):
        backend = SubinterpreterBackend()
        assert backend.true_parallel == subinterpreters_available()

    def test_api_adapter_consistency(self):
        api = subinterp.interpreters_api()
        if subinterpreters_available():
            assert api is not None
        # Either way a second resolution returns the same cached answer.
        assert subinterp.interpreters_api() is api


class TestResolution:
    def test_size_one_always_resolves_to_self(self):
        backend = SubinterpreterBackend()
        resolved = backend.resolve_for_region(size=1, nesting_level=0, requires_shared_locals=True)
        assert resolved is backend

    @pytest.mark.skipif(subinterpreters_available(), reason="needs an interpreter without PEP-734 workers")
    def test_unavailable_platform_falls_back_with_warning(self):
        backend = SubinterpreterBackend()
        with pytest.warns(RuntimeWarning, match="SubinterpreterBackend.*interpreters module"):
            resolved = backend.resolve_for_region(size=4, nesting_level=0, requires_shared_locals=False)
        assert resolved is backend.fallback
        assert isinstance(resolved, ThreadBackend)

    def test_available_matrix(self, monkeypatch):
        monkeypatch.setattr(subinterp, "subinterpreters_available", lambda: True)
        backend = SubinterpreterBackend()
        # Plain top-level SPMD region: the backend takes it.
        assert backend.resolve_for_region(size=4, nesting_level=0, requires_shared_locals=False) is backend
        # Nested regions run as thread sub-teams (designed hierarchy, no warning).
        assert backend.resolve_for_region(size=4, nesting_level=1, requires_shared_locals=False) is backend.fallback
        # Shared-heap constructs fall back loudly.
        with pytest.warns(RuntimeWarning, match="SubinterpreterBackend.*shared Python heap"):
            resolved = backend.resolve_for_region(size=4, nesting_level=0, requires_shared_locals=True)
        assert resolved is backend.fallback

    def test_custom_fallback_is_honoured(self, monkeypatch):
        monkeypatch.setattr(subinterp, "subinterpreters_available", lambda: False)
        fallback = SerialBackend()
        backend = SubinterpreterBackend(fallback=fallback)
        with pytest.warns(RuntimeWarning):
            assert backend.resolve_for_region(size=4, nesting_level=0, requires_shared_locals=False) is fallback


class TestProbeFailureFallback:
    """A failed availability probe degrades gracefully — on *every* platform.

    These monkeypatch the cached probe result itself (not the wrapper
    function), so the real ``subinterpreters_available()`` logic runs against
    a build where the one-time probe came back ``False`` — the exact path a
    3.11 interpreter or a numpy-without-subinterpreter-support build takes.
    """

    @pytest.fixture(autouse=True)
    def _failed_probe(self, monkeypatch):
        monkeypatch.setattr(subinterp, "_probe_result", False)

    def test_true_parallel_is_false(self):
        backend = SubinterpreterBackend()
        assert subinterpreters_available() is False
        assert backend.true_parallel is False

    def test_first_resolution_warns_and_falls_back_to_threads(self):
        backend = SubinterpreterBackend()
        with pytest.warns(RuntimeWarning, match="SubinterpreterBackend.*interpreters module"):
            resolved = backend.resolve_for_region(size=4, nesting_level=0, requires_shared_locals=False)
        assert resolved is backend.fallback
        assert isinstance(resolved, ThreadBackend)

    def test_warning_fires_once_then_resolution_is_silent(self):
        backend = SubinterpreterBackend()
        with pytest.warns(RuntimeWarning):
            backend.resolve_for_region(size=4, nesting_level=0, requires_shared_locals=False)
        # Second resolution: same fallback, no second warning (warn-once key).
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            resolved = backend.resolve_for_region(size=4, nesting_level=0, requires_shared_locals=False)
        assert resolved is backend.fallback

    def test_region_still_produces_correct_results(self):
        seen = []
        lock = threading.Lock()

        def body():
            with lock:
                seen.append(ctx.get_thread_id())

        with pytest.warns(RuntimeWarning):
            parallel_region(body, num_threads=3, backend=SubinterpreterBackend(), name="probe.fallback")
        assert sorted(seen) == [0, 1, 2]

    def test_no_process_sync_without_workers(self):
        backend = SubinterpreterBackend()
        assert backend.create_process_sync(4, lambda: None) is None


class TestProcessSync:
    def test_non_process_safe_body_yields_no_sync(self, monkeypatch):
        monkeypatch.setattr(subinterp, "subinterpreters_available", lambda: True)
        backend = SubinterpreterBackend()
        with pytest.warns(RuntimeWarning, match="SubinterpreterBackend.*process_safe"):
            assert backend.create_process_sync(4, lambda: None) is None

    def test_unavailable_yields_no_sync_silently(self, monkeypatch):
        monkeypatch.setattr(subinterp, "subinterpreters_available", lambda: False)
        backend = SubinterpreterBackend()
        assert backend.create_process_sync(4, lambda: None) is None

    def test_shareable_bundle_round_trips_and_cleans_up(self, monkeypatch):
        monkeypatch.setattr(subinterp, "subinterpreters_available", lambda: True)
        backend = SubinterpreterBackend()
        array = shm.shared_zeros(3)
        try:
            kernel = SharedFillKernel(array)
            sync = backend.create_process_sync(3, kernel.fill)
            assert sync is not None
            arenas, shipped = sync.owned
            max_workers, metric_slots, shareable = shipped["sync"]
            assert (max_workers, metric_slots) == (3, 0)
            assert set(shareable) == set(arenas) == {"barrier", "arena", "steal", "tune", "heartbeat"}
            assert sync.barrier.parties == 3
            assert isinstance(sync.body_bytes, bytes)

            # A worker-side attach built purely from the shareable primitives
            # — as the worker gets them, through a ``repr`` literal — sees the
            # *same* state: aborting through the attached barrier breaks the
            # master's, and a claim through the attached arena moves its cursor.
            attached = subinterp._attach_sync(eval(repr(shipped)))
            assert attached.barrier.parties == 3
            assert attached.arena.slot(0).fetch_add(2) == 0
            assert sync.arena.slot(0).fetch_add() == 2
            attached.barrier.abort()
            assert sync.barrier.broken
            with pytest.raises(BrokenBarrierError, match="team barrier broke"):
                attached.tune.slot(0).read()

            segment_names = [name for name, _fds in shareable.values()]
            assert len(set(segment_names)) == 5
            backend.finish_region(SimpleNamespace(process_sync=sync))
            for name in segment_names:
                with pytest.raises(FileNotFoundError):
                    shm._attach_shared_array(name, (1,), "<i8")
        finally:
            array.close()


class TestRegionExecution:
    def test_region_runs_under_subinterp_name_everywhere(self):
        """``backend="subinterp"`` is a safe setting on every interpreter.

        A closure body is never ``process_safe``, so this exercises the thread
        fallback on builds with workers and the platform fallback without —
        identical observable semantics either way.
        """
        seen = []
        lock = threading.Lock()

        def body():
            with lock:
                seen.append(ctx.get_thread_id())

        parallel_region(body, num_threads=3, backend="subinterp")
        assert sorted(seen) == [0, 1, 2]

    def test_master_result_returned_via_fallback(self):
        assert parallel_region(lambda: "master", num_threads=2, backend="subinterp") == "master"

    @pytest.mark.skipif(not subinterpreters_available(), reason="subinterpreter workers unavailable on this build")
    def test_end_to_end_worker_interpreters(self):
        """A real multi-interpreter region produces the sequential answer."""
        from repro.jgf.common import values_match
        from repro.jgf.crypt import parallel as crypt

        reference = crypt.run_sequential("tiny")
        result = crypt.run_backend("tiny", num_threads=2, backend="subinterp")
        assert result.details["valid"]
        assert values_match(result.value, reference.value)


class TestPipeLock:
    def test_mutual_exclusion_under_contention(self):
        lock = shm.PipeLock()
        counter = [0]
        try:
            def hammer():
                for _ in range(200):
                    with lock:
                        counter[0] += 1

            threads = [threading.Thread(target=hammer) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert counter[0] == 800
        finally:
            lock.close()

    def test_attached_lock_shares_the_token(self):
        lock = shm.PipeLock()
        try:
            attached = shm.PipeLock(fds=lock.fds)
            lock.acquire()
            acquired = threading.Event()

            def contender():
                attached.acquire()
                acquired.set()
                attached.release()

            thread = threading.Thread(target=contender, daemon=True)
            thread.start()
            assert not acquired.wait(0.1)  # held through the other handle
            lock.release()
            assert acquired.wait(5)
            thread.join(timeout=5)
        finally:
            lock.close()

    def test_close_is_creator_only(self):
        lock = shm.PipeLock()
        attached = shm.PipeLock(fds=lock.fds)
        attached.close()  # non-owner: must not invalidate the shared fds
        with lock:
            pass
        lock.close()


class TestInterpBarrier:
    def test_releases_all_parties_with_distinct_indices(self):
        barrier = shm.InterpBarrier(3)
        indices = []
        lock = threading.Lock()

        def party():
            index = barrier.wait()
            with lock:
                indices.append(index)

        threads = [threading.Thread(target=party) for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert sorted(indices) == [0, 1, 2]

    def test_cyclic_reuse_across_rounds(self):
        barrier = shm.InterpBarrier(2)
        rounds = []

        def party():
            for round_number in range(3):
                barrier.wait()
                rounds.append(round_number)

        threads = [threading.Thread(target=party) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert sorted(rounds) == [0, 0, 1, 1, 2, 2]

    def test_abort_breaks_waiters(self):
        barrier = shm.InterpBarrier(2)
        failed = threading.Event()

        def waiter():
            try:
                barrier.wait()
            except BrokenBarrierError:
                failed.set()

        thread = threading.Thread(target=waiter, daemon=True)
        thread.start()
        time.sleep(0.05)
        barrier.abort()
        assert failed.wait(5)
        assert barrier.broken
        with pytest.raises(BrokenBarrierError):
            barrier.wait()

    def test_timeout_marks_broken(self):
        barrier = shm.InterpBarrier(2)
        with pytest.raises(BrokenBarrierError):
            barrier.wait(timeout=0.05)
        assert barrier.broken

    def test_reset_restores_and_changes_parties(self):
        barrier = shm.InterpBarrier(2)
        barrier.abort()
        barrier.reset(3)
        assert not barrier.broken
        assert barrier.parties == 3

    def test_attached_instance_shares_state(self):
        master = shm.InterpBarrier(2)
        try:
            attached = shm.InterpBarrier(cells=shm.attached_cells(master.shareable()))
            assert attached.parties == 2
            released = threading.Event()

            def party():
                attached.wait()
                released.set()

            thread = threading.Thread(target=party, daemon=True)
            thread.start()
            master.wait(timeout=10)
            assert released.wait(5)
            thread.join(timeout=5)
        finally:
            master.close()

    def test_a_barrier_needs_a_party(self):
        with pytest.raises(ValueError, match="at least 1 party"):
            shm.InterpBarrier(0)


class TestResultChannel:
    """The members' result pipes, read through the one timed ``get`` the
    shared join collects from."""

    def _framed(self, reply) -> bytes:
        data = pickle.dumps(reply)
        return struct.pack("<I", len(data)) + data

    def test_round_trip(self):
        read_fd, write_fd = os.pipe()
        try:
            os.write(write_fd, self._framed((1, (b"payload-bytes", None))))
            assert _ReplyPipes([read_fd]).get(5.0) == (1, (b"payload-bytes", None))
        finally:
            os.close(read_fd)
            os.close(write_fd)

    def test_eof_yields_no_reply_and_drops_the_pipe(self):
        read_fd, write_fd = os.pipe()
        os.close(write_fd)
        try:
            pipes = _ReplyPipes([read_fd])
            with pytest.raises(queue.Empty):
                pipes.get(5.0)
            # Dropped, not re-polled: the next read waits out its timeout
            # instead of spinning on a descriptor that is always "ready".
            start = time.monotonic()
            with pytest.raises(queue.Empty):
                pipes.get(0.05)
            assert time.monotonic() - start >= 0.04
        finally:
            os.close(read_fd)

    def test_timeout_raises_empty(self):
        read_fd, write_fd = os.pipe()
        try:
            with pytest.raises(queue.Empty):
                _ReplyPipes([read_fd]).get(0.05)
        finally:
            os.close(read_fd)
            os.close(write_fd)

    def test_split_writes_reassemble(self):
        read_fd, write_fd = os.pipe()
        reply = (1, (b"x" * 1000, None))
        framed = self._framed(reply)

        def trickle():
            for offset in range(0, len(framed), 100):
                os.write(write_fd, framed[offset : offset + 100])
                time.sleep(0.002)

        writer = threading.Thread(target=trickle, daemon=True)
        writer.start()
        try:
            pipes = _ReplyPipes([read_fd])
            deadline = time.monotonic() + 10
            received = None
            while received is None and time.monotonic() < deadline:
                try:
                    received = pipes.get(0.05)
                except queue.Empty:
                    pass
            assert received == reply
            writer.join(timeout=5)
        finally:
            os.close(read_fd)
            os.close(write_fd)

    def test_replies_from_several_members_arrive_in_any_order(self):
        pairs = [os.pipe() for _ in range(3)]
        try:
            pipes = _ReplyPipes([read_fd for read_fd, _ in pairs])
            for thread_id in (3, 1, 2):
                os.write(pairs[thread_id - 1][1], self._framed((thread_id, (None, None))))
            assert sorted(pipes.get(5.0)[0] for _ in range(3)) == [1, 2, 3]
        finally:
            for read_fd, write_fd in pairs:
                os.close(read_fd)
                os.close(write_fd)


class TestBootstrap:
    def test_source_compiles_and_embeds_descriptor(self):
        descriptor = {"thread_id": 2, "result_fd": 7, "name": "region"}
        source = _bootstrap_source(descriptor)
        compile(source, "<bootstrap>", "exec")  # must be valid standalone source
        assert "_member_main" in source
        assert repr(descriptor) in source

    def test_path_prelude_replays_sys_path(self):
        namespace: dict = {}
        exec(lifecycle.path_prelude(), namespace)  # noqa: S102 - test fixture
        import sys

        replayed = namespace["sys"].path
        for entry in sys.path:
            if entry:
                assert entry in replayed
