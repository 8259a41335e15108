"""Rehearsing failures: region bodies that die, raise or stall on one member.

The runtime has no fault injection of its own; a test makes a failure happen
the way a real one does — a member's body is killed, raises or hangs — and
checks that detection and recovery catch it.  Each wrapper stands in for a
body: pass its ``run`` to ``parallel_region``.  It copies ``process_safe`` and
``retry_safe`` from what it wraps, so a wrapped ``process_safe`` bound method
still goes to the pool or a ``distributed`` worker (the wrapper pickles along
with it), and anything else still runs forked per region or in threads::

    parallel_region(dies(body.run, member=1).run, num_threads=3, backend=pool)
    parallel_region(raises(body.run, member=1, once=tmp_path / "fired").run, on_failure="retry")

``once`` names a token file: the first member to get there creates it and
misbehaves, and every later attempt — a retried region included — finds it
and runs clean.  A failure meant for a later region is staged by running the
earlier regions with the plain body first.
"""

from __future__ import annotations

import os
import signal
import time

from repro.runtime.context import get_thread_id
from repro.runtime.exceptions import WorkerProcessError


class InjectedFault(WorkerProcessError):
    """A rehearsed failure.  As a :class:`WorkerProcessError` it is
    infrastructure to the recovery policy, like a real dead worker."""

    def __init__(self, message: str = "", action: str = "raise", site: str = "member") -> None:
        super().__init__(message)
        self.action, self.site = action, site


class _Fault:
    """Runs ``body``, but first misbehaves (:meth:`act`) as member ``member``."""

    def __init__(self, body, member: int, once=None) -> None:
        self.body, self.member, self.once, self.master = body, member, once, os.getpid()
        owner = getattr(body, "__self__", None)
        self.process_safe = getattr(owner, "process_safe", False)
        self.retry_safe = getattr(body, "retry_safe", getattr(owner, "retry_safe", False))

    def run(self):
        if get_thread_id() == self.member and self._first():
            self.act()
        return self.body()

    def _first(self) -> bool:
        if self.once is None:
            return True
        try:
            os.close(os.open(self.once, os.O_CREAT | os.O_EXCL))
        except FileExistsError:
            return False
        return True

    def _raise(self, action: str) -> None:
        raise InjectedFault(f"{action} fault in member {self.member}", action=action)


class dies(_Fault):
    """SIGKILL the member's process; a member that is the master's own
    process (a thread, the master) raises :class:`InjectedFault` instead."""

    def act(self) -> None:
        if os.getpid() == self.master:
            self._raise("kill")
        os.kill(os.getpid(), signal.SIGKILL)


class raises(_Fault):
    def act(self) -> None:
        self._raise("raise")


class stalls(_Fault):
    def __init__(self, body, member: int, seconds: float, once=None) -> None:
        super().__init__(body, member, once)
        self.seconds = seconds

    def act(self) -> None:
        time.sleep(self.seconds)


class raises_on_chunk:
    """A loop body that raises on member ``member``'s ``n``-th call (0-based)."""

    def __init__(self, body, n: int, member: int = 0) -> None:
        self.body, self.n, self.member, self.calls = body, n, member, 0

    def __call__(self, start: int, end: int, step: int, *args, **kwargs):
        if get_thread_id() == self.member:
            self.calls += 1
            if self.calls > self.n:
                raise InjectedFault(f"raise fault at chunk {self.n} of member {self.member}", site="chunk")
        return self.body(start, end, step, *args, **kwargs)
