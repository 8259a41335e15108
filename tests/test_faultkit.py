"""The failure kit's own contract (:mod:`faultkit`).

Recovery tests trust the kit to misbehave exactly where it is told: on one
member, once when given a token, in that member's own process.  These tests
hold it to that — who misbehaves, what the wrapper inherits from its body so
it is dispatched like the body, and that it survives the pickling that ships
it to a worker.
"""

from __future__ import annotations

import os
import pickle
import signal
import threading
import time

import pytest

from faultkit import InjectedFault, dies, raises, raises_on_chunk, stalls
from repro.runtime import context as ctx
from repro.runtime import shm
from repro.runtime.exceptions import BrokenTeamError, WorkerProcessError
from repro.runtime.team import _infrastructure_failure, parallel_region

requires_fork = pytest.mark.skipif(not shm.fork_available(), reason="needs fork")

#: each member wrapper, built around ``body`` for ``member``
WRAPPERS = {
    "dies": lambda body, member, **kw: dies(body, member, **kw),
    "raises": lambda body, member, **kw: raises(body, member, **kw),
    "stalls": lambda body, member, **kw: stalls(body, member, seconds=0.05, **kw),
}

#: the wrappers that fail their member (``stalls`` only delays it)
FAILING = ("dies", "raises")


class Owner:
    """A picklable ``process_safe`` owner, as pool-dispatched bodies are."""

    process_safe = True
    retry_safe = True

    def run(self) -> str:
        return "ran"


class Unmarked:
    def run(self) -> str:
        return "ran"


def nothing() -> None:
    pass


def _exit_status_of_child(action) -> int:
    """Fork, run ``action`` in the child, and return its raw wait status."""
    pid = os.fork()
    if pid == 0:  # pragma: no cover - the child
        try:
            action()
        except InjectedFault:
            os._exit(1)
        except BaseException:
            os._exit(2)
        os._exit(0)
    return os.waitpid(pid, 0)[1]


@pytest.mark.parametrize("kind", WRAPPERS)
def test_only_the_selected_member_misbehaves(kind):
    ran: "list[int]" = []

    def body():
        ran.append(ctx.get_thread_id())

    wrapped = WRAPPERS[kind](body, 1)
    if kind in FAILING:
        with pytest.raises(BrokenTeamError) as excinfo:
            parallel_region(wrapped.run, num_threads=3, name=f"kit-{kind}")
        assert [member for member, _ in excinfo.value.failures] == [1]
        assert sorted(ran) == [0, 2], "the failure precedes member 1's body"
    else:
        parallel_region(wrapped.run, num_threads=3, name=f"kit-{kind}")
        assert sorted(ran) == [0, 1, 2]


@pytest.mark.parametrize("kind", WRAPPERS)
def test_flags_come_from_the_owner_of_a_bound_method(kind):
    marked, unmarked = WRAPPERS[kind](Owner().run, 1), WRAPPERS[kind](Unmarked().run, 1)
    assert (marked.process_safe, marked.retry_safe) == (True, True)
    assert (unmarked.process_safe, unmarked.retry_safe) == (False, False)


@pytest.mark.parametrize("kind", WRAPPERS)
def test_a_plain_function_carries_its_own_retry_safe_flag(kind):
    def body():
        pass

    assert not WRAPPERS[kind](body, 1).retry_safe
    body.retry_safe = True
    wrapped = WRAPPERS[kind](body, 1)
    assert wrapped.retry_safe and not wrapped.process_safe, "a closure is never pool-dispatched"


@pytest.mark.parametrize("kind", WRAPPERS)
def test_pickles_with_its_body(kind, tmp_path):
    wrapped = WRAPPERS[kind](Owner().run, 1, once=tmp_path / "token")
    copy = pickle.loads(pickle.dumps(wrapped))
    assert type(copy) is type(wrapped)
    assert (copy.member, copy.once, copy.master) == (1, tmp_path / "token", os.getpid())
    assert (copy.process_safe, copy.retry_safe) == (True, True)
    assert copy.run() == "ran", "outside a region this is member 0, which runs the body"


@pytest.mark.parametrize("kind", FAILING)
def test_once_misbehaves_on_the_first_attempt_only(kind, tmp_path):
    token = tmp_path / "fired"
    wrapped = WRAPPERS[kind](Owner().run, 0, once=token)
    with pytest.raises(InjectedFault):
        wrapped.run()  # this is the master's process: dies raises instead
    assert token.exists()
    assert wrapped.run() == "ran"
    assert wrapped.run() == "ran"


@requires_fork
def test_once_is_claimed_by_one_process_of_many(tmp_path):
    wrapped = raises(nothing, 0, once=tmp_path / "fired")
    statuses = [_exit_status_of_child(wrapped.run) for _ in range(3)]
    assert sorted(os.waitstatus_to_exitcode(status) for status in statuses) == [0, 0, 1]


@requires_fork
def test_dies_sigkills_a_member_outside_the_masters_process():
    status = _exit_status_of_child(dies(nothing, 0).run)
    assert os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGKILL


@requires_fork
def test_dies_with_once_kills_the_first_process_and_spares_a_retry(tmp_path):
    wrapped = dies(nothing, 0, once=tmp_path / "fired")
    first, retry = (_exit_status_of_child(wrapped.run) for _ in range(2))
    assert os.WIFSIGNALED(first) and os.WTERMSIG(first) == signal.SIGKILL
    assert os.WIFEXITED(retry) and os.WEXITSTATUS(retry) == 0


def test_stalls_holds_back_only_its_member():
    start, stamps = time.monotonic(), {}

    def body():
        stamps[ctx.get_thread_id()] = time.monotonic() - start

    parallel_region(stalls(body, 1, seconds=0.2).run, num_threads=2, name="kit-stall")
    assert stamps[1] >= 0.2
    assert stamps[0] < stamps[1], "member 0 did not wait for the stalled member"


@pytest.mark.parametrize("n", [0, 1, 3])
def test_raises_on_chunk_fails_the_nth_call(n):
    calls: "list[tuple]" = []
    failing = raises_on_chunk(lambda *args, **kwargs: calls.append((args, kwargs)), n)
    for i in range(n):
        failing(i, i + 1, 1, "extra", key=i)
    with pytest.raises(InjectedFault) as excinfo:
        failing(n, n + 1, 1)
    assert excinfo.value.site == "chunk" and excinfo.value.action == "raise"
    assert calls == [((i, i + 1, 1, "extra"), {"key": i}) for i in range(n)]


def test_raises_on_chunk_leaves_other_members_alone():
    calls: "list[int]" = []
    failing = raises_on_chunk(lambda start, end, step: calls.append(start), 0, member=1)
    for i in range(5):
        failing(i, i + 1, 1)  # outside a region: member 0
    assert calls == list(range(5)) and failing.calls == 0


def test_nested_wrappers_fail_each_selected_member():
    ran: "list[int]" = []
    lock = threading.Lock()

    def body():
        with lock:
            ran.append(ctx.get_thread_id())

    both = raises(raises(body, member=1).run, member=2)
    with pytest.raises(BrokenTeamError) as excinfo:
        parallel_region(both.run, num_threads=3, name="kit-nested")
    assert sorted(member for member, _ in excinfo.value.failures) == [1, 2]
    assert ran == [0]


def test_nesting_keeps_the_owners_flags():
    nested = dies(dies(Owner().run, member=1).run, member=2)
    assert (nested.process_safe, nested.retry_safe) == (True, True)
    assert nested.run() == "ran"


@pytest.mark.parametrize("action, site", [("kill", "member"), ("raise", "chunk"), ("raise", "barrier")])
def test_injected_fault_is_infrastructure_and_survives_pickling(action, site):
    fault = InjectedFault(f"{action} fault", action=action, site=site)
    copy = pickle.loads(pickle.dumps(fault))
    assert isinstance(copy, WorkerProcessError) and _infrastructure_failure(copy)
    assert (str(copy), copy.action, copy.site) == (str(fault), action, site)
