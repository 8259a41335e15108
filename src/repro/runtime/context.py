"""Per-thread execution context.

The paper's execution model (Section III.A) says the execution starts with a
single *master* activity; entering a parallel region creates a team of
threads; inside the region every construct (for work-sharing, barrier,
critical, master, single, thread-local fields...) refers to *the team of the
enclosing region*.  This module maintains that association: every OS thread
carries a stack of :class:`ExecutionContext` frames, one per nested parallel
region it is currently executing.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers only
    from repro.runtime.team import Team


@dataclass(slots=True)
class ExecutionContext:
    """One frame of parallel-region context for a single thread.

    Attributes
    ----------
    team:
        The :class:`~repro.runtime.team.Team` executing the region.
    thread_id:
        This thread's id inside the team (0 is the master).
    nesting_level:
        0 for the outermost region, incremented for nested regions.
    parent:
        The enclosing context, if any (for nested regions).
    """

    team: "Team"
    thread_id: int
    nesting_level: int = 0
    parent: Optional["ExecutionContext"] = None
    # Per-context scratch area used by constructs that need per-thread,
    # per-region state (e.g. the dynamic scheduler's loop descriptors).
    scratch: dict = field(default_factory=dict)

    @property
    def num_threads(self) -> int:
        """Number of threads in the team executing this region."""
        return self.team.size

    @property
    def is_master(self) -> bool:
        """Whether this thread is the master (id 0) of its team."""
        return self.thread_id == 0

    def member_path(self) -> tuple[int, ...]:
        """Per-level member ids from the outermost region down to this one.

        ``path[k]`` is the id this execution holds inside the level-``k``
        team (for enclosing levels: the id of the member that spawned the
        chain leading here).  The path identifies a member of a team-of-teams
        uniquely, which is what hierarchical work distribution keys on.
        """
        ids: list[int] = []
        frame: ExecutionContext | None = self
        while frame is not None:
            ids.append(frame.thread_id)
            frame = frame.parent
        ids.reverse()
        return tuple(ids)

    def ancestor(self, level: int) -> "ExecutionContext | None":
        """The enclosing context at nesting ``level`` (``None`` if not enclosing)."""
        frame: ExecutionContext | None = self
        while frame is not None and frame.nesting_level > level:
            frame = frame.parent
        if frame is not None and frame.nesting_level == level:
            return frame
        return None

    def active_levels(self) -> int:
        """Number of *active* teams (size > 1) from this context outwards."""
        count = 0
        frame: ExecutionContext | None = self
        while frame is not None:
            if frame.team.size > 1:
                count += 1
            frame = frame.parent
        return count


class _ContextStack(threading.local):
    def __init__(self) -> None:  # noqa: D401 - threading.local initialiser
        self.stack: list[ExecutionContext] = []


_contexts = _ContextStack()


def push_context(context: ExecutionContext) -> None:
    """Push ``context`` on the calling thread's context stack."""
    _contexts.stack.append(context)


def pop_context() -> ExecutionContext:
    """Pop and return the calling thread's innermost context."""
    return _contexts.stack.pop()


def current_context() -> ExecutionContext | None:
    """Return the innermost context of the calling thread, or ``None``."""
    stack = _contexts.stack
    return stack[-1] if stack else None


def current_team() -> "Team | None":
    """Return the team of the innermost region, or ``None`` outside regions."""
    context = current_context()
    return context.team if context is not None else None


def get_thread_id() -> int:
    """Return the calling thread's id within its team (0 outside regions).

    Mirrors the paper's ``getThreadId()`` used by case-specific aspects.
    """
    context = current_context()
    return context.thread_id if context is not None else 0


def get_num_team_threads() -> int:
    """Return the size of the calling thread's team (1 outside regions)."""
    context = current_context()
    return context.num_threads if context is not None else 1


def get_level() -> int:
    """Nesting level of the calling thread's innermost region (0 outside).

    Mirrors OpenMP's ``omp_get_level`` — note that, as there, serialised
    nested regions (teams of one) still count as a level.
    """
    context = current_context()
    return context.nesting_level + 1 if context is not None else 0


def get_ancestor_thread_id(level: int) -> int:
    """This execution's member id within the team at nesting ``level``.

    Mirrors OpenMP's ``omp_get_ancestor_thread_num`` numbering exactly:
    ``level`` 0 is the initial (serial) level, whose answer is always 0;
    ``level`` 1 is the outermost parallel region; and
    ``get_ancestor_thread_id(get_level())`` is the caller's own
    :func:`get_thread_id`.  Levels the caller is not nested inside (or any
    positive level outside a region) return -1.
    """
    if level == 0:
        return 0
    context = current_context()
    if context is None or level < 0:
        return -1
    ancestor = context.ancestor(level - 1)
    return ancestor.thread_id if ancestor is not None else -1


def get_member_path() -> tuple[int, ...]:
    """Per-level member ids of the calling execution (empty outside regions)."""
    context = current_context()
    return context.member_path() if context is not None else ()


def in_parallel() -> bool:
    """Whether the calling thread is currently inside a parallel region."""
    return current_context() is not None


def is_master() -> bool:
    """Whether the calling thread is the master of its team (True outside regions)."""
    context = current_context()
    return True if context is None else context.is_master
