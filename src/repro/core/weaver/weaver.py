"""The weaver: composes aspect modules with a base program, reversibly.

AspectJ rewrites bytecode at compile or load time; the Python equivalent used
here rewrites the attributes of the target classes/modules at *weave time*:
each matched method is replaced by a wrapper that builds a
:class:`~repro.core.weaver.joinpoint.JoinPoint` and hands it to the aspect's
``around`` advice.  Weaving is fully reversible (:meth:`Weaver.unweave_all`),
which is how the library honours the paper's sequential-semantics claim:
unplugging the aspects gives back the original program.

Aspect precedence: aspects woven *later* wrap aspects woven earlier, i.e. the
last-woven aspect is the outermost advice.  The annotation weaver relies on
this to order combined constructs correctly (barriers outside master/single,
the parallel region outermost).
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator

from repro.core.weaver.joinpoint import JoinPoint, MethodDescriptor
from repro.runtime.exceptions import WeavingError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (aspects import joinpoints)
    from repro.core.aspects.base import Aspect, ClassAspect, CompositeAspect, MethodAspect

_WOVEN_MARKER = "__aomp_woven__"
_ORIGINAL_MARKER = "__aomp_original__"


@dataclass
class WeaveRecord:
    """Bookkeeping for one woven method (or one applied class transform)."""

    aspect: Aspect
    owner: Any
    name: str
    previous: Any = None
    wrapper: Any = None
    undo: Callable[[], None] | None = None
    is_transform: bool = False

    def describe(self) -> str:
        owner_name = getattr(self.owner, "__name__", str(self.owner))
        kind = "transform" if self.is_transform else "advice"
        return f"{kind}:{self.aspect.name}@{owner_name}.{self.name}"


def _iter_descriptors(target: Any) -> Iterator[MethodDescriptor]:
    """Yield the weavable methods of a class, module or instance."""
    if inspect.isclass(target):
        for attr_name, value in list(vars(target).items()):
            func = _unwrap_callable(value)
            if func is not None:
                yield MethodDescriptor(owner=target, name=attr_name, func=_original_of(func))
    elif inspect.ismodule(target):
        for attr_name, value in list(vars(target).items()):
            if inspect.isclass(value) and value.__module__ == target.__name__:
                yield from _iter_descriptors(value)
            else:
                func = _unwrap_callable(value)
                if func is not None and getattr(func, "__module__", None) == target.__name__:
                    yield MethodDescriptor(owner=target, name=attr_name, func=_original_of(func))
    else:
        # Per-instance weaving: expose the instance's class methods, but the
        # wrapper will be installed on the instance itself.
        for attr_name, value in list(vars(type(target)).items()):
            func = _unwrap_callable(value)
            if func is not None:
                yield MethodDescriptor(owner=type(target), name=attr_name, func=_original_of(func))


def _unwrap_callable(value: Any) -> Callable[..., Any] | None:
    """Return the plain function behind ``value`` if it is weavable."""
    if isinstance(value, staticmethod):
        return value.__func__
    if inspect.isfunction(value):
        return value
    return None


def _original_of(func: Callable[..., Any]) -> Callable[..., Any]:
    """Follow wrapper markers back to the original, unwoven function."""
    seen = set()
    while hasattr(func, _ORIGINAL_MARKER) and id(func) not in seen:
        seen.add(id(func))
        func = getattr(func, _ORIGINAL_MARKER)
    return func


def _flatten_aspects(aspects: Iterable["Aspect"]) -> list["Aspect"]:
    """Expand composite aspects so capability flags can be aggregated."""
    from repro.core.aspects.base import CompositeAspect

    flat: list["Aspect"] = []
    for aspect in aspects:
        if isinstance(aspect, CompositeAspect):
            flat.extend(_flatten_aspects(aspect.inner_aspects()))
        else:
            flat.append(aspect)
    return flat


def _iter_classes(target: Any) -> Iterator[type]:
    """Yield the classes reachable from a weaving target."""
    if inspect.isclass(target):
        yield target
    elif inspect.ismodule(target):
        for value in vars(target).values():
            if inspect.isclass(value) and value.__module__ == target.__name__:
                yield value
    else:
        yield type(target)


class Weaver:
    """Weaves aspects into classes/modules/instances and undoes it on request."""

    def __init__(self) -> None:
        self._records: list[WeaveRecord] = []

    # -- weaving -------------------------------------------------------------

    def weave(self, aspect: Aspect, *targets: Any) -> list[WeaveRecord]:
        """Weave ``aspect`` into every matching join point of ``targets``.

        Returns the weave records created; raises
        :class:`~repro.runtime.exceptions.WeavingError` if the aspect matched
        nothing (a silent no-op weave almost always indicates a wrong
        pointcut, the same reason AspectJ warns about unmatched pointcuts).
        """
        from repro.core.aspects.base import ClassAspect, CompositeAspect, MethodAspect

        if not targets:
            raise WeavingError(f"aspect {aspect.name!r}: no weaving target given")
        records: list[WeaveRecord] = []
        if isinstance(aspect, CompositeAspect):
            for inner in aspect.inner_aspects():
                records.extend(self.weave(inner, *targets))
            return records
        for target in targets:
            if isinstance(aspect, ClassAspect):
                records.extend(self._apply_class_aspect(aspect, target))
            elif isinstance(aspect, MethodAspect):
                records.extend(self._apply_method_aspect(aspect, target))
            else:
                raise WeavingError(f"aspect {aspect.name!r} is neither a method nor a class aspect")
        if not records:
            raise WeavingError(
                f"aspect {aspect.name!r} ({aspect.describe()}) matched no join point in "
                f"{[getattr(t, '__name__', t) for t in targets]}"
            )
        self._records.extend(records)
        return records

    def weave_all(self, aspects: Iterable[Aspect], *targets: Any) -> list[WeaveRecord]:
        """Weave several aspects in order (later aspects become outer advice).

        The aspect set is also inspected for backend capability requirements:
        if any aspect needs a shared Python heap
        (:attr:`~repro.core.aspects.base.Aspect.requires_shared_locals`),
        every parallel-region aspect in the set is told so, which makes
        process backends fall back to threads for those regions instead of
        running constructs they cannot honour.
        """
        aspects = list(aspects)
        flattened = _flatten_aspects(aspects)
        needs_shared_locals = any(getattr(a, "requires_shared_locals", False) for a in flattened)
        from repro.core.aspects.parallel_region import ParallelRegion

        for aspect in flattened:
            if isinstance(aspect, ParallelRegion):
                # Unconditional assignment: an aspect instance re-woven with a
                # different (now process-safe) set must shed a stale flag.
                aspect.region_requires_shared_locals = needs_shared_locals
        records: list[WeaveRecord] = []
        for aspect in aspects:
            records.extend(self.weave(aspect, *targets))
        return records

    def _apply_method_aspect(self, aspect: MethodAspect, target: Any) -> list[WeaveRecord]:
        pointcut = aspect.pointcut()
        records: list[WeaveRecord] = []
        is_instance = not (inspect.isclass(target) or inspect.ismodule(target))
        for descriptor in _iter_descriptors(target):
            if not pointcut.matches(descriptor):
                continue
            records.append(self._wrap(aspect, target, descriptor, per_instance=is_instance))
        return records

    def _apply_class_aspect(self, aspect: ClassAspect, target: Any) -> list[WeaveRecord]:
        records: list[WeaveRecord] = []
        for cls in _iter_classes(target):
            if not aspect.matches_class(cls):
                continue
            undo = aspect.apply(cls)
            records.append(
                WeaveRecord(aspect=aspect, owner=cls, name=aspect.name, undo=undo, is_transform=True)
            )
        return records

    def _wrap(self, aspect: MethodAspect, target: Any, descriptor: MethodDescriptor, *, per_instance: bool) -> WeaveRecord:
        if per_instance:
            # Per-object weaving: install a bound wrapper as an instance
            # attribute, shadowing (and delegating to) the class-level method.
            class_func = getattr(type(target), descriptor.name)
            bound_wrapper = _make_instance_wrapper(aspect, descriptor, class_func, target)
            record = WeaveRecord(aspect=aspect, owner=target, name=descriptor.name, previous=None, wrapper=bound_wrapper)
            setattr(target, descriptor.name, bound_wrapper)
            return record

        owner = descriptor.owner
        if inspect.isclass(owner):
            previous_raw = vars(owner)[descriptor.name]
        else:
            previous_raw = getattr(owner, descriptor.name)
        was_static = isinstance(previous_raw, staticmethod)
        previous = previous_raw.__func__ if was_static else previous_raw
        is_method = inspect.isclass(owner) and not was_static

        wrapper = _make_wrapper(aspect, descriptor, previous, is_method=is_method)
        installed: Any = staticmethod(wrapper) if was_static else wrapper
        record = WeaveRecord(aspect=aspect, owner=owner, name=descriptor.name, previous=previous_raw, wrapper=installed)
        setattr(owner, descriptor.name, installed)
        return record

    # -- unweaving -----------------------------------------------------------

    def unweave_all(self) -> int:
        """Undo every weave performed through this weaver, newest first.

        Returns the number of records undone.
        """
        count = 0
        while self._records:
            record = self._records.pop()
            self._undo(record)
            count += 1
        return count

    def unweave(self, aspect: Aspect) -> int:
        """Undo the weaves of one aspect.

        The aspect's records must still be the outermost layer on each of its
        join points (i.e. nothing was woven on top of them afterwards),
        otherwise a :class:`WeavingError` is raised to avoid corrupting the
        advice chain.
        """
        mine = [r for r in self._records if r.aspect is aspect]
        if not mine:
            raise WeavingError(f"aspect {aspect.name!r} is not currently woven")
        for record in mine:
            if not record.is_transform:
                current = vars(record.owner).get(record.name) if inspect.isclass(record.owner) else getattr(record.owner, record.name)
                if current is not record.wrapper:
                    raise WeavingError(
                        f"cannot unweave {record.describe()}: another aspect was woven on top of it"
                    )
        for record in reversed(mine):
            self._undo(record)
            self._records.remove(record)
        return len(mine)

    def _undo(self, record: WeaveRecord) -> None:
        if record.is_transform:
            if record.undo is not None:
                record.undo()
            return
        owner = record.owner
        if inspect.isclass(owner) or inspect.ismodule(owner):
            current = vars(owner).get(record.name) if inspect.isclass(owner) else getattr(owner, record.name)
            if current is record.wrapper:
                if record.previous is None:
                    delattr(owner, record.name)
                else:
                    setattr(owner, record.name, record.previous)
            # If something else was woven on top, unweave_all will restore it
            # first (LIFO), so reaching here with a different current value
            # means an out-of-band modification; restore the original anyway.
            elif record.previous is not None:
                setattr(owner, record.name, record.previous)
        else:
            # Instance weaving: removing the instance attribute re-exposes the
            # class attribute.
            try:
                delattr(owner, record.name)
            except AttributeError:  # pragma: no cover - already removed
                pass

    # -- introspection -------------------------------------------------------

    @property
    def records(self) -> list[WeaveRecord]:
        """Snapshot of the currently active weave records."""
        return list(self._records)

    def woven_aspects(self) -> list[Aspect]:
        """Distinct aspects currently woven, in weave order."""
        seen: list[Aspect] = []
        for record in self._records:
            if record.aspect not in seen:
                seen.append(record.aspect)
        return seen

    def __enter__(self) -> "Weaver":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.unweave_all()


def _make_wrapper(aspect: MethodAspect, descriptor: MethodDescriptor, previous: Callable[..., Any], *, is_method: bool) -> Callable[..., Any]:
    """Build the wrapper installed in place of the current attribute.

    One wrapper call per woven method execution is the weaving hot path, so
    the method/function split is resolved here (at weave time), the advice
    entry point is pre-bound, and the argument tuple/kwargs dict produced by
    the call machinery is handed to the join point without copying.
    """
    around = aspect.around

    if is_method:

        @functools.wraps(descriptor.func)
        def wrapper(*call_args: Any, **call_kwargs: Any) -> Any:
            if not call_args:
                raise TypeError(f"{descriptor.qualified_name}() missing 'self'")
            return around(JoinPoint(descriptor, call_args[0], call_args[1:], call_kwargs, previous))

    else:

        @functools.wraps(descriptor.func)
        def wrapper(*call_args: Any, **call_kwargs: Any) -> Any:
            return around(JoinPoint(descriptor, None, call_args, call_kwargs, previous))

    setattr(wrapper, _WOVEN_MARKER, aspect)
    setattr(wrapper, _ORIGINAL_MARKER, descriptor.func)
    return wrapper


def _make_instance_wrapper(aspect: MethodAspect, descriptor: MethodDescriptor, class_func: Callable[..., Any], instance: Any) -> Callable[..., Any]:
    """Build a bound wrapper installed as an instance attribute (per-object weaving)."""
    around = aspect.around

    @functools.wraps(descriptor.func)
    def wrapper(*call_args: Any, **call_kwargs: Any) -> Any:
        return around(JoinPoint(descriptor, instance, call_args, call_kwargs, class_func))

    setattr(wrapper, _WOVEN_MARKER, aspect)
    setattr(wrapper, _ORIGINAL_MARKER, descriptor.func)
    return wrapper


def original_function(func: Callable[..., Any]) -> Callable[..., Any]:
    """Return the original function behind a (possibly repeatedly) woven wrapper."""
    return _original_of(func)
