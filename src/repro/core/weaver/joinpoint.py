"""Join points: the points in a base program's execution that advice can act on.

In AOmpLib "each mechanism acts upon a set of method calls in the base
program (i.e., a joinpoint in AOP terminology)" — the join point model is
*method execution*.  A :class:`JoinPoint` carries everything an ``around``
advice needs: the intercepted callable, its target object (for bound
methods), the actual arguments, and a ``proceed`` operation that invokes the
next advice in the chain (or, at the innermost level, the original method).

One join point is allocated per woven call, so the class is built for cheap
construction: ``__slots__`` storage, a hand-written ``__init__`` (no
dataclass machinery) and a lazily materialised ``extras`` dict.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping


_UNSET = object()


@dataclass
class MethodDescriptor:
    """Static description of a weavable method: where it lives and what it is.

    Attributes
    ----------
    owner:
        The class or module object the method/function is defined on.
    name:
        Attribute name under which the callable is reachable on ``owner``.
    func:
        The *original* (unwrapped) function object.
    """

    owner: Any
    name: str
    func: Callable[..., Any]

    @property
    def owner_name(self) -> str:
        """Name of the owning class/module (used by pointcut patterns)."""
        return getattr(self.owner, "__name__", str(self.owner))

    @property
    def qualified_name(self) -> str:
        """``Owner.method`` string used in pattern matching and diagnostics."""
        return f"{self.owner_name}.{self.name}"

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"MethodDescriptor({self.qualified_name})"


class JoinPoint:
    """A single intercepted method execution.

    ``args``/``kwargs`` exclude the implicit ``self`` of bound methods;
    ``target`` carries it instead (``None`` for module-level functions and
    static methods).
    """

    __slots__ = ("descriptor", "target", "args", "kwargs", "_proceed", "_extras")

    def __init__(
        self,
        descriptor: MethodDescriptor,
        target: Any = None,
        args: tuple = (),
        kwargs: Mapping[str, Any] | None = None,
        _proceed: Callable[..., Any] | None = None,
        extras: dict | None = None,
    ) -> None:
        self.descriptor = descriptor
        self.target = target
        self.args = args
        self.kwargs = kwargs if kwargs is not None else {}
        self._proceed = _proceed
        self._extras = extras

    @property
    def extras(self) -> dict:
        """Scratch area advice can use to pass information along the chain.

        Materialised on first access — most join points never carry extras.
        """
        extras = self._extras
        if extras is None:
            extras = self._extras = {}
        return extras

    @property
    def name(self) -> str:
        """Name of the intercepted method."""
        return self.descriptor.name

    @property
    def qualified_name(self) -> str:
        """``Owner.method`` of the intercepted method."""
        return self.descriptor.qualified_name

    def proceed(self, *args: Any, _kwargs: Mapping[str, Any] | None = None, **kw_overrides: Any) -> Any:
        """Invoke the rest of the advice chain / the original method.

        Called with no arguments it forwards the original arguments (the
        common case, as in AspectJ's ``proceed()``).  Positional arguments
        replace the original positional arguments wholesale; keyword
        arguments update the original keywords.
        """
        call_args = args if args else self.args
        if _kwargs is not None:
            call_kwargs = dict(_kwargs)
            if kw_overrides:
                call_kwargs.update(kw_overrides)
        elif kw_overrides:
            call_kwargs = dict(self.kwargs)
            call_kwargs.update(kw_overrides)
        else:
            # The ``**`` unpacking at the call site copies; no defensive copy
            # is needed for the no-override fast path.
            call_kwargs = self.kwargs
        if self.target is not None:
            return self._proceed(self.target, *call_args, **call_kwargs)
        return self._proceed(*call_args, **call_kwargs)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"JoinPoint({self.qualified_name}, args={self.args!r}, kwargs={self.kwargs!r})"
