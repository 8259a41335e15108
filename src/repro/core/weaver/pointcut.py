"""Pointcuts.

A pointcut selects the set of join points (method executions) an aspect acts
on.  The paper uses AspectJ ``call(...)`` pointcuts and pointcuts defined over
Java interfaces; this module provides the two for Python targets:
:func:`call` and :func:`implements`.

A pointcut is a predicate over :class:`~repro.core.weaver.joinpoint.MethodDescriptor`
objects, i.e. it is evaluated at *weave time* against the static structure of
the target class/module (like AspectJ's compile/load-time weaving), not at
run time per call.
"""

from __future__ import annotations

import fnmatch
import inspect
from typing import Any, Callable, Generic, Protocol

from repro.core.weaver.joinpoint import MethodDescriptor
from repro.runtime.exceptions import PointcutError


class Pointcut:
    """Base pointcut: a weave-time predicate over method descriptors."""

    def matches(self, descriptor: MethodDescriptor) -> bool:
        """Whether the descriptor's method is selected by this pointcut."""
        raise NotImplementedError

    def describe(self) -> str:
        """Human-readable description used in diagnostics."""
        return type(self).__name__

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"<pointcut {self.describe()}>"


class CallPointcut(Pointcut):
    """Match by (optionally qualified, wildcarded) method name.

    Patterns:

    * ``"force"`` — any method named ``force`` regardless of owner;
    * ``"Particle.force"`` — method ``force`` of class ``Particle`` (or of
      a subclass that inherits it);
    * ``"Linpack.d*"`` — wildcards through :mod:`fnmatch` on either part;
    * a function object — matches that exact function (by identity or by
      ``__qualname__`` if the target stores a different but equally named
      function, e.g. after a previous weave).
    """

    def __init__(self, pattern: "str | Callable[..., Any]") -> None:
        if callable(pattern) and not isinstance(pattern, str):
            self._func = pattern
            self._owner_pattern = None
            self._name_pattern = getattr(pattern, "__name__", None)
            if self._name_pattern is None:
                raise PointcutError("callable pointcut target must have a __name__")
        else:
            self._func = None
            text = str(pattern).strip()
            if not text:
                raise PointcutError("empty pointcut pattern")
            if "." in text:
                owner, name = text.rsplit(".", 1)
                self._owner_pattern = owner or "*"
            else:
                owner, name = None, text
                self._owner_pattern = None
            if not name:
                raise PointcutError(f"pattern {pattern!r} has an empty method name")
            self._name_pattern = name

    def matches(self, descriptor: MethodDescriptor) -> bool:
        if self._func is not None:
            if descriptor.func is self._func:
                return True
            return (
                getattr(descriptor.func, "__qualname__", None) == getattr(self._func, "__qualname__", object())
                and descriptor.name == self._name_pattern
            )
        if not fnmatch.fnmatchcase(descriptor.name, self._name_pattern):
            return False
        if self._owner_pattern is None:
            return True
        return fnmatch.fnmatchcase(descriptor.owner_name, self._owner_pattern)

    def describe(self) -> str:
        if self._func is not None:
            return f"call({getattr(self._func, '__qualname__', self._func)!r})"
        owner = self._owner_pattern or "*"
        return f"call({owner}.{self._name_pattern})"


def call(pattern: "str | Callable[..., Any]") -> Pointcut:
    """Select method executions by name pattern or function object (AspectJ ``call``)."""
    return CallPointcut(pattern)


class SubtypePointcut(Pointcut):
    """Match methods owned by (subclasses of) a base class or 'interface'.

    This is the paper's key OO-compatibility claim: a pointcut bound to an
    interface acts on *all implementations* of that interface, and bindings
    are retained over the class hierarchy.  In Python the 'interface' is any
    base class, abstract base class, or :class:`typing.Protocol` (for
    protocols, structural matching is used: the owner must provide all the
    protocol's public methods).
    """

    def __init__(self, base: type, method: str | None = None) -> None:
        if not inspect.isclass(base):
            raise PointcutError(f"implements() needs a class, got {base!r}")
        self.base = base
        self.method = method
        #: a protocol's public methods, the ones it inherits from other
        #: protocols included; ``None`` for a nominal base class
        self._required = None
        if getattr(base, "_is_protocol", False):
            self._required = {
                attr
                for cls in base.__mro__
                if cls not in (Protocol, Generic, object)
                for attr, value in vars(cls).items()
                if callable(value) and not attr.startswith("_")
            }

    def _owner_conforms(self, owner: Any) -> bool:
        if not inspect.isclass(owner):
            return False
        if self._required is not None:
            return all(hasattr(owner, attr) for attr in self._required)
        try:
            return issubclass(owner, self.base)
        except TypeError:  # pragma: no cover - exotic metaclasses
            return False

    def matches(self, descriptor: MethodDescriptor) -> bool:
        if not self._owner_conforms(descriptor.owner):
            return False
        if self.method is None:
            return True
        return fnmatch.fnmatchcase(descriptor.name, self.method)

    def describe(self) -> str:
        suffix = f".{self.method}" if self.method else ""
        return f"implements({self.base.__name__}{suffix})"


def implements(interface: type, method: str | None = None) -> Pointcut:
    """Select methods of classes implementing ``interface`` (ABC or Protocol)."""
    return SubtypePointcut(interface, method)
