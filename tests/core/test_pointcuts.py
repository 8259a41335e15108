"""Tests for the two pointcuts: ``call`` and ``implements``."""

from __future__ import annotations

import abc
import functools

import pytest

from repro.core.weaver.joinpoint import MethodDescriptor
from repro.core.weaver.pointcut import call, implements
from repro.runtime.exceptions import PointcutError


class Particle:
    def force(self, x):
        return x

    def domove(self):
        pass


class ChargedParticle(Particle):
    def force(self, x):
        return 2 * x


class Simulation:
    def force(self, x):
        return -x

    def run_iters(self, start, end, step):
        pass


def descriptor(cls, method_name):
    return MethodDescriptor(owner=cls, name=method_name, func=vars(cls)[method_name])


class TestCallPointcut:
    def test_plain_name(self):
        pc = call("force")
        assert pc.matches(descriptor(Particle, "force"))
        assert pc.matches(descriptor(Simulation, "force"))
        assert not pc.matches(descriptor(Particle, "domove"))
        assert call("domove").matches(descriptor(Particle, "domove"))
        assert call("run_iters").matches(descriptor(Simulation, "run_iters"))
        assert not call("domove").matches(descriptor(Particle, "force"))
        assert not call("run_iters").matches(descriptor(Particle, "force"))

    def test_qualified_name(self):
        pc = call("Particle.force")
        assert pc.matches(descriptor(Particle, "force"))
        assert not pc.matches(descriptor(Simulation, "force"))

    def test_wildcards(self):
        assert call("Particle.*").matches(descriptor(Particle, "domove"))
        assert call("*.force").matches(descriptor(Simulation, "force"))
        assert call("do*").matches(descriptor(Particle, "domove"))
        assert not call("Sim*.domove").matches(descriptor(Particle, "domove"))

    def test_function_object(self):
        pc = call(Particle.force)
        assert pc.matches(descriptor(Particle, "force"))
        assert not pc.matches(descriptor(ChargedParticle, "force"))
        assert not pc.matches(descriptor(Simulation, "force"))

    def test_empty_pattern_rejected(self):
        with pytest.raises(PointcutError):
            call("")
        with pytest.raises(PointcutError):
            call("Particle.")

    def test_callable_without_a_name_rejected(self):
        with pytest.raises(PointcutError, match="__name__"):
            call(functools.partial(Particle.force, None))

    def test_function_object_matches_an_equally_named_replacement(self):
        """After a weave the owner holds a different function object with the
        original's ``__qualname__``: ``call(func)`` still selects it."""
        original = vars(Particle)["force"]

        @functools.wraps(original)
        def rewoven(self, x):
            return original(self, x)

        pc = call(original)
        assert pc.matches(MethodDescriptor(owner=Particle, name="force", func=rewoven))
        assert not pc.matches(MethodDescriptor(owner=Particle, name="domove", func=rewoven))


class TestSubtypeAndInterface:
    def test_subtype_matching(self):
        pc = implements(Particle)
        assert pc.matches(descriptor(Particle, "force"))
        assert pc.matches(descriptor(ChargedParticle, "force"))
        assert not pc.matches(descriptor(Simulation, "force"))

    def test_subtype_with_method_filter(self):
        pc = implements(Particle, "force")
        assert pc.matches(descriptor(ChargedParticle, "force"))
        assert not pc.matches(descriptor(Particle, "domove"))

    def test_protocol_structural_matching(self):
        from typing import Protocol

        class HasForce(Protocol):
            def force(self, x): ...

        pc = implements(HasForce, "force")
        assert pc.matches(descriptor(Particle, "force"))
        assert pc.matches(descriptor(Simulation, "force"))
        assert not pc.matches(descriptor(Particle, "domove"))

        # A protocol requires the methods it inherits from another protocol.
        class Greets(Protocol):
            def greet(self, who): ...

        class LoudGreets(Greets, Protocol):
            def shout(self): ...

        class OnlyShout:
            def shout(self): ...

        class GreetsAndShouts:
            def greet(self, who): ...

            def shout(self): ...

        assert not implements(LoudGreets).matches(descriptor(OnlyShout, "shout"))
        assert implements(LoudGreets).matches(descriptor(GreetsAndShouts, "shout"))

    def test_abstract_base_class_and_virtual_subclass(self):
        class Body(abc.ABC):
            @abc.abstractmethod
            def force(self, x): ...

        class Planet(Body):
            def force(self, x):
                return x

        Body.register(Simulation)  # a virtual subclass, no inheritance
        pc = implements(Body, "force")
        assert pc.matches(descriptor(Planet, "force"))
        assert pc.matches(descriptor(Simulation, "force"))
        assert not pc.matches(descriptor(Particle, "force"))

    def test_method_filter_takes_wildcards(self):
        pc = implements(Particle, "do*")
        assert pc.matches(descriptor(Particle, "domove"))
        assert not pc.matches(descriptor(Particle, "force"))
        assert not implements(Simulation, "do*").matches(descriptor(Simulation, "run_iters"))

    def test_protocol_without_method_filter_selects_every_method(self):
        from typing import Protocol

        class Moves(Protocol):
            def domove(self): ...

        pc = implements(Moves)
        assert pc.matches(descriptor(Particle, "force"))
        assert pc.matches(descriptor(Particle, "domove"))
        assert not pc.matches(descriptor(Simulation, "force"))

    def test_protocol_does_not_require_private_methods(self):
        from typing import Protocol

        class Forces(Protocol):
            def force(self, x): ...

            def _cache(self): ...

        assert implements(Forces).matches(descriptor(Simulation, "force"))

    def test_module_owner_never_implements(self):
        import math

        module_function = MethodDescriptor(owner=math, name="sqrt", func=math.sqrt)
        assert not implements(Particle).matches(module_function)
        assert call("math.sqrt").matches(module_function)

    def test_non_class_rejected(self):
        with pytest.raises(PointcutError):
            implements(42)  # type: ignore[arg-type]


class TestDescribe:
    def test_describe_strings(self):
        assert "a" in call("a").describe()
        assert call("Particle.force").describe() == "call(Particle.force)"
        assert implements(Particle, "force").describe() == "implements(Particle.force)"

    def test_describe_function_object_and_whole_interface(self):
        assert call(Particle.force).describe() == "call('Particle.force')"
        assert call("force").describe() == "call(*.force)"
        assert implements(Particle).describe() == "implements(Particle)"
