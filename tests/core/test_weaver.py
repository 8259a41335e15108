"""Tests for the weaver: weaving, unweaving, chaining, inheritance, instances."""

from __future__ import annotations

import sys
import types

import pytest

from repro.core.aspects.base import MethodAspect
from repro.core.weaver.joinpoint import JoinPoint
from repro.core.weaver.pointcut import call, implements
from repro.core.weaver.weaver import Weaver, original_function
from repro.runtime.exceptions import WeavingError


class TracingAspect(MethodAspect):
    """Test aspect recording every interception; optionally transforms results."""

    def __init__(self, pointcut, label="trace", transform=None):
        super().__init__(pointcut, name=label)
        self.label = label
        self.transform = transform
        self.calls = []

    def around(self, joinpoint: JoinPoint):
        self.calls.append((joinpoint.qualified_name, joinpoint.args))
        result = joinpoint.proceed()
        if self.transform is not None:
            result = self.transform(result)
        return result


class Greeter:
    def greet(self, who):
        return f"hello {who}"

    def shout(self, who):
        return f"HELLO {who}"

    @staticmethod
    def version():
        return "v1"


class PoliteGreeter(Greeter):
    pass


class LoudGreeter(Greeter):
    def greet(self, who):
        return f"HELLO {who}!!!"


class TestBasicWeaving:
    def test_advice_wraps_matched_method(self):
        weaver = Weaver()
        aspect = TracingAspect(call("Greeter.greet"))
        weaver.weave(aspect, Greeter)
        try:
            assert Greeter().greet("world") == "hello world"
            assert aspect.calls == [("Greeter.greet", ("world",))]
        finally:
            weaver.unweave_all()

    def test_unweave_restores_original(self):
        weaver = Weaver()
        aspect = TracingAspect(call("Greeter.greet"))
        original = Greeter.greet
        weaver.weave(aspect, Greeter)
        assert Greeter.greet is not original
        assert original_function(Greeter.greet) is original
        weaver.unweave_all()
        assert Greeter.greet is original

    def test_unmatched_pointcut_raises(self):
        weaver = Weaver()
        with pytest.raises(WeavingError):
            weaver.weave(TracingAspect(call("Greeter.nonexistent")), Greeter)

    def test_no_target_raises(self):
        weaver = Weaver()
        with pytest.raises(WeavingError):
            weaver.weave(TracingAspect(call("greet")))

    def test_abstract_aspect_cannot_be_woven(self):
        weaver = Weaver()
        with pytest.raises(WeavingError):
            weaver.weave(MethodAspect(), Greeter)

    def test_result_transformation(self):
        weaver = Weaver()
        aspect = TracingAspect(call("Greeter.greet"), transform=str.upper)
        weaver.weave(aspect, Greeter)
        try:
            assert Greeter().greet("bob") == "HELLO BOB"
        finally:
            weaver.unweave_all()

    def test_staticmethod_weaving(self):
        weaver = Weaver()
        aspect = TracingAspect(call("Greeter.version"))
        weaver.weave(aspect, Greeter)
        try:
            assert Greeter.version() == "v1"
            assert Greeter().version() == "v1"
            assert aspect.calls[0][0] == "Greeter.version"
        finally:
            weaver.unweave_all()
        assert Greeter.version() == "v1"

    def test_context_manager_unweaves(self):
        original = Greeter.greet
        with Weaver() as weaver:
            weaver.weave(TracingAspect(call("Greeter.greet")), Greeter)
            assert Greeter.greet is not original
        assert Greeter.greet is original


class TestChaining:
    def test_later_aspects_wrap_earlier_ones(self):
        order = []

        class OrderAspect(MethodAspect):
            def __init__(self, pointcut, label):
                super().__init__(pointcut, name=label)
                self.label = label

            def around(self, joinpoint):
                order.append(f"{self.label}:before")
                result = joinpoint.proceed()
                order.append(f"{self.label}:after")
                return result

        weaver = Weaver()
        weaver.weave(OrderAspect(call("Greeter.greet"), "inner"), Greeter)
        weaver.weave(OrderAspect(call("Greeter.greet"), "outer"), Greeter)
        try:
            Greeter().greet("x")
            assert order == ["outer:before", "inner:before", "inner:after", "outer:after"]
        finally:
            weaver.unweave_all()

    def test_unweave_all_restores_after_chain(self):
        weaver = Weaver()
        original = Greeter.greet
        weaver.weave(TracingAspect(call("Greeter.greet"), "a"), Greeter)
        weaver.weave(TracingAspect(call("Greeter.greet"), "b"), Greeter)
        assert weaver.unweave_all() == 2
        assert Greeter.greet is original

    def test_unweave_single_aspect_requires_top_of_chain(self):
        weaver = Weaver()
        inner = TracingAspect(call("Greeter.greet"), "inner")
        outer = TracingAspect(call("Greeter.greet"), "outer")
        weaver.weave(inner, Greeter)
        weaver.weave(outer, Greeter)
        try:
            with pytest.raises(WeavingError):
                weaver.unweave(inner)
            weaver.unweave(outer)
            weaver.unweave(inner)
            assert weaver.records == []
        finally:
            weaver.unweave_all()

    def test_unweave_unknown_aspect_raises(self):
        weaver = Weaver()
        with pytest.raises(WeavingError):
            weaver.unweave(TracingAspect(call("greet")))

    def test_original_function_resolves_through_chain(self):
        weaver = Weaver()
        original = Greeter.greet
        weaver.weave(TracingAspect(call("Greeter.greet"), "a"), Greeter)
        weaver.weave(TracingAspect(call("Greeter.greet"), "b"), Greeter)
        try:
            assert original_function(Greeter.greet) is original
        finally:
            weaver.unweave_all()


class TestInheritanceAndInterfaces:
    def test_weaving_base_class_affects_subclasses(self):
        weaver = Weaver()
        aspect = TracingAspect(call("Greeter.greet"))
        weaver.weave(aspect, Greeter)
        try:
            PoliteGreeter().greet("ann")
            # PoliteGreeter inherits the woven method, so the advice runs —
            # the paper's "bindings are retained over the class hierarchy".
            assert aspect.calls == [("Greeter.greet", ("ann",))]
        finally:
            weaver.unweave_all()

    def test_override_not_affected_unless_matched(self):
        weaver = Weaver()
        aspect = TracingAspect(call("Greeter.greet"))
        weaver.weave(aspect, Greeter)
        try:
            LoudGreeter().greet("ann")
            assert aspect.calls == []  # LoudGreeter overrides greet
        finally:
            weaver.unweave_all()

    def test_interface_pointcut_covers_all_implementations(self):
        from typing import Protocol

        class Greets(Protocol):
            def greet(self, who): ...

        module = types.ModuleType("fake_greeters")
        module.Greeter = Greeter
        module.LoudGreeter = LoudGreeter
        Greeter.__module__ = module.__name__
        LoudGreeter.__module__ = module.__name__
        sys.modules[module.__name__] = module
        try:
            weaver = Weaver()
            aspect = TracingAspect(implements(Greets, "greet"))
            weaver.weave(aspect, module)
            try:
                Greeter().greet("a")
                LoudGreeter().greet("b")
                names = [qualified for qualified, _ in aspect.calls]
                assert names == ["Greeter.greet", "LoudGreeter.greet"]
            finally:
                weaver.unweave_all()
        finally:
            del sys.modules[module.__name__]
            Greeter.__module__ = __name__
            LoudGreeter.__module__ = __name__

    def test_implements_matches_overrides_in_subclass_weave(self):
        weaver = Weaver()
        aspect = TracingAspect(implements(Greeter, "greet"))
        weaver.weave(aspect, LoudGreeter)
        try:
            LoudGreeter().greet("z")
            assert aspect.calls == [("LoudGreeter.greet", ("z",))]
        finally:
            weaver.unweave_all()


class TestModuleAndInstanceWeaving:
    def test_module_function_weaving(self):
        module = types.ModuleType("fake_math_mod")
        exec("def double(x):\n    return 2 * x\n", module.__dict__)
        module.double.__module__ = module.__name__
        weaver = Weaver()
        aspect = TracingAspect(call("double"), transform=lambda value: value + 1)
        weaver.weave(aspect, module)
        try:
            assert module.double(5) == 11
            assert aspect.calls == [("fake_math_mod.double", (5,))]
        finally:
            weaver.unweave_all()
        assert module.double(5) == 10

    def test_instance_weaving_only_affects_that_instance(self):
        weaver = Weaver()
        target = Greeter()
        other = Greeter()
        aspect = TracingAspect(call("greet"), transform=str.title)
        weaver.weave(aspect, target)
        try:
            assert target.greet("bob") == "Hello Bob"
            assert other.greet("bob") == "hello bob"
        finally:
            weaver.unweave_all()
        assert target.greet("bob") == "hello bob"

    def test_records_and_woven_aspects(self):
        weaver = Weaver()
        a = TracingAspect(call("Greeter.greet"), "a")
        b = TracingAspect(call("Greeter.shout"), "b")
        weaver.weave(a, Greeter)
        weaver.weave(b, Greeter)
        try:
            assert len(weaver.records) == 2
            assert weaver.woven_aspects() == [a, b]
            description = weaver.records[0].describe()
            assert "Greeter.greet" in description
        finally:
            weaver.unweave_all()


class TestJoinPoint:
    def test_proceed_with_replaced_args(self):
        class ReplaceArgs(MethodAspect):
            def around(self, joinpoint):
                return joinpoint.proceed(joinpoint.args[0].upper())

        weaver = Weaver()
        weaver.weave(ReplaceArgs(call("Greeter.greet")), Greeter)
        try:
            assert Greeter().greet("bob") == "hello BOB"
        finally:
            weaver.unweave_all()

    def test_joinpoint_metadata(self):
        captured = {}

        class Capture(MethodAspect):
            def around(self, joinpoint):
                captured["name"] = joinpoint.name
                captured["qualified"] = joinpoint.qualified_name
                captured["target_type"] = type(joinpoint.target).__name__
                return joinpoint.proceed()

        weaver = Weaver()
        weaver.weave(Capture(call("Greeter.greet")), Greeter)
        try:
            Greeter().greet("x")
            assert captured == {"name": "greet", "qualified": "Greeter.greet", "target_type": "Greeter"}
        finally:
            weaver.unweave_all()

    def test_proceed_with_replaced_args(self):
        class UseCopy(MethodAspect):
            def around(self, joinpoint):
                return joinpoint.proceed("copied")

        weaver = Weaver()
        weaver.weave(UseCopy(call("Greeter.greet")), Greeter)
        try:
            # proceed() on the clone forwards the clone's (replaced) arguments.
            assert Greeter().greet("ignored") == "hello copied"
        finally:
            weaver.unweave_all()


class TestBackendCapabilityAggregation:
    """weave_all tells parallel-region aspects when sibling aspects need a
    shared Python heap, so process backends fall back to threads."""

    def test_shared_locals_flag_propagates_to_parallel_region(self):
        from repro.core.aspects.execution import SingleAspect
        from repro.core.aspects.parallel_region import ParallelRegion

        pr = ParallelRegion(call("Greeter.greet"), threads=2)
        single = SingleAspect(call("Greeter.shout"))
        weaver = Weaver()
        weaver.weave_all([single, pr], Greeter)
        try:
            assert pr.region_requires_shared_locals is True
        finally:
            weaver.unweave_all()

    def test_flag_stays_clear_without_shared_locals_aspects(self):
        from repro.core.aspects.parallel_region import ParallelRegion
        from repro.core.aspects.worksharing import ForStatic

        pr = ParallelRegion(call("Greeter.greet"), threads=2)
        loop = ForStatic(call("Greeter.shout"))
        weaver = Weaver()
        weaver.weave_all([loop, pr], Greeter)
        try:
            assert pr.region_requires_shared_locals is False
        finally:
            weaver.unweave_all()

    def test_composite_aspects_are_flattened_for_capability_checks(self):
        from repro.core.aspects.base import CompositeAspect
        from repro.core.aspects.execution import MasterAspect
        from repro.core.aspects.parallel_region import ParallelRegion

        pr = ParallelRegion(call("Greeter.greet"), threads=2)
        bundle = CompositeAspect([MasterAspect(call("Greeter.shout")), pr])
        weaver = Weaver()
        weaver.weave_all([bundle], Greeter)
        try:
            assert pr.region_requires_shared_locals is True
        finally:
            weaver.unweave_all()

    def test_woven_single_on_process_backend_runs_on_thread_fallback(self):
        """End to end: a program woven with PR + Single executes correctly on
        the process backend because the weaver routed it to threads."""
        import warnings

        from repro.core.aspects.execution import SingleAspect
        from repro.core.aspects.parallel_region import ParallelRegion
        from repro.runtime.backend import ProcessBackend

        class Program:
            def __init__(self):
                self.audit = []

            def setup(self):
                self.audit.append("setup")
                return "configured"

            def main(self):
                return self.setup()

        pr = ParallelRegion(call("Program.main"), threads=3, backend=ProcessBackend())
        single = SingleAspect(call("Program.setup"))
        weaver = Weaver()
        weaver.weave_all([single, pr], Program)
        try:
            program = Program()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                assert program.main() == "configured"
            # Exactly one member executed setup, and its mutation is visible
            # to the parent — proof the region ran in-process (threads).
            assert program.audit == ["setup"]
        finally:
            weaver.unweave_all()

    def test_unmarked_woven_target_falls_back_on_process_backend(self):
        """A woven program whose state is ordinary heap data (not marked
        process_safe) must not lose worker writes on the process backend:
        the region aspect routes it to the thread fallback."""
        import threading
        import warnings

        from repro.core.aspects.parallel_region import ParallelRegion
        from repro.core.aspects.worksharing import ForStatic
        from repro.runtime.backend import ProcessBackend

        class Accumulator:
            def __init__(self):
                self.parts = []
                self._lock = threading.Lock()

            def accumulate(self, start, end, step):
                with self._lock:
                    self.parts.append(sum(range(start, end, step)))

            def main(self):
                self.accumulate(0, 100, 1)
                return sum(self.parts)

        weaver = Weaver()
        weaver.weave_all(
            [
                ForStatic(call("Accumulator.accumulate")),
                ParallelRegion(call("Accumulator.main"), threads=4, backend=ProcessBackend()),
            ],
            Accumulator,
        )
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                assert Accumulator().main() == sum(range(100))
        finally:
            weaver.unweave_all()

    def test_reweave_with_process_safe_set_clears_stale_flag(self):
        from repro.core.aspects.execution import SingleAspect
        from repro.core.aspects.parallel_region import ParallelRegion
        from repro.core.aspects.worksharing import ForStatic

        pr = ParallelRegion(call("Greeter.greet"), threads=2)
        weaver = Weaver()
        weaver.weave_all([SingleAspect(call("Greeter.shout")), pr], Greeter)
        weaver.unweave_all()
        assert pr.region_requires_shared_locals is True
        weaver.weave_all([ForStatic(call("Greeter.shout")), pr], Greeter)
        try:
            assert pr.region_requires_shared_locals is False
        finally:
            weaver.unweave_all()
