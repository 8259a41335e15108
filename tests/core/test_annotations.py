"""Tests for the annotation style and the annotation weaver."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core import annotations as ann
from repro.core.annotation_weaver import weave_annotations
from repro.core.weaver.weaver import Weaver
from repro.runtime import context as ctx
from repro.runtime.exceptions import WeavingError
from repro.runtime.tasks import FutureResult
from repro.runtime.threadlocal import ArrayReducer
from repro.runtime.trace import EventKind, TraceRecorder


class TestAnnotationMetadata:
    def test_bare_and_parameterised_forms(self):
        @ann.parallel
        def region_a():
            pass

        @ann.parallel(threads=8)
        def region_b():
            pass

        assert ann.get_annotations(region_a)["parallel"]["threads"] is None
        assert ann.get_annotations(region_b)["parallel"]["threads"] == 8

    def test_annotations_do_not_change_behaviour(self):
        @ann.parallel(threads=4)
        @ann.for_loop(schedule="dynamic")
        @ann.critical(id="x")
        def plain(start, end, step):
            return sum(range(start, end, step))

        # Sequential semantics: without weaving, the function is untouched.
        assert plain(0, 10, 1) == sum(range(10))

    def test_multiple_annotations_stack(self):
        @ann.master
        @ann.barrier_before
        @ann.barrier_after
        def sync_point():
            pass

        keys = set(ann.get_annotations(sync_point))
        assert keys == {"master", "barrier_before", "barrier_after"}

    def test_has_annotation(self):
        @ann.single
        def once():
            pass

        assert set(ann.get_annotations(once)) == {"single"}

    def test_for_loop_parameters_recorded(self):
        @ann.for_loop(schedule="staticCyclic", chunk=4, nowait=True)
        def loop(start, end, step):
            pass

        params = ann.get_annotations(loop)["for"]
        assert params["schedule"] == "staticCyclic"
        assert params["chunk"] == 4
        assert params["nowait"] is True

    def test_thread_local_field_class_decorator(self):
        @ann.thread_local_field("forces", "energies")
        class Particle:
            pass

        entry = ann.get_annotations(Particle)["thread_local_fields"]
        assert entry["fields"] == ["forces", "energies"]

    def test_method_annotation_inventory_is_complete(self):
        # Paper Table 1 lists 16 abstractions; thread-local-field is a class
        # annotation, the remaining 15 are method annotations.  "taskloop" is
        # this reproduction's extension beyond Table 1 (OpenMP's taskloop).
        paper_annotations = set(ann.METHOD_ANNOTATIONS) - {"taskloop"}
        assert len(paper_annotations) == 15
        assert len(ann.CLASS_ANNOTATIONS) == 1


def build_annotated_app():
    """A small annotated application exercising several constructs at once."""

    class App:
        def __init__(self):
            self.seen = []
            self.master_values = []
            self.lock = threading.Lock()

        @ann.parallel(threads=4)
        def region(self):
            self.loop(0, 20, 1)
            value = self.pivot()
            with self.lock:
                self.master_values.append(value)

        @ann.for_loop(schedule="staticCyclic")
        @ann.barrier_after
        def loop(self, start, end, step):
            tid = ctx.get_thread_id()
            with self.lock:
                self.seen.extend((tid, i) for i in range(start, end, step))

        @ann.master
        @ann.barrier_before
        @ann.barrier_after
        def pivot(self):
            return 7

    return App


class TestAnnotationWeaving:
    def test_end_to_end_parallel_execution(self):
        App = build_annotated_app()
        weaver = weave_annotations(App)
        try:
            app = App()
            app.region()
            assert sorted(i for _, i in app.seen) == list(range(20))
            assert len({tid for tid, _ in app.seen}) == 4
            assert app.master_values == [7, 7, 7, 7]
        finally:
            weaver.unweave_all()

    def test_unweaving_restores_sequential_execution(self):
        App = build_annotated_app()
        weaver = weave_annotations(App)
        weaver.unweave_all()
        app = App()
        app.region()
        assert {tid for tid, _ in app.seen} == {0}
        assert app.master_values == [7]

    def test_threads_default_override(self):
        class App:
            def __init__(self):
                self.count = 0
                self.lock = threading.Lock()

            @ann.parallel
            def region(self):
                with self.lock:
                    self.count += 1

        weaver = weave_annotations(App, threads=6)
        try:
            app = App()
            app.region()
            assert app.count == 6
        finally:
            weaver.unweave_all()

    def test_critical_annotation_protects_updates(self):
        class Counter:
            def __init__(self):
                self.value = 0

            @ann.parallel(threads=4)
            def region(self):
                for _ in range(25):
                    self.bump()

            @ann.critical(id="bump")
            def bump(self):
                current = self.value
                self.value = current + 1

        weaver = weave_annotations(Counter)
        try:
            counter = Counter()
            counter.region()
            assert counter.value == 100
        finally:
            weaver.unweave_all()

    def test_task_annotations(self):
        class App:
            def __init__(self):
                self.results = []
                self.lock = threading.Lock()

            def main(self):
                for i in range(3):
                    self.produce(i)
                self.join_point()
                return sorted(self.results)

            @ann.task
            def produce(self, i):
                with self.lock:
                    self.results.append(i * 10)

            @ann.task_wait
            def join_point(self):
                pass

        weaver = weave_annotations(App)
        try:
            assert App().main() == [0, 10, 20]
        finally:
            weaver.unweave_all()

    def test_future_task_annotation(self):
        class App:
            @ann.future_task
            def compute(self):
                return 123

        weaver = weave_annotations(App)
        try:
            future = App().compute()
            assert isinstance(future, FutureResult)
            assert future.get(timeout=5) == 123
        finally:
            weaver.unweave_all()

    def test_thread_local_and_reduce_annotations(self):
        @ann.thread_local_field("histogram", copy_value=np.copy)
        class Sampler:
            def __init__(self):
                self.histogram = np.zeros(3)

            @ann.parallel(threads=3)
            @ann.reduce_fields(field="histogram")
            def sample(self):
                self.histogram = self.histogram + (ctx.get_thread_id() + 1)

        weaver = weave_annotations(Sampler, reducers={"histogram": ArrayReducer()})
        try:
            sampler = Sampler()
            sampler.sample()
            assert sampler.histogram.tolist() == [6.0, 6.0, 6.0]
        finally:
            weaver.unweave_all()

    def test_reduce_without_reducer_raises(self):
        @ann.thread_local_field("x")
        class Broken:
            def __init__(self):
                self.x = 0

            @ann.reduce_fields(field="x")
            def merge(self):
                pass

        with pytest.raises(WeavingError):
            weave_annotations(Broken)

    def test_reduce_without_field_declaration_raises(self):
        class Broken:
            @ann.reduce_fields(field="missing")
            def merge(self):
                pass

        with pytest.raises(WeavingError):
            weave_annotations(Broken, reducers={"missing": ArrayReducer()})

    def test_no_targets_raises(self):
        with pytest.raises(WeavingError):
            weave_annotations()

    def test_recorder_propagated_to_regions(self):
        class App:
            @ann.parallel(threads=2)
            def region(self):
                pass

        recorder = TraceRecorder()
        weaver = weave_annotations(App, recorder=recorder)
        try:
            App().region()
            assert recorder.events(EventKind.REGION_BEGIN)
        finally:
            weaver.unweave_all()

    def test_weaving_into_supplied_weaver(self):
        class App:
            @ann.parallel(threads=2)
            def region(self):
                return "ok"

        weaver = Weaver()
        returned = weave_annotations(App, weaver=weaver)
        try:
            assert returned is weaver
            assert App().region() == "ok"
            assert weaver.records
        finally:
            weaver.unweave_all()

    @pytest.mark.parametrize("schedule", ["staticBlock", "dynamic", "guided"])
    def test_woven_row_loop_covers_grid(self, schedule):
        class Grid:
            def __init__(self):
                self.hits = np.zeros((4, 6), dtype=np.int64)
                self.lock = threading.Lock()

            @ann.parallel(threads=3)
            def region(self):
                self.rows(0, 4, 1)

            @ann.for_loop(schedule=schedule)
            def rows(self, start, end, step):
                with self.lock:
                    for r in range(start, end, step):
                        self.hits[r, :] += 1

        weaver = weave_annotations(Grid)
        try:
            app = Grid()
            app.region()
            assert (app.hits == 1).all()
        finally:
            weaver.unweave_all()
