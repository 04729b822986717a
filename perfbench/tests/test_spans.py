"""Span arithmetic and function binding."""

import sys
import types

import pytest

from perfbench import layers
from perfbench.spans import Bindings, Span, Tracer, covered, self_times, summarize


def _span(name, start, end, parent=None):
    return Span(name, start, end, parent, None)


def test_covered_merges_overlaps_and_clips():
    assert covered([], 0.0, 10.0) == 0.0
    assert covered([(1.0, 3.0), (2.0, 5.0)], 0.0, 10.0) == pytest.approx(4.0)
    assert covered([(1.0, 2.0), (4.0, 6.0)], 0.0, 10.0) == pytest.approx(3.0)
    assert covered([(-5.0, 2.0), (8.0, 20.0)], 0.0, 10.0) == pytest.approx(4.0)
    assert covered([(11.0, 12.0)], 0.0, 10.0) == 0.0


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span("engine", 0.0, 10.0),
        _span("graph", 1.0, 3.0, parent=0),
        _span("embed", 4.0, 8.0, parent=0),
        _span("nn.forward", 5.0, 7.0, parent=2),
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 2.0, 2.0])


def test_self_time_counts_overlapping_children_once():
    spans = [_span("a", 0.0, 10.0), _span("b", 1.0, 6.0, parent=0), _span("c", 4.0, 9.0, parent=0)]
    assert self_times(spans)[0] == pytest.approx(2.0)


def test_summary_counts_outermost_spans_for_busy_time():
    spans = [
        _span("backward", 0.0, 4.0),
        _span("backward", 1.0, 2.0, parent=0),  # re-entrant call: not counted again
        _span("backward", 5.0, 6.0),
    ]
    summary = summarize(spans)["backward"]
    assert summary["calls"] == 2
    assert summary["busy_s"] == pytest.approx(5.0)
    assert summary["self_s"] == pytest.approx(3.0 + 1.0 + 1.0)


def test_tracer_nests_spans_per_thread_and_keeps_request_id():
    tracer = Tracer()
    tracer.request_id = "r1"
    outer = tracer.begin("outer")
    inner = tracer.begin("inner")
    tracer.end(inner)
    tracer.end(outer)
    assert tracer.spans[inner].parent == outer
    assert tracer.spans[outer].parent is None
    assert {span.request_id for span in tracer.spans} == {"r1"}
    assert tracer.spans[outer].start <= tracer.spans[inner].start <= tracer.spans[inner].end <= tracer.spans[outer].end


class _Widget:
    def work(self, n):
        return n * 2

    @classmethod
    def make(cls):
        return cls()


def _module_function(n):
    return n + 1


@pytest.fixture
def fake_module():
    module = types.ModuleType("perfbench_fake_layer")
    module.Widget = _Widget
    module.helper = _module_function
    user = types.ModuleType("perfbench_fake_user")
    user.helper = _module_function  # imported by name elsewhere
    sys.modules[module.__name__] = module
    sys.modules[user.__name__] = user
    yield module, user
    del sys.modules[module.__name__]
    del sys.modules[user.__name__]


def test_bind_records_spans_only_while_enabled_and_restores(fake_module):
    module, user = fake_module
    tracer = Tracer()
    bindings = Bindings(tracer)
    assert bindings.bind("perfbench_fake_layer:Widget.work", "widget.work")
    assert bindings.bind("perfbench_fake_layer:Widget.make", "widget.make")
    assert bindings.bind("perfbench_fake_layer:helper", "helper")
    widget = module.Widget.make()
    assert widget.work(2) == 4 and user.helper(1) == 2
    assert tracer.spans == []
    tracer.enabled = True
    assert module.Widget.make().work(3) == 6
    assert user.helper(1) == 2 and module.helper(2) == 3
    assert [span.name for span in tracer.spans] == ["widget.make", "widget.work", "helper", "helper"]
    bindings.restore()
    assert module.Widget.__dict__["work"] is _Widget.__dict__["work"]
    assert module.helper is _module_function and user.helper is _module_function


def test_failures_are_counted_and_reraised(fake_module):
    module, _ = fake_module
    tracer = Tracer()
    bindings = Bindings(tracer)
    bindings.bind("perfbench_fake_layer:helper", "helper")
    tracer.enabled = True
    with pytest.raises(TypeError):
        module.helper("x")
    assert tracer.counters["helper.failures"] == 1
    assert len(tracer.spans) == 1 and tracer.spans[0].end >= tracer.spans[0].start
    bindings.restore()


def test_generator_binding_times_each_wait():
    module = types.ModuleType("perfbench_fake_stream")

    def stream(items):
        yield from items

    module.stream = stream
    sys.modules[module.__name__] = module
    try:
        tracer = Tracer()
        bindings = Bindings(tracer)
        bindings.bind("perfbench_fake_stream:stream", "stream", generator=True)
        tracer.enabled = True
        assert list(module.stream([1, 2, 3])) == [1, 2, 3]
        names = [span.name for span in tracer.spans]
        assert names.count("stream") == 1
        assert names.count("stream.next") == 4  # three items and the final StopIteration
        bindings.restore()
    finally:
        del sys.modules[module.__name__]


def test_missing_targets_are_absent_not_errors():
    tracer = Tracer()
    bindings = Bindings(tracer)
    assert not bindings.bind("perfbench_no_such_module:Thing.run", "thing")
    assert not bindings.bind("perfbench.spans:Tracer.no_such_method", "thing")
    assert bindings.absent == ["perfbench_no_such_module:Thing.run", "perfbench.spans:Tracer.no_such_method"]


def test_layer_metrics_leave_out_only_absent_bindings(monkeypatch):
    monkeypatch.setattr(
        layers,
        "BINDINGS",
        [(name, "perfbench_no_such_module:Gone.call" if name == "checker" else target, options)
         for name, target, options in layers.BINDINGS],
    )
    tracer = Tracer()
    bindings = layers.install(tracer)
    try:
        assert layers.absent_bindings(bindings) == {"checker"}
        metrics = layers.layer_metrics(tracer, bindings, units=1)
    finally:
        bindings.restore()
    assert "checker.checks" not in metrics and "filter.checks_per_request" not in metrics
    assert metrics["filter.calls"]["value"] == 0.0
    expected = set(layers.all_metric_units()) - set(layers.BINDING_METRICS["checker"])
    expected -= set(layers.BINDING_METRICS["filter+checker"])
    assert set(metrics) == expected
