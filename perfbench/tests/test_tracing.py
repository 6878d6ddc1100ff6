import pytest

from perfbench import tracing


def test_self_time_subtracts_children_and_their_overlap_once():
    spans = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["b", 3.0, 6.0, 0, 0],  # overlaps a by 1.0
        ["leaf", 1.5, 2.0, 1, 0],
        ["a", 8.0, 9.0, 0, 0],
    ]
    self_time, inclusive = tracing.span_times(spans)
    assert self_time["root"] == pytest.approx(10.0 - (5.0 + 1.0))
    assert self_time["a"] == pytest.approx((3.0 - 0.5) + 1.0)
    assert self_time["b"] == pytest.approx(3.0)
    assert self_time["leaf"] == pytest.approx(0.5)
    assert inclusive["a"] == pytest.approx(4.0)
    assert inclusive["root"] == pytest.approx(10.0)


def test_covered_length_clips_children_to_the_parent():
    assert tracing.covered_length([(-1.0, 2.0), (5.0, 20.0)], 0.0, 10.0) == pytest.approx(7.0)
    assert tracing.covered_length([], 0.0, 10.0) == 0.0


def test_wrap_records_nesting_counts_and_restores():
    class Layer:
        def outer(self, n):
            return self.inner(n) + 1

        def inner(self, n):
            return n * 2

    original = Layer.__dict__["inner"]
    tracer = tracing.Tracer()
    tracer.wrap(Layer, "outer", "outer", root=True)
    tracer.wrap(Layer, "inner", "inner", count=lambda args, result: {"items": args[1]})
    assert Layer().outer(3) == 7
    assert Layer().outer(4) == 9
    tracer.restore()
    assert Layer.__dict__["inner"] is original
    names = [(s[0], s[3], s[4]) for s in tracer.spans]
    assert names == [("outer", -1, 0), ("inner", 0, 0), ("outer", -1, 1), ("inner", 2, 1)]
    assert tracer.counts == {"outer": 2, "inner": 2, "items": 7}


def test_layer_metrics_are_per_query_and_per_trial():
    metrics = tracing.layer_metrics(
        {"tuner.query": 2.0}, {"optimizer.base": 4.0}, {"optimizer.plan": 30}, 100, 3)
    assert metrics["tuner.self_s"] == pytest.approx(0.02)
    assert metrics["optimizer.base_s"] == pytest.approx(0.04)
    assert metrics["optimizer.plan_calls"] == pytest.approx(10)
    assert metrics["bandit.model_s"] == 0.0
