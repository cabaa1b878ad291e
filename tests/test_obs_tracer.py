"""Tracer behaviour: nesting, attributes, exceptions, no-op mode."""

import time

import pytest

from repro.obs import (
    NULL_SPAN,
    Tracer,
    disable_tracing,
    enable_tracing,
    get_tracer,
    set_tracer,
)


def _fake_clock(start=0, step=10):
    """Deterministic nanosecond clock: start, start+step, ..."""
    state = {"t": start - step}

    def clock():
        state["t"] += step
        return state["t"]

    return clock


class TestSpanNesting:
    def test_parent_child_links(self):
        tracer = Tracer(clock=_fake_clock())
        with tracer.span("flow.route"):
            with tracer.span("dme.merge"):
                with tracer.span("dme.merge_loop"):
                    pass
            with tracer.span("flow.measure"):
                pass
        by_name = {s.name: s for s in tracer.spans}
        root = by_name["flow.route"]
        assert root.parent_id is None
        assert by_name["dme.merge"].parent_id == root.span_id
        assert by_name["dme.merge_loop"].parent_id == by_name["dme.merge"].span_id
        assert by_name["flow.measure"].parent_id == root.span_id

    def test_completion_order_inner_first(self):
        tracer = Tracer(clock=_fake_clock())
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        assert [s.name for s in tracer.spans] == ["inner", "outer"]

    def test_sibling_roots(self):
        tracer = Tracer(clock=_fake_clock())
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        assert [s.name for s in tracer.spans] == ["a", "b"]
        assert all(s.parent_id is None for s in tracer.spans)

    def test_durations_from_injected_clock(self):
        tracer = Tracer(clock=_fake_clock(start=100, step=10))
        with tracer.span("outer"):  # enter: 100
            with tracer.span("inner"):  # enter: 110, exit: 120
                pass
        inner, outer = tracer.spans
        assert inner.start_ns == 110 and inner.duration_ns == 10
        assert outer.start_ns == 100 and outer.duration_ns == 30

    def test_real_clock_is_monotonic_ns(self):
        tracer = Tracer()
        with tracer.span("tick"):
            time.sleep(0.001)
        (span,) = tracer.spans
        assert span.duration_ns >= 1_000_000  # at least the 1 ms sleep


class TestAttributes:
    def test_initial_and_set_attrs(self):
        tracer = Tracer(clock=_fake_clock())
        with tracer.span("dme.merge", n=128) as span:
            span.set(plans=7, cache_hits=3)
        (record,) = tracer.spans
        assert record.attrs == {"n": 128, "plans": 7, "cache_hits": 3}

    def test_set_is_chainable(self):
        tracer = Tracer(clock=_fake_clock())
        with tracer.span("s") as span:
            assert span.set(a=1) is span

    def test_as_dict_stable_keys(self):
        tracer = Tracer(clock=_fake_clock())
        with tracer.span("s", k="v"):
            pass
        d = tracer.spans[0].as_dict()
        assert set(d) == {
            "span_id",
            "parent_id",
            "name",
            "start_ns",
            "duration_ns",
            "attrs",
        }
        assert d["attrs"] == {"k": "v"}


class TestExceptionSafety:
    def test_span_closes_on_raise(self):
        tracer = Tracer(clock=_fake_clock())
        with pytest.raises(ValueError):
            with tracer.span("fails"):
                raise ValueError("boom")
        (record,) = tracer.spans
        assert record.name == "fails"
        assert record.attrs["error"] == "ValueError"
        assert record.duration_ns > 0

    def test_exception_not_swallowed_and_stack_unwound(self):
        tracer = Tracer(clock=_fake_clock())
        with pytest.raises(RuntimeError):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    raise RuntimeError
        assert [s.name for s in tracer.spans] == ["inner", "outer"]
        # The stack fully unwound: a new span is a root again.
        with tracer.span("fresh"):
            pass
        assert tracer.spans[-1].parent_id is None

    def test_existing_error_attr_not_overwritten(self):
        tracer = Tracer(clock=_fake_clock())
        with pytest.raises(ValueError):
            with tracer.span("s", error="custom"):
                raise ValueError
        assert tracer.spans[0].attrs["error"] == "custom"


class TestDisabledMode:
    def test_disabled_span_is_the_shared_singleton(self):
        tracer = Tracer(enabled=False)
        assert tracer.span("anything", n=1) is NULL_SPAN
        assert tracer.span("other") is NULL_SPAN

    def test_null_span_contextmanager_and_set(self):
        with NULL_SPAN as span:
            assert span.set(a=1) is NULL_SPAN

    def test_disabled_records_nothing(self):
        tracer = Tracer(enabled=False)
        with tracer.span("x"):
            with tracer.span("y"):
                pass
        assert tracer.spans == []

    def test_noop_overhead_cannot_reach_5_percent_of_a_route(self):
        """The acceptance bound: disabled tracing must stay < 5%.

        A routed flow opens a fixed handful of spans (about ten) while
        taking tens of milliseconds; bound the per-call cost of a
        disabled span so even a thousand call sites could not reach 5%
        of a 10 ms run (i.e. < 500 ns per call, with margin).
        """
        tracer = Tracer(enabled=False)
        n = 50_000
        start = time.perf_counter()
        for _ in range(n):
            with tracer.span("hot"):
                pass
        per_call = (time.perf_counter() - start) / n
        assert per_call < 5e-6, "disabled span costs %.2e s/call" % per_call


class TestGlobalTracer:
    def test_default_is_disabled(self):
        assert get_tracer().enabled in (False, True)  # exists
        # A fresh disable installs a disabled tracer.
        disable_tracing()
        assert not get_tracer().enabled
        assert get_tracer().span("x") is NULL_SPAN

    def test_set_and_restore(self):
        mine = Tracer(enabled=True)
        previous = set_tracer(mine)
        try:
            assert get_tracer() is mine
        finally:
            set_tracer(previous)
        assert get_tracer() is previous

    def test_enable_returns_the_installed_tracer(self):
        previous = get_tracer()
        tracer = enable_tracing()
        try:
            assert get_tracer() is tracer and tracer.enabled
        finally:
            set_tracer(previous)
