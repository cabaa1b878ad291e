"""Hierarchical span tracing with nanosecond wall-clock timing.

A *span* is one timed region of the flow, named by the convention
``phase.subphase`` (e.g. ``dme.merge_loop``).  Spans nest: entering a
span while another is open records the parent/child relation, so one
routed benchmark produces a tree whose root covers the whole run and
whose leaves attribute the wall-clock to individual phases.

The module keeps a **process-global default tracer** that starts
*disabled*: ``get_tracer().span(...)`` then returns a shared no-op
context manager -- one attribute test plus one constant return, cheap
enough to leave the instrumentation permanently in the hot flows (the
test suite bounds the disabled-mode overhead).  The CLI (or a test)
installs a recording tracer with :func:`set_tracer` /
:func:`enable_tracing`.

Typical use::

    from repro.obs import get_tracer

    with get_tracer().span("dme.merge", n=len(sinks)) as span:
        ...
        span.set(plans=stats.plans_computed)

Finished spans are plain :class:`SpanRecord` rows (id, parent id,
name, start/duration in ns, attribute dict); the exporters in
:mod:`repro.obs.export` turn them into Chrome ``trace_event`` JSON
or a phase-time table, and :mod:`repro.obs.ledger` stores them in a
:class:`~repro.obs.ledger.RunRecord`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional


@dataclass
class SpanRecord:
    """One finished span (times from ``perf_counter_ns``)."""

    span_id: int
    parent_id: Optional[int]
    name: str
    start_ns: int
    duration_ns: int
    attrs: Dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        """Stable-key dict for the RunRecord span rows."""
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_ns": self.start_ns,
            "duration_ns": self.duration_ns,
            "attrs": dict(self.attrs),
        }


class _NullSpan:
    """The shared do-nothing span a disabled tracer hands out."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attrs) -> "_NullSpan":
        return self


#: Singleton: disabled tracing allocates nothing per call.
NULL_SPAN = _NullSpan()


class Span:
    """An open span; use as a context manager (exception safe)."""

    __slots__ = (
        "_tracer",
        "span_id",
        "parent_id",
        "name",
        "attrs",
        "_start_ns",
    )

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, Any]):
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self.span_id = -1
        self.parent_id: Optional[int] = None
        self._start_ns = 0

    def set(self, **attrs) -> "Span":
        """Attach attributes to the span; chainable."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        tracer = self._tracer
        self.span_id = tracer._next_id
        tracer._next_id += 1
        stack = tracer._stack
        self.parent_id = stack[-1].span_id if stack else None
        stack.append(self)
        self._start_ns = tracer._clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        end = self._tracer._clock()
        if exc_type is not None:
            # Record the failure but never swallow it.
            self.attrs.setdefault("error", exc_type.__name__)
        stack = self._tracer._stack
        # The span may close out of order only if user code misuses the
        # context managers; drop everything above it so the stack never
        # grows without bound after an inner leak.
        while stack and stack[-1] is not self:
            stack.pop()
        if stack:
            stack.pop()
        record = SpanRecord(
            span_id=self.span_id,
            parent_id=self.parent_id,
            name=self.name,
            start_ns=self._start_ns,
            duration_ns=end - self._start_ns,
            attrs=self.attrs,
        )
        self._tracer.spans.append(record)
        return False


class Tracer:
    """Collects a tree of timed spans.

    Parameters
    ----------
    enabled:
        When False every :meth:`span` call returns the shared
        :data:`NULL_SPAN` -- a true no-op.
    clock:
        Timestamp source, ``time.perf_counter_ns`` by default
        (injectable for deterministic tests).
    """

    def __init__(self, enabled: bool = True, clock=time.perf_counter_ns):
        self.enabled = enabled
        self.spans: List[SpanRecord] = []
        self._stack: List[Span] = []
        self._clock = clock
        self._next_id = 0

    def span(self, name: str, **attrs):
        """Open a span named ``name`` with initial attributes."""
        if not self.enabled:
            return NULL_SPAN
        return Span(self, name, attrs)


#: The process-global tracer: disabled until someone opts in.
_global_tracer = Tracer(enabled=False)


def get_tracer() -> Tracer:
    """The process-global tracer (a no-op until enabled)."""
    return _global_tracer


def set_tracer(tracer: Tracer) -> Tracer:
    """Install ``tracer`` globally; returns the previous one."""
    global _global_tracer
    previous = _global_tracer
    _global_tracer = tracer
    return previous


def enable_tracing() -> Tracer:
    """Install (and return) a fresh enabled global tracer."""
    tracer = Tracer(enabled=True)
    set_tracer(tracer)
    return tracer


def disable_tracing() -> Tracer:
    """Install a fresh disabled global tracer; returns the old one."""
    return set_tracer(Tracer(enabled=False))

