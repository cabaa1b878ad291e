"""Named counters, gauges and histograms for the routing flow.

The registry is the sink the ad-hoc instrumentation structs publish
into: :class:`~repro.cts.dme.MergerStats` counters and the
:class:`~repro.activity.probability.ActivityOracle` LRU hit/miss
numbers land here under stable dotted names
(``dme.plans_computed``, ``oracle.signal.hits``, ...), so
exporters and tests read one uniform ``as_dict()`` instead of
reaching into per-module structs.

Metric names follow the span naming convention: ``phase.subphase``
(see ``DESIGN.md`` section "Observability").

Like the tracer, the module keeps a process-global default registry.
Publishing is cheap (a dict lookup plus an add) and happens at phase
boundaries, not in inner loops, so the registry is always on.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Optional
from repro.check.errors import ContractError, ContractTypeError


class Counter:
    """Monotonically increasing integer metric."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ContractError("counters only increase; use a gauge")
        self.value += amount

    def as_dict(self) -> Dict[str, Any]:
        return {"type": "counter", "value": self.value}


class Gauge:
    """Last-write-wins scalar metric."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value: Optional[float] = None

    def set(self, value: float) -> None:
        self.value = value

    def as_dict(self) -> Dict[str, Any]:
        return {"type": "gauge", "value": self.value}


class Histogram:
    """Streaming summary: count / sum / min / max / mean."""

    __slots__ = ("name", "count", "total", "min", "max")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "type": "histogram",
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "mean": self.mean if self.count else None,
        }


class MetricsRegistry:
    """Get-or-create registry of named metrics.

    A name is bound to one metric kind for the registry's lifetime;
    asking for the same name as a different kind raises ``TypeError``
    (silent aliasing would corrupt exported values).
    """

    def __init__(self):
        self._metrics: Dict[str, Any] = {}

    def _get(self, name: str, cls):
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name)
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise ContractTypeError(
                "metric %r is a %s, not a %s"
                % (name, type(metric).__name__, cls.__name__)
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold ``other``'s metrics into this registry.

        Counters sum, gauges take the other registry's value when it
        has one (last-write-wins, matching :meth:`Gauge.set`), and
        histograms concatenate their streams (count and sum add,
        min/max widen).  Kind mismatches raise
        :class:`~repro.check.errors.ContractTypeError` just like
        aliased lookups do.  This is how per-shard worker registries
        fold into the parent without losing ``dme.*`` / ``oracle.*``
        totals.
        """
        for name in other.names():
            metric = other._metrics[name]
            if isinstance(metric, Counter):
                self.counter(name).inc(metric.value)
            elif isinstance(metric, Gauge):
                if metric.value is not None:
                    self.gauge(name).set(metric.value)
            elif isinstance(metric, Histogram):
                mine = self.histogram(name)
                mine.count += metric.count
                mine.total += metric.total
                if metric.min < mine.min:
                    mine.min = metric.min
                if metric.max > mine.max:
                    mine.max = metric.max
            else:  # pragma: no cover - registry only creates the three
                raise ContractTypeError(
                    "metric %r has unknown kind %s"
                    % (name, type(metric).__name__)
                )

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def names(self):
        return sorted(self._metrics)

    def as_dict(self) -> Dict[str, Dict[str, Any]]:
        """All metrics, keyed by name (sorted), values via ``as_dict``."""
        return {name: self._metrics[name].as_dict() for name in self.names()}


#: Process-global registry; always on (publishing is phase-boundary cheap).
_global_registry = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-global metrics registry."""
    return _global_registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Install ``registry`` globally; returns the previous one."""
    global _global_registry
    previous = _global_registry
    _global_registry = registry
    return previous
