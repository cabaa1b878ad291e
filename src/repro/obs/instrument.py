"""Bridges from the flow's ad-hoc stat structs into the registry.

Each helper translates one subsystem's counters into stable dotted
metric names.  They are called at phase boundaries (end of a merger
run, end of a routed flow), never in inner loops, and tolerate a
``None`` registry argument by falling back to the process-global one.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.obs.metrics import MetricsRegistry, get_registry


def publish_merger_stats(stats, registry: Optional[MetricsRegistry] = None) -> None:
    """Publish :class:`~repro.cts.dme.MergerStats` under ``dme.*``.

    Uses the struct's :meth:`snapshot` stable keys, so a new counter
    added to ``MergerStats`` is exported without touching this module.
    """
    registry = registry or get_registry()
    for key, value in stats.snapshot().items():
        registry.counter("dme." + key).inc(value)


def publish_merge_layers(
    layer_ns: Dict[str, int], registry: Optional[MetricsRegistry] = None
) -> None:
    """Add a merger's per-layer loop time to the ``dme.layer.*`` gauges.

    One ``dme.layer.<layer>_ns`` gauge per key of
    :attr:`~repro.cts.dme.BottomUpMerger.layer_ns`.  Gauges, so the
    sentinel's counter diff never sees timing noise; each adds to the
    value already in the registry, so a flow of several mergers (shards
    routed inline, then the stitch) reports their sum, as the summed
    ``dme.merge_loop`` spans do.
    """
    registry = registry or get_registry()
    for layer, ns in layer_ns.items():
        gauge = registry.gauge("dme.layer.%s_ns" % layer)
        gauge.set((gauge.value or 0) + ns)


def publish_oracle_cache(oracle, registry: Optional[MetricsRegistry] = None) -> None:
    """Publish the :class:`ActivityOracle` memo hit/miss gauges.

    One ``oracle.<memo>.{hits,misses,currsize}`` triple per memo of
    :meth:`~repro.activity.probability.ActivityOracle.cache_info`:
    ``activation_signature``, ``signal`` and ``transition``.

    Gauges, not counters: the memo counts are cumulative per oracle
    instance, so last-write-wins is the correct aggregation.
    """
    registry = registry or get_registry()
    for memo, info in oracle.cache_info().items():
        base = "oracle.%s." % memo
        registry.gauge(base + "hits").set(info.hits)
        registry.gauge(base + "misses").set(info.misses)
        registry.gauge(base + "currsize").set(info.currsize)
