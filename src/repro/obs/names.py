"""The checked-in catalog of span and metric names.

Every span or metric name the library emits must be registered here.
Two consumers enforce that:

* the ``REP004`` rule (``tests/test_invariants.py``) statically checks
  that every *literal* name passed to ``span()`` / ``counter()`` /
  ``gauge()`` / ``histogram()`` matches the dotted lowercase
  convention and appears below (dynamic names must carry a registered
  literal prefix);
* ``tests/test_lint_obs_catalog.py`` routes a benchmark with tracing
  and metrics on and asserts every name observed *live* is covered.

Names follow ``phase.subphase`` -- lowercase ``[a-z_]`` segments
joined by dots (two or more segments; deeper nesting such as
``oracle.signal.hits`` is allowed).  Dynamically composed families
(e.g. ``"dme." + key`` over :meth:`MergerStats.snapshot` keys,
``"oracle.%s." % memo`` over the oracle's three memos) are
covered by the prefix tuples instead of exhaustive enumeration.
"""

from __future__ import annotations

import re

#: The naming convention every span/metric name must match.
NAME_PATTERN = re.compile(r"^[a-z_]+(\.[a-z_]+)+$")

#: Every span name opened by the library (see ``repro.obs.tracer``).
SPAN_NAMES = frozenset(
    {
        "controller.star",
        "dme.embed",
        "dme.init_best",
        "dme.merge",
        "dme.merge_loop",
        "flow.audit",
        "flow.measure",
        "flow.route_buffered",
        "flow.route_gated",
        "flow.route_sharded",
        "gating.reduce",
        "refine.anneal",
        "shard.partition",
        "shard.route",
        "shard.one",
        "shard.stitch",
        "sim.build",
        "sim.replay",
        "topology.buffered",
        "topology.gated",
    }
)

#: Literal prefixes under which spans may be composed dynamically.
SPAN_PREFIXES = ()

#: Every metric name published with a full literal.
METRIC_NAMES = frozenset(
    {
        "controller.star_edge_length",
        "dme.init_best.runs",
        "gating.gates_pruned",
        "ledger.runs_recorded",
        "sentinel.comparisons",
        "sentinel.regressions_found",
        "shard.count",
        "shard.route_seconds",
        "shard.sinks",
        "shard.stitch_merges",
        "shard.workers",
        "sim.cycles_replayed",
        "sizing.engaged",
        "sizing.resized",
    }
)

#: Literal prefixes of dynamically composed metric families:
#: ``dme.*`` carries :meth:`MergerStats.snapshot` keys, ``oracle.*``
#: the per-method LRU hit/miss/currsize gauges, ``refine.*`` the
#: annealer's move/escalation counters.
METRIC_PREFIXES = ("dme.", "oracle.", "refine.")


def is_valid_name(name: str) -> bool:
    """Does ``name`` follow the ``phase.subphase`` convention?"""
    return NAME_PATTERN.match(name) is not None


def span_name_known(name: str) -> bool:
    """Is a concrete span name covered by the catalog?"""
    return name in SPAN_NAMES or name.startswith(SPAN_PREFIXES)


def metric_name_known(name: str) -> bool:
    """Is a concrete metric name covered by the catalog?"""
    return name in METRIC_NAMES or name.startswith(METRIC_PREFIXES)

