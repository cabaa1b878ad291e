"""Observability for the routing flow: spans, metrics, run records.

Nine modules in two layers (see ``DESIGN.md``, sections
"Observability" and "Run records & regression sentinel").

Recording, live during a run:

* :mod:`repro.obs.tracer` -- hierarchical span tracing
  (``phase.subphase`` naming, ``perf_counter_ns`` timing, process
  -global default that is a true no-op until enabled);
* :mod:`repro.obs.metrics` -- named counters / gauges / histograms the
  subsystem stat structs publish into;
* :mod:`repro.obs.instrument` -- the bridges from those stat structs
  into the registry;
* :mod:`repro.obs.names` -- the checked-in catalog of span and metric
  names;
* :mod:`repro.obs.logconfig` -- one-shot ``repro`` logger setup for
  the CLI's ``--log-level``.

Keeping and comparing, after a run:

* :mod:`repro.obs.export` -- Chrome ``trace_event`` JSON and
  per-phase wall-clock profiles;
* :mod:`repro.obs.jsonio` -- the one JSON policy bench artifacts and
  run records share (schema key, float rounding, canonical encoding);
* :mod:`repro.obs.ledger` -- :class:`RunRecord`, one JSON file per
  run (``route --record OUT.json``);
* :mod:`repro.obs.sentinel` -- noise-aware RunRecord diffing behind
  ``gated-cts obs diff``.

A run's one artefact is its :class:`RunRecord` (span rows, metrics
snapshot, phase profile, pins); the Chrome trace is the one viewer
format beside it.
"""

from repro.obs.export import (
    DME_DETAIL_SPANS,
    PhaseProfile,
    PhaseRow,
    chrome_trace,
    phase_profile,
    write_chrome_trace,
)
from repro.obs.instrument import (
    publish_merge_layers,
    publish_merger_stats,
    publish_oracle_cache,
)
from repro.obs.jsonio import (
    SCHEMA_KEY,
    SCHEMA_VERSION,
    canonical_dumps,
    load_json,
    write_bench_json,
    write_json,
)
from repro.obs.ledger import (
    RunRecord,
    environment_fingerprint,
    record_from_trace,
)
from repro.obs.logconfig import LOG_LEVELS, configure_logging
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    set_registry,
)
from repro.obs.sentinel import RunDiff, compare_runs
from repro.obs.tracer import (
    NULL_SPAN,
    Span,
    SpanRecord,
    Tracer,
    disable_tracing,
    enable_tracing,
    get_tracer,
    set_tracer,
)

__all__ = [
    "Counter",
    "DME_DETAIL_SPANS",
    "Gauge",
    "Histogram",
    "LOG_LEVELS",
    "MetricsRegistry",
    "NULL_SPAN",
    "PhaseProfile",
    "PhaseRow",
    "RunDiff",
    "RunRecord",
    "SCHEMA_KEY",
    "SCHEMA_VERSION",
    "Span",
    "SpanRecord",
    "Tracer",
    "canonical_dumps",
    "chrome_trace",
    "compare_runs",
    "configure_logging",
    "disable_tracing",
    "enable_tracing",
    "environment_fingerprint",
    "get_registry",
    "get_tracer",
    "load_json",
    "phase_profile",
    "publish_merge_layers",
    "publish_merger_stats",
    "publish_oracle_cache",
    "record_from_trace",
    "set_registry",
    "set_tracer",
    "write_bench_json",
    "write_chrome_trace",
    "write_json",
]
