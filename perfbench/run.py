"""End-to-end and per-layer benchmark of the gated clock router.

Run from the repository root::

    python3 perfbench/run.py --workload r3-gatered-refine --seed 0 --seconds 60 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line
before it records the run's configuration (workload, sink count,
scale, seeds, knob, moves, shards, workers, ``cpu_count``, Python and
NumPy versions) and the host-speed probe, so every number can be read
beside the setting that produced it.

Workloads (all use ``date98_technology()``, ``candidate_limit=16`` and
``audit=True``):

* ``r4-gated`` -- full-scale r4 (1903 sinks), fully gated
  ``route_gated``: one large greedy merge on the vectorized
  exact-screen path, where ``build_gated_tree`` is about 97 % of the
  flow, so merger work shows at paper scale with refine, sharding and
  gate reduction bypassed.
* ``r3-gatered-refine`` -- full-scale r3 (862 sinks) with the paper's
  best flow (merge-time gate reduction, knob 0.5) plus the 200-move
  refine post-pass: its non-uniform cell policy declines the exact
  screen, so it is the one workload on the bound-screen/scalar-plan
  merger path, and it measures what refine costs against what it buys.
* ``synth2k-sharded`` -- a 2000-sink synthetic case routed as four
  500-sink shards on ``min(2, cpu_count)`` pool workers with
  post-stitch demotion: the same merger used differently (small
  merges, many-to-one module masks) plus partition, pickling, stitch
  and demotion, so a change that helps only large merges or touches
  the pool shows here and not on ``r4-gated``.
* ``synth1k-sharded-inline`` -- the same flow on a 1000-sink case
  (four 250-sink shards, still many sinks per module) with one worker,
  so the shards route inline in this process: partition, stitch,
  demotion and the small merges are timed where the host-speed
  samples below can follow them.

``BENCHMARK.json`` lists ``r3-gatered-refine`` and
``synth1k-sharded-inline``.  The other two run by hand.  ``r4-gated``
fits only six or seven 7-9 s routes in a run, and its merger layers
are measured on ``r3-gatered-refine`` too.  On ``synth2k-sharded``
the pool workers run on the cores the samples are taken on, so the
samples measure contention, not host speed, and its time cannot be
normalized.

``--seed n`` draws the workload's 10k-cycle instruction stream (the
activity tables and oracle are built from it); the sink placement is
the benchmark's fixed one.  ``n = 0`` is the program's default stream
and reproduces the pinned W of each workload, which is then checked.

The shared host runs the same route up to twice as slow for seconds
to minutes at a time, so raw wall times of identical code spread by
30-40 % across runs.  While the routes run, a timer samples the host's
speed ten times a second with a fixed probe loop (:class:`HostClock`),
and each timed interval is rescaled by the mean probe time within it
to a fixed reference speed.

End-to-end metrics (``--trace 0``): ``route_s`` is the median over the
run's repeats of one full flow call's wall time (audit included) at
the reference speed, after a warm-up and a ``gc.collect()`` before
each repeat; ``setup_s`` the median input-generation time at the
reference speed; ``peak_rss_mb`` the process's peak RSS plus the
largest pool worker's; ``W_pF`` and ``area_mlambda2`` the paper's
objective and the layout area, which a speed change must leave
unchanged.  The raw wall times are in the configuration line.  Every
timed route is checked -- a raised error, an audit
finding, skew beyond ``repro.check.tolerance``, a cycle-simulator
replay off analytic W by more than 1e-9 relative, or pins differing
between repeats count as a failed route, never a crash.

Per-layer metrics (``--trace 1``) come from a separate run that
composes each flow from the same public calls the program's flow
makes, times each call here, and reads the spans and counters the
program already publishes.  Which end-to-end metric each should move:

* ``route_s`` on ``r4-gated`` and ``r3-gatered-refine``:
  ``cts.build_tree_s`` and inside it ``dme.init_best_s``,
  ``dme.merge_loop_s``, ``dme.embed_s``; the merger counters
  ``dme.heap_pops``, ``dme.stale_pop_ratio``, ``dme.plans_computed``,
  ``dme.plan_cache_hits``, ``dme.kernel_candidates``,
  ``dme.kernel_fallback_ratio``, ``dme.pruned_probes``,
  ``dme.cost_probes``, ``dme.orphan_recomputes``,
  ``dme.index_cells_scanned``; and ``activity.oracle_hit_ratio``.
* ``route_s`` and ``W_pF`` on ``r3-gatered-refine``:
  ``refine.anneal_s``, ``refine.moves_accepted``,
  ``refine.moves_infeasible``, ``refine.reembeds``,
  ``refine.improvement_pF``.
* ``route_s`` on ``synth1k-sharded-inline`` and ``synth2k-sharded``:
  ``shard.partition_s``, ``shard.route_s``, ``shard.worker_busy_s``,
  ``shard.parallel_eff`` (1 when inline), ``shard.stitch_s``,
  ``core.reduce_s``, ``gating.gates_pruned``; inline, also the
  merger layers above.
* ``route_s`` on every workload: ``core.enables_s``,
  ``core.measure_s``, ``check.audit_s``.
* ``setup_s``: ``bench.case_s``.
* Diagnostics that move no metric: ``obs.trace_overhead`` (fastest
  traced flow time over the fastest untraced wall time, minus 1),
  ``obs.layer_coverage``
  (share of the traced flow time the layer timers cover) and
  ``host.probe_before_s`` / ``host.probe_after_s``, a fixed
  Python/NumPy loop timed after the warm-up and after the last route,
  a diagnostic of the host's speed during the run.

A layer a workload does not run reports 0; so do the ``dme.*`` spans
on ``synth2k-sharded``, whose merges run in untraced pool workers
(``shard.route_s`` covers them; the counters are folded back).
"""

from __future__ import annotations

import os

# Pin native thread pools before NumPy loads, so two pool workers never
# oversubscribe two cores.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import argparse
import gc
import json
import platform
import resource
import signal
import statistics
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

try:
    import numpy as np

    import repro
    from repro.activity.probability import ActivityOracle
    from repro.activity.stream import InstructionStream
    from repro.activity.tables import ActivityTables
    from repro.bench.cpu_model import CpuModel, CpuModelConfig
    from repro.bench.suite import DEFAULT_STREAM_LENGTH, load_benchmark
    from repro.bench.synthetic import (
        MAX_MODULES,
        NUM_INSTRUCTIONS,
        generate_synthetic_case,
    )
    from repro.check.auditor import audit_network
    from repro.check.tolerance import relatively_close
    from repro.check.validate import validate_sinks, validate_technology
    from repro.core.controller import ControllerLayout, route_enables
    from repro.core.flow import (
        AreaBreakdown,
        ClockRoutingResult,
        route_gated,
        route_sharded,
    )
    from repro.core.gate_reduction import GateReductionPolicy, apply_gate_reduction
    from repro.core.gated_routing import build_gated_tree
    from repro.core.switched_cap import SwitchedCapBreakdown, clock_tree_switched_cap
    from repro.cts.refine import RefineConfig, refine_tree
    from repro.cts.sharded import partition_sinks, route_shards, stitch_shards
    from repro.obs import (
        MetricsRegistry,
        Tracer,
        canonical_dumps,
        set_registry,
        set_tracer,
    )
    from repro.sim import ClockNetworkSimulator
    from repro.tech.presets import date98_technology
except ImportError as exc:
    sys.exit("perfbench: cannot import the router from %s: %s" % (SRC, exc))

if Path(repro.__file__).resolve().parent.parent != SRC:
    sys.exit("perfbench: imported repro from %s, not %s" % (repro.__file__, SRC))

#: The CLI's default k-NN candidate restriction.
CANDIDATE_LIMIT = 16

#: ``CpuModel.stream`` seeds its default trace with ``config.seed`` plus
#: this offset; ``--seed 0`` must reproduce that trace.
STREAM_SEED_OFFSET = 7919

#: Relative tolerance of the simulator replay against analytic W.
SIM_REL_TOL = 1e-9

#: Cycles per simulator replay chunk.
REPLAY_CHUNK = 500

#: W pins of the full-size workloads at ``--seed 0`` are compared to
#: this absolute tolerance, pF.
PIN_ABS_TOL = 1e-6

WARMUP_S = 2.0
SETUP_SAMPLES = 3

#: Host-speed sampling during the timed loop (see :class:`HostClock`).
SAMPLE_PERIOD_S = 0.1
SAMPLE_ROUNDS = 300
MIN_WINDOW_S = 1.0
#: The reference speed: a ``SAMPLE_ROUNDS``-round probe loop takes this
#: long, seconds.  On the 2-vCPU Intel Xeon VM (Python 3.11, NumPy 2.4)
#: the benchmark was tuned on it took 1.8-2.4 ms, so times there read
#: close to wall time.
PROBE_REF_S = 0.002

END_TO_END = {
    "route_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "W_pF": "pF",
    "area_mlambda2": "mlambda2",
}

PER_LAYER = {
    "cts.build_tree_s": "s",
    "dme.init_best_s": "s",
    "dme.merge_loop_s": "s",
    "dme.embed_s": "s",
    "dme.heap_pops": "count",
    "dme.stale_pop_ratio": "ratio",
    "dme.plans_computed": "count",
    "dme.plan_cache_hits": "count",
    "dme.kernel_candidates": "count",
    "dme.kernel_fallback_ratio": "ratio",
    "dme.pruned_probes": "count",
    "dme.cost_probes": "count",
    "dme.orphan_recomputes": "count",
    "dme.index_cells_scanned": "count",
    "activity.oracle_hit_ratio": "ratio",
    "refine.anneal_s": "s",
    "refine.moves_accepted": "count",
    "refine.moves_infeasible": "count",
    "refine.reembeds": "count",
    "refine.improvement_pF": "pF",
    "shard.partition_s": "s",
    "shard.route_s": "s",
    "shard.worker_busy_s": "s",
    "shard.parallel_eff": "ratio",
    "shard.stitch_s": "s",
    "core.reduce_s": "s",
    "gating.gates_pruned": "count",
    "core.enables_s": "s",
    "core.measure_s": "s",
    "check.audit_s": "s",
    "bench.case_s": "s",
    "obs.trace_overhead": "ratio",
    "obs.layer_coverage": "ratio",
    "host.probe_before_s": "s",
    "host.probe_after_s": "s",
}

#: Flow calls the traced run times itself; they partition the flow.
FLOW_LAYERS = (
    "cts.build_tree_s",
    "shard.partition_s",
    "shard.route_s",
    "shard.stitch_s",
    "core.reduce_s",
    "refine.anneal_s",
    "core.enables_s",
    "core.measure_s",
    "check.audit_s",
)

#: Program spans read back from the trace, summed by name.  Pool
#: workers run untraced, so these read 0 on the sharded workload,
#: whose merges ``shard.route_s`` covers.
DME_SPANS = {
    "dme.init_best_s": "dme.init_best",
    "dme.merge_loop_s": "dme.merge_loop",
    "dme.embed_s": "dme.embed",
}

#: Program counters read back from the metrics registry.
PROGRAM_COUNTERS = {
    "dme.heap_pops": "dme.heap_pops",
    "dme.plans_computed": "dme.plans_computed",
    "dme.plan_cache_hits": "dme.plan_cache_hits",
    "dme.kernel_candidates": "dme.kernel_candidates",
    "dme.pruned_probes": "dme.pruned_probes",
    "dme.cost_probes": "dme.cost_probes",
    "dme.orphan_recomputes": "dme.orphan_recomputes",
    "dme.index_cells_scanned": "dme.index.cells_scanned",
    "gating.gates_pruned": "gating.gates_pruned",
}


@dataclass(frozen=True)
class Workload:
    """One benchmark configuration; the sink source is an r benchmark
    (``benchmark``) or a synthetic case (``synthetic_sinks``)."""

    name: str
    benchmark: Optional[str] = None
    scale: float = 1.0
    synthetic_sinks: int = 0
    synthetic_seed: int = 0
    knob: Optional[float] = None
    reduction_mode: str = "merge"
    refine_moves: int = 0
    refine_seed: int = 1
    shards: int = 0
    workers: int = 2
    pinned_w_pf: Optional[float] = None

    def reduction(self, tech) -> Optional[GateReductionPolicy]:
        if self.knob is None:
            return None
        return GateReductionPolicy.from_knob(self.knob, tech)

    def refine_config(self) -> Optional[RefineConfig]:
        if not self.refine_moves:
            return None
        return RefineConfig(moves=self.refine_moves, seed=self.refine_seed)

    @property
    def method(self) -> str:
        if self.shards:
            return "sharded"
        return "gated" if self.knob is None else "gate-red"


WORKLOADS = {
    w.name: w
    for w in (
        Workload("r4-gated", benchmark="r4", pinned_w_pf=2261.245240),
        Workload(
            "r3-gatered-refine",
            benchmark="r3",
            knob=0.5,
            reduction_mode="merge",
            refine_moves=200,
            pinned_w_pf=603.637571,
        ),
        Workload(
            "synth2k-sharded",
            synthetic_sinks=2000,
            synthetic_seed=2,
            knob=0.5,
            reduction_mode="demote",
            shards=4,
            pinned_w_pf=1295.008117,
        ),
        Workload(
            "synth1k-sharded-inline",
            synthetic_sinks=1000,
            synthetic_seed=2,
            knob=0.5,
            reduction_mode="demote",
            shards=4,
            workers=1,
            pinned_w_pf=586.482810,
        ),
    )
}


@dataclass(frozen=True)
class Case:
    """Generated inputs of one route: sinks, die, trace and oracle."""

    sinks: tuple
    die: object
    stream: object
    oracle: ActivityOracle
    stream_seed: int


def make_case(workload: Workload, seed: int) -> Case:
    """Sinks, CPU model, ``seed``-drawn 10k-cycle stream, tables, oracle.

    A fresh oracle per route keeps its memo caches cold, as they are
    for a user's single flow call.
    """
    if workload.synthetic_sinks:
        synth = generate_synthetic_case(
            workload.synthetic_sinks, seed=workload.synthetic_seed
        )
        # generate_synthetic_case keeps only the ISA; rebuild its CPU
        # model to draw a stream with another seed.
        cpu = CpuModel(
            CpuModelConfig(
                num_modules=min(workload.synthetic_sinks, MAX_MODULES),
                num_instructions=NUM_INSTRUCTIONS,
                seed=workload.synthetic_seed,
            )
        )
        if cpu.isa.masks != synth.isa.masks:
            raise RuntimeError("rebuilt CPU model differs from the synthetic case's")
        sinks, die = tuple(synth.sinks), synth.die
    else:
        bench = load_benchmark(workload.benchmark, scale=workload.scale)
        cpu, sinks, die = bench.cpu, bench.sinks, bench.die
    stream_seed = cpu.config.seed + STREAM_SEED_OFFSET + seed
    stream = cpu.stream(DEFAULT_STREAM_LENGTH, seed=stream_seed)
    oracle = ActivityOracle(ActivityTables.from_stream(cpu.isa, stream))
    return Case(sinks=sinks, die=die, stream=stream, oracle=oracle, stream_seed=stream_seed)


def pool_workers(workload: Workload) -> int:
    """Shard workers; one routes the shards inline, in this process."""
    return min(workload.workers, os.cpu_count() or 1) if workload.shards else 0


def route_public(workload: Workload, case: Case, tech) -> ClockRoutingResult:
    """One call of the program's own flow, as a user makes it."""
    if workload.shards:
        return route_sharded(
            case.sinks,
            tech,
            case.oracle,
            die=case.die,
            num_shards=workload.shards,
            num_workers=pool_workers(workload),
            reduction=workload.reduction(tech),
            reduction_mode=workload.reduction_mode,
            candidate_limit=CANDIDATE_LIMIT,
            audit=True,
        )
    return route_gated(
        case.sinks,
        tech,
        case.oracle,
        die=case.die,
        reduction=workload.reduction(tech),
        reduction_mode=workload.reduction_mode,
        candidate_limit=CANDIDATE_LIMIT,
        audit=True,
        refine=workload.refine_config(),
    )


class Layers:
    """Per-layer values of one traced route: timed calls and counts."""

    def __init__(self):
        self.values: Dict[str, float] = {name: 0.0 for name in PER_LAYER}

    @contextmanager
    def timed(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.values[name] += time.perf_counter() - start


def measure(method: str, tree, tech, routing) -> ClockRoutingResult:
    """The flow's result record, derived as ``repro.core.flow`` does."""
    wirelength = tree.total_wirelength()
    delays = [s.delay for s in tree.elmore_evaluator().sink_delays()]
    return ClockRoutingResult(
        method=method,
        tree=tree,
        routing=routing,
        switched_cap=SwitchedCapBreakdown(
            clock_tree=clock_tree_switched_cap(tree, tech),
            controller_tree=routing.switched_cap,
        ),
        area=AreaBreakdown(
            clock_wire=tech.wire_area(wirelength),
            controller_wire=tech.wire_area(routing.wirelength),
            cells=tree.cell_area(),
        ),
        skew=max(delays) - min(delays),
        phase_delay=max(delays),
        wirelength=wirelength,
        gate_count=tree.gate_count(),
        cell_count=tree.cell_count(),
        num_sinks=len(tree.sinks()),
    )


@dataclass
class TracedRoute:
    result: ClockRoutingResult
    total_s: float
    layers: Dict[str, float]


def route_composed(workload: Workload, case: Case, tech, layers: Layers) -> ClockRoutingResult:
    """The flow rebuilt from its public calls, each timed into ``layers``.

    Mirrors ``route_gated`` / ``route_sharded`` call for call, so the
    result pins equal the public flow's byte for byte.
    """
    sinks, oracle = case.sinks, case.oracle
    validate_sinks(sinks, num_modules=oracle.isa.num_modules)
    validate_technology(tech, strict=True)
    layout = ControllerLayout.centralized(case.die)
    reduction = workload.reduction(tech)
    if workload.shards:
        with layers.timed("shard.partition_s"):
            plan = partition_sinks(sinks, workload.shards)
        with layers.timed("shard.route_s"):
            shards = route_shards(
                sinks,
                plan,
                tech,
                oracle,
                controller_point=case.die.center,
                num_workers=pool_workers(workload),
                candidate_limit=CANDIDATE_LIMIT,
            )
        layers.values["shard.worker_busy_s"] = sum(s.seconds for s in shards)
        with layers.timed("shard.stitch_s"):
            tree = stitch_shards(shards, plan, tech, oracle)
    else:
        merge_policy = reduction if workload.reduction_mode == "merge" else None
        with layers.timed("cts.build_tree_s"):
            tree = build_gated_tree(
                sinks,
                tech,
                oracle,
                controller_point=case.die.center,
                cell_policy=merge_policy,
                candidate_limit=CANDIDATE_LIMIT,
            )
    if reduction is not None and workload.reduction_mode != "merge":
        with layers.timed("core.reduce_s"):
            apply_gate_reduction(tree, reduction, mode=workload.reduction_mode)
    assignment = None
    if workload.refine_moves:
        with layers.timed("refine.anneal_s"):
            tree, assignment, refined = refine_tree(
                tree, tech, oracle, layout, workload.refine_config()
            )
        layers.values["refine.moves_accepted"] = refined.moves_accepted
        layers.values["refine.moves_infeasible"] = refined.moves_infeasible
        layers.values["refine.reembeds"] = refined.reembeds
        layers.values["refine.improvement_pF"] = refined.improvement
    with layers.timed("core.enables_s"):
        routing = route_enables(tree, layout, tech, assignment=assignment)
    with layers.timed("core.measure_s"):
        result = measure(workload.method, tree, tech, routing)
    with layers.timed("check.audit_s"):
        audit_network(tree, routing=routing).raise_if_failed()
    return result


def route_traced(workload: Workload, case: Case, tech) -> TracedRoute:
    """Run the composed flow with program tracing on; collect layers."""
    tracer, registry = Tracer(enabled=True), MetricsRegistry()
    previous_tracer, previous_registry = set_tracer(tracer), set_registry(registry)
    layers = Layers()
    try:
        start = time.perf_counter()
        result = route_composed(workload, case, tech, layers)
        total = time.perf_counter() - start
    finally:
        set_tracer(previous_tracer)
        set_registry(previous_registry)
    values = layers.values
    for metric, span in DME_SPANS.items():
        values[metric] = sum(s.duration_ns for s in tracer.spans if s.name == span) / 1e9
    counters = registry.as_dict()

    def count(name: str) -> int:
        return counters.get(name, {}).get("value", 0)

    for metric, name in PROGRAM_COUNTERS.items():
        values[metric] = count(name)
    values["dme.stale_pop_ratio"] = _ratio(count("dme.stale_entries"), count("dme.heap_pops"))
    values["dme.kernel_fallback_ratio"] = _ratio(
        count("dme.kernel_scalar_fallbacks"), count("dme.kernel_candidates")
    )
    infos = case.oracle.cache_info().values()
    values["activity.oracle_hit_ratio"] = _ratio(
        sum(i.hits for i in infos), sum(i.hits + i.misses for i in infos)
    )
    workers = pool_workers(workload)
    if workers:
        values["shard.parallel_eff"] = _ratio(
            values["shard.worker_busy_s"], values["shard.route_s"] * workers
        )
    values["obs.layer_coverage"] = sum(values[name] for name in FLOW_LAYERS) / total
    return TracedRoute(result=result, total_s=total, layers=values)


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def check_route(result: ClockRoutingResult, case: Case, tech) -> List[str]:
    """Independent checks of one routed network; returns the problems.

    The audit runs inside the flow (``audit=True``) and raises.
    """
    problems = []
    if not relatively_close(result.phase_delay, result.phase_delay - result.skew):
        problems.append(
            "skew %.3e exceeds the tolerance at phase delay %.6g"
            % (result.skew, result.phase_delay)
        )
    simulator = ClockNetworkSimulator(
        result.tree, tech, case.oracle.isa, routing=result.routing
    )
    replayed = replay_w(simulator, case.stream.ids)
    if not relatively_close(replayed, result.switched_cap.total, rel=SIM_REL_TOL):
        problems.append(
            "simulated W %.12g differs from analytic W %.12g"
            % (replayed, result.switched_cap.total)
        )
    return problems


def replay_w(simulator, ids) -> float:
    """Mean switched capacitance of the replayed trace, pF.

    The simulator holds an enables-by-cycles matrix, so the trace is
    replayed in chunks that overlap by one cycle: each enable
    transition is counted once, and the check stays small next to the
    route whose memory ``peak_rss_mb`` measures.
    """
    clock = controller = 0.0
    for start in range(0, ids.size, REPLAY_CHUNK):
        first = max(start - 1, 0)
        part = simulator.run(InstructionStream(ids[first : start + REPLAY_CHUNK]))
        clock += part.clock_per_cycle[start - first :].sum()
        controller += part.controller_per_cycle[1:].sum()
    return clock / ids.size + controller / (ids.size - 1)


def probe_loop_s(rounds: int) -> float:
    """Wall time of a fixed pure-Python/NumPy loop of ``rounds`` rounds."""
    start = time.perf_counter()
    table: Dict[int, int] = {}
    for i in range(10 * rounds):
        table[i % 997] = table.get(i % 997, 0) + i * i % 13
    values = np.linspace(0.0, 1.0, 64)
    for _ in range(rounds):
        values = np.minimum(values * 1.0001 + 0.5, values + 1.0) - 0.5
    return time.perf_counter() - start


def host_probe_s() -> float:
    """The best of three 12000-round probe loops, seconds."""
    return min(probe_loop_s(12000) for _ in range(3))


class HostClock:
    """Samples the host's speed while the timed loop runs.

    Every ``SAMPLE_PERIOD_S`` of wall time a ``SIGALRM`` handler runs a
    ``SAMPLE_ROUNDS``-round probe loop in this process and records when
    it ran and how long it took.  :meth:`normalize` rescales an interval
    by the mean probe time within it, so a time reads as it would on
    the host speed at which the probe takes ``PROBE_REF_S``.  The mean,
    not the median, follows the short bursts in which the shared host
    runs 2x slow.  The probe costs about 2 % of the wall time, evenly.
    """

    def __init__(self):
        self.samples: List[tuple] = []
        self._previous = None

    def __enter__(self) -> "HostClock":
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def _sample(self, signum=None, frame=None) -> None:
        at = time.perf_counter()
        self.samples.append((at, probe_loop_s(SAMPLE_ROUNDS)))

    def normalize(self, start: float, seconds: float) -> float:
        """``seconds`` from ``start`` rescaled to the reference speed.

        An interval shorter than ``MIN_WINDOW_S`` is judged by the
        samples in the ``MIN_WINDOW_S`` centred on it, or by the
        nearest sample if that window holds none.
        """
        half = max(seconds, MIN_WINDOW_S) / 2.0
        middle = start + seconds / 2.0
        inside = [d for at, d in self.samples if abs(at - middle) <= half]
        if not inside:
            inside = [min(self.samples, key=lambda s: abs(s[0] - middle))[1]]
        return seconds * PROBE_REF_S / statistics.fmean(inside)


def peak_rss_mb() -> float:
    """This process's peak RSS plus the largest reaped child's, MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def warm_up(workload: Workload, tech) -> None:
    """Exercise the workload's code paths and the CPU before timing.

    The first route after the host has been idle runs 25-50 % slow.
    """
    start = time.perf_counter()
    if workload.synthetic_sinks:
        sinks = max(8 * workload.shards, workload.synthetic_sinks // 8)
        small = replace(workload, synthetic_sinks=sinks)
    else:
        small = replace(workload, scale=workload.scale / 8)
    try:
        route_public(small, make_case(small, 0), tech)
    except Exception:  # the timed routes count a failure; warm-up goes on
        traceback.print_exc(file=sys.stderr)
    while time.perf_counter() - start < WARMUP_S:
        host_probe_s()


class Tally:
    """Counts routes attempted and failed and keeps the reference pins."""

    def __init__(self, workload: Workload, seed: int, tech):
        self.workload, self.seed, self.tech = workload, seed, tech
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.pins: Optional[str] = None

    def attempt(self, label: str, route: Callable[[], object], case: Case):
        """Run ``route()`` once and check its output.

        ``route`` returns a :class:`ClockRoutingResult` or a
        :class:`TracedRoute`.  A raised error or a failed check counts
        the route as failed and returns ``None`` in place of the
        outcome; it never ends the run.  Returns ``(outcome, start,
        seconds)`` of the route call.
        """
        self.attempted += 1
        gc.collect()
        start = time.perf_counter()
        elapsed = None
        try:
            outcome = route()
            elapsed = time.perf_counter() - start
            result = outcome.result if isinstance(outcome, TracedRoute) else outcome
            problems = check_route(result, case, self.tech)
        except Exception:  # a failed route or check is counted; the run goes on
            if elapsed is None:
                elapsed = time.perf_counter() - start
            traceback.print_exc(file=sys.stderr)
            self._fail(label, [traceback.format_exc().strip().splitlines()[-1]])
            return None, start, elapsed
        pins = canonical_dumps(result.pins())
        if self.pins is None:
            self.pins = pins
        elif pins != self.pins:
            problems.append("result pins differ from the first route's")
        pinned = self.workload.pinned_w_pf
        if pinned is not None and self.seed == 0:
            if abs(result.switched_cap.total - pinned) > PIN_ABS_TOL:
                problems.append(
                    "W %.6f pF differs from the pinned %.6f pF"
                    % (result.switched_cap.total, pinned)
                )
        if problems:
            self._fail(label, problems)
            return None, start, elapsed
        return outcome, start, elapsed

    def _fail(self, label: str, problems: List[str]) -> None:
        self.failed += 1
        self.problems.extend("%s: %s" % (label, p) for p in problems)


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Warm up, then route and check until ``seconds`` have passed.

    Always completes one repeat (with ``trace``, one untraced and one
    traced route); another starts only if the slowest repeat so far
    still fits before the deadline.
    """
    deadline = time.perf_counter() + seconds
    tech = date98_technology()
    warm_up(workload, tech)
    probe_before = host_probe_s()
    setups: List[tuple] = []

    def timed_case() -> Case:
        start = time.perf_counter()
        case = make_case(workload, seed)
        setups.append((start, time.perf_counter() - start))
        return case

    tally = Tally(workload, seed, tech)
    routes: List[tuple] = []
    traced: List[TracedRoute] = []
    result = None
    slowest = 0.0
    with HostClock() as clock:
        while not routes or time.perf_counter() + slowest <= deadline:
            begin = time.perf_counter()
            # Several set-ups per repeat spread the set-up samples over
            # the run, so their median does not hang on one moment.
            for _ in range(SETUP_SAMPLES):
                case = timed_case()
            routed, start, elapsed = tally.attempt(
                "route", lambda: route_public(workload, case, tech), case
            )
            routes.append((start, elapsed))
            if routed is not None:
                result = routed
            if trace:
                case = timed_case()
                outcome, _, _ = tally.attempt(
                    "traced route", lambda: route_traced(workload, case, tech), case
                )
                if outcome is not None:
                    traced.append(outcome)
            slowest = max(slowest, time.perf_counter() - begin)
    probe_after = host_probe_s()
    route_walls = [elapsed for _, elapsed in routes]
    route_times = [clock.normalize(*route) for route in routes]
    setup_s = statistics.median(clock.normalize(*setup) for setup in setups)
    config = describe(workload, seed, case)
    config.update(
        repeats=len(routes),
        route_wall_s_each=route_walls,
        route_s_each=route_times,
        host_samples=len(clock.samples),
        host_sample_mean_s=statistics.fmean(d for _, d in clock.samples),
        host_probe_before_s=probe_before,
        host_probe_after_s=probe_after,
        problems=tally.problems,
    )
    if trace:
        if traced:
            best = min(traced, key=lambda t: t.total_s)
            layers = dict(best.layers)
            layers["obs.trace_overhead"] = best.total_s / min(route_walls) - 1.0
            config["traced_total_s_each"] = [t.total_s for t in traced]
        else:
            layers = {name: 0.0 for name in PER_LAYER}
        layers["bench.case_s"] = setup_s
        layers["host.probe_before_s"] = probe_before
        layers["host.probe_after_s"] = probe_after
        metrics = {name: layers[name] for name in PER_LAYER}
        units = PER_LAYER
    else:
        metrics = {
            "route_s": statistics.median(route_times),
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb(),
            "W_pF": result.switched_cap.total if result is not None else 0.0,
            "area_mlambda2": result.area.total / 1e6 if result is not None else 0.0,
        }
        units = END_TO_END
    return {
        "config": config,
        "result": {
            "correct": tally.failed == 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {
                name: {"value": float(value), "unit": units[name]}
                for name, value in metrics.items()
            },
        },
    }


def describe(workload: Workload, seed: int, case: Case) -> dict:
    """The configuration a row of numbers belongs to."""
    return {
        "workload": workload.name,
        "sinks": len(case.sinks),
        "source": workload.benchmark or "synthetic",
        "scale": workload.scale,
        "synthetic_seed": workload.synthetic_seed if workload.synthetic_sinks else None,
        "seed": seed,
        "stream_seed": case.stream_seed,
        "stream_cycles": DEFAULT_STREAM_LENGTH,
        "candidate_limit": CANDIDATE_LIMIT,
        "knob": workload.knob,
        "reduction_mode": workload.reduction_mode if workload.knob is not None else None,
        "refine_moves": workload.refine_moves,
        "refine_seed": workload.refine_seed if workload.refine_moves else None,
        "shards": workload.shards,
        "workers": pool_workers(workload),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    report = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"config": report["config"]}))
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
