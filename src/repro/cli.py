"""``gated-cts``: command-line driver for the gated clock router.

Subcommands
-----------
``route``
    Route one benchmark (or an external sink file) with one method and
    print the result summary; optionally dump the tree (JSON) and a
    layout picture (SVG).
``gen``
    Write a seeded synthetic workload (sinks, ISA, instruction trace)
    that ``route --sinks`` reads back.
``characteristics``
    Print the Table 4 row(s) for the synthetic benchmarks.
``compare``
    Buffered vs gated vs gate-reduced on one benchmark (a Fig. 3 bar
    group).
``sweep``
    Gate-reduction sweep on one benchmark (the Fig. 5 data).
``audit``
    Re-verify every network invariant (skew, caps, enables, embedding,
    controller star) of a routed tree -- either a JSON dump from
    ``route --out`` or a freshly routed benchmark.  Exit code 1 when
    findings are reported.
``obs``
    The regression sentinel: ``obs diff BASELINE.json CURRENT.json``
    compares two run records with the sentinel's fixed noise
    thresholds.  Exit code 1 when a regression is detected.

Examples::

    gated-cts route --benchmark r1 --scale 0.4 --method reduced --svg out.svg
    gated-cts route --sinks my.sinks --isa my_isa.json --instr-trace my.trace
    gated-cts route --benchmark r1 --scale 0.2 --record run.json
    gated-cts compare --benchmark r2 --scale 0.4
    gated-cts sweep --benchmark r1 --scale 0.4 --points 6
    gated-cts audit --tree out.json
    gated-cts audit --benchmark r1 --scale 0.2
    gated-cts obs diff baselines/obs_r1_route.json run.json \\
        --sections pins,counters

Exit codes: 0 success, 1 findings (``audit``) or detected
regressions (``obs diff``), 2 invalid input (typed
``ReproError`` or ``OSError`` -- printed as one-line diagnostics, with
the full traceback available under ``--log-level debug``).

Observability (all routing subcommands)
---------------------------------------
``--trace OUT.json`` records a hierarchical span trace of the run and
writes it as Chrome ``trace_event`` JSON (load in ``chrome://tracing``
or Perfetto); a per-phase wall-clock table is printed as well.
``--record OUT.json`` writes the run's RunRecord (config, environment
fingerprint, phase tree, raw span rows, metrics registry snapshot --
merger plan counters, oracle cache hits, star-edge histograms, ... --
and result pins) for ``obs diff``; it is the run's one artefact.
``--log-level debug`` surfaces the library's guarded debug logging.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
from pathlib import Path
from typing import List, Optional

from repro.analysis.report import (
    ComparisonRow,
    format_characteristics,
    format_comparison,
    format_phase_times,
    format_table,
)
from repro.bench.suite import benchmark_names, load_benchmark
from repro.check.errors import InputError, ReproError
from repro.core.controller import ControllerLayout
from repro.core.flow import route_buffered, route_gated, route_sharded
from repro.core.gate_reduction import GateReductionPolicy
from repro.io.svg import save_svg
from repro.io.treejson import save_tree
from repro.obs import (
    DME_DETAIL_SPANS,
    LOG_LEVELS,
    MetricsRegistry,
    configure_logging,
    disable_tracing,
    enable_tracing,
    phase_profile,
    set_registry,
    write_chrome_trace,
)
from repro.tech.presets import date98_technology


def _add_obs(parser: argparse.ArgumentParser) -> None:
    """Observability flags, shared by every subcommand."""
    group = parser.add_argument_group("observability")
    group.add_argument(
        "--trace",
        default=None,
        metavar="OUT.json",
        help="write a Chrome trace_event span trace of the run",
    )
    group.add_argument(
        "--log-level",
        default=None,
        choices=list(LOG_LEVELS),
        help="configure the repro logger (handlers installed once)",
    )
    group.add_argument(
        "--record",
        default=None,
        metavar="OUT.json",
        help="write the RunRecord of this invocation (for 'obs diff')",
    )


class _BenchmarkOption(argparse.Action):
    """``store`` that also records the flag in ``benchmark_flags``.

    A default cannot tell an explicit ``--scale 0.4`` from an absent
    one, and ``route --sinks`` must reject the options it ignores.
    """

    def __call__(
        self,
        parser: argparse.ArgumentParser,
        namespace: argparse.Namespace,
        values: object,
        option_string: Optional[str] = None,
    ) -> None:
        setattr(namespace, self.dest, values)
        flags = getattr(namespace, "benchmark_flags", ())
        namespace.benchmark_flags = flags + (option_string,)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--benchmark",
        action=_BenchmarkOption,
        default="r1",
        choices=benchmark_names(),
        help="benchmark id",
    )
    parser.add_argument(
        "--scale",
        action=_BenchmarkOption,
        type=float,
        default=0.4,
        help="sink-count scale in (0, 1]",
    )
    parser.add_argument(
        "--activity",
        action=_BenchmarkOption,
        type=float,
        default=0.4,
        help="target average module activity",
    )
    parser.add_argument("--seed", type=int, default=None, help="benchmark seed")


def _add_limit(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--candidate-limit",
        type=int,
        default=16,
        help="k-nearest greedy candidate restriction (0 = exact greedy)",
    )


def _limit(args: argparse.Namespace) -> Optional[int]:
    return None if args.candidate_limit == 0 else args.candidate_limit


def _load_external(args: argparse.Namespace):
    """Sinks/workload from user files instead of a synthetic benchmark."""
    from repro.core.controller import Die
    from repro.io.sinkfile import read_sinks
    from repro.io.tracefile import load_workload

    from repro.check.validate import validate_sinks

    if not (args.isa and args.instr_trace):
        raise InputError("--sinks requires --isa and --instr-trace", field="sinks")
    ignored = getattr(args, "benchmark_flags", ())
    if ignored:
        raise InputError(
            "benchmark options do not apply to --sinks: %s" % ", ".join(ignored),
            field="sinks",
        )
    sinks = tuple(read_sinks(args.sinks))
    oracle = load_workload(args.isa, args.instr_trace)
    # Cross-file check: every sink's module id must exist in the ISA's
    # module universe, or the activity lookup would silently misbehave.
    validate_sinks(sinks, num_modules=oracle.isa.num_modules, source=args.sinks)
    die = Die.bounding([s.location for s in sinks])

    class _ExternalCase:
        pass

    case = _ExternalCase()
    case.sinks = sinks
    case.oracle = oracle
    case.die = die
    return case


def _cmd_route(args: argparse.Namespace) -> int:
    from repro.core.gate_sizing import GateSizingPolicy

    refine = None
    if args.refine:
        from repro.cts.refine import RefineConfig

        # One seed drives the whole pipeline: the same --seed that
        # parameterized the benchmark (or `gen`) also seeds the
        # annealer, so `gen --seed S` piped into `route --refine
        # --seed S` is reproducible end to end.
        refine = RefineConfig(
            moves=RefineConfig.moves if args.moves is None else args.moves,
            seed=args.seed if args.seed is not None else 0,
        )
    elif args.moves is not None:
        raise InputError("--moves applies to --refine only", field="moves")
    if args.gate_sizing and (args.method == "buffered" or args.shards is not None):
        raise InputError(
            "--gate-sizing applies to unsharded gated/reduced routes only",
            field="gate_sizing",
        )
    if args.workers is not None and args.shards is None:
        raise InputError("--workers applies to --shards only", field="workers")
    if (args.isa or args.instr_trace) and not args.sinks:
        raise InputError(
            "--isa and --instr-trace apply to --sinks only", field="sinks"
        )
    tech = date98_technology()
    if args.sinks:
        case = _load_external(args)
    else:
        case = load_benchmark(
            args.benchmark,
            scale=args.scale,
            target_activity=args.activity,
            seed=args.seed,
        )
    if args.method == "buffered":
        if args.refine:
            raise InputError(
                "--refine applies to the gated/reduced methods only",
                field="refine",
            )
        if args.shards is not None:
            raise InputError(
                "--shards applies to the gated/reduced methods only",
                field="shards",
            )
        result = route_buffered(
            case.sinks,
            tech,
            candidate_limit=_limit(args),
            audit=args.audit,
        )
    else:
        reduction = (
            GateReductionPolicy.from_knob(args.knob, tech)
            if args.method == "reduced"
            else None
        )
        if args.shards is not None:
            result = route_sharded(
                case.sinks,
                tech,
                case.oracle,
                die=case.die,
                num_shards=args.shards,
                num_workers=1 if args.workers is None else args.workers,
                reduction=reduction,
                num_controllers=args.controllers,
                candidate_limit=_limit(args),
                audit=args.audit,
                refine=refine,
            )
        else:
            result = route_gated(
                case.sinks,
                tech,
                case.oracle,
                die=case.die,
                reduction=reduction,
                num_controllers=args.controllers,
                candidate_limit=_limit(args),
                gate_sizing=GateSizingPolicy() if args.gate_sizing else None,
                audit=args.audit,
                refine=refine,
            )
    if args.audit:
        print("audit: clean")
    # Exposed so a --record RunRecord can pin the routed result.
    args.run_pins = result.pins()
    print(result.summary())
    if args.out:
        save_tree(result.tree, args.out)
        print("tree written to %s" % args.out)
    if args.svg:
        layout = (
            ControllerLayout.centralized(case.die)
            if args.controllers == 1
            else ControllerLayout.distributed(case.die, args.controllers)
        )
        save_svg(result.tree, args.svg, routing=result.routing, layout=layout)
        print("layout written to %s" % args.svg)
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    """Generate a seeded synthetic workload as routable input files.

    Emits ``NAME.sinks`` / ``NAME.isa.json`` / ``NAME.trace`` (with
    ``NAME = synth<N>_s<seed>``) into ``--out-dir``; feed them back
    through ``route --sinks NAME.sinks --isa NAME.isa.json
    --instr-trace NAME.trace``.  Committing the seed reproduces the
    exact files, so sharding-scale inputs never enter the repository.
    """
    import os

    from repro.bench.synthetic import generate_synthetic_case
    from repro.io.sinkfile import write_sinks
    from repro.io.tracefile import save_workload

    case = generate_synthetic_case(
        args.sinks,
        seed=args.seed,
        target_activity=args.activity,
        spread=args.spread,
        stream_length=args.stream_length,
    )
    os.makedirs(args.out_dir, exist_ok=True)
    base = os.path.join(args.out_dir, case.name)
    sinks_path = base + ".sinks"
    isa_path = base + ".isa.json"
    trace_path = base + ".trace"
    write_sinks(case.sinks, sinks_path)
    save_workload(case.isa, case.stream, isa_path, trace_path)
    args.run_pins = {
        "num_sinks": len(case.sinks),
        "seed": args.seed,
        "die_side": case.die.width,
    }
    print(
        "generated %d sinks (seed %d): %s %s %s"
        % (len(case.sinks), args.seed, sinks_path, isa_path, trace_path)
    )
    return 0


def _cmd_characteristics(args: argparse.Namespace) -> int:
    rows = {}
    names = [args.benchmark] if args.benchmark else benchmark_names()
    for name in names:
        case = load_benchmark(
            name, scale=args.scale, target_activity=args.activity, seed=args.seed
        )
        rows[name] = case.characteristics()
    print(format_characteristics(rows))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    tech = date98_technology()
    case = load_benchmark(
        args.benchmark, scale=args.scale, target_activity=args.activity, seed=args.seed
    )
    limit = _limit(args)
    results = [
        route_buffered(case.sinks, tech, candidate_limit=limit),
        route_gated(
            case.sinks,
            tech,
            case.oracle,
            die=case.die,
            candidate_limit=limit,
        ),
        route_gated(
            case.sinks,
            tech,
            case.oracle,
            die=case.die,
            candidate_limit=limit,
            reduction=GateReductionPolicy.from_knob(args.knob, tech),
        ),
    ]
    rows = [ComparisonRow.from_result(args.benchmark, r) for r in results]
    # One pin set per method, namespaced, so a --record record of a
    # compare run is diffable the same way a route record is.
    args.run_pins = {
        "%s.%s" % (result.method, key): value
        for result in results
        for key, value in result.pins().items()
    }
    print(format_comparison(rows, title="Fig. 3 comparison (%s)" % args.benchmark))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.points < 1:
        raise InputError(
            "--points must be >= 1, got %d" % args.points, field="points"
        )
    tech = date98_technology()
    case = load_benchmark(
        args.benchmark, scale=args.scale, target_activity=args.activity, seed=args.seed
    )
    limit = _limit(args)
    rows = []
    for i in range(args.points):
        knob = i / (args.points - 1) if args.points > 1 else 0.0
        result = route_gated(
            case.sinks,
            tech,
            case.oracle,
            die=case.die,
            candidate_limit=limit,
            reduction=(
                GateReductionPolicy.from_knob(knob, tech) if knob > 0 else None
            ),
        )
        rows.append(
            [
                knob,
                result.gate_reduction,
                result.switched_cap.total,
                result.switched_cap.clock_tree,
                result.switched_cap.controller_tree,
                result.area.total / 1e6,
            ]
        )
    print(
        format_table(
            ["knob", "reduction", "W total", "W clock", "W ctrl", "area (1e6)"],
            rows,
            title="Fig. 5 sweep (%s)" % args.benchmark,
        )
    )
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    """Audit a routed tree: from a JSON dump or routed fresh.

    Exit code 0 when every invariant holds, 1 when the audit ran and
    reported findings, 2 (via ``main``) when the inputs themselves are
    invalid.
    """
    from repro.check.auditor import audit_network
    from repro.check.validate import validate_technology

    if args.tree:
        from repro.io.treejson import load_tree

        tree = load_tree(args.tree)
        validate_technology(tree.tech, strict=True)
        routing = None
        what = args.tree
    else:
        tech = date98_technology()
        case = load_benchmark(
            args.benchmark,
            scale=args.scale,
            target_activity=args.activity,
            seed=args.seed,
        )
        result = route_gated(
            case.sinks,
            tech,
            case.oracle,
            die=case.die,
            candidate_limit=_limit(args),
        )
        tree = result.tree
        routing = result.routing
        what = "benchmark %s" % args.benchmark
    report = audit_network(tree, routing=routing)
    print("auditing %s" % what)
    print(report.summary())
    return 0 if report.ok else 1


def _cmd_obs_diff(args: argparse.Namespace) -> int:
    """Compare two record files: 0 clean, 1 regressed, 2 bad input."""
    from repro.obs import RunRecord, compare_runs
    from repro.obs.sentinel import ALL_SECTIONS

    sections = ALL_SECTIONS
    if args.sections is not None:
        sections = tuple(s.strip() for s in args.sections.split(",") if s.strip())
    baseline = RunRecord.load(args.baseline)
    current = RunRecord.load(args.current)
    diff = compare_runs(baseline, current, sections=sections)
    print("obs diff: %s -> %s" % (args.baseline, args.current))
    print(diff.report())
    return diff.exit_code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gated-cts",
        description="Gated zero-skew clock routing (Oh & Pedram, DATE 1998)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_route = sub.add_parser("route", help="route one benchmark")
    _add_common(p_route)
    _add_limit(p_route)
    _add_obs(p_route)
    p_route.add_argument(
        "--gate-sizing",
        action="store_true",
        help="resize gates instead of snaking wire on unbalanced merges "
        "(gated/reduced methods, unsharded)",
    )
    p_route.add_argument(
        "--audit",
        action="store_true",
        help="re-verify every network invariant after routing "
        "(skew, caps, enables, embedding, controller star); a typed "
        "error is raised on the first violation",
    )
    p_route.add_argument(
        "--sinks", default=None, help="external sink file (see repro.io.sinkfile)"
    )
    p_route.add_argument(
        "--isa", default=None, help="external ISA JSON (see repro.io.tracefile)"
    )
    p_route.add_argument(
        "--instr-trace",
        default=None,
        help="external instruction trace file (was --trace; that flag now "
        "writes a span trace)",
    )
    p_route.add_argument(
        "--method",
        default="reduced",
        choices=["buffered", "gated", "reduced"],
        help="routing method",
    )
    p_route.add_argument("--knob", type=float, default=0.5, help="reduction knob")
    p_route.add_argument(
        "--controllers", type=int, default=1, help="number of controllers (power of 2)"
    )
    p_route.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="K",
        help="partition into K spatial shards, route each shard's gated "
        "subtree independently and stitch with the exact zero-skew "
        "top-tree merge (gated/reduced methods only; K=1 reproduces the "
        "unsharded tree byte-for-byte; for reduced, the shard routers and "
        "the stitch apply the reduction as they merge)",
    )
    p_route.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="W",
        help="worker processes for --shards (default 1 = route shards "
        "inline; requires --shards)",
    )
    p_route.add_argument(
        "--refine",
        action="store_true",
        help="anneal the finished gated/reduced tree with the "
        "refinement post-pass (NNI subtree swaps, gate insertion/"
        "removal, controller reassignment); never worse than the "
        "greedy tree, byte-deterministic for a fixed --seed",
    )
    p_route.add_argument(
        "--moves",
        type=int,
        default=None,
        metavar="N",
        help="move budget for --refine (default 200; requires --refine)",
    )
    p_route.add_argument("--out", default=None, help="write the tree as JSON")
    p_route.add_argument("--svg", default=None, help="write a layout SVG")
    p_route.set_defaults(func=_cmd_route)

    p_gen = sub.add_parser(
        "gen",
        help="generate a seeded synthetic workload (clustered sinks + "
        "ISA + instruction trace) for sharding-scale runs",
    )
    _add_obs(p_gen)
    p_gen.add_argument(
        "--sinks", type=int, required=True, metavar="N", help="number of sinks"
    )
    p_gen.add_argument("--seed", type=int, default=0, help="generator seed")
    p_gen.add_argument(
        "--activity", type=float, default=0.4, help="target average module activity"
    )
    p_gen.add_argument(
        "--spread",
        type=float,
        default=0.08,
        help="placement-blob sigma as a fraction of the die side",
    )
    p_gen.add_argument(
        "--stream-length", type=int, default=10000, help="instruction-trace length"
    )
    p_gen.add_argument(
        "--out-dir",
        default=".",
        help="directory receiving NAME.sinks / NAME.isa.json / NAME.trace",
    )
    p_gen.set_defaults(func=_cmd_gen)

    p_chars = sub.add_parser("characteristics", help="Table 4 rows")
    _add_common(p_chars)
    _add_obs(p_chars)
    p_chars.set_defaults(func=_cmd_characteristics, benchmark=None)

    p_cmp = sub.add_parser("compare", help="buffered vs gated vs reduced")
    _add_common(p_cmp)
    _add_limit(p_cmp)
    _add_obs(p_cmp)
    p_cmp.add_argument("--knob", type=float, default=0.5, help="reduction knob")
    p_cmp.set_defaults(func=_cmd_compare)

    p_sweep = sub.add_parser("sweep", help="gate-reduction sweep")
    _add_common(p_sweep)
    _add_limit(p_sweep)
    _add_obs(p_sweep)
    p_sweep.add_argument("--points", type=int, default=5, help="sweep points")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_audit = sub.add_parser(
        "audit",
        help="re-verify every invariant of a routed tree (JSON dump or "
        "freshly routed benchmark)",
    )
    _add_common(p_audit)
    _add_limit(p_audit)
    _add_obs(p_audit)
    p_audit.add_argument(
        "--tree",
        default=None,
        metavar="TREE.json",
        help="audit this tree dump (from 'route --out') instead of "
        "routing a benchmark",
    )
    p_audit.set_defaults(func=_cmd_audit)

    p_obs = sub.add_parser(
        "obs",
        help="regression sentinel over run records (diff); "
        "exit 1 on detected regressions",
    )
    obs_sub = p_obs.add_subparsers(dest="obs_command", required=True)

    p_diff = obs_sub.add_parser("diff", help="compare two run record files")
    p_diff.add_argument("baseline", metavar="BASELINE.json", help="baseline record")
    p_diff.add_argument("current", metavar="CURRENT.json", help="current record")
    p_diff.add_argument(
        "--sections",
        default=None,
        help="comma list from pins,time,counters (default all); "
        "cross-machine comparisons use pins,counters",
    )
    p_diff.set_defaults(func=_cmd_obs_diff)

    return parser


def _external(args: argparse.Namespace) -> bool:
    """Did ``route`` read its workload from ``--sinks`` files?"""
    return args.command == "route" and args.sinks is not None


def _record_config(args: argparse.Namespace) -> dict:
    """The argparse namespace minus plumbing: what shaped the run."""
    skip = {
        "func",
        "run_pins",
        "trace",
        "log_level",
        "record",
        "out",
        "svg",
        "benchmark_flags",
    }
    if _external(args):
        # Parser defaults of options an external workload never used.
        skip |= {"benchmark", "scale", "activity"}
    return {
        key: value
        for key, value in sorted(vars(args).items())
        if key not in skip and not callable(value)
    }


def _write_record(args: argparse.Namespace, tracer, registry) -> None:
    """Write this invocation's RunRecord to ``--record``."""
    from repro.obs import record_from_trace

    subject = getattr(args, "benchmark", None)
    if _external(args):
        subject = Path(args.sinks).stem
    label = ":".join(
        str(part)
        for part in (args.command, subject, getattr(args, "method", None))
        if part is not None
    )
    record = record_from_trace(
        kind="cli",
        label=label,
        config=_record_config(args),
        tracer=tracer,
        pins=getattr(args, "run_pins", {}),
        registry=registry,
    )
    record.write(args.record)
    print("run record written to %s" % args.record)


def _check_writable(path: str) -> None:
    """Raise the ``OSError`` that writing ``path`` would, before a flow
    spends its time: its directory must exist and be writable."""
    directory = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(directory):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
    if not os.access(directory, os.W_OK):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)


def _run(args: argparse.Namespace) -> int:
    """Run the subcommand, traced when a span trace or record is asked for."""
    seed = getattr(args, "seed", None)
    if seed is not None and seed < 0:
        raise InputError("--seed must be non-negative, got %d" % seed, field="seed")
    trace_path = getattr(args, "trace", None)
    record_path = getattr(args, "record", None)
    # Every output file must be creatable before the flow runs.
    for path in (trace_path, record_path, getattr(args, "out", None), getattr(args, "svg", None)):
        if path is not None:
            _check_writable(path)
    if trace_path is None and record_path is None:
        return args.func(args)
    tracer = enable_tracing()
    # A fresh registry per traced invocation keeps RunRecords
    # comparable: counters cover exactly this run, not whatever
    # accumulated in the process before it (in-process callers, tests).
    registry = MetricsRegistry()
    previous_registry = set_registry(registry)
    try:
        code = args.func(args)
    finally:
        disable_tracing()
        set_registry(previous_registry)
    if trace_path is not None:
        write_chrome_trace(tracer.spans, trace_path)
        print("span trace written to %s" % trace_path)
    if record_path is not None:
        # Assembled after the root span closed and tracing was torn
        # down, so recording never pollutes the timings it records.
        _write_record(args, tracer, registry)
    layers = {
        name: metric["value"]
        for name, metric in registry.as_dict().items()
        if name.startswith("dme.layer.")
    }
    profile = phase_profile(tracer.spans, detail_names=DME_DETAIL_SPANS)
    print(format_phase_times(profile, layer_ns=layers))
    return code


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point.

    Exit codes: 0 success, 1 findings (``audit``) or detected
    regressions (``obs diff``), 2 invalid input -- every typed
    :class:`ReproError` (and ``OSError`` on file arguments, including
    the ``--trace``/``--record`` outputs) is rendered as a one-line
    diagnostic on stderr.  ``--log-level debug`` re-raises so the full
    traceback is visible.
    """
    args = build_parser().parse_args(argv)
    if getattr(args, "log_level", None) is not None:
        configure_logging(args.log_level)
    try:
        return _run(args)
    except (ReproError, OSError) as exc:
        if getattr(args, "log_level", None) == "debug":
            raise
        kind = type(exc).__name__
        message = exc.diagnostic() if isinstance(exc, ReproError) else str(exc)
        print("gated-cts: %s: %s" % (kind, message), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
