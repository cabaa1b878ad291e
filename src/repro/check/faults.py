"""Fault-injection harness.

Systematically perturbs *valid* inputs -- sink files, ISA/trace files,
tree JSON dumps, technology records -- and checks that every
perturbation surfaces as a typed :class:`~repro.check.errors.ReproError`
with a file/line/field diagnostic (or, for benign perturbations such as
co-located sinks, routes cleanly and passes the full network audit).
Never an unhandled traceback, a hang, or a silently wrong number.

The harness drives the real CLI entry point (``repro.cli.main``) so it
exercises the same code path a user hits, and the expected outcome is
part of each fault's contract:

* ``expect="error"``   -> CLI exit code 2, one-line diagnostic;
* ``expect="findings"``-> CLI exit code 1 (the audit ran and reported
  invariant violations);
* ``expect="ok"``      -> CLI exit code 0 and a clean ``--audit`` run.

``tests/test_check_faults.py`` runs the whole matrix.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.check.errors import ReproError

Mutator = Callable[[str], str]

#: Exit code the CLI maps typed errors (and OSError on inputs) to.
ERROR_EXIT_CODE = 2
#: Exit code of an ``audit`` run that completed but found violations.
FINDINGS_EXIT_CODE = 1


@dataclass(frozen=True)
class Fault:
    """One systematic input perturbation and its expected outcome."""

    name: str
    kind: str
    """Which input file the mutator rewrites: ``sinks`` | ``isa`` |
    ``trace`` | ``tree``."""

    expect: str
    """``error`` (typed ReproError, exit 2), ``findings`` (audit exit
    1), or ``ok`` (exit 0 + clean audit)."""

    description: str
    mutate: Mutator

    extra_argv: Tuple[str, ...] = ()
    """Extra CLI flags for this fault's invocation; the ``{dir}``
    placeholder expands to the fault's working directory (for flags
    that take an output path, e.g. ``--record``)."""


@dataclass
class FaultOutcome:
    """What actually happened when one fault was driven through the CLI."""

    fault: Fault
    argv: Tuple[str, ...]
    exit_code: Optional[int] = None
    unhandled: Optional[BaseException] = None
    problems: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.unhandled is None and not self.problems


# ----------------------------------------------------------------------
# mutators
# ----------------------------------------------------------------------
def _data_lines(text: str) -> List[int]:
    """Indices (into splitlines) of non-comment, non-blank lines."""
    out = []
    for i, line in enumerate(text.splitlines()):
        if line.split("#", 1)[0].strip():
            out.append(i)
    return out


def _edit_sink_field(text: str, line_pos: int, field_pos: int, value: str) -> str:
    """Rewrite one whitespace field of the ``line_pos``-th data line."""
    lines = text.splitlines()
    idx = _data_lines(text)[line_pos]
    parts = lines[idx].split()
    parts[field_pos] = value
    lines[idx] = " ".join(parts)
    return "\n".join(lines) + "\n"


def _duplicate_name(text: str) -> str:
    lines = text.splitlines()
    data = _data_lines(text)
    first = lines[data[0]].split()[0]
    return _edit_sink_field(text, 1, 0, first)


def _colocate(text: str) -> str:
    lines = text.splitlines()
    data = _data_lines(text)
    x, y = lines[data[0]].split()[1:3]
    text = _edit_sink_field(text, 1, 1, x)
    return _edit_sink_field(text, 1, 2, y)


def _truncate_line(text: str) -> str:
    lines = text.splitlines()
    idx = _data_lines(text)[-1]
    lines[idx] = " ".join(lines[idx].split()[:2])
    return "\n".join(lines) + "\n"


def _strip_data(text: str) -> str:
    keep = [
        line
        for line in text.splitlines()
        if not line.split("#", 1)[0].strip()
    ]
    return "\n".join(keep) + "\n"


def _json_edit(mutate: Callable[[dict], None]) -> Mutator:
    def apply(text: str) -> str:
        data = json.loads(text)
        mutate(data)
        return json.dumps(data, indent=1)

    return apply


def _isa_module_overflow(data: dict) -> None:
    name = next(iter(data["instructions"]))
    data["instructions"][name].append(int(data["num_modules"]) + 5)


def _tree_nan_cap(data: dict) -> None:
    internal = [n for n in data["nodes"] if n["sink"] is None]
    internal[0]["subtree_cap"] = float("nan")


def _tree_cap_drift(data: dict) -> None:
    internal = [n for n in data["nodes"] if n["sink"] is None]
    internal[0]["subtree_cap"] = internal[0]["subtree_cap"] * 2.0 + 1.0


def _tree_off_segment(data: dict) -> None:
    node = data["nodes"][data["root"]]
    seg = node["merging_segment"]
    span = max(1.0, abs(seg[1] - seg[0]) + abs(seg[3] - seg[2]))
    node["location"] = [node["location"][0] + 10.0 * span, node["location"][1]]


def _tree_enable_break(data: dict) -> None:
    internal = [n for n in data["nodes"] if n["sink"] is None]
    internal[-1]["enable_probability"] = -0.25


def _tree_zero_cap_tech(data: dict) -> None:
    data["technology"]["unit_wire_capacitance"] = 0.0


FAULTS: Tuple[Fault, ...] = (
    # -- sink file -----------------------------------------------------
    Fault("nan_coordinate", "sinks", "error", "x coordinate is NaN",
          lambda t: _edit_sink_field(t, 0, 1, "nan")),
    Fault("inf_coordinate", "sinks", "error", "y coordinate is +inf",
          lambda t: _edit_sink_field(t, 0, 2, "inf")),
    Fault("negative_load_cap", "sinks", "error", "negative load cap",
          lambda t: _edit_sink_field(t, 0, 3, "-0.5")),
    Fault("nan_load_cap", "sinks", "error", "NaN load cap",
          lambda t: _edit_sink_field(t, 0, 3, "nan")),
    Fault("negative_module", "sinks", "error", "negative module id",
          lambda t: _edit_sink_field(t, 0, 4, "-1")),
    Fault("module_out_of_range", "sinks", "error",
          "module id beyond the workload's universe",
          lambda t: _edit_sink_field(t, 0, 4, "999999")),
    Fault("duplicate_sink_name", "sinks", "error", "two sinks, one name",
          _duplicate_name),
    Fault("non_numeric_coordinate", "sinks", "error", "x is not a number",
          lambda t: _edit_sink_field(t, 0, 1, "abc")),
    Fault("truncated_sink_line", "sinks", "error", "line with 2 fields",
          _truncate_line),
    Fault("empty_sink_file", "sinks", "error", "comments only, no sinks",
          _strip_data),
    Fault("colocated_sinks", "sinks", "ok",
          "two distinct sinks at identical coordinates (merged with a "
          "zero-length edge and an exact split)",
          _colocate),
    Fault("sharded_record", "sinks", "ok",
          "valid inputs routed with --shards/--workers while the "
          "parent writes a RunRecord: RunRecord assembly must stay "
          "parent-only under multiprocessing",
          lambda t: t,
          extra_argv=("--shards", "2", "--workers", "2",
                      "--record", "{dir}/run.json")),
    # -- ISA file ------------------------------------------------------
    Fault("truncated_isa", "isa", "error", "ISA JSON cut mid-token",
          lambda t: t[: len(t) // 2]),
    Fault("isa_bad_version", "isa", "error", "unsupported format version",
          _json_edit(lambda d: d.update(format_version=99))),
    Fault("isa_empty_instructions", "isa", "error", "no instructions",
          _json_edit(lambda d: d.update(instructions={}))),
    Fault("isa_zero_modules", "isa", "error", "num_modules == 0",
          _json_edit(lambda d: d.update(num_modules=0))),
    Fault("isa_module_out_of_range", "isa", "error",
          "instruction uses module >= num_modules",
          _json_edit(_isa_module_overflow)),
    # -- trace file ----------------------------------------------------
    Fault("unknown_instruction", "trace", "error",
          "trace names an instruction the ISA lacks",
          lambda t: t + "BOGUS_INSTR\n"),
    Fault("empty_trace", "trace", "error", "comments only, no cycles",
          _strip_data),
    # -- tree JSON (the audit subcommand's input) ----------------------
    Fault("tree_truncated", "tree", "error", "tree JSON cut mid-token",
          lambda t: t[: len(t) // 2]),
    Fault("tree_bad_version", "tree", "error", "unsupported tree version",
          _json_edit(lambda d: d.update(format_version=99))),
    Fault("tree_zero_cap_tech", "tree", "error",
          "embedded technology has zero wire capacitance",
          _json_edit(_tree_zero_cap_tech)),
    Fault("tree_nan_cap", "tree", "findings", "NaN subtree cap",
          _json_edit(_tree_nan_cap)),
    Fault("tree_cap_drift", "tree", "findings", "corrupted cap bookkeeping",
          _json_edit(_tree_cap_drift)),
    Fault("tree_off_segment", "tree", "findings",
          "root placed off its merging segment",
          _json_edit(_tree_off_segment)),
    Fault("tree_enable_break", "tree", "findings",
          "negative enable probability",
          _json_edit(_tree_enable_break)),
)


def fault_by_name(name: str) -> Fault:
    for fault in FAULTS:
        if fault.name == name:
            return fault
    raise KeyError(name)


# ----------------------------------------------------------------------
# baseline inputs
# ----------------------------------------------------------------------
def write_baseline(directory: "str | Path") -> Dict[str, str]:
    """Write a valid sinks/isa/trace/tree input set into ``directory``.

    Returns the path of each file keyed by fault kind.  The tree JSON
    is a routed (small) instance of the same sinks, so tree faults
    corrupt a genuinely consistent dump.
    """
    from repro.bench.cpu_model import CpuModel, CpuModelConfig
    from repro.bench.sinks import SinkGenerator
    from repro.core.flow import route_gated
    from repro.io.sinkfile import write_sinks
    from repro.io.tracefile import save_workload
    from repro.io.treejson import save_tree
    from repro.tech.presets import date98_technology

    base = Path(directory)
    base.mkdir(parents=True, exist_ok=True)
    paths = {
        "sinks": str(base / "sinks.txt"),
        "isa": str(base / "isa.json"),
        "trace": str(base / "trace.txt"),
        "tree": str(base / "tree.json"),
    }
    cpu = CpuModel(CpuModelConfig(num_modules=12, num_instructions=6, seed=1))
    sinks = SinkGenerator(num_sinks=12, seed=1).generate()
    write_sinks(sinks, paths["sinks"])
    save_workload(cpu.isa, cpu.stream(300), paths["isa"], paths["trace"])

    from repro.io.tracefile import load_workload

    oracle = load_workload(paths["isa"], paths["trace"])
    result = route_gated(sinks, date98_technology(), oracle)
    save_tree(result.tree, paths["tree"])
    return paths


def apply_fault(fault: Fault, paths: Dict[str, str], directory: "str | Path") -> Dict[str, str]:
    """Copy the baseline inputs into ``directory`` with one fault applied."""
    base = Path(directory)
    base.mkdir(parents=True, exist_ok=True)
    out: Dict[str, str] = {}
    for kind, src in paths.items():
        text = Path(src).read_text(encoding="utf-8")
        if kind == fault.kind:
            text = fault.mutate(text)
        dst = base / Path(src).name
        dst.write_text(text, encoding="utf-8")
        out[kind] = str(dst)
    return out


# ----------------------------------------------------------------------
# driving the CLI
# ----------------------------------------------------------------------
def cli_argv(fault: Fault, paths: Dict[str, str]) -> List[str]:
    """The CLI invocation that consumes the fault's input kind."""
    if fault.kind == "tree":
        return ["audit", "--tree", paths["tree"]]
    argv = [
        "route",
        "--sinks", paths["sinks"],
        "--isa", paths["isa"],
        "--instr-trace", paths["trace"],
        "--method", "gated",
        "--audit",
    ]
    workdir = str(Path(paths[fault.kind]).parent)
    argv.extend(flag.replace("{dir}", workdir) for flag in fault.extra_argv)
    return argv


def run_fault(
    fault: Fault,
    baseline: Dict[str, str],
    directory: "str | Path",
) -> FaultOutcome:
    """Drive one fault through the CLI and judge the outcome."""
    from repro.cli import main

    paths = apply_fault(fault, baseline, directory)
    argv = cli_argv(fault, paths)
    outcome = FaultOutcome(fault=fault, argv=tuple(argv))
    try:
        outcome.exit_code = main(argv)
    except SystemExit as exc:  # argparse-style exits still count as typed
        outcome.exit_code = int(exc.code or 0)
    except ReproError as exc:  # the CLI should have mapped this to exit 2
        outcome.unhandled = exc
        outcome.problems.append(
            "typed error escaped the CLI handler: %r" % exc
        )
        return outcome
    except BaseException as exc:  # noqa: BLE001 - the whole point
        outcome.unhandled = exc
        outcome.problems.append(
            "unhandled %s: %s" % (type(exc).__name__, exc)
        )
        return outcome

    expected = {
        "error": ERROR_EXIT_CODE,
        "findings": FINDINGS_EXIT_CODE,
        "ok": 0,
    }[fault.expect]
    if outcome.exit_code != expected:
        outcome.problems.append(
            "fault %r: expected exit code %d, got %r"
            % (fault.name, expected, outcome.exit_code)
        )
    return outcome
