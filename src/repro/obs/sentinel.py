"""The performance-regression sentinel: noise-aware RunRecord diffs.

:func:`compare_runs` lines two :class:`~repro.obs.ledger.RunRecord`\\ s
up section by section and emits one-line findings in the style of the
``repro.check`` diagnostics:

* **pins** -- result pins must match *exactly* (compared through their
  canonical JSON encoding, so no float ``==`` and no tolerance: a pin
  that moved is a correctness event, not noise);
* **time** -- per-phase wall-clock ratios, gated by a relative
  threshold *and* an absolute floor (a 2x blowup of a 2 ms phase is
  scheduler noise; a 2x blowup of a 2 s phase is a regression);
* **counters** -- work counters (``dme.plans_computed``,
  ``dme.kernel_batches``, ...) with a tight relative band in both
  directions: the merger doing 30% more *or* fewer plans than the
  baseline means the algorithm changed, which a wall-clock threshold
  on a different machine would miss.

In every section a quantity the baseline has and the current run
lacks is ``missing`` and fails: a dropped pin, counter or phase is a
signal that silently stopped, not noise.  One only the current run has
is ``new`` and passes.

The noise model is deliberately simple and explicit (threshold +
floor per section, the module constants below) rather than
statistical: records carry single runs, not distributions.

Exit-code contract (``gated-cts obs diff/check``): 0 clean (improved
is clean), 1 at least one regression, 2 invalid input.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.check.errors import InputError
from repro.obs.jsonio import canonical_dumps
from repro.obs.ledger import RunRecord
from repro.obs.metrics import get_registry

#: Sections a comparison may cover, in report order.
ALL_SECTIONS = ("pins", "time", "counters")

#: Statuses that make a diff fail (exit 1).
FAILING = ("regression", "pin-mismatch", "missing")


#: Phase (and root) time ratio above which slower -> regression.
TIME_REL = 1.5
#: Phases faster than this in *both* runs are never flagged.
TIME_FLOOR_NS = 50_000_000
#: Counters may drift this fraction in either direction.
COUNTER_REL = 0.25
#: Counters at or below this in both runs are never flagged.
COUNTER_FLOOR = 32


@dataclass(frozen=True)
class Finding:
    """One compared quantity and its verdict."""

    section: str
    name: str
    status: str
    """``ok`` | ``improved`` | ``regression`` | ``pin-mismatch`` |
    ``new`` | ``missing``"""
    baseline: Any = None
    current: Any = None
    ratio: Optional[float] = None
    message: str = ""

    @property
    def failing(self) -> bool:
        return self.status in FAILING

    def line(self) -> str:
        """The one-line ``repro.check``-style diagnostic."""
        tag = self.status.upper()
        core = "obs.check: %-12s [%s] %s" % (tag, self.section, self.name)
        if self.message:
            core += ": %s" % self.message
        return core


@dataclass
class RunDiff:
    """The full comparison of two run records."""

    baseline_id: str
    current_id: str
    sections: Tuple[str, ...]
    findings: List[Finding] = field(default_factory=list)

    @property
    def regressions(self) -> List[Finding]:
        return [f for f in self.findings if f.failing]

    @property
    def ok(self) -> bool:
        return not self.regressions

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else 1

    def notable(self) -> List[Finding]:
        """Everything except silent ``ok`` rows."""
        return [f for f in self.findings if f.status != "ok"]

    def summary(self) -> str:
        counts: Dict[str, int] = {}
        for finding in self.findings:
            counts[finding.status] = counts.get(finding.status, 0) + 1
        parts = ["%d %s" % (counts[k], k) for k in sorted(counts)]
        verdict = "clean" if self.ok else "REGRESSED"
        return "obs.check: %s  (%s; %d compared)  %s -> %s" % (
            verdict,
            ", ".join(parts) if parts else "nothing compared",
            len(self.findings),
            self.baseline_id[:12],
            self.current_id[:12],
        )

    def report(self) -> str:
        lines = [f.line() for f in self.notable()]
        lines.append(self.summary())
        return "\n".join(lines)


def _ratio(baseline: float, current: float) -> Optional[float]:
    return (current / baseline) if baseline > 0 else None


def _compare_ns(name: str, baseline: int, current: int) -> Finding:
    """Ratio-vs-threshold verdict for one timed quantity."""
    if baseline <= TIME_FLOOR_NS and current <= TIME_FLOOR_NS:
        return Finding("time", name, "ok", baseline, current)
    ratio = _ratio(baseline, current)
    message = "%.4gs -> %.4gs" % (baseline / 1e9, current / 1e9)
    if ratio is not None:
        message += " (%.2fx, threshold %.2fx)" % (ratio, TIME_REL)
    if ratio is None or ratio > TIME_REL:
        return Finding("time", name, "regression", baseline, current, ratio, message)
    if ratio < 1.0 / TIME_REL:
        return Finding("time", name, "improved", baseline, current, ratio, message)
    return Finding("time", name, "ok", baseline, current, ratio)


def _unpaired(
    section: str, name: str, base: Mapping[str, Any], cur: Mapping[str, Any]
) -> Optional[Finding]:
    """The ``missing``/``new`` verdict of a name only one run has."""
    if name not in cur:
        return Finding(
            section, name, "missing", base[name], None,
            message="dropped from current run",
        )
    if name not in base:
        return Finding(
            section, name, "new", None, cur[name], message="absent from baseline"
        )
    return None


def _compare_pins(baseline: RunRecord, current: RunRecord) -> Iterable[Finding]:
    for name in sorted(set(baseline.pins) | set(current.pins)):
        unpaired = _unpaired("pins", name, baseline.pins, current.pins)
        if unpaired is not None:
            yield unpaired
            continue
        base, cur = baseline.pins[name], current.pins[name]
        if canonical_dumps(base) == canonical_dumps(cur):
            yield Finding("pins", name, "ok", base, cur)
        else:
            yield Finding(
                "pins", name, "pin-mismatch", base, cur,
                message="%r -> %r (pins must be byte-identical)" % (base, cur),
            )


def _compare_time(baseline: RunRecord, current: RunRecord) -> Iterable[Finding]:
    yield _compare_ns("(root)", baseline.root_ns, current.root_ns)
    base_rows, cur_rows = baseline.phase_rows(), current.phase_rows()
    for name in sorted(set(base_rows) | set(cur_rows)):
        unpaired = _unpaired("time", name, base_rows, cur_rows)
        if unpaired is not None:
            yield unpaired
            continue
        yield _compare_ns(name, base_rows[name]["total_ns"], cur_rows[name]["total_ns"])


def _compare_counters(baseline: RunRecord, current: RunRecord) -> Iterable[Finding]:
    base_c, cur_c = baseline.counters(), current.counters()
    for name in sorted(set(base_c) | set(cur_c)):
        unpaired = _unpaired("counters", name, base_c, cur_c)
        if unpaired is not None:
            yield unpaired
            continue
        base, cur = base_c[name], cur_c[name]
        if base <= COUNTER_FLOOR and cur <= COUNTER_FLOOR:
            yield Finding("counters", name, "ok", base, cur)
            continue
        low = base * (1.0 - COUNTER_REL)
        high = base * (1.0 + COUNTER_REL)
        if low <= cur <= high:
            yield Finding(
                "counters", name, "ok", base, cur, _ratio(base, cur)
            )
        else:
            yield Finding(
                "counters", name, "regression", base, cur, _ratio(base, cur),
                message="%d -> %d (allowed %d..%d)"
                % (base, cur, int(low), int(high)),
            )


def compare_runs(
    baseline: RunRecord,
    current: RunRecord,
    sections: Sequence[str] = ALL_SECTIONS,
) -> RunDiff:
    """Compare two run records; see the module docstring for the model."""
    if not sections:
        raise InputError(
            "no diff section selected (choose from %s)" % ", ".join(ALL_SECTIONS),
            field="sections",
        )
    for section in sections:
        if section not in ALL_SECTIONS:
            raise InputError(
                "unknown diff section %r (choose from %s)"
                % (section, ", ".join(ALL_SECTIONS)),
                field="sections",
            )
    diff = RunDiff(
        baseline_id=baseline.run_id,
        current_id=current.run_id,
        sections=tuple(sections),
    )
    if "pins" in sections:
        diff.findings.extend(_compare_pins(baseline, current))
    if "time" in sections:
        diff.findings.extend(_compare_time(baseline, current))
    if "counters" in sections:
        diff.findings.extend(_compare_counters(baseline, current))
    registry = get_registry()
    registry.counter("sentinel.comparisons").inc()
    registry.counter("sentinel.regressions_found").inc(len(diff.regressions))
    return diff


# ----------------------------------------------------------------------
# self test
# ----------------------------------------------------------------------
def synthetic_record(
    time_factor: float = 1.0,
    counter_factor: float = 1.0,
    pins: Optional[Dict[str, Any]] = None,
) -> RunRecord:
    """A small, fully deterministic record for sentinel self-tests.

    Factors scale the planted ``topology.gated`` phase time and the
    ``dme.plans_computed`` counter relative to the canonical baseline
    shape, so tests (and ``obs selftest``) can plant a precise
    synthetic regression.
    """
    topo_ns = int(2_000_000_000 * time_factor)
    measure_ns = 100_000_000
    root_ns = topo_ns + measure_ns + 50_000_000
    phases = {
        "root_ns": root_ns,
        "root_s": root_ns / 1e9,
        "covered_ns": topo_ns + measure_ns,
        "coverage": (topo_ns + measure_ns) / root_ns,
        "phases": [
            {
                "name": "topology.gated",
                "count": 1,
                "total_ns": topo_ns,
                "total_s": topo_ns / 1e9,
                "fraction": topo_ns / root_ns,
            },
            {
                "name": "flow.measure",
                "count": 1,
                "total_ns": measure_ns,
                "total_s": measure_ns / 1e9,
                "fraction": measure_ns / root_ns,
            },
        ],
    }
    metrics = {
        "dme.plans_computed": {
            "type": "counter",
            "value": int(5000 * counter_factor),
        },
        "dme.kernel_batches": {"type": "counter", "value": 400},
    }
    return RunRecord(
        kind="selftest",
        label="sentinel-selftest",
        config={"benchmark": "synthetic"},
        fingerprint={"python": "synthetic"},
        phases=phases,
        spans=[],
        metrics=metrics,
        pins=pins
        if pins is not None
        else {"wirelength": 123456.789012, "gate_count": 254},
        created_unix=0,
    )


def self_test() -> Tuple[bool, str]:
    """Does the sentinel catch planted regressions and pass clean runs?

    Plants a synthetic 2x ``topology.gated`` slowdown, a counter
    blowup, a pin flip and a dropped pin against the canonical
    baseline, and also diffs the baseline against itself.  Returns
    ``(ok, report)`` where ``ok`` requires every planted fault to be
    caught *and* the identical pair to diff clean.
    """
    baseline = synthetic_record()
    lines = []
    ok = True

    clean = compare_runs(baseline, synthetic_record())
    lines.append("identical runs: %s" % clean.summary())
    ok &= clean.ok

    planted = {
        "2x topology.gated slowdown": synthetic_record(time_factor=2.0),
        "counter blowup": synthetic_record(counter_factor=2.0),
        "pin flip": synthetic_record(
            pins={"wirelength": 123456.789013, "gate_count": 254}
        ),
        "dropped pin": synthetic_record(pins={"gate_count": 254}),
    }
    for what, record in planted.items():
        diff = compare_runs(baseline, record)
        caught = not diff.ok
        lines.append(
            "planted %s: %s" % (what, "caught" if caught else "MISSED")
        )
        ok &= caught
    lines.append("sentinel self-test: %s" % ("ok" if ok else "FAILED"))
    return ok, "\n".join(lines)
