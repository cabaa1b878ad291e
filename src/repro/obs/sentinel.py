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

Only records of like runs compare: two records whose labels
differ (another benchmark, another command) are refused with an
``InputError``.  Records of one label whose ``config`` differs (say
``--candidate-limit`` 16 against 64) do compare; the differing keys
head the report.

In every section a quantity the baseline has and the current run
lacks is ``missing`` and fails: a dropped pin, counter or phase is a
signal that silently stopped, not noise.  One only the current run has
is ``new`` and passes.

The noise model is deliberately simple and explicit (threshold +
floor per section, the module constants below) rather than
statistical: records carry single runs, not distributions.

Exit-code contract (``gated-cts obs diff``): 0 clean (improved is
clean), 1 at least one regression, 2 invalid input.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.check.errors import InputError
from repro.obs.jsonio import canonical_dumps
from repro.obs.ledger import RunRecord

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

    sections: Tuple[str, ...]
    findings: List[Finding] = field(default_factory=list)
    config_changes: List[str] = field(default_factory=list)
    """``key: baseline -> current`` of each config key the runs differ in."""

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
        return "obs.check: %s  (%s; %d compared)" % (
            verdict,
            ", ".join(parts) if parts else "nothing compared",
            len(self.findings),
        )

    def report(self) -> str:
        lines = []
        if self.config_changes:
            lines.append("obs.check: config differs: %s" % "; ".join(self.config_changes))
        lines.extend(f.line() for f in self.notable())
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
    if baseline.label != current.label:
        raise InputError(
            "records of unlike runs: baseline %r, current %r"
            % (baseline.label, current.label),
            field="label",
        )
    base_cfg, cur_cfg = baseline.config, current.config
    diff = RunDiff(
        sections=tuple(sections),
        config_changes=[
            "%s: %r -> %r" % (key, base_cfg.get(key), cur_cfg.get(key))
            for key in sorted(set(base_cfg) | set(cur_cfg))
            if base_cfg.get(key) != cur_cfg.get(key)
        ],
    )
    if "pins" in sections:
        diff.findings.extend(_compare_pins(baseline, current))
    if "time" in sections:
        diff.findings.extend(_compare_time(baseline, current))
    if "counters" in sections:
        diff.findings.extend(_compare_counters(baseline, current))
    return diff

