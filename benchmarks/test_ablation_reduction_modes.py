"""Ablation A3: how the section-4.3 rules are applied.

``merge``  -- decide gates during bottom-up merging (topology
             co-optimizes with the gate count; library default);
``demote`` -- build fully gated, tie off pruned gates (embedding and
             phase delay untouched).

The readout shows why ``merge`` is the default.
"""

import pytest

from benchmarks.conftest import CANDIDATE_LIMIT, DEFAULT_KNOB
from repro.analysis.report import format_table
from repro.bench.suite import load_benchmark
from repro.core.flow import route_gated
from repro.core.gate_reduction import GateReductionPolicy

MODES = ("merge", "demote")


@pytest.mark.benchmark(group="ablation-reduction")
def test_ablation_reduction_modes(run_once, scale, tech, record):
    case = load_benchmark("r1", scale=scale)
    policy = GateReductionPolicy.from_knob(DEFAULT_KNOB, tech)

    def sweep():
        return {
            mode: route_gated(
                case.sinks,
                tech,
                case.oracle,
                die=case.die,
                candidate_limit=CANDIDATE_LIMIT,
                reduction=policy,
                reduction_mode=mode,
            )
            for mode in MODES
        }

    results = run_once(sweep)
    record(
        "ablation_reduction_modes",
        format_table(
            ["mode", "W total", "W clock", "W ctrl", "wirelength", "gates", "phase delay"],
            [
                [
                    mode,
                    r.switched_cap.total,
                    r.switched_cap.clock_tree,
                    r.switched_cap.controller_tree,
                    r.wirelength,
                    r.gate_count,
                    r.phase_delay,
                ]
                for mode, r in results.items()
            ],
            title="Ablation: gate-reduction application modes (r1, scale=%.2f)" % scale,
        ),
    )

    for mode, result in results.items():
        assert result.skew <= 1e-6 * max(result.phase_delay, 1.0), mode
    # The co-optimized merge mode wins (or ties) on total W here.
    best = min(r.switched_cap.total for r in results.values())
    assert results["merge"].switched_cap.total <= 1.05 * best
