"""Beyond the paper: gate sizing instead of wire snaking.

The paper notes that gates "can be sized to adjust the phase delay".
When an exact zero-skew merge has to snake wire to balance a slow and
a fast subtree, gate sizing (`repro.core.gate_sizing`) resizes the
cells on the two new edges instead.  This study routes the same
benchmark with and without sizing and reports the wirelength and
switched-capacitance effect.

Run:  python examples/gate_sizing_study.py
"""

from repro import (
    GateReductionPolicy,
    date98_technology,
    load_benchmark,
    route_gated,
)
from repro.analysis.ascii import bar_chart
from repro.analysis.report import format_table
from repro.core.gate_sizing import GateSizingPolicy


def main() -> None:
    tech = date98_technology()
    case = load_benchmark("r1", scale=0.25)
    reduction = GateReductionPolicy.from_knob(0.5, tech)

    def route(**kwargs):
        return route_gated(
            case.sinks,
            tech,
            case.oracle,
            die=case.die,
            candidate_limit=16,
            reduction=reduction,
            **kwargs,
        )

    fixed = route()
    configs = [
        ("fixed size", fixed),
        ("gate sizing", route(gate_sizing=GateSizingPolicy())),
    ]

    print(
        format_table(
            ["configuration", "skew", "wirelength", "wl vs fixed", "W total (pF)"],
            [
                [
                    name,
                    r.skew,
                    r.wirelength,
                    r.wirelength / fixed.wirelength,
                    r.switched_cap.total,
                ]
                for name, r in configs
            ],
            title="Gate sizing on r1 (gate-reduced router)",
        )
    )

    print()
    print(
        bar_chart(
            [name for name, _ in configs],
            [r.wirelength for _, r in configs],
            width=44,
            title="Routed wirelength (lambda)",
        )
    )
    print("\nBoth trees have exact zero skew, to floating point.")


if __name__ == "__main__":
    main()
