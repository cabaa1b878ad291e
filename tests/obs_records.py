"""A small, fully deterministic RunRecord for sentinel tests."""

from typing import Any, Dict, Optional

from repro.obs import RunRecord


def synthetic_record(
    time_factor: float = 1.0,
    counter_factor: float = 1.0,
    pins: Optional[Dict[str, Any]] = None,
) -> RunRecord:
    """The canonical baseline shape, optionally with a planted change.

    Factors scale the ``topology.gated`` phase time and the
    ``dme.plans_computed`` counter relative to the baseline, so a test
    can plant a precise synthetic regression.
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
        kind="synthetic",
        label="sentinel-synthetic",
        config={"benchmark": "synthetic"},
        fingerprint={"python": "synthetic"},
        phases=phases,
        spans=[],
        metrics=metrics,
        pins=pins
        if pins is not None
        else {"wirelength": 123456.789012, "gate_count": 254},
    )
