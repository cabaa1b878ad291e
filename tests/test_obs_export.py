"""Exporters: Chrome trace_event JSON, phase profiles."""

import json

from repro.obs import (
    Tracer,
    chrome_trace,
    phase_profile,
    write_chrome_trace,
)

#: Chrome trace_event "complete event" schema (JSON-schema style,
#: hand-checked so the suite needs no jsonschema dependency).
CHROME_EVENT_SCHEMA = {
    "type": "object",
    "required": ["name", "ph", "ts", "dur", "pid", "tid", "args"],
    "properties": {
        "name": {"type": str},
        "ph": {"type": str, "enum": ["X"]},
        "ts": {"type": (int, float)},
        "dur": {"type": (int, float)},
        "pid": {"type": int},
        "tid": {"type": int},
        "args": {"type": dict},
    },
}


def check_schema(obj, schema):
    """Minimal JSON-schema checker (type / required / enum / properties)."""
    assert isinstance(obj, dict), "event must be an object"
    for key in schema["required"]:
        assert key in obj, "missing required key %r" % key
    for key, spec in schema["properties"].items():
        if key not in obj:
            continue
        assert isinstance(obj[key], spec["type"]), (
            "%r has type %s" % (key, type(obj[key]).__name__)
        )
        if "enum" in spec:
            assert obj[key] in spec["enum"]


def _clock(step=1000):
    state = {"t": -step}

    def tick():
        state["t"] += step
        return state["t"]

    return tick


def _sample_tracer():
    tracer = Tracer(clock=_clock())
    with tracer.span("flow.route_gated", n=4):
        with tracer.span("topology.gated", n=4):
            with tracer.span("dme.merge"):
                pass
        with tracer.span("controller.star", gates=2):
            pass
        with tracer.span("flow.measure"):
            pass
    return tracer


class TestChromeTrace:
    def test_events_match_schema(self):
        trace = chrome_trace(_sample_tracer().spans)
        assert isinstance(trace["traceEvents"], list)
        assert trace["displayTimeUnit"] == "ms"
        for event in trace["traceEvents"]:
            check_schema(event, CHROME_EVENT_SCHEMA)

    def test_events_sorted_by_start(self):
        trace = chrome_trace(_sample_tracer().spans)
        starts = [e["ts"] for e in trace["traceEvents"]]
        assert starts == sorted(starts)

    def test_microsecond_conversion(self):
        tracer = Tracer(clock=_clock(step=1500))
        with tracer.span("s"):
            pass
        (event,) = chrome_trace(tracer.spans)["traceEvents"]
        assert event["ts"] == 0.0
        assert event["dur"] == 1.5  # 1500 ns = 1.5 us

    def test_non_json_attrs_become_repr(self):
        tracer = Tracer(clock=_clock())
        with tracer.span("s", obj=object(), ok=3):
            pass
        (event,) = chrome_trace(tracer.spans)["traceEvents"]
        assert event["args"]["ok"] == 3
        assert isinstance(event["args"]["obj"], str)
        json.dumps(event)  # everything serializable

    def test_write_is_loadable_json(self, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(_sample_tracer().spans, path)
        trace = json.loads(path.read_text())
        assert len(trace["traceEvents"]) == 5


class TestPhaseProfile:
    def test_totals_and_coverage(self):
        # Root 0..100, children a: 10..40 and b: 50..90 => 70% covered.
        tracer = Tracer(clock=iter([0, 10, 40, 50, 90, 100]).__next__)
        with tracer.span("root"):
            with tracer.span("a"):
                pass
            with tracer.span("b"):
                pass
        profile = phase_profile(tracer.spans)
        assert profile.root_ns == 100
        assert profile.covered_ns == 70
        assert profile.coverage == 0.7
        assert [(r.name, r.total_ns) for r in profile.rows] == [("a", 30), ("b", 40)]
        assert profile.rows[0].fraction == 0.3

    def test_same_name_children_aggregate(self):
        tracer = Tracer(clock=_clock())
        with tracer.span("root"):
            for _ in range(3):
                with tracer.span("phase.x"):
                    pass
        (row,) = phase_profile(tracer.spans).rows
        assert row.name == "phase.x" and row.count == 3

    def test_root_name_filter(self):
        tracer = Tracer(clock=_clock())
        with tracer.span("flow.a"):
            with tracer.span("child.a"):
                pass
        with tracer.span("flow.b"):
            with tracer.span("child.b"):
                pass
        profile = phase_profile(tracer.spans, root_name="flow.b")
        assert [r.name for r in profile.rows] == ["child.b"]

    def test_grandchildren_not_double_counted(self):
        tracer = Tracer(clock=_clock())
        with tracer.span("root"):
            with tracer.span("child"):
                with tracer.span("grandchild"):
                    pass
        profile = phase_profile(tracer.spans)
        assert [r.name for r in profile.rows] == ["child"]

    def test_empty_spans(self):
        profile = phase_profile([])
        assert profile.rows == [] and profile.coverage == 0.0

    def test_as_dict_round_trips_through_json(self):
        profile = phase_profile(_sample_tracer().spans)
        decoded = json.loads(json.dumps(profile.as_dict()))
        assert decoded["coverage"] == profile.coverage
        assert [p["name"] for p in decoded["phases"]] == [
            r.name for r in profile.rows
        ]

    def test_detail_names_aggregate_at_any_depth(self):
        # Root 0..100; child 10..90; detail spans nested two deep at
        # 20..40 and 50..70 => detail total 40ns, fraction over root.
        tracer = Tracer(clock=iter([0, 10, 20, 40, 50, 70, 90, 100]).__next__)
        with tracer.span("root"):
            with tracer.span("child"):
                with tracer.span("dme.init_best"):
                    pass
                with tracer.span("dme.init_best"):
                    pass
        profile = phase_profile(tracer.spans, detail_names=("dme.init_best",))
        assert [r.name for r in profile.rows] == ["child"]
        (detail,) = profile.detail_rows
        assert detail.name == "dme.init_best"
        assert detail.count == 2
        assert detail.total_ns == 40
        assert detail.fraction == 0.4
        decoded = json.loads(json.dumps(profile.as_dict()))
        assert decoded["detail"][0]["name"] == "dme.init_best"

    def test_detail_outside_roots_excluded(self):
        tracer = Tracer(clock=_clock())
        with tracer.span("flow.a"):
            with tracer.span("dme.init_best"):
                pass
        with tracer.span("flow.b"):
            with tracer.span("dme.init_best"):
                pass
        profile = phase_profile(
            tracer.spans, root_name="flow.b", detail_names=("dme.init_best",)
        )
        (detail,) = profile.detail_rows
        assert detail.count == 1  # flow.a's instance does not leak in

    def test_no_detail_names_keeps_dict_shape(self):
        profile = phase_profile(_sample_tracer().spans)
        assert profile.detail_rows == []
        assert "detail" not in profile.as_dict()

