"""Run records: round trips through a file, old-record compatibility."""

from repro.obs import (
    MetricsRegistry,
    RunRecord,
    Tracer,
    compare_runs,
    environment_fingerprint,
    record_from_trace,
    set_registry,
)


def _clock(step=1_000_000):
    state = {"t": -step}

    def tick():
        state["t"] += step
        return state["t"]

    return tick


def _traced_run(plans=100):
    """A small deterministic trace + registry, as a routed flow leaves them."""
    tracer = Tracer(clock=_clock())
    registry = MetricsRegistry()
    previous = set_registry(registry)
    try:
        with tracer.span("flow.route_gated", n=8):
            with tracer.span("topology.gated"):
                with tracer.span("dme.merge"):
                    with tracer.span("dme.merge_loop"):
                        pass
            with tracer.span("flow.measure"):
                pass
        registry.counter("dme.plans_computed").inc(plans)
    finally:
        set_registry(previous)
    return tracer, registry


def _record(plans=100, pins=None):
    tracer, registry = _traced_run(plans)
    return record_from_trace(
        kind="flow",
        label="test:r1",
        config={"benchmark": "r1", "scale": 0.1},
        tracer=tracer,
        pins=pins if pins is not None else {"wirelength": 123.456, "gates": 10},
        registry=registry,
        root_name="flow.route_gated",
    )


class TestRunRecord:
    def test_round_trip_identity(self, tmp_path):
        """write -> load reproduces the content."""
        record = _record()
        record.write(tmp_path / "run.json")
        loaded = RunRecord.load(tmp_path / "run.json")
        assert loaded.as_dict() == record.as_dict()
        assert loaded.pins == record.pins

    def test_round_trip_diffs_clean(self, tmp_path):
        """The sentinel sees a written-and-reloaded record as identical."""
        record = _record()
        record.write(tmp_path / "run.json")
        diff = compare_runs(record, RunRecord.load(tmp_path / "run.json"))
        assert diff.ok
        assert diff.exit_code == 0
        assert not diff.notable()

    def test_pins_survive_json_exactly(self, tmp_path):
        """Pins round-trip byte-identically through the record file."""
        pins = {"wirelength": 148897.12345678912, "cap": 42.61478260869565}
        _record(pins=pins).write(tmp_path / "run.json")
        loaded = RunRecord.load(tmp_path / "run.json")
        # repr round-trip is the byte-identity check without float ==.
        assert repr(sorted(loaded.pins.items())) == repr(sorted(pins.items()))

    def test_phase_views(self):
        record = _record()
        rows = record.phase_rows()
        assert "topology.gated" in rows
        assert "dme.merge_loop" in rows  # detail row rides along
        assert record.root_ns > 0
        assert record.counters()["dme.plans_computed"] == 100


def _with_memory_columns(record):
    """``record`` as older ledgers stored memory-profiled runs.

    Runs recorded with the retired tracemalloc sampler carry
    ``mem_*`` attributes on every span and phase row plus a
    ``root_mem_peak_bytes`` phase key; the record schema is unchanged.
    """
    spans = [
        dict(
            span,
            attrs=dict(
                span["attrs"],
                mem_peak_bytes=4096,
                mem_net_bytes=-128,
                mem_alloc_blocks=7,
            ),
        )
        for span in record.spans
    ]
    phases = dict(record.phases, root_mem_peak_bytes=65536)
    for key in ("phases", "detail"):
        phases[key] = [
            dict(row, mem_peak_bytes=2048, mem_alloc_blocks=3)
            for row in record.phases[key]
        ]
    return RunRecord(
        kind=record.kind,
        label=record.label,
        config=record.config,
        fingerprint=record.fingerprint,
        phases=phases,
        spans=spans,
        metrics=record.metrics,
        pins=record.pins,
    )


class TestOldRecords:
    def test_memory_profiled_record_loads_and_diffs_clean(self, tmp_path):
        plain = _record()
        old = _with_memory_columns(plain)
        old.write(tmp_path / "old.json")
        loaded = RunRecord.load(tmp_path / "old.json")
        assert loaded.as_dict() == old.as_dict() != plain.as_dict()
        assert loaded.phases["root_mem_peak_bytes"] == 65536
        for baseline, current in ((loaded, loaded), (loaded, plain), (plain, loaded)):
            diff = compare_runs(baseline, current)
            assert diff.ok, diff.report()
            assert not diff.notable()


class TestFingerprint:
    def test_fingerprint_shape(self):
        fp = environment_fingerprint()
        assert fp["python"].count(".") == 2
        assert "git_revision" in fp
        assert "env" in fp
