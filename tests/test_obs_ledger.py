"""Run ledger: content addressing, round trips, reference resolution."""

import pytest

from repro.check.errors import InputError
from repro.obs import (
    MetricsRegistry,
    RunLedger,
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
        """write -> load reproduces the content and the address."""
        record = _record()
        path = record.save(tmp_path)
        loaded = RunRecord.load(path)
        assert loaded.run_id == record.run_id
        assert loaded.content() == record.content()
        assert loaded.pins == record.pins

    def test_round_trip_diffs_clean(self, tmp_path):
        """The sentinel sees a saved-and-reloaded record as identical."""
        record = _record()
        loaded = RunRecord.load(record.save(tmp_path))
        diff = compare_runs(record, loaded)
        assert diff.ok
        assert diff.exit_code == 0
        assert not diff.notable()

    def test_run_id_excludes_timestamp(self):
        record = _record()
        restamped = RunRecord(
            kind=record.kind,
            label=record.label,
            config=record.config,
            fingerprint=record.fingerprint,
            phases=record.phases,
            spans=record.spans,
            metrics=record.metrics,
            pins=record.pins,
            created_unix=record.created_unix + 1000,
        )
        assert restamped.run_id == record.run_id

    def test_run_id_tracks_content(self):
        assert _record(plans=100).run_id != _record(plans=200).run_id

    def test_pins_survive_json_exactly(self, tmp_path):
        """Pins round-trip byte-identically through the ledger file."""
        pins = {"wirelength": 148897.12345678912, "cap": 42.61478260869565}
        record = _record(pins=pins)
        loaded = RunRecord.load(record.save(tmp_path))
        # repr round-trip is the byte-identity check without float ==.
        assert repr(sorted(loaded.pins.items())) == repr(sorted(pins.items()))

    def test_from_payload_rejects_missing_keys(self):
        with pytest.raises(InputError):
            RunRecord.from_payload({"kind": "flow", "label": "x"})

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
        created_unix=record.created_unix,
    )


class TestOldRecords:
    def test_memory_profiled_record_loads_and_diffs_clean(self, tmp_path):
        plain = _record()
        old = _with_memory_columns(plain)
        ledger = RunLedger(tmp_path)
        ledger.save(old)
        loaded = ledger.load(old.run_id[:12])
        assert loaded.run_id == old.run_id != plain.run_id
        assert loaded.phases["root_mem_peak_bytes"] == 65536
        for baseline, current in ((loaded, loaded), (loaded, plain), (plain, loaded)):
            diff = compare_runs(baseline, current)
            assert diff.ok, diff.report()
            assert not diff.notable()


class TestRunLedger:
    def test_save_is_idempotent(self, tmp_path):
        ledger = RunLedger(tmp_path)
        record = _record()
        first = ledger.save(record)
        second = ledger.save(record)
        assert first == second
        assert len(ledger.paths()) == 1

    def test_paths_ordered_oldest_first(self, tmp_path):
        ledger = RunLedger(tmp_path)
        old = _record(plans=1)
        new = _record(plans=2)
        object.__setattr__(old, "created_unix", 100)
        object.__setattr__(new, "created_unix", 200)
        ledger.save(new)
        ledger.save(old)
        stems = [p.stem for p in ledger.paths()]
        assert stems == [old.run_id, new.run_id]

    def test_resolve_latest_and_back_references(self, tmp_path):
        ledger = RunLedger(tmp_path)
        old, new = _record(plans=1), _record(plans=2)
        object.__setattr__(old, "created_unix", 100)
        object.__setattr__(new, "created_unix", 200)
        ledger.save(old)
        ledger.save(new)
        assert ledger.resolve("latest").stem == new.run_id
        assert ledger.resolve("latest~1").stem == old.run_id
        with pytest.raises(InputError):
            ledger.resolve("latest~2")
        with pytest.raises(InputError):
            ledger.resolve("latest~x")

    def test_resolve_unique_prefix_and_path(self, tmp_path):
        ledger = RunLedger(tmp_path)
        record = _record()
        path = ledger.save(record)
        assert ledger.resolve(record.run_id[:10]) == path
        assert ledger.resolve(str(path)) == path
        assert ledger.load(record.run_id[:10]).run_id == record.run_id

    def test_resolve_rejects_unknown_and_ambiguous(self, tmp_path):
        ledger = RunLedger(tmp_path)
        ledger.save(_record(plans=1))
        ledger.save(_record(plans=2))
        with pytest.raises(InputError):
            ledger.resolve("deadbeef")
        with pytest.raises(InputError):
            ledger.resolve("")  # prefix of every record -> ambiguous

    def test_empty_directory(self, tmp_path):
        ledger = RunLedger(tmp_path / "nope")
        assert ledger.paths() == []
        with pytest.raises(InputError):
            ledger.resolve("latest")

    def test_ignores_foreign_json(self, tmp_path):
        (tmp_path / "junk.json").write_text("{\"not\": \"a record\"}")
        (tmp_path / "broken.json").write_text("{")
        ledger = RunLedger(tmp_path)
        ledger.save(_record())
        assert len(ledger.paths()) == 1


class TestFingerprint:
    def test_fingerprint_shape(self):
        fp = environment_fingerprint()
        assert fp["python"].count(".") == 2
        assert "git_revision" in fp
        assert "env" in fp
