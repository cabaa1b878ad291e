"""Unit tests for the sink file format."""

import io

import pytest

from repro.bench.sinks import generate_sinks
from repro.io.sinkfile import read_sinks, write_sinks


class TestRoundTrip:
    def test_write_read_roundtrip(self, tmp_path):
        sinks = generate_sinks("r1", scale=0.1).generate()
        path = tmp_path / "sinks.txt"
        write_sinks(sinks, path)
        loaded = read_sinks(path)
        assert len(loaded) == len(sinks)
        for a, b in zip(sinks, loaded):
            assert a.name == b.name
            assert a.location.x == pytest.approx(b.location.x)
            assert a.load_cap == pytest.approx(b.load_cap)
            assert a.module == b.module

    def test_text_handles(self):
        sinks = generate_sinks("r1", scale=0.05).generate()
        buffer = io.StringIO()
        write_sinks(sinks, buffer)
        loaded = read_sinks(io.StringIO(buffer.getvalue()))
        assert len(loaded) == len(sinks)


class TestParsing:
    def test_comments_and_blanks_ignored(self):
        text = """
        # header comment
        a 1.0 2.0 0.5 0

        b 3.0 4.0 0.25 1  # trailing comment
        """
        sinks = read_sinks(io.StringIO(text))
        assert [s.name for s in sinks] == ["a", "b"]

    def test_module_defaults_to_position(self):
        text = "a 1 2 0.5\nb 3 4 0.25\n"
        sinks = read_sinks(io.StringIO(text))
        assert [s.module for s in sinks] == [0, 1]

    def test_malformed_line_reports_lineno(self):
        with pytest.raises(ValueError, match="line 2"):
            read_sinks(io.StringIO("a 1 2 0.5\nbad line here too many fields x\n"))

    def test_non_numeric_rejected(self):
        with pytest.raises(ValueError, match="line 1"):
            read_sinks(io.StringIO("a x 2 0.5\n"))

    def test_empty_file_rejected(self):
        with pytest.raises(ValueError, match="no sinks"):
            read_sinks(io.StringIO("# nothing\n"))
