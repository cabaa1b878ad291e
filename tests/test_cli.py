"""Unit tests for the gated-cts command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_route_defaults(self):
        args = build_parser().parse_args(["route"])
        assert args.benchmark == "r1"
        assert args.method == "reduced"
        assert args.knob == 0.5

    def test_rejects_unknown_benchmark(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["route", "--benchmark", "bogus"])


class TestCommands:
    def test_route_buffered(self, capsys):
        assert main(["route", "--scale", "0.06", "--method", "buffered"]) == 0
        out = capsys.readouterr().out
        assert "buffered" in out
        assert "pF" in out

    def test_route_reduced_with_outputs(self, tmp_path, capsys):
        out_json = tmp_path / "t.json"
        out_svg = tmp_path / "t.svg"
        code = main(
            [
                "route",
                "--scale",
                "0.06",
                "--method",
                "reduced",
                "--out",
                str(out_json),
                "--svg",
                str(out_svg),
            ]
        )
        assert code == 0
        assert out_json.exists()
        assert out_svg.read_text().startswith("<svg")

    def test_route_gated_distributed(self, capsys):
        code = main(
            ["route", "--scale", "0.06", "--method", "gated", "--controllers", "4"]
        )
        assert code == 0

    def test_characteristics(self, capsys):
        assert main(["characteristics", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "Table 4" in out
        assert "r5" in out

    def test_compare(self, capsys):
        assert main(["compare", "--scale", "0.06"]) == 0
        out = capsys.readouterr().out
        assert "buffered" in out
        assert "gated" in out
        assert "gate-red" in out

    def test_sweep(self, capsys):
        assert main(["sweep", "--scale", "0.06", "--points", "3"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 5 sweep" in out
        assert out.count("\n") >= 5

    @pytest.mark.parametrize("points", ["0", "-2"])
    def test_sweep_rejects_nonpositive_points(self, capsys, points):
        code = main(["sweep", "--scale", "0.06", "--points", points])
        captured = capsys.readouterr()
        assert code == 2
        assert "InputError" in captured.err
        assert "Fig. 5 sweep" not in captured.out

    def test_exact_greedy_option(self, capsys):
        # --candidate-limit 0 selects the exact greedy.
        assert main(
            ["route", "--scale", "0.04", "--method", "gated", "--candidate-limit", "0"]
        ) == 0

    def test_oversized_shards_clamp_to_sink_count(self, capsys):
        # More shards than sinks is forgiven at the flow layer: the
        # run clamps with a warning instead of dying on InputError.
        code = main(
            ["route", "--scale", "0.04", "--method", "gated", "--shards", "999"]
        )
        assert code == 0

    def test_refine_smoke(self, capsys):
        code = main(
            [
                "route",
                "--scale",
                "0.05",
                "--method",
                "gated",
                "--refine",
                "--moves",
                "30",
                "--seed",
                "1",
                "--audit",
            ]
        )
        assert code == 0
        assert "gated" in capsys.readouterr().out

    def test_refine_rejects_buffered(self, capsys):
        code = main(
            ["route", "--scale", "0.05", "--method", "buffered", "--refine"]
        )
        assert code == 2

    def test_moves_without_refine_is_rejected(self, capsys):
        code = main(
            ["route", "--scale", "0.05", "--method", "reduced", "--moves", "20"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "InputError" in captured.err
        assert "moves" in captured.err
        assert "pF" not in captured.out

    @pytest.mark.parametrize(
        "argv",
        (
            ["route", "--benchmark", "r1", "--scale", "0.05", "--seed", "-1"],
            ["gen", "--sinks", "50", "--seed", "-1"],
        ),
    )
    def test_negative_seed_is_rejected(self, capsys, tmp_path, argv):
        code = main(argv + (["--out-dir", str(tmp_path)] if argv[0] == "gen" else []))
        captured = capsys.readouterr()
        assert code == 2
        assert "InputError" in captured.err
        assert "seed" in captured.err
        assert list(tmp_path.iterdir()) == []

    def test_gate_sizing_flag(self, capsys):
        assert main(
            ["route", "--scale", "0.05", "--method", "reduced", "--gate-sizing"]
        ) == 0

    def test_external_inputs(self, tmp_path, capsys):
        # Route from user-provided sink/ISA/trace files.
        from repro.bench.cpu_model import CpuModel, CpuModelConfig
        from repro.bench.sinks import SinkGenerator
        from repro.io.sinkfile import write_sinks
        from repro.io.tracefile import save_workload

        cpu = CpuModel(CpuModelConfig(num_modules=12, num_instructions=6, seed=1))
        sinks = SinkGenerator(num_sinks=12, seed=1).generate()
        write_sinks(sinks, tmp_path / "sinks.txt")
        save_workload(
            cpu.isa, cpu.stream(300), tmp_path / "isa.json", tmp_path / "trace.txt"
        )
        code = main(
            [
                "route",
                "--sinks",
                str(tmp_path / "sinks.txt"),
                "--isa",
                str(tmp_path / "isa.json"),
                "--instr-trace",
                str(tmp_path / "trace.txt"),
                "--method",
                "gated",
            ]
        )
        assert code == 0
        assert "gated" in capsys.readouterr().out

    def test_external_inputs_require_workload(self, tmp_path):
        from repro.bench.sinks import SinkGenerator
        from repro.io.sinkfile import write_sinks

        write_sinks(SinkGenerator(num_sinks=4, seed=0).generate(), tmp_path / "s.txt")
        with pytest.raises(SystemExit):
            main(["route", "--sinks", str(tmp_path / "s.txt")])
