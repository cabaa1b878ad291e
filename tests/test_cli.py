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

    @pytest.mark.parametrize(
        "argv",
        (
            ["characteristics", "--candidate-limit", "4"],
            ["characteristics", "--gate-sizing"],
            ["characteristics", "--audit"],
            ["compare", "--gate-sizing"],
            ["compare", "--audit"],
            ["sweep", "--gate-sizing"],
            ["sweep", "--audit"],
            ["audit", "--gate-sizing"],
            ["audit", "--audit"],
            ["lint"],
            ["obs", "diff", "a", "b", "--time-rel", "2"],
            ["obs", "diff", "a", "b", "--dir", "runs"],
        ),
        ids=lambda argv: "-".join(argv).replace("--", ""),
    )
    def test_rejects_flags_the_command_ignores(self, argv):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2


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
        "extra",
        (
            ["--shards", "2", "--workers", "-5"],
            ["--shards", "2", "--workers", "0"],
            ["--workers", "2"],
        ),
        ids=["negative", "zero", "without-shards"],
    )
    def test_bad_workers_is_rejected(self, capsys, extra):
        code = main(["route", "--benchmark", "r1", "--scale", "0.2"] + extra)
        captured = capsys.readouterr()
        assert code == 2
        assert "InputError" in captured.err
        assert "workers" in captured.err
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

    @pytest.mark.parametrize(
        "extra",
        (["--method", "buffered"], ["--method", "gated", "--shards", "2"]),
        ids=["buffered", "shards"],
    )
    def test_gate_sizing_rejected_where_it_would_be_ignored(self, capsys, extra):
        code = main(["route", "--scale", "0.05", "--gate-sizing"] + extra)
        captured = capsys.readouterr()
        assert code == 2
        assert "InputError" in captured.err
        assert "gate-sizing" in captured.err
        assert "pF" not in captured.out

    @staticmethod
    def external_route(tmp_path):
        """``route`` argv reading user-provided sink/ISA/trace files."""
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
        return [
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

    def test_external_inputs(self, tmp_path, capsys):
        code = main(self.external_route(tmp_path))
        assert code == 0
        assert "gated" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flag, value",
        (("--benchmark", "r1"), ("--scale", "0.4"), ("--activity", "0.3")),
        ids=["benchmark", "scale", "activity"],
    )
    def test_external_inputs_reject_benchmark_options(
        self, tmp_path, capsys, flag, value
    ):
        # An external route never reads these; an explicit value, even
        # the default one, is an error rather than silently ignored.
        code = main(self.external_route(tmp_path) + [flag, value])
        captured = capsys.readouterr()
        assert code == 2
        assert "InputError" in captured.err
        assert flag in captured.err
        assert "pF" not in captured.out

    def test_external_inputs_require_workload(self, tmp_path, capsys):
        from repro.bench.sinks import SinkGenerator
        from repro.io.sinkfile import write_sinks

        write_sinks(SinkGenerator(num_sinks=4, seed=0).generate(), tmp_path / "s.txt")
        code = main(["route", "--sinks", str(tmp_path / "s.txt")])
        captured = capsys.readouterr()
        assert code == 2
        assert "InputError" in captured.err
        assert "--isa and --instr-trace" in captured.err

    @pytest.mark.parametrize(
        "workload",
        (
            ["--isa", "/nonexistent.json"],
            ["--instr-trace", "/nonexistent.trace"],
            ["--isa", "/nonexistent.json", "--instr-trace", "/nonexistent.trace"],
        ),
        ids=["isa", "instr-trace", "both"],
    )
    def test_workload_files_require_sinks(self, capsys, workload):
        code = main(["route", "--benchmark", "r1", "--scale", "0.05"] + workload)
        captured = capsys.readouterr()
        assert code == 2
        assert "InputError" in captured.err
        assert "--sinks" in captured.err
        assert "pF" not in captured.out
