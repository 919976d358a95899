"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_experiment_args(self):
        args = build_parser().parse_args(["experiment", "fig6", "--fast"])
        assert args.command == "experiment"
        assert args.id == "fig6"
        assert args.fast

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])

    def test_solve_requires_topology(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["solve"])

    def test_solve_grid(self):
        args = build_parser().parse_args(
            ["solve", "--grid", "4", "--algorithm", "appx"]
        )
        assert args.grid == 4

    def test_bench_defaults(self):
        args = build_parser().parse_args(["bench"])
        assert args.command == "bench"
        assert args.output == "BENCH.json"
        assert args.scenario is None
        assert args.algorithms == "appx,dist"
        assert args.repeats is None
        assert not args.quick
        assert args.max_full_rebuilds is None
        assert args.compare is None
        assert args.threshold == 25.0
        assert args.trace is None

    def test_bench_compare_and_trace_flags(self):
        args = build_parser().parse_args(
            ["bench", "--compare", "BENCH_PR3.json", "--threshold", "10",
             "--trace", "t.json"]
        )
        assert args.compare == "BENCH_PR3.json"
        assert args.threshold == 10.0
        assert args.trace == "t.json"

    def test_solve_trace_flag(self):
        args = build_parser().parse_args(
            ["solve", "--grid", "4", "--trace", "t.json"]
        )
        assert args.trace == "t.json"

    def test_bench_quick_flags(self):
        args = build_parser().parse_args(
            ["bench", "--quick", "--max-full-rebuilds", "0"]
        )
        assert args.quick
        assert args.max_full_rebuilds == 0

    def test_bench_custom_args(self):
        args = build_parser().parse_args(
            ["bench", "-o", "BENCH_PR1.json", "--scenario", "small",
             "--scenario", "large", "--repeats", "1"]
        )
        assert args.output == "BENCH_PR1.json"
        assert args.scenario == ["small", "large"]


class TestMain:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig6" in out and "appx" in out

    def test_no_command_shows_help(self, capsys):
        assert main([]) == 1

    def test_solve_grid_appx(self, capsys):
        assert main(["solve", "--grid", "4", "--chunks", "2",
                     "--algorithm", "appx"]) == 0
        out = capsys.readouterr().out
        assert "total contention cost" in out
        assert "chunk 0" in out

    def test_solve_random_hopc(self, capsys):
        assert main(["solve", "--nodes", "15", "--seed", "3",
                     "--chunks", "1", "--algorithm", "hopc"]) == 0
        assert "Hopc" in capsys.readouterr().out

    def test_experiment_fast(self, capsys):
        assert main(["experiment", "fig6", "--fast"]) == 0
        assert "p75-fairness" in capsys.readouterr().out


class TestShowMap:
    def test_grid_map_rendered(self, capsys):
        assert main(["solve", "--grid", "3", "--chunks", "1",
                     "--show-map"]) == 0
        out = capsys.readouterr().out
        assert "per-node load map" in out
        assert "*" in out

    def test_map_requires_grid(self, capsys):
        assert main(["solve", "--nodes", "12", "--chunks", "1",
                     "--show-map"]) == 0
        assert "--show-map requires" in capsys.readouterr().out

    def test_greedy_alias(self, capsys):
        assert main(["solve", "--grid", "4", "--chunks", "1",
                     "--algorithm", "greedy"]) == 0
        assert "Greedy" in capsys.readouterr().out


class TestBench:
    def test_custom_nodes_scenario_writes_json(self, tmp_path, capsys):
        import json

        out = tmp_path / "bench.json"
        assert main(["bench", "--nodes", "12", "--repeats", "1",
                     "--algorithms", "appx", "-o", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["schema"] == "repro-bench/1"
        scenario = data["scenarios"][0]
        assert scenario["network"]["nodes"] == 12
        assert "Appx" in scenario["algorithms"]
        printed = capsys.readouterr().out
        assert "custom-12" in printed
        assert str(out) in printed

    def test_unknown_scenario_rejected(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        assert main(["bench", "--scenario", "galactic",
                     "-o", str(out)]) == 2
        assert not out.exists()
        assert "unknown scenario" in capsys.readouterr().err

    def test_unknown_algorithm_rejected(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        assert main(["bench", "--algorithms", "appx,bogus",
                     "-o", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert "unknown algorithm" in err and "bogus" in err

    def test_empty_algorithms_rejected(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        assert main(["bench", "--algorithms", ",", "-o", str(out)]) == 2
        assert not out.exists()
        assert "no algorithms" in capsys.readouterr().err

    def test_zero_repeats_rejected(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        assert main(["bench", "--nodes", "10", "--repeats", "0",
                     "-o", str(out)]) == 2
        assert not out.exists()
        assert "--repeats" in capsys.readouterr().err

    def test_nodes_and_scenario_conflict(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        assert main(["bench", "--nodes", "10", "--scenario", "small",
                     "-o", str(out)]) == 2
        assert not out.exists()
        assert "mutually exclusive" in capsys.readouterr().err

    def test_quick_conflicts_with_scenario(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        assert main(["bench", "--quick", "--scenario", "small",
                     "-o", str(out)]) == 2
        assert not out.exists()
        assert "mutually exclusive" in capsys.readouterr().err

    def test_quick_runs_small_once_within_budget(self, tmp_path, capsys):
        import json

        out = tmp_path / "bench.json"
        assert main(["bench", "--quick", "--algorithms", "appx",
                     "--max-full-rebuilds", "0", "-o", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["repeats"] == 1
        assert [s["name"] for s in data["scenarios"]] == [
            "small", "serve-scale", "dist-faults", "adaptive-drift",
        ]
        counters = data["scenarios"][0]["algorithms"]["Appx"]["counters"]
        assert counters.get("costs.full_rebuilds", 0) == 0
        assert counters["costs.incremental_patches"] > 0
        # serve-scale gates the serving engine only: no solver entries,
        # and the batched path's counters are in the serve section.
        scale = data["scenarios"][1]
        assert scale["algorithms"] == {}
        assert scale["serve"]["requests"] == 200_000
        assert scale["serve"]["counters"]["serve.batch.requests"] == 200_000
        # dist-faults gates the fault plane only: one DistFaults entry,
        # no serve section.
        faults = data["scenarios"][2]
        assert set(faults["algorithms"]) == {"DistFaults"}
        assert faults.get("serve") is None
        # adaptive-drift gates the control loop only: one Adaptive entry
        # carrying the loop summary, which must beat the static arm.
        adaptive = data["scenarios"][3]
        assert set(adaptive["algorithms"]) == {"Adaptive"}
        summary = adaptive["algorithms"]["Adaptive"]["adaptive"]
        assert summary["savings"] > 0
        assert "full-rebuild budget OK" in capsys.readouterr().out

    def test_full_rebuild_budget_overrun_fails(self, tmp_path, capsys,
                                               monkeypatch):
        import json

        # Force the engine over budget: pretend every patch was a drop.
        from repro.obs import bench as bench_mod

        original = bench_mod.bench_algorithm

        def inflated(problem, algorithm, repeats=1, series=False):
            outcome = original(problem, algorithm, repeats=repeats,
                               series=series)
            outcome["counters"]["costs.full_rebuilds"] = 7
            return outcome

        monkeypatch.setattr(bench_mod, "bench_algorithm", inflated)
        out = tmp_path / "bench.json"
        assert main(["bench", "--quick", "--algorithms", "appx",
                     "--max-full-rebuilds", "0", "-o", str(out)]) == 3
        assert json.loads(out.read_text())["schema"] == "repro-bench/1"
        err = capsys.readouterr().err
        assert "full cost" in err and "budget 0" in err


class TestTraceExport:
    def test_solve_writes_perfetto_trace(self, tmp_path, capsys):
        import json

        trace_path = tmp_path / "trace.json"
        assert main(["solve", "--nodes", "20", "--chunks", "1",
                     "--algorithm", "dist", "--trace", str(trace_path)]) == 0
        doc = json.loads(trace_path.read_text())
        events = doc["traceEvents"]
        assert events
        for event in events:
            assert {"name", "ph", "ts", "pid", "tid"} <= set(event)
        names = {event["name"] for event in events}
        # Per-round Algorithm 2 message events, keyed by Table II type.
        assert "msg.NPI" in names and "msg.CC" in names
        assert "dist.tick" in names
        assert "solver.Dist" in names
        assert doc["otherData"]["manifest"]["schema"] == "repro-manifest/1"
        assert "wrote trace" in capsys.readouterr().out

    def test_bench_writes_trace(self, tmp_path):
        import json

        trace_path = tmp_path / "bench-trace.json"
        out = tmp_path / "bench.json"
        assert main(["bench", "--nodes", "12", "--repeats", "1",
                     "--algorithms", "appx", "-o", str(out),
                     "--trace", str(trace_path)]) == 0
        doc = json.loads(trace_path.read_text())
        names = {event["name"] for event in doc["traceEvents"]}
        assert "dual_ascent.round" in names
        assert "commit.chunk" in names

    def test_no_trace_flag_writes_nothing(self, tmp_path):
        out = tmp_path / "bench.json"
        assert main(["bench", "--nodes", "10", "--repeats", "1",
                     "--algorithms", "appx", "-o", str(out)]) == 0
        assert not (tmp_path / "trace.json").exists()


def test_experiment_all_accepted():
    args = build_parser().parse_args(["experiment", "all", "--fast"])
    assert args.id == "all"


class TestInputErrors:
    """Bad setup inputs exit 2 with one ``repro <command>: ...`` line on
    stderr — never a traceback."""

    @pytest.mark.parametrize("argv", [
        ["serve", "--grid", "3", "--rate", "-1"],
        ["serve", "--grid", "3", "--failure-rate", "2"],
        ["serve", "--grid", "0"],
        ["serve", "--nodes", "1"],
        ["solve", "--grid", "0"],
        ["solve", "--nodes", "1"],
        ["adapt", "--nodes", "1"],
        ["adapt", "--grid", "4", "--rate", "-2"],
        ["adapt", "--grid", "4", "--epoch-requests", "0"],
        ["sweep", "--requests", "10", "--rate", "-1"],
        ["serve", "--grid", "3", "--workload", "bogus"],
        ["adapt", "--grid", "4", "--policy", "bogus"],
        ["solve", "--grid", "4", "--loss-rate", "0.1"],
        ["solve", "--grid", "4", "--algorithm", "dist", "--churn",
         "1:99:leave"],
        ["bench", "--repeats", "0"],
        ["bench", "--quick", "--nodes", "30"],
        ["monitor", "x", "--interval", "0"],
        ["sweep", "--seeds", "a"],
        ["adapt", "--grid", "4", "--churn", "x"],
        ["adapt", "--grid", "3", "--workload", "uniform", "--shift-period",
         "3"],
    ], ids=" ".join)
    def test_exits_2_with_one_line(self, argv, tmp_path, monkeypatch,
                                   capsys):
        monkeypatch.chdir(tmp_path)  # sweep would write SWEEP.json here
        assert main(argv) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1, captured.err
        assert lines[0].startswith(f"repro {argv[0]}: ")
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_adaptive_serves_when_requests_cover_epochs(self, capsys):
        assert main(["adapt", "--grid", "4", "--chunks", "2",
                     "--epoch-requests", "1", "--epochs", "10",
                     "--json"]) == 0
        out = capsys.readouterr().out
        assert '"epoch_requests": 1' in out

    def test_serve_adaptive_flag_removed(self, capsys):
        # `repro adapt` is the one CLI route into the control loop;
        # serve's --adaptive/--epochs/--epoch-requests are argparse errors.
        for flag in (["--adaptive"], ["--epochs", "3"],
                     ["--epoch-requests", "100"]):
            with pytest.raises(SystemExit) as exc:
                main(["serve", "--grid", "4"] + flag)
            assert exc.value.code == 2
            assert flag[0] in capsys.readouterr().err
