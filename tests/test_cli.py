"""Tests for the command-line interface."""

import pytest

from repro.cli import BENCH_DRIVERS, build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_demo_defaults(self):
        args = build_parser().parse_args(["demo"])
        assert args.dataset == "tpch"
        assert args.rows == 100_000

    def test_demo_overrides(self):
        args = build_parser().parse_args(
            ["demo", "--dataset", "osm", "--rows", "5000"]
        )
        assert args.dataset == "osm"
        assert args.rows == 5000

    def test_bench_rejects_unknown_artifact(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "fig99"])

    def test_bench_accepts_all(self):
        args = build_parser().parse_args(["bench", "all"])
        assert args.artifact == "all"

    def test_every_driver_name_exists(self):
        from repro.bench import experiments

        for driver_name in BENCH_DRIVERS.values():
            assert hasattr(experiments, driver_name), driver_name

    def test_throughput_defaults(self):
        args = build_parser().parse_args(["throughput"])
        assert args.dataset == "tpch"
        assert args.workers == 1
        assert args.grid_scale == 1.0
        assert not args.compare_legacy


class TestCommands:
    def test_datasets_lists_all(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        for name in ("sales", "tpch", "osm", "perfmon", "uniform"):
            assert name in out

    def test_demo_runs_small(self, capsys):
        assert main(["demo", "--rows", "2000", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "Learned layout" in out
        assert "Flood" in out and "Full Scan" in out

    def test_throughput_runs_small(self, capsys):
        assert (
            main(
                [
                    "throughput", "--rows", "2000", "--queries", "20",
                    "--repeats", "1", "--grid-scale", "2", "--workers", "2",
                    "--compare-legacy", "--seed", "3",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "queries/s" in out
        assert "results identical" in out


class TestServeFleetFlags:
    def test_serve_fleet_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.readers == 0
        assert not args.group_commit

    def test_serve_fleet_flags_parse(self):
        args = build_parser().parse_args(
            [
                "serve", "--index", "delta", "--data-dir", "/tmp/x",
                "--readers", "4", "--group-commit",
            ]
        )
        assert args.readers == 4
        assert args.group_commit

    def test_negative_readers_rejected(self, capsys):
        assert main(["serve", "--readers", "-1"]) == 2
        assert "--readers >= 0" in capsys.readouterr().err

    def test_readers_need_delta_and_data_dir(self, capsys):
        assert main(["serve", "--readers", "2"]) == 2
        assert "--index delta" in capsys.readouterr().err
        assert main(["serve", "--readers", "2", "--index", "delta"]) == 2
        assert "--data-dir" in capsys.readouterr().err

    def test_group_commit_needs_data_dir(self, capsys):
        assert (
            main(["serve", "--index", "delta", "--group-commit"]) == 2
        )
        assert "--data-dir" in capsys.readouterr().err


class TestServeShardFlags:
    def test_serve_is_unsharded_by_default(self):
        args = build_parser().parse_args(["serve"])
        assert args.shards == 1
        assert not hasattr(args, "backend")

    def test_backend_flag_is_gone(self):
        for command in ("serve", "throughput"):
            with pytest.raises(SystemExit):
                build_parser().parse_args([command, "--backend", "thread"])

    def test_sharded_delta_rejected(self, capsys):
        assert main(["serve", "--index", "delta", "--shards", "2"]) == 2
        assert "--shards needs --index flood" in capsys.readouterr().err
        assert main(["serve", "--index", "delta", "--shards", "0"]) == 2
