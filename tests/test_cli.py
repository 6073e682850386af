"""Tests for the ``repro`` command-line interface."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli.main import build_parser, main
from repro.cli.serialize import csv_rows, render_csv, to_jsonable


class TestParser:
    def test_parser_covers_all_subcommands(self):
        parser = build_parser()
        for argv in (
            ["list"],
            ["list", "experiments"],
            ["policies"],
            ["workloads"],
            ["run", "figure3", "--tiny", "--no-cache"],
            ["run", "table3", "--benchmarks", "sqlite,gcc", "--jobs", "2"],
            ["run", "figure6", "--tiny", "--policy", "ship:shct_bits=3"],
            ["run", "table3", "--tiny", "--workload", "zipf:alpha=1.2"],
            ["run", "figure6", "--tiny", "--trace-dir", "traces"],
            ["sweep", "--policies", "lru,trrip-1", "--tiny"],
            ["sweep", "--policy", "trrip-2", "--tiny"],
            ["sweep", "--workload", "streaming", "--workload", "zipf"],
            ["report", "figure3", "--format", "csv"],
        ):
            args = parser.parse_args(argv)
            assert args.command == argv[0]

    def test_unknown_subcommand_exits(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_tiny_and_benchmarks_are_mutually_exclusive(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "figure6", "--tiny", "--benchmarks", "sqlite"]
            )
        assert "not allowed with" in capsys.readouterr().err


class TestList:
    def test_list_all(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "figure3" in out
        assert "sqlite" in out
        assert "trrip-1" in out
        assert "srrip (baseline)" in out

    def test_list_sections(self, capsys):
        assert main(["list", "policies"]) == 0
        out = capsys.readouterr().out
        assert "replacement policies" in out
        assert "experiments:" not in out


class TestPolicies:
    def test_policies_subcommand_lists_catalog(self, capsys):
        assert main(["policies"]) == 0
        out = capsys.readouterr().out
        assert "trrip-1" in out
        assert "aliases: trrip, trrip1" in out
        assert "rrpv_bits:int=2" in out
        assert "[baseline]" in out

    def test_run_with_parameterised_policy(self, capsys):
        argv = [
            "run",
            "table3",
            "--tiny",
            "--no-cache",
            "--policy",
            "ship:shct_bits=3",
            "--policy",
            "trrip-1",
        ]
        assert main(argv) == 0
        assert "ship:shct_bits=3" in capsys.readouterr().out

    def test_unknown_policy_fails_cleanly(self, capsys):
        assert main(["sweep", "--tiny", "--no-cache", "--policy", "nope"]) == 1
        err = capsys.readouterr().err
        assert "unknown replacement policy 'nope'" in err
        assert "trrip-1" in err  # the message names the valid choices

    def test_malformed_policy_parameter_fails_cleanly(self, capsys):
        argv = ["sweep", "--tiny", "--no-cache", "--policy", "ship:bogus=1"]
        assert main(argv) == 1
        assert "no parameter 'bogus'" in capsys.readouterr().err

    def test_policy_warning_for_fixed_policy_experiments(self, capsys):
        argv = ["run", "figure3", "--tiny", "--no-cache", "--policy", "trrip-1"]
        assert main(argv) == 0
        assert "--policy ignored" in capsys.readouterr().err


class TestWorkloads:
    def test_workloads_subcommand_lists_families(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "zipf" in out
        assert "alpha:float=1.2" in out
        assert "aliases: stream" in out
        assert "--workload" in out

    def test_run_with_family_workload(self, capsys):
        argv = [
            "run",
            "table3",
            "--tiny",
            "--no-cache",
            "--workload",
            "zipf:alpha=1.2,instructions=4000,warmup=1000",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "tinybenc" in out
        assert "zipf:alp" in out  # family column next to the tiny one

    def test_unknown_family_fails_cleanly(self, capsys):
        argv = ["run", "table3", "--tiny", "--no-cache", "--workload", "nope"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "unknown workload" in err

    def test_bad_family_parameter_fails_cleanly(self, capsys):
        argv = ["sweep", "--no-cache", "--workload", "zipf:bogus=1"]
        assert main(argv) == 1
        assert "no parameter 'bogus'" in capsys.readouterr().err

    def test_empty_benchmarks_fails_instead_of_running_defaults(self, capsys):
        argv = ["run", "table3", "--benchmarks", ",", "--no-cache"]
        assert main(argv) == 1
        assert "benchmark axis is empty" in capsys.readouterr().err

    def test_trace_dir_captures_then_replays(self, tmp_path, capsys):
        traces = str(tmp_path / "traces")
        argv = [
            "run",
            "figure7",
            "--tiny",
            "--no-cache",
            "--trace-dir",
            traces,
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "0 replayed, 1 captured" in first

        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "1 replayed, 0 captured" in second
        assert list((tmp_path / "traces").glob("*/*.trace"))


class TestRun:
    def test_unknown_experiment_fails_cleanly(self, capsys):
        assert main(["run", "figure33", "--no-cache"]) == 1
        assert "unknown experiment" in capsys.readouterr().err

    def test_unknown_benchmark_fails_cleanly(self, capsys):
        assert main(["run", "figure3", "--benchmarks", "nope", "--no-cache"]) == 1
        assert "unknown workload" in capsys.readouterr().err

    def test_static_experiment_runs_without_cache(self, capsys):
        assert main(["run", "table2", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out
        assert "sqlite" in out

    def test_tiny_run_caches_and_replays(self, tmp_path, capsys):
        store = str(tmp_path)
        assert main(["run", "figure7", "--tiny", "--store", store]) == 0
        first = capsys.readouterr().out
        assert "Figure 7" in first
        assert "0 served from cache" in first

        assert main(["run", "figure7", "--tiny", "--store", store]) == 0
        second = capsys.readouterr().out
        assert "# 0 simulation(s) run" in second

    def test_no_cache_disables_the_store(self, tmp_path, capsys):
        store = str(tmp_path)
        argv = ["run", "figure7", "--tiny", "--store", store, "--no-cache"]
        assert main(argv) == 0
        assert "cache disabled" in capsys.readouterr().out
        assert not list(tmp_path.glob("runs/*/*.json"))

    @pytest.mark.parametrize(
        "command", (["run", "table3"], ["sweep", "--policies", "lru"])
    )
    def test_negative_jobs_are_rejected(self, command, capsys):
        assert main([*command, "--tiny", "--no-cache", "--jobs", "-2"]) == 1
        assert "--jobs must be >= 0" in capsys.readouterr().err

    def test_pooled_default_reports_the_in_process_summary(
        self, tmp_path, capsys, monkeypatch
    ):
        """A two-workload plan forks two workers by default; its cache and
        trace summaries, cold and warm, equal ``--jobs 1``'s."""
        from repro.experiments.supervisor import SupervisedPool

        monkeypatch.setattr("repro.experiments.supervisor.usable_cpus", lambda: 2)
        pools = []
        start = SupervisedPool.run
        monkeypatch.setattr(
            SupervisedPool,
            "run",
            lambda pool, tasks: pools.append(pool.workers) or start(pool, tasks),
        )
        summaries = {}
        for label, jobs in (("pooled", []), ("in-process", ["--jobs", "1"])):
            argv = [
                "run",
                "table3",
                "--tiny",
                "--spec",
                "zipf:alpha=1.2,instructions=6000,warmup=2000",
                "--store",
                str(tmp_path / label / "store"),
                "--trace-dir",
                str(tmp_path / label / "traces"),
                *jobs,
            ]
            lines = []
            for _ in ("cold", "warm"):
                assert main(argv) == 0
                out = capsys.readouterr().out.replace(str(tmp_path / label), "")
                lines += [line for line in out.splitlines() if line.startswith("# ")]
            summaries[label] = lines
        assert pools == [2]
        assert summaries["pooled"] == summaries["in-process"]
        assert summaries["pooled"] == [
            "# 18 simulation(s) run, 0 served from cache (/store)",
            "# traces: 0 replayed, 2 captured (/traces)",
            "# 0 simulation(s) run, 18 served from cache (/store)",
            "# traces: 0 replayed, 0 captured (/traces)",
        ]

    def test_single_benchmark_experiments_warn_on_extra_benchmarks(
        self, tmp_path, capsys
    ):
        argv = [
            "run",
            "ablation-kill-switch",
            "--benchmarks",
            "rapidjson,bullet",
            "--store",
            str(tmp_path),
        ]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert "using only 'rapidjson'" in captured.err
        assert "bullet" not in captured.out

    def test_refresh_ignores_cached_entries(self, tmp_path, capsys):
        store = str(tmp_path)
        assert main(["run", "figure7", "--tiny", "--store", store]) == 0
        capsys.readouterr()
        argv = ["run", "figure7", "--tiny", "--store", store, "--refresh"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "0 served from cache" in out


class TestSweep:
    def test_tiny_sweep(self, tmp_path, capsys):
        argv = [
            "sweep",
            "--tiny",
            "--policies",
            "lru,trrip-1",
            "--store",
            str(tmp_path),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "Figure 6 view" in out
        assert "Table 3 view" in out
        assert "tinybench" in out

        # Second sweep over the same grid is fully cached.
        assert main(argv) == 0
        assert "# 0 simulation(s) run" in capsys.readouterr().out


class TestBench:
    def test_bench_tiny_writes_report_and_asserts_floors(self, tmp_path, capsys):
        """One-round tiny bench: table printed, JSON written, floors hold.

        The floors are deliberately conservative, so a healthy engine passes
        even on a noisy test machine; a real hot-path regression (orders of
        magnitude, not percent) would exit non-zero here.
        """
        from repro.experiments.bench import load_floors

        output = tmp_path / "bench-report.json"
        assert (
            main(
                [
                    "bench",
                    "--tiny",
                    "--rounds",
                    "1",
                    "--no-sweep",
                    "--output",
                    str(output),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Engine speed" in out
        assert "pinned speedup floors hold" in out
        report = json.loads(output.read_text())
        assert set(report["shapes"]) == {
            "hot_loop",
            "resident",
            "mixed",
            "streaming",
        }
        for row in report["shapes"].values():
            assert row["fast_ips"] > row["seed_ips"]
        # One replay loop, one floor set, covering every bench shape.
        floors = load_floors()
        assert [key for key in floors if key.endswith("speedup_floors")] == [
            "scalar_speedup_floors"
        ]
        assert set(floors["scalar_speedup_floors"]) == set(report["shapes"])


class TestWithoutNumPy:
    """NumPy is optional: only Figure 7's coverage ranking imports it."""

    @staticmethod
    def run_blocked(*argv: str) -> subprocess.CompletedProcess:
        """``repro <argv>`` in a fresh interpreter where ``import numpy``
        fails (a ``None`` entry in ``sys.modules`` blocks the import)."""
        src_dir = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(src_dir)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        code = (
            "import sys\n"
            "sys.modules['numpy'] = None\n"
            "from repro.cli.main import main\n"
            f"sys.exit(main({list(argv)!r}))\n"
        )
        return subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )

    def test_tiny_run_needs_no_numpy(self):
        done = self.run_blocked("run", "table3", "--tiny", "--no-cache")
        assert done.returncode == 0, done.stderr
        assert "Table 3" in done.stdout

    def test_figure7_names_numpy_when_missing(self):
        done = self.run_blocked("run", "figure7", "--tiny", "--no-cache")
        assert done.returncode == 1
        assert "NumPy" in done.stderr


class TestReport:
    def test_report_without_run_fails(self, tmp_path, capsys):
        assert main(["report", "figure3", "--store", str(tmp_path)]) == 1
        assert "no cached report" in capsys.readouterr().err

    def test_report_formats(self, tmp_path, capsys):
        store = str(tmp_path)
        assert main(["run", "figure3", "--tiny", "--store", store]) == 0
        run_out = capsys.readouterr().out

        assert main(["report", "figure3", "--store", store]) == 0
        captured = capsys.readouterr()
        text = captured.out
        assert text.strip() in run_out
        # Provenance goes to stderr so piped output stays clean.
        assert "benchmarks=tinybench" in captured.err

        assert main(["report", "figure3", "--format", "json", "--store", store]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data[0]["benchmark"] == "tinybench"

        assert main(["report", "figure3", "--format", "csv", "--store", store]) == 0
        csv_text = capsys.readouterr().out
        assert csv_text.splitlines()[0].startswith("benchmark,")

    def test_sweep_report_keeps_both_views(self, tmp_path, capsys):
        store = str(tmp_path)
        argv = ["sweep", "--tiny", "--policies", "trrip-1", "--store", store]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(["report", "sweep", "--store", store]) == 0
        text = capsys.readouterr().out
        assert "Figure 6 view" in text
        assert "Table 3 view" in text

    def test_report_to_file(self, tmp_path, capsys):
        store = str(tmp_path)
        assert main(["run", "table2", "--tiny", "--store", store]) == 0
        capsys.readouterr()
        output = tmp_path / "table2.csv"
        argv = [
            "report",
            "table2",
            "--format",
            "csv",
            "--store",
            store,
            "--output",
            str(output),
        ]
        assert main(argv) == 0
        assert output.read_text(encoding="utf-8").startswith("benchmark,")


class TestSerialize:
    def test_to_jsonable_handles_enums_and_nested_dataclasses(self):
        from repro.common.temperature import Temperature
        from repro.cpu.topdown import TopDownBreakdown

        payload = to_jsonable(
            {Temperature.HOT: TopDownBreakdown(retire=1.0), "plain": (1, 2)}
        )
        json.dumps(payload)  # must be serialisable
        assert payload["plain"] == [1, 2]
        [temp_key] = [k for k in payload if k != "plain"]
        assert payload[temp_key]["retire"] == 1.0

    def test_csv_rows_flatten_nested_structures(self):
        headers, rows = csv_rows([{"a": {"b": 1}, "c": [2, 3]}])
        assert headers == ["a.b", "c.0", "c.1"]
        assert rows[0]["a.b"] == 1
        text = render_csv([{"a": {"b": 1}, "c": [2, 3]}])
        assert text.splitlines()[0] == "a.b,c.0,c.1"
