"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main, parse_size


class TestParseSize:
    def test_suffixes(self):
        assert parse_size("30MB") == 30 * 2 ** 20
        assert parse_size("6GB") == 6 * 2 ** 30
        assert parse_size("1TB") == 2 ** 40
        assert parse_size("2.5 gb") == 2.5 * 2 ** 30

    def test_plain_bytes(self):
        assert parse_size("1024") == 1024.0

    def test_invalid(self):
        with pytest.raises(ValueError):
            parse_size("many")


class TestCommands:
    def test_workloads_lists_table2(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        for name in ("WordCount", "SGD", "CrocoPR", "TPC-H Q3"):
            assert name in out

    def test_simulate_all_platforms(self, capsys):
        rc = main(["simulate", "--workload", "wordcount", "--size", "3GB"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "java" in out and "oom" in out  # 3GB OOMs on java
        assert "spark" in out and "flink" in out

    def test_simulate_single_platform(self, capsys):
        rc = main(
            ["simulate", "--workload", "tpchq1", "--size", "1GB", "--platform", "flink"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "flink" in out and "java" not in out

    def test_simulate_trace(self, tmp_path, capsys):
        from repro.obs import counters, read_trace, spans_named

        trace_path = tmp_path / "sim.jsonl"
        rc = main(
            [
                "simulate",
                "--workload", "wordcount",
                "--size", "100MB",
                "--platform", "java",
                "--trace", str(trace_path),
            ]
        )
        assert rc == 0
        assert "wrote" in capsys.readouterr().out
        records = read_trace(trace_path)
        assert spans_named(records, "simulate.execute")
        assert counters(records)["simulate.executions"] == 1

    def test_unknown_workload_is_an_error(self, capsys):
        rc = main(["simulate", "--workload", "nosuchquery"])
        assert rc == 2
        assert "unknown workload" in capsys.readouterr().err

    def test_train_optimize_explain_pipeline(self, tmp_path, capsys):
        model_path = tmp_path / "model.pkl"
        rc = main(
            [
                "train",
                "--points", "400",
                "--seed", "1",
                "--out", str(model_path),
            ]
        )
        assert rc == 0
        assert model_path.exists()
        capsys.readouterr()

        plan_path = tmp_path / "plan.json"
        trace_path = tmp_path / "trace.jsonl"
        rc = main(
            [
                "optimize",
                "--workload", "WordCount",
                "--size", "300MB",
                "--model", str(model_path),
                "--out", str(plan_path),
                "--trace", str(trace_path),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "predicted runtime" in out
        blob = json.loads(plan_path.read_text())
        assert blob["plan"]["name"] == "wordcount"
        assert len(blob["assignment"]) == 6

        from repro.obs import counters, read_trace, spans_named

        records = read_trace(trace_path)
        assert spans_named(records, "enumerate")
        assert spans_named(records, "enumerate.merge")
        assert spans_named(records, "model.predict")
        totals = counters(records)
        assert totals["enumerate.merges"] >= 1
        assert totals["enumerate.prune_calls"] >= 1
        assert totals["model.rows_predicted"] > 0

        rc = main(
            [
                "explain",
                "--workload", "WordCount",
                "--size", "300MB",
                "--model", str(model_path),
            ]
        )
        assert rc == 0
        assert "Chosen plan" in capsys.readouterr().out

    def test_optimize_plan_json_input(self, tmp_path, capsys):
        from repro.rheem.serialization import plan_to_json
        from conftest import build_pipeline

        model_path = tmp_path / "model.pkl"
        main(["train", "--points", "400", "--seed", "2", "--out", str(model_path)])
        capsys.readouterr()
        plan_path = tmp_path / "my_plan.json"
        plan_path.write_text(plan_to_json(build_pipeline(3)))
        rc = main(
            ["optimize", "--plan-json", str(plan_path), "--model", str(model_path)]
        )
        assert rc == 0
        assert "predicted runtime" in capsys.readouterr().out


class TestBatchCli:
    """optimize-batch plumbing: worker sizing, latency output, and
    opt-in bench recording."""

    def _write_jobs(self, tmp_path, n=2):
        path = tmp_path / "jobs.jsonl"
        rows = [
            {"id": f"wc{i}", "workload": "WordCount", "size": f"{20 * (i + 1)}MB"}
            for i in range(n)
        ]
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        return path

    def test_workers_flag_accepts_auto_and_integers(self):
        from repro.cli import build_parser

        parser = build_parser()
        base = ["optimize-batch", "--jobs", "j.jsonl", "--model", "m.pkl"]
        assert parser.parse_args(base).workers is None  # auto by default
        assert parser.parse_args(base + ["--workers", "auto"]).workers is None
        assert parser.parse_args(base + ["--workers", "0"]).workers == 0
        assert parser.parse_args(base + ["--workers", "3"]).workers == 3

    def test_batch_prints_workers_and_latency_percentiles(self, tmp_path, capsys):
        jobs = self._write_jobs(tmp_path)
        rc = main(
            [
                "optimize-batch",
                "--jobs", str(jobs),
                "--model", str(tmp_path / "missing.pkl"),
                "--workers", "0",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "workers=" in out
        assert "p50=" in out and "p95=" in out and "p99=" in out

    def test_trajectory_recording_is_opt_in(self, tmp_path, capsys, monkeypatch):
        """Without --bench-record a CLI run appends nothing to the bench
        trajectory, inside a test or not — drills and smoke runs would
        otherwise pollute the committed BENCH_*.json series."""
        monkeypatch.delenv("PYTEST_CURRENT_TEST")  # run as if outside pytest
        bench = tmp_path / "BENCH_test.json"
        monkeypatch.setenv("REPRO_BENCH_FILE", str(bench))
        jobs = self._write_jobs(tmp_path)
        rc = main(
            [
                "optimize-batch",
                "--jobs", str(jobs),
                "--model", str(tmp_path / "missing.pkl"),
                "--workers", "0",
            ]
        )
        assert rc == 0
        assert not bench.exists()

    def test_bench_record_flag_opts_back_in(self, tmp_path, capsys, monkeypatch):
        bench = tmp_path / "BENCH_test.json"
        monkeypatch.setenv("REPRO_BENCH_FILE", str(bench))
        jobs = self._write_jobs(tmp_path)
        rc = main(
            [
                "optimize-batch",
                "--jobs", str(jobs),
                "--model", str(tmp_path / "missing.pkl"),
                "--workers", "0",
                "--bench-record",
            ]
        )
        assert rc == 0
        entries = json.loads(bench.read_text())
        assert [e["name"] for e in entries] == ["serve.optimize_batch"]
        metrics = entries[0]["metrics"]
        for key in ("latency_p50_s", "latency_p95_s", "latency_p99_s",
                    "workers", "workers_requested", "plans_per_sec"):
            assert key in metrics


class TestServiceFlags:
    """`optimize-batch` and `serve` build their service from one flag table."""

    VALUED = {
        "--model": "m.pkl",
        "--platforms": "java,spark",
        "--priority": "speed",
        "--workers": "3",
        "--timeout": "2.5",
        "--cache": "c.json",
        "--cache-size": "9",
        "--template-cache": "t.json",
        "--template-cache-size": "7",
        "--deadline-ms": "12",
        "--retries": "4",
        "--quarantine-after": "5",
        "--chaos-profile": "everything",
        "--retrain-after": "3",
        "--drift-threshold": "2.0",
        "--risk-aversion": "0.5",
        "--variance-threshold": "0.3",
    }
    SWITCHES = ["--no-resilience", "--feedback"]

    def _parse_both(self, extra):
        from repro.cli import build_parser

        parser = build_parser()
        batch = vars(parser.parse_args(["optimize-batch", "--jobs", "j.jsonl", *extra]))
        serve = vars(parser.parse_args(["serve", "--model", "m.pkl", *extra]))
        dests = [f.lstrip("-").replace("-", "_") for f in [*self.VALUED, *self.SWITCHES]]
        return {d: batch[d] for d in dests}, {d: serve[d] for d in dests}

    def test_same_defaults(self):
        batch, serve = self._parse_both(["--model", "m.pkl"])
        assert batch == serve
        assert batch["cache_size"] == 256 and batch["retries"] == 2
        assert batch["workers"] is None and not batch["feedback"]

    def test_both_accept_every_shared_option(self):
        extra = [*self.SWITCHES]
        for flag, value in self.VALUED.items():
            extra += [flag, value]
        batch, serve = self._parse_both(extra)
        assert batch == serve
        assert batch["workers"] == 3 and batch["deadline_ms"] == 12.0
        assert batch["no_resilience"] and batch["feedback"]
