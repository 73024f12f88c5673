"""The CI bench gate: one table of bounds, one rule applied to every row.

Loads ``scripts/check_bench_regression.py`` as a module and runs it on a
temporary root of synthetic ``BENCH_x.json`` files.
"""

from __future__ import annotations

import importlib.util
import json
import shutil
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
SCRIPT = REPO / "scripts" / "check_bench_regression.py"

_spec = importlib.util.spec_from_file_location("check_bench_regression", SCRIPT)
gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)


def _write(root: Path, rows) -> Path:
    """Write ``(series, metrics)`` rows, oldest first, as one BENCH file."""
    entries = [
        {
            "name": name,
            "timestamp": f"2026-01-01T00:00:{i:02d}+00:00",
            "metrics": metrics,
        }
        for i, (name, metrics) in enumerate(rows)
    ]
    (root / "BENCH_x.json").write_text(json.dumps(entries))
    return root


def _verdict(capsys) -> str:
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1, lines
    return lines[0]


class TestKinds:
    @pytest.mark.parametrize(
        "latest, ok",
        [(0.05, True), (0.0500001, False)],
    )
    def test_max(self, tmp_path, capsys, latest, ok):
        _write(tmp_path, [("s", {"m": latest})])
        assert gate.check(gate.Gate("s", "m", "max", 0.05), tmp_path) is ok
        assert _verdict(capsys).endswith("[OK]" if ok else "[FAIL]")

    @pytest.mark.parametrize("latest, ok", [(0.5, True), (0.49, False)])
    def test_min(self, tmp_path, capsys, latest, ok):
        _write(tmp_path, [("s", {"m": latest})])
        assert gate.check(gate.Gate("s", "m", "min", 0.5), tmp_path) is ok

    @pytest.mark.parametrize("latest, ok", [(1.01, True), (1.0, False)])
    def test_pool_row_is_strictly_above_its_bound(self, tmp_path, latest, ok):
        (pool_row,) = gate.GATES["pool"]
        _write(tmp_path, [(pool_row.series, {"pool_speedup": latest, "cpus": 4})])
        assert gate.check(pool_row, tmp_path) is ok

    @pytest.mark.parametrize("latest, ok", [(70.0, True), (69.0, False)])
    def test_drop(self, tmp_path, latest, ok):
        _write(tmp_path, [("s", {"m": 100.0}), ("s", {"m": latest})])
        assert gate.check(gate.Gate("s", "m", "drop", 0.30), tmp_path) is ok

    @pytest.mark.parametrize("latest, ok", [(1.5, True), (1.51, False)])
    def test_rise(self, tmp_path, latest, ok):
        _write(tmp_path, [("s", {"m": 1.0}), ("s", {"m": latest})])
        assert gate.check(gate.Gate("s", "m", "rise", 0.5), tmp_path) is ok

    def test_only_the_latest_two_entries_count(self, tmp_path):
        rows = [("s", {"m": 1.0}), ("s", {"m": 10.0}), ("s", {"m": 11.0})]
        _write(tmp_path, rows)
        assert gate.check(gate.Gate("s", "m", "rise", 0.5), tmp_path)


class TestSkips:
    @pytest.mark.parametrize("kind", ["drop", "rise"])
    def test_one_entry_establishes_the_baseline(self, tmp_path, capsys, kind):
        _write(tmp_path, [("s", {"m": 5.0})])
        assert gate.check(gate.Gate("s", "m", kind, 0.1), tmp_path)
        assert "baseline established" in _verdict(capsys)

    def test_previous_under_the_noise_floor_is_skipped(self, tmp_path, capsys):
        _write(tmp_path, [("s", {"m": 0.0009}), ("s", {"m": 0.5})])
        assert gate.check(gate.Gate("s", "m", "rise", 0.5, floor=1e-3), tmp_path)
        assert _verdict(capsys).endswith("[SKIP]")

    def test_previous_at_the_noise_floor_is_compared(self, tmp_path):
        _write(tmp_path, [("s", {"m": 1.0}), ("s", {"m": 2.0})])
        assert not gate.check(
            gate.Gate("s", "m", "rise", 0.5, floor=1.0), tmp_path
        )

    def test_drop_skips_a_non_positive_previous(self, tmp_path):
        _write(tmp_path, [("s", {"m": 0.0}), ("s", {"m": -5.0})])
        assert gate.check(gate.Gate("s", "m", "drop", 0.3), tmp_path)

    @pytest.mark.parametrize("kind", ["drop", "rise", "max", "min", "above"])
    def test_unrecorded_series_is_skipped(self, tmp_path, capsys, kind):
        _write(tmp_path, [("other", {"m": 1.0})])
        assert gate.check(gate.Gate("s", "m", kind, 0.0), tmp_path)
        assert "not recorded" in _verdict(capsys)

    def test_pool_row_skips_a_single_cpu_entry(self, tmp_path, capsys):
        (pool_row,) = gate.GATES["pool"]
        _write(tmp_path, [(pool_row.series, {"pool_speedup": 0.5, "cpus": 1})])
        assert gate.check(pool_row, tmp_path)
        assert "1 CPU(s)" in _verdict(capsys)


class TestMain:
    def test_every_row_reports_after_a_failure(self, tmp_path, capsys):
        # The serving group's first row (overhead) fails; the two rows
        # after it must still print their verdicts before the exit 1.
        _write(
            tmp_path,
            [
                ("serve.batch_throughput_resilient", {"overhead": 0.5}),
                (
                    "serve.batch_throughput",
                    {"plans_per_sec": 100.0, "latency_p95_s": 0.1},
                ),
                (
                    "serve.batch_throughput",
                    {"plans_per_sec": 100.0, "latency_p95_s": 0.1},
                ),
            ],
        )
        assert gate.main(["serving", "--root", str(tmp_path)]) == 1
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == len(gate.GATES["serving"])
        assert lines[0].endswith("[FAIL]")
        assert all(line.endswith("[OK]") for line in lines[1:])

    def test_unknown_group_is_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            gate.main(["nonsense", "--root", str(tmp_path)])
        assert exc.value.code == 2

    def test_every_group_passes_on_the_committed_trajectory(self, tmp_path):
        for name in ("BENCH_20260805.json", "BENCH_20260808.json"):
            shutil.copy(REPO / name, tmp_path / name)
        for group in gate.GATES:
            assert gate.main([group, "--root", str(tmp_path)]) == 0, group
