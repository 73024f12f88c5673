"""Shared infrastructure for the benchmark harness.

Every benchmark file regenerates one table or figure of the paper. The
``report`` fixture renders a paper-vs-measured table, writes it through
pytest's captured stdout *and* to the live terminal (so ``pytest
benchmarks/ | tee bench_output.txt`` records it), and appends it to
``.artifacts/experiments/`` for the EXPERIMENTS.md record.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from repro.bench.context import artifacts_dir, get_context
from repro.bench.tables import format_table
from repro.bench.trajectory import record as record_trajectory


def _emit(text: str, name: str) -> None:
    print(text)
    # Captured stdout is hidden for passing tests; echo to the real
    # terminal too so the tee'd bench log contains every table.
    try:
        sys.__stdout__.write(text + "\n")
        sys.__stdout__.flush()
    except Exception:
        pass
    out_dir = artifacts_dir() / "experiments"
    out_dir.mkdir(parents=True, exist_ok=True)
    with (out_dir / f"{name}.txt").open("a") as f:
        f.write(text + "\n")


@pytest.fixture
def trajectory(request):
    """``trajectory(metrics, meta=...)`` — record richer benchmark metrics."""

    def _record(metrics, meta=None):
        record_trajectory(request.node.nodeid, metrics, meta=meta)

    return _record


@pytest.fixture
def report(request):
    """``report(title, headers, rows, note="...")`` — render and record."""

    def _report(title, headers, rows, note=""):
        _emit(format_table(title, headers, rows, note), request.node.name)

    return _report


@pytest.fixture(scope="session")
def ctx3():
    """The java/spark/flink context (most experiments)."""
    return get_context(("java", "spark", "flink"))


@pytest.fixture(scope="session")
def ctx_pg():
    """The java/spark/flink/postgres context (Figs. 12(d), 13)."""
    return get_context(("java", "spark", "flink", "postgres"))


@pytest.fixture(scope="session")
def ctx2():
    """A two-platform context (Fig. 1 uses two underlying platforms)."""
    return get_context(("java", "spark"), train_points=8000)


def fmt_runtime(value: float) -> str:
    """Render a measured runtime like the paper's figures annotate bars."""
    if value == float("inf"):
        return "out-of-memory"
    if value >= 3600.0:
        return "aborted-1h"
    return f"{value:.1f}"
