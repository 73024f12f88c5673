"""The perf trajectory: dated ``BENCH_*.json`` measurement records.

Benchmark numbers are only useful over time — a single Fig. 9 table says
"Robopt is fast today", a trajectory of them says whether a refactor made
it slower. Benchmarks therefore append their measurements (latencies,
subplan counts, trace counters) to ``BENCH_<yyyymmdd>.json`` at the
repository root (one JSON array per day), by calling :func:`record`
directly or through the ``trajectory`` fixture in
``benchmarks/conftest.py``.

Override the destination with the ``REPRO_BENCH_FILE`` environment
variable; set it to an empty string to disable recording entirely.
"""

from __future__ import annotations

import json
import math
import os
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Dict, List, Optional

__all__ = ["trajectory_path", "record", "load", "series"]


def _repo_root() -> Path:
    here = Path(__file__).resolve()
    for parent in here.parents:
        if (parent / "pyproject.toml").exists():
            return parent
    return Path.cwd()


def trajectory_path(when: Optional[datetime] = None) -> Optional[Path]:
    """Today's trajectory file (``None`` when recording is disabled)."""
    env = os.environ.get("REPRO_BENCH_FILE")
    if env is not None:
        return Path(env) if env else None
    when = when if when is not None else datetime.now(timezone.utc)
    return _repo_root() / f"BENCH_{when:%Y%m%d}.json"


def _clean(value: Any) -> Any:
    """JSON-safe metric value (non-finite floats become ``None``)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return value
    value = float(value)
    return value if math.isfinite(value) else None


def record(
    name: str,
    metrics: Dict[str, Any],
    meta: Optional[Dict[str, Any]] = None,
    path=None,
) -> Optional[Path]:
    """Append one measurement entry; returns the file written (or None)."""
    path = Path(path) if path is not None else trajectory_path()
    if path is None:
        return None
    entries = load(path)
    entry: Dict[str, Any] = {
        "name": name,
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "metrics": {k: _clean(v) for k, v in metrics.items()},
    }
    if meta:
        entry["meta"] = meta
    entries.append(entry)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(entries, indent=2) + "\n")
    tmp.replace(path)
    return path


def load(path=None) -> List[Dict[str, Any]]:
    """The entries of one trajectory file ([] if absent or disabled)."""
    path = Path(path) if path is not None else trajectory_path()
    if path is None or not path.exists():
        return []
    return json.loads(path.read_text())


def series(
    name: str,
    metric: Optional[str] = None,
    root: Optional[Path] = None,
) -> List[Dict[str, Any]]:
    """All entries named ``name`` across every ``BENCH_*.json``, in time order.

    Scans the repository root (or ``root``) for trajectory files, sorts
    their entries by timestamp, and returns those whose ``name`` matches
    exactly. With ``metric`` set, only entries that carry that metric are
    returned — the regression gate uses this to compare the last two
    recorded batch throughputs.
    """
    root = Path(root) if root is not None else _repo_root()
    entries: List[Dict[str, Any]] = []
    for path in sorted(root.glob("BENCH_*.json")):
        try:
            entries.extend(load(path))
        except (OSError, json.JSONDecodeError):
            continue
    picked = [
        e
        for e in entries
        if e.get("name") == name
        and (metric is None or metric in e.get("metrics", {}))
    ]
    picked.sort(key=lambda e: e.get("timestamp", ""))
    return picked
