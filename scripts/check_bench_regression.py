#!/usr/bin/env python
"""Fail CI when a recorded benchmark series crosses its bound.

Every bound lives in :data:`GATES`, keyed by the tier-2 CI job that
records the series. Each row names a series of the ``BENCH_*.json``
trajectory, one of its metrics, and a kind:

* ``drop`` — the latest value may not fall by more than ``bound`` (a
  fraction) against the previous entry;
* ``rise`` — the latest value may not rise by more than ``bound``;
* ``max`` — the latest value may not exceed ``bound``;
* ``min`` — the latest value may not fall below ``bound``;
* ``above`` — the strict form of ``min``: the latest value must exceed
  ``bound``.

A series not recorded yet is skipped. A relative row with one entry
establishes its baseline and passes. A relative row skips a previous
value at or below zero, or under its noise ``floor`` (timer jitter, not
a measurement). A row with ``min_cpus`` skips an entry measured on fewer
CPUs (a pool cannot win on one core).

Every row of the named groups is evaluated and reported; the exit code
is 1 if any of them failed.

Usage::

    PYTHONPATH=src python scripts/check_bench_regression.py serving
    PYTHONPATH=src python scripts/check_bench_regression.py pool daemon --root .
"""

from __future__ import annotations

import argparse
import operator
import sys
from typing import NamedTuple, Optional

from repro.bench.trajectory import series

FIG09A = "benchmarks/test_fig09_efficiency.py::test_fig09a_latency_vs_operators"


class Gate(NamedTuple):
    series: str
    metric: str
    kind: str
    bound: float
    floor: Optional[float] = None
    min_cpus: Optional[int] = None


GATES = {
    "serving": [
        Gate("serve.batch_throughput_resilient", "overhead", "max", 0.05),
        Gate("serve.batch_throughput", "latency_p95_s", "rise", 0.5, floor=1e-3),
        Gate("serve.batch_throughput", "plans_per_sec", "drop", 0.30),
    ],
    "pool": [
        Gate("serve.batch_throughput", "pool_speedup", "above", 1.0, min_cpus=2),
    ],
    "daemon": [
        Gate("serve.daemon_throughput", "daemon_p95_ms", "rise", 0.5, floor=1.0),
    ],
    "template": [
        Gate("serve.template_cache", "template_hit_rate", "min", 0.5),
    ],
    "enumeration": [
        Gate(FIG09A, "robopt_80ops_s", "max", 0.025),
        Gate(FIG09A, "robopt_80ops_s", "rise", 0.25, floor=1e-3),
    ],
    "feedback": [
        Gate("ml.drift_heal", "heal_ratio", "min", 2.0),
    ],
}

#: Absolute kinds: ``passes(latest, bound)``.
ABSOLUTE = {"max": operator.le, "min": operator.ge, "above": operator.gt}
#: Relative kinds: the sign of the change that counts against the bound.
RELATIVE = {"drop": -1, "rise": 1}


def _show(metric: str, value: float) -> str:
    if metric.endswith("_s"):
        return f"{value * 1000:.2f}ms"
    if metric.endswith("_ms"):
        return f"{value:.2f}ms"
    return f"{value:.5g}"


def check(gate: Gate, root=None) -> bool:
    """Evaluate one row of :data:`GATES`, print its verdict, return pass."""
    entries = series(gate.series, metric=gate.metric, root=root)
    label = f"bench-regression: {gate.series}.{gate.metric}"
    if not entries:
        print(f"{label}: not recorded yet [SKIP]")
        return True
    metrics = entries[-1]["metrics"]
    latest = metrics[gate.metric]
    cpus = metrics.get("cpus") or 0
    if gate.min_cpus and cpus < gate.min_cpus:
        print(f"{label}: latest entry ran on {cpus:g} CPU(s) [SKIP]")
        return True
    if gate.kind in ABSOLUTE:
        if latest is None:
            print(f"{label}: latest value missing [SKIP]")
            return True
        ok = ABSOLUTE[gate.kind](latest, gate.bound)
        shown = (
            f"{_show(gate.metric, latest)} "
            f"({gate.kind} {_show(gate.metric, gate.bound)})"
        )
    else:
        if len(entries) < 2:
            print(f"{label}: {len(entries)} entry, baseline established [OK]")
            return True
        previous = entries[-2]["metrics"][gate.metric]
        if (
            previous is None
            or latest is None
            or previous <= 0
            or previous < (gate.floor or 0)
        ):
            print(f"{label}: {previous!r} -> {latest!r} not comparable [SKIP]")
            return True
        change = (latest - previous) / previous
        ok = RELATIVE[gate.kind] * change <= gate.bound
        shown = (
            f"{_show(gate.metric, previous)} -> {_show(gate.metric, latest)} "
            f"({change:+.1%}, {gate.kind} <= {gate.bound:.0%})"
        )
    print(f"{label} {shown} [{'OK' if ok else 'FAIL'}]")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "groups", nargs="+", choices=sorted(GATES), metavar="GROUP",
        help=f"gate groups to evaluate: {', '.join(GATES)}",
    )
    parser.add_argument("--root", default=None, help="repo root to scan")
    args = parser.parse_args(argv)
    # A list, not a generator: every row reports even after one fails.
    passed = [
        check(gate, args.root) for group in args.groups for gate in GATES[group]
    ]
    return 0 if all(passed) else 1


if __name__ == "__main__":
    sys.exit(main())
