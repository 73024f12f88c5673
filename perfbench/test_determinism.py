"""The benchmark's own test: one seed, one set of counts.

Two runs of a workload with the same seed must answer the same requests
with exactly the same work: enumeration counts, exact- and
template-cache hits and misses, retrains and model installs. A
difference means the two-connection interleaving (or anything else)
made the daemon nondeterministic, and every count the benchmark reports
would be noise. Each workload must also keep the property it exists for.

Run from the repository root (about three minutes)::

    python3 -m pytest -q perfbench/test_determinism.py
"""

import os
import shutil
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import RETRAIN_AFTER, WORKLOADS, build_workload  # noqa: E402


def _counts(name, seed, tag):
    workload = build_workload(name, seed, 1)
    tmp = run.ROOT / ".perfbench_tmp" / f"test-{os.getpid()}-{name}-{tag}"
    tmp.mkdir(parents=True)
    daemon = None
    try:
        daemon, _ = run.setup(workload, tmp, "d0")
        phase = run.measure(daemon, workload, RETRAIN_AFTER)
        daemon.stop()
    finally:
        if daemon is not None:
            daemon.kill()
        shutil.rmtree(tmp, ignore_errors=True)
    problems = []
    for request, _, _, reply in phase["records"]:
        problems.extend(run.check_reply(request, reply))
    counts = run.workload_counts(workload, phase)
    problems.extend(run.self_check(workload, phase, counts))
    return counts, problems


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_counts(name):
    first, problems = _counts(name, 11, "a")
    assert problems == []
    second, problems = _counts(name, 11, "b")
    assert problems == []
    assert first == second
