"""Daemon front-door throughput: the serving-daemon benchmark.

Drives the same 100-plan TDGEN workload as ``test_serve_batch.py`` (25
distinct structures, each queried at four cardinalities within one
fingerprint bucket) through two front doors:

* *batch CLI path* — what ``repro optimize-batch --jobs`` does with its
  defaults: one :class:`BatchOptimizationService` call, serial, no
  cross-invocation cache (every CLI run starts cold);
* *daemon path* — ``repro serve`` with *its* defaults: a persistent
  in-memory plan cache plus cross-client coalescing, hit by **8
  concurrent clients** sharding the same job list over a unix socket
  (newline-delimited JSON frames, pipelined per client).

The daemon pays framing + event-loop overhead on every request but
keeps its cache across clients — on parametric-reuse traffic (Kepler's
observation) it must come out ahead: the ISSUE 7 acceptance bar is
``daemon throughput >= batch-CLI throughput`` on the same job file.

Records ``serve.daemon_throughput`` (plans/s both ways, the ratio, the
daemon's live p50/p95/p99 in ms, and the coalescing counter) to the
perf trajectory; ``scripts/check_bench_regression.py daemon`` fails CI
when the recorded ``daemon_p95_ms`` rises >50% against the previous
entry.
"""

from __future__ import annotations

import threading
import time

from repro.bench.trajectory import record as record_trajectory
from repro.rheem.platforms import synthetic_registry
from repro.rheem.serialization import plan_to_dict
from repro.serve import (
    BatchOptimizationService,
    PlanCache,
    ServeClient,
)
from repro.serve.protocol import OptimizeRequest
from repro.serve.testing import linear_robopt_factory, run_daemon

from test_serve_batch import N_JOBS, N_PLATFORMS, _batch_jobs

N_CLIENTS = 8


def _requests(jobs):
    return [
        OptimizeRequest(request_id=job.job_id, plan=plan_to_dict(job.plan))
        for job in jobs
    ]


def test_daemon_throughput(report, tmp_path):
    factory = linear_robopt_factory(platforms=N_PLATFORMS, seed=3)
    registry = synthetic_registry(N_PLATFORMS)
    jobs = _batch_jobs()

    # Batch-CLI reference: `repro optimize-batch` defaults — one serial
    # service call, no cache surviving the invocation.
    batch_service = BatchOptimizationService(factory, registry, workers=0)
    batch_report = batch_service.optimize_batch(jobs)
    assert batch_report.n_failed == 0

    # Daemon: `repro serve` defaults — persistent cache, coalescing on.
    service = BatchOptimizationService(
        factory, registry, workers=0, cache=PlanCache(max_entries=512)
    )
    shards = [_requests(jobs[i::N_CLIENTS]) for i in range(N_CLIENTS)]
    responses = [None] * N_CLIENTS
    barrier = threading.Barrier(N_CLIENTS + 1)

    with run_daemon(service, unix_path=str(tmp_path / "bench.sock")) as harness:

        def drive(index):
            with ServeClient(harness.address, timeout_s=300.0) as client:
                barrier.wait()
                responses[index] = client.optimize_many(shards[index])

        threads = [
            threading.Thread(target=drive, args=(i,)) for i in range(N_CLIENTS)
        ]
        for t in threads:
            t.start()
        barrier.wait()
        t0 = time.perf_counter()
        for t in threads:
            t.join(timeout=600.0)
        wall_s = time.perf_counter() - t0
        with ServeClient(harness.address) as control:
            stats = control.stats()

    answered = [r for shard in responses if shard for r in shard]
    assert len(answered) == N_JOBS
    assert all(r.ok for r in answered), [r for r in answered if not r.ok][:3]

    daemon_plans_per_sec = N_JOBS / max(wall_s, 1e-9)
    speedup = daemon_plans_per_sec / max(batch_report.plans_per_sec, 1e-9)
    cached = sum(1 for r in answered if r.cached)
    coalesced = stats.counters.get("serve.jobs_coalesced", 0)

    report(
        "Daemon vs batch-CLI throughput (100-plan TDGEN workload)",
        ["front door", "wall_s", "plans/s", "notes"],
        [
            [
                "batch CLI (serial, no cache)",
                f"{batch_report.wall_s:.2f}",
                f"{batch_report.plans_per_sec:.1f}",
                "-",
            ],
            [
                f"daemon ({N_CLIENTS} clients, unix socket)",
                f"{wall_s:.2f}",
                f"{daemon_plans_per_sec:.1f}",
                f"{cached} cached, {coalesced:.0f} coalesced",
            ],
        ],
        note=(
            f"daemon {speedup:.2f}x vs batch CLI; live "
            f"p50/p95/p99 {stats.latency_ms['p50']:.0f}/"
            f"{stats.latency_ms['p95']:.0f}/{stats.latency_ms['p99']:.0f} ms"
        ),
    )
    metrics = {
        "daemon_plans_per_sec": daemon_plans_per_sec,
        "batch_plans_per_sec": batch_report.plans_per_sec,
        "daemon_vs_batch_speedup": speedup,
        "daemon_p50_ms": stats.latency_ms["p50"],
        "daemon_p95_ms": stats.latency_ms["p95"],
        "daemon_p99_ms": stats.latency_ms["p99"],
        "jobs_cached": cached,
        "jobs_coalesced": coalesced,
        "n_clients": N_CLIENTS,
        "n_jobs": N_JOBS,
    }
    # Stable series name for scripts/check_bench_regression.py.
    record_trajectory(
        "serve.daemon_throughput", metrics, meta={"platforms": N_PLATFORMS}
    )
    # The ISSUE 7 acceptance bar: the persistent front door must not be
    # slower than cold batch invocations on parametric-reuse traffic.
    assert daemon_plans_per_sec >= batch_report.plans_per_sec
