"""Batch-service throughput: the serving-layer benchmark.

Drives a 100-plan TDGEN batch (25 distinct structures, each queried at
four cardinalities within one fingerprint bucket — the parametric-reuse
situation the plan cache is built for) through
:class:`BatchOptimizationService` three ways:

* *naive serial* — one optimization per job, no cache; what a caller
  without ``repro.serve`` would do;
* *batched serial* — the service with the fingerprint cache
  (core-count independent: this is the ">= 2x faster than serial"
  demonstration);
* *pooled* — an auto-sized warm worker pool plus the cache. The pool is
  sized from the CPUs actually available to this process (affinity /
  cgroup aware), so a single-core box runs serially instead of
  oversubscribing; a second batch on the cache-cleared service measures
  how much the warm pool saves over the cold one.

Records ``plans_per_sec``, cache hit rate, p50/p95/p99 per-job latency
and the speedups to the perf trajectory (``BENCH_*.json``);
``scripts/check_bench_regression.py serving`` fails CI if
``plans_per_sec`` drops >30% or ``latency_p95_s`` rises >50% against the
previous entry, and ``check_bench_regression.py pool`` fails if
``pool_speedup`` falls to 1.0 or below on a multi-core runner.
"""

from __future__ import annotations

from repro.bench.trajectory import record as record_trajectory
from repro.rheem.platforms import synthetic_registry
from repro.serve import (
    BatchJob,
    BatchOptimizationService,
    PlanCache,
    available_cpus,
)
from repro.serve.testing import linear_robopt_factory
from repro.tdgen.jobgen import JobGenerator

# Seven synthetic platforms: enough operator alternatives that each plan
# costs real enumeration work (tens of ms), so pool parallelism and the
# cache have something to amortize.
N_PLATFORMS = 7
N_TEMPLATES = 25
QUERIES_PER_TEMPLATE = 4
N_JOBS = N_TEMPLATES * QUERIES_PER_TEMPLATE


def _batch_jobs():
    """100 TDGEN jobs: 25 distinct structures, each queried at four sizes
    within one cardinality bucket (the parametric-reuse case)."""
    registry = synthetic_registry(N_PLATFORMS)
    gen = JobGenerator(registry, seed=42)
    templates = gen.templates_for_shapes(
        ("pipeline", "juncture", "replicate", "loop"),
        max_operators=10,
        count=N_TEMPLATES,
        min_operators=6,
    )
    jobs = []
    for index, template in enumerate(templates):
        base = 10.0 ** (4 + index % 3)
        for q in range(QUERIES_PER_TEMPLATE):
            # Same structure, cardinalities within one power-of-two bucket.
            jobs.append(BatchJob(f"t{index}q{q}", template(base * (1 + 0.01 * q))))
    assert len(jobs) == N_JOBS
    return jobs


def test_batch_throughput(report):
    factory = linear_robopt_factory(platforms=N_PLATFORMS, seed=3)
    registry = synthetic_registry(N_PLATFORMS)

    naive = BatchOptimizationService(factory, registry, workers=0)
    naive_report = naive.optimize_batch(_batch_jobs())
    assert naive_report.n_failed == 0

    batched = BatchOptimizationService(
        factory, registry, workers=0, cache=PlanCache(max_entries=512)
    )
    batched_report = batched.optimize_batch(_batch_jobs())
    assert batched_report.n_failed == 0

    cpus = available_cpus()
    # Auto-sized warm pool: workers = available CPUs, serial on one core.
    pooled = BatchOptimizationService(
        factory, registry, workers=None, cache=PlanCache(max_entries=512)
    )
    try:
        pooled_report = pooled.optimize_batch(_batch_jobs())
        assert pooled_report.n_failed == 0
        assert pooled_report.mode == ("pool" if cpus > 1 else "serial")

        # A second batch on the cache-cleared service re-optimizes every
        # representative on the already-warm pool: cold/warm isolates the
        # one-time pool spawn + worker init cost the warm architecture
        # amortizes across batches.
        pooled.cache.clear()
        warm_report = pooled.optimize_batch(_batch_jobs())
        assert warm_report.n_failed == 0
    finally:
        pooled.close()

    # Identical decisions regardless of execution mode.
    for a, b, c in zip(
        naive_report.outcomes, batched_report.outcomes, pooled_report.outcomes
    ):
        assert a.result.execution_plan.assignment == b.result.execution_plan.assignment
        assert a.result.execution_plan.assignment == c.result.execution_plan.assignment

    speedup = naive_report.wall_s / max(batched_report.wall_s, 1e-9)
    pool_speedup = naive_report.wall_s / max(pooled_report.wall_s, 1e-9)
    pool_warm_speedup = pooled_report.wall_s / max(warm_report.wall_s, 1e-9)
    tails = pooled_report.latency_percentiles()
    report(
        "Batch service throughput (100-plan TDGEN batch)",
        ["mode", "wall_s", "plans/s", "cache hit rate"],
        [
            ["naive serial (no cache)", f"{naive_report.wall_s:.2f}",
             f"{naive_report.plans_per_sec:.1f}", "-"],
            ["batched serial + cache", f"{batched_report.wall_s:.2f}",
             f"{batched_report.plans_per_sec:.1f}",
             f"{batched_report.cache_hit_rate:.0%}"],
            [f"pool x{pooled_report.workers_requested} + cache (cold)",
             f"{pooled_report.wall_s:.2f}",
             f"{pooled_report.plans_per_sec:.1f}",
             f"{pooled_report.cache_hit_rate:.0%}"],
            [f"pool x{pooled_report.workers_requested} + cache (warm)",
             f"{warm_report.wall_s:.2f}",
             f"{warm_report.plans_per_sec:.1f}",
             f"{warm_report.cache_hit_rate:.0%}"],
        ],
        note=(
            f"batched {speedup:.2f}x, pooled {pool_speedup:.2f}x vs naive, "
            f"warm pool {pool_warm_speedup:.2f}x vs cold; "
            f"p50/p95/p99 {tails['p50'] * 1000:.0f}/{tails['p95'] * 1000:.0f}/"
            f"{tails['p99'] * 1000:.0f} ms "
            f"({cpus} CPU(s), workers {pooled_report.workers}"
            f"/{pooled_report.workers_requested} effective/requested)"
        ),
    )
    metrics = {
        "plans_per_sec": batched_report.plans_per_sec,
        "pooled_plans_per_sec": pooled_report.plans_per_sec,
        "naive_plans_per_sec": naive_report.plans_per_sec,
        "speedup": speedup,
        "pool_speedup": pool_speedup,
        "pool_warm_speedup": pool_warm_speedup,
        "latency_p50_s": tails["p50"],
        "latency_p95_s": tails["p95"],
        "latency_p99_s": tails["p99"],
        "cache_hit_rate": batched_report.cache_hit_rate,
        "n_jobs": batched_report.n_jobs,
        "workers": pooled_report.workers,
        "workers_requested": pooled_report.workers_requested,
        "cpus": cpus,
    }
    # A stable series name for scripts/check_bench_regression.py.
    record_trajectory(
        "serve.batch_throughput", metrics, meta={"platforms": N_PLATFORMS}
    )
    # The acceptance bar: the batch path (cache) must be >= 2x faster
    # than naive one-at-a-time optimization.
    assert speedup >= 2.0
    # Pool parallelism needs real cores: on a single-core box auto-sizing
    # already degrades to serial, and on a multi-core one the warm pool
    # must actually beat naive serial (the ISSUE 6 regression gate) —
    # with >= 4 CPUs it must clear the original 2x bar as well.
    if cpus >= 2:
        assert pool_speedup > 1.0
    if cpus >= 4:
        assert pool_speedup >= 2.0


def test_batch_throughput_resilient(report):
    """The no-fault cost of the resilience armor.

    Runs the same 100-plan batch through the fully-armored stack
    (fallback chain + circuit breaker, no chaos, no budget) in the same
    batched-serial configuration as the ``serve.batch_throughput``
    baseline, and records ``serve.batch_throughput_resilient``.
    Its ``overhead`` metric is the same-run throughput cost against the
    plain stack; ``scripts/check_bench_regression.py serving`` gates it:
    with nothing failing, the armor (one ``breaker.allow()`` and an
    output-sanity check per predict) must cost < 5% throughput.
    """
    from repro.core.features import FeatureSchema
    from repro.serve import resilient_robopt_factory
    from repro.serve.testing import LinearRuntimeModel

    registry = synthetic_registry(N_PLATFORMS)
    schema = FeatureSchema(registry)
    model = LinearRuntimeModel(schema.n_features, seed=3)

    plain = BatchOptimizationService(
        linear_robopt_factory(platforms=N_PLATFORMS, seed=3),
        registry,
        workers=0,
        cache=PlanCache(max_entries=512),
    )
    plain_report = plain.optimize_batch(_batch_jobs())
    assert plain_report.n_failed == 0

    armored = BatchOptimizationService(
        resilient_robopt_factory(platforms=N_PLATFORMS, model=model),
        registry,
        workers=0,
        cache=PlanCache(max_entries=512),
    )
    armored_report = armored.optimize_batch(_batch_jobs())
    assert armored_report.n_failed == 0
    assert armored_report.n_degraded == 0  # nothing failed, nothing degraded

    # The healthy primary answers every prediction: same model, same
    # decisions as the unarmored stack.
    for a, b in zip(plain_report.outcomes, armored_report.outcomes):
        assert (
            a.result.execution_plan.assignment == b.result.execution_plan.assignment
        )

    overhead = 1.0 - armored_report.plans_per_sec / max(
        plain_report.plans_per_sec, 1e-9
    )
    report(
        "Resilience armor overhead (no faults, batched serial + cache)",
        ["stack", "wall_s", "plans/s"],
        [
            ["plain", f"{plain_report.wall_s:.2f}",
             f"{plain_report.plans_per_sec:.1f}"],
            ["fallback chain + breaker", f"{armored_report.wall_s:.2f}",
             f"{armored_report.plans_per_sec:.1f}"],
        ],
        note=f"overhead {overhead:+.1%} (CI gate: < 5%)",
    )
    metrics = {
        "plans_per_sec": armored_report.plans_per_sec,
        "plain_plans_per_sec": plain_report.plans_per_sec,
        "overhead": overhead,
        "n_jobs": armored_report.n_jobs,
    }
    record_trajectory(
        "serve.batch_throughput_resilient", metrics, meta={"platforms": N_PLATFORMS}
    )


def test_batch_cache_amortization(report, trajectory):
    """Optimizer cost amortizes across repeated batches (Kepler's effect)."""
    factory = linear_robopt_factory(platforms=N_PLATFORMS, seed=3)
    registry = synthetic_registry(N_PLATFORMS)
    cache = PlanCache(max_entries=512)
    service = BatchOptimizationService(factory, registry, workers=0, cache=cache)

    cold = service.optimize_batch(_batch_jobs())
    warm = service.optimize_batch(_batch_jobs())
    assert warm.cache_hit_rate == 1.0
    speedup = cold.wall_s / max(warm.wall_s, 1e-9)
    report(
        "Plan-cache amortization (same batch twice)",
        ["run", "wall_s", "plans/s", "cache hit rate"],
        [
            ["cold", f"{cold.wall_s:.2f}", f"{cold.plans_per_sec:.1f}",
             f"{cold.cache_hit_rate:.0%}"],
            ["warm", f"{warm.wall_s:.2f}", f"{warm.plans_per_sec:.1f}",
             f"{warm.cache_hit_rate:.0%}"],
        ],
        note=f"warm batch {speedup:.1f}x faster",
    )
    trajectory(
        {
            "cold_plans_per_sec": cold.plans_per_sec,
            "warm_plans_per_sec": warm.plans_per_sec,
            "warm_speedup": speedup,
        }
    )
    assert warm.wall_s < cold.wall_s
