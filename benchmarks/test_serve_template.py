"""Template-cache serving: the parametric-workload benchmark.

The exact-fingerprint tier only reuses work when log-bucketed
cardinalities collide; a parametric workload whose cardinalities are
*drawn from a distribution* (here: log-uniform, with the eval phase in a
disjoint cardinality range from the warm phase — the "data grew"
scenario) misses it every time. The template tier keys on the
cardinality-stripped structure and re-costs remembered candidates at the
request's actual cardinalities, so the same workload serves from cache.

Records ``serve.template_cache`` to the perf trajectory with the
template-tier hit rate and the warm (template-served) throughput;
``scripts/check_bench_regression.py template`` gates the hit rate in
CI (< 0.5 fails). Acceptance bar (ISSUE 9): template-tier hit rate >= 0.5
on the eval phase while the exact tier alone scores ~0 on it.
"""

from __future__ import annotations

import numpy as np

from repro.bench.trajectory import record as record_trajectory
from repro.rheem.platforms import synthetic_registry
from repro.serve import (
    BatchJob,
    BatchOptimizationService,
    PlanCache,
    TemplateCache,
)
from repro.serve.testing import linear_robopt_factory

N_PLATFORMS = 7
N_TEMPLATES = 20
WARM_PER_TEMPLATE = 3
EVAL_PER_TEMPLATE = 2


def _templates(registry):
    from repro.tdgen.jobgen import JobGenerator

    gen = JobGenerator(registry, seed=42)
    return gen.templates_for_shapes(
        ("pipeline", "juncture", "replicate", "loop"),
        max_operators=10,
        count=N_TEMPLATES,
        min_operators=6,
    )


def _draw_jobs(templates, rng, tag, per_template, low_exp, high_exp):
    """Distribution-drawn cardinalities (log-uniform), never exact replays."""
    jobs = []
    for index, template in enumerate(templates):
        for rep in range(per_template):
            cardinality = 10.0 ** rng.uniform(low_exp, high_exp)
            jobs.append(BatchJob(f"{tag}-t{index}q{rep}", template(cardinality)))
    return jobs


def test_template_cache_hit_rate_and_throughput(report):
    registry = synthetic_registry(N_PLATFORMS)
    templates = _templates(registry)
    factory = linear_robopt_factory(platforms=N_PLATFORMS, seed=3)
    rng = np.random.default_rng(2024)

    # Warm draws from [1e3, 1e5], eval draws from [1e6, 1e8]: disjoint
    # cardinality ranges, so no eval job can share a fingerprint *bucket*
    # with any warm job — the exact tier alone is structurally blind here.
    warm_jobs = _draw_jobs(templates, rng, "warm", WARM_PER_TEMPLATE, 3.0, 5.0)
    eval_jobs = _draw_jobs(templates, rng, "eval", EVAL_PER_TEMPLATE, 6.0, 8.0)

    # Tier 1 alone: the exact-fingerprint cache misses the entire eval
    # phase (distribution-drawn cardinalities never replay a bucket).
    exact_only = BatchOptimizationService(
        factory, registry, workers=0, cache=PlanCache(max_entries=512)
    )
    exact_only.optimize_batch(warm_jobs)
    exact_eval = exact_only.optimize_batch(eval_jobs)
    assert exact_eval.n_failed == 0
    exact_alone_hit_rate = exact_eval.cache_hit_rate

    # Both tiers: template lookups re-cost remembered candidates at the
    # eval cardinalities and serve the cheapest.
    two_tier = BatchOptimizationService(
        factory,
        registry,
        workers=0,
        cache=PlanCache(max_entries=512),
        template_cache=TemplateCache(max_templates=256),
    )
    warm_report = two_tier.optimize_batch(warm_jobs)
    assert warm_report.n_failed == 0
    eval_report = two_tier.optimize_batch(eval_jobs)
    assert eval_report.n_failed == 0

    # Baseline for the throughput comparison: full enumeration of the
    # same eval jobs, no caches at all.
    uncached = BatchOptimizationService(factory, registry, workers=0)
    uncached_eval = uncached.optimize_batch(eval_jobs)
    assert uncached_eval.n_failed == 0

    served = eval_report.template_hits
    speedup = eval_report.plans_per_sec / max(uncached_eval.plans_per_sec, 1e-9)
    report(
        "Template-cache serving (distribution-drawn cardinalities)",
        ["configuration", "eval wall_s", "plans/s", "exact hits", "template hits"],
        [
            ["no cache", f"{uncached_eval.wall_s:.2f}",
             f"{uncached_eval.plans_per_sec:.1f}", "-", "-"],
            ["exact tier only", f"{exact_eval.wall_s:.2f}",
             f"{exact_eval.plans_per_sec:.1f}",
             f"{exact_eval.cache_hits}/{exact_eval.n_jobs}", "-"],
            ["exact + template", f"{eval_report.wall_s:.2f}",
             f"{eval_report.plans_per_sec:.1f}",
             f"{eval_report.cache_hits}/{eval_report.n_jobs}",
             f"{served}/{eval_report.n_jobs}"],
        ],
        note=(
            f"template tier hit rate {eval_report.template_hit_rate:.0%} "
            f"(exact tier alone: {exact_alone_hit_rate:.0%}); "
            f"template-served eval {speedup:.1f}x the uncached throughput "
            f"({N_TEMPLATES} templates x {EVAL_PER_TEMPLATE} eval draws)"
        ),
    )
    metrics = {
        "template_hit_rate": eval_report.template_hit_rate,
        "template_hits": eval_report.template_hits,
        "template_misses": eval_report.template_misses,
        "exact_alone_hit_rate": exact_alone_hit_rate,
        "warm_plans_per_sec": eval_report.plans_per_sec,
        "uncached_plans_per_sec": uncached_eval.plans_per_sec,
        "template_speedup": speedup,
        "n_templates": N_TEMPLATES,
        "n_eval_jobs": eval_report.n_jobs,
    }
    # A stable series name for scripts/check_bench_regression.py.
    record_trajectory(
        "serve.template_cache",
        metrics,
        meta={"platforms": N_PLATFORMS},
    )
    # The ISSUE 9 acceptance bar: the template tier serves the majority
    # of a parametric workload the exact tier is blind to.
    assert exact_alone_hit_rate <= 0.05
    assert eval_report.template_hit_rate >= 0.5
    # Serving from the template tier must actually be faster than
    # re-enumerating (re-cost is one model call per candidate).
    assert eval_report.wall_s < uncached_eval.wall_s
