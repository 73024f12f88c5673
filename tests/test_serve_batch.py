"""The batch service: concurrency faults, timeouts, fallback, cache bound.

The concurrency suite of ISSUE 4: a worker raising must fail one job,
not the batch; a worker *dying* must fail the unfinished jobs but leave
the service usable; a slow job must time out individually; an
unpicklable factory must degrade to serial execution; and the LRU cache
must stay bounded under interleaved access patterns.

Extended for ISSUE 6 with the warm-worker suite: workers initialize
once and are reused across batches, identical fingerprints in one
batch enumerate once, worker sizing is CPU-affinity aware, and
report metrics (rates, latency percentiles) are guarded against
sub-resolution wall times.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.exceptions import ReproError
from repro.obs import NULL_TRACER, Tracer, use_tracer
from repro.resilience import ChaosProfile, RetryPolicy
from repro.rheem.platforms import synthetic_registry
from repro.serve import (
    BatchJob,
    BatchOptimizationService,
    PlanCache,
    TemplateCache,
    available_cpus,
    plan_fingerprint,
    resilient_robopt_factory,
)
from repro.serve import batch as batch_module
from repro.serve.batch import _WALL_FLOOR_S, BatchReport, JobOutcome
from repro.serve.testing import (
    count_markers,
    counting_robopt_factory,
    linear_robopt_factory,
)

from conftest import build_join_plan, build_pipeline

N_PLATFORMS = 2

#: Every optimization of a plan named ``*poison*`` raises.
FLAKY = ChaosProfile(error_rate=1.0, match="poison")
#: Every optimization of a plan named ``*crash*`` kills its pool worker.
CRASHING = ChaosProfile(worker_death_rate=1.0, match="crash")


def _named(plan, name):
    plan.name = name
    return plan


@pytest.fixture
def registry():
    return synthetic_registry(N_PLATFORMS)


class TestWorkerFailure:
    def test_raising_worker_fails_one_job_not_the_pool(self, registry):
        factory = resilient_robopt_factory(platforms=N_PLATFORMS, chaos=FLAKY)
        service = BatchOptimizationService(factory, registry, workers=2)
        jobs = [
            BatchJob("ok1", build_pipeline(2)),
            BatchJob("bad", _named(build_pipeline(3), "poison-pill")),
            BatchJob("ok2", build_pipeline(4)),
            BatchJob("ok3", build_join_plan()),
        ]
        report = service.optimize_batch(jobs)
        assert report.mode == "pool"
        assert report.n_failed == 1
        by_id = {o.job_id: o for o in report.outcomes}
        assert not by_id["bad"].ok
        assert "injected failure" in by_id["bad"].error
        for job_id in ("ok1", "ok2", "ok3"):
            assert by_id[job_id].ok, by_id[job_id].error
            assert by_id[job_id].result is not None

    def test_raising_worker_fails_one_job_serially_too(self, registry):
        factory = resilient_robopt_factory(platforms=N_PLATFORMS, chaos=FLAKY)
        service = BatchOptimizationService(factory, registry, workers=0)
        report = service.optimize_batch(
            [
                BatchJob("bad", _named(build_pipeline(2), "poison")),
                BatchJob("ok", build_pipeline(3)),
            ]
        )
        assert report.mode == "serial"
        assert [o.ok for o in report.outcomes] == [False, True]

    def test_dead_worker_breaks_pool_but_not_service(self, registry):
        """``os._exit`` in a worker breaks the whole pool: the unfinished
        jobs get error outcomes, the call returns, and the *next* batch
        (a fresh pool) works normally."""
        factory = resilient_robopt_factory(platforms=N_PLATFORMS, chaos=CRASHING)
        service = BatchOptimizationService(factory, registry, workers=2)
        report = service.optimize_batch(
            [
                BatchJob("boom", _named(build_pipeline(2), "crash-me")),
                BatchJob("ok1", build_pipeline(3)),
                BatchJob("ok2", build_pipeline(4)),
            ]
        )
        assert report.mode == "pool"
        by_id = {o.job_id: o for o in report.outcomes}
        assert not by_id["boom"].ok
        assert "BrokenProcessPool" in by_id["boom"].error
        # The service itself survives: a fresh batch on a fresh pool runs.
        healthy = service.optimize_batch([BatchJob("after", build_pipeline(2))])
        assert healthy.n_failed == 0

    def test_one_pool_break_is_one_death_per_fingerprint(self, registry):
        """Two jobs of one plan with different deadlines are separate
        representatives; a pool break they both ride out counts once
        against their fingerprint, so they get an isolated retry and
        succeed instead of being quarantined at the first break."""
        factory = resilient_robopt_factory(platforms=N_PLATFORMS, chaos=CRASHING)
        service = BatchOptimizationService(
            factory,
            registry,
            workers=2,
            cache=PlanCache(max_entries=8),
            retry=RetryPolicy(max_retries=3, base_backoff_s=0.0, jitter=0.0),
            quarantine_after=2,
        )
        report = service.optimize_batch(
            [
                BatchJob("bad", _named(build_pipeline(2), "crash-me")),
                BatchJob("twin-a", build_pipeline(3), deadline_ms=60000.0),
                BatchJob("twin-b", build_pipeline(3), deadline_ms=50000.0),
            ]
        )
        by_id = {o.job_id: o for o in report.outcomes}
        assert by_id["bad"].quarantined
        for job_id in ("twin-a", "twin-b"):
            assert by_id[job_id].ok, by_id[job_id].error
            assert not by_id[job_id].quarantined
            assert by_id[job_id].attempts <= 2
        assert report.n_quarantined == 1


class TestTimeout:
    def test_slow_job_times_out_individually(self, registry):
        factory = resilient_robopt_factory(
            platforms=N_PLATFORMS,
            chaos=ChaosProfile(latency_ms=6000.0, match="sleep"),
        )
        service = BatchOptimizationService(
            factory, registry, workers=2, timeout_s=2.0
        )
        jobs = [
            BatchJob("slow", _named(build_pipeline(2), "sleep-forever")),
            BatchJob("fast1", build_pipeline(3)),
            BatchJob("fast2", build_pipeline(4)),
        ]
        tracer = Tracer()
        with use_tracer(tracer):
            report = service.optimize_batch(jobs)
        assert report.mode == "pool"
        by_id = {o.job_id: o for o in report.outcomes}
        assert not by_id["slow"].ok
        assert "timeout" in by_id["slow"].error
        assert by_id["fast1"].ok and by_id["fast2"].ok
        assert tracer.counters.get("serve.jobs_timed_out") == 1
        # The batch returned without waiting out the 6s sleep.
        assert report.wall_s < 5.0

    def test_timeout_validation(self, registry):
        factory = linear_robopt_factory(platforms=N_PLATFORMS)
        with pytest.raises(ReproError):
            BatchOptimizationService(factory, registry, timeout_s=0.0)
        with pytest.raises(ReproError):
            BatchOptimizationService(factory, registry, workers=-1)


class TestSerialFallback:
    def test_unpicklable_factory_degrades_to_serial(self, registry):
        from repro.core.features import FeatureSchema
        from repro.core.optimizer import Robopt
        from repro.serve.testing import LinearRuntimeModel

        schema = FeatureSchema(registry)
        model = LinearRuntimeModel(schema.n_features, seed=0)
        # A lambda does not pickle: pool mode is impossible.
        factory = lambda: Robopt(registry, model, schema=schema)  # noqa: E731
        service = BatchOptimizationService(factory, registry, workers=4)
        tracer = Tracer()
        with use_tracer(tracer):
            report = service.optimize_batch(
                [BatchJob(f"j{i}", build_pipeline(2 + i)) for i in range(3)]
            )
        assert report.mode == "serial"
        assert report.n_failed == 0
        fallbacks = [s for s in tracer.spans if s.name == "serve.pool.fallback"]
        assert len(fallbacks) == 1
        assert "unpicklable" in fallbacks[0].attrs["reason"]

    def test_workers_zero_and_one_run_serially(self, registry):
        factory = linear_robopt_factory(platforms=N_PLATFORMS)
        for workers in (0, 1):
            service = BatchOptimizationService(factory, registry, workers=workers)
            report = service.optimize_batch([BatchJob("j", build_pipeline(2))])
            assert report.mode == "serial"
            assert report.n_failed == 0


class TestCacheUnderInterleaving:
    def test_lru_stays_bounded_under_interleaved_batches(self, registry):
        factory = linear_robopt_factory(platforms=N_PLATFORMS)
        cache = PlanCache(max_entries=4)
        service = BatchOptimizationService(factory, registry, workers=0, cache=cache)
        # Interleave 8 distinct structures with repeats, across batches.
        sizes = [2, 3, 4, 5, 6, 7, 8, 9]
        for round_no in range(3):
            order = sizes if round_no % 2 == 0 else list(reversed(sizes))
            jobs = [
                BatchJob(f"r{round_no}s{n}", build_pipeline(n)) for n in order
            ]
            report = service.optimize_batch(jobs)
            assert report.n_failed == 0
            assert len(cache) <= 4
        assert len(cache) == 4
        stats = cache.stats
        assert stats.evictions > 0
        assert stats.lookups == stats.hits + stats.misses

    def test_within_batch_duplicates_hit_the_representative(self, registry):
        factory = linear_robopt_factory(platforms=N_PLATFORMS)
        cache = PlanCache(max_entries=16)
        service = BatchOptimizationService(factory, registry, workers=0, cache=cache)
        plan = build_pipeline(3)
        report = service.optimize_batch(
            [BatchJob(f"dup{i}", plan.clone()) for i in range(5)]
        )
        assert report.n_failed == 0
        assert report.cache_misses == 1  # one representative optimization
        assert report.cache_hits == 4  # four batch-local hits
        assert sum(1 for o in report.outcomes if o.cached) == 4
        runtimes = {o.result.predicted_runtime for o in report.outcomes}
        assert len(runtimes) == 1

    def test_no_dedup_without_cache(self, registry):
        """Without a cache, fingerprint equivalence is not opted into:
        every job is optimized individually."""
        factory = linear_robopt_factory(platforms=N_PLATFORMS)
        service = BatchOptimizationService(factory, registry, workers=0)
        plan = build_pipeline(3)
        report = service.optimize_batch(
            [BatchJob(f"dup{i}", plan.clone()) for i in range(3)]
        )
        assert report.cache_hits == 0
        assert all(not o.cached for o in report.outcomes)


class TestJobsAndReport:
    def test_bare_plans_and_duplicate_ids_normalize(self, registry):
        factory = linear_robopt_factory(platforms=N_PLATFORMS)
        service = BatchOptimizationService(factory, registry, workers=0)
        a, b = build_pipeline(2), build_pipeline(3)
        b.name = a.name  # force an id collision
        report = service.optimize_batch([a, b])
        assert report.n_failed == 0
        ids = [o.job_id for o in report.outcomes]
        assert len(set(ids)) == 2

    def test_size_bytes_rescales_the_job(self, registry):
        factory = linear_robopt_factory(platforms=N_PLATFORMS)
        service = BatchOptimizationService(factory, registry, workers=0)
        plan = build_pipeline(3)
        small = BatchJob("small", plan, size_bytes=1e6)
        large = BatchJob("large", plan, size_bytes=64e9)
        report = service.optimize_batch([small, large])
        assert report.n_failed == 0
        runtimes = {o.job_id: o.result.predicted_runtime for o in report.outcomes}
        assert runtimes["small"] < runtimes["large"]
        # The caller's plan object is never mutated by sizing.
        assert plan.datasets[0].cardinality == pytest.approx(1e6)

    def test_tags_travel_into_outcomes(self, registry):
        factory = linear_robopt_factory(platforms=N_PLATFORMS)
        service = BatchOptimizationService(factory, registry, workers=0)
        report = service.optimize_batch(
            [BatchJob("j", build_pipeline(2), tags={"tenant": "alice"})]
        )
        assert report.outcomes[0].tags == {"tenant": "alice"}

    def test_metrics_and_aggregate_stats(self, registry):
        factory = linear_robopt_factory(platforms=N_PLATFORMS)
        cache = PlanCache(max_entries=8)
        service = BatchOptimizationService(factory, registry, workers=0, cache=cache)
        plan = build_pipeline(3)
        report = service.optimize_batch(
            [BatchJob("a", plan.clone()), BatchJob("b", plan.clone())]
        )
        metrics = report.metrics()
        for key in (
            "n_jobs",
            "n_ok",
            "n_failed",
            "wall_s",
            "plans_per_sec",
            "cache_hits",
            "cache_misses",
            "cache_hit_rate",
            "workers",
        ):
            assert key in metrics
        assert metrics["cache_hit_rate"] == 0.5
        # Aggregate stats sum only the actually-optimized jobs.
        total = report.aggregate_stats()
        fresh = [o for o in report.outcomes if not o.cached]
        assert len(fresh) == 1
        assert total.total_vectors == fresh[0].result.stats.total_vectors

    def test_batch_emits_tracer_spans_and_counters(self, registry):
        factory = linear_robopt_factory(platforms=N_PLATFORMS)
        service = BatchOptimizationService(factory, registry, workers=0)
        tracer = Tracer()
        with use_tracer(tracer):
            service.optimize_batch([BatchJob("j", build_pipeline(2))])
        names = {s.name for s in tracer.spans}
        assert {"serve.batch", "serve.cache.lookup", "serve.job"} <= names
        assert tracer.counters["serve.jobs"] == 1
        assert tracer.counters["serve.jobs_ok"] == 1


class TestPrecomputedFingerprint:
    """``BatchJob.fingerprint`` spares the service a second hash."""

    @staticmethod
    def _count_fingerprints(monkeypatch):
        calls = []
        real = batch_module.plan_fingerprint

        def counting(plan, registry=None):
            calls.append(plan.name)
            return real(plan, registry)

        monkeypatch.setattr(batch_module, "plan_fingerprint", counting)
        return calls

    def test_a_supplied_fingerprint_is_used_as_is(self, registry, monkeypatch):
        factory = linear_robopt_factory(platforms=N_PLATFORMS)
        cache = PlanCache(max_entries=8)
        service = BatchOptimizationService(factory, registry, workers=0, cache=cache)
        plan = build_pipeline(3)
        fp = plan_fingerprint(plan, registry)
        calls = self._count_fingerprints(monkeypatch)
        first = service.optimize_batch([BatchJob("a", plan, fingerprint=fp)])
        again = service.optimize_batch([BatchJob("b", plan.clone(), fingerprint=fp)])
        assert calls == []
        assert cache.fingerprints() == [fp]
        assert not first.outcomes[0].cached
        assert again.outcomes[0].cached

    def test_without_one_the_service_fingerprints_each_job(
        self, registry, monkeypatch
    ):
        factory = linear_robopt_factory(platforms=N_PLATFORMS)
        service = BatchOptimizationService(
            factory, registry, workers=0, cache=PlanCache(max_entries=8)
        )
        calls = self._count_fingerprints(monkeypatch)
        report = service.optimize_batch(
            [
                BatchJob("a", build_pipeline(3)),
                BatchJob("b", build_pipeline(3)),
                BatchJob("c", build_pipeline(3), size_bytes=5e9),
            ]
        )
        assert len(calls) == 3
        assert [o.cached for o in report.outcomes] == [False, True, False]

    def test_fingerprint_and_size_bytes_are_exclusive(self):
        with pytest.raises(ReproError, match="unscaled"):
            BatchJob("j", build_pipeline(2), size_bytes=1e6, fingerprint="f" * 64)

    def test_renamed_duplicates_keep_their_fingerprint(self, registry):
        job = BatchJob("j", build_pipeline(2), fingerprint="f" * 64)
        jobs = BatchOptimizationService.as_jobs([job, job])
        assert [j.job_id for j in jobs] == ["j", "j#1"]
        assert all(j.fingerprint == "f" * 64 for j in jobs)


class TestWarmWorkers:
    """ISSUE 6: the pool is long-lived — workers initialize once, jobs
    stream over the work queue, and the pool survives across batches."""

    def test_workers_initialize_once_across_batches(self, registry, tmp_path):
        state = str(tmp_path / "probe")
        factory = counting_robopt_factory(platforms=N_PLATFORMS, state_dir=state)
        service = BatchOptimizationService(factory, registry, workers=2)
        try:
            first = service.optimize_batch(
                [BatchJob(f"a{n}", build_pipeline(n)) for n in (2, 3, 4, 5)]
            )
            assert first.mode == "pool"
            assert first.n_failed == 0
            second = service.optimize_batch(
                [BatchJob(f"b{n}", build_pipeline(n)) for n in (6, 7, 8, 9)]
            )
            assert second.mode == "pool"
            assert second.n_failed == 0
            # 8 jobs optimized, but at most one initialization per worker
            # — not one per batch, let alone one per job.
            assert count_markers(state, "opt") == 8
            assert count_markers(state, "init") <= 2
            # And the second batch reused the first batch's pool.
            assert service._pool.spawns == 1
        finally:
            service.close()

    def test_close_respawns_on_next_batch(self, registry, tmp_path):
        state = str(tmp_path / "probe")
        factory = counting_robopt_factory(platforms=N_PLATFORMS, state_dir=state)
        service = BatchOptimizationService(factory, registry, workers=2)
        try:
            assert service.optimize_batch([BatchJob("a", build_pipeline(2))]).n_failed == 0
            service.close()
            # The service stays usable after close: a fresh pool spawns.
            report = service.optimize_batch([BatchJob("b", build_pipeline(3))])
            assert report.n_failed == 0
            assert report.mode == "pool"
            assert service._pool.spawns == 2
        finally:
            service.close()

    def test_identical_jobs_enumerate_once_on_the_pool(self, registry, tmp_path):
        """N same-fingerprint jobs in one batch → exactly one worker-side
        optimization; the rest are batch-local hits."""
        state = str(tmp_path / "probe")
        factory = counting_robopt_factory(platforms=N_PLATFORMS, state_dir=state)
        cache = PlanCache(max_entries=8)
        service = BatchOptimizationService(factory, registry, workers=2, cache=cache)
        try:
            plan = build_pipeline(3)
            report = service.optimize_batch(
                [BatchJob(f"dup{i}", plan.clone()) for i in range(6)]
            )
            assert report.n_failed == 0
            assert report.mode == "pool"
            assert count_markers(state, "opt") == 1
            assert report.cache_hits == 5
            runtimes = {o.result.predicted_runtime for o in report.outcomes}
            assert len(runtimes) == 1
        finally:
            service.close()

    def test_no_inflight_table_without_cache(self, registry, tmp_path):
        """Batch-local dedupe shares the cache's equivalence semantics:
        with no cache configured, same-fingerprint jobs each enumerate."""
        state = str(tmp_path / "probe")
        factory = counting_robopt_factory(platforms=N_PLATFORMS, state_dir=state)
        service = BatchOptimizationService(factory, registry, workers=2)
        try:
            plan = build_pipeline(3)
            report = service.optimize_batch(
                [BatchJob(f"dup{i}", plan.clone()) for i in range(3)]
            )
            assert report.n_failed == 0
            assert report.cache_hits == 0
            assert count_markers(state, "opt") == 3
        finally:
            service.close()


class TestWorkerSizing:
    """ISSUE 6 satellite: the default worker count respects the CPUs
    actually available (affinity / cgroup aware), with explicit override."""

    def test_auto_sizing_matches_cpu_affinity(self, registry):
        factory = linear_robopt_factory(platforms=N_PLATFORMS)
        service = BatchOptimizationService(factory, registry)
        cpus = available_cpus()
        expected = cpus if cpus > 1 else 0
        assert service.workers_auto
        assert service.workers == expected
        try:
            report = service.optimize_batch([BatchJob("j", build_pipeline(2))])
        finally:
            service.close()
        assert report.mode == ("pool" if expected > 1 else "serial")
        assert report.workers_requested == expected

    def test_explicit_workers_override_auto_sizing(self, registry):
        factory = linear_robopt_factory(platforms=N_PLATFORMS)
        service = BatchOptimizationService(factory, registry, workers=2)
        assert not service.workers_auto
        assert service.workers == 2  # honored even on a single-CPU box
        try:
            report = service.optimize_batch([BatchJob("j", build_pipeline(2))])
        finally:
            service.close()
        # Requested and effective workers both land in the metrics.
        metrics = report.metrics()
        assert metrics["workers_requested"] == 2
        assert metrics["workers"] == (2 if report.mode == "pool" else 0)


class TestReportNumbers:
    """ISSUE 6 satellite: rates and percentiles are finite, NaN-free and
    guarded against sub-resolution wall times."""

    @staticmethod
    def _ok(job_id, duration_s):
        return JobOutcome(job_id, ok=True, duration_s=duration_s)

    def test_plans_per_sec_guards_sub_resolution_walls(self):
        import math

        # The regression data point: 2 jobs in 3.5ms extrapolated to
        # 572 plans/s. The floored denominator bounds the rate instead.
        report = BatchReport(
            outcomes=[self._ok("a", 0.001), self._ok("b", 0.002)],
            wall_s=0.0035,
            mode="serial",
            workers=0,
        )
        assert math.isfinite(report.plans_per_sec)
        assert report.plans_per_sec <= 2 / _WALL_FLOOR_S

        zero_wall = BatchReport(
            outcomes=[self._ok("a", 0.0)], wall_s=0.0, mode="serial", workers=0
        )
        assert math.isfinite(zero_wall.plans_per_sec)
        assert zero_wall.plans_per_sec == 1 / _WALL_FLOOR_S

        empty = BatchReport(outcomes=[], wall_s=0.0, mode="serial", workers=0)
        assert empty.plans_per_sec == 0.0

        poisoned = BatchReport(
            outcomes=[self._ok("a", 0.1)],
            wall_s=float("nan"),
            mode="serial",
            workers=0,
        )
        assert math.isfinite(poisoned.plans_per_sec)

    def test_latency_percentiles_interpolate(self):
        outcomes = [self._ok(str(i), (i + 1) / 100.0) for i in range(100)]
        report = BatchReport(
            outcomes=outcomes, wall_s=1.0, mode="pool", workers=2,
            workers_requested=2,
        )
        tails = report.latency_percentiles()
        assert tails["p50"] == pytest.approx(0.505)
        assert tails["p95"] == pytest.approx(0.9505)
        assert tails["p99"] == pytest.approx(0.9901)
        metrics = report.metrics()
        assert metrics["latency_p50_s"] == tails["p50"]
        assert metrics["latency_p95_s"] == tails["p95"]
        assert metrics["latency_p99_s"] == tails["p99"]

    def test_percentiles_empty_and_failed_batches(self):
        import math

        empty = BatchReport(outcomes=[], wall_s=0.0, mode="serial", workers=0)
        assert empty.latency_percentiles() == {"p50": 0.0, "p95": 0.0, "p99": 0.0}
        failed = BatchReport(
            outcomes=[JobOutcome("a", ok=False, error="boom")],
            wall_s=0.1,
            mode="serial",
            workers=0,
        )
        tails = failed.latency_percentiles()
        assert all(v == 0.0 for v in tails.values())
        assert all(
            math.isfinite(v)
            for v in failed.metrics().values()
            if isinstance(v, float)
        )

    def test_subfloor_durations_are_artifacts_not_samples(self):
        """The latency_p50_s: 0.0 regression: batch-local follower hits
        are published with an exact-zero duration (they never went
        through a timed path). They must not drag the percentiles to 0;
        with no measured job at all the tails are NaN ("no sample"),
        not a confident 0.0."""
        import math

        mixed = BatchReport(
            outcomes=[
                self._ok("lead", 0.04),
                self._ok("follower1", 0.0),
                self._ok("follower2", 0.0),
            ],
            wall_s=0.1,
            mode="serial",
            workers=0,
        )
        tails = mixed.latency_percentiles()
        assert tails["p50"] == tails["p95"] == tails["p99"] == 0.04

        unmeasured = BatchReport(
            outcomes=[self._ok("f1", 0.0), self._ok("f2", 0.0)],
            wall_s=0.1,
            mode="serial",
            workers=0,
        )
        tails = unmeasured.latency_percentiles()
        assert all(math.isnan(v) for v in tails.values())
        # ... and the NaN travels into metrics() as "no sample", where
        # the bench trajectory stores it as null rather than 0.0.
        assert math.isnan(unmeasured.metrics()["latency_p50_s"])


class _ScriptedExecutor:
    """Execution double: constant runtime, never fails."""

    class _Report:
        ok = True
        status = "success"
        detail = ""

        def __init__(self, runtime_s):
            self.runtime_s = runtime_s

    def __init__(self, runtime_s=12.0):
        self.runtime_s = runtime_s
        self.calls = 0

    def execute(self, xplan, timeout_s=3600.0):
        self.calls += 1
        return self._Report(self.runtime_s)


def _feedback_controller(registry, **kwargs):
    from repro.core.features import FeatureSchema
    from repro.ml import DriftMonitor, FeedbackLoop
    from repro.serve.feedback import FeedbackController

    kwargs.setdefault("retrain_after", 0)  # drift-only by default
    kwargs.setdefault("min_observations", 2)
    kwargs.setdefault("drift", DriftMonitor(min_samples=2))
    loop = FeedbackLoop(FeatureSchema(registry), n_estimators=3, max_depth=6)
    return FeedbackController(loop, _ScriptedExecutor(), **kwargs)


class TestFeedbackWiring:
    """ISSUE 10 tentpole: the service feeds executed outcomes to the
    feedback controller and installs retrained models between batches."""

    def _controller(self, registry, **kwargs):
        return _feedback_controller(registry, **kwargs)

    def test_fresh_results_are_observed_cached_are_not(self, registry):
        # min_observations high enough that no retrain (and hence no
        # cache-clearing install) can fire during this test.
        ctrl = self._controller(registry, min_observations=100)
        service = BatchOptimizationService(
            linear_robopt_factory(platforms=N_PLATFORMS),
            registry,
            workers=0,
            cache=PlanCache(),
            feedback=ctrl,
        )
        try:
            jobs = [_named(build_pipeline(3), "a"), _named(build_pipeline(4), "b")]
            service.optimize_batch(jobs)
            assert ctrl.executions == 2
            assert ctrl.loop.n_observations == 2
            # The same fingerprints again: served from cache, re-executing
            # nothing — one popular plan must not flood the log.
            report = service.optimize_batch(
                [_named(build_pipeline(3), "a"), _named(build_pipeline(4), "b")]
            )
            assert report.cache_hits == 2
            assert ctrl.executions == 2
            assert ctrl.loop.n_observations == 2
        finally:
            service.close()

    def test_feedback_off_means_no_controller_calls(self, registry):
        service = BatchOptimizationService(
            linear_robopt_factory(platforms=N_PLATFORMS), registry, workers=0
        )
        try:
            service.optimize_batch([build_pipeline(3)])
            assert service.feedback_stats() == {}
        finally:
            service.close()

    def test_install_model_swaps_and_invalidates(self, registry, tmp_path):
        from repro.serve.testing import LinearRuntimeModel
        from repro.core.features import FeatureSchema

        model_path = tmp_path / "model.pkl"
        service = BatchOptimizationService(
            linear_robopt_factory(platforms=N_PLATFORMS),
            registry,
            workers=0,
            cache=PlanCache(),
            model_path=model_path,
        )
        try:
            service.optimize_batch([_named(build_pipeline(3), "a")])
            assert len(service.cache) == 1
            schema = FeatureSchema(registry)
            fresh = LinearRuntimeModel(schema.n_features, seed=9)
            fresh.save = lambda path: __import__("pathlib").Path(path).write_bytes(
                b"model-bytes"
            )
            tracer = Tracer()
            with use_tracer(tracer):
                service.install_model(fresh)
            # Idle service: the install applied at once, in place.
            assert service._serial_optimizer().model is fresh
            installed = [
                span.attrs
                for span in tracer.spans
                if span.name == "serve.model_installed"
            ]
            assert installed == [{"rebuilt": False}]
            assert len(service.cache) == 0  # old-model costs evicted
            assert model_path.read_bytes() == b"model-bytes"  # pool workers reload
            assert not model_path.with_name("model.pkl.tmp").exists()
            assert tracer.counters["serve.model_swaps"] == 1
            # The swapped-in model actually prices the next batch.
            report = service.optimize_batch([_named(build_pipeline(3), "a")])
            assert report.n_ok == 1 and report.cache_hits == 0
        finally:
            service.close()

    def test_drift_triggers_retrain_and_generation_bump(self, registry):
        """The closed loop end to end: mispredictions accumulate, drift
        trips, the service retrains and installs — generation moves."""
        from repro.ml import DriftMonitor

        # q-error is >= 1.0 by construction, so this monitor flags any
        # two observations as drifted — the trigger is deterministic.
        ctrl = self._controller(
            registry,
            drift=DriftMonitor(
                min_samples=2, warn_threshold=1.0, drift_threshold=1.0
            ),
            min_observations=2,
        )
        service = BatchOptimizationService(
            linear_robopt_factory(platforms=N_PLATFORMS),
            registry,
            workers=0,
            feedback=ctrl,
        )
        try:
            # The controller's install hook was auto-wired to the service.
            assert ctrl.install == service.install_model
            tracer = Tracer()
            with use_tracer(tracer):
                service.optimize_batch(
                    [_named(build_pipeline(3), "a"), _named(build_pipeline(4), "b")]
                )
            ctrl.join()
            assert ctrl.loop.n_retrains >= 1
            assert ctrl.model_generation >= 1
            # The controller's counter is the one install counter.
            assert tracer.counters["serve.model_swaps"] == ctrl.model_generation
            stats = service.feedback_stats()
            assert stats == ctrl.stats()
            assert stats["retrains"] >= 1
            assert stats["model_generation"] == ctrl.model_generation
        finally:
            service.close()


def _linear_model(registry, seed):
    from repro.core.features import FeatureSchema
    from repro.serve.testing import LinearRuntimeModel

    return LinearRuntimeModel(FeatureSchema(registry).n_features, seed=seed)


class TestInstallRaces:
    """An install and a batch never interleave: ``install_model`` waits
    for the running batch. So the cache only holds prices from the model
    now serving, one model prices each enumeration, and the warm pool is
    never discarded under in-flight jobs."""

    def test_install_before_the_publish_leaves_no_old_price(self, registry):
        service = BatchOptimizationService(
            linear_robopt_factory(platforms=N_PLATFORMS),
            registry,
            workers=0,
            cache=PlanCache(),
        )
        fresh = _linear_model(registry, seed=9)
        robopt = service._serial_optimizer()
        enumerate_plan = robopt.optimize
        installers = []

        def optimize_then_install(plan, *args, **kwargs):
            # The install arrives after the enumeration and before the
            # batch publishes its result to the cache.
            result = enumerate_plan(plan, *args, **kwargs)
            installer = threading.Thread(target=service.install_model, args=(fresh,))
            installer.start()
            installers.append(installer)
            installer.join(timeout=0.3)
            return result

        robopt.optimize = optimize_then_install
        try:
            report = service.optimize_batch([_named(build_pipeline(3), "a")])
            assert report.n_ok == 1
            old_price = report.outcomes[0].result.predicted_runtime
            installers[0].join(timeout=30)
            assert not installers[0].is_alive()
            assert len(service.cache) == 0  # no old-model price survived
            robopt.optimize = enumerate_plan
            again = service.optimize_batch([_named(build_pipeline(3), "a")])
            assert not again.outcomes[0].cached
            assert again.outcomes[0].result.predicted_runtime != old_price
        finally:
            service.close()

    def test_install_during_a_pooled_batch_never_blocks_it(self, registry, tmp_path):
        state = str(tmp_path / "probe")
        factory = counting_robopt_factory(
            platforms=N_PLATFORMS, state_dir=state, sleep_s=0.5
        )
        service = BatchOptimizationService(factory, registry, workers=2)
        reports = []
        jobs = [BatchJob(f"j{n}", build_pipeline(n)) for n in (2, 3, 4, 5)]
        batch = threading.Thread(
            target=lambda: reports.append(service.optimize_batch(jobs)),
            daemon=True,
        )
        try:
            batch.start()
            deadline = time.monotonic() + 60.0
            while count_markers(state, "init") == 0:  # workers up, jobs in flight
                assert time.monotonic() < deadline, "the pool never started"
                time.sleep(0.02)
            service.install_model(_linear_model(registry, seed=9))
            batch.join(timeout=60.0)
            assert not batch.is_alive(), "the pooled batch hung after the install"
            (report,) = reports
            assert report.mode == "pool"
            assert report.n_failed == 0
            assert not any(o.worker_died for o in report.outcomes)
            # The install ran after the batch: every job was optimized.
            assert count_markers(state, "opt") == len(jobs)
        finally:
            service.close()

    def test_one_model_prices_each_enumeration(self, registry):
        class _ModelRecorder:
            """Records ``id(model)`` before and after each optimize call."""

            def __init__(self, inner):
                self.inner = inner
                self.pairs = []

            @property
            def registry(self):
                return self.inner.registry

            def optimize(self, plan):
                before = id(self.inner.model)
                time.sleep(0.005)  # the window an unlocked install would hit
                result = self.inner.optimize(plan)
                self.pairs.append((before, id(self.inner.model)))
                return result

        recorder = _ModelRecorder(linear_robopt_factory(platforms=N_PLATFORMS)())
        service = BatchOptimizationService(lambda: recorder, registry, workers=0)
        # Held for the whole test, so no two models ever share an id.
        models = [_linear_model(registry, seed) for seed in range(1, 31)]

        def install_all():
            for model in models:
                service.install_model(model)
                time.sleep(0.01)

        installer = threading.Thread(target=install_all, daemon=True)
        try:
            installer.start()
            while installer.is_alive():
                report = service.optimize_batch(
                    [build_pipeline(2), build_pipeline(3), build_pipeline(4)]
                )
                assert report.n_failed == 0
            installer.join(timeout=30.0)
            assert recorder.pairs
            assert all(before == after for before, after in recorder.pairs)
            assert len({before for before, _ in recorder.pairs}) > 1
        finally:
            service.close()

    def test_idle_install_applies_without_another_batch(self, registry):
        ctrl = _feedback_controller(registry, retrain_after=2, background=True)
        service = BatchOptimizationService(
            linear_robopt_factory(platforms=N_PLATFORMS),
            registry,
            workers=0,
            cache=PlanCache(),
            feedback=ctrl,
        )
        try:
            service.optimize_batch(
                [_named(build_pipeline(3), "a"), _named(build_pipeline(4), "b")]
            )
            # No further batch: only the background install can move it.
            deadline = time.monotonic() + 30.0
            while ctrl.model_generation == 0:
                assert time.monotonic() < deadline, "the idle install never applied"
                time.sleep(0.01)
            assert len(service.cache) == 0
            assert service.feedback_stats()["model_generation"] == 1
        finally:
            ctrl.join()
            service.close()


class TestStages:
    """A batch runs lookup → execute → publish, with one ``_Miss`` record
    per optimization between the stages; each stage on hand-built jobs."""

    @staticmethod
    def _service(registry, **kwargs):
        return BatchOptimizationService(
            linear_robopt_factory(platforms=N_PLATFORMS), registry, workers=0, **kwargs
        )

    @staticmethod
    def _miss(job, registry, template_fp=None, followers=()):
        plan = job.prepared_plan()
        return batch_module._Miss(
            job, plan, plan_fingerprint(plan, registry), template_fp, list(followers)
        )

    # -- lookup ---------------------------------------------------------
    def test_lookup_answers_an_exact_hit(self, registry):
        service = self._service(registry, cache=PlanCache())
        service.optimize_batch([BatchJob("warm", build_pipeline(3))])
        outcomes, misses, tallies = service._lookup(
            [BatchJob("j", build_pipeline(3))], NULL_TRACER
        )
        assert misses == []
        assert outcomes["j"].ok and outcomes["j"].cached
        assert not outcomes["j"].template_hit
        assert tallies == {
            "cache_hits": 1,
            "cache_misses": 0,
            "template_hits": 0,
            "template_misses": 0,
        }

    def test_lookup_promotes_a_template_hit_into_the_exact_tier(self, registry):
        cache = PlanCache()
        service = self._service(registry, cache=cache, template_cache=TemplateCache())
        service.optimize_batch([BatchJob("warm", build_pipeline(3))])
        job = BatchJob("j", build_pipeline(3), size_bytes=5e9)
        fp = plan_fingerprint(job.prepared_plan(), registry)
        assert fp not in cache.fingerprints()
        outcomes, misses, tallies = service._lookup([job], NULL_TRACER)
        assert misses == []
        assert outcomes["j"].template_hit and outcomes["j"].cached
        assert fp in cache.fingerprints()
        assert (tallies["template_hits"], tallies["template_misses"]) == (1, 0)

    def test_lookup_collapses_same_fingerprint_jobs_into_one_miss(self, registry):
        service = self._service(registry, cache=PlanCache())
        jobs = [BatchJob("a", build_pipeline(3)), BatchJob("b", build_pipeline(3))]
        outcomes, misses, tallies = service._lookup(jobs, NULL_TRACER)
        assert outcomes == {}
        (miss,) = misses
        assert miss.job.job_id == "a"
        assert [f.job_id for f in miss.followers] == ["b"]
        assert miss.template_fp is None  # no template tier configured
        assert (tallies["cache_hits"], tallies["cache_misses"]) == (0, 1)

    def test_lookup_keeps_different_deadlines_apart(self, registry):
        service = self._service(registry, cache=PlanCache())
        jobs = [
            BatchJob("a", build_pipeline(3)),
            BatchJob("b", build_pipeline(3), deadline_ms=50.0),
        ]
        _, misses, tallies = service._lookup(jobs, NULL_TRACER)
        assert [m.job.job_id for m in misses] == ["a", "b"]
        assert all(m.followers == [] for m in misses)
        assert tallies["cache_misses"] == 2

    def test_lookup_without_a_cache_collapses_nothing(self, registry):
        service = self._service(registry)
        jobs = [BatchJob("a", build_pipeline(3)), BatchJob("b", build_pipeline(3))]
        _, misses, tallies = service._lookup(jobs, NULL_TRACER)
        assert [m.job.job_id for m in misses] == ["a", "b"]
        assert all(m.followers == [] for m in misses)
        assert tallies["cache_misses"] == 0

    # -- execute --------------------------------------------------------
    def test_execute_fails_a_quarantined_fingerprint_without_dispatch(
        self, registry
    ):
        service = self._service(registry, quarantine_after=1)
        miss = self._miss(BatchJob("a", build_pipeline(3)), registry)
        service.quarantine.record_worker_death(miss.fingerprint)
        dispatched = []
        service._dispatch = lambda group, *args, **kwargs: dispatched.append(group)
        outcomes = {}
        assert service._execute([miss], outcomes, NULL_TRACER) == "serial"
        assert dispatched == []
        assert not outcomes["a"].ok and outcomes["a"].quarantined

    def test_execute_retries_only_failures_that_did_not_time_out(self, registry):
        service = self._service(
            registry, retry=RetryPolicy(max_retries=1, base_backoff_s=0.0)
        )
        misses = [
            self._miss(BatchJob(name, build_pipeline(n)), registry)
            for name, n in (("fine", 2), ("flaky", 3), ("slow", 4))
        ]
        rounds = []

        def scripted(group, tracer, isolate=False):
            rounds.append([m.job.job_id for m in group])
            got = {}
            for miss in group:
                job_id = miss.job.job_id
                if job_id == "fine" or len(rounds) > 1:
                    got[job_id] = JobOutcome(job_id, ok=True)
                elif job_id == "slow":
                    got[job_id] = JobOutcome(job_id, ok=False, timed_out=True)
                else:
                    got[job_id] = JobOutcome(job_id, ok=False, error="boom")
            return got, "serial"

        service._dispatch = scripted
        outcomes = {}
        service._execute(misses, outcomes, NULL_TRACER)
        assert rounds == [["fine", "flaky", "slow"], ["flaky"]]
        assert outcomes["flaky"].ok and outcomes["flaky"].attempts == 2
        assert outcomes["slow"].timed_out and outcomes["slow"].attempts == 1
        assert outcomes["fine"].attempts == 1

    # -- publish --------------------------------------------------------
    def test_publish_keeps_degraded_results_out_of_both_tiers(self, registry):
        cache, templates = PlanCache(), TemplateCache()
        service = self._service(registry, cache=cache, template_cache=templates)
        fresh, degraded = (
            self._miss(BatchJob(name, build_pipeline(n)), registry, template_fp=name)
            for name, n in (("fresh", 2), ("degraded", 3))
        )
        outcomes = {}
        for miss in (fresh, degraded):
            result = service._serial_optimizer().optimize(miss.plan)
            result.stats.degraded = miss is degraded
            outcomes[miss.job.job_id] = JobOutcome(miss.job.job_id, ok=True, result=result)
        service._publish([fresh, degraded], outcomes)
        assert cache.fingerprints() == [fresh.fingerprint]
        assert len(templates.candidates("fresh")) == 1
        assert templates.candidates("degraded") == []

    def test_publish_hands_a_failed_representatives_error_to_followers(
        self, registry
    ):
        service = self._service(registry, cache=PlanCache())
        followers = [BatchJob("b", build_pipeline(3)), BatchJob("c", build_pipeline(3))]
        miss = self._miss(BatchJob("a", build_pipeline(3)), registry, followers=followers)
        outcomes = {"a": JobOutcome("a", ok=False, error="RuntimeError: boom")}
        assert service._publish([miss], outcomes) == 0
        for job_id in ("b", "c"):
            assert not outcomes[job_id].ok
            assert outcomes[job_id].error == "RuntimeError: boom"
        assert len(service.cache) == 0

    def test_publish_gives_followers_a_copy_of_the_result(self, registry):
        service = self._service(registry, cache=PlanCache())
        miss = self._miss(
            BatchJob("a", build_pipeline(3)),
            registry,
            followers=[BatchJob("b", build_pipeline(3))],
        )
        result = service._serial_optimizer().optimize(miss.plan)
        outcomes = {"a": JobOutcome("a", ok=True, result=result)}
        assert service._publish([miss], outcomes) == 1
        follower = outcomes["b"]
        assert follower.ok and follower.cached
        assert follower.result is not result
        assert follower.result.execution_plan is not result.execution_plan
        assert follower.result.execution_plan.assignment == result.execution_plan.assignment
        assert follower.result.predicted_runtime == result.predicted_runtime

    # -- the composition ------------------------------------------------
    def test_a_failed_representative_counts_one_miss_and_no_hits(self, registry):
        """``cache_misses`` counts representative optimizations; the
        followers of a failed one are neither hits nor misses."""
        service = self._service(registry, cache=PlanCache())

        def boom(plan, *args, **kwargs):
            raise RuntimeError("boom")

        service._serial_optimizer().optimize = boom
        report = service.optimize_batch(
            [BatchJob(name, build_pipeline(3)) for name in ("a", "b", "c")]
        )
        assert (report.cache_hits, report.cache_misses) == (0, 1)
        assert report.n_failed == 3
        assert all(o.error == "RuntimeError: boom" for o in report.outcomes)

    def test_followers_of_a_quarantined_representative_are_quarantined(
        self, registry
    ):
        """A follower fails the way its representative did: its outcome
        carries the same failure flags, so ``n_quarantined`` counts it."""
        service = self._service(registry, cache=PlanCache(), quarantine_after=1)
        jobs = [BatchJob(name, build_pipeline(3)) for name in ("a", "b")]
        service.quarantine.record_worker_death(
            plan_fingerprint(jobs[0].prepared_plan(), registry)
        )
        report = service.optimize_batch(jobs)
        assert report.n_failed == 2
        assert report.n_quarantined == 2
        assert all(o.error.startswith("quarantined") for o in report.outcomes)
