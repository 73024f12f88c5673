"""The resilience subsystem: budgets, anytime degradation, fallback chain.

Three guarantees this suite pins down:

* **Anytime validity.** Whatever the budget, ``Robopt.optimize`` returns
  a *complete, executable* plan — every operator assigned to a platform
  that supports it (``ExecutionPlan`` construction enforces both) — and
  honestly reports degradation via ``RunStats.degraded``/``degradation``.
  Property-tested over seeded random TDGEN plans of every generator
  shape.

* **Fallback, not failure.** A primary model that raises, NaNs, loads
  badly or answers with the wrong shape degrades prediction fidelity
  level by level (ML model → calibrated cost model → cardinality
  heuristic); enumeration never aborts. Repeated failures trip the
  circuit breaker (closed → open → half-open → closed), short-circuiting
  a dead model off the hot path.

* **Corrupt state is not fatal.** A truncated/garbled plan-cache file —
  the crash-during-write artifact — loads as an *empty* cache instead of
  raising out of service construction.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import RunStats
from repro.core.features import FeatureSchema
from repro.core.optimizer import Robopt
from repro.cost.cost_model import FeatureCostModel
from repro.exceptions import ModelError, ReproError
from repro.obs import Tracer, use_tracer
from repro.resilience.budget import (
    REASON_DEADLINE,
    REASON_MAX_VECTORS,
    Budget,
)
from repro.resilience.fallback import (
    CardinalityHeuristicModel,
    CircuitBreaker,
    FallbackRuntimeModel,
    VarianceGuard,
)
from repro.resilience.retry import Quarantine, RetryPolicy
from repro.rheem.platforms import synthetic_registry
from repro.serve import PlanCache
from repro.serve.testing import LinearRuntimeModel
from repro.tdgen.jobgen import JobGenerator

from conftest import build_join_plan, build_pipeline

N_PLATFORMS = 2
SHAPES = ("pipeline", "juncture", "replicate", "loop")


def _registry():
    return synthetic_registry(N_PLATFORMS)


def _random_plans(count, seed=1234, max_operators=9, min_operators=6):
    """Seeded random TDGEN plans, cycling generator shapes and sizes."""
    registry = _registry()
    gen = JobGenerator(registry, seed=seed)
    per_shape = -(-count // len(SHAPES))  # ceil
    templates = []
    for shape in SHAPES:
        templates.extend(
            gen.templates_for_shapes(
                (shape,),
                max_operators=max_operators,
                count=per_shape,
                min_operators=min_operators,
            )
        )
    plans = []
    for index, template in enumerate(templates[:count]):
        plans.append(template(10.0 ** (3 + index % 4)))
    return plans


def _robopt(seed=0, budget=None):
    registry = _registry()
    schema = FeatureSchema(registry)
    model = LinearRuntimeModel(schema.n_features, seed=seed)
    return Robopt(registry, model, schema=schema, budget=budget)


# ---------------------------------------------------------------------------
# Budget / BudgetClock
# ---------------------------------------------------------------------------


class FakeClock:
    """A manually-advanced clock for deterministic deadline tests."""

    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


class TestBudget:
    def test_validation(self):
        with pytest.raises(ReproError):
            Budget(deadline_s=-1.0)
        with pytest.raises(ReproError):
            Budget(max_vectors=-1)

    def test_unbounded(self):
        assert Budget().unbounded
        assert not Budget(deadline_s=1.0).unbounded
        assert not Budget(max_vectors=10).unbounded

    def test_clock_checks_deadline_first(self):
        clock = FakeClock()
        ticking = Budget(deadline_s=1.0, max_vectors=10).start(clock=clock)
        assert ticking.check(vectors=0) is None
        # Over the vector cap only.
        assert ticking.check(vectors=11) == REASON_MAX_VECTORS
        # Over both: the deadline wins.
        clock.advance(2.0)
        assert ticking.check(vectors=11) == REASON_DEADLINE
        assert ticking.check(vectors=0) == REASON_DEADLINE

    def test_remaining_and_elapsed(self):
        clock = FakeClock(now=5.0)
        ticking = Budget(deadline_s=2.0).start(clock=clock)
        clock.advance(0.5)
        assert ticking.elapsed_s() == pytest.approx(0.5)
        assert ticking.remaining_s() == pytest.approx(1.5)
        assert Budget(max_vectors=3).start(clock=clock).remaining_s() is None


# ---------------------------------------------------------------------------
# CircuitBreaker
# ---------------------------------------------------------------------------


class TestCircuitBreaker:
    def test_full_lifecycle(self):
        """closed --failures--> open --cooldown--> half_open --success--> closed."""
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=3, cooldown_s=10.0, clock=clock)
        assert breaker.state == "closed" and breaker.allow()

        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed"  # below threshold
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()

        clock.advance(9.9)
        assert breaker.state == "open"  # cooldown not yet over
        clock.advance(0.2)
        assert breaker.state == "half_open"
        assert breaker.allow()  # one probe allowed through

        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.failures == 0

    def test_half_open_failure_reopens(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, cooldown_s=5.0, clock=clock)
        breaker.record_failure()
        assert breaker.state == "open"
        clock.advance(5.0)
        assert breaker.state == "half_open"
        breaker.record_failure()  # the probe fails
        assert breaker.state == "open"
        # ... and the cooldown restarts from the re-opening.
        clock.advance(4.0)
        assert breaker.state == "open"
        clock.advance(1.0)
        assert breaker.state == "half_open"

    def test_success_resets_consecutive_count(self):
        breaker = CircuitBreaker(failure_threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"  # never 2 *consecutive* failures

    def test_validation(self):
        with pytest.raises(ReproError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ReproError):
            CircuitBreaker(cooldown_s=-1.0)


# ---------------------------------------------------------------------------
# Fallback chain
# ---------------------------------------------------------------------------


class AlwaysFailsModel:
    def predict(self, X):
        raise RuntimeError("model backend unavailable")


class NaNModel:
    def predict(self, X):
        return np.full(np.asarray(X).shape[0], np.nan)


class WrongShapeModel:
    def predict(self, X):
        return np.zeros(np.asarray(X).shape[0] + 3)


class TestCardinalityHeuristic:
    def test_always_finite_and_nonnegative(self):
        schema = FeatureSchema(_registry())
        heuristic = CardinalityHeuristicModel(schema)
        X = np.full((4, schema.n_features), np.nan)
        X[1] = np.inf
        X[2] = -np.inf
        out = heuristic.predict(X)
        assert out.shape == (4,)
        assert np.all(np.isfinite(out)) and np.all(out >= 0)

    def test_tolerates_width_mismatch(self):
        schema = FeatureSchema(_registry())
        heuristic = CardinalityHeuristicModel(schema)
        wide = np.ones((2, schema.n_features + 7))
        narrow = np.ones((2, max(1, schema.n_features - 5)))
        assert np.all(np.isfinite(heuristic.predict(wide)))
        assert np.all(np.isfinite(heuristic.predict(narrow)))

    def test_more_data_costs_more(self):
        schema = FeatureSchema(_registry())
        heuristic = CardinalityHeuristicModel(schema)
        small = np.ones((1, schema.n_features))
        large = small * 1000.0
        assert heuristic.predict(large)[0] > heuristic.predict(small)[0]


class TestFallbackRuntimeModel:
    def _schema(self):
        return FeatureSchema(_registry())

    def test_healthy_primary_answers(self):
        schema = self._schema()
        primary = LinearRuntimeModel(schema.n_features, seed=0)
        chain = FallbackRuntimeModel.for_schema(primary, schema)
        X = np.ones((3, schema.n_features))
        out = chain.predict(X)
        assert np.allclose(out, primary.predict(X))
        assert chain.last_level == "primary"

    def test_raising_primary_degrades_to_cost_model(self):
        schema = self._schema()
        chain = FallbackRuntimeModel.for_schema(AlwaysFailsModel(), schema)
        X = np.ones((2, schema.n_features))
        out = chain.predict(X)
        assert np.allclose(out, FeatureCostModel(schema).predict(X))
        assert chain.last_level == "FeatureCostModel"
        assert "model backend unavailable" in chain.last_error

    @pytest.mark.parametrize("bad", [NaNModel(), WrongShapeModel()])
    def test_insane_outputs_count_as_failures(self, bad):
        schema = self._schema()
        chain = FallbackRuntimeModel.for_schema(bad, schema)
        out = chain.predict(np.ones((2, schema.n_features)))
        assert np.all(np.isfinite(out))
        assert chain.last_level != "primary"

    def test_width_mismatch_rejected_before_primary(self):
        schema = self._schema()
        primary = LinearRuntimeModel(schema.n_features, seed=0)
        chain = FallbackRuntimeModel.for_schema(primary, schema)
        out = chain.predict(np.ones((2, schema.n_features + 1)))
        # Only the heuristic tolerates the wrong width.
        assert chain.last_level == "CardinalityHeuristicModel"
        assert np.all(np.isfinite(out))

    def test_failing_loader_degrades_instead_of_raising(self, tmp_path):
        from repro.ml.model import RuntimeModel

        schema = self._schema()
        chain = FallbackRuntimeModel.for_schema(
            RuntimeModel.loader(str(tmp_path / "nope.pkl")), schema
        )
        out = chain.predict(np.ones((2, schema.n_features)))
        assert np.all(np.isfinite(out))
        assert chain.last_level == "FeatureCostModel"

    def test_breaker_short_circuits_dead_primary(self):
        schema = self._schema()
        calls = []

        class CountingFailer:
            def predict(self, X):
                calls.append(len(calls))
                raise RuntimeError("down")

        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=2, cooldown_s=60.0, clock=clock)
        chain = FallbackRuntimeModel.for_schema(
            CountingFailer(), schema, breaker=breaker
        )
        X = np.ones((1, schema.n_features))
        chain.predict(X)
        chain.predict(X)
        assert breaker.state == "open"
        chain.predict(X)
        chain.predict(X)
        assert len(calls) == 2  # short-circuited: the primary stopped being hit
        # After the cooldown the half-open probe reaches the primary again.
        clock.advance(61.0)
        chain.predict(X)
        assert len(calls) == 3

    def test_every_level_failing_raises_model_error(self):
        chain = FallbackRuntimeModel(AlwaysFailsModel(), fallbacks=[NaNModel()])
        with pytest.raises(ModelError):
            chain.predict(np.ones((2, 4)))

    def test_level_counts_accumulate(self):
        schema = self._schema()
        chain = FallbackRuntimeModel.for_schema(AlwaysFailsModel(), schema)
        X = np.ones((1, schema.n_features))
        chain.predict(X)
        chain.predict(X)
        assert chain.level_counts.get("FeatureCostModel") == 2

    def test_invalid_primary_rejected(self):
        with pytest.raises(ModelError):
            FallbackRuntimeModel(object())


# ---------------------------------------------------------------------------
# Variance guard: sustained disagreement is a soft failure
# ---------------------------------------------------------------------------


class SpreadModel:
    """predict/predict_dist double with a controllable relative spread."""

    def __init__(self, n_features, rel=2.0, mean=10.0):
        self.n_features = n_features
        self.rel = rel
        self.mean = mean

    def predict(self, X):
        return np.full(np.asarray(X).shape[0], self.mean)

    def predict_dist(self, X):
        out = self.predict(X)
        return out, np.abs(out) * self.rel


class TestVarianceGuard:
    def test_validation(self):
        with pytest.raises(ReproError):
            VarianceGuard(threshold=0.0)
        with pytest.raises(ReproError):
            VarianceGuard(window=0)
        with pytest.raises(ReproError):
            VarianceGuard(window=4, trip_count=5)

    def test_flags_relative_spread(self):
        guard = VarianceGuard(threshold=0.5, window=4)
        mean = np.array([10.0, 20.0])
        assert guard.observe(mean, mean * 0.1) is False
        assert guard.observe(mean, mean * 0.9) is True
        assert guard.high_calls == 1

    def test_floor_mutes_subsecond_plans(self):
        """Near-zero predictions must not inflate the ratio: their spread
        is not a model-health signal."""
        guard = VarianceGuard(threshold=0.5, window=2, floor_s=1e-3)
        tiny_mean = np.array([1e-9])
        tiny_std = np.array([1e-7])  # 100x the mean, but absolute noise
        assert guard.observe(tiny_mean, tiny_std) is False

    def test_trips_only_when_sustained(self):
        guard = VarianceGuard(threshold=0.5, window=3)
        mean = np.ones(2)
        guard.observe(mean, mean)  # high
        guard.observe(mean, mean)  # high
        assert not guard.tripped  # window not yet full
        guard.observe(mean, mean * 0.0)  # one calm batch
        assert not guard.tripped  # 2/3 flagged < trip_count=3
        guard.observe(mean, mean)
        guard.observe(mean, mean)
        guard.observe(mean, mean)
        assert guard.tripped  # the calm batch slid out
        guard.reset()
        assert not guard.tripped

    def test_partial_trip_count(self):
        guard = VarianceGuard(threshold=0.5, window=4, trip_count=2)
        mean = np.ones(1)
        guard.observe(mean, mean * 0.0)
        guard.observe(mean, mean)
        guard.observe(mean, mean * 0.0)
        guard.observe(mean, mean)
        assert guard.tripped  # 2/4 flagged >= trip_count=2

    def test_sustained_variance_degrades_to_cost_model(self):
        """A guessing primary is served from the fallback chain, counted
        as high_variance (not model_failure), and eventually breakered."""
        schema = FeatureSchema(_registry())
        guard = VarianceGuard(threshold=0.8, window=2)
        breaker = CircuitBreaker(failure_threshold=2, cooldown_s=60.0)
        chain = FallbackRuntimeModel.for_schema(
            SpreadModel(schema.n_features, rel=3.0),
            schema,
            breaker=breaker,
            variance_guard=guard,
        )
        X = np.ones((2, schema.n_features))
        tracer = Tracer()
        with use_tracer(tracer):
            assert chain.predict(X).shape == (2,)  # window filling: primary
            assert chain.last_level == "primary"
            chain.predict(X)  # window full -> tripped -> degraded
            assert chain.last_level == "FeatureCostModel"
            chain.predict(X)  # second trip opens the breaker
            chain.predict(X)  # short-circuited
        assert tracer.counters["resilience.high_variance"] == 2
        assert "resilience.model_failure" not in tracer.counters
        assert tracer.counters["resilience.breaker_open"] == 1
        assert tracer.counters["resilience.breaker_short_circuit"] == 1

    def test_calm_model_never_trips(self):
        schema = FeatureSchema(_registry())
        guard = VarianceGuard(threshold=0.8, window=2)
        chain = FallbackRuntimeModel.for_schema(
            SpreadModel(schema.n_features, rel=0.1),
            schema,
            variance_guard=guard,
        )
        X = np.ones((2, schema.n_features))
        for _ in range(6):
            chain.predict(X)
            assert chain.last_level == "primary"
        assert guard.high_calls == 0


# ---------------------------------------------------------------------------
# predict_dist honesty + hot model swap
# ---------------------------------------------------------------------------


class TestFallbackPredictDist:
    def _schema(self):
        return FeatureSchema(_registry())

    def test_primary_with_dist_reports_real_spread(self):
        schema = self._schema()
        chain = FallbackRuntimeModel.for_schema(
            SpreadModel(schema.n_features, rel=0.25), schema
        )
        mean, std = chain.predict_dist(np.ones((3, schema.n_features)))
        assert np.allclose(std, mean * 0.25)
        assert chain.last_level == "primary"

    def test_point_only_primary_reports_zero_spread(self):
        """A deterministic predictor has no spread; inventing one would
        poison risk-adjusted ranking."""
        schema = self._schema()
        primary = LinearRuntimeModel(schema.n_features, seed=0)
        chain = FallbackRuntimeModel.for_schema(primary, schema)
        X = np.ones((3, schema.n_features))
        mean, std = chain.predict_dist(X)
        assert np.array_equal(mean, primary.predict(X))
        assert np.array_equal(std, np.zeros(3))

    def test_fallback_served_reports_infinite_spread(self):
        """A degraded cost is an unbounded-uncertainty estimate: mean +
        k*inf makes any risk-averse consumer refuse to prefer it."""
        schema = self._schema()
        chain = FallbackRuntimeModel.for_schema(AlwaysFailsModel(), schema)
        tracer = Tracer()
        with use_tracer(tracer):
            mean, std = chain.predict_dist(np.ones((2, schema.n_features)))
        assert np.all(np.isfinite(mean))
        assert np.all(np.isinf(std))
        assert tracer.counters["resilience.fallback"] == 1


class TestSwapPrimary:
    def test_swap_revives_a_breakered_chain(self):
        schema = FeatureSchema(_registry())
        breaker = CircuitBreaker(failure_threshold=1, cooldown_s=3600.0)
        chain = FallbackRuntimeModel.for_schema(
            AlwaysFailsModel(), schema, breaker=breaker
        )
        X = np.ones((2, schema.n_features))
        chain.predict(X)
        assert breaker.state == "open"
        healthy = LinearRuntimeModel(schema.n_features, seed=0)
        chain.swap_primary(healthy)
        assert breaker.state == "closed"
        assert np.allclose(chain.predict(X), healthy.predict(X))
        assert chain.last_level == "primary"

    def test_swap_resets_variance_guard(self):
        schema = FeatureSchema(_registry())
        guard = VarianceGuard(threshold=0.5, window=1)
        chain = FallbackRuntimeModel.for_schema(
            SpreadModel(schema.n_features, rel=3.0),
            schema,
            variance_guard=guard,
        )
        X = np.ones((1, schema.n_features))
        chain.predict(X)
        assert guard.tripped
        chain.swap_primary(SpreadModel(schema.n_features, rel=0.1))
        assert not guard.tripped  # the fresh model starts clean
        chain.predict(X)
        assert chain.last_level == "primary"

    def test_swap_rejects_non_models(self):
        schema = FeatureSchema(_registry())
        chain = FallbackRuntimeModel.for_schema(
            LinearRuntimeModel(schema.n_features, seed=0), schema
        )
        with pytest.raises(ModelError):
            chain.swap_primary(object())


# ---------------------------------------------------------------------------
# Anytime optimization under budgets (property-tested over TDGEN plans)
# ---------------------------------------------------------------------------


def _assert_complete(result, plan):
    """The anytime contract: a complete, executable plan, honestly costed."""
    xplan = result.execution_plan
    assert set(xplan.assignment) == set(plan.operators)
    xplan.conversions()  # derivable without error
    for op_id, platform_name in xplan.assignment.items():
        platform = xplan.registry[platform_name]
        assert platform.supports(plan.operators[op_id].kind_name)


class TestAnytimeOptimization:
    @pytest.mark.parametrize("seed", [3, 17])
    def test_zero_deadline_still_yields_executable_plans(self, seed):
        """deadline 0 degrades immediately — to the greedy single-platform
        plan, since not even singletons fit in the budget."""
        optimizer = _robopt(seed=seed, budget=Budget(deadline_s=0.0))
        for plan in _random_plans(8, seed=500 + seed):
            result = optimizer.optimize(plan)
            _assert_complete(result, plan)
            assert result.stats.degraded
            assert result.stats.degradation == "greedy_fallback"

    @pytest.mark.parametrize("seed", [5, 29])
    def test_vector_cap_yields_degraded_but_complete_plans(self, seed):
        """A cap that halts after singletons assembles the best per-fragment
        plan — complete, executable, flagged max_vectors."""
        optimizer = _robopt(seed=seed, budget=Budget(max_vectors=4))
        for plan in _random_plans(8, seed=900 + seed):
            result = optimizer.optimize(plan)
            _assert_complete(result, plan)
            assert result.stats.degraded
            assert result.stats.degradation in ("max_vectors", "greedy_fallback")

    def test_generous_budget_matches_unbounded_run(self):
        bounded = _robopt(seed=1, budget=Budget(deadline_s=300.0, max_vectors=10**9))
        unbounded = _robopt(seed=1)
        for plan in _random_plans(6, seed=777):
            a = bounded.optimize(plan)
            b = unbounded.optimize(plan)
            assert not a.stats.degraded and not b.stats.degraded
            assert a.execution_plan.assignment == b.execution_plan.assignment
            assert a.predicted_runtime == pytest.approx(b.predicted_runtime)

    def test_degraded_cost_never_beats_the_optimum(self):
        """Anytime assembly is lossy (cross-fragment conversions are never
        compared), so its predicted cost can only be >= the full search's."""
        capped = _robopt(seed=2, budget=Budget(max_vectors=4))
        full = _robopt(seed=2)
        checked = 0
        for plan in _random_plans(8, seed=1300):
            degraded = capped.optimize(plan)
            optimal = full.optimize(plan)
            if not degraded.stats.degraded:
                continue
            if np.isnan(degraded.predicted_runtime):
                continue
            checked += 1
            # Relative tolerance: the same plan costed through a different
            # summation path can differ in the last ulp.
            assert (
                degraded.predicted_runtime
                >= optimal.predicted_runtime * (1.0 - 1e-9)
            )
        assert checked > 0

    def test_per_call_budget_overrides_constructor(self):
        optimizer = _robopt(seed=4)
        plan = build_pipeline(4)
        normal = optimizer.optimize(plan)
        assert not normal.stats.degraded
        squeezed = optimizer.optimize(plan, budget=Budget(deadline_s=0.0))
        assert squeezed.stats.degraded
        _assert_complete(squeezed, plan)

    def test_degradation_counters(self):
        tracer = Tracer()
        optimizer = _robopt(seed=6, budget=Budget(deadline_s=0.0))
        with use_tracer(tracer):
            optimizer.optimize(build_join_plan())
        assert tracer.counters["resilience.degraded"] == 1
        assert tracer.counters["resilience.deadline_hit"] == 1

    def test_stats_roundtrip_degradation_fields(self):
        stats = RunStats()
        assert stats.degraded is False and stats.degradation == ""
        doc = _robopt(seed=8, budget=Budget(deadline_s=0.0)).optimize(
            build_pipeline(3)
        ).stats.as_dict()
        assert doc["degraded"] is True
        assert doc["degradation"] == "greedy_fallback"


# ---------------------------------------------------------------------------
# Retry policy and quarantine
# ---------------------------------------------------------------------------


class TestRetryPolicy:
    def test_deterministic_and_jitter_bounded(self):
        policy = RetryPolicy(
            base_backoff_s=0.1, multiplier=2.0, max_backoff_s=10.0, jitter=0.5, seed=7
        )
        again = RetryPolicy(
            base_backoff_s=0.1, multiplier=2.0, max_backoff_s=10.0, jitter=0.5, seed=7
        )
        for attempt in (1, 2, 3, 4):
            delay = policy.delay_s(attempt)
            base = 0.1 * 2.0 ** (attempt - 1)
            assert 0.5 * base <= delay <= 1.5 * base
            assert delay == again.delay_s(attempt)  # seeded, not sampled

    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(
            base_backoff_s=1.0, multiplier=4.0, max_backoff_s=5.0, jitter=0.0
        )
        assert policy.delay_s(1) == 1.0
        assert policy.delay_s(2) == 4.0
        assert policy.delay_s(3) == 5.0  # capped

    def test_validation(self):
        with pytest.raises(ReproError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ReproError):
            RetryPolicy(jitter=1.0)
        with pytest.raises(ReproError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ReproError):
            RetryPolicy().delay_s(0)


class TestQuarantine:
    def test_threshold_and_success_clearing(self):
        quarantine = Quarantine(threshold=2)
        assert quarantine.record_worker_death("fpA") == 1
        assert not quarantine.is_quarantined("fpA")
        # An innocent bystander of the same broken pool ...
        quarantine.record_worker_death("fpB")
        # ... completes on retry and is exonerated.
        quarantine.record_success("fpB")
        assert quarantine.deaths("fpB") == 0
        # The repeat offender crosses the threshold.
        quarantine.record_worker_death("fpA")
        assert quarantine.is_quarantined("fpA")
        assert len(quarantine) == 1

    def test_validation(self):
        with pytest.raises(ReproError):
            Quarantine(threshold=0)


# ---------------------------------------------------------------------------
# Corrupt plan-cache files (satellite: load tolerance)
# ---------------------------------------------------------------------------


class TestPlanCacheCorruptLoad:
    def _saved_cache(self, tmp_path, registry, n=3):
        from repro.core.optimizer import Robopt

        schema = FeatureSchema(registry)
        model = LinearRuntimeModel(schema.n_features, seed=0)
        optimizer = Robopt(registry, model, schema=schema)
        cache = PlanCache()
        from repro.serve import plan_fingerprint

        for i in range(n):
            plan = build_pipeline(2 + i)
            cache.put(plan_fingerprint(plan, registry), optimizer.optimize(plan))
        path = tmp_path / "cache.json"
        cache.save(path)
        return path

    def test_truncated_file_loads_empty(self, tmp_path):
        registry = _registry()
        path = self._saved_cache(tmp_path, registry)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        tracer = Tracer()
        with use_tracer(tracer):
            cache = PlanCache.load(path, registry)
        assert len(cache) == 0
        assert tracer.counters["serve.cache.load_corrupt"] == 1

    @pytest.mark.parametrize(
        "content",
        ["", "not json at all {{{", '"a bare string"', "[1, 2, 3]", '{"entries": []}'],
    )
    def test_garbage_documents_load_empty(self, tmp_path, content):
        registry = _registry()
        path = tmp_path / "cache.json"
        path.write_text(content)
        assert len(PlanCache.load(path, registry)) == 0

    def test_missing_file_loads_empty(self, tmp_path):
        assert len(PlanCache.load(tmp_path / "absent.json", _registry())) == 0

    def test_bad_entries_skipped_good_entries_kept(self, tmp_path):
        import json

        registry = _registry()
        path = self._saved_cache(tmp_path, registry, n=3)
        doc = json.loads(path.read_text())
        doc["entries"][1]["execution_plan"] = {"mangled": True}
        path.write_text(json.dumps(doc))
        cache = PlanCache.load(path, registry)
        assert len(cache) == 2

    def test_unsupported_version_still_raises(self, tmp_path):
        """An explicit future format version is a deployment error, not
        corruption — silently discarding it would mask the real problem."""
        import json

        registry = _registry()
        path = self._saved_cache(tmp_path, registry)
        doc = json.loads(path.read_text())
        doc["version"] = 999
        path.write_text(json.dumps(doc))
        with pytest.raises(ReproError):
            PlanCache.load(path, registry)
