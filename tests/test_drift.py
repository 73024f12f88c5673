"""Drift detection and the serving-side feedback controller.

Three layers under test:

* :class:`repro.ml.drift.DriftMonitor` — the sliding q-error window and
  its OK/WARN/DRIFTED verdicts;
* :meth:`repro.ml.model.RuntimeModel.predict_dist` — the log-space
  delta transform from forest disagreement to seconds, with the mean
  bit-identical to ``predict_matrix``;
* :class:`repro.serve.feedback.FeedbackController` — execute → observe
  → retrain → install, with both the count and the drift trigger, and a
  background retrain installing into a pooled daemon under load.
"""

import json
import time

import numpy as np
import pytest

from repro.api import OptimizationResult, RunStats
from repro.exceptions import ModelError
from repro.ml.drift import DriftMonitor, DriftStatus
from repro.ml.feedback import FeedbackLoop
from repro.obs import Tracer, use_tracer
from repro.rheem.execution_plan import single_platform_plan
from repro.serve.feedback import FeedbackController

from conftest import build_pipeline


class TestDriftMonitor:
    def test_validation(self):
        with pytest.raises(ModelError):
            DriftMonitor(window=0)
        with pytest.raises(ModelError):
            DriftMonitor(min_samples=0)
        with pytest.raises(ModelError):
            DriftMonitor(warn_threshold=0.5)
        with pytest.raises(ModelError):
            DriftMonitor(warn_threshold=3.0, drift_threshold=2.0)
        with pytest.raises(ModelError):
            DriftMonitor(quantile=1.5)

    def test_ok_below_min_samples(self):
        """A two-sample window saying "drifted" is noise: no verdict
        other than OK until min_samples observations arrive."""
        monitor = DriftMonitor(window=8, min_samples=4, drift_threshold=2.0)
        for _ in range(3):
            assert monitor.observe(1.0, 100.0) is DriftStatus.OK
        assert monitor.observe(1.0, 100.0) is DriftStatus.DRIFTED

    def test_verdict_ladder(self):
        monitor = DriftMonitor(
            window=8, min_samples=2, warn_threshold=2.0, drift_threshold=4.0
        )
        monitor.observe(10.0, 10.0)
        monitor.observe(10.0, 10.0)
        assert monitor.status() is DriftStatus.OK
        monitor.reset()
        for _ in range(2):
            monitor.observe(10.0, 25.0)  # q = 2.5
        assert monitor.status() is DriftStatus.WARN
        monitor.reset()
        for _ in range(2):
            monitor.observe(10.0, 50.0)  # q = 5
        assert monitor.status() is DriftStatus.DRIFTED

    def test_window_slides(self):
        """Old mispredictions age out: only the last ``window`` pairs
        drive the verdict."""
        monitor = DriftMonitor(window=4, min_samples=2, drift_threshold=3.0)
        for _ in range(4):
            monitor.observe(1.0, 10.0)
        assert monitor.status() is DriftStatus.DRIFTED
        for _ in range(4):
            monitor.observe(10.0, 10.0)
        assert monitor.status() is DriftStatus.OK
        assert monitor.total_observations == 8
        assert len(monitor) == 4

    def test_bad_samples_ignored(self):
        monitor = DriftMonitor(min_samples=1)
        monitor.observe(float("nan"), 1.0)
        monitor.observe(1.0, float("inf"))
        monitor.observe(-1.0, 1.0)
        assert len(monitor) == 0
        assert np.isnan(monitor.q_error())

    def test_direction_symmetric(self):
        """Q-error penalizes over- and under-prediction alike."""
        over = DriftMonitor(min_samples=1)
        under = DriftMonitor(min_samples=1)
        over.observe(50.0, 10.0)
        under.observe(10.0, 50.0)
        assert over.q_error() == pytest.approx(under.q_error()) == pytest.approx(5.0)

    def test_snapshot_shape(self):
        monitor = DriftMonitor(min_samples=1)
        snap = monitor.snapshot()
        assert set(snap) == {"window", "observations", "q_error", "status"}
        assert snap["status"] == "ok"
        monitor.observe(10.0, 20.0)
        snap = monitor.snapshot()
        assert snap["q_error"] == pytest.approx(2.0)
        assert snap["window"] == 1.0


class TestRuntimeModelPredictDist:
    def test_mean_bit_identical_to_predict(self, tiny_context):
        """Switching a consumer to predict_dist must not move a single
        ranking decision: the means are the same array values."""
        model = tiny_context["model"]
        X = tiny_context["dataset"].X[:64]
        assert model.supports_dist
        mean, std = model.predict_dist(X)
        assert np.array_equal(mean, model.predict_matrix(X))
        assert std.shape == mean.shape
        assert np.all(std >= 0) and np.all(np.isfinite(std))
        assert np.any(std > 0)  # a 12-tree forest disagrees somewhere

    def test_delta_transform_scales_with_mean(self, tiny_context):
        """std_s = exp(mean_log) * std_log: the seconds-space spread of a
        long-running plan exceeds that of a cheap plan with the same
        log-space disagreement."""
        model = tiny_context["model"]
        X = tiny_context["dataset"].X[:256]
        mean, std = model.predict_dist(X)
        log_mean, log_std = model._regressor.predict_dist(
            np.asarray(X, dtype=np.float64)
        )
        assert np.allclose(std, np.exp(log_mean) * log_std)

    def test_point_only_model_reports_zero(self, tiny_context):
        from repro.ml.model import RuntimeModel

        linear = RuntimeModel.train(
            tiny_context["dataset"].take(np.arange(200)), "linear", seed=0
        )
        assert not linear.supports_dist
        X = tiny_context["dataset"].X[:8]
        mean, std = linear.predict_dist(X)
        assert np.array_equal(mean, linear.predict_matrix(X))
        assert np.array_equal(std, np.zeros(8))


class _ScriptedExecutor:
    """Execution double returning scripted runtimes (cycled)."""

    def __init__(self, runtimes):
        self.runtimes = list(runtimes)
        self.calls = 0

    def execute(self, xplan, timeout_s=3600.0):
        runtime = self.runtimes[self.calls % len(self.runtimes)]
        self.calls += 1

        class _Report:
            def __init__(self, runtime_s):
                self.ok = np.isfinite(runtime_s)
                self.status = "success" if self.ok else "failed"
                self.runtime_s = runtime_s
                self.detail = ""

        return _Report(runtime)


class TestFeedbackController:
    def _result(self, ctx, predicted=10.0, degraded=False):
        xp = single_platform_plan(build_pipeline(3), "spark", ctx["registry"])
        return OptimizationResult(
            execution_plan=xp,
            predicted_runtime=predicted,
            stats=RunStats(degraded=degraded, degradation="x" if degraded else ""),
        )

    def _controller(self, ctx, runtimes=(12.0,), **kwargs):
        kwargs.setdefault("min_observations", 2)
        kwargs.setdefault("retrain_after", 3)
        loop = FeedbackLoop(
            ctx["schema"],
            base_dataset=ctx["dataset"],
            n_estimators=4,
            max_depth=8,
        )
        drift = kwargs.pop("drift", DriftMonitor(min_samples=2))
        return FeedbackController(
            loop, _ScriptedExecutor(runtimes), drift=drift, **kwargs
        )

    def test_observe_feeds_loop_and_drift(self, tiny_context):
        ctrl = self._controller(tiny_context, runtimes=(20.0,))
        tracer = Tracer()
        with use_tracer(tracer):
            assert ctrl.observe(self._result(tiny_context, predicted=10.0))
        assert ctrl.loop.n_observations == 1
        assert ctrl.drift.q_error() == pytest.approx(2.0)
        assert tracer.counters["serve.feedback.observed"] == 1

    def test_degraded_plan_never_becomes_a_label(self, tiny_context):
        """Fallback-served plans are rejected by the loop AND invisible
        to the drift monitor — a burst of degraded answers must not
        masquerade as model drift."""
        ctrl = self._controller(tiny_context, runtimes=(500.0,))
        assert not ctrl.observe(self._result(tiny_context, degraded=True))
        assert ctrl.loop.n_observations == 0
        assert len(ctrl.drift) == 0
        assert ctrl.loop.rejected == 1

    def test_failed_execution_rejected(self, tiny_context):
        ctrl = self._controller(tiny_context, runtimes=(float("inf"),))
        tracer = Tracer()
        with use_tracer(tracer):
            assert not ctrl.observe(self._result(tiny_context))
        assert ctrl.execution_failures == 1
        assert ctrl.loop.n_observations == 0
        assert tracer.counters["serve.feedback.execution_failed"] == 1

    def test_count_trigger_retrains_and_installs(self, tiny_context):
        installed = []
        ctrl = self._controller(tiny_context, retrain_after=3, min_observations=2)
        ctrl.install = installed.append
        for _ in range(2):
            ctrl.observe(self._result(tiny_context))
            assert not ctrl.maybe_retrain()  # below retrain_after
        ctrl.observe(self._result(tiny_context))
        assert ctrl.maybe_retrain()
        assert len(installed) == 1
        assert installed[0].predict_one(tiny_context["dataset"].X[0]) >= 0
        assert ctrl.model_generation == 1
        assert ctrl.loop.observations_since_retrain == 0
        assert len(ctrl.drift) == 0  # drift window reset with the swap

    def test_drift_trigger_fires_before_count(self, tiny_context):
        """A drifted model is refit immediately, not after retrain_after
        more bad answers."""
        ctrl = self._controller(
            tiny_context,
            runtimes=(100.0,),  # 10x the predicted 10.0
            retrain_after=50,
            min_observations=2,
            drift=DriftMonitor(min_samples=2, drift_threshold=4.0),
        )
        ctrl.observe(self._result(tiny_context))
        assert not ctrl.maybe_retrain()  # min_observations not met... yet
        ctrl.observe(self._result(tiny_context))
        assert ctrl.drift.status() is DriftStatus.DRIFTED
        assert ctrl.maybe_retrain()
        assert ctrl.loop.n_retrains == 1

    def test_install_failure_is_contained(self, tiny_context):
        def broken_install(model):
            raise RuntimeError("swap failed")

        ctrl = self._controller(tiny_context, retrain_after=2, min_observations=2)
        ctrl.install = broken_install
        ctrl.observe(self._result(tiny_context))
        ctrl.observe(self._result(tiny_context))
        tracer = Tracer()
        with use_tracer(tracer):
            assert ctrl.maybe_retrain()
        assert tracer.counters["serve.feedback.install_failed"] == 1
        assert ctrl.model_generation == 0
        assert "swap failed" in ctrl.last_error
        assert not ctrl._retraining  # the controller can try again

    def test_background_retrain_joins(self, tiny_context):
        ctrl = self._controller(
            tiny_context, retrain_after=2, min_observations=2, background=True
        )
        ctrl.observe(self._result(tiny_context))
        ctrl.observe(self._result(tiny_context))
        assert ctrl.maybe_retrain()
        ctrl.join()
        assert ctrl.loop.n_retrains == 1
        assert ctrl.model_generation == 1

    def test_finished_retrain_threads_are_dropped(self, tiny_context):
        """A daemon retrains for its whole life: the controller keeps at
        most one retrain thread, not one per retrain ever run."""
        ctrl = self._controller(
            tiny_context, retrain_after=2, min_observations=2, background=True
        )
        for _ in range(3):
            ctrl.observe(self._result(tiny_context))
            ctrl.observe(self._result(tiny_context))
            assert ctrl.maybe_retrain()
            # Wait on the thread itself: ctrl.join() would prune the list.
            ctrl._threads[-1].join(timeout=30.0)
        assert ctrl.model_generation == 3
        assert len(ctrl._threads) <= 1

    def test_stats_payload_is_json_safe(self, tiny_context):
        ctrl = self._controller(tiny_context)
        stats = ctrl.stats()
        assert stats["q_error"] is None  # NaN never reaches the wire
        json.dumps(stats, allow_nan=False)
        ctrl.observe(self._result(tiny_context, predicted=10.0))
        stats = ctrl.stats()
        assert stats["observations_total"] == 1
        assert isinstance(stats["q_error"], float)
        json.dumps(stats, allow_nan=False)

class TestDriftHealDrill:
    """The ISSUE 10 chaos drill: shift the workload under a trained
    model, watch the drift monitor notice, and verify the automatic
    retrain actually heals prediction quality on held-out plans."""

    FACTOR = 10.0  # the injected slowdown: the whole cluster, 10x slower

    def _shifted_executor(self, registry):
        from repro.simulator.executor import SimulatedExecutor

        base = SimulatedExecutor.default(registry)
        profiles = {
            name: p.with_overrides(
                tuple_rate=p.tuple_rate / self.FACTOR,
                shuffle_rate=p.shuffle_rate / self.FACTOR,
                io_rate=p.io_rate / self.FACTOR,
                startup_s=p.startup_s * self.FACTOR,
                per_op_overhead_s=p.per_op_overhead_s * self.FACTOR,
                loop_overhead_s=p.loop_overhead_s * self.FACTOR,
            )
            for name, p in base.profiles.items()
        }
        return SimulatedExecutor(profiles)

    def _fleet(self, registry, executor):
        """Diverse (xplan, shifted runtime) pairs that execute cleanly."""
        from repro.tdgen.jobgen import JobGenerator

        templates = JobGenerator(registry, seed=3).templates_for_shapes(
            ("pipeline", "juncture"), max_operators=8, count=12
        )
        fleet = []
        for index, template in enumerate(templates):
            plan = template(10.0 ** (3 + index % 4))
            for name in registry.names:
                xp = single_platform_plan(plan, name, registry)
                report = executor.execute(xp)
                if report.ok:
                    fleet.append((xp, report.runtime_s))
        return fleet

    def test_workload_shift_is_detected_and_healed(self, tiny_context):
        from repro.ml.drift import DriftStatus

        registry = tiny_context["registry"]
        schema = tiny_context["schema"]
        stale = tiny_context["model"]
        shifted = self._shifted_executor(registry)
        fleet = self._fleet(registry, shifted)
        assert len(fleet) >= 16, "drill needs a workload to observe"
        held_out = fleet[::4]
        feed = [pair for i, pair in enumerate(fleet) if i % 4]

        def median_q(model):
            qs = []
            for xp, truth in held_out:
                pred = max(model.predict_one(schema.encode_execution_plan(xp)), 1e-9)
                qs.append(max(pred / truth, truth / pred))
            return float(np.median(qs))

        q_before = median_q(stale)
        # The shift pushed the stale model past the drill's drift bar.
        assert q_before > 2.0

        installed = []
        ctrl = FeedbackController(
            FeedbackLoop(schema, seed=7, n_estimators=12, max_depth=14),
            shifted,
            drift=DriftMonitor(
                window=16, min_samples=6, warn_threshold=1.5, drift_threshold=2.0
            ),
            retrain_after=0,  # drift-only: the drill is about detection
            min_observations=10,
            install=installed.append,
        )
        # The production loop: predict with the currently installed
        # model; each drift trip retrains on everything seen so far and
        # the next generation faces the same monitor.
        current = stale
        drift_seen = False
        for xp, _ in feed:
            pred = current.predict_one(schema.encode_execution_plan(xp))
            ctrl.observe(
                OptimizationResult(
                    execution_plan=xp, predicted_runtime=pred, stats=RunStats()
                )
            )
            drift_seen = drift_seen or ctrl.drift.status() is DriftStatus.DRIFTED
            if ctrl.maybe_retrain():
                current = installed[-1]
        assert drift_seen, "the injected shift never tripped the monitor"
        assert ctrl.loop.n_retrains >= 1
        assert ctrl.model_generation == ctrl.loop.n_retrains
        assert installed

        q_after = median_q(installed[-1])
        heal_ratio = q_before / q_after
        assert heal_ratio >= 2.0, (
            f"retrain healed q-error only {heal_ratio:.2f}x "
            f"({q_before:.2f} -> {q_after:.2f})"
        )


class TestDaemonRetrainDrill:
    """A background retrain installs into a pooled daemon while clients
    keep sending requests: the install waits for the running batch, so
    no request fails, no worker is counted dead, and the drain is clean."""

    def test_requests_keep_flowing_through_an_install(self, tiny_context, tmp_path):
        from repro.rheem.serialization import plan_to_dict
        from repro.serve import (
            BatchOptimizationService,
            PlanCache,
            ServeClient,
            resilient_robopt_factory,
        )
        from repro.serve.protocol import OptimizeRequest
        from repro.serve.testing import DaemonHarness

        model_path = tmp_path / "model.pkl"
        tiny_context["model"].save(model_path)
        ctrl = FeedbackController(
            FeedbackLoop(
                tiny_context["schema"],
                base_dataset=tiny_context["dataset"],
                n_estimators=4,
                max_depth=8,
            ),
            _ScriptedExecutor((12.0,)),
            drift=DriftMonitor(min_samples=2),
            retrain_after=2,
            min_observations=2,
            background=True,
        )
        service = BatchOptimizationService(
            resilient_robopt_factory(model_path=str(model_path)),
            tiny_context["registry"],
            workers=2,
            cache=PlanCache(),
            feedback=ctrl,
            model_path=model_path,
        )
        harness = DaemonHarness(service, unix_path=str(tmp_path / "d.sock")).start()
        replies = []
        try:
            with ServeClient(harness.address) as client:
                deadline = time.monotonic() + 120.0
                extra = 4  # requests still sent after the first install
                i = 0
                while extra > 0:
                    assert time.monotonic() < deadline, "no retrain installed"
                    # A new cardinality bucket each time: every request
                    # enumerates on the pool and feeds the retrain loop.
                    plan = build_pipeline(2 + i % 4, 1e3 * 4.0 ** (i // 4))
                    request = OptimizeRequest(request_id=f"r{i}", plan=plan_to_dict(plan))
                    replies.append(client.optimize(request))
                    if ctrl.model_generation >= 1:
                        extra -= 1
                    i += 1
                ctrl.join()  # no install in flight while the stats are read
                stats = client.stats()
        finally:
            exit_code = harness.stop()
        assert all(reply.ok for reply in replies), [
            reply for reply in replies if not reply.ok
        ]
        generation = stats.feedback["model_generation"]
        assert generation >= 1
        assert stats.counters["serve.model_swaps"] == generation
        assert "serve.worker_deaths" not in stats.counters
        assert "serve.jobs_timed_out" not in stats.counters
        assert exit_code == 0
        # Pooled batches ran after an install discarded the warm pool.
        assert service._pool.spawns >= 2
