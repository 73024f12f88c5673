"""The drift-heal drill: inject a workload shift, let the loop fix it.

The closed feedback loop (ISSUE 10) exists for exactly one scenario: the
cluster the model was trained against stops looking like the cluster the
optimizer is serving. This benchmark manufactures that scenario — every
platform's tuple/shuffle/IO rate is cut by ``SHIFT_FACTOR`` — and then
runs the production loop end to end:

1. score the stale model's windowed q-error on a held-out slice of the
   shifted workload (``q_before``);
2. feed the remaining executions through a
   :class:`~repro.serve.feedback.FeedbackController` whose drift monitor
   watches predicted-vs-observed; the shift trips ``DRIFTED`` and the
   controller retrains and installs a new model automatically;
3. score the installed model on the same held-out slice (``q_after``).

Records ``ml.drift_heal`` (q_before, q_after, heal_ratio, observations,
retrains) to the BENCH trajectory;
``scripts/check_bench_regression.py feedback`` fails CI when the latest
heal_ratio falls below 2.0.
"""

from __future__ import annotations

import numpy as np

from repro.api import OptimizationResult, RunStats
from repro.bench.trajectory import record as record_trajectory
from repro.ml.drift import DriftMonitor, DriftStatus
from repro.ml.feedback import FeedbackLoop
from repro.rheem.execution_plan import single_platform_plan
from repro.serve.feedback import FeedbackController
from repro.simulator.executor import SimulatedExecutor
from repro.tdgen.jobgen import JobGenerator

#: The injected shift: every platform rate divided by this factor (a
#: cluster that got 10x slower — contended, downscaled, or re-racked).
SHIFT_FACTOR = 10.0

#: The ISSUE 10 acceptance bar: retraining must cut the held-out
#: windowed q-error at least this much.
MIN_HEAL_RATIO = 2.0


def _shifted_executor(registry) -> SimulatedExecutor:
    """Every platform slowed uniformly: rates cut, fixed costs grown."""
    base = SimulatedExecutor.default(registry)
    profiles = {
        name: profile.with_overrides(
            tuple_rate=profile.tuple_rate / SHIFT_FACTOR,
            shuffle_rate=profile.shuffle_rate / SHIFT_FACTOR,
            io_rate=profile.io_rate / SHIFT_FACTOR,
            startup_s=profile.startup_s * SHIFT_FACTOR,
            per_op_overhead_s=profile.per_op_overhead_s * SHIFT_FACTOR,
            loop_overhead_s=profile.loop_overhead_s * SHIFT_FACTOR,
        )
        for name, profile in base.profiles.items()
    }
    return SimulatedExecutor(profiles)


def _fleet(registry, executor):
    """(execution plan, shifted runtime) pairs that execute cleanly."""
    templates = JobGenerator(registry, seed=5).templates_for_shapes(
        ("pipeline", "juncture", "replicate"), max_operators=9, count=18
    )
    fleet = []
    for index, template in enumerate(templates):
        plan = template(10.0 ** (3 + index % 4))
        for name in registry.names:
            xplan = single_platform_plan(plan, name, registry)
            outcome = executor.execute(xplan)
            if outcome.ok:
                fleet.append((xplan, outcome.runtime_s))
    return fleet


def test_drift_heal(ctx3, report):
    registry, schema, stale = ctx3.registry, ctx3.schema, ctx3.model
    shifted = _shifted_executor(registry)
    fleet = _fleet(registry, shifted)
    assert len(fleet) >= 24, "drill needs a workload to observe"
    held_out = fleet[::4]
    feed = [pair for index, pair in enumerate(fleet) if index % 4]

    def median_q(model):
        qs = []
        for xplan, truth in held_out:
            pred = max(model.predict_one(schema.encode_execution_plan(xplan)), 1e-9)
            qs.append(max(pred / truth, truth / pred))
        return float(np.median(qs))

    q_before = median_q(stale)

    installed = []
    controller = FeedbackController(
        FeedbackLoop(schema, seed=7, n_estimators=32, max_depth=14),
        shifted,
        drift=DriftMonitor(
            window=24, min_samples=8, warn_threshold=1.5, drift_threshold=2.0
        ),
        retrain_after=0,  # drift-only: the drill is about detection
        min_observations=12,
        install=installed.append,
    )
    # The production loop: predict with whatever model is currently
    # installed, execute, observe; each drift trip retrains on everything
    # seen so far and the next generation is judged by the same monitor —
    # the loop keeps healing until predictions and reality agree.
    current = stale
    drift_seen = False
    for xplan, _ in feed:
        predicted = current.predict_one(schema.encode_execution_plan(xplan))
        controller.observe(
            OptimizationResult(
                execution_plan=xplan,
                predicted_runtime=predicted,
                stats=RunStats(),
            )
        )
        drift_seen = drift_seen or controller.drift.status() is DriftStatus.DRIFTED
        if controller.maybe_retrain():
            current = installed[-1]
    assert drift_seen, "the injected shift never tripped the drift monitor"
    assert installed, "the controller never installed a retrained model"

    observed_before_heal = controller.loop.n_observations
    q_after = median_q(installed[-1])
    heal_ratio = q_before / max(q_after, 1e-9)
    report(
        "Drift-heal drill (all platform rates / "
        f"{SHIFT_FACTOR:.0f}, {len(fleet)} shifted executions)",
        ["stage", "held-out median q-error"],
        [
            ["stale model (pre-shift training)", f"{q_before:.2f}"],
            [
                f"after automatic retrain ({observed_before_heal} observations)",
                f"{q_after:.2f}",
            ],
        ],
        note=(
            f"heal ratio {heal_ratio:.2f}x (bound >= {MIN_HEAL_RATIO:.1f}x); "
            f"model generation {controller.model_generation}, "
            f"{controller.loop.n_retrains} retrain(s)"
        ),
    )
    metrics = {
        "q_before": q_before,
        "q_after": q_after,
        "heal_ratio": heal_ratio,
        "observations": observed_before_heal,
        "retrains": controller.loop.n_retrains,
        "held_out": len(held_out),
    }
    # A stable series name for scripts/check_bench_regression.py.
    record_trajectory("ml.drift_heal", metrics, meta={"shift_factor": SHIFT_FACTOR})
    assert heal_ratio >= MIN_HEAL_RATIO
