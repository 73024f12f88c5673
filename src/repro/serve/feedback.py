"""The serving-side feedback controller: execute, observe, retrain, swap.

This is the glue between three pieces that already exist in isolation:
:class:`repro.ml.feedback.FeedbackLoop` (accumulate labelled
observations, refit), :class:`repro.ml.drift.DriftMonitor` (windowed
q-error over predicted-vs-observed), and the serving stack's model swap
hooks (:meth:`repro.serve.batch.BatchOptimizationService.install_model`).
:class:`FeedbackController` closes the loop the paper gestures at in
§VII-A ("observing patterns in the execution logs"):

1. every optimized plan the service publishes is executed on the
   (simulated) cluster and the measured runtime is fed to both the
   feedback log and the drift monitor — degraded plans and failed
   executions are rejected, they are not labels;
2. when either ``retrain_after`` fresh observations accumulate or the
   drift monitor reports ``DRIFTED``, a refit runs *off the critical
   path* (optionally on a background thread) on the base dataset plus
   everything observed;
3. the refitted model is handed to ``install``; on the serving side
   the install waits for the running batch to finish, so no batch is
   priced by two models. Then the drift window resets and
   ``model_generation`` — the one install counter — increments, so
   stats frames and bench records can tell model eras apart.

The controller never raises into the serving hot path: execution
failures, refit errors and install errors are counted
(``serve.feedback.*``) and recorded in :attr:`last_error`.
"""

from __future__ import annotations

import contextvars
import threading
from typing import Callable, Dict, Optional

import numpy as np

from repro.api import OptimizationResult
from repro.exceptions import ReproError
from repro.ml.drift import DriftMonitor, DriftStatus
from repro.ml.feedback import FeedbackLoop
from repro.obs import current_tracer

__all__ = ["FeedbackController"]


class FeedbackController:
    """Executes optimized plans and retrains the model when they disagree.

    Parameters
    ----------
    loop:
        The :class:`FeedbackLoop` holding the observation log and the
        retraining recipe (algorithm, weighting, base dataset).
    executor:
        Anything with ``execute(xplan) -> report`` carrying ``ok`` and
        ``runtime_s`` (a :class:`repro.simulator.executor.SimulatedExecutor`
        here; a real cluster driver in a deployment).
    drift:
        The :class:`DriftMonitor`; a default one is built when omitted.
    retrain_after:
        Observation-count trigger: a refit is due after this many
        accepted observations even if drift never fires. ``0`` disables
        the count trigger (drift-only retraining).
    min_observations:
        Refits are deferred until the loop holds at least this many
        observations — retraining a forest on three points swaps real
        coverage for noise.
    install:
        Called with each freshly trained model; the callee installs it
        (``BatchOptimizationService.install_model`` waits for the
        running batch, then swaps).
    background:
        When true, refits run on a daemon thread so the serving path
        never blocks on a fit; tests leave this off for determinism.
    timeout_s:
        Execution timeout passed to the executor.
    """

    def __init__(
        self,
        loop: FeedbackLoop,
        executor,
        drift: Optional[DriftMonitor] = None,
        retrain_after: int = 50,
        min_observations: int = 8,
        install: Optional[Callable] = None,
        background: bool = False,
        timeout_s: float = 3600.0,
    ):
        if retrain_after < 0:
            raise ReproError(
                f"retrain_after must be >= 0, got {retrain_after}"
            )
        if min_observations < 1:
            raise ReproError(
                f"min_observations must be >= 1, got {min_observations}"
            )
        self.loop = loop
        self.executor = executor
        self.drift = drift if drift is not None else DriftMonitor()
        self.retrain_after = int(retrain_after)
        self.min_observations = int(min_observations)
        self.install = install
        self.background = bool(background)
        self.timeout_s = float(timeout_s)
        self.model_generation = 0
        self.executions = 0
        self.execution_failures = 0
        self.last_error: Optional[str] = None
        self._lock = threading.Lock()
        self._retraining = False
        self._threads = []

    # ------------------------------------------------------------------
    def observe(self, result: OptimizationResult) -> bool:
        """Execute one optimized plan and learn from the outcome.

        Returns ``True`` when the observation entered the feedback log.
        Failed executions (OOM/timeout) and degraded plans are rejected;
        the drift monitor only sees accepted pairs, so a burst of
        fallback-served plans cannot masquerade as model drift.
        """
        tracer = current_tracer()
        try:
            report = self.executor.execute(
                result.execution_plan, timeout_s=self.timeout_s
            )
        except Exception as exc:
            self.execution_failures += 1
            self.last_error = f"{type(exc).__name__}: {exc}"
            tracer.count("serve.feedback.execution_failed")
            return False
        self.executions += 1
        if not report.ok:
            self.execution_failures += 1
            self.last_error = f"execution {report.status}: {report.detail}"
            tracer.count("serve.feedback.execution_failed")
            return False
        with self._lock:
            accepted = self.loop.observe(
                result.execution_plan, report.runtime_s, stats=result.stats
            )
        if not accepted:
            return False
        predicted = float(result.predicted_runtime)
        if np.isfinite(predicted):
            self.drift.observe(predicted, float(report.runtime_s))
        tracer.count("serve.feedback.observed")
        return True

    # ------------------------------------------------------------------
    def retrain_due(self) -> bool:
        """Is a refit warranted right now?"""
        if self._retraining:
            return False
        if self.loop.n_observations < self.min_observations:
            return False
        if (
            self.retrain_after
            and self.loop.observations_since_retrain >= self.retrain_after
        ):
            return True
        return self.drift.status() is DriftStatus.DRIFTED

    def maybe_retrain(self) -> bool:
        """Kick off a refit when one is due; returns whether one started.

        With ``background=True`` the fit runs on a daemon thread and
        this returns immediately; otherwise the fit completes inline
        (still off the per-job critical path — the batch service calls
        this once per published batch, not per plan).
        """
        with self._lock:
            # A daemon retrains for its whole life: keep only live threads.
            self._threads = [t for t in self._threads if t.is_alive()]
            if not self.retrain_due():
                return False
            self._retraining = True
        if self.background:
            # Run in a copy of the caller's context, as asyncio.to_thread
            # does, so the refit counts into the caller's ambient tracer
            # (a bare Thread starts from an empty context).
            thread = threading.Thread(
                target=contextvars.copy_context().run,
                args=(self._retrain,),
                name="repro-feedback-retrain",
                daemon=True,
            )
            self._threads.append(thread)
            thread.start()
        else:
            self._retrain()
        return True

    def _retrain(self) -> None:
        tracer = current_tracer()
        try:
            # Snapshot under the lock (observe appends rows/labels as a
            # non-atomic pair), fit outside it so serving never blocks.
            with self._lock:
                dataset = self.loop.training_dataset()
            model = self.loop.retrain(dataset)
        except Exception as exc:
            self.last_error = f"{type(exc).__name__}: {exc}"
            tracer.count("serve.feedback.retrain_failed")
            with self._lock:
                self._retraining = False
            return
        try:
            if self.install is not None:
                self.install(model)
        except Exception as exc:
            self.last_error = f"{type(exc).__name__}: {exc}"
            tracer.count("serve.feedback.install_failed")
            with self._lock:
                self._retraining = False
            return
        self.drift.reset()
        with self._lock:
            self.model_generation += 1
            self._retraining = False
        tracer.count("serve.feedback.retrains")

    def join(self, timeout_s: float = 30.0) -> None:
        """Wait for any in-flight background refit (tests, shutdown)."""
        for thread in self._threads:
            thread.join(timeout=timeout_s)
        self._threads = [t for t in self._threads if t.is_alive()]

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """Stats-frame payload: drift health plus retrain bookkeeping."""
        out = dict(self.drift.snapshot())
        q = out.get("q_error")
        if isinstance(q, float) and not np.isfinite(q):
            out["q_error"] = None  # JSON-safe
        out.update(
            {
                "observations_total": self.loop.n_observations,
                "observations_since_retrain": self.loop.observations_since_retrain,
                "rejected": self.loop.rejected,
                "executions": self.executions,
                "execution_failures": self.execution_failures,
                "retrains": self.loop.n_retrains,
                "model_generation": self.model_generation,
            }
        )
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FeedbackController(observations={self.loop.n_observations}, "
            f"retrains={self.loop.n_retrains}, "
            f"generation={self.model_generation}, "
            f"drift={self.drift.status().value})"
        )
