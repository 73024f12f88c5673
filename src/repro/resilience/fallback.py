"""The model fallback chain: ML model → cost model → cardinality heuristic.

The optimizer's cost oracle is an ML model — which in production can
fail to load, return NaN/inf, or be handed a feature matrix of the wrong
width (a schema/model mismatch after a registry change). None of those
should abort an enumeration: :class:`FallbackRuntimeModel` wraps the
primary model and, per ``predict`` call, degrades level by level until a
predictor produces a finite, correctly-shaped cost vector. The terminal
level is :class:`CardinalityHeuristicModel`, which cannot fail.

Repeated primary failures trip a :class:`CircuitBreaker`: after
``failure_threshold`` consecutive failures the primary is short-circuited
(no more exception overhead on the hot path) until ``cooldown_s`` has
passed, at which point one half-open probe is allowed through; a
successful probe closes the breaker again. Kepler and Reqo make the same
argument for serving learned optimizers: robustness machinery belongs
*around* the model, not inside it.

Failure is not only exceptions: a bagged model that still *answers* but
whose trees wildly disagree is guessing, and a guess priced as a cost is
worse than the calibrated cost model one level down. :class:`VarianceGuard`
watches the primary's relative prediction spread (``predict_dist``, when
the model offers it) over a sliding window of calls; sustained high
variance counts as a soft failure — the call degrades to the fallback
chain and the breaker sees a failure, so a model that keeps guessing
eventually short-circuits like one that keeps crashing.

Counters (ambient tracer): ``resilience.model_failure``,
``resilience.fallback``, ``resilience.breaker_open``,
``resilience.breaker_short_circuit``, ``resilience.breaker_close``,
``resilience.high_variance``.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ModelError, ReproError
from repro.obs import current_tracer

__all__ = [
    "CircuitBreaker",
    "FallbackRuntimeModel",
    "CardinalityHeuristicModel",
    "VarianceGuard",
]

#: Breaker states.
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


class CircuitBreaker:
    """A consecutive-failure circuit breaker with half-open probes.

    State machine: ``closed`` (calls allowed; ``failure_threshold``
    consecutive failures open it) → ``open`` (calls short-circuited for
    ``cooldown_s``) → ``half_open`` (one probe allowed; success closes,
    failure re-opens). The clock is injectable so tests can drive the
    cooldown deterministically.
    """

    def __init__(
        self,
        failure_threshold: int = 3,
        cooldown_s: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        if failure_threshold < 1:
            raise ReproError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if cooldown_s < 0:
            raise ReproError(f"cooldown_s must be >= 0, got {cooldown_s}")
        self.failure_threshold = failure_threshold
        self.cooldown_s = cooldown_s
        self._clock = clock
        self._state = CLOSED
        self._failures = 0
        self._opened_at: Optional[float] = None

    @property
    def state(self) -> str:
        """Current state, promoting ``open`` → ``half_open`` on cooldown."""
        if self._state == OPEN and (
            self._clock() - self._opened_at >= self.cooldown_s
        ):
            self._state = HALF_OPEN
        return self._state

    @property
    def failures(self) -> int:
        """Consecutive failures since the last success."""
        return self._failures

    def allow(self) -> bool:
        """May the guarded call proceed right now?"""
        return self.state != OPEN

    def record_success(self) -> None:
        if self._state != CLOSED:
            tracer = current_tracer()
            if tracer.enabled:
                tracer.count("resilience.breaker_close")
        self._state = CLOSED
        self._failures = 0
        self._opened_at = None

    def record_failure(self) -> None:
        self._failures += 1
        state = self.state
        if state == HALF_OPEN or (
            state == CLOSED and self._failures >= self.failure_threshold
        ):
            self._state = OPEN
            self._opened_at = self._clock()
            tracer = current_tracer()
            if tracer.enabled:
                tracer.count("resilience.breaker_open")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CircuitBreaker(state={self.state!r}, failures={self._failures}/"
            f"{self.failure_threshold}, cooldown_s={self.cooldown_s})"
        )


class _HighVariance(ModelError):
    """Internal soft-failure signal: the primary answered, but guessing."""


class VarianceGuard:
    """Sliding-window monitor of a model's relative prediction spread.

    Each guarded ``predict`` contributes one flag: whether the batch's
    mean relative std (``std / max(|mean|, floor_s)``) exceeded
    ``threshold``. With the log-space delta transform in
    :meth:`repro.ml.model.RuntimeModel.predict_dist`, relative std is ≈
    the ensemble's log-space disagreement, so the threshold is
    scale-free — 0.8 means the trees disagree by roughly a factor of
    ``e^0.8 ≈ 2.2`` on a typical plan. The guard *trips* once
    ``trip_count`` of the last ``window`` calls are flagged (default:
    all of them — variance must be *sustained*, a single odd batch is
    what ensembles are for).

    ``floor_s`` keeps near-zero predicted runtimes from inflating the
    ratio: sub-millisecond plans are all equally cheap, their spread is
    not a model-health signal.
    """

    def __init__(
        self,
        threshold: float = 0.8,
        window: int = 8,
        trip_count: Optional[int] = None,
        floor_s: float = 1e-3,
    ):
        if not threshold > 0.0:
            raise ReproError(f"threshold must be > 0, got {threshold}")
        if window < 1:
            raise ReproError(f"window must be >= 1, got {window}")
        if trip_count is None:
            trip_count = window
        if not 1 <= trip_count <= window:
            raise ReproError(
                f"trip_count must be in [1, {window}], got {trip_count}"
            )
        self.threshold = float(threshold)
        self.window = int(window)
        self.trip_count = int(trip_count)
        self.floor_s = float(floor_s)
        self._flags: deque = deque(maxlen=self.window)
        self.high_calls = 0

    def observe(self, mean: np.ndarray, std: np.ndarray) -> bool:
        """Record one batch; returns whether it was flagged high-variance."""
        mean = np.asarray(mean, dtype=np.float64).reshape(-1)
        std = np.asarray(std, dtype=np.float64).reshape(-1)
        if mean.size == 0:
            return False
        rel = float(np.mean(std / np.maximum(np.abs(mean), self.floor_s)))
        flagged = bool(np.isfinite(rel) and rel > self.threshold)
        self._flags.append(flagged)
        if flagged:
            self.high_calls += 1
        return flagged

    @property
    def tripped(self) -> bool:
        """True when the window is full and flagged calls reach trip_count."""
        return (
            len(self._flags) == self.window
            and sum(self._flags) >= self.trip_count
        )

    def reset(self) -> None:
        """Forget the window — a fresh (retrained/swapped) model starts clean."""
        self._flags.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"VarianceGuard(threshold={self.threshold}, "
            f"flags={sum(self._flags)}/{len(self._flags)} of {self.window})"
        )


class CardinalityHeuristicModel:
    """The terminal fallback: cost ≈ data volume pushed through the plan.

    Ranks plan vectors by the cardinalities each platform processes plus
    the data moved by conversions — the crudest useful cost signal, and
    one that cannot fail: the input is sanitized (``nan_to_num``) and the
    output is a finite non-negative array by construction. With every
    dynamic-column term positive it still prefers fewer conversions and
    lighter platform loads, so degraded decisions stay sane.
    """

    #: Seconds per processed tuple / per moved tuple — only the *ratio*
    #: matters for ranking; the scale keeps outputs in a plausible range.
    TUPLE_COST = 1e-8
    CONVERSION_COST = 5e-8

    def __init__(self, schema):
        self.schema = schema
        self.n_features = schema.n_features
        weights = np.zeros(schema.n_features, dtype=np.float64)
        for pi in range(schema.k):
            weights[schema.platform_in_card_cell(pi)] = self.TUPLE_COST
            weights[schema.platform_out_card_cell(pi)] = self.TUPLE_COST
            weights[schema.platform_loop_work_cell(pi)] = self.TUPLE_COST
        for kind in schema.conversion_kinds:
            weights[schema.conv_input_card_cell(kind)] = self.CONVERSION_COST
        self._weights = weights

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X[None, :]
        width = min(X.shape[1], self._weights.shape[0])
        # Tolerate a width mismatch: this is the level that must not fail.
        costs = np.nan_to_num(X[:, :width], posinf=0.0, neginf=0.0) @ self._weights[:width]
        return np.maximum(np.nan_to_num(costs), 0.0)


class FallbackRuntimeModel:
    """``predict`` with graceful degradation across a chain of predictors.

    Parameters
    ----------
    primary:
        The ML model (anything with ``predict(matrix) -> array``) — or a
        zero-argument *loader* returning one, resolved lazily on first
        use so that a missing/corrupt model file degrades instead of
        failing construction.
    fallbacks:
        Ordered lower-fidelity predictors tried after the primary; the
        last should be infallible (:class:`CardinalityHeuristicModel`).
    breaker:
        The breaker guarding the primary (a fresh default one otherwise).
    expected_features:
        When given, primary outputs are additionally validated against
        inputs of this width (shape mismatches count as failures).
    variance_guard:
        Optional :class:`VarianceGuard`. When set and the primary offers
        ``predict_dist``, every primary call is variance-checked; a
        tripped guard is a soft failure — the call is served from the
        fallback chain and the breaker records a failure
        (``resilience.high_variance``).
    """

    def __init__(
        self,
        primary,
        fallbacks: Sequence = (),
        breaker: Optional[CircuitBreaker] = None,
        expected_features: Optional[int] = None,
        variance_guard: Optional[VarianceGuard] = None,
    ):
        if hasattr(primary, "predict"):
            self._loader = None
            self._primary = primary
        elif callable(primary):
            self._loader = primary
            self._primary = None
        else:
            raise ModelError(
                "primary must have .predict or be a zero-arg loader"
            )
        self.fallbacks = list(fallbacks)
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self.expected_features = expected_features
        self.variance_guard = variance_guard
        self.last_level: Optional[str] = None
        self.last_error: Optional[str] = None
        self.level_counts = {}

    # ------------------------------------------------------------------
    @classmethod
    def for_schema(
        cls,
        primary,
        schema,
        cost_model=None,
        breaker: Optional[CircuitBreaker] = None,
        variance_guard: Optional[VarianceGuard] = None,
    ) -> "FallbackRuntimeModel":
        """The standard chain: primary → calibrated cost → cardinality sum.

        ``cost_model`` is a :class:`repro.cost.cost_model.FeatureCostModel`
        (or anything vectorized over plan-vector matrices); when omitted a
        default-calibrated one is built for the schema.
        """
        from repro.cost.cost_model import FeatureCostModel

        if cost_model is None:
            cost_model = FeatureCostModel(schema)
        return cls(
            primary,
            fallbacks=[cost_model, CardinalityHeuristicModel(schema)],
            breaker=breaker,
            expected_features=schema.n_features,
            variance_guard=variance_guard,
        )

    # ------------------------------------------------------------------
    @property
    def levels(self) -> List[str]:
        """Level names, primary first."""
        return ["primary"] + [type(f).__name__ for f in self.fallbacks]

    @property
    def n_features(self) -> Optional[int]:
        if self.expected_features is not None:
            return self.expected_features
        return getattr(self._primary, "n_features", None)

    def _resolve_primary(self):
        if self._primary is None:
            model = self._loader()
            if not hasattr(model, "predict"):
                raise ModelError(
                    f"model loader returned {type(model).__name__} "
                    "without a predict method"
                )
            self._primary = model
        return self._primary

    def _validated(self, predicted, n_rows: int) -> np.ndarray:
        out = np.asarray(predicted, dtype=np.float64).reshape(-1)
        if out.shape != (n_rows,):
            raise ModelError(
                f"predictor returned shape {np.shape(predicted)} "
                f"for {n_rows} rows"
            )
        if not np.all(np.isfinite(out)):
            bad = int(np.count_nonzero(~np.isfinite(out)))
            raise ModelError(f"predictor returned {bad} non-finite values")
        return out

    def _note(self, level: str) -> None:
        self.last_level = level
        self.level_counts[level] = self.level_counts.get(level, 0) + 1

    # ------------------------------------------------------------------
    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predicted costs through the first level that answers sanely."""
        return self._answer(X, dist=False)[0]

    def predict_one(self, x: np.ndarray) -> float:
        return float(self.predict(np.asarray(x)[None, :])[0])

    def predict_dist(self, X: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Per-row ``(mean, std)`` with honest uncertainty at every level.

        The std encodes which level answered: the primary's real
        ensemble spread when it offers ``predict_dist``; exact zeros for
        a primary that only point-predicts (a deterministic predictor
        has no spread to report, and inventing one would poison
        risk-adjusted ranking); and ``+inf`` when the call was served
        from the fallback chain — a degraded cost is an unbounded-
        uncertainty estimate, and ``mean + k·inf`` correctly makes any
        risk-averse consumer refuse to prefer it over a primary-priced
        alternative.
        """
        return self._answer(X, dist=True)

    # ------------------------------------------------------------------
    def _answer(
        self, X: np.ndarray, dist: bool
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """``(mean, std)`` from the primary, else from the first fallback
        that answers sanely; ``std`` is ``None`` unless ``dist``."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X[None, :]
        n = X.shape[0]
        tracer = current_tracer()
        if self.breaker.allow():
            try:
                if (
                    self.expected_features is not None
                    and X.shape[1] != self.expected_features
                ):
                    raise ModelError(
                        f"expected {self.expected_features} features, "
                        f"got {X.shape[1]}"
                    )
                answer = self._primary_answer(X, n, dist)
                self.breaker.record_success()
                self._note("primary")
                return answer
            except Exception as exc:
                self.breaker.record_failure()
                self.last_error = f"{type(exc).__name__}: {exc}"
                if tracer.enabled:
                    tracer.count(
                        "resilience.high_variance"
                        if isinstance(exc, _HighVariance)
                        else "resilience.model_failure"
                    )
        elif tracer.enabled:
            tracer.count("resilience.breaker_short_circuit")
        for fallback in self.fallbacks:
            try:
                out = self._validated(fallback.predict(X), n)
            except Exception as exc:
                self.last_error = f"{type(exc).__name__}: {exc}"
                continue
            self._note(type(fallback).__name__)
            if tracer.enabled:
                tracer.count("resilience.fallback")
            return out, (np.full(n, np.inf) if dist else None)
        raise ModelError(
            f"every level of the fallback chain failed "
            f"(last error: {self.last_error})"
        )

    def _primary_answer(
        self, X: np.ndarray, n: int, dist: bool
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """The primary's ``(mean, std)``; raises on any failure.

        Point predictions (``dist=False``) run the variance guard, when
        one is set and the primary offers ``predict_dist``: one traversal
        then serves both the costs and the health check, since the dist
        mean is bit-identical to ``predict``.
        """
        primary = self._resolve_primary()
        guard = None if dist else self.variance_guard
        if (dist or guard is not None) and hasattr(primary, "predict_dist"):
            mean, std = primary.predict_dist(X)
            mean = self._validated(mean, n)
            if guard is not None:
                guard.observe(mean, std)
                if guard.tripped:
                    raise _HighVariance(
                        "sustained high prediction variance "
                        f"({sum(guard._flags)}/{guard.window} calls over "
                        f"threshold {guard.threshold})"
                    )
                return mean, None
            std = np.asarray(std, dtype=np.float64).reshape(-1)
            if std.shape != (n,):
                raise ModelError(
                    f"predict_dist returned std shape {std.shape} "
                    f"for {n} rows"
                )
            return mean, std
        mean = self._validated(primary.predict(X), n)
        return mean, (np.zeros(n) if dist else None)

    def swap_primary(self, model) -> None:
        """Atomically replace the primary model (a feedback-loop retrain).

        A single attribute assignment — concurrent ``predict`` calls see
        either the old model or the new one, never a half-swapped state
        (the enumerator's cost closure holds *this* wrapper, not the
        model it wraps). The breaker and variance guard are reset: the
        fresh model has not earned the old one's failure record.
        """
        if not hasattr(model, "predict"):
            raise ModelError("swap_primary needs a model with .predict")
        self._primary = model
        self._loader = None
        self.breaker.record_success()
        if self.variance_guard is not None:
            self.variance_guard.reset()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FallbackRuntimeModel(levels={self.levels}, "
            f"breaker={self.breaker.state!r})"
        )
