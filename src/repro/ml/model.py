"""The runtime model: what the optimizer actually calls.

:class:`RuntimeModel` wraps one of the regressors behind a uniform
interface: ``predict(feature_matrix) -> runtimes_in_seconds``. It fits in
log space (runtimes span milliseconds to hours), guarantees non-negative
predictions, records holdout metrics at training time, and pickles to disk
so benches can reuse one trained model.

:class:`TrainingDataset` is the (X, y) container produced by TDGEN.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.exceptions import ModelError, NotFittedError
from repro.obs import current_tracer
from repro.ml.boosting import GradientBoostingRegressor
from repro.ml.forest import RandomForestRegressor
from repro.ml.linear import RidgeRegression
from repro.ml.metrics import q_error, rmse, spearman
from repro.ml.mlp import MLPRegressor

#: Model families: the three the paper evaluated (§VII-A) plus gradient
#: boosting ("one can plug any regression algorithm").
ALGORITHMS = ("random_forest", "linear", "mlp", "boosting")


@dataclass
class TrainingDataset:
    """Plan vectors with runtime labels, as produced by TDGEN (§VI).

    ``meta`` carries one dict per row (e.g. whether the label was executed
    or interpolated, the plan shape, the platforms used).
    """

    X: np.ndarray
    y: np.ndarray
    meta: List[Dict] = field(default_factory=list)

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.float64)
        if self.X.ndim != 2 or self.y.shape != (self.X.shape[0],):
            raise ModelError(
                f"incompatible dataset shapes X={self.X.shape}, y={self.y.shape}"
            )
        if self.meta and len(self.meta) != len(self.y):
            raise ModelError(
                f"metadata length {len(self.meta)} does not match {len(self.y)} rows"
            )

    def __len__(self) -> int:
        return int(self.y.size)

    @property
    def n_features(self) -> int:
        return int(self.X.shape[1])

    def split(
        self, test_fraction: float = 0.2, seed: int = 0
    ) -> Tuple["TrainingDataset", "TrainingDataset"]:
        """Shuffled train/test split."""
        if not 0.0 < test_fraction < 1.0:
            raise ModelError(f"test_fraction must be in (0, 1), got {test_fraction}")
        n = len(self)
        rng = np.random.default_rng(seed)
        order = rng.permutation(n)
        n_test = max(1, int(round(n * test_fraction)))
        test_rows = order[:n_test]
        train_rows = order[n_test:]
        if train_rows.size == 0:
            raise ModelError("split left no training rows")
        return self.take(train_rows), self.take(test_rows)

    def take(self, rows: np.ndarray) -> "TrainingDataset":
        meta = [self.meta[int(i)] for i in rows] if self.meta else []
        return TrainingDataset(self.X[rows], self.y[rows], meta)

    def extend(self, other: "TrainingDataset") -> "TrainingDataset":
        """A new dataset with the rows of both."""
        if other.n_features != self.n_features:
            raise ModelError(
                f"feature mismatch: {self.n_features} vs {other.n_features}"
            )
        meta = (self.meta or [{} for _ in range(len(self))]) + (
            other.meta or [{} for _ in range(len(other))]
        )
        return TrainingDataset(
            np.vstack([self.X, other.X]), np.concatenate([self.y, other.y]), meta
        )

    def save(self, path) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("wb") as f:
            pickle.dump({"X": self.X, "y": self.y, "meta": self.meta}, f)

    @classmethod
    def load(cls, path) -> "TrainingDataset":
        with Path(path).open("rb") as f:
            blob = pickle.load(f)
        return cls(blob["X"], blob["y"], blob.get("meta", []))


def _make_regressor(algorithm: str, seed: Optional[int], params: Dict):
    if algorithm == "random_forest":
        defaults = dict(n_estimators=40, max_depth=16, seed=seed)
        defaults.update(params)
        return RandomForestRegressor(**defaults)
    if algorithm == "linear":
        defaults = dict(alpha=1.0)
        defaults.update(params)
        return RidgeRegression(**defaults)
    if algorithm == "mlp":
        defaults = dict(hidden=(64, 32), epochs=150, seed=seed)
        defaults.update(params)
        return MLPRegressor(**defaults)
    if algorithm == "boosting":
        defaults = dict(n_estimators=150, max_depth=4, seed=seed)
        defaults.update(params)
        return GradientBoostingRegressor(**defaults)
    raise ModelError(f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}")


class RuntimeModel:
    """A trained runtime predictor over plan vectors.

    Use :meth:`train` to build one from a :class:`TrainingDataset`; the
    returned model exposes ``predict`` (seconds, non-negative, batched)
    and its holdout ``metrics``.
    """

    def __init__(self, regressor, algorithm: str, n_features: int):
        self._regressor = regressor
        self.algorithm = algorithm
        self.n_features = n_features
        self.metrics: Dict[str, float] = {}
        self._fitted = False

    # ------------------------------------------------------------------
    @classmethod
    def train(
        cls,
        dataset: TrainingDataset,
        algorithm: str = "random_forest",
        seed: int = 0,
        test_fraction: float = 0.15,
        **params,
    ) -> "RuntimeModel":
        """Fit a runtime model and record holdout metrics.

        Targets are transformed with ``log1p`` before fitting — runtimes
        span several orders of magnitude and squared error in log space
        matches the "order the plans correctly" objective far better.
        """
        if len(dataset) < 5:
            raise ModelError(
                f"need at least 5 training rows, got {len(dataset)}"
            )
        train, test = dataset.split(test_fraction=test_fraction, seed=seed)
        regressor = _make_regressor(algorithm, seed, params)
        regressor.fit(train.X, np.log1p(np.maximum(train.y, 0.0)))
        model = cls(regressor, algorithm, dataset.n_features)
        model._fitted = True
        pred = model.predict(test.X)
        model.metrics = {
            "rmse_log": rmse(np.log1p(test.y), np.log1p(pred)),
            "spearman": spearman(test.y, pred),
            "q50": q_error(test.y, pred, 0.5),
            "q95": q_error(test.y, pred, 0.95),
            "n_train": float(len(train)),
            "n_test": float(len(test)),
        }
        return model

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predicted runtimes in seconds for a matrix of plan vectors."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X[None, :]
        if X.shape[1] != self.n_features:
            raise ModelError(
                f"expected {self.n_features} features, got {X.shape[1]}"
            )
        return self.predict_matrix(X)

    def predict_matrix(self, X: np.ndarray) -> np.ndarray:
        """:meth:`predict` minus input coercion, for trusted callers.

        ``X`` must already be a 2-D float64 matrix with ``n_features``
        columns — exactly what the plan enumeration produces, which calls
        this once per prune. Output values and tracing semantics are
        identical to :meth:`predict`.
        """
        if not self._fitted:
            raise NotFittedError("RuntimeModel.predict before train/load")
        tracer = current_tracer()
        if tracer.enabled:
            with tracer.span(
                "model.predict", rows=X.shape[0], algorithm=self.algorithm
            ):
                log_pred = self._regressor.predict(X)
            tracer.count("model.rows_predicted", X.shape[0])
            tracer.count("model.calls")
        else:
            log_pred = self._regressor.predict(X)
        # The regressor output is a fresh array; undo the log1p target
        # transform in place instead of allocating two temporaries.
        out = np.asarray(log_pred, dtype=np.float64)
        np.expm1(out, out=out)
        np.maximum(out, 0.0, out=out)
        return out

    def predict_one(self, x: np.ndarray) -> float:
        """Predicted runtime for a single plan vector."""
        return float(self.predict(np.asarray(x)[None, :])[0])

    # ------------------------------------------------------------------
    @property
    def supports_dist(self) -> bool:
        """Whether the wrapped regressor offers per-ensemble uncertainty."""
        return hasattr(self._regressor, "predict_dist")

    def predict_dist(self, X: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Per-row ``(mean, std)`` of the predicted runtime, in seconds.

        The mean is **bit-identical** to :meth:`predict` on the same rows
        (same traversal, same ``expm1`` back-transform), so callers may
        use this as a drop-in replacement that additionally surfaces
        uncertainty. The regressor's ensemble spread lives in log space
        (targets are ``log1p``-transformed at fit time); it is mapped to
        seconds with the first-order delta method,
        ``std_seconds = exp(mean_log) * std_log`` — the local slope of
        the inverse transform. The relative spread ``std/mean`` is
        therefore ≈ the log-space std, which is the convention every
        uncertainty consumer (variance guard, risk ranking) shares.

        A regressor without ``predict_dist`` (linear, MLP, boosting —
        deterministic single predictors with no ensemble to disagree)
        honestly reports zero std rather than inventing a number.
        """
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X[None, :]
        if X.shape[1] != self.n_features:
            raise ModelError(
                f"expected {self.n_features} features, got {X.shape[1]}"
            )
        if not self._fitted:
            raise NotFittedError("RuntimeModel.predict_dist before train/load")
        if not self.supports_dist:
            out = self.predict_matrix(X)
            return out, np.zeros_like(out)
        log_mean, log_std = self._regressor.predict_dist(X)
        mean = np.asarray(log_mean, dtype=np.float64).copy()
        # d/dx expm1(x) = exp(x): scale the log-space spread by the local
        # slope of the back-transform, *before* mean is overwritten.
        std = np.exp(mean)
        std *= np.asarray(log_std, dtype=np.float64)
        np.expm1(mean, out=mean)
        np.maximum(mean, 0.0, out=mean)
        np.abs(std, out=std)
        return mean, std

    # ------------------------------------------------------------------
    def save(self, path) -> None:
        """Pickle the model (regressor, metadata, metrics) to disk."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("wb") as f:
            pickle.dump(
                {
                    "regressor": self._regressor,
                    "algorithm": self.algorithm,
                    "n_features": self.n_features,
                    "metrics": self.metrics,
                },
                f,
            )

    @classmethod
    def load(cls, path) -> "RuntimeModel":
        """Unpickle a saved model.

        Any load failure — missing file, truncated/corrupt pickle, a blob
        missing required keys — surfaces as :class:`ModelError`, the
        exception taxonomy the resilience layer treats as "primary model
        unavailable" (see
        :class:`repro.resilience.fallback.FallbackRuntimeModel`).
        """
        try:
            with Path(path).open("rb") as f:
                blob = pickle.load(f)
            model = cls(blob["regressor"], blob["algorithm"], blob["n_features"])
        except ModelError:
            raise
        except Exception as exc:
            raise ModelError(f"cannot load runtime model from {path}: {exc}") from exc
        model.metrics = blob.get("metrics", {})
        model._fitted = True
        return model

    @classmethod
    def loader(cls, path):
        """A zero-argument lazy loader for the model at ``path``.

        Hand this to :class:`repro.resilience.fallback.FallbackRuntimeModel`
        as the primary: the file is only opened on first ``predict``, and a
        missing/corrupt file degrades to the fallback chain instead of
        failing optimizer construction.
        """
        return lambda: cls.load(path)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        spear = self.metrics.get("spearman")
        extra = f", spearman={spear:.3f}" if spear is not None else ""
        return f"RuntimeModel({self.algorithm}, n_features={self.n_features}{extra})"
