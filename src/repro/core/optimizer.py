"""The Robopt facade: logical plan in, execution plan out (§III-B).

:class:`Robopt` wires together the feature schema, the ML runtime model
and the priority-based vectorized enumeration. It is the object a
downstream user instantiates::

    model = RuntimeModel.train(dataset)           # or load a saved one
    robopt = Robopt(registry, model)
    result = robopt.optimize(plan)
    print(result.execution_plan.describe())
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.api import OptimizationResult, RunStats
from repro.core.enumerator import (
    EnumerationResult,
    PriorityEnumerator,
)
from repro.core.features import FeatureSchema
from repro.core.operations import unvectorize
from repro.core.pruning import CostFn, ml_cost
from repro.exceptions import EnumerationError
from repro.resilience.budget import Budget
from repro.rheem.execution_plan import ExecutionPlan, single_platform_plan
from repro.rheem.logical_plan import LogicalPlan
from repro.rheem.platforms import PlatformRegistry

__all__ = ["Robopt", "OptimizationResult", "ExplainReport"]


@dataclass
class ExplainReport:
    """A human-oriented account of one optimization decision.

    Contains the chosen plan, the runner-up plans that survived pruning
    (distinct boundary footprints), and the model's prediction for every
    feasible single-platform execution — the "why not just one platform?"
    question an operator asks first.
    """

    chosen: ExecutionPlan
    predicted_runtime: float
    alternatives: List[Tuple[ExecutionPlan, float]]
    single_platform_predictions: Dict[str, float]
    stats: RunStats

    def render(self) -> str:
        lines = [
            f"Chosen plan ({'+'.join(self.chosen.platforms_used())}), "
            f"predicted {self.predicted_runtime:.2f}s:"
        ]
        for line in self.chosen.describe().splitlines()[1:]:
            lines.append(f"  {line}")
        if self.single_platform_predictions:
            lines.append("Single-platform predictions:")
            for name, value in self.single_platform_predictions.items():
                lines.append(f"  {name:>10}: {value:.2f}s")
        if self.alternatives:
            lines.append("Best surviving alternatives:")
            for xplan, predicted in self.alternatives:
                lines.append(
                    f"  {'+'.join(xplan.platforms_used()):<24} {predicted:.2f}s"
                )
        lines.append(
            f"Searched {self.stats.total_vectors} plan vectors in "
            f"{self.stats.latency_s * 1e3:.1f}ms "
            f"({self.stats.vectors_pruned} pruned)."
        )
        return "\n".join(lines)


class Robopt:
    """The ML-based, vector-enumerating cross-platform optimizer.

    Parameters
    ----------
    registry:
        Available platforms.
    model:
        A runtime model with ``predict(feature_matrix) -> runtimes``
        (typically :class:`repro.ml.model.RuntimeModel`).
    priority:
        Enumeration priority: ``"robopt"`` (default), ``"topdown"`` or
        ``"bottomup"`` (§V).
    pruning:
        Disable for the exhaustive vectorized enumeration baseline.
    schema:
        Optional pre-built feature schema; must match ``registry`` and the
        schema the model was trained with.
    budget:
        Optional :class:`repro.resilience.budget.Budget` (deadline and/or
        vector cap) applied to every run; on expiry ``optimize`` returns
        an anytime plan with ``RunStats.degraded`` set instead of running
        the search to completion. A per-call budget passed to
        :meth:`optimize` overrides it.
    risk_aversion:
        The ``k`` in the risk-adjusted plan score ``mean + k·std``
        (Reqo-style robust plan choice). With the default ``0.0`` the
        optimizer is bit-identical to the pure expected-runtime ranking
        and never even asks the model for a distribution. Positive
        values re-rank the *final* surviving candidates (pruning is
        unchanged — intermediate pruning by mean keeps the search
        identical and cheap) preferring plans the model is confident
        about; requires a model with ``predict_dist``.
    """

    def __init__(
        self,
        registry: PlatformRegistry,
        model,
        priority: str = "robopt",
        pruning: bool = True,
        schema: Optional[FeatureSchema] = None,
        max_vectors: int = 4_000_000,
        budget: Optional["Budget"] = None,
        risk_aversion: float = 0.0,
    ):
        if risk_aversion < 0.0:
            raise EnumerationError(
                f"risk_aversion must be >= 0, got {risk_aversion}"
            )
        self.registry = registry
        self.model = model
        self.risk_aversion = float(risk_aversion)
        self.schema = schema if schema is not None else FeatureSchema(registry)
        self._enumerator = PriorityEnumerator(
            registry,
            cost_fn=ml_cost(model),
            priority=priority,
            pruning=pruning,
            schema=self.schema,
            max_vectors=max_vectors,
            budget=budget,
        )

    @property
    def budget(self) -> Optional["Budget"]:
        """The standing optimization budget (``None`` = unbounded)."""
        return self._enumerator.budget

    @budget.setter
    def budget(self, budget: Optional["Budget"]) -> None:
        self._enumerator.budget = budget

    def optimize(
        self, plan: LogicalPlan, budget: Optional["Budget"] = None
    ) -> OptimizationResult:
        """Find the execution plan with the lowest predicted runtime.

        With ``risk_aversion > 0`` the final surviving candidates are
        re-ranked by ``mean + k·std`` (see :meth:`_risk_rerank`); the
        reported ``predicted_runtime`` stays the *expected* runtime of
        the chosen plan, not its risk score.
        """
        plan.validate()
        result: EnumerationResult = self._enumerator.enumerate_plan(plan, budget)
        out = OptimizationResult(
            execution_plan=result.execution_plan,
            predicted_runtime=result.predicted_cost,
            stats=result.stats,
            optimizer="robopt",
            final_enumeration=result.final_enumeration,
        )
        if self.risk_aversion > 0.0:
            out = self._risk_rerank(out)
        return out

    def _risk_rerank(self, out: OptimizationResult) -> OptimizationResult:
        """Re-choose among the final candidates by ``mean + k·std``.

        No-ops (keeping the mean-optimal plan) when the model offers no
        distribution, the enumeration carried no final matrix (budget-
        degraded anytime answers), or any candidate's std is non-finite
        — a fallback-served ``inf`` std would make *every* risk score
        infinite and the argmin meaningless, so the honest move is to
        fall back to the expected-runtime choice.
        """
        final = out.final_enumeration
        if final is None or not hasattr(self.model, "predict_dist"):
            return out
        mean, std = self.model.predict_dist(final.features)
        mean = np.asarray(mean, dtype=np.float64).reshape(-1)
        std = np.asarray(std, dtype=np.float64).reshape(-1)
        if mean.size == 0 or not np.all(np.isfinite(std)):
            return out
        score = mean + self.risk_aversion * std
        row = int(np.argmin(score))
        out.execution_plan = unvectorize(final, row)
        out.predicted_runtime = float(mean[row])
        out.stats.predicted_std = float(std[row])
        return out

    def set_model(self, model) -> None:
        """Swap in a new runtime model (a feedback-loop retrain).

        The enumerator's cost function closes over the model, so it is
        rebuilt; callers holding this ``Robopt`` see the new pricing on
        their next ``optimize`` call.
        """
        self.model = model
        self._enumerator.cost_fn = ml_cost(model)

    def _ranked(
        self, plan: LogicalPlan, k: int
    ) -> Tuple[List[Tuple[ExecutionPlan, float]], RunStats]:
        if k < 1:
            raise EnumerationError(f"k must be >= 1, got {k}")
        plan.validate()
        result = self._enumerator.enumerate_plan(plan)
        final = result.final_enumeration
        costs = np.asarray(self.model.predict(final.features), dtype=np.float64)
        order = np.argsort(costs, kind="stable")[:k]
        ranked = [(unvectorize(final, int(row)), float(costs[row])) for row in order]
        return ranked, result.stats

    def optimize_topk(
        self, plan: LogicalPlan, k: int = 3
    ) -> List[Tuple[ExecutionPlan, float]]:
        """The ``k`` cheapest complete plans that survived pruning.

        Boundary pruning keeps one plan per final footprint, so the
        survivors are structurally diverse alternatives; fewer than ``k``
        may exist for small plans.
        """
        ranked, _stats = self._ranked(plan, k)
        return ranked

    def explain(self, plan: LogicalPlan, k: int = 3) -> ExplainReport:
        """Optimize and report the decision (chosen plan, alternatives,
        single-platform predictions)."""
        ranked, stats = self._ranked(plan, max(k, 1))
        chosen, predicted = ranked[0]
        singles: Dict[str, float] = {}
        for platform in self.registry:
            try:
                xplan = single_platform_plan(plan, platform.name, self.registry)
            except Exception:
                continue  # platform cannot host the whole plan
            singles[platform.name] = float(
                self.model.predict(
                    self.schema.encode_execution_plan(xplan)[None, :]
                )[0]
            )
        return ExplainReport(
            chosen=chosen,
            predicted_runtime=predicted,
            alternatives=ranked[1:],
            single_platform_predictions=singles,
            stats=stats,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Robopt(platforms={self.registry.names}, "
            f"priority={self._enumerator.priority_name!r}, "
            f"pruning={self._enumerator.pruning})"
        )
