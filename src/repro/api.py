"""The unified optimizer API: one protocol, one result, one stats type.

Every optimizer in this repository — :class:`repro.core.optimizer.Robopt`,
the cost-based :class:`repro.cost.optimizer.RheemixOptimizer`, the
Rheem-ML strawman and the exhaustive vectorized baseline — satisfies the
same contract, so experiments can swap systems without touching the
measurement code (the fair-comparison requirement of §VII):

* :class:`Optimizer` — the protocol: ``optimize(logical_plan) ->
  OptimizationResult``;
* :class:`OptimizationResult` — the chosen execution plan, its predicted
  runtime/cost, and the run's :class:`RunStats`;
* :class:`RunStats` — instrumentation shared by the vectorized and the
  object-based enumerators (subplan counts, pruning effect, phase
  timings).

The vectorized vocabulary is the only one: the pre-unification names
(``OptimizationResult.cost``, ``RunStats.subplans_created``,
``subplans_pruned``, ``singleton_subplans``, ``cost_evaluations``)
shipped as deprecated aliases for one release and have been removed —
use ``predicted_runtime``, ``vectors_created``, ``vectors_pruned``,
``singleton_vectors`` and ``rows_predicted``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Any, Dict, Optional, Protocol, runtime_checkable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.rheem.execution_plan import ExecutionPlan
    from repro.rheem.logical_plan import LogicalPlan

__all__ = ["Optimizer", "OptimizationResult", "RunStats"]


@dataclass
class RunStats:
    """Instrumentation of one optimization run, shared by all optimizers.

    The vectorized enumerator's vocabulary is canonical: a "vector" is
    one enumerated subplan (the paper's Table I quantity), whether it is
    stored as a matrix row (Robopt, exhaustive) or a Python object
    (RHEEMix, Rheem-ML). ``rows_predicted`` counts cost-oracle rows —
    ML-model rows for the learned optimizers, cost-formula evaluations
    for RHEEMix. The ``time_*`` fields break the latency into phases;
    object-based runs additionally split cost evaluation into
    vectorization vs. model invocation (the §VII-B measurement).
    """

    singleton_vectors: int = 0
    vectors_created: int = 0
    vectors_pruned: int = 0
    merges: int = 0
    prune_calls: int = 0
    rows_predicted: int = 0
    peak_enumeration: int = 0
    final_vectors: int = 0
    time_merge_s: float = 0.0
    time_prune_s: float = 0.0
    latency_s: float = 0.0
    # Object-enumeration extras (§VII-B time breakdown).
    time_cost_s: float = 0.0
    time_vectorize_s: float = 0.0
    time_predict_s: float = 0.0
    # Resilience: set when the run was cut short (deadline/vector budget)
    # and returned an anytime answer instead of the model-optimal plan.
    # ``degradation`` names the cause ("deadline", "max_vectors",
    # "greedy_fallback"); empty when the search ran to completion.
    degraded: bool = False
    degradation: str = ""
    # Uncertainty: the model's prediction spread (seconds) for the chosen
    # plan, populated only when risk-adjusted ranking ran (see
    # ``Robopt(risk_aversion=...)``); 0.0 otherwise.
    predicted_std: float = 0.0

    @property
    def total_vectors(self) -> int:
        """All enumerated subplans: singletons plus concatenation output."""
        return self.singleton_vectors + self.vectors_created

    def as_dict(self) -> Dict[str, float]:
        """Field name → value (for traces and bench records)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def copy(self) -> "RunStats":
        """An independent field-by-field copy."""
        return RunStats(**self.as_dict())


@dataclass
class OptimizationResult:
    """The optimizer's answer for one logical plan.

    ``predicted_runtime`` is the cost oracle's estimate for the chosen
    plan — seconds for the ML optimizers, calibrated cost units for
    RHEEMix (``predicted_cost`` is the same number under the cost-based
    vocabulary). ``optimizer`` names the producing system so traces and
    bench records are self-describing. ``final_enumeration`` carries the
    surviving complete enumeration when the producing enumerator is
    vectorized (``None`` for object-based runs).
    """

    execution_plan: "ExecutionPlan"
    predicted_runtime: float
    stats: RunStats = field(default_factory=RunStats)
    optimizer: str = ""
    final_enumeration: Any = None

    @property
    def predicted_cost(self) -> float:
        """The predicted runtime under the cost-based vocabulary."""
        return self.predicted_runtime

    @property
    def latency_s(self) -> float:
        """End-to-end optimization latency (logical plan → execution plan)."""
        return self.stats.latency_s

    def copy(self) -> "OptimizationResult":
        """An independent copy safe to hand to a second consumer.

        The logical plan is cloned (:meth:`LogicalPlan.clone`: new
        operators and containers, frozen values shared) and the platform
        assignment rebuilt, so mutating the copy's plan or assignment
        cannot affect the original (the plan cache relies on this). The
        ``final_enumeration`` — which aliases enumeration matrices — is
        deliberately not carried over.
        """
        from repro.rheem.execution_plan import ExecutionPlan as _ExecutionPlan

        xplan = self.execution_plan
        return OptimizationResult(
            execution_plan=_ExecutionPlan(
                xplan.plan.clone(), dict(xplan.assignment), xplan.registry
            ),
            predicted_runtime=self.predicted_runtime,
            stats=self.stats.copy(),
            optimizer=self.optimizer,
            final_enumeration=None,
        )


@runtime_checkable
class Optimizer(Protocol):
    """What every cross-platform optimizer in this repository looks like."""

    def optimize(self, plan: "LogicalPlan") -> OptimizationResult:
        """Choose an execution plan for a validated logical plan."""
        ...
