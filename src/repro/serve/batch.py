"""The batch optimization engine: many queries through one optimizer.

:class:`BatchOptimizationService` accepts a list of jobs (logical plans,
optionally with a per-job input-size override — the "stats" of a job)
and drives them through any :class:`repro.api.Optimizer`:

* **Warm-worker parallelism** — a long-lived process pool owned by the
  service. Each worker runs :func:`_worker_init` exactly once (optimizer
  factory, model load, platform registry) and then consumes jobs
  streamed over the executor's work queue; the pool survives across
  batches, so repeated ``optimize_batch`` calls pay worker warm-up once,
  not per batch. Jobs ship as the exact JSON plan documents of
  :mod:`repro.rheem.serialization` and results return the same way, so
  batch-mode answers are bit-identical to serial ones (the differential
  suite asserts this). Per-job timeouts produce a per-job error entry; a
  worker raising mid-job fails only its job; a worker *dying* breaks the
  pool — the unfinished jobs fail, the warm pool is discarded, and the
  next dispatch spawns a fresh one. A broken pool or an unpicklable
  optimizer factory degrades gracefully to serial execution.
* **Plan cache with batch-local dedupe** — an optional fingerprint-keyed
  :class:`~repro.serve.cache.PlanCache`, shared across every worker
  (lookups happen in the parent before dispatch; fresh results are
  published back after). Within a batch, jobs sharing a fingerprint are
  optimized once. The service is entered one batch at a time (the
  daemon's dispatcher and the CLI are single-threaded callers);
  coalescing *across* clients is the daemon's job.
* **Model installs between batches** — a retrained model is installed
  under the same lock a batch holds, so an install waits for the running
  batch: one model prices every enumeration of a batch, and the cache
  only ever holds prices from the model now serving.
* **Singleton memoization** — the serial path (and each pool worker)
  shares one singleton-enumeration memo, so identical subplans are
  vectorized once (see :func:`repro.core.operations.enumerate_singleton`);
  with warm workers the memo also persists across batches.
* **Tail-latency accounting** — every outcome carries its
  dispatch-to-completion latency, and :meth:`BatchReport.metrics`
  reports p50/p95/p99 percentiles alongside throughput, because a
  serving layer is judged on its tail, not its mean.

Worker sizing is CPU-affinity aware: ``workers=None`` (the default)
sizes the pool from :func:`available_cpus` — ``len(os.sched_getaffinity(0))``
on Linux, which respects cgroup/affinity limits — so a container pinned
to one core runs serially instead of oversubscribing. An explicit
integer overrides this.

Every stage emits tracer spans/counters (``serve.*``), and
:meth:`BatchReport.metrics` is shaped for
:func:`repro.bench.trajectory.record`.

The pool needs a *picklable factory* rather than an optimizer instance
(cost oracles close over models, and closures do not pickle):
:func:`robopt_factory` builds one for the standard Robopt stack.
"""

from __future__ import annotations

import functools
import inspect
import math
import os
import pickle
import threading
import time
from concurrent.futures import (
    Future,
    ProcessPoolExecutor,
    TimeoutError as FutureTimeout,
    as_completed,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.api import Optimizer, OptimizationResult, RunStats
from repro.exceptions import ModelError, ReproError
from repro.obs import current_tracer
from repro.resilience.retry import Quarantine, RetryPolicy
from repro.rheem.execution_plan import ExecutionPlan
from repro.rheem.logical_plan import LogicalPlan
from repro.rheem.platforms import PlatformRegistry
from repro.serve.cache import PlanCache, copy_result
from repro.serve.fingerprint import plan_fingerprint
from repro.serve.template import TemplateCache, template_fingerprint

__all__ = [
    "BatchJob",
    "JobOutcome",
    "BatchReport",
    "BatchOptimizationService",
    "available_cpus",
    "robopt_factory",
    "resilient_robopt_factory",
]

#: Wall-clock floor for rate computations. ``plans_per_sec`` divides by
#: Durations below this are untimed artifacts (e.g. follower outcomes
#: published with an exact-zero duration), not measurements; they are
#: excluded from the latency-percentile sample.
_LATENCY_FLOOR_S = 1e-6

#: ``max(wall_s, _WALL_FLOOR_S)`` — a 3.5 ms run of 2 jobs reports a
#: bounded lower-bound rate instead of an absurd extrapolation from a
#: sub-resolution sample.
_WALL_FLOOR_S = 0.01


def available_cpus() -> int:
    """CPUs actually available to this process (cgroup/affinity aware).

    ``os.sched_getaffinity`` sees CPU pinning and container cpusets;
    ``os.cpu_count`` (the non-Linux fallback) only sees the machine.
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile of ``values`` (0.0 when empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    pos = (len(ordered) - 1) * (q / 100.0)
    lo = int(math.floor(pos))
    hi = int(math.ceil(pos))
    if lo == hi:
        return ordered[lo]
    frac = pos - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


#: Per-optimizer-type verdict of the ``budget=`` capability probe below.
_BUDGET_CAPABLE: Dict[type, bool] = {}


def _accepts_budget(optimizer: Optimizer) -> bool:
    """Whether this optimizer's ``optimize`` takes a per-call ``budget``.

    Budgets are an optimization contract, not a universal one — test
    wrappers such as ``CountingOptimizer`` and third-party optimizers may
    not accept the keyword, and they must keep working (their jobs simply
    run unbudgeted). ``Robopt`` and ``ChaoticOptimizer`` accept it.
    """
    kind = type(optimizer)
    verdict = _BUDGET_CAPABLE.get(kind)
    if verdict is None:
        try:
            verdict = "budget" in inspect.signature(optimizer.optimize).parameters
        except (TypeError, ValueError):  # builtins/odd callables
            verdict = False
        _BUDGET_CAPABLE[kind] = verdict
    return verdict


def _optimize_with_deadline(
    optimizer: Optimizer, plan: LogicalPlan, deadline_ms: Optional[float]
) -> OptimizationResult:
    """One optimize call, under the job's deadline budget when it has one."""
    if deadline_ms is not None and _accepts_budget(optimizer):
        from repro.resilience.budget import Budget

        return optimizer.optimize(plan, budget=Budget(deadline_s=deadline_ms / 1000.0))
    return optimizer.optimize(plan)


def _dedupe_key(fingerprint: str, deadline_ms: Optional[float]) -> str:
    """The equivalence key for collapsing same-fingerprint jobs.

    A deadline is part of the answer's identity: a 10 ms budget may
    legitimately produce a degraded plan that a deadline-free sibling of
    the same fingerprint must never be handed.
    """
    if deadline_ms is None:
        return fingerprint
    return f"{fingerprint}|deadline_ms={deadline_ms:g}"


@dataclass
class BatchJob:
    """One optimization request: a plan plus per-job statistics.

    ``size_bytes`` rescales the plan's input datasets before optimizing
    (the parametric-query knob); ``tags`` travel untouched into the
    outcome for the caller's bookkeeping; ``deadline_ms`` is this job's
    anytime budget — passed as a per-call
    :class:`~repro.resilience.budget.Budget` to optimizers that accept
    one, so an expiring job answers degraded instead of late.
    """

    job_id: str
    plan: LogicalPlan
    size_bytes: Optional[float] = None
    tags: Dict[str, Any] = field(default_factory=dict)
    deadline_ms: Optional[float] = None

    def prepared_plan(self) -> LogicalPlan:
        """The plan to optimize (cloned + rescaled if sized)."""
        if self.size_bytes is None:
            return self.plan
        plan = self.plan.clone()
        plan.scale_datasets_to_bytes(self.size_bytes)
        return plan


@dataclass
class JobOutcome:
    """What happened to one job of a batch."""

    job_id: str
    ok: bool
    result: Optional[OptimizationResult] = None
    error: Optional[str] = None
    cached: bool = False
    #: Dispatch-to-completion latency as the caller experienced it
    #: (queueing + optimization for pool jobs, lookup time for hits).
    duration_s: float = 0.0
    tags: Dict[str, Any] = field(default_factory=dict)
    #: Dispatch attempts consumed (1 = no retry was needed).
    attempts: int = 1
    #: The job timed out; its budget is spent, so it is never retried.
    timed_out: bool = False
    #: The job was in flight when the process pool broke.
    worker_died: bool = False
    #: The job was refused dispatch (its fingerprint is quarantined).
    quarantined: bool = False
    #: The job was served by the template tier: the cheapest cached
    #: candidate re-costed at this job's cardinalities (``cached`` is
    #: also True for these).
    template_hit: bool = False


def _failed(
    job: BatchJob,
    error: Union[str, BaseException],
    tracer=None,
    counter: Optional[str] = None,
    duration_s: float = 0.0,
    **flags: bool,
) -> JobOutcome:
    """The failed outcome of ``job`` — the one place failures are built.

    An exception ``error`` is rendered as ``"Type: message"``; ``counter``
    names the tracer counter the failure increments, if any; ``flags``
    set the outcome's failure kind (``timed_out``, ``worker_died``,
    ``quarantined``).
    """
    if isinstance(error, BaseException):
        error = f"{type(error).__name__}: {error}"
    if counter is not None and tracer.enabled:
        tracer.count(counter)
    return JobOutcome(
        job.job_id,
        ok=False,
        error=error,
        duration_s=duration_s,
        tags=job.tags,
        **flags,
    )


@dataclass
class BatchReport:
    """The aggregate outcome of one batch run."""

    outcomes: List[JobOutcome]
    wall_s: float
    mode: str  # "serial" or "pool"
    #: Workers actually used for dispatch (0 when the batch ran serially).
    workers: int
    #: Workers the service was configured for (auto-sizing resolved).
    workers_requested: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    template_hits: int = 0
    template_misses: int = 0

    @property
    def n_jobs(self) -> int:
        return len(self.outcomes)

    @property
    def n_ok(self) -> int:
        return sum(1 for o in self.outcomes if o.ok)

    @property
    def n_failed(self) -> int:
        return self.n_jobs - self.n_ok

    @property
    def plans_per_sec(self) -> float:
        """Completed jobs per wall-clock second (a bounded lower bound).

        The wall clock is monotonic (``time.perf_counter``) and the
        denominator is floored at ``_WALL_FLOOR_S``: a batch that
        finishes below timer resolution reports a conservative rate
        instead of an absurd extrapolation (572 plans/s from a 3.5 ms
        run), and the result is always finite and NaN-free.
        """
        if self.n_ok == 0:
            return 0.0
        wall = self.wall_s if math.isfinite(self.wall_s) and self.wall_s > 0 else 0.0
        return self.n_ok / max(wall, _WALL_FLOOR_S)

    @property
    def cache_hit_rate(self) -> float:
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    @property
    def n_template_hits(self) -> int:
        return sum(1 for o in self.outcomes if o.template_hit)

    @property
    def template_hit_rate(self) -> float:
        """Template-tier hits over template-tier lookups (exact-cache
        misses that consulted the template cache); 0.0 when the tier
        never ran."""
        lookups = self.template_hits + self.template_misses
        return self.template_hits / lookups if lookups else 0.0

    @property
    def n_degraded(self) -> int:
        """Jobs answered with a budget-degraded (anytime) plan."""
        return sum(
            1
            for o in self.outcomes
            if o.result is not None and o.result.stats.degraded
        )

    @property
    def n_retried(self) -> int:
        """Jobs that needed more than one dispatch attempt."""
        return sum(1 for o in self.outcomes if o.attempts > 1)

    @property
    def n_quarantined(self) -> int:
        return sum(1 for o in self.outcomes if o.quarantined)

    def latency_percentiles(self) -> Dict[str, float]:
        """Per-job latency percentiles over the completed *measured* jobs.

        Latency is each outcome's ``duration_s`` — dispatch to
        completion, the figure a client of the service experiences (a
        timed cache hit counts at its near-zero lookup cost). The sample
        carries the same sub-resolution guard as :meth:`plans_per_sec`:
        durations below ``_LATENCY_FLOOR_S`` are untimed artifacts
        (batch-local follower hits are published with an exact-zero
        duration — they never went through a timed path), not
        measurements, and are excluded. When a batch completed jobs but
        none were measured the tails are NaN ("no sample"), which bench
        records store as null — previously this surfaced as a
        misleading exact ``latency_p50_s: 0.0``. An empty or fully
        failed batch still reports 0.0 everywhere.
        """
        measured = [
            o.duration_s
            for o in self.outcomes
            if o.ok and o.duration_s >= _LATENCY_FLOOR_S
        ]
        if measured:
            return {
                "p50": _percentile(measured, 50.0),
                "p95": _percentile(measured, 95.0),
                "p99": _percentile(measured, 99.0),
            }
        value = float("nan") if self.n_ok else 0.0
        return {"p50": value, "p95": value, "p99": value}

    def aggregate_stats(self) -> RunStats:
        """Summed RunStats over the successful, non-cached jobs.

        Numeric fields sum, booleans OR (``degraded`` means "any job
        degraded"), string diagnostics like ``degradation`` stay empty.
        """
        total = RunStats()
        for outcome in self.outcomes:
            if outcome.result is None or outcome.cached:
                continue
            for key, value in outcome.result.stats.as_dict().items():
                current = getattr(total, key)
                if isinstance(value, bool):
                    setattr(total, key, current or value)
                elif isinstance(value, (int, float)):
                    setattr(total, key, current + value)
        return total

    def metrics(self) -> Dict[str, float]:
        """Flat metric dict for :func:`repro.bench.trajectory.record`."""
        tails = self.latency_percentiles()
        return {
            "n_jobs": self.n_jobs,
            "n_ok": self.n_ok,
            "n_failed": self.n_failed,
            "wall_s": self.wall_s,
            "plans_per_sec": self.plans_per_sec,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_rate": self.cache_hit_rate,
            "template_hits": self.template_hits,
            "template_misses": self.template_misses,
            "template_hit_rate": self.template_hit_rate,
            "workers": self.workers,
            "workers_requested": self.workers_requested,
            "latency_p50_s": tails["p50"],
            "latency_p95_s": tails["p95"],
            "latency_p99_s": tails["p99"],
            "n_degraded": self.n_degraded,
            "n_retried": self.n_retried,
            "n_quarantined": self.n_quarantined,
        }


# ---------------------------------------------------------------------------
# Worker side: one optimizer per process, plans shipped as JSON documents.
# ---------------------------------------------------------------------------

_WORKER_OPTIMIZER: Optional[Optimizer] = None


def _worker_init(factory: Callable[[], Optimizer], memoize: bool) -> None:
    global _WORKER_OPTIMIZER
    _WORKER_OPTIMIZER = factory()
    if memoize:
        _enable_singleton_memo(_WORKER_OPTIMIZER, {})


def _worker_run(
    job_id: str, plan_json: str, deadline_ms: Optional[float] = None
) -> Dict[str, Any]:
    """Optimize one shipped plan; returns a JSON-safe result document."""
    from repro.rheem.serialization import execution_plan_to_dict, plan_from_json

    assert _WORKER_OPTIMIZER is not None, "worker pool not initialized"
    plan = plan_from_json(plan_json)
    result = _optimize_with_deadline(_WORKER_OPTIMIZER, plan, deadline_ms)
    return {
        "job_id": job_id,
        "execution_plan": execution_plan_to_dict(result.execution_plan),
        "predicted_runtime": result.predicted_runtime,
        "optimizer": result.optimizer,
        "stats": result.stats.as_dict(),
    }


def _build_robopt(
    platforms: Sequence[str],
    model: Any,
    model_path: Optional[str],
    priority: str,
    pruning: bool,
):
    from repro.core.optimizer import Robopt
    from repro.ml.model import RuntimeModel
    from repro.rheem.platforms import default_registry

    if model is None:
        if model_path is None:
            raise ReproError("robopt_factory needs a model or a model_path")
        model = RuntimeModel.load(model_path)
    registry = default_registry(tuple(platforms))
    return Robopt(registry, model, priority=priority, pruning=pruning)


def robopt_factory(
    platforms: Sequence[str] = ("java", "spark", "flink"),
    model: Any = None,
    model_path: Optional[str] = None,
    priority: str = "robopt",
    pruning: bool = True,
) -> Callable[[], Optimizer]:
    """A picklable zero-argument factory building a standard Robopt.

    Pass either a (picklable) ``model`` object or a ``model_path`` that
    each worker loads on initialization — the latter avoids shipping a
    large forest through the pipe once per pool.
    """
    return functools.partial(
        _build_robopt, tuple(platforms), model, model_path, priority, pruning
    )


def _no_primary_model():
    raise ModelError(
        "no runtime model configured; the fallback chain serves the "
        "calibrated cost model instead"
    )


def _build_resilient_robopt(
    platforms: Sequence[str],
    model: Any,
    model_path: Optional[str],
    priority: str,
    pruning: bool,
    deadline_s: Optional[float],
    budget_vectors: Optional[int],
    breaker_threshold: int,
    breaker_cooldown_s: float,
    chaos: Any,
    variance_threshold: Optional[float] = None,
    risk_aversion: float = 0.0,
):
    from repro.core.features import FeatureSchema
    from repro.core.optimizer import Robopt
    from repro.ml.model import RuntimeModel
    from repro.resilience import (
        Budget,
        ChaoticModel,
        ChaoticOptimizer,
        CircuitBreaker,
        FallbackRuntimeModel,
        FaultInjector,
        VarianceGuard,
    )
    from repro.rheem.platforms import default_registry

    if isinstance(platforms, int):
        from repro.rheem.platforms import synthetic_registry

        registry = synthetic_registry(platforms)
    else:
        registry = default_registry(tuple(platforms))
    schema = FeatureSchema(registry)
    if model is not None:
        primary = model
    elif model_path is not None:
        # Lazy: a missing/corrupt model file degrades at first predict
        # instead of killing worker initialization.
        primary = RuntimeModel.loader(model_path)
    else:
        primary = _no_primary_model
    injector = None
    if chaos is not None and not chaos.inert:
        injector = FaultInjector(chaos)
        if hasattr(primary, "predict"):
            primary = ChaoticModel(primary, injector)
        else:
            loader = primary  # runs worker-side; the closure never pickles
            primary = lambda: ChaoticModel(loader(), injector)  # noqa: E731
    fallback = FallbackRuntimeModel.for_schema(
        primary,
        schema,
        breaker=CircuitBreaker(breaker_threshold, breaker_cooldown_s),
        variance_guard=(
            VarianceGuard(threshold=variance_threshold)
            if variance_threshold is not None
            else None
        ),
    )
    budget = None
    if deadline_s is not None or budget_vectors is not None:
        budget = Budget(deadline_s=deadline_s, max_vectors=budget_vectors)
    optimizer: Optimizer = Robopt(
        registry,
        fallback,
        priority=priority,
        pruning=pruning,
        schema=schema,
        budget=budget,
        risk_aversion=risk_aversion,
    )
    if injector is not None:
        optimizer = ChaoticOptimizer(optimizer, injector)
    return optimizer


def resilient_robopt_factory(
    platforms=("java", "spark", "flink"),
    model: Any = None,
    model_path: Optional[str] = None,
    priority: str = "robopt",
    pruning: bool = True,
    deadline_s: Optional[float] = None,
    budget_vectors: Optional[int] = None,
    breaker_threshold: int = 3,
    breaker_cooldown_s: float = 30.0,
    chaos: Any = None,
    variance_threshold: Optional[float] = None,
    risk_aversion: float = 0.0,
) -> Callable[[], Optimizer]:
    """A picklable factory for the fully-armored Robopt stack.

    ``platforms`` is either a name tuple (default registry) or an int
    (synthetic registry of that many platforms, as in the test
    factories). Like :func:`robopt_factory`, plus the resilience
    subsystem:

    * the model sits behind a :class:`FallbackRuntimeModel` (circuit
      breaker → calibrated cost model → cardinality heuristic), so model
      outages degrade plan *quality*, never availability; with neither
      ``model`` nor ``model_path`` the chain simply starts at the cost
      model;
    * ``deadline_s`` / ``budget_vectors`` become a per-run
      :class:`~repro.resilience.budget.Budget` (anytime optimization);
    * ``chaos`` (a :class:`~repro.resilience.chaos.ChaosProfile`) wraps
      the stack in the deterministic fault injector — test/drill only;
    * ``variance_threshold`` arms a :class:`~repro.resilience.fallback.
      VarianceGuard` on the fallback chain (sustained relative
      prediction spread above it degrades to the cost model);
    * ``risk_aversion`` is Robopt's ``k`` in the ``mean + k·std``
      risk-adjusted final ranking (0 = today's expected-runtime choice).
    """
    return functools.partial(
        _build_resilient_robopt,
        platforms if isinstance(platforms, int) else tuple(platforms),
        model,
        model_path,
        priority,
        pruning,
        deadline_s,
        budget_vectors,
        breaker_threshold,
        breaker_cooldown_s,
        chaos,
        variance_threshold,
        risk_aversion,
    )


def _enable_singleton_memo(optimizer: Optimizer, memo: dict) -> bool:
    """Share a singleton-enumeration memo with an optimizer, if it can.

    Works for any optimizer exposing a ``singleton_memo`` attribute
    (directly or on its ``_enumerator``); silently does nothing for
    optimizers without one — memoization is an optimization, not a
    contract.
    """
    for holder in (optimizer, getattr(optimizer, "_enumerator", None)):
        if holder is not None and hasattr(holder, "singleton_memo"):
            holder.singleton_memo = memo
            return True
    return False


def _model_owner(optimizer: Optimizer) -> Any:
    """The optimizer that owns the runtime ``model`` and feature ``schema``.

    Chaos and test wrappers expose what they wrap as ``.inner``; the walk
    follows that chain to the first link carrying both attributes
    (``None`` when no link does).
    """
    probe: Any = optimizer
    while probe is not None:
        if getattr(probe, "model", None) is not None and getattr(
            probe, "schema", None
        ) is not None:
            return probe
        probe = getattr(probe, "inner", None)
    return None


# ---------------------------------------------------------------------------
# The warm worker pool
# ---------------------------------------------------------------------------


class _WarmWorkerPool:
    """A long-lived :class:`ProcessPoolExecutor` the service keeps warm.

    ``acquire`` returns the live executor, spawning it on first use (and
    after a ``discard``); workers run the optimizer factory exactly once
    and then stream jobs off the executor's work queue. ``None`` from
    ``acquire`` means pool mode is impossible (unpicklable factory, no
    multiprocessing support) and the caller should fall back to serial.

    The picklability probe runs once and is cached — its verdict cannot
    change for a fixed factory.
    """

    def __init__(
        self,
        factory: Callable[[], Optimizer],
        memoize: bool,
        max_workers: int,
    ):
        self.factory = factory
        self.memoize = memoize
        self.max_workers = max_workers
        #: Pools spawned over this object's lifetime (1 = never broken).
        self.spawns = 0
        self._executor: Optional[ProcessPoolExecutor] = None
        self._unpicklable: Optional[str] = None
        self._lock = threading.Lock()

    @property
    def warm(self) -> bool:
        return self._executor is not None

    def acquire(self, tracer) -> Optional[ProcessPoolExecutor]:
        with self._lock:
            if self._executor is not None:
                return self._executor
            if self._unpicklable is None:
                try:
                    pickle.dumps(self.factory)
                    self._unpicklable = ""
                except Exception as exc:
                    self._unpicklable = f"unpicklable factory: {exc}"
            if self._unpicklable:
                if tracer.enabled:
                    tracer.event("serve.pool.fallback", reason=self._unpicklable)
                return None
            try:
                self._executor = ProcessPoolExecutor(
                    max_workers=self.max_workers,
                    initializer=_worker_init,
                    initargs=(self.factory, self.memoize),
                )
                self.spawns += 1
            except Exception as exc:  # no sem support etc.
                if tracer.enabled:
                    tracer.event("serve.pool.fallback", reason=str(exc))
                return None
            return self._executor

    def discard(self) -> None:
        """Drop the executor (broken pool / shutdown); spawn anew later."""
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=False, cancel_futures=True)

    def __del__(self):  # pragma: no cover - GC timing dependent
        try:
            self.discard()
        except Exception:
            pass


# ---------------------------------------------------------------------------
# The service
# ---------------------------------------------------------------------------


class BatchOptimizationService:
    """Drives batches of optimization jobs through one optimizer.

    Parameters
    ----------
    optimizer_factory:
        Zero-argument callable returning an :class:`~repro.api.Optimizer`.
        Must be picklable for pool mode (:func:`robopt_factory` is); an
        unpicklable factory degrades to serial execution.
    registry:
        The platform registry results are rebuilt against (and the
        fingerprint context). Defaults to the factory-built optimizer's
        ``registry`` attribute.
    workers:
        Process count. ``None`` (the default) auto-sizes from
        :func:`available_cpus` — cgroup/affinity aware, so a container
        pinned to one CPU runs serially instead of oversubscribing.
        ``0`` or ``1`` means serial in-process execution; an explicit
        ``>= 2`` overrides the auto-sizing. The warm pool persists
        across batches; :meth:`close` (or the context manager) shuts it
        down.
    timeout_s:
        Per-job wall-clock budget, measured from batch dispatch (pool
        mode only — a serial job cannot be preempted). On a cold pool
        the budget covers worker warm-up (the optimizer factory, which
        may load a model from disk), so a hanging construction cannot
        stall the batch unboundedly. An overrun produces an error
        outcome for that job; the batch continues.
    cache:
        An optional :class:`PlanCache` shared across batches and across
        every pool worker (lookups and publishes happen in the parent).
    template_cache:
        An optional :class:`~repro.serve.template.TemplateCache`: the
        second cache tier. Exact-fingerprint misses consult it; a
        template hit answers the job without enumeration,
        and every fresh (non-degraded) result is folded back into its
        template's candidate set. Requires an optimizer exposing
        ``model`` and ``schema`` (possibly behind ``.inner`` wrappers)
        so candidates can be re-costed; otherwise the tier is skipped.
    memoize_singletons:
        Share one singleton-enumeration memo per batch (serial) or per
        worker (pool) so identical subplans vectorize once.
    retry:
        An optional :class:`~repro.resilience.retry.RetryPolicy`. Failed
        jobs (exceptions and pool breakage — not timeouts, whose budget
        is already spent) are re-dispatched up to ``max_retries`` times
        with jittered exponential backoff. ``None`` disables retries.
    quarantine_after:
        Worker deaths a plan fingerprint survives before it is
        quarantined (failed immediately, never dispatched again by this
        service instance). The tally persists across batches and clears
        on a successful run — see
        :class:`~repro.resilience.retry.Quarantine`.
    feedback:
        An optional :class:`~repro.serve.feedback.FeedbackController`.
        Every fresh (non-cached) successful result of a batch is handed
        to it for execution + observation, and ``maybe_retrain`` runs
        once per batch, after the batch has released the service; when
        the controller has no ``install`` callback it is wired to
        :meth:`install_model`, so a retrain installs here between
        batches.
    model_path:
        Where :meth:`install_model` persists installed models (tmp +
        rename, so a reader never sees half a file). Pool workers build
        their optimizer from the factory — which typically loads this
        path — so saving before the pool restart is what propagates a
        retrain to them. Without it, installs still reach the serial
        optimizer and any rebuilt pool simply reloads whatever the
        factory loads.
    """

    def __init__(
        self,
        optimizer_factory: Callable[[], Optimizer],
        registry: Optional[PlatformRegistry] = None,
        *,
        workers: Optional[int] = None,
        timeout_s: Optional[float] = None,
        cache: Optional[PlanCache] = None,
        template_cache: Optional[TemplateCache] = None,
        memoize_singletons: bool = True,
        retry: Optional[RetryPolicy] = None,
        quarantine_after: int = 2,
        feedback=None,
        model_path=None,
    ):
        self.workers_auto = workers is None
        if workers is None:
            workers = available_cpus()
            if workers <= 1:
                workers = 0  # one CPU: a pool is pure overhead
        if workers < 0:
            raise ReproError(f"workers must be >= 0, got {workers}")
        if timeout_s is not None and timeout_s <= 0:
            raise ReproError(f"timeout_s must be positive, got {timeout_s}")
        self._factory = optimizer_factory
        self.workers = workers
        self.timeout_s = timeout_s
        self.cache = cache
        self.template_cache = template_cache
        #: Whether the optimizer exposes a model and schema to re-cost
        #: template candidates with (``None`` = not yet probed).
        self._can_recost: Optional[bool] = None
        self.memoize_singletons = memoize_singletons
        self.retry = retry
        self.quarantine = Quarantine(threshold=quarantine_after)
        self._optimizer: Optional[Optimizer] = None
        self._pool = _WarmWorkerPool(optimizer_factory, memoize_singletons, max(workers, 1))
        self.feedback = feedback
        self.model_path = model_path
        #: Held by a batch (lookup, dispatch, publish) and by an install,
        #: so a model is only ever installed between batches.
        self._lock = threading.Lock()
        if feedback is not None and feedback.install is None:
            feedback.install = self.install_model
        self.registry = registry if registry is not None else self._serial_optimizer().registry

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut the warm worker pool down (idempotent; the service stays
        usable — the next pooled batch spawns a fresh pool)."""
        self._pool.discard()

    def __enter__(self) -> "BatchOptimizationService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------
    def _serial_optimizer(self) -> Optimizer:
        if self._optimizer is None:
            self._optimizer = self._factory()
        return self._optimizer

    @staticmethod
    def as_jobs(
        jobs: Sequence[Union[BatchJob, LogicalPlan]]
    ) -> List[BatchJob]:
        """Normalize a mixed plan/job sequence into jobs with unique ids."""
        out: List[BatchJob] = []
        seen: Dict[str, int] = {}
        for index, item in enumerate(jobs):
            if isinstance(item, BatchJob):
                job = item
            else:
                job = BatchJob(job_id=item.name or f"job{index}", plan=item)
            if job.job_id in seen or not job.job_id:
                job = BatchJob(
                    f"{job.job_id or 'job'}#{index}",
                    job.plan,
                    job.size_bytes,
                    job.tags,
                    deadline_ms=job.deadline_ms,
                )
            seen[job.job_id] = index
            out.append(job)
        return out

    # ------------------------------------------------------------------
    def optimize_batch(
        self, jobs: Sequence[Union[BatchJob, LogicalPlan]]
    ) -> BatchReport:
        """Run every job; never raises for a single job's failure."""
        jobs = self.as_jobs(jobs)
        tracer = current_tracer()
        started = time.perf_counter()
        with self._lock, tracer.span(
            "serve.batch", n_jobs=len(jobs), workers=self.workers
        ):
            outcomes, hits, misses, t_hits, t_misses, mode = self._run(
                jobs, tracer
            )
        wall = time.perf_counter() - started
        report = BatchReport(
            outcomes=outcomes,
            wall_s=wall,
            mode=mode,
            workers=self.workers if mode == "pool" else 0,
            workers_requested=self.workers,
            cache_hits=hits,
            cache_misses=misses,
            template_hits=t_hits,
            template_misses=t_misses,
        )
        if tracer.enabled:
            tracer.count("serve.jobs", report.n_jobs)
            tracer.count("serve.jobs_ok", report.n_ok)
            tracer.count("serve.jobs_failed", report.n_failed)
        if self.feedback is not None:
            self._feed_back(report)
        return report

    def _feed_back(self, report: BatchReport) -> None:
        """Hand the batch's fresh results to the feedback controller.

        Only non-cached successes are observed — a cache hit re-executes
        nothing new and would let one popular fingerprint flood the
        observation log with identical rows. Degraded plans are filtered
        by the loop itself (``FeedbackLoop.observe`` rejects them). The
        retrain check runs once per batch, after all observations and
        outside the batch lock, so an inline retrain installs at once.
        """
        for outcome in report.outcomes:
            if outcome.ok and not outcome.cached and outcome.result is not None:
                self.feedback.observe(outcome.result)
        self.feedback.maybe_retrain()

    def install_model(self, model) -> None:
        """Install a freshly trained runtime model between batches.

        The install takes the lock a batch holds: if a batch is running
        it waits for that batch to finish, and on an idle service it
        applies at once. Three consumers price plans and all three are
        handled:

        * the **serial optimizer** — the model lands on the resilience
          wrapper's ``swap_primary`` (the enumerator's cost closure holds
          the wrapper, so it reprices on the next batch) or on a bare
          ``Robopt.set_model``; if neither is reachable the optimizer is
          dropped and lazily rebuilt;
        * **pool workers** — the model is persisted to ``model_path``
          (tmp + ``os.replace``) and the warm pool discarded, so the
          next pooled batch warms workers that load the new file;
        * **caches** — the exact cache is cleared (its entries carry
          costs priced by the old model); the template cache survives,
          its candidates are re-costed with the serving model on every
          hit.
        """
        with self._lock:
            owner = _model_owner(self._serial_optimizer())
            held = getattr(owner, "model", None)
            rebuilt = False
            if hasattr(held, "swap_primary"):
                held.swap_primary(model)
            elif hasattr(owner, "set_model"):
                owner.set_model(model)
            else:
                self._optimizer = None  # rebuild from the factory on next use
                rebuilt = True
            if self.model_path is not None:
                tmp = Path(str(self.model_path) + ".tmp")
                model.save(tmp)
                os.replace(tmp, self.model_path)
            self._pool.discard()
            if self.cache is not None:
                self.cache.clear()
        tracer = current_tracer()
        if tracer.enabled:
            tracer.count("serve.model_swaps")
            tracer.event("serve.model_installed", rebuilt=rebuilt)

    def feedback_stats(self) -> Dict[str, Any]:
        """The feedback controller's stats payload (empty when disabled)."""
        return self.feedback.stats() if self.feedback is not None else {}

    # ------------------------------------------------------------------
    def _template_tier_ready(self) -> bool:
        """Whether template candidates can be re-costed (probed once).

        The serial optimizer (or a wrapper's ``.inner`` chain) must
        expose a runtime ``model`` and a feature ``schema``; otherwise
        the tier is skipped.
        """
        if self._can_recost is None:
            self._can_recost = _model_owner(self._serial_optimizer()) is not None
            tracer = current_tracer()
            if not self._can_recost and tracer.enabled:
                tracer.event(
                    "serve.template.disabled",
                    reason="optimizer exposes no model/schema to re-cost with",
                )
        return self._can_recost

    def _recost(self, plan: LogicalPlan, assignment) -> Tuple[float, ExecutionPlan]:
        """Re-cost one template candidate at ``plan``'s cardinalities.

        The candidate's assignment is instantiated against the live plan
        and priced by one prediction of the model serving now — the
        exact cost the enumerator itself would assign that plan vector.
        """
        owner = _model_owner(self._serial_optimizer())
        xplan = ExecutionPlan(plan, dict(assignment), self.registry)
        features = np.asarray(
            owner.schema.encode_execution_plan(xplan), dtype=np.float64
        )
        cost = float(np.asarray(owner.model.predict(features[None, :])).reshape(-1)[0])
        return cost, xplan

    # ------------------------------------------------------------------
    def _run(self, jobs: List[BatchJob], tracer):
        """Plan the batch: cache lookups, then dispatch the misses."""
        outcomes: Dict[str, JobOutcome] = {}
        hits = 0
        misses = 0
        template_hits = 0
        template_misses = 0
        # Fingerprint every job; serve cache hits immediately and collapse
        # within-batch duplicates onto one representative optimization.
        prepared: Dict[str, LogicalPlan] = {}
        fingerprints: Dict[str, str] = {}
        template_fps: Dict[str, str] = {}
        representatives: Dict[str, BatchJob] = {}
        followers: Dict[str, List[BatchJob]] = {}
        with tracer.span("serve.cache.lookup", n_jobs=len(jobs)):
            for job in jobs:
                t0 = time.perf_counter()
                plan = job.prepared_plan()
                prepared[job.job_id] = plan
                fp = plan_fingerprint(plan, self.registry)
                fingerprints[job.job_id] = fp
                if self.cache is not None:
                    cached = self.cache.get(fp)
                    if cached is not None:
                        hits += 1
                        outcomes[job.job_id] = JobOutcome(
                            job.job_id,
                            ok=True,
                            result=cached,
                            cached=True,
                            duration_s=time.perf_counter() - t0,
                            tags=job.tags,
                        )
                        continue
                # Second tier: the template cache. A hit — the cheapest
                # remembered candidate re-costed at *this* job's
                # cardinalities — answers without enumeration; a refusal
                # falls through to the full optimizer.
                if self.template_cache is not None and self._template_tier_ready():
                    tfp = template_fingerprint(plan, self.registry)
                    template_fps[job.job_id] = tfp
                    served = self.template_cache.get(tfp, plan, self._recost)
                    if served is not None:
                        template_hits += 1
                        if self.cache is not None:
                            # Promote into tier 1 so same-bucket
                            # repeats skip the re-costing too.
                            self.cache.put(fp, served)
                        outcomes[job.job_id] = JobOutcome(
                            job.job_id,
                            ok=True,
                            result=served,
                            cached=True,
                            template_hit=True,
                            duration_s=time.perf_counter() - t0,
                            tags=job.tags,
                        )
                        continue
                    template_misses += 1
                # Collapsing same-fingerprint jobs onto one optimization is
                # the cache's equivalence semantics; without a cache every
                # job is optimized individually.
                key = (
                    _dedupe_key(fp, job.deadline_ms)
                    if self.cache is not None
                    else f"job:{job.job_id}"
                )
                if key in representatives:
                    followers.setdefault(key, []).append(job)
                else:
                    representatives[key] = job

        # Each job counts exactly once: a cache hit, a batch-local hit
        # (follower of a representative), or a miss (actually optimized).
        if self.cache is not None:
            misses = len(representatives)
        todo = list(representatives.values())

        # Quarantined fingerprints (plans that repeatedly broke the pool)
        # fail up front instead of being handed another worker to kill.
        pending: List[BatchJob] = []
        for job in todo:
            fp = fingerprints[job.job_id]
            if self.quarantine.is_quarantined(fp):
                outcomes[job.job_id] = _failed(
                    job,
                    f"quarantined: implicated in "
                    f"{self.quarantine.deaths(fp)} worker deaths",
                    tracer,
                    "serve.jobs_quarantined",
                    quarantined=True,
                )
            else:
                pending.append(job)

        mode = "serial"
        attempt = 0
        while pending:
            # Jobs already implicated in a worker death are dispatched in
            # isolation (an ephemeral single-use pool) so a repeat offender
            # only breaks itself — never the warm pool: innocents that
            # merely shared a broken pool get a clean round on the warm
            # workers, succeed, and clear their tally instead of riding
            # every crash to the quarantine threshold.
            suspect_ids = {
                job.job_id
                for job in pending
                if self.quarantine.deaths(fingerprints[job.job_id]) > 0
            }
            clean = [job for job in pending if job.job_id not in suspect_ids]
            groups: List[Tuple[List[BatchJob], bool]] = (
                [(clean, False)] if clean else []
            ) + [([job], True) for job in pending if job.job_id in suspect_ids]
            dispatched: Dict[str, JobOutcome] = {}
            for group, isolate in groups:
                got, used_mode = self._dispatch(
                    group, prepared, tracer, isolate=isolate
                )
                dispatched.update(got)
                if used_mode == "pool":
                    mode = "pool"
            for job in pending:
                outcome = dispatched[job.job_id]
                outcome.attempts = attempt + 1
                outcomes[job.job_id] = outcome
                fp = fingerprints[job.job_id]
                if outcome.worker_died:
                    self.quarantine.record_worker_death(fp)
                    if tracer.enabled:
                        tracer.count("serve.worker_deaths")
                elif outcome.ok:
                    self.quarantine.record_success(fp)
            if self.retry is None or attempt >= self.retry.max_retries:
                break
            retryable: List[BatchJob] = []
            for job in pending:
                outcome = outcomes[job.job_id]
                if outcome.ok or outcome.timed_out:
                    continue  # a timeout already consumed the job's budget
                if self.quarantine.is_quarantined(fingerprints[job.job_id]):
                    outcome.quarantined = True
                    outcome.error = f"{outcome.error}; quarantined"
                    if tracer.enabled:
                        tracer.count("serve.jobs_quarantined")
                    continue
                retryable.append(job)
            if not retryable:
                break
            attempt += 1
            if tracer.enabled:
                tracer.count("serve.jobs_retried", len(retryable))
            delay = self.retry.delay_s(attempt)
            if delay > 0:
                time.sleep(delay)
            pending = retryable

        # Fill followers from their representative (a batch-local hit) and
        # publish fresh results to the cache.
        for key, job in representatives.items():
            rep = outcomes[job.job_id]
            if (
                rep.ok
                and rep.result is not None
                # A degraded answer is the best *this deadline* allowed —
                # caching it would serve a 10 ms compromise to every
                # future deadline-free request of the same fingerprint.
                and not rep.result.stats.degraded
            ):
                if self.cache is not None:
                    self.cache.put(fingerprints[job.job_id], rep.result)
                if (
                    self.template_cache is not None
                    and job.job_id in template_fps
                ):
                    # Fold the fresh optimum back into its template's
                    # candidate set (Kepler's feedback loop).
                    self.template_cache.observe(
                        template_fps[job.job_id],
                        prepared[job.job_id],
                        rep.result,
                    )
            for follower in followers.get(key, []):
                if rep.ok and rep.result is not None:
                    hits += 1
                    outcomes[follower.job_id] = JobOutcome(
                        follower.job_id,
                        ok=True,
                        result=copy_result(rep.result),
                        cached=True,
                        tags=follower.tags,
                    )
                else:
                    outcomes[follower.job_id] = _failed(follower, rep.error)
        ordered = [outcomes[job.job_id] for job in jobs]
        return ordered, hits, misses, template_hits, template_misses, mode

    # ------------------------------------------------------------------
    def _dispatch(
        self,
        todo: List[BatchJob],
        prepared: Dict[str, LogicalPlan],
        tracer,
        isolate: bool = False,
    ):
        """One dispatch round: the pool when configured, serial otherwise."""
        if self.workers > 1 and todo:
            pool = (
                _WarmWorkerPool(self._factory, self.memoize_singletons, 1)
                if isolate
                else self._pool
            )
            try:
                pool_outcomes = self._run_pool(todo, prepared, tracer, pool)
            finally:
                if isolate:
                    pool.discard()
            if pool_outcomes is not None:
                return pool_outcomes, "pool"
        return self._run_serial(todo, prepared, tracer), "serial"

    # ------------------------------------------------------------------
    def _run_serial(
        self, todo: List[BatchJob], prepared: Dict[str, LogicalPlan], tracer
    ) -> Dict[str, JobOutcome]:
        optimizer = self._serial_optimizer()
        if self.memoize_singletons:
            _enable_singleton_memo(optimizer, {})
        outcomes: Dict[str, JobOutcome] = {}
        for job in todo:
            t0 = time.perf_counter()
            try:
                with tracer.span("serve.job", job=job.job_id, mode="serial"):
                    result = _optimize_with_deadline(
                        optimizer, prepared[job.job_id], job.deadline_ms
                    )
                outcomes[job.job_id] = JobOutcome(
                    job.job_id,
                    ok=True,
                    result=result,
                    duration_s=time.perf_counter() - t0,
                    tags=job.tags,
                )
            except Exception as exc:  # one job's failure is one error row
                outcomes[job.job_id] = _failed(
                    job,
                    exc,
                    tracer,
                    "serve.jobs_errored",
                    duration_s=time.perf_counter() - t0,
                )
        return outcomes

    # ------------------------------------------------------------------
    def _run_pool(
        self,
        todo: List[BatchJob],
        prepared: Dict[str, LogicalPlan],
        tracer,
        pool: _WarmWorkerPool,
    ) -> Optional[Dict[str, JobOutcome]]:
        """Run jobs on the (warm) process pool; ``None`` means "fall back
        to serial".

        The fallback triggers only for infrastructure failures (an
        unpicklable factory, a pool that cannot start). A *broken* pool
        mid-run fails the unfinished jobs' outcomes with
        ``worker_died=True`` and discards the executor so the next
        dispatch starts a fresh one — the service's retry/quarantine
        layer decides whether those jobs get it.
        """
        from repro.rheem.serialization import plan_to_json

        # The per-job budget starts *here*, before the executor may need
        # to spawn: on a cold pool, worker initialization (the optimizer
        # factory, which may load a model from disk) counts against the
        # timeout, so a hanging construction cannot stall the batch
        # unboundedly. On a warm pool there is nothing to wait for.
        submitted = time.perf_counter()
        was_warm = pool.warm
        executor = pool.acquire(tracer)
        if executor is None:
            return None
        deadline = None if self.timeout_s is None else submitted + self.timeout_s
        outcomes: Dict[str, JobOutcome] = {}
        future_jobs: Dict[Future, BatchJob] = {}
        broken: Optional[str] = None
        try:
            with tracer.span(
                "serve.pool",
                workers=pool.max_workers,
                n_jobs=len(todo),
                warm=was_warm,
            ):
                for job in todo:
                    payload = plan_to_json(prepared[job.job_id], indent=0)
                    try:
                        future = executor.submit(
                            _worker_run, job.job_id, payload, job.deadline_ms
                        )
                    except Exception as exc:  # pool broke during submission
                        outcomes[job.job_id] = _failed(job, exc, worker_died=True)
                        broken = outcomes[job.job_id].error
                        continue
                    future_jobs[future] = job

                # Stream results in completion order: a slow job never
                # blocks the accounting of a fast one, and every job's
                # deadline is submission + timeout.
                try:
                    timeout = None
                    if deadline is not None:
                        timeout = max(0.05, deadline - time.perf_counter())
                    for future in as_completed(list(future_jobs), timeout=timeout):
                        job = future_jobs[future]
                        done_at = time.perf_counter()
                        try:
                            doc = future.result()
                            outcomes[job.job_id] = self._outcome_from_doc(
                                job, doc, done_at - submitted
                            )
                        except BrokenProcessPool as exc:
                            outcomes[job.job_id] = _failed(
                                job, exc, worker_died=True
                            )
                            broken = outcomes[job.job_id].error
                        except Exception as exc:
                            outcomes[job.job_id] = _failed(
                                job,
                                exc,
                                tracer,
                                "serve.jobs_errored",
                                duration_s=done_at - submitted,
                            )
                except FutureTimeout:
                    for future, job in future_jobs.items():
                        if job.job_id in outcomes:
                            continue
                        future.cancel()
                        outcomes[job.job_id] = _failed(
                            job,
                            f"timeout after {self.timeout_s}s",
                            tracer,
                            "serve.jobs_timed_out",
                            duration_s=time.perf_counter() - submitted,
                            timed_out=True,
                        )
        finally:
            if broken is not None:
                # A dead worker poisons the whole executor: discard it so
                # the next dispatch round starts a fresh warm pool.
                pool.discard()
        return outcomes

    def _outcome_from_doc(
        self, job: BatchJob, doc: Dict[str, Any], duration_s: float
    ) -> JobOutcome:
        from repro.rheem.serialization import execution_plan_from_dict

        result = OptimizationResult(
            execution_plan=execution_plan_from_dict(
                doc["execution_plan"], self.registry
            ),
            predicted_runtime=float(doc["predicted_runtime"]),
            stats=RunStats(**doc["stats"]),
            optimizer=doc.get("optimizer", ""),
        )
        return JobOutcome(
            job.job_id,
            ok=True,
            result=result,
            duration_s=duration_s,
            tags=job.tags,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BatchOptimizationService(workers={self.workers}, "
            f"timeout_s={self.timeout_s}, cache={self.cache!r}, "
            f"warm={self._pool.warm})"
        )
