"""Priority-based plan enumeration — Algorithm 1 of the paper (§V-B).

The enumerator (i) vectorizes and splits the plan into singleton abstract
vectors, (ii) enumerates each singleton, (iii) repeatedly dequeues the
highest-priority enumeration and concatenates it with its children
(pruning after every concatenation), and (iv) returns the cheapest plan
vector of the final enumeration, unvectorized into an execution plan.

Because boundary pruning is lossless w.r.t. the cost oracle (Def. 2), the
returned plan is *optimal with respect to the model* — unlike learned
best-first searches (e.g. Neo), which are heuristic (§VIII).
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Set

import numpy as np

from repro.api import RunStats
from repro.exceptions import EnumerationError
from repro.core.enumeration import EnumerationContext, PlanVectorEnumeration
from repro.core.features import FeatureSchema
from repro.core.operations import (
    MergeScratch,
    merge_enumerations,
    unvectorize,
)
from repro.core.priority import make_priority
from repro.core.pruning import CostFn, ml_cost, prune
from repro.obs import current_tracer
from repro.resilience.budget import (
    REASON_DEADLINE,
    Budget,
    BudgetClock,
)
from repro.rheem.execution_plan import ExecutionPlan
from repro.rheem.logical_plan import LogicalPlan
from repro.rheem.platforms import PlatformRegistry

#: Degradation reason recorded when even the partial enumerations could
#: not be assembled and a greedy single-pass assignment was returned.
REASON_GREEDY = "greedy_fallback"

@dataclass
class EnumerationResult:
    """The outcome of one optimization: the chosen plan and diagnostics."""

    execution_plan: ExecutionPlan
    predicted_cost: float
    final_enumeration: PlanVectorEnumeration
    stats: RunStats


class PriorityEnumerator:
    """Algorithm 1: pruning-aware, priority-driven plan enumeration.

    Parameters
    ----------
    registry:
        Platforms available to the optimizer.
    cost_fn:
        Cost oracle used by pruning and the final plan selection. Use
        :func:`repro.core.pruning.ml_cost` to wrap an ML model.
    priority:
        ``"robopt"`` (Def. 3), ``"topdown"`` or ``"bottomup"``.
    pruning:
        Disable to obtain the exhaustive vectorized enumeration (the
        "Exhaustive enumeration" baseline of Fig. 9(a)).
    schema:
        Optional shared :class:`FeatureSchema` (one is built per registry
        otherwise).
    max_vectors:
        Safety valve: a single concatenation producing more plan vectors
        than this raises :class:`EnumerationError` (the exhaustive baseline
        at 20+ operators would otherwise materialize 10^6+ vectors,
        cf. Table I).
    budget:
        Optional :class:`repro.resilience.budget.Budget` applied to every
        run (a per-call budget passed to :meth:`enumerate_plan` takes
        precedence). On expiry the run is *degraded*, not aborted: the
        best complete plan assemblable from the partial enumerations is
        returned and ``RunStats.degraded``/``degradation`` record why.
    """

    def __init__(
        self,
        registry: PlatformRegistry,
        cost_fn: CostFn,
        priority: str = "robopt",
        pruning: bool = True,
        schema: Optional[FeatureSchema] = None,
        max_vectors: int = 4_000_000,
        budget: Optional[Budget] = None,
    ):
        self.registry = registry
        self.cost_fn = cost_fn
        self.priority_name = priority
        self.pruning = pruning
        self.schema = schema if schema is not None else FeatureSchema(registry)
        self.max_vectors = max_vectors
        self.budget = budget
        # Reusable merge arenas. Only safe under pruning: prune's select
        # copies the survivors out of the arenas before the next merge
        # reuses them. Without pruning every merge owns fresh matrices.
        self._scratch = MergeScratch() if pruning else None

    # ------------------------------------------------------------------
    def enumerate_plan(
        self, plan: LogicalPlan, budget: Optional[Budget] = None
    ) -> EnumerationResult:
        """Run Algorithm 1 on a logical plan and return the best plan."""
        tracer = current_tracer()
        if tracer.enabled:
            with tracer.span(
                "enumerate",
                plan=plan.name,
                n_operators=plan.n_operators,
                priority=self.priority_name,
                pruning=self.pruning,
            ) as root:
                result = self._enumerate_traced(plan, tracer, budget)
                root.set(**result.stats.as_dict())
            return result
        return self._enumerate_traced(plan, tracer, budget)

    def _enumerate_traced(
        self, plan: LogicalPlan, tracer, budget: Optional[Budget] = None
    ) -> EnumerationResult:
        started = time.perf_counter()
        budget = budget if budget is not None else self.budget
        clock: Optional[BudgetClock] = None
        if budget is not None and not budget.unbounded:
            clock = budget.start()
        ctx = EnumerationContext(plan, self.registry, self.schema)
        priority_fn = make_priority(self.priority_name, ctx)
        stats = RunStats()

        # Lines 2-5: vectorize, split, enumerate singletons, set priorities.
        # The budget is checked once, before the batched build: with no
        # budget left there are no fragments to assemble, so the anytime
        # path falls through to its greedy plan.
        if clock is not None:
            reason = clock.check()
            if reason is not None:
                return self._anytime_result(
                    ctx, {}, stats, reason, tracer, started
                )
        enums: Dict[int, PlanVectorEnumeration] = {}
        op_to_enum: Dict[int, int] = {}
        for eid, enumeration in enumerate(ctx.singleton_enumerations()):
            enums[eid] = enumeration
            stats.singleton_vectors += enumeration.n_vectors
            (op_id,) = enumeration.scope
            op_to_enum[op_id] = eid
        if tracer.enabled:
            tracer.count("enumerate.singleton_vectors", stats.singleton_vectors)

        # Neighbouring enumerations can only attach through boundary
        # operators (an edge to another enumeration is an edge out of the
        # scope), so partner discovery walks the cached boundary instead of
        # the full scope.
        def children_of(eid: int) -> List[int]:
            found: List[int] = []
            seen: Set[int] = set()
            for u in enums[eid].boundary_list():
                for v in ctx.op_children[u]:
                    other = op_to_enum[v]
                    if other != eid and other not in seen:
                        seen.add(other)
                        found.append(other)
            return found

        def parents_of(eid: int) -> List[int]:
            found: List[int] = []
            seen: Set[int] = set()
            for u in enums[eid].boundary_list():
                for p in ctx.op_parents[u]:
                    other = op_to_enum[p]
                    if other != eid and other not in seen:
                        seen.add(other)
                        found.append(other)
            return found

        heap: List = []
        version: Dict[int, int] = {}
        seq = itertools.count()

        def push(eid: int) -> None:
            enumeration = enums[eid]
            children = [enums[c] for c in children_of(eid)]
            priority = priority_fn(enumeration, children)
            tie = len(enumeration.boundary_list())
            version[eid] = version.get(eid, 0) + 1
            heapq.heappush(heap, (-priority, tie, next(seq), eid, version[eid]))

        for eid in list(enums):
            push(eid)

        # Lines 6-17: concatenate by priority until one enumeration remains.
        while len(enums) > 1:
            if clock is not None:
                reason = clock.check(stats.total_vectors)
                if reason is not None:
                    return self._anytime_result(
                        ctx, enums, stats, reason, tracer, started
                    )
            entry = heapq.heappop(heap)
            _, _, _, eid, entry_version = entry
            if eid not in enums or version.get(eid) != entry_version:
                continue  # stale heap entry
            partners = children_of(eid) or parents_of(eid)
            if not partners:
                # Disconnected plan fragments: merge with any survivor.
                partners = [other for other in enums if other != eid][:1]
            current = eid
            for partner in partners:
                if partner not in enums or current not in enums:
                    continue
                current = self._concatenate(
                    ctx, enums, op_to_enum, current, partner, stats, tracer
                )
            push(current)
            for parent in parents_of(current):
                push(parent)  # Line 17: refresh parents' priorities.

        (final_eid,) = enums
        final = enums[final_eid]
        stats.final_vectors = final.n_vectors

        # Line 18: pick the plan with the minimum estimated runtime. The
        # last prune already costed exactly these rows (per-row predictions
        # are batch-independent), so reuse its cached survivor costs when
        # present and skip the redundant model invocation.
        costs = final.cached_costs()
        if costs is None:
            t0 = time.perf_counter()
            if tracer.enabled:
                with tracer.span("enumerate.select", rows=final.n_vectors):
                    costs = np.asarray(self.cost_fn(final), dtype=np.float64)
            else:
                costs = np.asarray(self.cost_fn(final), dtype=np.float64)
            stats.time_prune_s += time.perf_counter() - t0
            stats.rows_predicted += final.n_vectors
            if tracer.enabled:
                tracer.count("enumerate.rows_predicted", final.n_vectors)
        best_row = int(np.argmin(costs))
        xplan = unvectorize(final, best_row)
        stats.latency_s = time.perf_counter() - started
        if tracer.enabled:
            tracer.count("enumerate.final_vectors", final.n_vectors)
        return EnumerationResult(
            execution_plan=xplan,
            predicted_cost=float(costs[best_row]),
            final_enumeration=final,
            stats=stats,
        )

    # ------------------------------------------------------------------
    def _concatenate(
        self,
        ctx: EnumerationContext,
        enums: Dict[int, PlanVectorEnumeration],
        op_to_enum: Dict[int, int],
        left_id: int,
        right_id: int,
        stats: RunStats,
        tracer,
    ) -> int:
        """Merge two live enumerations (Lines 9-14) and register the result."""
        left, right = enums[left_id], enums[right_id]
        produced = left.n_vectors * right.n_vectors
        if produced > self.max_vectors:
            raise EnumerationError(
                f"concatenation would create {produced} plan vectors "
                f"(limit {self.max_vectors}); enable pruning or raise the limit"
            )
        t0 = time.perf_counter()
        if tracer.enabled:
            with tracer.span(
                "enumerate.merge",
                left=left.n_vectors,
                right=right.n_vectors,
                produced=produced,
            ):
                merged = merge_enumerations(left, right, scratch=self._scratch)
        else:
            merged = merge_enumerations(left, right, scratch=self._scratch)
        stats.time_merge_s += time.perf_counter() - t0
        stats.merges += 1
        stats.vectors_created += merged.n_vectors
        stats.peak_enumeration = max(stats.peak_enumeration, merged.n_vectors)
        if tracer.enabled:
            tracer.count("enumerate.merges")
            tracer.count("enumerate.vectors_created", merged.n_vectors)

        if self.pruning:
            t0 = time.perf_counter()
            if tracer.enabled:
                with tracer.span("enumerate.prune", rows=merged.n_vectors) as ps:
                    pruned, _costs = prune(merged, self.cost_fn)
                    ps.set(survivors=pruned.n_vectors)
            else:
                pruned, _costs = prune(merged, self.cost_fn)
            stats.time_prune_s += time.perf_counter() - t0
            stats.prune_calls += 1
            stats.rows_predicted += merged.n_vectors
            stats.vectors_pruned += merged.n_vectors - pruned.n_vectors
            if tracer.enabled:
                tracer.count("enumerate.prune_calls")
                tracer.count("enumerate.rows_predicted", merged.n_vectors)
                tracer.count(
                    "enumerate.vectors_pruned", merged.n_vectors - pruned.n_vectors
                )
            if pruned is merged and self._scratch is not None:
                # Single-row prune shortcut returns the input object, whose
                # matrices alias the merge arenas — detach before the next
                # merge reuses them (select copies and keeps the cached
                # boundary; the costs are row-bound, reattach them).
                costs_cache = pruned.cached_costs()
                pruned = pruned.select(np.arange(pruned.n_vectors))
                pruned._costs = costs_cache
            merged = pruned

        # The merged enumeration takes over the left id: left-scope
        # operators already map there, so only the (usually single-op)
        # right scope needs remapping, and older heap entries for the id
        # retire through the version counter at the next push.
        del enums[right_id]
        enums[left_id] = merged
        for op_id in right.scope:
            op_to_enum[op_id] = left_id
        return left_id

    # -- anytime degradation -------------------------------------------
    def _anytime_result(
        self,
        ctx: EnumerationContext,
        enums: Dict[int, PlanVectorEnumeration],
        stats: RunStats,
        reason: str,
        tracer,
        started: float,
    ) -> EnumerationResult:
        """Assemble the best *complete* plan from partial enumerations.

        Called when the budget expires mid-search. Each live enumeration
        covers a disjoint operator scope; taking the per-fragment argmin
        and stitching the assignments together yields a complete,
        executable plan (conversions materialize in the
        :class:`ExecutionPlan` constructor). Unlike the normal exit this
        is *lossy*: boundary pruning's Lemma-1 guarantee only covers
        finished searches, so cross-fragment conversion costs were never
        compared — hence ``RunStats.degraded``.

        If the fragments do not cover the plan (budget gone before the
        singletons were built) or the cost oracle itself is failing, fall back
        to a greedy single-pass assignment that prefers the platform
        feasible for the most operators — always constructible.
        """
        budget_reason = reason
        assignment: Dict[int, str] = {}
        try:
            covered = set()
            for enumeration in enums.values():
                costs = np.asarray(self.cost_fn(enumeration), dtype=np.float64)
                stats.rows_predicted += enumeration.n_vectors
                row = int(np.argmin(np.nan_to_num(costs, nan=np.inf)))
                assignment.update(enumeration.assignment_dict(row))
                covered |= set(enumeration.scope)
            if covered != set(ctx.plan.operators):
                raise EnumerationError(
                    f"partial coverage: {len(covered)}/{ctx.n_ops} operators"
                )
            xplan = ExecutionPlan(ctx.plan, assignment, ctx.registry)
        except Exception:
            xplan = self._greedy_plan(ctx)
            assignment = dict(xplan.assignment)
            reason = REASON_GREEDY

        final = self._single_row_enumeration(ctx, xplan, assignment)
        try:
            cost = float(
                np.asarray(self.cost_fn(final), dtype=np.float64)[0]
            )
            stats.rows_predicted += 1
        except Exception:
            cost = float("nan")
        stats.final_vectors = final.n_vectors
        stats.degraded = True
        stats.degradation = reason
        stats.latency_s = time.perf_counter() - started
        if tracer.enabled:
            tracer.count("resilience.degraded")
            if budget_reason == REASON_DEADLINE:
                tracer.count("resilience.deadline_hit")
        return EnumerationResult(
            execution_plan=xplan,
            predicted_cost=cost,
            final_enumeration=final,
            stats=stats,
        )

    def _single_row_enumeration(
        self,
        ctx: EnumerationContext,
        xplan: ExecutionPlan,
        assignment: Dict[int, str],
    ) -> PlanVectorEnumeration:
        """The one-vector enumeration encoding an assembled plan exactly."""
        features = self.schema.encode_execution_plan(xplan)[None, :]
        assignments = np.full((1, ctx.n_ops), -1, dtype=np.int8)
        names = list(ctx.registry.names)
        for op_id, name in assignment.items():
            assignments[0, op_id] = names.index(name)
        return PlanVectorEnumeration(
            ctx, frozenset(ctx.plan.operators), features, assignments
        )

    def _greedy_plan(self, ctx: EnumerationContext) -> ExecutionPlan:
        """A complete plan with no search: per operator, pick the feasible
        platform that supports the most operators overall (fewest forced
        conversions), breaking ties by platform index — deterministic."""
        support: Dict[int, int] = {}
        for alts in ctx.alternatives.values():
            for pi in alts:
                support[int(pi)] = support.get(int(pi), 0) + 1
        order = sorted(support, key=lambda pi: (-support[pi], pi))
        names = list(ctx.registry.names)
        assignment: Dict[int, str] = {}
        for op_id in ctx.plan.operators:
            feasible = {int(a) for a in ctx.alternatives[op_id]}
            assignment[op_id] = names[next(pi for pi in order if pi in feasible)]
        return ExecutionPlan(ctx.plan, assignment, ctx.registry)
