"""The algebraic operations of the vectorized plan enumeration (§IV-C/D).

Core operations: ``vectorize``, ``enumerate``, ``unvectorize``.
Auxiliary operations: ``split``, ``iterate``, ``merge``.
(The ``prune`` operation lives in :mod:`repro.core.pruning`.)

All heavy lifting happens on NumPy matrices: ``merge_enumerations``
concatenates two plan vector enumerations with one batched addition, a
vectorized assignment combine, and masked conversion-delta updates — the
Python-level work is O(#edges × k²) regardless of how many plan vectors
are involved. This is the reproduction of the paper's SIMD-style
"vectorized execution" of the enumeration.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Tuple

import numpy as np

from repro.exceptions import EnumerationError, ScopeError, VectorizationError
from repro.core.enumeration import EnumerationContext, PlanVectorEnumeration
from repro.rheem.execution_plan import ExecutionPlan
from repro.rheem.logical_plan import LogicalPlan


class AbstractPlanVector:
    """The output of ``vectorize``: a plan vector with open platform choices.

    Per-platform cells of operators that *could* run on a platform hold
    ``-1`` (the paper's convention); everything else matches the concrete
    plan vector layout. ``alternatives`` lists the feasible platform
    indices per operator, which is what ``enumerate`` instantiates.

    The feature vector materializes lazily: ``enumerate_singleton`` reads
    only the scope and alternatives (its concrete vectors start from the
    context's cached static vector), so the split/enumerate hot path never
    pays for the ``-1`` marker pass.
    """

    __slots__ = ("ctx", "scope", "alternatives", "_features")

    def __init__(
        self,
        ctx: EnumerationContext,
        scope: FrozenSet[int],
        features: np.ndarray = None,
        alternatives: Dict[int, np.ndarray] = None,
    ):
        self.ctx = ctx
        self.scope = scope
        self.alternatives = alternatives if alternatives is not None else {}
        self._features = features

    @property
    def features(self) -> np.ndarray:
        if self._features is None:
            ctx = self.ctx
            schema, plan = ctx.schema, ctx.plan
            features = ctx.static_features(self.scope).copy()
            for op_id, alts in self.alternatives.items():
                kind = plan.operators[op_id].kind_name
                for pi in alts:
                    features[schema.op_platform_cell(kind, int(pi))] = -1.0
            self._features = features
        return self._features

    @property
    def n_operators(self) -> int:
        return len(self.scope)


def vectorize(
    plan_or_ctx, registry=None, schema=None
) -> AbstractPlanVector:
    """Transform a logical plan into an abstract plan vector (§IV-C op. 1).

    Accepts either an :class:`EnumerationContext` or a
    :class:`~repro.rheem.logical_plan.LogicalPlan` plus a registry.
    """
    if isinstance(plan_or_ctx, EnumerationContext):
        ctx = plan_or_ctx
    else:
        if registry is None:
            raise VectorizationError("vectorize(plan, ...) needs a registry")
        ctx = EnumerationContext(plan_or_ctx, registry, schema)
    return _abstract_for_scope(ctx, frozenset(ctx.plan.operators))


def _abstract_for_scope(
    ctx: EnumerationContext, scope: FrozenSet[int]
) -> AbstractPlanVector:
    alternatives = {op_id: ctx.alternatives[op_id] for op_id in scope}
    return AbstractPlanVector(ctx, scope, alternatives=alternatives)


def split(abstract: AbstractPlanVector) -> List[AbstractPlanVector]:
    """Divide an abstract plan vector into singleton vectors (§IV-D op. 4).

    The resulting scopes are pairwise disjoint and union to the input
    scope, which renders the enumeration parallelizable and lets the
    priority-based algorithm schedule concatenations freely.
    """
    return [
        _abstract_for_scope(abstract.ctx, frozenset((op_id,)))
        for op_id in sorted(abstract.scope)
    ]


def enumerate_singleton(abstract: AbstractPlanVector) -> PlanVectorEnumeration:
    """Instantiate a singleton abstract vector (§IV-C op. 2, base case).

    Produces one plan vector per feasible platform of the single operator.
    The enumerator builds every singleton of a plan at once with
    :meth:`EnumerationContext.singleton_enumerations`, which is
    bit-identical to this per-operator form.
    """
    if len(abstract.scope) != 1:
        raise EnumerationError(
            f"enumerate_singleton needs a singleton scope, got {sorted(abstract.scope)}"
        )
    ctx = abstract.ctx
    (op_id,) = abstract.scope
    alts = ctx.alternatives[op_id]
    static = ctx.static_features(abstract.scope)
    n = len(alts)
    # One scatter-add over the stacked per-alternative delta lanes (built
    # once per context) replaces the per-alternative Python loop. Lane
    # duplicates within a row only occur on the weight-0 padding lanes
    # (column 0, value 0.0), which a buffered fancy add handles exactly.
    cols, vals = ctx.singleton_delta(op_id)
    features = np.tile(static, (n, 1))
    features[np.arange(n)[:, None], cols] += vals
    assignments = np.full((n, ctx.n_ops), -1, dtype=np.int8)
    assignments[:, op_id] = alts
    enum = PlanVectorEnumeration(ctx, abstract.scope, features, assignments)
    # Singleton rows are the static vector plus per-alternative deltas on
    # non-static cells, so the rows carry exactly these static values.
    enum._static_full = static
    return enum


def enumerate_abstract(abstract: AbstractPlanVector) -> PlanVectorEnumeration:
    """Fully instantiate an abstract plan vector (§IV-C op. 2).

    Creates *all* plan vectors for the abstract vector by folding
    ``merge`` over its singletons — i.e. the exhaustive k^n cartesian
    instantiation. Intended for small scopes and the exhaustive baseline.
    """
    singles = [enumerate_singleton(s) for s in split(abstract)]
    if not singles:
        raise EnumerationError("cannot enumerate an empty scope")
    current = singles[0]
    for nxt in singles[1:]:
        current = merge_enumerations(current, nxt)
    return current


def iterate(
    left: PlanVectorEnumeration, right: PlanVectorEnumeration
) -> Tuple[np.ndarray, np.ndarray]:
    """All pairs of plan vectors across two enumerations (§IV-D op. 5).

    Returns the cartesian product as two row-index arrays ``(i, j)`` of
    length ``len(left) * len(right)`` — the vectorized analogue of the
    paper's list of vector pairs.
    """
    n1, n2 = left.n_vectors, right.n_vectors
    i = np.repeat(np.arange(n1, dtype=np.int64), n2)
    j = np.tile(np.arange(n2, dtype=np.int64), n1)
    return i, j


class MergeScratch:
    """Reusable merge buffers, grown geometrically and never shrunk.

    ``merge_enumerations`` gathers two row selections of the feature and
    assignment matrices plus one conversion-delta gather per crossing edge;
    with a scratch the gathers land in preallocated arenas (``out=``)
    instead of fresh allocations per merge. The *returned* enumeration's
    matrices alias the arenas, so a scratch may only be passed by callers
    that copy the result out (pruning's ``select``) before the next merge
    — the enumerator does exactly that.
    """

    __slots__ = ("_bufs", "_views", "_merge_views")

    def __init__(self):
        self._bufs: Dict[str, np.ndarray] = {}
        self._views: Dict[str, Tuple[Tuple[int, int], np.ndarray]] = {}
        self._merge_views: Dict[Tuple[int, int, int, int], Tuple] = {}

    def array(self, key: str, shape: Tuple[int, int], dtype) -> np.ndarray:
        # Merge shapes are stable across the pruning steady state (survivor
        # count × alternatives), so the reshaped view is memoized per key
        # and only rebuilt when the requested shape changes.
        hit = self._views.get(key)
        if hit is not None and hit[0] == shape:
            return hit[1]
        need = int(shape[0]) * int(shape[1])
        buf = self._grow(key, need, dtype)
        view = buf[:need].reshape(shape)
        self._views[key] = (shape, view)
        return view

    def grid(
        self, key: str, n1: int, n2: int, m: int, dtype
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Flat ``(n1*n2, m)`` and broadcast ``(n1, n2, m)`` views of one
        buffer, memoized together — the cartesian merge writes through the
        3-D view and hands the 2-D view to the enumeration."""
        hit = self._views.get(key)
        if hit is not None and hit[0] == (n1, n2, m):
            return hit[1], hit[2]
        need = n1 * n2 * m
        buf = self._grow(key, need, dtype)
        flat = buf[:need]
        view2 = flat.reshape(n1 * n2, m)
        view3 = flat.reshape(n1, n2, m)
        self._views[key] = ((n1, n2, m), view2, view3)
        return view2, view3

    def merge_views(self, n1: int, n2: int, n_features: int, n_ops: int):
        """Feature and assignment grids for one cartesian merge, as a
        single memoized lookup. Merge shapes recur (and alternate — the
        survivor count tracks the boundary width), so views are kept per
        shape; the common case is one dict hit per merge."""
        key = (n1, n2, n_features, n_ops)
        hit = self._merge_views.get(key)
        if hit is not None:
            return hit
        views = self.grid("features", n1, n2, n_features, np.float64) + self.grid(
            "assignments", n1, n2, n_ops, np.int8
        )
        self._merge_views[key] = views
        return views

    def _grow(self, key: str, need: int, dtype) -> np.ndarray:
        buf = self._bufs.get(key)
        if buf is None or buf.size < need:
            cap = 1024
            while cap < need:
                cap *= 2
            buf = np.empty(cap, dtype=dtype)
            self._bufs[key] = buf
            # A reallocation orphans every view built over the old buffer;
            # drop the multi-shape memo so no stale view is ever returned.
            self._merge_views.clear()
        return buf


def merge_enumerations(
    left: PlanVectorEnumeration,
    right: PlanVectorEnumeration,
    pairs: Tuple[np.ndarray, np.ndarray] = None,
    scratch: MergeScratch = None,
) -> PlanVectorEnumeration:
    """Concatenate two plan vector enumerations (§IV-D op. 6, batched).

    Applies ``merge`` to every pair produced by ``iterate`` in one shot:

    1. add the feature matrices of all pairs;
    2. combine the assignment matrices (scopes are disjoint);
    3. add conversion-operator features on every plan edge that crosses the
       two scopes and lands on differing platforms;
    4. rewrite the scope-static columns with their exact values for the
       merged scope (the generalization of the paper's pipeline-max rule).

    Step 3 is the pair-coded kernel: each crossing edge carries a dense
    delta table indexed by ``(src+1)*(k+1)+(dst+1)``, so the per-edge work
    is one gather plus one in-place add over the conversion-block columns —
    no per-platform-pair boolean masks. Same-platform codes hit all-zero
    table rows, which adds exact ``+0.0`` everywhere (conversion cells are
    never ``-0.0``), keeping the result bit-identical to the masked form.

    The merged enumeration inherits its boundary incrementally: only an
    operator on the boundary of ``left`` or ``right`` can be on the
    boundary of the union, so the union's boundary filters the two cached
    boundaries instead of rescanning the whole scope.
    """
    left.check_scope_disjoint(right)
    if left.ctx is not right.ctx:
        raise ScopeError("cannot merge enumerations from different contexts")
    ctx = left.ctx
    n_features = left.features.shape[1]
    if pairs is None:
        # The full cartesian product is a broadcast add — no index gathers.
        # Row a*n2 + b = left row a + right row b, exactly iterate()'s
        # ordering. Disjoint scopes hold -1 outside their scope, so the
        # combined platform index is a + b + 1 (p + -1 + 1 = p;
        # -1 + -1 + 1 = -1); at most one operand is non-negative per
        # column, so the sum stays within int8 without widening.
        n1, n2 = left.n_vectors, right.n_vectors
        n = n1 * n2
        if scratch is None:
            features = np.empty((n, n_features), dtype=np.float64)
            f3 = features.reshape(n1, n2, n_features)
            assignments = np.empty((n, ctx.n_ops), dtype=np.int8)
            a3 = assignments.reshape(n1, n2, ctx.n_ops)
        else:
            features, f3, assignments, a3 = scratch.merge_views(
                n1, n2, n_features, ctx.n_ops
            )
        np.add(left.features[:, None, :], right.features[None, :, :], out=f3)
        np.add(
            left.assignments[:, None, :],
            right.assignments[None, :, :],
            out=a3,
        )
        assignments += 1
    else:
        i, j = pairs
        n = i.shape[0]
        if scratch is None:
            features = left.features[i] + right.features[j]
            assignments = left.assignments[i] + right.assignments[j]
            assignments += 1
        else:
            features = scratch.array("features", (n, n_features), np.float64)
            left.features.take(i, axis=0, out=features)
            rbuf = scratch.array("features_rhs", (n, n_features), np.float64)
            right.features.take(j, axis=0, out=rbuf)
            features += rbuf
            assignments = scratch.array("assignments", (n, ctx.n_ops), np.int8)
            left.assignments.take(i, axis=0, out=assignments)
            abuf = scratch.array("assignments_rhs", (n, ctx.n_ops), np.int8)
            right.assignments.take(j, axis=0, out=abuf)
            assignments += abuf
            assignments += 1

    crossing = ctx.crossing_edges(left.scope, right.scope)
    if crossing:
        lo, hi = ctx.conv_block
        conv_view = features[:, lo:hi]
        kp1 = ctx.schema.k + 1
        for edge in crossing:
            # Pair code (src+1)*(k+1) + (dst+1), with the two +1 shifts
            # folded into one constant add after the multiply.
            if pairs is None:
                # Cartesian product: the edge endpoints live on opposite
                # sides, so the code column is an outer add of two tiny
                # per-side vectors — identical integers to the column
                # arithmetic below, at a fraction of the row count.
                if edge.src in left.scope:
                    base = left.assignments[:, edge.src].astype(np.int64)
                    base *= kp1
                    base += kp1 + 1
                    codes = (
                        base[:, None] + right.assignments[:, edge.dst]
                    ).ravel()
                else:
                    base = right.assignments[:, edge.src].astype(np.int64)
                    base *= kp1
                    base += kp1 + 1
                    codes = (
                        left.assignments[:, edge.dst].astype(np.int64)[:, None]
                        + base
                    ).ravel()
            else:
                codes = assignments[:, edge.src].astype(np.int64)
                codes *= kp1
                codes += assignments[:, edge.dst]
                codes += kp1 + 1
            # A fresh gather beats take(..., out=) for these small batches
            # (NumPy's out= take path is slower than the allocation).
            conv_view += edge.conv_table.take(codes, axis=0)

    scope = left.scope | right.scope
    full_static = ctx.apply_merged_statics(
        features, left, right, scope, crossing
    )
    merged = PlanVectorEnumeration._unchecked(ctx, scope, features, assignments)
    merged._static_full = full_static
    lmax, rmax = left.scope_max(), right.scope_max()
    merged._scope_max = lmax if lmax >= rmax else rmax
    lmin, rmin = left.scope_min(), right.scope_min()
    merged._scope_min = lmin if lmin <= rmin else rmin
    # The two cached boundaries are short, sorted and disjoint (disjoint
    # scopes): a plain Python merge beats concatenate + ndarray sort, and
    # the explicit loop beats any()-over-generator at these sizes.
    candidates = sorted(left.boundary_list() + right.boundary_list())
    neighbours = ctx.op_neighbours
    blist = []
    for o in candidates:
        for x in neighbours[o]:
            if x not in scope:
                blist.append(o)
                break
    merged._blist = blist
    return merged


def merge(
    left: PlanVectorEnumeration,
    right: PlanVectorEnumeration,
    row_left: int,
    row_right: int,
) -> PlanVectorEnumeration:
    """Merge a single pair of plan vectors (§IV-D op. 6, unit form).

    Exposed for completeness and testing; the enumerator always uses the
    batched :func:`merge_enumerations`. ``merge`` is commutative and
    associative — covered by property-based tests.
    """
    i = np.array([row_left], dtype=np.int64)
    j = np.array([row_right], dtype=np.int64)
    return merge_enumerations(left, right, pairs=(i, j))


def unvectorize(
    enumeration: PlanVectorEnumeration, row: int
) -> ExecutionPlan:
    """Translate a plan vector back into an executable plan (§IV-C op. 3).

    Reads the logical plan structure (the LOT), the vector's platform
    assignment, and materializes the conversion operators (the COT) via
    :class:`~repro.rheem.execution_plan.ExecutionPlan`.
    """
    if not enumeration.is_complete:
        missing = set(enumeration.ctx.plan.operators) - enumeration.scope
        raise VectorizationError(
            f"cannot unvectorize a partial plan; missing operators {sorted(missing)}"
        )
    if not 0 <= row < enumeration.n_vectors:
        raise VectorizationError(
            f"row {row} out of range for enumeration of size {enumeration.n_vectors}"
        )
    ctx = enumeration.ctx
    assignment = enumeration.assignment_dict(row)
    return ExecutionPlan(ctx.plan, assignment, ctx.registry)
