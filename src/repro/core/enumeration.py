"""Plan vector enumerations (Def. 1) and the shared enumeration context.

A :class:`PlanVectorEnumeration` ``V = (s, V)`` couples a *scope* ``s`` (the
set of logical operator ids it covers) with a set of plan vectors, stored as
one contiguous feature matrix — plus an *assignments* matrix that records,
for every vector, which platform each in-scope operator runs on. The
assignments matrix is what makes the whole pipeline vectorized: pruning
footprints, conversion deltas on merge, switch counting and ``unvectorize``
are all column slices of it.

The :class:`EnumerationContext` precomputes everything that is per-plan
rather than per-enumeration: feasible platforms per operator, edge metadata
(cardinality, loop membership, the pair-coded conversion delta table) and
the vectorized static-feature kernel. The expensive, plan-independent parts
— the conversion rule table — live one level higher, on the
:class:`~repro.core.features.FeatureSchema`, so a long-lived optimizer (the
serve layer keeps one per worker) pays for them exactly once.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Tuple

import numpy as np

from repro.exceptions import EnumerationError, ScopeError
from repro.core.features import FeatureSchema
from repro.rheem.conversion import conversion_path
from repro.rheem.execution_plan import feasible_platforms
from repro.rheem.logical_plan import LogicalPlan
from repro.rheem.platforms import PlatformRegistry


class EdgeInfo:
    """Precomputed metadata for one plan edge.

    ``conv_table`` is the dense pair-coded conversion delta table of shape
    ``((k+1)**2, n_conv_cols)``: row ``(pi+1)*(k+1)+(pj+1)`` is the feature
    delta (over the conversion-block columns) of running the producer on
    platform ``pi`` and the consumer on ``pj``. Same-platform rows are all
    zero, so ``merge`` applies one gather + one in-place add per crossing
    edge with no masking.

    ``deltas`` exposes the legacy sparse view — ``{(pi, pj): (columns,
    values)}`` over absolute feature columns — reconstructed lazily for
    introspection and differential tests; the hot path never touches it.
    """

    __slots__ = (
        "src",
        "dst",
        "cardinality",
        "in_loop",
        "iterations",
        "conv_table",
        "loses_head",
        "_schema",
        "_deltas",
    )

    def __init__(
        self,
        src: int,
        dst: int,
        cardinality: float,
        in_loop: bool,
        iterations: int,
        conv_table: np.ndarray,
        schema: FeatureSchema,
    ):
        self.src = src
        self.dst = dst
        self.cardinality = cardinality
        self.in_loop = in_loop
        self.iterations = iterations
        self.conv_table = conv_table
        # Whether merging across this edge dissolves exactly one pipeline
        # head (chain child joining its sole eligible parent). Filled in
        # when the static kernel is built; see EnumerationContext._kernel.
        self.loses_head = False
        self._schema = schema
        self._deltas: Optional[Dict] = None

    @property
    def deltas(self) -> Dict[Tuple[int, int], Tuple[np.ndarray, np.ndarray]]:
        if self._deltas is None:
            schema = self._schema
            registry = schema.registry
            k = len(registry)
            deltas: Dict[Tuple[int, int], Tuple[np.ndarray, np.ndarray]] = {}
            moved = self.cardinality * self.iterations
            for pi in range(k):
                for pj in range(k):
                    if pi == pj:
                        continue
                    steps = conversion_path(
                        registry[pi], registry[pj], in_loop=self.in_loop
                    )
                    cols: List[int] = []
                    vals: List[float] = []
                    for step in steps:
                        p_idx = registry.index(step.platform)
                        cols.append(schema.conv_platform_cell(step.kind, p_idx))
                        vals.append(1.0)
                        cols.append(schema.conv_input_card_cell(step.kind))
                        vals.append(moved)
                        cols.append(schema.conv_output_card_cell(step.kind))
                        vals.append(moved)
                    if cols:
                        deltas[(pi, pj)] = (
                            np.asarray(cols, dtype=np.int64),
                            np.asarray(vals, dtype=np.float64),
                        )
            self._deltas = deltas
        return self._deltas

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"EdgeInfo({self.src} -> {self.dst}, card={self.cardinality})"


class _OpArrays:
    """Columnar per-operator metadata shared by the per-run kernels.

    Both the static kernel and the singleton-delta builder need the same
    handful of per-operator scalars; materializing them once per context
    (with per-kind memoization for the kind-derived ones) keeps the
    amortized setup of an optimization run to a single pass over the
    operators.
    """

    __slots__ = (
        "kind_base",
        "in_card",
        "out_card",
        "udf",
        "juncture",
        "amortized",
        "in_loop",
        "iterations",
    )

    def __init__(self, plan: LogicalPlan, schema: FeatureSchema, cards):
        n = plan.n_operators
        ops = plan.operators
        kind_base = np.empty(n, dtype=np.int64)
        udf = np.empty(n, dtype=np.float64)
        juncture = np.empty(n, dtype=bool)
        amortized = np.empty(n, dtype=bool)
        kind_cache: Dict[str, Tuple[int, bool, bool]] = {}
        for i in range(n):
            op = ops[i]
            kind_name = op.kind_name
            meta = kind_cache.get(kind_name)
            if meta is None:
                meta = (
                    schema.kind_offset(kind_name),
                    op.kind.arity_in >= 2,
                    kind_name in ("Sample", "ShufflePartitionSample"),
                )
                kind_cache[kind_name] = meta
            kind_base[i] = meta[0]
            juncture[i] = meta[1]
            amortized[i] = meta[2]
            udf[i] = float(int(op.udf_complexity))
        self.kind_base = kind_base
        self.udf = udf
        self.juncture = juncture
        self.amortized = amortized
        self.in_card = np.array([cards[i][0] for i in range(n)], dtype=np.float64)
        self.out_card = np.array([cards[i][1] for i in range(n)], dtype=np.float64)
        if plan.loops:
            self.in_loop = np.array(
                [plan.in_loop(i) for i in range(n)], dtype=bool
            )
            self.iterations = np.array(
                [float(plan.loop_iterations(i)) for i in range(n)]
            )
        else:
            self.in_loop = np.zeros(n, dtype=bool)
            self.iterations = np.ones(n, dtype=np.float64)


def compute_boundary(ctx: "EnumerationContext", scope: FrozenSet[int]) -> np.ndarray:
    """Sorted ids of the boundary operators of a scope (§IV-E, Def. 2).

    A boundary operator is adjacent (via any plan edge) to an operator
    outside the scope. This is the single implementation behind both
    :meth:`PlanVectorEnumeration.boundary_ids` and
    :func:`repro.core.pruning.boundary_operators`.
    """
    scope = frozenset(scope)
    neighbours = ctx.op_neighbours
    boundary = [
        i for i in scope if any(n not in scope for n in neighbours[i])
    ]
    boundary.sort()
    return np.array(boundary, dtype=np.int64)


class _StaticKernel:
    """Vectorized scope-static feature computation for one plan.

    Reproduces :meth:`FeatureSchema.static_features` bit-identically: each
    feature cell receives at most one contribution per operator, and the
    single fused ``np.bincount`` accumulates contributions in ascending
    operator-id order — exactly the summation order of the (sorted)
    reference loop. Everything scope-dependent reduces to one boolean mask
    and a handful of array reductions, which turns the per-merge static
    rewrite from ~O(scope) Python into a few microseconds of NumPy.
    """

    def __init__(
        self, plan: LogicalPlan, schema: FeatureSchema, ctx: "EnumerationContext"
    ):
        n = plan.n_operators
        k = schema.k
        self.n_features = schema.n_features
        self.tuple_size_cell = schema.tuple_size_cell
        self.loop_iterations_cell = schema.loop_iterations_cell

        meta = ctx._op_arrays()
        kind_base = meta.kind_base
        in_card = meta.in_card
        out_card = meta.out_card
        udf = meta.udf
        juncture = meta.juncture
        in_loop = meta.in_loop
        replicate = np.fromiter(
            (len(ctx.op_children[i]) >= 2 for i in range(n)), dtype=bool, count=n
        )
        self.juncture = juncture
        self.replicate = replicate
        # Chain membership is intrinsic to the operator (the in-scope
        # consumer bound is implied by the full-plan one), so pipeline
        # counting reduces to counting chain *heads* against a static
        # parent-eligibility flag.
        eligible = ~juncture & ~replicate
        self.eligible = eligible
        parent_idx = np.zeros(n, dtype=np.int64)
        parent_eligible = np.zeros(n, dtype=bool)
        exact = True
        for i in range(n):
            parents = ctx.op_parents[i]
            if len(parents) == 1:
                parent_idx[i] = parents[0]
                parent_eligible[i] = bool(eligible[parents[0]])
            elif len(parents) >= 2 and eligible[i]:
                # A chain-eligible operator with several parents makes the
                # head rule scope-dependent in a way this kernel does not
                # model (the reference counts *in-scope* parents). Plans
                # built through the normal arity-checked builders never hit
                # this; fall back to the reference implementation if one
                # does rather than risk a divergent static vector.
                exact = False
        self.parent_idx = parent_idx
        self.parent_eligible = parent_eligible
        self.exact = exact
        self._plan = plan
        self._schema = schema

        self.has_loops = bool(plan.loops)
        if plan.loops:
            self.loop_member = np.array(
                [[i in spec.body for i in range(n)] for spec in plan.loops],
                dtype=bool,
            ).reshape(len(plan.loops), n)
        else:
            self.loop_member = np.zeros((0, n), dtype=bool)
        self.loop_iterations = np.array(
            [float(spec.iterations) for spec in plan.loops], dtype=np.float64
        )

        primary = np.where(juncture, 1, np.where(replicate, 2, 0))
        dummy = self.n_features  # weight-0 sink cell, trimmed after bincount
        loop_col = np.where(in_loop, kind_base + 1 + k + 3, dummy)
        zeros = np.zeros(n, dtype=np.int64)
        self.contrib_cols = np.stack(
            [
                kind_base,  # op total
                kind_base + 1 + k + primary,  # primary topology membership
                loop_col,  # loop topology membership (dummy outside loops)
                kind_base + 5 + k,  # udf sum
                kind_base + 6 + k,  # input cardinality sum
                kind_base + 7 + k,  # output cardinality sum
                zeros,  # chain eligibility -> pipeline cell (heads fix-up)
                zeros + 1,  # juncture count
                zeros + 2,  # replicate count
            ],
            axis=1,
        )
        self.contrib_wts = np.stack(
            [
                np.ones(n),
                np.ones(n),
                in_loop.astype(np.float64),
                udf,
                in_card,
                out_card,
                eligible.astype(np.float64),
                juncture.astype(np.float64),
                replicate.astype(np.float64),
            ],
            axis=1,
        )
        # Non-head eligibles: chain-eligible with an eligible sole parent;
        # heads(S) = sum(eligible in S) - #those whose parent is also in S.
        self.chained = eligible & parent_eligible
        # When every chained operator's parent has a smaller id (true for
        # plans built in topological construction order), membership of the
        # parent in a contiguous scope [lo, hi] collapses to ``parent >=
        # lo``: one comparison against this precomputed vector (-1 for
        # non-chained operators, excluded since lo >= 0).
        chained_ids = np.flatnonzero(self.chained)
        self.chain_parents_below = bool(
            (parent_idx[chained_ids] < chained_ids).all()
        )
        self.chain_parent = np.where(self.chained, parent_idx, -1)
        # Order-sensitive accumulated cells: the per-kind udf/cardinality
        # sums are the only static cells whose float accumulation depends
        # on summation order (every other accumulated cell sums small
        # integers, which IEEE addition reproduces exactly in any order).
        # Keeping their contributing operators and values as plain Python
        # lists lets a merge refold just these cells sequentially —
        # ``sum()`` performs the identical left fold from the same +0.0
        # start as the bincount — instead of re-running the whole kernel.
        by_kind: Dict[int, List[int]] = {}
        for i in range(n):
            by_kind.setdefault(int(kind_base[i]), []).append(i)
        card_cells: List[int] = []
        card_kinds: List[Tuple[List[int], Tuple[List[float], ...]]] = []
        for kb in sorted(by_kind):
            ids = by_kind[kb]
            # counts[h] = how many of this kind's operators have id <= h:
            # O(1) range membership instead of a bisect per refold.
            indicator = np.zeros(n, dtype=np.int64)
            indicator[ids] = 1
            counts = np.cumsum(indicator).tolist()
            card_cells += [kb + 5 + k, kb + 6 + k, kb + 7 + k]
            card_kinds.append(
                (
                    counts,
                    tuple(col[ids].tolist() for col in (udf, in_card, out_card)),
                )
            )
        self.card_cells = np.asarray(card_cells, dtype=np.int64)
        self.card_kinds = card_kinds
        #: lo -> (hi, folds): the latest refold per range start, so a scope
        #: that grows upward extends the previous sequential fold instead
        #: of restarting it (same addition chain, so bit-identical).
        self._refold_cache: Dict[int, Tuple[int, List[float]]] = {}
        self.tuple_sizes = np.zeros(n, dtype=np.float64)
        for i, profile in plan.datasets.items():
            self.tuple_sizes[i] = profile.tuple_size
        self.n_ops = n
        self._singleton_statics: Optional[np.ndarray] = None

    def refold_cards(self, lo: int, hi: int) -> List[float]:
        """Exact sequential sums of the order-sensitive cells over [lo, hi].

        One value per entry of :attr:`card_cells`. The left fold over the
        ascending-id value slice performs the same addition chain (from the
        same ``+0.0`` start) as the kernel bincount, so each result is
        bit-identical to the corresponding cell of :meth:`static_vector`
        for the contiguous scope ``[lo, hi]``. A cached fold for the same
        ``lo`` and a smaller ``hi`` is extended in place of restarting —
        the continuation performs the identical remaining additions.
        """
        hit = self._refold_cache.get(lo)
        out: List[float] = []
        if hit is not None and hit[0] <= hi:
            hi0, base = hit
            idx = 0
            for counts, vals3 in self.card_kinds:
                j0 = counts[hi0]
                j = counts[hi]
                if j0 == j:
                    out += base[idx : idx + 3]
                else:
                    for off, vals in enumerate(vals3):
                        s = base[idx + off]
                        for x in vals[j0:j]:
                            s += x
                        out.append(s)
                idx += 3
        else:
            for counts, vals3 in self.card_kinds:
                i = counts[lo - 1] if lo else 0
                j = counts[hi]
                for vals in vals3:
                    out.append(sum(vals[i:j]) if i != j else 0.0)
        self._refold_cache[lo] = (hi, out)
        return out

    def singleton_statics(self) -> np.ndarray:
        """Static vectors of all singleton scopes, one row per operator.

        Row ``i`` is bit-identical to ``static_vector(frozenset({i}))``:
        every cell holds a single contribution (``0 + w``, the same float
        the per-scope bincount produces), and the topology cells reduce to
        per-operator flags — a singleton's pipeline count is its chain
        eligibility (it has no in-scope parent), valid even for plans where
        the merged-scope head rule falls back to the reference.
        """
        if self._singleton_statics is None:
            n = self.n_ops
            m = np.zeros((n, self.n_features + 1), dtype=np.float64)
            m[np.arange(n)[:, None], self.contrib_cols] += self.contrib_wts
            m = np.ascontiguousarray(m[:, : self.n_features])
            m[:, 0] = self.eligible
            m[:, 1] = self.juncture
            m[:, 2] = self.replicate
            if self.loop_member.shape[0]:
                m[:, 3] = self.loop_member.sum(axis=0)
                m[:, self.loop_iterations_cell] = (
                    self.loop_iterations @ self.loop_member
                )
            m[:, self.tuple_size_cell] = self.tuple_sizes
            self._singleton_statics = m
        return self._singleton_statics

    def static_vector(self, scope: FrozenSet[int], lohi=None) -> np.ndarray:
        if not self.exact:
            return self._schema.static_features(self._plan, scope)
        if not scope:
            return np.zeros(self.n_features, dtype=np.float64)
        # Contiguous id ranges (every scope of a chain-shaped plan) index
        # by slice: same ascending-id lane order as the sorted gather, so
        # the bincount sums the identical float sequence, without the
        # fromiter/sort and the two fancy row gathers. Callers that track
        # scope extrema pass them via ``lohi`` to skip the O(scope) min/max.
        lo, hi = lohi if lohi is not None else (min(scope), max(scope))
        if hi - lo + 1 == len(scope):
            sl = slice(lo, hi + 1)
            v = np.bincount(
                self.contrib_cols[sl].ravel(),
                weights=self.contrib_wts[sl].ravel(),
                minlength=self.n_features + 1,
            )[: self.n_features]
            # The bincount lanes already summed chain eligibility into the
            # pipeline cell; demote eligibles whose sole (eligible) parent
            # is also in scope — integer arithmetic, exact. Membership in a
            # contiguous scope is a range check on the parent id (one
            # comparison when parents precede children by construction).
            if self.chain_parents_below:
                lost = np.count_nonzero(self.chain_parent[sl] >= lo)
                if lost:
                    v[0] -= lost
            else:
                chained = self.chained[sl]
                if chained.any():
                    parents = self.parent_idx[sl]
                    v[0] -= np.count_nonzero(
                        chained & (parents >= lo) & (parents <= hi)
                    )
            ids = sl
        else:
            ids = np.fromiter(scope, dtype=np.int64, count=len(scope))
            ids.sort()
            v = np.bincount(
                self.contrib_cols[ids].ravel(),
                weights=self.contrib_wts[ids].ravel(),
                minlength=self.n_features + 1,
            )[: self.n_features]
            chained = self.chained[ids]
            if chained.any():
                mask = np.zeros(self.n_ops, dtype=bool)
                mask[ids] = True
                v[0] -= np.count_nonzero(chained & mask[self.parent_idx[ids]])
        if self.loop_member.shape[0]:
            present = self.loop_member[:, ids].any(axis=1)
            v[3] = np.count_nonzero(present)
            v[self.loop_iterations_cell] = self.loop_iterations[present].sum()
        v[self.tuple_size_cell] = self.tuple_sizes[ids].max(initial=0.0)
        return v


class EnumerationContext:
    """Per-plan state shared by all enumerations of one optimization run."""

    def __init__(
        self,
        plan: LogicalPlan,
        registry: PlatformRegistry,
        schema: Optional[FeatureSchema] = None,
    ):
        self.plan = plan
        self.registry = registry
        self.schema = schema if schema is not None else FeatureSchema(registry)
        if list(self.schema.registry.names) != list(registry.names):
            raise EnumerationError("schema registry does not match plan registry")
        self.n_ops = plan.n_operators
        #: feasible platform indices per operator id (shared per kind —
        #: feasibility depends only on the operator kind)
        kind_alts: Dict[str, np.ndarray] = {}
        self.alternatives: Dict[int, np.ndarray] = {}
        for op_id, op in plan.operators.items():
            alts = kind_alts.get(op.kind_name)
            if alts is None:
                alts = np.array(
                    [
                        registry.index(name)
                        for name in feasible_platforms(plan, registry, op_id)
                    ],
                    dtype=np.int8,
                )
                kind_alts[op.kind_name] = alts
            self.alternatives[op_id] = alts
        # Cardinalities are per-plan, not per-edge: estimate them once here
        # instead of re-deriving the full map inside every _edge_info call.
        self._cards = plan.cardinalities()
        self._op_meta: Optional[_OpArrays] = None
        #: [lo, hi) feature-column range of the conversion blocks
        self.conv_block = self.schema.conv_block_bounds()
        self._conv_tables = self.schema.conversion_tables()
        self.edges: List[EdgeInfo] = self._build_edges(plan.edges)
        self._edges_by_pair: Dict[Tuple[int, int], EdgeInfo] = {
            (e.src, e.dst): e for e in self.edges
        }
        # Per-operator edge index so crossing_edges can walk one scope's
        # incident edges instead of scanning every plan edge per merge.
        self._edges_by_op: Dict[int, List[EdgeInfo]] = {
            op_id: [] for op_id in plan.operators
        }
        for e in self.edges:
            self._edges_by_op[e.src].append(e)
            self._edges_by_op[e.dst].append(e)
        self._static_cache: Dict[FrozenSet[int], np.ndarray] = {}
        self._static_vals_cache: Dict[FrozenSet[int], np.ndarray] = {}
        self._loop_present_cache: Dict[FrozenSet[int], np.ndarray] = {}
        self._static_kernel: Optional[_StaticKernel] = None
        self._static_cols = np.flatnonzero(self.schema.static_mask)
        self._singleton_cols: Optional[np.ndarray] = None
        self._singleton_vals: Optional[np.ndarray] = None
        self._singleton_rows: Dict[int, Tuple[int, int]] = {}
        self._singleton_ops: Optional[np.ndarray] = None
        self._singleton_alts: Optional[np.ndarray] = None
        self._singleton_counts: Optional[np.ndarray] = None
        # Adjacency over operator ids (forward edges), used for boundaries.
        # Shared read-only maps memoized on the plan (one copy per plan,
        # not per optimization run).
        self.op_children, self.op_parents, self.op_neighbours = plan.adjacency()

    def _op_arrays(self) -> _OpArrays:
        """Cached columnar per-operator metadata (see :class:`_OpArrays`)."""
        if self._op_meta is None:
            self._op_meta = _OpArrays(self.plan, self.schema, self._cards)
        return self._op_meta

    def _kernel(self) -> _StaticKernel:
        """The per-plan static-feature kernel, built on first use."""
        if self._static_kernel is None:
            kernel = _StaticKernel(self.plan, self.schema, self)
            self._static_kernel = kernel
            if kernel.exact:
                # Stamp each edge with whether merging across it dissolves
                # a pipeline head, so the per-merge static fix-up is a
                # plain attribute read instead of three array lookups.
                eligible = kernel.eligible
                parent_eligible = kernel.parent_eligible
                parent_idx = kernel.parent_idx
                for e in self.edges:
                    c = e.dst
                    e.loses_head = bool(
                        eligible[c]
                        and parent_eligible[c]
                        and parent_idx[c] == e.src
                    )
        return self._static_kernel

    def _build_edges(self, plan_edges: List[Tuple[int, int]]) -> List[EdgeInfo]:
        """All :class:`EdgeInfo` objects, conversion tables built batched.

        The schema-level table is per platform pair; each edge only adds
        its data volume, so all same-``in_loop`` edges share one broadcast
        ``base + volume[:, None, None] * scale`` — elementwise the same
        scale-and-copy as the per-edge form (bit-identical), at one NumPy
        call per loop flag instead of two per edge.
        """
        if not plan_edges:
            return []
        cards = self._cards
        if not self.plan.loops:
            # Loop-free plans (the common case): every edge has in_loop
            # False and one iteration, so the per-edge metadata loop
            # collapses to a cardinality gather plus the shared broadcast.
            vols = [cards[u][1] for u, _ in plan_edges]
            base, scale = self._conv_tables[False]
            vol = np.array(vols, dtype=np.float64)
            batch = base[None] + vol[:, None, None] * scale[None]
            return [
                EdgeInfo(u, v, vols[i], False, 1, batch[i], self.schema)
                for i, (u, v) in enumerate(plan_edges)
            ]
        meta = self._op_arrays()
        volumes = []
        flags = []
        iters = []
        for u, v in plan_edges:
            in_loop = bool(meta.in_loop[u]) and bool(meta.in_loop[v])
            iterations = int(min(meta.iterations[u], meta.iterations[v]))
            volumes.append(cards[u][1] * iterations)
            flags.append(in_loop)
            iters.append(iterations)
        tables: List[Optional[np.ndarray]] = [None] * len(plan_edges)
        for flag in (False, True):
            idx = [i for i, f in enumerate(flags) if f is flag]
            if not idx:
                continue
            base, scale = self._conv_tables[flag]
            vol = np.array([volumes[i] for i in idx], dtype=np.float64)
            batch = base[None] + vol[:, None, None] * scale[None]
            for j, i in enumerate(idx):
                tables[i] = batch[j]
        return [
            EdgeInfo(
                u, v, cards[u][1], flags[i], iters[i], tables[i], self.schema
            )
            for i, (u, v) in enumerate(plan_edges)
        ]

    def edge(self, u: int, v: int) -> EdgeInfo:
        try:
            return self._edges_by_pair[(u, v)]
        except KeyError:
            raise EnumerationError(f"({u}, {v}) is not a plan edge") from None

    def static_features(self, scope: FrozenSet[int]) -> np.ndarray:
        """Cached scope-static feature vector for a scope."""
        scope = frozenset(scope)
        hit = self._static_cache.get(scope)
        if hit is None:
            kernel = self._kernel()
            if len(scope) == 1:
                (op_id,) = scope
                hit = kernel.singleton_statics()[op_id]
            else:
                hit = kernel.static_vector(scope)
            self._static_cache[scope] = hit
        return hit

    def static_rewrite_values(self, scope: FrozenSet[int]) -> np.ndarray:
        """The scope's static vector restricted to the static columns.

        ``merge`` rewrites exactly these cells on every concatenation, so
        the (scope-keyed) restriction is cached alongside the full vector.
        """
        scope = frozenset(scope)
        hit = self._static_vals_cache.get(scope)
        if hit is None:
            hit = self.static_features(scope)[self._static_cols]
            self._static_vals_cache[scope] = hit
        return hit

    @property
    def static_cols(self) -> np.ndarray:
        """Indices of the scope-static feature columns."""
        return self._static_cols

    def apply_merged_statics(
        self,
        features: np.ndarray,
        left: "PlanVectorEnumeration",
        right: "PlanVectorEnumeration",
        scope: FrozenSet[int],
        crossing: List[EdgeInfo],
    ) -> np.ndarray:
        """Write the merged scope's exact static values into ``features``.

        Returns the full static vector of the union scope so the caller
        can attach it to the merged enumeration (see
        :attr:`PlanVectorEnumeration._static_full`).

        When the incremental path applies *and* both operands carry their
        own attached static vectors (so their feature rows are known to
        hold those exact values), the broadcast add already produced the
        bit-exact merged statics in every additive cell — only the handful
        of non-additive cells (pipeline heads, loop membership/iterations,
        tuple-size max) are patched, instead of rewriting all static
        columns.
        """
        kernel = self._static_kernel
        if kernel is None:
            kernel = self._kernel()
        full, additive, lost, card_vals = self._merged_static_info(
            left, right, scope, crossing
        )
        if additive:
            if lost:
                features[:, 0] -= lost
            if card_vals is not None:
                features[:, kernel.card_cells] = card_vals
            if kernel.has_loops:
                features[:, 3] = full[3]
                features[:, kernel.loop_iterations_cell] = full[
                    kernel.loop_iterations_cell
                ]
            features[:, kernel.tuple_size_cell] = full[kernel.tuple_size_cell]
        else:
            features[:, self._static_cols] = full[self._static_cols]
        return full

    def _merged_static_info(
        self,
        left: "PlanVectorEnumeration",
        right: "PlanVectorEnumeration",
        scope: FrozenSet[int],
        crossing: List[EdgeInfo],
    ) -> Tuple[np.ndarray, bool, int, Optional[np.ndarray]]:
        """``(union static vector, additive?, lost heads, card refolds)``.

        The vector is bit-identical to the kernel's. When both sides cover
        contiguous id ranges and the ranges are adjacent (every merge the
        priority enumerator performs on a chain-shaped plan), the union's
        canonical ascending-id fold decomposes as ``a + b`` plus targeted
        patches:

        * every count cell sums small non-negative integers, which IEEE
          addition reproduces exactly in *any* order — ``a + b`` is the
          canonical value bit-for-bit (cells one side does not touch see
          ``x + 0.0 == x``; accumulated cells are never ``-0.0``);
        * the order-sensitive per-kind udf/cardinality sums are refolded
          sequentially over the union range (``card_vals``, see
          :meth:`_StaticKernel.refold_cards`) — except when the upper side
          is a single operator, where ``a + b`` already *is* the ascending
          fold (lower side's fold, then one more addition);
        * pipeline heads: a head is lost exactly when a crossing edge
          connects an eligible chain child to its sole, eligible parent —
          integer arithmetic, exact;
        * loop membership/iterations are recomputed from the union's
          spec-presence mask, and the tuple-size maximum is order-free.

        Anything else — non-contiguous scopes, plans where the head rule
        is scope-dependent — falls through to the kernel.

        ``additive`` is True only when both operands carry attached static
        vectors — the guarantee that their feature rows hold exactly these
        statics, which is what lets a caller patch instead of rewrite.
        """
        kernel = self._static_kernel
        if kernel.exact:
            lmin, lmax = left.scope_min(), left.scope_max()
            rmin, rmax = right.scope_min(), right.scope_max()
            if (
                lmax - lmin + 1 == len(left.scope)
                and rmax - rmin + 1 == len(right.scope)
                and (lmax + 1 == rmin or rmax + 1 == lmin)
            ):
                a = left._static_full
                b = right._static_full
                additive = a is not None and b is not None
                if a is None:
                    a = self.static_features(left.scope)
                if b is None:
                    b = self.static_features(right.scope)
                v = a + b
                if lmin < rmin:
                    upper_single = rmin == rmax
                    lo, hi = lmin, rmax
                else:
                    upper_single = lmin == lmax
                    lo, hi = rmin, lmax
                card_vals = None
                if not upper_single:
                    card_vals = np.asarray(kernel.refold_cards(lo, hi))
                    v[kernel.card_cells] = card_vals
                lost = 0
                for e in crossing:
                    if e.loses_head:
                        lost += 1
                if lost:
                    v[0] = a[0] + b[0] - lost
                if kernel.has_loops:
                    present = self._loop_present(left.scope) | self._loop_present(
                        right.scope
                    )
                    self._loop_present_cache[scope] = present
                    v[3] = float(np.count_nonzero(present))
                    v[kernel.loop_iterations_cell] = kernel.loop_iterations[
                        present
                    ].sum()
                ts = kernel.tuple_size_cell
                v[ts] = a[ts] if a[ts] >= b[ts] else b[ts]
                return v, additive, lost, card_vals
        lmin, rmin = left.scope_min(), right.scope_min()
        lmax, rmax = left.scope_max(), right.scope_max()
        full = kernel.static_vector(
            scope,
            lohi=(
                lmin if lmin <= rmin else rmin,
                lmax if lmax >= rmax else rmax,
            ),
        )
        return full, False, 0, None

    def _loop_present(self, scope: FrozenSet[int]) -> np.ndarray:
        """Which loop specs have at least one body operator in the scope."""
        hit = self._loop_present_cache.get(scope)
        if hit is None:
            ids = np.fromiter(scope, dtype=np.int64, count=len(scope))
            hit = self._static_kernel.loop_member[:, ids].any(axis=1)
            self._loop_present_cache[scope] = hit
        return hit

    def singleton_delta(self, op_id: int) -> Tuple[np.ndarray, np.ndarray]:
        """Stacked assignment deltas of one operator across its alternatives.

        Returns ``(cols, vals)`` of shape ``(n_alternatives, 8)``: row ``r``
        holds the feature columns/values of placing the operator on its
        ``r``-th feasible platform (exactly
        :meth:`FeatureSchema.op_assignment_delta`, padded with weight-0
        entries pointing at column 0 for the loop cells of non-loop
        operators). One fancy scatter-add instantiates a whole singleton
        enumeration.
        """
        if self._singleton_cols is None:
            self._build_singleton_deltas()
        start, stop = self._singleton_rows[op_id]
        return self._singleton_cols[start:stop], self._singleton_vals[start:stop]

    def singleton_enumerations(self) -> List["PlanVectorEnumeration"]:
        """All singleton enumerations, built in one batched pass.

        Bit-identical to calling
        :func:`repro.core.operations.enumerate_singleton` per operator
        (same per-row static base, same scatter-added delta lanes), but the
        whole plan costs two matrix allocations and two fancy scatters
        instead of one tile + scatter + fill per operator. The returned
        enumerations view two shared backing matrices; ``select`` (and
        therefore ``prune``) copies on the way out, so the views are safe.
        """
        if self._singleton_cols is None:
            self._build_singleton_deltas()
        statics = self._kernel().singleton_statics()
        n = self.n_ops
        total = self._singleton_ops.shape[0]
        rows = np.arange(total, dtype=np.int64)
        features = np.repeat(statics, self._singleton_counts, axis=0)
        features[rows[:, None], self._singleton_cols] += self._singleton_vals
        assignments = np.full((total, n), -1, dtype=np.int8)
        assignments[rows, self._singleton_ops] = self._singleton_alts
        out: List[PlanVectorEnumeration] = []
        for i in range(n):
            start, stop = self._singleton_rows[i]
            enum = PlanVectorEnumeration._unchecked(
                self,
                frozenset((i,)),
                features[start:stop],
                assignments[start:stop],
            )
            enum._scope_max = i
            enum._scope_min = i
            enum._static_full = statics[i]
            # A singleton's boundary is itself whenever it has any plan
            # neighbour (which is then necessarily outside the scope).
            enum._blist = [i] if self.op_neighbours[i] else []
            out.append(enum)
        return out

    def _build_singleton_deltas(self) -> None:
        plan, schema = self.plan, self.schema
        k = schema.k
        n = self.n_ops
        alt_arrays = [self.alternatives[i] for i in range(n)]
        counts = np.array([a.size for a in alt_arrays], dtype=np.int64)
        stops = np.cumsum(counts)
        starts = stops - counts
        self._singleton_rows = {
            i: (int(starts[i]), int(stops[i])) for i in range(n)
        }
        op_rep = np.repeat(np.arange(n, dtype=np.int64), counts)
        alt_p = np.concatenate(alt_arrays).astype(np.int64) if n else np.zeros(0, np.int64)
        self._singleton_ops = op_rep
        self._singleton_alts = alt_p
        self._singleton_counts = counts

        meta = self._op_arrays()
        kind_base = meta.kind_base
        in_card = meta.in_card
        out_card = meta.out_card
        in_loop = meta.in_loop
        iters = meta.iterations
        tuple_size = plan.average_input_tuple_size() or 100.0
        # Same formulas as FeatureSchema.op_assignment_delta, elementwise.
        loop_work = np.where(
            meta.amortized,
            in_card + (iters - 1.0) * out_card,
            iters * in_card,
        )

        kb = kind_base[op_rep]
        inc = in_card[op_rep]
        outc = out_card[op_rep]
        agg = schema.platform_count_cell(0) + 6 * alt_p
        lanes_in_loop = in_loop[op_rep]
        cols = np.stack(
            [
                kb + 1 + alt_p,  # op-on-platform count
                kb + 8 + k + alt_p,  # per-platform input cardinality
                agg,  # platform operator count
                agg + 1,  # platform input cardinality
                agg + 2,  # platform output cardinality
                agg + 3,  # platform working-set bytes
                np.where(lanes_in_loop, agg + 4, 0),  # loop invocations
                np.where(lanes_in_loop, agg + 5, 0),  # loop work
            ],
            axis=1,
        )
        zeros = np.zeros(op_rep.size)
        vals = np.stack(
            [
                np.ones(op_rep.size),
                inc,
                np.ones(op_rep.size),
                inc,
                outc,
                np.maximum(inc, outc) * tuple_size,
                np.where(lanes_in_loop, iters[op_rep], zeros),
                np.where(lanes_in_loop, loop_work[op_rep], zeros),
            ],
            axis=1,
        )
        self._singleton_cols = cols
        self._singleton_vals = vals

    def crossing_edges(
        self, scope_a: FrozenSet[int], scope_b: FrozenSet[int]
    ) -> List[EdgeInfo]:
        """Plan edges with one endpoint in each scope (either direction).

        Walks the per-operator edge index of the smaller scope — crossing
        edges have exactly one endpoint there (scopes are disjoint during
        enumeration), so each qualifying edge is reported once.
        """
        if len(scope_b) < len(scope_a):
            scope_a, scope_b = scope_b, scope_a
        out = []
        for op_id in scope_a:
            for e in self._edges_by_op[op_id]:
                other = e.dst if e.src == op_id else e.src
                if other in scope_b:
                    out.append(e)
        return out


class PlanVectorEnumeration:
    """A set of plan vectors for one (sub)plan scope (Def. 1).

    Attributes
    ----------
    scope:
        Frozen set of logical operator ids covered.
    features:
        ``(n_vectors, n_features)`` float64 matrix — directly consumable by
        the ML model, no transformation required.
    assignments:
        ``(n_vectors, n_ops)`` int8 matrix of platform indices; ``-1``
        outside the scope.
    """

    __slots__ = (
        "ctx",
        "scope",
        "features",
        "assignments",
        "n_vectors",
        "_boundary",
        "_blist",
        "_costs",
        "_scope_max",
        "_scope_min",
        "_static_full",
    )

    def __init__(
        self,
        ctx: EnumerationContext,
        scope: FrozenSet[int],
        features: np.ndarray,
        assignments: np.ndarray,
    ):
        if features.ndim != 2 or assignments.ndim != 2:
            raise EnumerationError("features/assignments must be 2-D")
        if features.shape[0] != assignments.shape[0]:
            raise EnumerationError(
                f"row mismatch: {features.shape[0]} feature rows vs "
                f"{assignments.shape[0]} assignment rows"
            )
        if assignments.shape[1] != ctx.n_ops:
            raise EnumerationError(
                f"assignments must have one column per plan operator "
                f"({ctx.n_ops}), got {assignments.shape[1]}"
            )
        self.ctx = ctx
        self.scope = frozenset(scope)
        self.features = features
        self.assignments = assignments
        #: row count, fixed at construction (the matrices never resize)
        self.n_vectors = features.shape[0]
        self._boundary: Optional[np.ndarray] = None
        self._blist: Optional[List[int]] = None
        self._costs: Optional[np.ndarray] = None
        self._scope_max: Optional[int] = None
        self._scope_min: Optional[int] = None
        #: the scope's full static feature vector, when the producer knows
        #: the feature rows hold exactly these values (see
        #: ``EnumerationContext.apply_merged_statics``)
        self._static_full: Optional[np.ndarray] = None

    @classmethod
    def _unchecked(
        cls,
        ctx: EnumerationContext,
        scope: FrozenSet[int],
        features: np.ndarray,
        assignments: np.ndarray,
    ) -> "PlanVectorEnumeration":
        """Construct without shape validation (internal hot paths only).

        ``merge``/``select``/the singleton batch build their matrices with
        the correct shapes by construction; skipping the dimension checks
        and the ``frozenset`` re-wrap measurably matters at ~240
        constructions per optimization. ``scope`` must already be a
        frozenset.
        """
        self = object.__new__(cls)
        self.ctx = ctx
        self.scope = scope
        self.features = features
        self.assignments = assignments
        self.n_vectors = features.shape[0]
        self._boundary = None
        self._blist = None
        self._costs = None
        self._scope_max = None
        self._scope_min = None
        self._static_full = None
        return self

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.n_vectors

    @property
    def is_complete(self) -> bool:
        """Whether the scope covers the whole logical plan."""
        return len(self.scope) == self.ctx.n_ops

    def boundary_ids(self) -> np.ndarray:
        """Sorted ids of the scope's boundary operators (cached).

        A boundary operator is adjacent (via any plan edge) to an operator
        outside the scope (§IV-E). Merge products carry their boundary
        incrementally (only former boundary operators can stay on the
        boundary of a union); everything else computes it on first use.
        """
        if self._boundary is None:
            self._boundary = np.array(self.boundary_list(), dtype=np.int64)
        return self._boundary

    def boundary_list(self) -> List[int]:
        """The boundary operator ids as a sorted Python list (cached).

        The enumeration hot paths (prune grouping, the enumerator's
        partner discovery, merge's incremental boundary) all consume the
        boundary element-wise; keeping the list representation native
        avoids an ndarray round-trip per merge.
        """
        if self._blist is None:
            if self._boundary is not None:
                self._blist = self._boundary.tolist()
            else:
                scope = self.scope
                neighbours = self.ctx.op_neighbours
                blist = [
                    i
                    for i in scope
                    if any(n not in scope for n in neighbours[i])
                ]
                blist.sort()
                self._blist = blist
        return self._blist

    def scope_max(self) -> int:
        """Largest operator id in the scope (cached; merges derive it O(1))."""
        if self._scope_max is None:
            self._scope_max = max(self.scope)
        return self._scope_max

    def scope_min(self) -> int:
        """Smallest operator id in the scope (cached like ``scope_max``)."""
        if self._scope_min is None:
            self._scope_min = min(self.scope)
        return self._scope_min

    def cached_costs(self) -> Optional[np.ndarray]:
        """Per-vector oracle costs attached by ``prune`` (None if unset).

        ``prune`` already costs every row it sees; keeping the survivors'
        costs lets the enumerator's final plan selection reuse them instead
        of re-invoking the model on identical feature rows.
        """
        return self._costs

    def select(self, row_indices: np.ndarray) -> "PlanVectorEnumeration":
        """A new enumeration keeping only the given vector rows.

        The result never aliases this enumeration's matrices:
        ``take(axis=0)`` copies by construction (and is measurably faster
        than fancy row indexing for the small survivor batches pruning
        produces). Callers may therefore mutate a selection (or cache it)
        without corrupting the source enumeration, and vice versa.
        """
        features = self.features.take(row_indices, axis=0)
        assignments = self.assignments.take(row_indices, axis=0)
        selected = PlanVectorEnumeration._unchecked(
            self.ctx, self.scope, features, assignments
        )
        # Boundary and scope extrema are pure functions of the (unchanged)
        # scope — hand any cached values to the selection.
        selected._boundary = self._boundary
        selected._blist = self._blist
        selected._scope_max = self._scope_max
        selected._scope_min = self._scope_min
        selected._static_full = self._static_full
        return selected

    def assignment_dict(self, row: int) -> Dict[int, str]:
        """Platform-name assignment of one vector (scope operators only)."""
        names = self.ctx.registry.names
        return {
            op_id: names[int(self.assignments[row, op_id])] for op_id in self.scope
        }

    def switch_counts(self) -> np.ndarray:
        """Per-vector number of platform switches on scope-internal edges."""
        counts = np.zeros(self.n_vectors, dtype=np.int64)
        for e in self.ctx.edges:
            if e.src in self.scope and e.dst in self.scope:
                counts += (
                    self.assignments[:, e.src] != self.assignments[:, e.dst]
                ).astype(np.int64)
        return counts

    def check_scope_disjoint(self, other: "PlanVectorEnumeration") -> None:
        if not self.scope.isdisjoint(other.scope):
            overlap = self.scope & other.scope
            raise ScopeError(
                f"enumeration scopes overlap on operators {sorted(overlap)}"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PlanVectorEnumeration(scope={sorted(self.scope)}, "
            f"n_vectors={self.n_vectors})"
        )
