"""The plan vector: feature layout and encoders (§IV-A).

A plan vector is a fixed-length array of features representing one
execution (sub)plan. The layout, in order:

1. **Topology features** (4 cells): counts of pipeline, juncture, replicate
   and loop topologies in the (sub)plan.
2. **Operator features** (one block per catalog kind, ``2k + 8`` cells for
   ``k`` platforms): total instance count; instance count per platform;
   instance count per topology (pipeline/juncture/replicate/loop
   membership); sum of UDF complexities; sum of input cardinalities; sum
   of output cardinalities; and — a reproduction extension — the input
   cardinality sum *per platform*, so a model can tell a heavy join on a
   single-node database from the same join on a cluster.
3. **Data movement features** (one block per conversion kind,
   ``k + 2`` cells): instance count per platform; sums of input and output
   cardinalities (weighted by loop iterations — a conversion inside a loop
   body moves data every iteration).
4. **Platform aggregate features** (4 cells per platform; reproduction
   extension): operator count, input/output cardinality sums and
   loop-invocation count per platform. The paper's per-kind cells spread
   each platform's total load over dozens of kind blocks; tree-based
   models cannot re-aggregate them, so signals like "this plan pushes
   10^11 tuples through the single-node Java engine" (an out-of-memory
   in the making) stay invisible. These four sums make per-platform load
   a first-class feature while remaining merge-additive.
5. **Dataset features** (2 cells): maximum input tuple size over the
   (sub)plan's sources, and the total number of loop iterations. The
   second cell is also an extension: the paper's workloads sweep the
   number of iterations (Fig. 12), so the model must see it.

A key structural fact this module exploits: for a fixed enumeration *scope*
(set of operator ids), every feature except the per-platform operator
counts and the conversion blocks is identical across all plan vectors of
the enumeration. We call those columns *scope-static*. ``merge`` adds
feature matrices (as in the paper) and then rewrites the scope-static
columns with their exact values for the merged scope, which generalizes the
paper's "keep the max of the two pipeline cells" rule.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

import numpy as np

from repro.exceptions import VectorizationError
from repro.rheem.conversion import CONVERSION_KINDS
from repro.rheem.execution_plan import ExecutionPlan
from repro.rheem.logical_plan import LogicalPlan
from repro.rheem.operators import KIND_NAMES
from repro.rheem.platforms import PlatformRegistry

#: Topology order inside topology cells and per-kind topology sub-blocks.
TOPOLOGIES = ("pipeline", "juncture", "replicate", "loop")


class FeatureSchema:
    """Fixed plan-vector layout for one platform registry.

    The schema depends only on the registry (platform count and order) and
    the global operator/conversion catalogs, so one schema serves every
    plan optimized against that registry — and the ML model trained on it.
    """

    def __init__(
        self,
        registry: PlatformRegistry,
        kind_names: Tuple[str, ...] = KIND_NAMES,
        conversion_kinds: Tuple[str, ...] = CONVERSION_KINDS,
    ):
        self.registry = registry
        self.kind_names = tuple(kind_names)
        self.conversion_kinds = tuple(conversion_kinds)
        k = len(registry)
        self.k = k

        self._kind_offset: Dict[str, int] = {}
        self._conv_offset: Dict[str, int] = {}

        cursor = 4  # topology cells occupy [0, 4)
        self._op_block_size = 2 * k + 8
        for name in self.kind_names:
            self._kind_offset[name] = cursor
            cursor += self._op_block_size
        self._conv_block_size = k + 2
        for name in self.conversion_kinds:
            self._conv_offset[name] = cursor
            cursor += self._conv_block_size
        # Per-platform aggregate block (reproduction extension, see module
        # docstring): operator count, input/output cardinality sums,
        # working-set bytes, loop-invocation count and loop work per
        # platform. These summarize the load each platform carries, which
        # tree models cannot reassemble from the per-kind cells alone.
        self._platform_agg_offset = cursor
        self._platform_agg_cells = 6
        cursor += self._platform_agg_cells * k
        self.tuple_size_cell = cursor
        self.loop_iterations_cell = cursor + 1
        self.n_features = cursor + 2

        self._static_mask = self._build_static_mask()

    # ------------------------------------------------------------------
    # Layout accessors
    # ------------------------------------------------------------------
    def kind_offset(self, kind_name: str) -> int:
        """Start column of an operator kind's block."""
        try:
            return self._kind_offset[kind_name]
        except KeyError:
            raise VectorizationError(
                f"operator kind {kind_name!r} is not in the schema"
            ) from None

    def op_total_cell(self, kind_name: str) -> int:
        return self.kind_offset(kind_name)

    def op_platform_cell(self, kind_name: str, platform_idx: int) -> int:
        return self.kind_offset(kind_name) + 1 + platform_idx

    def op_topology_cell(self, kind_name: str, topology_idx: int) -> int:
        return self.kind_offset(kind_name) + 1 + self.k + topology_idx

    def op_udf_cell(self, kind_name: str) -> int:
        return self.kind_offset(kind_name) + 5 + self.k

    def op_input_card_cell(self, kind_name: str) -> int:
        return self.kind_offset(kind_name) + 6 + self.k

    def op_output_card_cell(self, kind_name: str) -> int:
        return self.kind_offset(kind_name) + 7 + self.k

    def op_platform_in_card_cell(self, kind_name: str, platform_idx: int) -> int:
        """Input-cardinality sum of this kind's instances on one platform.

        A reproduction extension: the paper's per-kind cardinality sums are
        platform-agnostic, so a model cannot tell a heavy join placed on a
        single-node database from the same join on a 10-node cluster. This
        cell is the per-platform split of the per-kind input cardinality —
        merge-additive like every other dynamic cell."""
        return self.kind_offset(kind_name) + 8 + self.k + platform_idx

    def conv_offset(self, conv_kind: str) -> int:
        try:
            return self._conv_offset[conv_kind]
        except KeyError:
            raise VectorizationError(
                f"conversion kind {conv_kind!r} is not in the schema"
            ) from None

    def conv_platform_cell(self, conv_kind: str, platform_idx: int) -> int:
        return self.conv_offset(conv_kind) + platform_idx

    def conv_input_card_cell(self, conv_kind: str) -> int:
        return self.conv_offset(conv_kind) + self.k

    def conv_output_card_cell(self, conv_kind: str) -> int:
        return self.conv_offset(conv_kind) + self.k + 1

    def platform_count_cell(self, platform_idx: int) -> int:
        """Number of operators running on a platform."""
        return self._platform_agg_offset + self._platform_agg_cells * platform_idx

    def platform_in_card_cell(self, platform_idx: int) -> int:
        """Sum of input cardinalities of the operators on a platform."""
        return self.platform_count_cell(platform_idx) + 1

    def platform_out_card_cell(self, platform_idx: int) -> int:
        """Sum of output cardinalities of the operators on a platform."""
        return self.platform_count_cell(platform_idx) + 2

    def platform_bytes_cell(self, platform_idx: int) -> int:
        """Working-set bytes pushed through a platform (card × tuple size).

        Directly exposes the out-of-memory risk of local platforms: trees
        cannot multiply two features, so the product must be a cell.
        """
        return self.platform_count_cell(platform_idx) + 3

    def platform_loop_cell(self, platform_idx: int) -> int:
        """Sum of loop invocations of the in-loop operators on a platform."""
        return self.platform_count_cell(platform_idx) + 4

    def platform_loop_work_cell(self, platform_idx: int) -> int:
        """Sum of iterations × input cardinality of in-loop operators.

        The total per-loop work a platform performs — the quantity that
        decides where iterative operators belong (Fig. 12)."""
        return self.platform_count_cell(platform_idx) + 5

    def op_assignment_delta(
        self, plan: LogicalPlan, op_id: int, platform_idx: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Feature deltas of placing one operator on one platform.

        Used by both the singleton enumeration and the direct plan encoder,
        which keeps the two representations provably identical.
        """
        op = plan.operators[op_id]
        in_card, out_card = plan.cardinalities()[op_id]
        tuple_size = plan.average_input_tuple_size() or 100.0
        cols = [
            self.op_platform_cell(op.kind_name, platform_idx),
            self.op_platform_in_card_cell(op.kind_name, platform_idx),
            self.platform_count_cell(platform_idx),
            self.platform_in_card_cell(platform_idx),
            self.platform_out_card_cell(platform_idx),
            self.platform_bytes_cell(platform_idx),
        ]
        vals = [1.0, in_card, 1.0, in_card, out_card, max(in_card, out_card) * tuple_size]
        if plan.in_loop(op_id):
            iterations = float(plan.loop_iterations(op_id))
            cols.append(self.platform_loop_cell(platform_idx))
            vals.append(iterations)
            if op.kind_name in ("Sample", "ShufflePartitionSample"):
                # Sampling operators keep state across iterations: they
                # materialize their input once and then draw batches, so
                # their loop work is amortized, not iterations × input.
                loop_work = in_card + (iterations - 1.0) * out_card
            else:
                loop_work = iterations * in_card
            cols.append(self.platform_loop_work_cell(platform_idx))
            vals.append(loop_work)
        return np.asarray(cols, dtype=np.int64), np.asarray(vals, dtype=np.float64)

    def conv_block_bounds(self) -> Tuple[int, int]:
        """``[lo, hi)`` column range of the (contiguous) conversion blocks."""
        lo = self._conv_offset[self.conversion_kinds[0]]
        hi = self._conv_offset[self.conversion_kinds[-1]] + self._conv_block_size
        return lo, hi

    def conversion_tables(self) -> Dict[bool, Tuple[np.ndarray, np.ndarray]]:
        """Dense pair-coded conversion deltas, one table pair per loop flag.

        For each ``in_loop`` flag this returns ``(base, scale)`` arrays of
        shape ``((k+1)**2, n_conv_cols)`` over the conversion-block columns
        (see :meth:`conv_block_bounds`). Row ``(pi+1)*(k+1)+(pj+1)`` holds
        the feature delta of moving data from platform ``pi`` to ``pj``:
        ``base`` carries the per-step instance counts, ``scale`` marks the
        cardinality cells, so the full delta for one plan edge is
        ``base + moved * scale`` with ``moved = cardinality x iterations``.

        The tables depend only on the schema (registry + conversion rules),
        are built once per schema on first use, and are therefore shared by
        every enumeration context — and, through the serve layer's
        long-lived optimizers, by every request hitting one worker. This
        hoists the O(edges x k^2) Python ``conversion_path`` reconstruction
        out of ``EnumerationContext`` entirely.
        """
        cached = getattr(self, "_conversion_tables", None)
        if cached is not None:
            return cached
        from repro.rheem.conversion import conversion_path

        k = self.k
        lo, hi = self.conv_block_bounds()
        tables: Dict[bool, Tuple[np.ndarray, np.ndarray]] = {}
        for in_loop in (False, True):
            base = np.zeros(((k + 1) ** 2, hi - lo), dtype=np.float64)
            scale = np.zeros_like(base)
            for pi in range(k):
                for pj in range(k):
                    if pi == pj:
                        continue
                    code = (pi + 1) * (k + 1) + (pj + 1)
                    steps = conversion_path(
                        self.registry[pi], self.registry[pj], in_loop=in_loop
                    )
                    for step in steps:
                        p_idx = self.registry.index(step.platform)
                        base[code, self.conv_platform_cell(step.kind, p_idx) - lo] += 1.0
                        scale[code, self.conv_input_card_cell(step.kind) - lo] += 1.0
                        scale[code, self.conv_output_card_cell(step.kind) - lo] += 1.0
            tables[in_loop] = (base, scale)
        self._conversion_tables = tables
        return tables

    @property
    def static_mask(self) -> np.ndarray:
        """Boolean mask of scope-static columns."""
        return self._static_mask

    def _build_static_mask(self) -> np.ndarray:
        mask = np.zeros(self.n_features, dtype=bool)
        mask[0:4] = True  # topology cells
        for name in self.kind_names:
            mask[self.op_total_cell(name)] = True
            for t in range(4):
                mask[self.op_topology_cell(name, t)] = True
            mask[self.op_udf_cell(name)] = True
            mask[self.op_input_card_cell(name)] = True
            mask[self.op_output_card_cell(name)] = True
        mask[self.tuple_size_cell] = True
        mask[self.loop_iterations_cell] = True
        return mask

    def feature_names(self) -> List[str]:
        """Human-readable names for every column (debugging/introspection)."""
        names = [""] * self.n_features
        for t, topo in enumerate(TOPOLOGIES):
            names[t] = f"topology.{topo}"
        platforms = self.registry.names
        for kind in self.kind_names:
            names[self.op_total_cell(kind)] = f"op.{kind}.total"
            for i, p in enumerate(platforms):
                names[self.op_platform_cell(kind, i)] = f"op.{kind}.on.{p}"
            for t, topo in enumerate(TOPOLOGIES):
                names[self.op_topology_cell(kind, t)] = f"op.{kind}.in.{topo}"
            names[self.op_udf_cell(kind)] = f"op.{kind}.udf_sum"
            names[self.op_input_card_cell(kind)] = f"op.{kind}.in_card"
            names[self.op_output_card_cell(kind)] = f"op.{kind}.out_card"
            for i, p in enumerate(platforms):
                names[self.op_platform_in_card_cell(kind, i)] = (
                    f"op.{kind}.in_card.on.{p}"
                )
        for conv in self.conversion_kinds:
            for i, p in enumerate(platforms):
                names[self.conv_platform_cell(conv, i)] = f"conv.{conv}.on.{p}"
            names[self.conv_input_card_cell(conv)] = f"conv.{conv}.in_card"
            names[self.conv_output_card_cell(conv)] = f"conv.{conv}.out_card"
        for i, p in enumerate(platforms):
            names[self.platform_count_cell(i)] = f"platform.{p}.n_ops"
            names[self.platform_in_card_cell(i)] = f"platform.{p}.in_card"
            names[self.platform_out_card_cell(i)] = f"platform.{p}.out_card"
            names[self.platform_bytes_cell(i)] = f"platform.{p}.bytes"
            names[self.platform_loop_cell(i)] = f"platform.{p}.loop_invocations"
            names[self.platform_loop_work_cell(i)] = f"platform.{p}.loop_work"
        names[self.tuple_size_cell] = "dataset.tuple_size"
        names[self.loop_iterations_cell] = "dataset.loop_iterations"
        return names

    # ------------------------------------------------------------------
    # Encoders
    # ------------------------------------------------------------------
    def empty(self) -> np.ndarray:
        return np.zeros(self.n_features, dtype=np.float64)

    def _op_topology_membership(self, plan: LogicalPlan, op_id: int) -> List[int]:
        """Topology indices an operator belongs to (§IV-A operator features)."""
        op = plan.operators[op_id]
        member: List[int] = []
        if op.kind.arity_in >= 2:
            member.append(1)  # juncture
        elif len(plan.children(op_id)) >= 2:
            member.append(2)  # replicate
        else:
            member.append(0)  # pipeline
        if plan.in_loop(op_id):
            member.append(3)
        return member

    def static_features(
        self, plan: LogicalPlan, scope: Optional[Iterable[int]] = None
    ) -> np.ndarray:
        """The scope-static part of the plan vector for a (sub)plan.

        Dynamic columns (per-platform counts, conversion blocks) are zero.
        """
        ids = frozenset(plan.operators) if scope is None else frozenset(scope)
        v = self.empty()
        topo = plan.topology_counts(ids)
        v[0:4] = topo.as_tuple()
        cards = plan.cardinalities()
        # Canonical accumulation order: iterating the scope sorted by
        # operator id pins the floating-point summation order of the
        # per-kind cardinality cells, so the vectorized static kernel in
        # EnumerationContext can reproduce this vector bit-identically.
        for op_id in sorted(ids):
            op = plan.operators[op_id]
            kind = op.kind_name
            v[self.op_total_cell(kind)] += 1.0
            for t in self._op_topology_membership(plan, op_id):
                v[self.op_topology_cell(kind, t)] += 1.0
            v[self.op_udf_cell(kind)] += float(int(op.udf_complexity))
            in_card, out_card = cards[op_id]
            v[self.op_input_card_cell(kind)] += in_card
            v[self.op_output_card_cell(kind)] += out_card
        tuple_sizes = [
            plan.datasets[i].tuple_size for i in ids if i in plan.datasets
        ]
        v[self.tuple_size_cell] = max(tuple_sizes) if tuple_sizes else 0.0
        v[self.loop_iterations_cell] = float(
            sum(spec.iterations for spec in plan.loops if spec.body & ids)
        )
        return v

    def encode_execution_plan(self, xplan: ExecutionPlan) -> np.ndarray:
        """Directly encode a complete execution plan into a plan vector.

        This is the per-plan transformation the Rheem-ML baseline performs
        on every ML invocation — and exactly the vector the vectorized
        enumeration assembles through merges (tested as an invariant).
        """
        if xplan.registry is not self.registry and list(
            xplan.registry.names
        ) != list(self.registry.names):
            raise VectorizationError(
                "execution plan registry does not match the schema registry"
            )
        plan = xplan.plan
        v = self.static_features(plan)
        for op_id, platform_name in xplan.assignment.items():
            pi = self.registry.index(platform_name)
            cols, vals = self.op_assignment_delta(plan, op_id, pi)
            v[cols] += vals
        for conv in xplan.conversions():
            pi = self.registry.index(conv.platform)
            v[self.conv_platform_cell(conv.kind, pi)] += 1.0
            moved = conv.cardinality * conv.iterations
            v[self.conv_input_card_cell(conv.kind)] += moved
            v[self.conv_output_card_cell(conv.kind)] += moved
        return v

    def encode_partial(
        self,
        plan: LogicalPlan,
        scope: Iterable[int],
        assignment,
    ) -> np.ndarray:
        """Encode a partial plan (a subplan object) into a plan vector.

        This is the per-subplan transformation the Rheem-ML baseline pays
        on every pruning step (§VII-B measured it at ~47% of its
        optimization time). Covers the operators in ``scope`` and the
        conversions on scope-internal edges.
        """
        scope = frozenset(scope)
        v = self.static_features(plan, scope)
        for op_id in scope:
            pi = self.registry.index(assignment[op_id])
            cols, vals = self.op_assignment_delta(plan, op_id, pi)
            v[cols] += vals

        from repro.rheem.conversion import conversion_path

        cards = plan.cardinalities()
        for u, child in plan.edges:
            if u not in scope or child not in scope:
                continue
            src = self.registry[assignment[u]]
            dst = self.registry[assignment[child]]
            if src.name == dst.name:
                continue
            in_loop = plan.in_loop(u) and plan.in_loop(child)
            iters = min(plan.loop_iterations(u), plan.loop_iterations(child))
            moved = cards[u][1] * iters
            for step in conversion_path(src, dst, in_loop=in_loop):
                pi = self.registry.index(step.platform)
                v[self.conv_platform_cell(step.kind, pi)] += 1.0
                v[self.conv_input_card_cell(step.kind)] += moved
                v[self.conv_output_card_cell(step.kind)] += moved
        return v

    def encode_batch(self, xplans: Iterable[ExecutionPlan]) -> np.ndarray:
        """Encode several execution plans into a feature matrix."""
        rows = [self.encode_execution_plan(x) for x in xplans]
        if not rows:
            return np.zeros((0, self.n_features), dtype=np.float64)
        return np.vstack(rows)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FeatureSchema(platforms={self.registry.names}, "
            f"n_features={self.n_features})"
        )
