"""Differential proofs for the matrix-native merge/prune kernels (ISSUE 8).

The hot-path rewrites — pair-coded conversion deltas in the merge, the
packed-footprint grouping fused into prune's lexsort, and the amortized
static kernel — all claim *bit-identical* outputs to their reference
formulations. This suite states each claim as a property and checks it
with hypothesis-driven inputs:

* packed-footprint grouping produces the exact partition (and prune the
  exact survivors) of ``np.unique(fp, axis=0)``, across the dict path
  (n <= 64), the single-word path (boundary <= 8 columns) and the
  chunked path (> 8 columns);
* the pair-coded cartesian merge reproduces the masked per-platform-pair
  reference merge bit-for-bit over random TDGEN plans, including the
  incremental static patches (additive cells, head dissolution, card
  refolds) against the schema's per-scope reference;
* the static kernel reproduces :meth:`FeatureSchema.static_features`
  bit-for-bit on arbitrary scopes.

Bit-identity is asserted on raw bytes (``tobytes``), not ``==`` — the
point is that optimized and reference paths take the same IEEE rounding
steps, so downstream cost comparisons can never diverge.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.enumeration import EnumerationContext, PlanVectorEnumeration
from repro.core.features import FeatureSchema
from repro.core.operations import merge_enumerations
from repro.core.pruning import footprint_groups, prune
from repro.rheem.platforms import synthetic_registry
from repro.tdgen.jobgen import JobGenerator

from conftest import build_pipeline, make_linear_cost

SHAPES = ("pipeline", "juncture", "replicate", "loop")

KERNEL_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ----------------------------------------------------------------------
# Shared contexts (plan/registry construction dominates example cost).
# ----------------------------------------------------------------------


@lru_cache(maxsize=1)
def _wide_ctx() -> EnumerationContext:
    """A 26-op pipeline on 3 platforms.

    Alternating-op scopes of this plan have *every* scoped operator on
    the boundary (each neighbours an out-of-scope operator), so hand-built
    enumerations reach footprints of up to 13 columns — past the 8-column
    single-word limit of the packed grouping.
    """
    return EnumerationContext(build_pipeline(24), synthetic_registry(3))


@lru_cache(maxsize=32)
def _tdgen_case(shape: str, k: int, seed: int):
    """(ctx, cost_fn) for one random TDGEN plan."""
    registry = synthetic_registry(k)
    gen = JobGenerator(registry, seed=seed)
    template = gen.templates_for_shapes(
        (shape,), max_operators=9, count=1, min_operators=6
    )[0]
    plan = template(10.0 ** (3 + seed % 4))
    ctx = EnumerationContext(plan, registry)
    return ctx, make_linear_cost(ctx.schema, seed=seed)


def _stub_enumeration(fp: np.ndarray):
    """A real enumeration whose pruning footprint is exactly ``fp``.

    Scope = the first ``m`` even-id operators of the wide pipeline, so the
    boundary is the whole scope and the footprint columns are ``fp``'s
    columns verbatim. Feature column 1 tags the original row index, which
    survives ``select`` and identifies the chosen survivors.
    """
    ctx = _wide_ctx()
    n, m = fp.shape
    scope_ids = sorted(ctx.plan.operators)[0::2][:m]
    assignments = np.full((n, ctx.n_ops), -1, dtype=np.int8)
    assignments[:, scope_ids] = fp
    features = np.zeros((n, ctx.schema.n_features), dtype=np.float64)
    features[:, 1] = np.arange(n, dtype=np.float64)
    enum = PlanVectorEnumeration(
        ctx, frozenset(scope_ids), features, assignments
    )
    assert enum.boundary_list() == scope_ids  # the scope *is* the boundary
    return enum


@st.composite
def footprints(draw):
    """(footprint matrix, costs) spanning all three grouping paths."""
    n = draw(st.integers(min_value=1, max_value=120))
    m = draw(st.integers(min_value=1, max_value=13))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    few_platforms = draw(st.booleans())  # force duplicate footprints often
    rng = np.random.default_rng(seed)
    fp = rng.integers(0, 2 if few_platforms else 3, size=(n, m), dtype=np.int8)
    # Integer-valued costs with few levels force plenty of cost ties, so
    # the earliest-row tie-break is actually exercised.
    costs = rng.integers(0, 4, size=n).astype(np.float64)
    return fp, costs


# ----------------------------------------------------------------------
# Packed-footprint grouping and pruning vs the np.unique reference.
# ----------------------------------------------------------------------


class TestPackedFootprints:
    @KERNEL_SETTINGS
    @given(case=footprints())
    @example(case=(np.zeros((1, 1), dtype=np.int8), np.zeros(1)))
    def test_groups_match_np_unique(self, case):
        fp, _ = case
        enum = _stub_enumeration(fp)
        groups = footprint_groups(enum)
        _, inverse = np.unique(fp, axis=0, return_inverse=True)
        assert np.array_equal(groups, inverse.reshape(-1))

    @KERNEL_SETTINGS
    @given(case=footprints())
    def test_prune_survivors_match_reference(self, case):
        fp, costs = case
        self._check_survivors(fp, costs)

    @pytest.mark.parametrize(
        "n,m",
        [(40, 3), (100, 6), (100, 12), (64, 1), (65, 8), (65, 9)],
    )
    def test_prune_survivors_on_path_boundaries(self, n, m):
        """Pin the dict (n<=64), one-word (m<=8) and chunked (m>8) paths."""
        rng = np.random.default_rng(n * 100 + m)
        fp = rng.integers(0, 2, size=(n, m), dtype=np.int8)
        costs = rng.integers(0, 3, size=n).astype(np.float64)
        self._check_survivors(fp, costs)

    @staticmethod
    def _check_survivors(fp: np.ndarray, costs: np.ndarray) -> None:
        enum = _stub_enumeration(fp)
        pruned, returned = prune(enum, lambda e: costs.copy())
        # Reference: cheapest row per footprint, earliest row on ties.
        best = {}
        for r in range(fp.shape[0]):
            key = tuple(fp[r].tolist())
            hit = best.get(key)
            if hit is None or costs[r] < hit[1]:
                best[key] = (r, costs[r])
        expected = sorted(r for r, _ in best.values())
        survivors = pruned.features[:, 1].astype(np.int64).tolist()
        assert survivors == expected
        assert np.array_equal(returned, costs)
        assert np.array_equal(pruned.cached_costs(), costs[expected])


# ----------------------------------------------------------------------
# Pair-coded merge vs the masked per-platform-pair reference.
# ----------------------------------------------------------------------


def _reference_merge(ctx, left, right):
    """The pre-ISSUE-8 merge formulation, kept as the differential oracle.

    Cartesian broadcast add, then — per crossing edge — one dense delta
    row per ``(src platform, dst platform)`` pair applied under a boolean
    mask, then a full rewrite of the static columns from the *schema's*
    per-scope reference (not the kernel). Dense per-pair rows accumulate
    each pair's sparse deltas exactly like the pair-coded table build, so
    any divergence isolates the optimized gather/add path.
    """
    n1, n2 = left.n_vectors, right.n_vectors
    n_features = left.features.shape[1]
    feats = np.ascontiguousarray(
        (left.features[:, None, :] + right.features[None, :, :]).reshape(
            n1 * n2, n_features
        )
    )
    asgn = (
        left.assignments[:, None, :].astype(np.int16)
        + right.assignments[None, :, :]
        + 1
    ).reshape(n1 * n2, ctx.n_ops).astype(np.int8)
    for edge in ctx.crossing_edges(left.scope, right.scope):
        for (pi, pj), (cols, vals) in edge.deltas.items():
            dense = np.zeros(n_features, dtype=np.float64)
            np.add.at(dense, cols, vals)
            mask = (asgn[:, edge.src] == pi) & (asgn[:, edge.dst] == pj)
            feats[mask] += dense
    scope = left.scope | right.scope
    static = ctx.schema.static_features(ctx.plan, scope)
    cols = ctx.static_cols
    feats[:, cols] = static[cols]
    return feats, asgn


def _assert_merge_matches(ctx, left, right):
    merged = merge_enumerations(left, right)
    ref_feats, ref_asgn = _reference_merge(ctx, left, right)
    assert merged.features.shape == ref_feats.shape
    assert merged.features.tobytes() == ref_feats.tobytes(), (
        "pair-coded merge diverged from the masked reference on scope "
        f"{sorted(left.scope)} + {sorted(right.scope)}"
    )
    assert np.array_equal(merged.assignments, ref_asgn)
    return merged


class TestPairCodedMerge:
    @KERNEL_SETTINGS
    @given(
        shape=st.sampled_from(SHAPES),
        k=st.integers(min_value=2, max_value=3),
        seed=st.integers(min_value=0, max_value=7),
    )
    @example(shape="pipeline", k=2, seed=0)
    @example(shape="loop", k=3, seed=1)
    def test_chain_merges_bit_identical(self, shape, k, seed):
        """Left- and right-accumulated chain walks over a TDGEN plan."""
        ctx, cost_fn = _tdgen_case(shape, k, seed)
        singles = ctx.singleton_enumerations()
        acc = singles[0]
        for s in singles[1:]:
            _assert_merge_matches(ctx, acc, s)
            merged = _assert_merge_matches(ctx, s, acc)  # flipped operands
            acc, _ = prune(merged, cost_fn)

    @KERNEL_SETTINGS
    @given(
        shape=st.sampled_from(SHAPES),
        k=st.integers(min_value=2, max_value=3),
        seed=st.integers(min_value=0, max_value=7),
    )
    @example(shape="pipeline", k=2, seed=2)
    def test_segment_merges_bit_identical(self, shape, k, seed):
        """Segment + segment merges (the card-refold path, not just
        singleton appends)."""
        ctx, cost_fn = _tdgen_case(shape, k, seed)
        singles = ctx.singleton_enumerations()
        segments = []
        for i in range(0, len(singles) - 1, 2):
            merged = _assert_merge_matches(ctx, singles[i], singles[i + 1])
            pruned, _ = prune(merged, cost_fn)
            segments.append(pruned)
        acc = segments[0]
        for seg in segments[1:]:
            merged = _assert_merge_matches(ctx, acc, seg)
            acc, _ = prune(merged, cost_fn)


# ----------------------------------------------------------------------
# Static kernel vs the schema reference.
# ----------------------------------------------------------------------


class TestStaticKernel:
    @KERNEL_SETTINGS
    @given(
        shape=st.sampled_from(SHAPES),
        k=st.integers(min_value=2, max_value=3),
        seed=st.integers(min_value=0, max_value=7),
        scope_seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @example(shape="pipeline", k=2, seed=0, scope_seed=0)
    def test_static_vector_matches_schema(self, shape, k, seed, scope_seed):
        ctx, _ = _tdgen_case(shape, k, seed)
        kernel = ctx._kernel()
        schema = ctx.schema
        plan = ctx.plan
        n = plan.n_operators
        rng = np.random.default_rng(scope_seed)
        scopes = [frozenset(plan.operators)]  # the full scope
        lo = int(rng.integers(0, n))
        hi = int(rng.integers(lo, n))
        scopes.append(frozenset(range(lo, hi + 1)))  # a contiguous range
        subset = rng.random(n) < 0.5
        if subset.any():
            scopes.append(frozenset(np.flatnonzero(subset).tolist()))
        for scope in scopes:
            got = kernel.static_vector(scope)
            want = schema.static_features(plan, scope)
            assert got.tobytes() == want.tobytes(), sorted(scope)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_singleton_statics_match_schema(self, shape):
        ctx, _ = _tdgen_case(shape, 2, 0)
        kernel = ctx._kernel()
        rows = kernel.singleton_statics()
        for op_id in ctx.plan.operators:
            want = ctx.schema.static_features(ctx.plan, frozenset({op_id}))
            assert rows[op_id].tobytes() == want.tobytes(), op_id

    @pytest.mark.parametrize("shape", SHAPES)
    def test_singleton_enumerations_match_per_op_reference(self, shape):
        from repro.core.operations import enumerate_singleton, split, vectorize

        ctx, _ = _tdgen_case(shape, 3, 1)
        batched = ctx.singleton_enumerations()
        parts = split(vectorize(ctx))
        for op_id, part in zip(sorted(ctx.plan.operators), parts):
            ref = enumerate_singleton(part)
            got = batched[op_id]
            assert got.scope == ref.scope == frozenset({op_id})
            assert got.features.tobytes() == ref.features.tobytes()
            assert np.array_equal(got.assignments, ref.assignments)

    def test_singleton_rows_match_schema_deltas_in_nested_loops(self):
        """Each batched singleton row is the operator's static vector plus
        :meth:`FeatureSchema.op_assignment_delta`, bit for bit — on the
        cases the delta treats specially: nested loops (the delta uses
        the *product* of the enclosing iterations, the statics only
        their sum) and a ``Sample`` inside a loop (amortized loop
        work)."""
        from repro.rheem.datasets import DatasetProfile
        from repro.rheem.logical_plan import LogicalPlan
        from repro.rheem.operators import operator

        plan = LogicalPlan("nested-loops")
        kinds = ("TextFileSource", "Map", "Sample", "Filter", "Map",
                 "CollectionSink")
        ops = [
            plan.add(
                operator(kind),
                dataset=DatasetProfile("d", 1e5, 80.0) if i == 0 else None,
            )
            for i, kind in enumerate(kinds)
        ]
        plan.chain(*ops)
        plan.add_loop(ops[1:5], iterations=3)
        plan.add_loop(ops[2:4], iterations=5)
        plan.validate()
        assert plan.loop_iterations(ops[2].id) == 15  # the product

        ctx = EnumerationContext(plan, synthetic_registry(3))
        schema = ctx.schema
        for enumeration in ctx.singleton_enumerations():
            (op_id,) = enumeration.scope
            static = schema.static_features(plan, frozenset({op_id}))
            alts = ctx.alternatives[op_id]
            assert enumeration.n_vectors == len(alts)
            for row, p in enumerate(alts):
                cols, vals = schema.op_assignment_delta(plan, op_id, int(p))
                want = static.copy()
                want[cols] += vals
                got = enumeration.features[row]
                assert got.tobytes() == want.tobytes(), (op_id, int(p))
