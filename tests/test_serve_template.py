"""The template cache tier: fingerprint properties, candidates, coverage.

The template fingerprint is the tier's correctness boundary, with a
*different* contract than the exact fingerprint: cardinalities must NOT
enter the hash (that is the whole point — parametric instantiations of
one query share a template), while every structural field still must
(kinds, selectivities, edges, loops, platform alphabet). The cache
itself mirrors :class:`PlanCache`'s invariants — LRU bound, counter
mirroring, versioned persistence, corrupt-file tolerance — plus the
template-specific machinery: candidate-set maintenance, re-costed
argmin serving, and the coverage rule that makes a multi-candidate
template refuse requests far from every observed optimum.
"""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.features import FeatureSchema
from repro.core.optimizer import Robopt
from repro.exceptions import ReproError
from repro.obs import Tracer, use_tracer
from repro.rheem.datasets import DatasetProfile
from repro.rheem.execution_plan import ExecutionPlan
from repro.rheem.logical_plan import LogicalPlan
from repro.rheem.operators import operator
from repro.rheem.platforms import default_registry, synthetic_registry
from repro.serve import TemplateCache, template_fingerprint
from repro.serve.template import TEMPLATE_CACHE_FORMAT_VERSION, _covers
from repro.serve.testing import LinearRuntimeModel

from conftest import build_pipeline

_UNARY = ("Map", "Filter", "FlatMap", "ReduceBy", "Sort", "Distinct")


@st.composite
def pipeline_specs(draw, max_middle=5):
    """A random pipeline described as data (kinds, selectivities, card)."""
    kinds = draw(st.lists(st.sampled_from(_UNARY), min_size=1, max_size=max_middle))
    sels = draw(
        st.lists(
            st.floats(0.05, 2.0, allow_nan=False),
            min_size=len(kinds),
            max_size=len(kinds),
        )
    )
    cardinality = draw(st.floats(1e3, 1e8, allow_nan=False))
    return kinds, sels, cardinality


def _build(kinds, sels, cardinality, tuple_size=100.0, name="tfp"):
    plan = LogicalPlan(name)
    ops = [
        plan.add(
            operator("TextFileSource"),
            dataset=DatasetProfile("d", cardinality, tuple_size),
        )
    ]
    for kind, sel in zip(kinds, sels):
        ops.append(plan.add(operator(kind, selectivity=sel)))
    ops.append(plan.add(operator("CollectionSink")))
    plan.chain(*ops)
    return plan


@pytest.fixture
def registry():
    return synthetic_registry(2)


@pytest.fixture
def optimizer(registry):
    schema = FeatureSchema(registry)
    return Robopt(registry, LinearRuntimeModel(schema.n_features, seed=1), schema=schema)


def _recoster(optimizer):
    """The same re-cost closure the batch service builds."""

    def recost(plan, assignment):
        xplan = ExecutionPlan(plan, assignment, optimizer.registry)
        features = optimizer.schema.encode_execution_plan(xplan)
        cost = float(optimizer.model.predict(features[None, :])[0])
        return cost, xplan

    return recost


class TestCardinalityInvariance:
    """The defining property: cardinalities do not enter the template key."""

    @settings(max_examples=50, deadline=None)
    @given(pipeline_specs(), st.floats(1e0, 1e10, allow_nan=False))
    def test_any_cardinality_change_keeps_the_template(self, spec, other_card):
        kinds, sels, card = spec
        a = _build(kinds, sels, card)
        b = _build(kinds, sels, other_card)
        assert template_fingerprint(a) == template_fingerprint(b)

    @settings(max_examples=25, deadline=None)
    @given(pipeline_specs(), st.floats(1.0, 1e4, allow_nan=False))
    def test_tuple_size_change_keeps_the_template(self, spec, tuple_size):
        kinds, sels, card = spec
        assert template_fingerprint(
            _build(kinds, sels, card)
        ) == template_fingerprint(_build(kinds, sels, card, tuple_size=tuple_size))

    @settings(max_examples=25, deadline=None)
    @given(pipeline_specs())
    def test_clone_and_rename_keep_the_template(self, spec):
        kinds, sels, card = spec
        plan = _build(kinds, sels, card)
        assert template_fingerprint(plan) == template_fingerprint(plan.clone())
        assert template_fingerprint(plan) == template_fingerprint(
            _build(kinds, sels, card, name="other-name")
        )

    def test_fixed_output_cardinality_value_is_stripped_but_presence_kept(self):
        def looped(fixed):
            plan = LogicalPlan("loop")
            src = plan.add(
                operator("TextFileSource"),
                dataset=DatasetProfile("d", 1e5, 100.0),
            )
            body = plan.add(operator("ReduceBy", fixed_output_cardinality=fixed))
            sink = plan.add(operator("CollectionSink"))
            plan.chain(src, body, sink)
            return plan

        # The *value* is a parameter: stripped.
        assert template_fingerprint(looped(64)) == template_fingerprint(looped(4096))
        # Its *presence* changes downstream cardinality structure: kept.
        def plain():
            plan = LogicalPlan("plain")
            src = plan.add(
                operator("TextFileSource"),
                dataset=DatasetProfile("d", 1e5, 100.0),
            )
            body = plan.add(operator("ReduceBy"))
            sink = plan.add(operator("CollectionSink"))
            plan.chain(src, body, sink)
            return plan

        assert template_fingerprint(looped(64)) != template_fingerprint(plain())


class TestStructuralSensitivity:
    """Every structural field still enters the hash exactly."""

    @settings(max_examples=50, deadline=None)
    @given(pipeline_specs(), st.integers(0, 10**6))
    def test_operator_kind_perturbation_changes_hash(self, spec, pick):
        kinds, sels, card = spec
        index = pick % len(kinds)
        replacement = next(k for k in _UNARY if k != kinds[index])
        perturbed = list(kinds)
        perturbed[index] = replacement
        assert template_fingerprint(_build(kinds, sels, card)) != template_fingerprint(
            _build(perturbed, sels, card)
        )

    @settings(max_examples=50, deadline=None)
    @given(pipeline_specs())
    def test_selectivity_change_changes_hash(self, spec):
        kinds, sels, card = spec
        perturbed = list(sels)
        perturbed[0] = sels[0] + 0.5
        assert template_fingerprint(_build(kinds, sels, card)) != template_fingerprint(
            _build(kinds, perturbed, card)
        )

    @settings(max_examples=50, deadline=None)
    @given(pipeline_specs())
    def test_topology_perturbation_changes_hash(self, spec):
        kinds, sels, card = spec
        base = _build(kinds, sels, card)
        longer = _build(kinds + ["Map"], sels + [1.0], card)
        assert template_fingerprint(base) != template_fingerprint(longer)

    @settings(max_examples=25, deadline=None)
    @given(pipeline_specs())
    def test_platform_alphabet_changes_hash(self, spec):
        kinds, sels, card = spec
        plan = _build(kinds, sels, card)
        fps = {
            template_fingerprint(plan, registry=reg)
            for reg in (
                synthetic_registry(2),
                synthetic_registry(3),
                default_registry(("java", "spark")),
            )
        }
        assert len(fps) == 3
        assert template_fingerprint(plan) not in fps

    def test_loop_iterations_change_hash(self):
        def looped(iterations):
            plan = LogicalPlan("loop")
            src = plan.add(
                operator("TextFileSource"),
                dataset=DatasetProfile("d", 1e5, 100.0),
            )
            body = plan.add(operator("Map"))
            sink = plan.add(operator("CollectionSink"))
            plan.chain(src, body, sink)
            plan.add_loop([body], iterations)
            return plan

        assert template_fingerprint(looped(3)) != template_fingerprint(looped(7))

    def test_template_is_coarser_than_exact_fingerprint(self, registry):
        """Same template, far-apart cardinalities: the exact fingerprint
        separates what the template fingerprint deliberately merges."""
        from repro.serve import plan_fingerprint

        a, b = build_pipeline(3, 1e3), build_pipeline(3, 1e8)
        assert plan_fingerprint(a, registry) != plan_fingerprint(b, registry)
        assert template_fingerprint(a, registry) == template_fingerprint(b, registry)


class TestCoverage:
    """One exact-cache bucket (a factor of 2) on every source covers."""

    def test_within_one_bucket_on_every_source_covers(self):
        assert _covers([1e4], [1e4])
        assert _covers([1e4], [1.9e4])
        assert _covers([1e4], [0.6e4])
        assert not _covers([1e4], [2.1e4])
        assert not _covers([1e4], [0.4e4])
        assert _covers([1e4, 1e6], [1.5e4, 0.7e6])
        assert not _covers([1e4, 1e6], [1.5e4, 3e6])  # one source is enough

    def test_non_finite_cardinality_never_covers(self):
        for stored in ([], [math.nan], [math.inf], [0.0], [-1.0], [1e4, 1e4]):
            assert not _covers(stored, [1e4])
        for request in ([math.nan], [math.inf], [0.0]):
            assert not _covers([1e4], request)


class TestCandidatesAndLRU:
    def test_observe_then_get_single_candidate(self, optimizer, registry):
        cache = TemplateCache()
        plan = build_pipeline(3, 1e4)
        tfp = template_fingerprint(plan, registry)
        cache.observe(tfp, plan, optimizer.optimize(plan))
        unseen = build_pipeline(3, 3.7e6)  # same template, fresh cardinality
        hit = cache.get(tfp, unseen, _recoster(optimizer))
        assert hit is not None
        # The served plan is the *request's* plan under the remembered
        # assignment, re-costed at the request's cardinalities.
        assert hit.execution_plan.plan.signature() == unseen.signature()
        direct = optimizer.optimize(unseen)
        assert hit.predicted_runtime == pytest.approx(direct.predicted_runtime)

    def test_duplicate_assignment_refreshes_not_appends(self, optimizer, registry):
        cache = TemplateCache()
        tfp = template_fingerprint(build_pipeline(3, 1e4), registry)
        for card in (1e4, 1e5, 1e6):
            plan = build_pipeline(3, card)
            cache.observe(tfp, plan, optimizer.optimize(plan))
        # The linear model's optimum is scale-invariant here, so all three
        # observations carry the same assignment: one candidate.
        assert len(cache.candidates(tfp)) == 1
        assert cache.stats.puts == 3

    def test_candidate_bound_evicts_oldest(self, optimizer, registry):
        cache = TemplateCache(max_candidates=2)
        plan = build_pipeline(2, 1e4)
        tfp = template_fingerprint(plan, registry)
        result = optimizer.optimize(plan)
        # Forge three distinct assignments for one template.
        names = list(registry.names)
        for i in range(3):
            forged = result.copy()
            for op_id in forged.execution_plan.assignment:
                forged.execution_plan.assignment[op_id] = names[i % len(names)]
            cache.observe(tfp, plan, forged)
        assert len(cache.candidates(tfp)) == 2

    def test_template_lru_bound(self, optimizer, registry):
        cache = TemplateCache(max_templates=2)
        result = optimizer.optimize(build_pipeline(3, 1e4))
        plan = build_pipeline(3, 1e4)
        for i in range(4):
            cache.observe(f"tfp{i}", plan, result)
        assert len(cache) == 2
        assert cache.stats.evictions == 2
        assert cache.fingerprints() == ["tfp2", "tfp3"]

    def test_rejects_bad_bounds(self):
        with pytest.raises(ReproError):
            TemplateCache(max_templates=0)
        with pytest.raises(ReproError):
            TemplateCache(max_candidates=0)
        with pytest.raises(ReproError):
            TemplateCache(guardrail=0.9)

    def test_counters_mirrored_into_tracer(self, optimizer, registry):
        cache = TemplateCache(max_templates=1)
        plan = build_pipeline(3, 1e4)
        tfp = template_fingerprint(plan, registry)
        result = optimizer.optimize(plan)
        tracer = Tracer()
        with use_tracer(tracer):
            assert cache.get(tfp, plan, _recoster(optimizer)) is None  # miss
            cache.observe(tfp, plan, result)
            assert cache.get(tfp, plan, _recoster(optimizer)) is not None
            cache.observe("other", plan, result)  # evicts tfp
        assert tracer.counters["serve.template.misses"] == 1
        assert tracer.counters["serve.template.hits"] == 1
        assert tracer.counters["serve.template.puts"] == 2
        assert tracer.counters["serve.template.evictions"] == 1

    def test_hits_are_defensive_copies(self, optimizer, registry):
        cache = TemplateCache()
        plan = build_pipeline(3, 1e4)
        tfp = template_fingerprint(plan, registry)
        cache.observe(tfp, plan, optimizer.optimize(plan))
        first = cache.get(tfp, plan, _recoster(optimizer))
        first.execution_plan.assignment[0] = "corrupted"
        second = cache.get(tfp, plan, _recoster(optimizer))
        assert second.execution_plan.assignment[0] != "corrupted"


class TestGuardrailAndSelector:
    """Which candidate is served, and when the tier refuses instead."""

    def test_recost_failure_is_a_miss_never_a_raise(self, optimizer, registry):
        cache = TemplateCache()
        plan = build_pipeline(3, 1e4)
        tfp = template_fingerprint(plan, registry)
        cache.observe(tfp, plan, optimizer.optimize(plan))

        def broken(plan, assignment):
            raise RuntimeError("model outage")

        assert cache.get(tfp, plan, broken) is None
        assert cache.stats.recost_errors == 1
        assert cache.stats.hits == 0

    def test_non_finite_recost_is_a_miss(self, optimizer, registry):
        cache = TemplateCache()
        plan = build_pipeline(3, 1e4)
        tfp = template_fingerprint(plan, registry)
        cache.observe(tfp, plan, optimizer.optimize(plan))
        assert cache.get(tfp, plan, lambda p, a: (float("nan"), None)) is None
        assert cache.stats.recost_errors == 1

    def _two_candidates(self, cache, plan, optimizer, registry):
        """Forge a 2-candidate template (all-platform-0 / all-platform-1)
        whose candidates both won at ``plan``'s cardinalities."""
        tfp = template_fingerprint(plan, registry)
        result = optimizer.optimize(plan)
        for name in list(registry.names)[:2]:
            forged = result.copy()
            for op_id in forged.execution_plan.assignment:
                forged.execution_plan.assignment[op_id] = name
            cache.observe(tfp, plan, forged)
        assert len(cache.candidates(tfp)) == 2
        return tfp

    def test_multi_candidate_outside_coverage_falls_back(self, optimizer, registry):
        """Two candidates observed at 1e4; a request more than one bucket
        away refuses — the caller must enumerate."""
        cache = TemplateCache()
        tfp = self._two_candidates(cache, build_pipeline(2, 1e4), optimizer, registry)
        tracer = Tracer()
        with use_tracer(tracer):
            assert cache.get(tfp, build_pipeline(2, 2.5e4), _recoster(optimizer)) is None
        assert cache.stats.guardrail_rejects == 1
        assert cache.stats.misses == 1
        assert tracer.counters["serve.template.guardrail_rejects"] == 1

    def test_multi_candidate_serves_the_recosted_argmin(self, optimizer, registry):
        """Inside coverage the cheapest re-costed candidate is served."""
        cache = TemplateCache()
        tfp = self._two_candidates(cache, build_pipeline(2, 1e4), optimizer, registry)
        request = build_pipeline(2, 1.6e4)
        recost = _recoster(optimizer)
        costs = [recost(request, dict(c.assignment))[0] for c in cache.candidates(tfp)]
        assert costs[0] != costs[1]
        hit = cache.get(tfp, request, recost)
        assert hit is not None
        assert hit.predicted_runtime == min(costs)
        cheapest = cache.candidates(tfp)[costs.index(min(costs))]
        assert hit.execution_plan.assignment == cheapest.assignment

        # Inverting the costs flips the pick: the model decides.
        def inverted(plan, assignment):
            cost, xplan = recost(plan, assignment)
            return -cost, xplan

        flipped = cache.get(tfp, request, inverted)
        assert flipped.execution_plan.assignment != cheapest.assignment


class TestPersistence:
    def test_round_trip(self, tmp_path, optimizer, registry):
        cache = TemplateCache()
        plan = build_pipeline(3, 1e4)
        tfp = template_fingerprint(plan, registry)
        cache.observe(tfp, plan, optimizer.optimize(plan))
        path = cache.save(tmp_path / "templates.json")

        loaded = TemplateCache.load(path, registry)
        assert len(loaded) == 1
        assert loaded.stats.puts == 0  # loading is not a lifetime event
        unseen = build_pipeline(3, 8.1e6)
        hit = loaded.get(tfp, unseen, _recoster(optimizer))
        assert hit is not None
        assert hit.predicted_runtime == pytest.approx(
            optimizer.optimize(unseen).predicted_runtime
        )

    def test_load_respects_smaller_bound(self, tmp_path, optimizer, registry):
        cache = TemplateCache()
        plan = build_pipeline(3, 1e4)
        result = optimizer.optimize(plan)
        for i in range(6):
            cache.observe(f"tfp{i}", plan, result)
        path = cache.save(tmp_path / "templates.json")
        loaded = TemplateCache.load(path, registry, max_templates=2)
        assert len(loaded) == 2
        assert loaded.fingerprints() == ["tfp4", "tfp5"]

    def test_load_keeps_newest_candidates_within_bound(
        self, tmp_path, optimizer, registry
    ):
        """A file saved with more candidates per template than the loading
        cache's ``max_candidates`` keeps the newest ones (eviction drops
        the oldest first), and a later observation stays within the
        bound."""
        plan = build_pipeline(3, 1e4)
        tfp = template_fingerprint(plan, registry)
        result = optimizer.optimize(plan)
        names = list(registry.names)

        def forged(i):
            out = result.copy()
            for bit, op_id in enumerate(sorted(out.execution_plan.assignment)):
                out.execution_plan.assignment[op_id] = names[(i >> bit) & 1]
            return out

        cache = TemplateCache(max_candidates=8)
        for i in range(6):
            cache.observe(tfp, plan, forged(i))
        saved = [c.key for c in cache.candidates(tfp)]
        assert len(saved) == 6
        path = cache.save(tmp_path / "templates.json")

        loaded = TemplateCache.load(path, registry, max_candidates=2)
        assert [c.key for c in loaded.candidates(tfp)] == saved[-2:]
        loaded.observe(tfp, plan, forged(6))
        keys = [c.key for c in loaded.candidates(tfp)]
        assert len(keys) == 2
        assert keys[0] == saved[-1]

    def test_old_file_with_observations_and_guardrail_loads(
        self, tmp_path, optimizer, registry
    ):
        """A file from the learned-selector era (format version 1 with a
        ``guardrail`` and per-template ``observations``) still loads; a
        candidate stored without cardinalities never covers a request."""
        plan = build_pipeline(2, 1e4)
        tfp = template_fingerprint(plan, registry)
        result = optimizer.optimize(plan)
        names = list(registry.names)
        doc = {
            "version": TEMPLATE_CACHE_FORMAT_VERSION,
            "fingerprint_version": 1,
            "max_templates": 256,
            "guardrail": 1.2,
            "templates": [
                {
                    "fingerprint": tfp,
                    "candidates": [
                        {
                            "assignment": {
                                str(op_id): names[0]
                                for op_id in result.execution_plan.assignment
                            },
                            "cardinalities": [1e4],
                            "predicted_runtime": 1.0,
                        },
                        {
                            "assignment": {
                                str(op_id): names[1]
                                for op_id in result.execution_plan.assignment
                            },
                            "predicted_runtime": 2.0,
                        },
                    ],
                    "observations": [[[9.2, 4.6], 0], [[9.2, 4.6], 1]],
                }
            ],
        }
        path = tmp_path / "templates.json"
        path.write_text(json.dumps(doc))
        loaded = TemplateCache.load(path, registry)
        assert [c.cardinalities for c in loaded.candidates(tfp)] == [[1e4], []]
        recost = _recoster(optimizer)
        assert loaded.get(tfp, build_pipeline(2, 1.5e4), recost) is not None
        assert loaded.get(tfp, build_pipeline(2, 1e7), recost) is None
        saved = json.loads(loaded.save(tmp_path / "again.json").read_text())
        assert "guardrail" not in saved
        assert "observations" not in saved["templates"][0]

    def test_fingerprint_version_mismatch_drops_templates(
        self, tmp_path, optimizer, registry
    ):
        cache = TemplateCache()
        plan = build_pipeline(3, 1e4)
        cache.observe("tfp", plan, optimizer.optimize(plan))
        path = cache.save(tmp_path / "templates.json")
        doc = json.loads(path.read_text())
        doc["fingerprint_version"] = 999
        path.write_text(json.dumps(doc))
        assert len(TemplateCache.load(path, registry)) == 0

    def test_unknown_format_version_rejected(self, tmp_path, optimizer, registry):
        cache = TemplateCache()
        plan = build_pipeline(3, 1e4)
        cache.observe("tfp", plan, optimizer.optimize(plan))
        path = cache.save(tmp_path / "templates.json")
        doc = json.loads(path.read_text())
        doc["version"] = TEMPLATE_CACHE_FORMAT_VERSION + 1
        path.write_text(json.dumps(doc))
        with pytest.raises(ReproError):
            TemplateCache.load(path, registry)

    def test_corrupt_file_loads_empty_and_counts(self, tmp_path, registry):
        path = tmp_path / "templates.json"
        path.write_text('{"version": 1, "templa')  # truncated mid-write
        tracer = Tracer()
        with use_tracer(tracer):
            loaded = TemplateCache.load(path, registry)
        assert len(loaded) == 0
        assert tracer.counters["serve.template.load_corrupt"] == 1

    def test_missing_version_field_is_corrupt(self, tmp_path, registry):
        path = tmp_path / "templates.json"
        path.write_text(json.dumps({"templates": []}))
        assert len(TemplateCache.load(path, registry)) == 0

    def test_malformed_template_skipped_rest_load(
        self, tmp_path, optimizer, registry
    ):
        cache = TemplateCache()
        plan = build_pipeline(3, 1e4)
        result = optimizer.optimize(plan)
        cache.observe("good-a", plan, result)
        cache.observe("good-b", plan, result)
        path = cache.save(tmp_path / "templates.json")
        doc = json.loads(path.read_text())
        doc["templates"][0]["candidates"] = [{"assignment": "not-a-dict"}]
        path.write_text(json.dumps(doc))
        loaded = TemplateCache.load(path, registry)
        assert loaded.fingerprints() == ["good-b"]

    def test_foreign_platform_candidates_dropped(
        self, tmp_path, optimizer, registry
    ):
        cache = TemplateCache()
        plan = build_pipeline(3, 1e4)
        cache.observe("tfp", plan, optimizer.optimize(plan))
        path = cache.save(tmp_path / "templates.json")
        doc = json.loads(path.read_text())
        for cand in doc["templates"][0]["candidates"]:
            cand["assignment"] = {k: "no-such-platform" for k in cand["assignment"]}
        path.write_text(json.dumps(doc))
        # With a registry: unknown platforms can never instantiate; drop.
        assert len(TemplateCache.load(path, registry)) == 0
