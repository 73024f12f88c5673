"""The plan cache: LRU bound, persistence, counters, defensive copies.

Also holds the regression tests for the two aliasing hazards this layer
closed: :meth:`PlanVectorEnumeration.select` returning *views* of its
source matrices, and cache hits handing every caller the *same* result
object.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.features import FeatureSchema
from repro.core.optimizer import Robopt
from repro.exceptions import ReproError
from repro.obs import Tracer, use_tracer
from repro.rheem.platforms import synthetic_registry
from repro.serve import PlanCache, TemplateCache, plan_fingerprint
from repro.serve.cache import CACHE_FORMAT_VERSION
from repro.serve.testing import LinearRuntimeModel

from conftest import build_pipeline


@pytest.fixture
def registry():
    return synthetic_registry(2)


@pytest.fixture
def optimizer(registry):
    schema = FeatureSchema(registry)
    return Robopt(registry, LinearRuntimeModel(schema.n_features, seed=1), schema=schema)


def _result(optimizer, n_ops=3):
    return optimizer.optimize(build_pipeline(n_ops))


class TestLRU:
    def test_size_is_bounded(self, optimizer):
        cache = PlanCache(max_entries=4)
        result = _result(optimizer)
        for i in range(10):
            cache.put(f"fp{i}", result)
        assert len(cache) == 4
        assert cache.stats.evictions == 6
        assert cache.fingerprints() == ["fp6", "fp7", "fp8", "fp9"]

    def test_get_refreshes_recency(self, optimizer):
        cache = PlanCache(max_entries=2)
        result = _result(optimizer)
        cache.put("a", result)
        cache.put("b", result)
        assert cache.get("a") is not None  # refresh "a"
        cache.put("c", result)  # evicts "b", not "a"
        assert "a" in cache
        assert "b" not in cache

    def test_put_refreshes_recency(self, optimizer):
        cache = PlanCache(max_entries=2)
        result = _result(optimizer)
        cache.put("a", result)
        cache.put("b", result)
        cache.put("a", result)  # refresh, not insert
        cache.put("c", result)
        assert "a" in cache and "c" in cache and "b" not in cache
        assert len(cache) == 2

    def test_rejects_nonpositive_bound(self):
        with pytest.raises(ReproError):
            PlanCache(max_entries=0)


class TestCounters:
    def test_hit_miss_accounting(self, optimizer):
        cache = PlanCache(max_entries=8)
        result = _result(optimizer)
        assert cache.get("fp") is None
        cache.put("fp", result)
        assert cache.get("fp") is not None
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1
        assert cache.stats.puts == 1
        assert cache.stats.hit_rate == 0.5
        assert cache.stats.as_dict()["hit_rate"] == 0.5

    def test_counters_mirrored_into_tracer(self, optimizer):
        cache = PlanCache(max_entries=1)
        result = _result(optimizer)
        tracer = Tracer()
        with use_tracer(tracer):
            cache.get("a")  # miss
            cache.put("a", result)
            cache.get("a")  # hit
            cache.put("b", result)  # evicts "a"
        assert tracer.counters["serve.cache.misses"] == 1
        assert tracer.counters["serve.cache.hits"] == 1
        assert tracer.counters["serve.cache.puts"] == 2
        assert tracer.counters["serve.cache.evictions"] == 1


class TestMismatch:
    def test_never_returns_under_a_different_fingerprint(self, optimizer, registry):
        """A hit is only ever the entry stored under that exact key: two
        structurally different plans have different fingerprints and
        therefore never see each other's cached decisions."""
        cache = PlanCache(max_entries=8)
        short, long = build_pipeline(3), build_pipeline(5)
        fp_short = plan_fingerprint(short, registry=registry)
        fp_long = plan_fingerprint(long, registry=registry)
        assert fp_short != fp_long
        result_short = optimizer.optimize(short)
        cache.put(fp_short, result_short)
        assert cache.get(fp_long) is None
        hit = cache.get(fp_short)
        assert hit.execution_plan.plan.signature() == short.signature()


class TestPersistence:
    def test_round_trip(self, tmp_path, optimizer, registry):
        cache = PlanCache(max_entries=8)
        result = _result(optimizer)
        fp = plan_fingerprint(result.execution_plan.plan, registry=registry)
        cache.put(fp, result)
        path = cache.save(tmp_path / "cache.json")

        loaded = PlanCache.load(path, registry)
        assert len(loaded) == 1
        hit = loaded.get(fp)
        assert hit is not None
        assert hit.predicted_runtime == result.predicted_runtime
        assert hit.execution_plan.assignment == result.execution_plan.assignment
        # Loading is not a lifetime event of the new cache.
        assert loaded.stats.puts == 0

    def test_load_respects_smaller_bound(self, tmp_path, optimizer, registry):
        cache = PlanCache(max_entries=8)
        result = _result(optimizer)
        for i in range(6):
            cache.put(f"fp{i}", result)
        path = cache.save(tmp_path / "cache.json")
        loaded = PlanCache.load(path, registry, max_entries=2)
        assert len(loaded) == 2
        # The most recently used entries survive.
        assert loaded.fingerprints() == ["fp4", "fp5"]

    def test_fingerprint_version_mismatch_drops_entries(
        self, tmp_path, optimizer, registry
    ):
        import json

        cache = PlanCache(max_entries=8)
        cache.put("fp", _result(optimizer))
        path = cache.save(tmp_path / "cache.json")
        doc = json.loads(path.read_text())
        doc["fingerprint_version"] = 999
        path.write_text(json.dumps(doc))
        loaded = PlanCache.load(path, registry)
        assert len(loaded) == 0  # stale keys can never match: drop them

    def test_unknown_format_version_rejected(self, tmp_path, optimizer, registry):
        import json

        cache = PlanCache(max_entries=8)
        cache.put("fp", _result(optimizer))
        path = cache.save(tmp_path / "cache.json")
        doc = json.loads(path.read_text())
        doc["version"] = CACHE_FORMAT_VERSION + 1
        path.write_text(json.dumps(doc))
        with pytest.raises(ReproError):
            PlanCache.load(path, registry)


class TestDeclaredBound:
    """Both tiers share one loader: a file whose declared LRU bound is not
    a positive integer loads with the default bound, never raises."""

    @pytest.mark.parametrize("tier", [PlanCache, TemplateCache])
    @pytest.mark.parametrize("declared", [0, -3, True, "lots"])
    def test_unusable_bound_loads_with_default(
        self, tmp_path, optimizer, registry, tier, declared
    ):
        import json

        plan = build_pipeline(3)
        result = optimizer.optimize(plan)
        cache = tier(4)
        for i in range(3):
            if tier is PlanCache:
                cache.put(f"fp{i}", result)
            else:
                cache.observe(f"fp{i}", plan, result)
        path = cache.save(tmp_path / "cache.json")
        doc = json.loads(path.read_text())
        bound_key = "max_entries" if tier is PlanCache else "max_templates"
        doc[bound_key] = declared
        path.write_text(json.dumps(doc))

        loaded = tier.load(path, registry)
        assert getattr(loaded, bound_key) == 256
        assert loaded.fingerprints() == ["fp0", "fp1", "fp2"]


class TestDefensiveCopies:
    def test_hits_are_independent_objects(self, optimizer):
        cache = PlanCache(max_entries=8)
        cache.put("fp", _result(optimizer))
        first = cache.get("fp")
        # A caller scribbling over its result ...
        first.execution_plan.assignment[0] = "corrupted"
        first.execution_plan.plan.operators[1].selectivity = -123.0
        # ... must not leak into what the next caller receives.
        second = cache.get("fp")
        assert second.execution_plan.assignment[0] != "corrupted"
        assert second.execution_plan.plan.operators[1].selectivity != -123.0

    def test_put_detaches_from_the_source(self, optimizer):
        cache = PlanCache(max_entries=8)
        result = _result(optimizer)
        cache.put("fp", result)
        result.execution_plan.assignment[0] = "mutated-after-put"
        assert cache.get("fp").execution_plan.assignment[0] != "mutated-after-put"

    def test_copy_result_drops_enumeration_alias(self, optimizer):
        result = _result(optimizer)
        assert result.final_enumeration is not None
        clone = result.copy()
        assert clone.final_enumeration is None
        assert clone.stats is not result.stats
        assert clone.stats.as_dict() == result.stats.as_dict()

    def test_select_never_aliases_the_source(self, optimizer):
        """Regression: ``select`` with slice-like indices used to return
        numpy *views*; mutating the selection corrupted the enumeration
        it came from (and anything cached from it)."""
        enumeration = _result(optimizer, n_ops=4).final_enumeration
        rows = np.arange(min(2, enumeration.features.shape[0]))
        picked = enumeration.select(rows)
        assert picked.features.base is None
        assert picked.assignments.base is None
        before = enumeration.features[rows].copy()
        picked.features[:] = -1.0
        picked.assignments[:] = -1
        np.testing.assert_array_equal(enumeration.features[rows], before)
