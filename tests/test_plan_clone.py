"""``LogicalPlan.clone``: a structural copy as independent as a deep copy.

The clone builds new operators and containers and shares only frozen
values (operator kinds, dataset profiles, loop specs). Two properties
pin it down, over every TDGEN shape and size and every built-in
workload, with loops and nested operator ``params``:

* the clone and ``copy.deepcopy`` agree on everything the optimizer and
  the caches read (serialization, signature, cardinalities, exact and
  template fingerprints);
* no mutation of the clone — operators, ``params``, edges, loops,
  dataset rescaling — shows through in the original.
"""

from __future__ import annotations

import copy
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exceptions import PlanError
from repro.rheem.operators import UdfComplexity, operator
from repro.rheem.platforms import synthetic_registry
from repro.rheem.serialization import plan_to_dict
from repro.serve.fingerprint import plan_fingerprint
from repro.serve.protocol import resolve_workload
from repro.serve.template import template_fingerprint
from repro.tdgen.shapes import _EXTRA_OPERATORS, SHAPES, build_template
from repro.workloads import TABLE2, synthetic, tpch

REGISTRY = synthetic_registry(2)

#: JSON-like parameter values, nested so a shallow copy would alias them.
_PARAM_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-9, 9) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


def _views(plan):
    """Everything the optimizer and the caches read off a plan.

    The document is taken as JSON text: ``plan_to_dict`` hands out the
    operators' own ``params`` objects, which a later mutation would
    change inside the snapshot too.
    """
    return (
        json.dumps(plan_to_dict(plan), sort_keys=True),
        plan.signature(),
        dict(plan.cardinalities()),
        plan_fingerprint(plan, REGISTRY),
        template_fingerprint(plan, REGISTRY),
    )


def _decorate(plan, draw):
    """Give some operators nested params and maybe prime the caches."""
    for op in plan.operators.values():
        if draw(st.booleans()):
            op.params = draw(
                st.dictionaries(st.text(max_size=4), _PARAM_VALUES, max_size=3)
            )
            op.params["nested"] = {"xs": [1, 2], "tag": "t"}
    if draw(st.booleans()):
        plan.validate()
        plan.cardinalities()
        plan.adjacency()
    return plan


@st.composite
def tdgen_plans(draw):
    shape = draw(st.sampled_from(SHAPES))
    extra = _EXTRA_OPERATORS[shape]
    n_operators = draw(st.integers(extra + 1, extra + 12))
    template = build_template(
        shape, n_operators, np.random.default_rng(draw(st.integers(0, 2**16)))
    )
    plan = template(draw(st.floats(1e2, 1e9)), draw(st.integers(1, 4)))
    return _decorate(plan, draw)


#: Table II, the in-database TPC-H variants and the synthetic figures' plans.
WORKLOAD_PLANS = (
    [resolve_workload(name) for name in sorted(TABLE2)]
    + [tpch.q1(in_postgres=True), tpch.q3(in_postgres=True)]
    + [synthetic.pipeline_plan(12), synthetic.join_plan(2), synthetic.dataflow_plan()]
)


@st.composite
def workload_plans(draw):
    plan = draw(st.sampled_from(WORKLOAD_PLANS))
    return _decorate(copy.deepcopy(plan), draw)


any_plan = st.one_of(tdgen_plans(), workload_plans())

_SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestCloneMatchesDeepcopy:
    @_SETTINGS
    @given(plan=any_plan)
    def test_same_views_as_deepcopy(self, plan):
        clone = plan.clone()
        assert _views(clone) == _views(copy.deepcopy(plan)) == _views(plan)
        assert clone.name == plan.name
        assert clone.topology_counts() == plan.topology_counts()
        assert clone.adjacency() == plan.adjacency()

    @pytest.mark.parametrize("plan", WORKLOAD_PLANS, ids=lambda p: p.name)
    def test_every_workload(self, plan):
        assert _views(plan.clone()) == _views(copy.deepcopy(plan))

    def test_frozen_values_are_shared_mutable_parts_are_not(self):
        plan = resolve_workload("Kmeans")
        plan.operators[1].params = {"nested": {"xs": [1]}}
        clone = plan.clone()
        for op_id, op in plan.operators.items():
            twin = clone.operators[op_id]
            assert twin is not op
            assert twin.kind is op.kind
            assert twin.params is not op.params
        assert clone.operators[1].params["nested"] is not plan.operators[1].params["nested"]
        for op_id, profile in plan.datasets.items():
            assert clone.datasets[op_id] is profile
        assert clone.datasets is not plan.datasets
        assert clone.loops is not plan.loops
        assert all(a is b for a, b in zip(clone.loops, plan.loops))


class TestCloneIsIndependent:
    @_SETTINGS
    @given(plan=any_plan, data=st.data())
    def test_mutating_the_clone_leaves_the_original(self, plan, data):
        before = _views(plan)
        adjacency = plan.adjacency()
        clone = plan.clone()
        ids = sorted(clone.operators)

        # The cached cardinalities the clone starts with.
        clone.cardinalities()[ids[0]] = (-1.0, -1.0)

        # Operators and their params.
        victim = clone.operators[data.draw(st.sampled_from(ids))]
        victim.selectivity = 0.123
        victim.label = "mutated"
        victim.udf_complexity = UdfComplexity.SUPER_QUADRATIC
        victim.fixed_output_cardinality = 7.0
        victim.params["added"] = [1, 2, 3]
        for op in clone.operators.values():
            if "nested" in op.params:
                op.params["nested"]["xs"].append(99)
                op.params["nested"]["tag"] = "mutated"

        # Edges: a new operator wired in; loops: a new one and an edit.
        extra = clone.add(operator("Map"))
        clone.connect(ids[0], extra)
        clone.add_loop([extra], iterations=3)
        if clone.loops[:-1]:
            clone.loops.pop(0)

        # Datasets.
        clone.scale_datasets_to_bytes(123456.0)

        assert _views(plan) == before
        assert plan.adjacency() == adjacency
        assert _views(clone) != before

    @_SETTINGS
    @given(plan=any_plan)
    def test_validation_memos_are_separate(self, plan):
        plan.validate()
        clone = plan.clone()
        plan.add(operator("Map"))  # dangling: feeds no consumer
        clone.validate()  # still valid, and memoized as such
        with pytest.raises(PlanError):
            plan.validate()
        clone.add(operator("Map"))
        with pytest.raises(PlanError):
            clone.validate()

    @_SETTINGS
    @given(plan=any_plan)
    def test_mutating_the_original_leaves_the_clone(self, plan):
        clone = plan.clone()
        before = _views(clone)
        for op in plan.operators.values():
            op.selectivity = 0.5
            op.params.setdefault("nested", {"xs": []})["xs"].append(1)
        plan.scale_datasets_to_bytes(1.0e3)
        plan.invalidate_cardinalities()
        assert _views(clone) == before
