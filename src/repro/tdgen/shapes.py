"""Topology-shape templates for synthetic query plans (§VI-A).

A *template* is a parameterized logical-plan builder for one of the four
plan topologies of §IV-A (pipeline, juncture, replicate, loop), plus two
loop specializations that cover the operator interactions the simulator
models (a k-means-style small-state loop and an SGD-style
cache-then-sample loop). Calling a template with an input cardinality and
a UDF-complexity level yields a concrete :class:`LogicalPlan`.
"""

from __future__ import annotations

from typing import Callable, List, Optional

import numpy as np

from repro.exceptions import GenerationError
from repro.rheem.datasets import DatasetProfile
from repro.rheem.logical_plan import LogicalPlan
from repro.rheem.operators import UdfComplexity, operator

#: Shape names TDGEN understands.
SHAPES = (
    "pipeline",
    "juncture",
    "replicate",
    "loop",
    "ml_loop",
    "sgd_loop",
    "graph_loop",
    "relational",
)

#: Unary kinds used to populate template slots.
UNARY_POOL = (
    "Map",
    "Filter",
    "FlatMap",
    "ReduceBy",
    "Sort",
    "Distinct",
    "GroupBy",
    "MapPartitions",
    "ZipWithId",
    "Project",
    "Sample",
)

#: Selectivities keeping synthetic cardinalities within sane bounds.
_SELECTIVITY = {
    "FlatMap": 2.0,
    "ReduceBy": 0.3,
    "GroupBy": 0.3,
    "Filter": 0.6,
    "Distinct": 0.7,
    "Project": 1.0,
}

#: UDF complexity per template "complexity level" (1–4); a level scales all
#: interior operators of the plan uniformly (§VI-B executes only the low
#: and high levels and interpolates the middle ones).
COMPLEXITY_LEVELS = {
    1: UdfComplexity.LOGARITHMIC,
    2: UdfComplexity.LINEAR,
    3: UdfComplexity.QUADRATIC,
    4: UdfComplexity.SUPER_QUADRATIC,
}


def list_shapes() -> List[str]:
    """The supported shape names."""
    return list(SHAPES)


def _dataset(
    cardinality: float, name: str = "tdgen", tuple_size: float = 100.0
) -> DatasetProfile:
    return DatasetProfile(name, cardinality=cardinality, tuple_size=tuple_size)


def _unary(kind: str, complexity: UdfComplexity, selectivity: float = None):
    if selectivity is None:
        selectivity = _SELECTIVITY.get(kind, 1.0)
    return operator(kind, selectivity=selectivity, udf_complexity=complexity)


def _pick_kinds(n: int, rng: np.random.Generator) -> List[str]:
    return [UNARY_POOL[int(rng.integers(len(UNARY_POOL)))] for _ in range(n)]


class Template:
    """One callable plan template: ``template(cardinality, level) -> plan``.

    The operator kinds of the template are frozen at construction (drawn
    from ``rng``), so the same template instantiated at two cardinalities
    yields structurally identical plans — the property the log generator's
    interpolation relies on.
    """

    def __init__(
        self,
        shape: str,
        n_operators: int,
        kinds: List[str],
        iterations: int,
        uid: int,
        selectivities: Optional[List[float]] = None,
        tuple_size: float = 100.0,
    ):
        self.shape = shape
        self.n_operators = n_operators
        self.kinds = kinds
        self.iterations = iterations
        self.uid = uid
        self.selectivities = (
            selectivities
            if selectivities is not None
            else [_SELECTIVITY.get(k, 1.0) for k in kinds]
        )
        self.tuple_size = tuple_size

    def unary(self, index: int, complexity: UdfComplexity):
        """The slotted unary operator at one template position."""
        return _unary(self.kinds[index], complexity, self.selectivities[index])

    def dataset(self, cardinality: float, name: str = "tdgen") -> DatasetProfile:
        return _dataset(cardinality, name, self.tuple_size)

    def __call__(self, cardinality: float, level: int = 2) -> LogicalPlan:
        complexity = COMPLEXITY_LEVELS[level]
        builder = _BUILDERS[self.shape]
        plan = builder(self, cardinality, complexity)
        plan.name = f"tdgen_{self.shape}_{self.uid}_n{self.n_operators}"
        return plan

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Template({self.shape}, n={self.n_operators}, uid={self.uid})"


def _build_pipeline(t: Template, cardinality, complexity) -> LogicalPlan:
    p = LogicalPlan("pipeline")
    ops = [p.add(operator("TextFileSource"), dataset=t.dataset(cardinality))]
    for i in range(len(t.kinds)):
        ops.append(p.add(t.unary(i, complexity)))
    ops.append(p.add(operator("CollectionSink")))
    p.chain(*ops)
    return p


def _build_juncture(t: Template, cardinality, complexity) -> LogicalPlan:
    p = LogicalPlan("juncture")
    half = len(t.kinds) // 2
    left = [p.add(operator("TextFileSource"), dataset=t.dataset(cardinality))]
    for i in range(half):
        left.append(p.add(t.unary(i, complexity)))
    p.chain(*left)
    right = [
        p.add(operator("TextFileSource"), dataset=t.dataset(cardinality / 4, "tdgen2"))
    ]
    for i in range(half, len(t.kinds)):
        right.append(p.add(t.unary(i, complexity)))
    p.chain(*right)
    join = p.add(operator("Join", selectivity=0.8))
    p.connect(left[-1], join)
    p.connect(right[-1], join)
    sink = p.add(operator("CollectionSink"))
    p.connect(join, sink)
    return p


def _build_replicate(t: Template, cardinality, complexity) -> LogicalPlan:
    p = LogicalPlan("replicate")
    head = [p.add(operator("TextFileSource"), dataset=t.dataset(cardinality))]
    third = max(1, len(t.kinds) // 3)
    for i in range(third):
        head.append(p.add(t.unary(i, complexity)))
    p.chain(*head)
    split_at = head[-1]
    # One slot feeds the head alone; both branches then fall back to padding.
    branch_a = [
        p.add(t.unary(i, complexity))
        for i in range(third, min(2 * third, len(t.kinds)))
    ]
    branch_b = [p.add(t.unary(i, complexity)) for i in range(2 * third, len(t.kinds))]
    if not branch_a:
        branch_a = [p.add(_unary("Map", complexity))]
    if not branch_b:
        branch_b = [p.add(_unary("Filter", complexity))]
    p.connect(split_at, branch_a[0])
    if len(branch_a) > 1:
        p.chain(*branch_a)
    p.connect(split_at, branch_b[0])
    if len(branch_b) > 1:
        p.chain(*branch_b)
    union = p.add(operator("Union"))
    p.connect(branch_a[-1], union)
    p.connect(branch_b[-1], union)
    sink = p.add(operator("CollectionSink"))
    p.connect(union, sink)
    return p


def _build_loop(t: Template, cardinality, complexity) -> LogicalPlan:
    p = LogicalPlan("loop")
    ops = [p.add(operator("TextFileSource"), dataset=t.dataset(cardinality))]
    for i in range(len(t.kinds)):
        ops.append(p.add(t.unary(i, complexity)))
    ops.append(p.add(operator("CollectionSink")))
    p.chain(*ops)
    # Loop over the middle third of the pipeline.
    interior = ops[1:-1]
    third = max(1, len(interior) // 3)
    body = interior[third : 2 * third] or interior[:1]
    p.add_loop(body, iterations=t.iterations)
    return p


def _build_ml_loop(t: Template, cardinality, complexity) -> LogicalPlan:
    """A k-means-shaped loop: heavy map + aggregation + tiny state update."""
    p = LogicalPlan("ml_loop")
    source = p.add(operator("TextFileSource"), dataset=t.dataset(cardinality))
    prefix = [source]
    for i in range(len(t.kinds) - 1):
        prefix.append(p.add(t.unary(i, complexity)))
    p.chain(*prefix)
    assign = p.add(operator("Map", udf_complexity=complexity))
    state_size = max(2.0, min(2000.0, cardinality / 1e3))
    reduce_op = p.add(operator("ReduceBy", fixed_output_cardinality=state_size))
    update = p.add(operator("Map", udf_complexity=UdfComplexity.LINEAR))
    sink = p.add(operator("CollectionSink"))
    p.chain(prefix[-1], assign, reduce_op, update, sink)
    p.add_loop([assign, reduce_op, update], iterations=t.iterations)
    return p


def _build_sgd_loop(t: Template, cardinality, complexity) -> LogicalPlan:
    """An SGD-shaped loop: cache feeding a shuffle-partition sample."""
    p = LogicalPlan("sgd_loop")
    source = p.add(operator("TextFileSource"), dataset=t.dataset(cardinality))
    prefix = [source]
    for i in range(len(t.kinds) - 1):
        prefix.append(p.add(t.unary(i, complexity)))
    p.chain(*prefix)
    cache = p.add(operator("Cache"))
    sample = p.add(
        operator(
            "ShufflePartitionSample",
            fixed_output_cardinality=max(1.0, min(1000.0, cardinality / 1e4)),
        )
    )
    grad = p.add(operator("Map", udf_complexity=complexity))
    sink = p.add(operator("CollectionSink"))
    p.chain(prefix[-1], cache, sample, grad, sink)
    p.add_loop([sample, grad], iterations=t.iterations)
    return p


#: Kinds a database platform can host (used by the relational shape).
RELATIONAL_POOL = ("Filter", "Project", "ReduceBy", "GroupBy", "Sort", "Distinct")


def _build_relational(t: Template, cardinality, complexity) -> LogicalPlan:
    """A warehouse-style query over database-resident tables.

    Two ``TableSource`` branches with relational unary operators, a join,
    an aggregate and a sink. Only meaningful when the registry contains a
    database platform (TableSource has no other host); TDGEN includes this
    shape exactly then, teaching the model what keeping large relational
    work inside the database costs versus exporting it to a cluster.
    """
    p = LogicalPlan("relational")
    half = len(t.kinds) // 2
    left = [p.add(operator("TableSource"), dataset=t.dataset(cardinality))]
    for i in range(half):
        kind = RELATIONAL_POOL[i % len(RELATIONAL_POOL)]
        left.append(p.add(_unary(kind, complexity, t.selectivities[i])))
    p.chain(*left)
    right = [
        p.add(operator("TableSource"), dataset=t.dataset(cardinality / 3, "tdgen2"))
    ]
    for i in range(half, len(t.kinds)):
        kind = RELATIONAL_POOL[i % len(RELATIONAL_POOL)]
        right.append(p.add(_unary(kind, complexity, t.selectivities[i])))
    p.chain(*right)
    join = p.add(operator("Join", selectivity=0.7))
    p.connect(left[-1], join)
    p.connect(right[-1], join)
    agg = p.add(operator("ReduceBy", selectivity=0.1))
    sink = p.add(operator("CollectionSink"))
    p.chain(join, agg, sink)
    return p


def _build_graph_loop(t: Template, cardinality, complexity) -> LogicalPlan:
    """A CrocoPR-shaped plan: preprocessing, iterative PageRank, decoding."""
    p = LogicalPlan("graph_loop")
    source = p.add(operator("TextFileSource"), dataset=t.dataset(cardinality))
    prefix = [source]
    for i in range(len(t.kinds) - 1):
        prefix.append(p.add(t.unary(i, complexity)))
    p.chain(*prefix)
    init = p.add(operator("Map"))
    pagerank = p.add(operator("PageRank"))
    decode = p.add(operator("Join", selectivity=1.0))
    sink = p.add(operator("CollectionSink"))
    p.chain(prefix[-1], init, pagerank, decode, sink)
    # The dictionary side of the decode join comes off the preprocessing
    # prefix (a replicate), as in the CrocoPR encoding/decoding pattern.
    p.connect(prefix[min(len(prefix) - 1, max(1, len(prefix) // 2))], decode)
    p.add_loop([pagerank], iterations=t.iterations)
    return p


_BUILDERS: dict = {
    "pipeline": _build_pipeline,
    "juncture": _build_juncture,
    "replicate": _build_replicate,
    "loop": _build_loop,
    "ml_loop": _build_ml_loop,
    "sgd_loop": _build_sgd_loop,
    "graph_loop": _build_graph_loop,
    "relational": _build_relational,
}

#: How many operators each builder adds beyond the slotted unary kinds.
_EXTRA_OPERATORS = {
    "pipeline": 2,  # source + sink
    "juncture": 4,  # two sources + join + sink
    "replicate": 4,  # source + union + sink (+ padding branches)
    "loop": 2,
    "ml_loop": 5,  # source + assign/reduce/update + sink
    "sgd_loop": 5,  # source + cache/sample/grad... (see builder)
    "graph_loop": 6,  # source + init/pagerank/decode + sink (see builder)
    "relational": 5,  # two sources + join + aggregate + sink
}


def build_template(
    shape: str,
    n_operators: int,
    rng: Optional[np.random.Generator] = None,
    uid: int = 0,
) -> Template:
    """Create a random template of a shape with ~``n_operators`` operators."""
    if shape not in _BUILDERS:
        raise GenerationError(f"unknown shape {shape!r}; expected one of {SHAPES}")
    rng = rng if rng is not None else np.random.default_rng()
    n_slots = n_operators - _EXTRA_OPERATORS[shape]
    if n_slots < 1:
        raise GenerationError(
            f"shape {shape!r} needs at least {_EXTRA_OPERATORS[shape] + 1} operators, "
            f"got {n_operators}"
        )
    kinds = _pick_kinds(n_slots, rng)
    # Iterations drawn log-uniformly in [5, 500): loops of very different
    # weights teach the model the value of iteration-aware placement.
    iterations = int(np.exp(rng.uniform(np.log(5), np.log(500))))
    # Jitter the selectivities and tuple size so the training plans cover
    # the value ranges real workloads exhibit (FlatMap fan-outs up to ~8,
    # aggressive ReduceBy reductions, narrow and wide tuples).
    selectivities = []
    for kind in kinds:
        base = _SELECTIVITY.get(kind, 1.0)
        if kind == "FlatMap":
            selectivities.append(float(rng.uniform(1.5, 8.0)))
        elif kind in ("ReduceBy", "GroupBy"):
            selectivities.append(float(np.exp(rng.uniform(np.log(0.005), np.log(0.5)))))
        else:
            selectivities.append(float(base * np.exp(rng.uniform(-0.7, 0.7))))
    tuple_size = float(rng.uniform(60.0, 280.0))
    return Template(
        shape, n_operators, kinds, iterations, uid,
        selectivities=selectivities, tuple_size=tuple_size,
    )
