"""Logical query plans: platform-agnostic directed dataflow graphs.

A :class:`LogicalPlan` is the input of the optimizer (§III-A): vertices are
:class:`~repro.rheem.operators.LogicalOperator` instances, edges represent
dataflow. Loops (iterative dataflows such as k-means or PageRank) are
modelled as :class:`LoopSpec` annotations over a set of body operators
rather than as graph cycles, which keeps the plan a DAG while exposing the
*loop* topology of §IV-A to the feature encoding and the per-iteration
overheads to the simulator.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

import networkx as nx

from repro.exceptions import ArityError, CycleError, PlanError
from repro.rheem.datasets import DatasetProfile
from repro.rheem.operators import LogicalOperator


@dataclass(frozen=True)
class LoopSpec:
    """An iterative region of a plan.

    Parameters
    ----------
    body:
        Ids of the operators repeated on every iteration.
    iterations:
        Number of iterations the loop performs.
    """

    body: FrozenSet[int]
    iterations: int

    def __post_init__(self):
        if self.iterations < 1:
            raise PlanError(f"a loop needs >= 1 iterations, got {self.iterations}")
        if not self.body:
            raise PlanError("a loop body cannot be empty")


@dataclass(frozen=True)
class TopologyCounts:
    """How many instances of each plan topology (§IV-A) a (sub)plan has."""

    pipeline: int = 0
    juncture: int = 0
    replicate: int = 0
    loop: int = 0

    def as_tuple(self) -> Tuple[int, int, int, int]:
        return (self.pipeline, self.juncture, self.replicate, self.loop)


class LogicalPlan:
    """A platform-agnostic dataflow DAG.

    Build plans by adding operators and connecting them::

        plan = LogicalPlan("example")
        src = plan.add(operator("TextFileSource"), dataset=profile)
        flt = plan.add(operator("Filter", selectivity=0.1))
        snk = plan.add(operator("CollectionSink"))
        plan.connect(src, flt)
        plan.connect(flt, snk)
        plan.validate()

    Operator ids are dense integers assigned in insertion order; they index
    the columns of the enumeration assignment matrices.
    """

    def __init__(self, name: str = "plan"):
        self.name = name
        self.operators: Dict[int, LogicalOperator] = {}
        self.datasets: Dict[int, DatasetProfile] = {}
        self.loops: List[LoopSpec] = []
        self._parents: Dict[int, List[int]] = {}
        self._children: Dict[int, List[int]] = {}
        self._cardinalities: Optional[Dict[int, Tuple[float, float]]] = None
        self._validated: set = set()
        self._adjacency: Optional[Tuple[Dict, Dict, Dict]] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add(
        self, op: LogicalOperator, dataset: Optional[DatasetProfile] = None
    ) -> LogicalOperator:
        """Add an operator; returns it with its ``id`` assigned.

        Source operators must be given the :class:`DatasetProfile` they read.
        """
        if op.id != -1:
            raise PlanError(f"operator {op!r} already belongs to a plan")
        op.id = len(self.operators)
        self.operators[op.id] = op
        self._parents[op.id] = []
        self._children[op.id] = []
        if op.kind.is_source:
            if dataset is None:
                raise PlanError(
                    f"source operator {op.label!r} needs a dataset profile"
                )
            self.datasets[op.id] = dataset
        elif dataset is not None:
            raise PlanError(f"non-source operator {op.label!r} cannot take a dataset")
        self._cardinalities = None
        self._validated.clear()
        self._adjacency = None
        return op

    def connect(self, src, dst) -> None:
        """Add a dataflow edge from ``src`` to ``dst`` (operators or ids)."""
        u = src.id if isinstance(src, LogicalOperator) else int(src)
        v = dst.id if isinstance(dst, LogicalOperator) else int(dst)
        for node in (u, v):
            if node not in self.operators:
                raise PlanError(f"operator id {node} is not in plan {self.name!r}")
        if u == v:
            raise CycleError(f"self-loop on operator {u} in plan {self.name!r}")
        self._children[u].append(v)
        self._parents[v].append(u)
        self._cardinalities = None
        self._validated.clear()
        self._adjacency = None

    def chain(self, *ops) -> LogicalOperator:
        """Connect operators in a pipeline; returns the last one."""
        for a, b in zip(ops, ops[1:]):
            self.connect(a, b)
        return ops[-1]

    def add_loop(self, body: Iterable, iterations: int) -> LoopSpec:
        """Mark a set of operators as an iterative loop body."""
        ids = frozenset(
            op.id if isinstance(op, LogicalOperator) else int(op) for op in body
        )
        unknown = ids - set(self.operators)
        if unknown:
            raise PlanError(f"loop body references unknown operators {sorted(unknown)}")
        spec = LoopSpec(body=ids, iterations=iterations)
        self.loops.append(spec)
        self._validated.clear()
        return spec

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_operators(self) -> int:
        return len(self.operators)

    @property
    def edges(self) -> List[Tuple[int, int]]:
        return [(u, v) for u, vs in self._children.items() for v in vs]

    def parents(self, op_id: int) -> List[int]:
        return list(self._parents[op_id])

    def children(self, op_id: int) -> List[int]:
        return list(self._children[op_id])

    def adjacency(self) -> Tuple[Dict[int, Tuple[int, ...]], ...]:
        """``(children, parents, neighbours)`` maps, id -> tuple of ids.

        Memoized on the plan (invalidated by ``add``/``connect``) so
        repeated optimizations of one plan share the read-only maps instead
        of re-copying the per-operator lists each run.
        """
        adjacency = getattr(self, "_adjacency", None)
        if adjacency is None:
            children = {i: tuple(c) for i, c in self._children.items()}
            parents = {i: tuple(p) for i, p in self._parents.items()}
            neighbours = {i: children[i] + parents[i] for i in children}
            adjacency = (children, parents, neighbours)
            self._adjacency = adjacency
        return adjacency

    def sources(self) -> List[int]:
        return [i for i, op in self.operators.items() if op.kind.is_source]

    def sinks(self) -> List[int]:
        return [i for i, op in self.operators.items() if op.kind.is_sink]

    def loop_iterations(self, op_id: int) -> int:
        """Total number of times an operator runs (product of enclosing loops)."""
        total = 1
        for spec in self.loops:
            if op_id in spec.body:
                total *= spec.iterations
        return total

    def in_loop(self, op_id: int) -> bool:
        return any(op_id in spec.body for spec in self.loops)

    def graph(self) -> nx.DiGraph:
        """The plan as a :class:`networkx.DiGraph` (ids as nodes)."""
        g = nx.DiGraph()
        g.add_nodes_from(self.operators)
        g.add_edges_from(self.edges)
        return g

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self, strict: bool = True) -> None:
        """Check the plan is a well-formed dataflow DAG.

        With ``strict=True`` (the default) every non-sink operator must feed
        at least one consumer and the plan must have at least one source and
        one sink.

        Validation is memoized per ``strict`` flag: a plan that passed once
        stays valid until its structure changes (``add``, ``connect``,
        ``add_loop`` clear the memo), so optimizers can validate defensively
        on every call without re-running the DAG check.
        """
        validated = getattr(self, "_validated", None)
        if validated is not None and strict in validated:
            return
        if not self.operators:
            raise PlanError(f"plan {self.name!r} is empty")
        g = self.graph()
        if not nx.is_directed_acyclic_graph(g):
            cycle = nx.find_cycle(g)
            raise CycleError(f"plan {self.name!r} has a cycle: {cycle}")
        for op_id, op in self.operators.items():
            n_in = len(self._parents[op_id])
            if n_in != op.kind.arity_in:
                raise ArityError(
                    f"{op!r} expects {op.kind.arity_in} inputs, has {n_in}"
                )
            n_out = len(self._children[op_id])
            if op.kind.is_sink and n_out:
                raise ArityError(f"sink {op!r} cannot have consumers")
            if strict and not op.kind.is_sink and n_out == 0:
                raise ArityError(f"{op!r} feeds no consumer")
        if strict:
            if not self.sources():
                raise PlanError(f"plan {self.name!r} has no source")
            if not self.sinks():
                raise PlanError(f"plan {self.name!r} has no sink")
        for spec in self.loops:
            unknown = spec.body - set(self.operators)
            if unknown:
                raise PlanError(
                    f"loop body references unknown operators {sorted(unknown)}"
                )
        if validated is not None:
            validated.add(strict)

    # ------------------------------------------------------------------
    # Topology analysis (§IV-A)
    # ------------------------------------------------------------------
    def topology_counts(self, scope: Optional[Iterable[int]] = None) -> TopologyCounts:
        """Topology counts of the (sub)plan induced by ``scope``.

        Junctures are operators whose *kind* takes two or more inputs;
        replicates are operators with two or more consumers in the full
        plan (both are intrinsic to the operator, so counts add up across
        disjoint scopes). Loops count the loop specs whose body intersects
        the scope. Pipelines are the maximal chains of single-input,
        single-consumer operators in the induced subgraph.
        """
        ids = set(self.operators) if scope is None else set(scope)
        juncture = sum(1 for i in ids if self.operators[i].kind.arity_in >= 2)
        replicate = sum(1 for i in ids if len(self._children[i]) >= 2)
        loop = sum(1 for spec in self.loops if spec.body & ids)

        def eligible(i: int) -> bool:
            # Chain members: at most one input by kind, at most one consumer
            # within the scope, and not a replicate in the full plan.
            if self.operators[i].kind.arity_in >= 2:
                return False
            if len(self._children[i]) >= 2:
                return False
            return sum(1 for c in self._children[i] if c in ids) <= 1

        pipeline = 0
        for i in ids:
            if not eligible(i):
                continue
            # Count chain heads: an eligible op whose in-scope parent is not
            # an eligible chain predecessor.
            in_scope_parents = [p for p in self._parents[i] if p in ids]
            starts_chain = True
            if len(in_scope_parents) == 1:
                p = in_scope_parents[0]
                if eligible(p):
                    starts_chain = False
            pipeline += 1 if starts_chain else 0
        return TopologyCounts(pipeline, juncture, replicate, loop)

    # ------------------------------------------------------------------
    # Cardinality propagation
    # ------------------------------------------------------------------
    def cardinalities(self) -> Dict[int, Tuple[float, float]]:
        """Per-operator ``(input, output)`` cardinalities (cached).

        Sources take their dataset cardinality as input; every other
        operator's input is the sum of its parents' outputs. Output follows
        the operator's selectivity model. Loop membership does *not* change
        the per-invocation cardinalities (the simulator accounts for
        iterations separately).
        """
        if self._cardinalities is None:
            from repro.rheem.cardinality import propagate_cardinalities

            self._cardinalities = propagate_cardinalities(self)
        return self._cardinalities

    def invalidate_cardinalities(self) -> None:
        """Drop the cardinality cache (after mutating selectivities/datasets)."""
        self._cardinalities = None

    def average_input_tuple_size(self) -> float:
        """Average tuple size over the plan's input datasets (dataset feature)."""
        if not self.datasets:
            return 0.0
        sizes = [d.tuple_size for d in self.datasets.values()]
        return float(sum(sizes)) / len(sizes)

    def set_dataset(self, source, dataset: DatasetProfile) -> None:
        """Replace the dataset of a source operator (e.g. to scale sizes)."""
        op_id = source.id if isinstance(source, LogicalOperator) else int(source)
        if op_id not in self.datasets:
            raise PlanError(f"operator {op_id} is not a source with a dataset")
        self.datasets[op_id] = dataset
        self._cardinalities = None

    def scale_datasets_to_bytes(self, size_bytes: float) -> None:
        """Scale every input dataset to a total size in bytes."""
        for op_id, profile in list(self.datasets.items()):
            self.datasets[op_id] = profile.scaled_to_bytes(size_bytes)
        self._cardinalities = None

    def clone(self) -> "LogicalPlan":
        """An independent copy (used to vary dataset sizes per job).

        The copy is structural: every mutable part is new — the operator
        objects (with their ``params`` deep-copied), the ``datasets``,
        ``loops``, parent/child and cardinality containers — while the
        frozen values they hold (:class:`OperatorKind`,
        :class:`DatasetProfile`, :class:`LoopSpec`) are shared, since
        nothing can change them in place. Mutating the clone through any
        public method or attribute leaves the original untouched, exactly
        as a ``copy.deepcopy`` would, at a fraction of its cost.
        """
        new = copy.copy(self)
        operators = {}
        for op_id, op in self.operators.items():
            twin = copy.copy(op)
            twin.params = copy.deepcopy(op.params)
            operators[op_id] = twin
        new.operators = operators
        new.datasets = dict(self.datasets)
        new.loops = list(self.loops)
        new._parents = {i: list(p) for i, p in self._parents.items()}
        new._children = {i: list(c) for i, c in self._children.items()}
        if self._cardinalities is not None:
            new._cardinalities = dict(self._cardinalities)
        new._validated = set(self._validated)
        new._adjacency = None
        return new

    # ------------------------------------------------------------------
    def topological_order(self) -> List[int]:
        """Operator ids in a topological order of the dataflow."""
        return list(nx.topological_sort(self.graph()))

    def signature(self) -> Tuple:
        """A hashable structural signature (used to group TDGEN jobs)."""
        ops = tuple(
            (i, op.kind_name, int(op.udf_complexity)) for i, op in sorted(self.operators.items())
        )
        edges = tuple(sorted(self.edges))
        loops = tuple(sorted((tuple(sorted(s.body)), s.iterations) for s in self.loops))
        return (ops, edges, loops)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LogicalPlan({self.name!r}, ops={self.n_operators}, "
            f"edges={len(self.edges)}, loops={len(self.loops)})"
        )
