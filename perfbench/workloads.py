"""Seeded request streams of the three benchmark workloads.

Every stream is built from the ``--seed`` argument before the daemon
starts; the daemon only ever sees the serialized plans. Each request is
tagged with the connection that sends it: the two connections own
disjoint sets of templates, so the order in which the plan cache and the
template cache fill is the same on every run (see README.md).

The plan templates of a workload are fixed (drawn once from
``STRUCTURE_SEED``), like the queries of a standard benchmark; the seed
draws the parameters and the order of re-queries, stratified so that
every seed gives a run of the same mix (see ``_Draws``). A template's
first request arrives at the centre of its parameter range, so the state
the daemon learns from first requests (cached plans, template
candidates, feedback observations and the models retrained from them)
is the same for every seed, and the seed moves a run's cost and plan
quality little.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

import numpy as np

from repro.rheem.serialization import plan_to_dict
from repro.serve.fingerprint import plan_fingerprint
from repro.serve.protocol import OptimizeRequest
from repro.tdgen.shapes import build_template

__all__ = ["Request", "Workload", "WORKLOADS", "build_workload"]

SHAPES = ("pipeline", "juncture", "replicate", "loop")


@dataclass
class Request:
    """One request of a stream: who sends it and the frame it sends."""

    rid: str
    conn: int
    template: int
    first: bool  # the first request of its template
    phase: int  # param-shift: 0 before the shift, 1 after; 0 elsewhere
    plan_doc: dict
    line: str  # the encoded optimize frame


@dataclass
class Workload:
    name: str
    requests: List[Request]
    #: ``repro serve`` flags this workload runs with (beyond the common
    #: ones); ``{prefix}`` becomes a per-daemon path prefix in the run dir
    serve_args: List[str]
    #: the daemon retrains from feedback: first requests run alone
    feedback: bool = False


def _request(rid, conn, template_index, first, phase, plan) -> Request:
    plan.name = rid  # a cached result then names the request that filled it
    doc = plan_to_dict(plan)
    line = OptimizeRequest(request_id=rid, plan=doc).to_json()
    return Request(rid, conn, template_index, first, phase, doc, line)


def _interleave(per_conn: List[List[Request]]) -> List[Request]:
    out: List[Request] = []
    for pair in zip(*per_conn):
        out.extend(pair)
    return out


#: Seed of the fixed template pools (not the ``--seed`` argument).
STRUCTURE_SEED = 20200420

#: Requests per measured second, per workload (what one CPU of a 2-vCPU
#: virtual machine answers): a run sends a fixed number of requests
#: (``rate * seconds``) so that two runs with one seed answer exactly the
#: same requests, and counts and peak RSS compare.
RATES = {"cold-large": 48, "hot-small": 700, "param-shift": 600}


def cold_large(seed: int, n: int, pool: int = 168) -> Workload:
    """Distinct 20-40 operator TDGEN plans: every request enumerates.

    ``pool`` fixed templates (every shape at every size, twice) are
    requested in a fixed cycle; each repetition of a template lands in a
    different log2 cardinality bucket of [1e3, 1e10], so no two requests
    share a fingerprint while the run stays shorter than 24 cycles.
    """
    structure = np.random.default_rng(STRUCTURE_SEED)
    templates = [
        (
            build_template(SHAPES[t % 4], 20 + (t // 4) % 21, rng=structure, uid=t),
            int(structure.integers(1, 5)),
        )
        for t in range(pool)
    ]
    rng = np.random.default_rng(seed)
    buckets = [10 + rng.permutation(24) for _ in range(pool)]  # 2^10 .. 2^33
    draws = _Draws(rng, range(pool))
    per_conn: List[List[Request]] = [[], []]
    for i in range(n):
        t, repeat = i % pool, i // pool
        template, level = templates[t]
        cardinality = _bucket_cardinality(
            int(buckets[t][repeat % 24]), draws.fraction(t)
        )
        conn = i % 2
        per_conn[conn].append(
            _request(f"c{conn}-{i}", conn, t, i < pool, 0,
                     template(cardinality, level))
        )
    return Workload("cold-large", _interleave(per_conn), [])


def _bucket_cardinality(center_log2: int, fraction: float) -> float:
    # Strictly inside the fingerprint's log2 bucket around ``center_log2``.
    return float(2.0 ** (center_log2 + 0.9 * (fraction - 0.5)))


#: Step of the per-template parameter sequences (the golden ratio's
#: fractional part): consecutive values spread evenly over [0, 1).
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class _Draws:
    """Stratified, seeded re-queries over a set of templates.

    Templates come in shuffled rounds (each equally often), and each
    template's parameters walk a golden-ratio sequence from a seeded
    offset, so every seed gives a run of the same composition: the seed
    moves the order and the exact values, not the mix.
    """

    def __init__(self, rng, templates):
        self.rng = rng
        self.templates = list(templates)
        self.round: List[int] = []
        self.position = {t: float(rng.random()) for t in self.templates}

    def template(self) -> int:
        if not self.round:
            self.round = [int(t) for t in self.rng.permutation(self.templates)]
        return self.round.pop()

    def fraction(self, template: int) -> float:
        """The template's next parameter position in [0, 1)."""
        self.position[template] = (self.position[template] + _GOLDEN) % 1.0
        return self.position[template]


def hot_small(seed: int, n: int, n_templates: int = 20) -> Workload:
    """20 small templates re-queried inside one fingerprint bucket each."""
    structure = np.random.default_rng(STRUCTURE_SEED + 1)
    templates = [
        (
            build_template(SHAPES[t % 4], 6 + t % 5, rng=structure, uid=t),
            int(round(structure.uniform(3.0, 9.0) * math.log2(10.0))),
            int(structure.integers(1, 5)),
        )
        for t in range(n_templates)
    ]
    rng = np.random.default_rng(seed)
    per_conn: List[List[Request]] = [[], []]
    owned = [list(range(0, n_templates, 2)), list(range(1, n_templates, 2))]
    fingerprints = {}
    for conn in (0, 1):
        draws = _Draws(rng, owned[conn])
        for k in range(n // 2):
            first = k < len(owned[conn])  # first pass: each owned template once
            template_index = owned[conn][k] if first else draws.template()
            template, center, level = templates[template_index]
            cardinality = (
                2.0 ** center if first
                else _bucket_cardinality(center, draws.fraction(template_index))
            )
            plan = template(cardinality, level)
            fp = plan_fingerprint(plan)
            if fingerprints.setdefault(template_index, fp) != fp:
                raise AssertionError(f"template {template_index} left its bucket")
            per_conn[conn].append(
                _request(f"c{conn}-{k}", conn, template_index, first, 0, plan)
            )
    return Workload("hot-small", _interleave(per_conn), [])


#: param-shift: count-based retraining after this many fresh observations.
RETRAIN_AFTER = 6


def param_shift(seed: int, n: int, n_old: int = 16, n_new: int = 8) -> Workload:
    """Parametric traffic whose data grows halfway through the run.

    ``n_old`` templates are queried from the start at cardinalities in
    [1e3, 1e5]; at the shift the range moves to [1e6, 1e8] and ``n_new``
    templates join. Every template's first request enumerates (and feeds
    the retraining loop); later ones are exact or template-cache hits.
    """
    structure = np.random.default_rng(STRUCTURE_SEED + 2)
    templates = [
        (
            build_template(SHAPES[t % 4], 8 + (t * 3) % 9, rng=structure, uid=t),
            int(structure.integers(1, 5)),
        )
        for t in range(n_old + n_new)
    ]
    rng = np.random.default_rng(seed)
    ranges = ((3.0, 5.0), (6.0, 8.0))
    live = [range(n_old), range(n_old + n_new)]
    draws = {
        (phase, conn): _Draws(rng, [t for t in live[phase] if t % 2 == conn])
        for phase in (0, 1)
        for conn in (0, 1)
    }
    requests: List[Request] = []
    seen = set()
    for i in range(n):
        phase = 0 if i < n // 2 else 1
        conn = i % 2
        d = draws[phase, conn]
        unseen = [t for t in d.templates if t not in seen]
        lo, hi = ranges[phase]
        if unseen:  # a template's first request: the centre of the range
            t, exponent = unseen[0], (lo + hi) / 2.0
        else:
            t = d.template()
            exponent = lo + (hi - lo) * d.fraction(t)
        seen.add(t)
        template, level = templates[t]
        plan = template(float(10.0 ** exponent), level)
        requests.append(
            _request(f"c{conn}-{i}", conn, t, bool(unseen), phase, plan)
        )
    return Workload(
        "param-shift",
        requests,
        ["--template-cache", "{prefix}.templates.json", "--feedback",
         "--retrain-after", str(RETRAIN_AFTER)],
        feedback=True,
    )


WORKLOADS = {
    "cold-large": cold_large,
    "hot-small": hot_small,
    "param-shift": param_shift,
}


def build_workload(name: str, seed: int, seconds: int) -> Workload:
    """The request stream of one run: ``RATES[name] * seconds`` requests."""
    n = max(RATES[name] * seconds, 48)
    n -= n % 2
    return WORKLOADS[name](seed, n)
