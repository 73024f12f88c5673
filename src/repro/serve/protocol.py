"""The versioned wire schema of the serving layer.

One schema, three consumers: the :mod:`repro.serve.daemon` asyncio
server, the :mod:`repro.serve.client` sync client, and the
``optimize-batch`` CLI's JSONL job files all speak exactly these frames —
the daemon is just a transport around them.

**Framing.** A frame is one JSON object on one line (newline-delimited
JSON). Every frame carries two envelope fields: ``"v"`` — the protocol
version this module implements (:data:`PROTOCOL_VERSION`) — and
``"type"`` — the frame kind. Parsing is *strict about meaning and
tolerant about extras*: a missing or different ``"v"`` is a structured
``version_mismatch`` error, a wrong field type is a ``bad_request``, and
unknown fields are ignored (a newer peer may add fields; an older server
must not choke on them).

Request frames (client → server):

* ``optimize`` — :class:`OptimizeRequest`: a plan document (the exact
  JSON of :mod:`repro.rheem.serialization`) or a named built-in
  workload, optional size rescale, optional per-request deadline;
* ``stats`` — :class:`StatsRequest`: counters + live latency tails;
* ``shutdown`` — :class:`ShutdownRequest`: begin a graceful drain.

Response frames (server → client):

* ``result`` — :class:`OptimizeResponse`: the chosen platforms and
  assignment, predicted runtime, run stats, cache/coalesce provenance;
* ``error`` — :class:`ErrorResponse`: a structured refusal or failure
  (``code`` taxonomy below, ``retry_after_ms`` for backpressure);
* ``stats`` — :class:`StatsResponse`; ``shutdown`` —
  :class:`ShutdownResponse`.

Error codes: ``bad_request`` (malformed frame or plan),
``version_mismatch``, ``overloaded`` (admission control refused; honor
``retry_after_ms``), ``shutting_down`` (drain in progress),
``timeout`` (per-job budget spent), ``quarantined``,
``optimization_failed`` (the optimizer raised), ``internal``.

This module also owns the JSONL job-row vocabulary the batch CLI
historically parsed ad hoc: :func:`job_row_to_request` /
:func:`load_jobs_jsonl` turn job rows into :class:`OptimizeRequest`
objects, and :func:`request_to_job` resolves a request into a runnable
:class:`~repro.serve.batch.BatchJob` — so a JSONL file, a network
client, and the daemon all describe work identically.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from typing import Any, Dict, List, Optional, Tuple

from repro.exceptions import ReproError

__all__ = [
    "PROTOCOL_VERSION",
    "ProtocolError",
    "OptimizeRequest",
    "OptimizeResponse",
    "ErrorResponse",
    "StatsRequest",
    "StatsResponse",
    "ShutdownRequest",
    "ShutdownResponse",
    "parse_request",
    "parse_response",
    "parse_size",
    "resolve_workload",
    "job_row_to_request",
    "request_to_job",
    "load_jobs_jsonl",
]

#: The wire-schema version this module implements. Bump on any change
#: that an old peer could misread; peers reject mismatches with a
#: structured ``version_mismatch`` error instead of guessing.
PROTOCOL_VERSION = 1

_SUFFIXES = {"KB": 2 ** 10, "MB": 2 ** 20, "GB": 2 ** 30, "TB": 2 ** 40}


def parse_size(text: str) -> float:
    """Parse ``"6GB"``-style sizes into bytes."""
    cleaned = text.strip().upper().replace(" ", "")
    for suffix, factor in _SUFFIXES.items():
        if cleaned.endswith(suffix):
            return float(cleaned[: -len(suffix)]) * factor
    return float(cleaned)


class ProtocolError(ReproError):
    """A frame this endpoint refuses — carries the structured error code.

    Raised by the parsing/validation helpers; the daemon turns it into an
    :class:`ErrorResponse` (never lets it escape the serve loop), the
    client raises it to the caller.
    """

    def __init__(self, message: str, code: str = "bad_request", request_id: str = ""):
        super().__init__(message)
        self.code = code
        self.request_id = request_id

    def to_response(self) -> "ErrorResponse":
        return ErrorResponse(
            request_id=self.request_id, error=str(self), code=self.code
        )


# ---------------------------------------------------------------------------
# Typed field extraction (strict about types, silent about extras)
# ---------------------------------------------------------------------------


def _bad(detail: str, request_id: str = "") -> ProtocolError:
    return ProtocolError(detail, code="bad_request", request_id=request_id)


def _get_str(doc: Dict[str, Any], key: str, default: str = "", rid: str = "") -> str:
    value = doc.get(key, default)
    if not isinstance(value, str):
        raise _bad(f"field {key!r} must be a string, got {type(value).__name__}", rid)
    return value


def _get_opt_number(doc: Dict[str, Any], key: str, rid: str = "") -> Optional[float]:
    value = doc.get(key)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _bad(f"field {key!r} must be a number, got {type(value).__name__}", rid)
    return float(value)


def _get_number(doc: Dict[str, Any], key: str, default: float, rid: str = "") -> float:
    value = _get_opt_number(doc, key, rid)
    return default if value is None else value


def _get_bool(doc: Dict[str, Any], key: str, default: bool, rid: str = "") -> bool:
    value = doc.get(key, default)
    if not isinstance(value, bool):
        raise _bad(f"field {key!r} must be a boolean, got {type(value).__name__}", rid)
    return value


def _get_dict(
    doc: Dict[str, Any], key: str, rid: str = "", optional: bool = False
) -> Optional[Dict[str, Any]]:
    value = doc.get(key)
    if value is None:
        return None if optional else {}
    if not isinstance(value, dict):
        raise _bad(f"field {key!r} must be an object, got {type(value).__name__}", rid)
    return value


def _check_version(doc: Dict[str, Any], rid: str) -> None:
    version = doc.get("v")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"protocol version mismatch: peer sent v={version!r}, "
            f"this endpoint speaks v={PROTOCOL_VERSION}",
            code="version_mismatch",
            request_id=rid,
        )


# ---------------------------------------------------------------------------
# Frames
# ---------------------------------------------------------------------------


class _Frame:
    """Shared to_json plumbing; subclasses define TYPE, fields and from_dict."""

    TYPE = ""

    def to_dict(self) -> Dict[str, Any]:
        """The frame's JSON document; ``None`` fields are left out.

        Shallow: every field already holds a JSON-native value, so the
        recursive copy ``dataclasses.asdict`` would make is not needed.
        The document shares its dict/list values with the frame.
        """
        doc: Dict[str, Any] = {"v": PROTOCOL_VERSION, "type": self.TYPE}
        for f in fields(self):
            value = getattr(self, f.name)
            if value is not None:
                doc[f.name] = value
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), separators=(",", ":"), allow_nan=False)

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]):  # pragma: no cover - overridden
        raise NotImplementedError


@dataclass
class OptimizeRequest(_Frame):
    """One optimization request: a plan (or workload) plus knobs.

    Exactly one of ``plan`` (a serialized plan document) and ``workload``
    (a built-in workload name) must be set. ``size_bytes`` rescales the
    plan's input datasets before optimizing; ``deadline_ms`` is this
    request's anytime budget, threaded into
    :mod:`repro.resilience.budget`; ``tags`` travel untouched into the
    response's provenance.
    """

    TYPE = "optimize"

    request_id: str = ""
    plan: Optional[Dict[str, Any]] = None
    workload: Optional[str] = None
    size_bytes: Optional[float] = None
    deadline_ms: Optional[float] = None
    tags: Dict[str, Any] = field(default_factory=dict)

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "OptimizeRequest":
        rid = _get_str(doc, "request_id")
        request = cls(
            request_id=rid,
            plan=_get_dict(doc, "plan", rid, optional=True),
            workload=(
                _get_str(doc, "workload", rid=rid) if doc.get("workload") is not None else None
            ),
            size_bytes=_get_opt_number(doc, "size_bytes", rid),
            deadline_ms=_get_opt_number(doc, "deadline_ms", rid),
            tags=_get_dict(doc, "tags", rid) or {},
        )
        request.validate()
        return request

    def validate(self) -> None:
        if (self.plan is None) == (self.workload is None):
            raise _bad(
                "an optimize request needs exactly one of 'plan' and 'workload'",
                self.request_id,
            )
        if self.size_bytes is not None and self.size_bytes <= 0:
            raise _bad(
                f"size_bytes must be positive, got {self.size_bytes}",
                self.request_id,
            )
        if self.deadline_ms is not None and self.deadline_ms < 0:
            raise _bad(
                f"deadline_ms must be >= 0, got {self.deadline_ms}",
                self.request_id,
            )


@dataclass
class OptimizeResponse(_Frame):
    """The daemon's answer to one :class:`OptimizeRequest`.

    ``stats`` is the run's :meth:`repro.api.RunStats.as_dict`;
    ``degraded`` names the degradation cause (empty = ran to
    completion); ``cached``/``coalesced`` record whether the answer came
    from the plan cache or from a sibling's in-flight computation;
    ``duration_ms`` is accept-to-answer as the daemon measured it.
    """

    TYPE = "result"

    request_id: str = ""
    predicted_runtime: float = 0.0
    platforms: List[str] = field(default_factory=list)
    assignment: Dict[str, str] = field(default_factory=dict)
    stats: Dict[str, Any] = field(default_factory=dict)
    optimizer: str = ""
    degraded: str = ""
    cached: bool = False
    coalesced: bool = False
    duration_ms: float = 0.0

    #: Result frames always satisfy ``ok`` — the error/result dichotomy
    #: clients branch on without isinstance checks.
    ok = True

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "OptimizeResponse":
        rid = _get_str(doc, "request_id")
        platforms = doc.get("platforms", [])
        if not isinstance(platforms, list) or not all(
            isinstance(p, str) for p in platforms
        ):
            raise _bad("field 'platforms' must be a list of strings", rid)
        assignment = _get_dict(doc, "assignment", rid) or {}
        if not all(
            isinstance(k, str) and isinstance(v, str) for k, v in assignment.items()
        ):
            raise _bad("field 'assignment' must map strings to strings", rid)
        return cls(
            request_id=rid,
            predicted_runtime=_get_number(doc, "predicted_runtime", 0.0, rid),
            platforms=list(platforms),
            assignment=dict(assignment),
            stats=_get_dict(doc, "stats", rid) or {},
            optimizer=_get_str(doc, "optimizer", rid=rid),
            degraded=_get_str(doc, "degraded", rid=rid),
            cached=_get_bool(doc, "cached", False, rid),
            coalesced=_get_bool(doc, "coalesced", False, rid),
            duration_ms=_get_number(doc, "duration_ms", 0.0, rid),
        )


@dataclass
class ErrorResponse(_Frame):
    """A structured refusal or failure for one request.

    ``code`` is the machine-readable taxonomy (module docstring);
    ``retry_after_ms`` accompanies ``overloaded`` so clients back off a
    sensible amount instead of hammering.
    """

    TYPE = "error"

    request_id: str = ""
    error: str = ""
    code: str = "internal"
    retry_after_ms: Optional[float] = None

    ok = False

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "ErrorResponse":
        rid = _get_str(doc, "request_id")
        return cls(
            request_id=rid,
            error=_get_str(doc, "error", rid=rid),
            code=_get_str(doc, "code", "internal", rid) or "internal",
            retry_after_ms=_get_opt_number(doc, "retry_after_ms", rid),
        )


@dataclass
class StatsRequest(_Frame):
    TYPE = "stats"

    request_id: str = ""

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "StatsRequest":
        return cls(request_id=_get_str(doc, "request_id"))


@dataclass
class StatsResponse(_Frame):
    """A live snapshot of the daemon: counters + latency tails.

    ``counters`` are the daemon tracer's ``serve.*`` (and optimizer)
    counters; ``latency_ms`` carries ``p50``/``p95``/``p99`` over the
    recent answered-request window; ``pending`` counts accepted requests
    not yet answered. ``feedback`` is the feedback/drift payload (drift
    q-error and status, observation/retrain counts, model generation) —
    empty when the daemon runs without ``--feedback``, and absent from
    frames of older daemons, so clients must treat it as optional.
    """

    TYPE = "stats"

    request_id: str = ""
    counters: Dict[str, float] = field(default_factory=dict)
    latency_ms: Dict[str, float] = field(default_factory=dict)
    pending: int = 0
    draining: bool = False
    uptime_s: float = 0.0
    feedback: Dict[str, Any] = field(default_factory=dict)

    ok = True

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "StatsResponse":
        rid = _get_str(doc, "request_id")
        return cls(
            request_id=rid,
            counters=_get_dict(doc, "counters", rid) or {},
            latency_ms=_get_dict(doc, "latency_ms", rid) or {},
            pending=int(_get_number(doc, "pending", 0, rid)),
            draining=_get_bool(doc, "draining", False, rid),
            uptime_s=_get_number(doc, "uptime_s", 0.0, rid),
            feedback=_get_dict(doc, "feedback", rid) or {},
        )


@dataclass
class ShutdownRequest(_Frame):
    TYPE = "shutdown"

    request_id: str = ""

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "ShutdownRequest":
        return cls(request_id=_get_str(doc, "request_id"))


@dataclass
class ShutdownResponse(_Frame):
    """Acknowledges a drain: the daemon stops admitting and will exit."""

    TYPE = "shutdown"

    request_id: str = ""
    draining: bool = True
    pending: int = 0

    ok = True

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "ShutdownResponse":
        rid = _get_str(doc, "request_id")
        return cls(
            request_id=rid,
            draining=_get_bool(doc, "draining", True, rid),
            pending=int(_get_number(doc, "pending", 0, rid)),
        )


_REQUEST_TYPES = {
    OptimizeRequest.TYPE: OptimizeRequest,
    StatsRequest.TYPE: StatsRequest,
    ShutdownRequest.TYPE: ShutdownRequest,
}
_RESPONSE_TYPES = {
    OptimizeResponse.TYPE: OptimizeResponse,
    ErrorResponse.TYPE: ErrorResponse,
    StatsResponse.TYPE: StatsResponse,
    ShutdownResponse.TYPE: ShutdownResponse,
}


def _parse(text: str, table: Dict[str, type], side: str):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise _bad(f"invalid JSON frame ({exc})") from exc
    if not isinstance(doc, dict):
        raise _bad(f"a frame must be a JSON object, got {type(doc).__name__}")
    rid = doc.get("request_id")
    rid = rid if isinstance(rid, str) else ""
    _check_version(doc, rid)
    kind = doc.get("type")
    cls = table.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise _bad(f"unknown {side} frame type {kind!r}", rid)
    return cls.from_dict(doc)


def parse_request(text: str):
    """Parse one client→server line into a request frame (daemon side)."""
    return _parse(text, _REQUEST_TYPES, "request")


def parse_response(text: str):
    """Parse one server→client line into a response frame (client side)."""
    return _parse(text, _RESPONSE_TYPES, "response")


# ---------------------------------------------------------------------------
# Job rows: the JSONL vocabulary of `repro optimize-batch --jobs`
# ---------------------------------------------------------------------------


def resolve_workload(name: str, size_bytes: Optional[float] = None):
    """A built-in Table II workload by (normalization-tolerant) name."""
    from repro.workloads import TABLE2

    key = {k.lower().replace(" ", "").replace("-", ""): k for k in TABLE2}
    normalized = name.lower().replace(" ", "").replace("-", "")
    if normalized not in key:
        raise ReproError(
            f"unknown workload {name!r}; known: {', '.join(sorted(TABLE2))}"
        )
    full = key[normalized]
    module, _, _ = TABLE2[full]
    kwargs = {}
    if size_bytes is not None:
        kwargs["size_bytes"] = size_bytes
    if full == "TPC-H Q1":
        return module.q1(**kwargs)
    if full == "TPC-H Q3":
        return module.q3(**kwargs)
    return module.plan(**kwargs)


def job_row_to_request(doc: Any, default_id: str = "") -> OptimizeRequest:
    """One JSONL job row → an :class:`OptimizeRequest`.

    A row is a JSON object: ``{"id", "plan": <plan doc>}``, ``{"id",
    "workload": <name>, "size": "6GB"}``, or a bare plan document (an
    object with an ``"operators"`` key). Malformed rows raise
    :class:`ProtocolError` with a human-readable detail.
    """
    if not isinstance(doc, dict):
        raise _bad(f"expected a JSON object, got {type(doc).__name__}", default_id)
    size = None
    if doc.get("size"):
        try:
            raw = doc["size"]
            size = parse_size(raw) if isinstance(raw, str) else float(raw)
        except (TypeError, ValueError) as exc:
            raise _bad(f"invalid size {doc.get('size')!r} ({exc})", default_id) from exc
    tags = doc.get("tags", {})
    if not isinstance(tags, dict):
        raise _bad(f"tags must be an object, got {type(tags).__name__}", default_id)
    deadline_ms = _get_opt_number(doc, "deadline_ms", default_id)
    plan_doc: Optional[Dict[str, Any]] = None
    workload: Optional[str] = None
    if "plan" in doc:
        plan_doc = _get_dict(doc, "plan", default_id)
    elif "workload" in doc:
        workload = _get_str(doc, "workload", rid=default_id)
    elif "operators" in doc:
        plan_doc = doc
    else:
        raise _bad(
            "a job needs a 'plan', 'workload' or bare plan document", default_id
        )
    job_id = str(doc.get("id") or "") or default_id
    if plan_doc is not None and not job_id:
        job_id = str(plan_doc.get("name") or "") or default_id
    return OptimizeRequest(
        request_id=job_id,
        plan=plan_doc,
        workload=workload,
        size_bytes=size,
        deadline_ms=deadline_ms,
        tags=tags,
    )


def request_to_plan(request: OptimizeRequest):
    """Resolve a request's plan document or workload into a validated
    :class:`~repro.rheem.logical_plan.LogicalPlan` (unscaled —
    ``size_bytes`` is applied by the job/service layer)."""
    from repro.rheem.serialization import plan_from_dict

    try:
        if request.plan is not None:
            plan = plan_from_dict(request.plan)
        elif request.workload is not None:
            plan = resolve_workload(request.workload)
        else:
            raise _bad("request has neither plan nor workload", request.request_id)
        plan.validate()
    except ProtocolError:
        raise
    except ReproError as exc:
        raise _bad(f"invalid job ({exc})", request.request_id) from exc
    except Exception as exc:
        raise _bad(
            f"invalid plan document ({type(exc).__name__}: {exc})",
            request.request_id,
        ) from exc
    return plan


def request_to_job(request: OptimizeRequest):
    """An :class:`OptimizeRequest` → a runnable BatchJob (plan resolved
    and validated; raises :class:`ProtocolError` for malformed ones)."""
    from repro.serve.batch import BatchJob

    plan = request_to_plan(request)
    job_id = request.request_id or plan.name or "job"
    return BatchJob(
        job_id,
        plan,
        size_bytes=request.size_bytes,
        tags=request.tags,
        deadline_ms=request.deadline_ms,
    )


def load_jobs_jsonl(path: str) -> Tuple[List[OptimizeRequest], List[Dict[str, Any]]]:
    """Parse a JSONL job file into requests plus per-row error entries.

    Every malformed line — invalid JSON, a non-object, a bad size or
    tags type — becomes an error row (``{"id", "ok": False, "error"}``)
    instead of failing the whole file; plan-document *content* is
    validated later by :func:`request_to_job` (locally) or the daemon
    (remotely). Only an unreadable file or a file with zero rows raises.
    """
    requests: List[OptimizeRequest] = []
    error_rows: List[Dict[str, Any]] = []
    try:
        f = open(path)
    except OSError as exc:
        raise ReproError(f"cannot read jobs from {path}: {exc}") from exc

    with f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            default_id = f"line{lineno}"
            try:
                doc = json.loads(line)
            except json.JSONDecodeError as exc:
                error_rows.append(
                    {
                        "id": default_id,
                        "ok": False,
                        "error": f"{path}:{lineno}: invalid JSON ({exc})",
                    }
                )
                continue
            try:
                requests.append(job_row_to_request(doc, default_id))
            except ProtocolError as exc:
                error_rows.append(
                    {
                        "id": default_id,
                        "ok": False,
                        "error": f"{path}:{lineno}: {exc}",
                    }
                )
    if not requests and not error_rows:
        raise ReproError(f"{path} contains no jobs")
    return requests, error_rows
