"""Property and contract tests for the serve wire protocol.

The wire schema's promises (see ``repro/serve/protocol.py``):

* arbitrary frames survive ``to_json`` → ``from_json`` bit-identically
  (hypothesis-generated, dataclass equality AND re-serialized text);
* unknown fields are ignored (a newer peer may add fields);
* a version mismatch is a structured ``version_mismatch`` error;
* malformed frames raise :class:`ProtocolError` with a ``bad_request``
  code — never anything else;
* the JSONL job-row vocabulary (``load_jobs_jsonl``) degrades per-row.
"""

import dataclasses
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import ReproError
from repro.serve import protocol
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    ErrorResponse,
    OptimizeRequest,
    OptimizeResponse,
    ProtocolError,
    ShutdownRequest,
    ShutdownResponse,
    StatsRequest,
    StatsResponse,
    job_row_to_request,
    load_jobs_jsonl,
    parse_request,
    parse_response,
    parse_size,
    request_to_job,
    request_to_plan,
    resolve_workload,
)

# Finite floats only: NaN/inf are not JSON, and the schema rejects them
# (to_json uses allow_nan=False).
finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=1e-3, max_value=1e15)
nonneg = st.floats(min_value=0.0, max_value=1e9)
names = st.text(
    alphabet=st.characters(codec="utf-8", exclude_categories=("Cs",)), max_size=24
)

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(10**9), max_value=10**9)
    | finite
    | names,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(names, children, max_size=3),
    max_leaves=8,
)
json_objects = st.dictionaries(names, json_values, max_size=4)

optimize_requests = st.builds(
    OptimizeRequest,
    request_id=names,
    plan=st.none(),
    workload=st.just("WordCount"),
    size_bytes=st.none() | positive,
    deadline_ms=st.none() | nonneg,
    tags=json_objects,
) | st.builds(
    OptimizeRequest,
    request_id=names,
    plan=json_objects,
    workload=st.none(),
    size_bytes=st.none() | positive,
    deadline_ms=st.none() | nonneg,
    tags=json_objects,
)

optimize_responses = st.builds(
    OptimizeResponse,
    request_id=names,
    predicted_runtime=finite,
    platforms=st.lists(names, max_size=3),
    assignment=st.dictionaries(names, names, max_size=3),
    stats=json_objects,
    optimizer=names,
    degraded=names,
    cached=st.booleans(),
    coalesced=st.booleans(),
    duration_ms=finite,
)

error_responses = st.builds(
    ErrorResponse,
    request_id=names,
    error=names,
    code=st.sampled_from(
        ["bad_request", "overloaded", "shutting_down", "timeout", "internal"]
    ),
    retry_after_ms=st.none() | nonneg,
)


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(optimize_requests)
    def test_request_round_trip_bit_identical(self, request):
        text = request.to_json()
        back = parse_request(text)
        assert back == request
        assert back.to_json() == text

    @settings(max_examples=60, deadline=None)
    @given(optimize_responses)
    def test_response_round_trip_bit_identical(self, response):
        text = response.to_json()
        back = parse_response(text)
        assert back == response
        assert back.to_json() == text

    @settings(max_examples=40, deadline=None)
    @given(error_responses)
    def test_error_round_trip_bit_identical(self, response):
        text = response.to_json()
        back = parse_response(text)
        assert back == response
        assert back.to_json() == text

    def test_stats_and_shutdown_round_trip(self):
        for frame in (
            StatsRequest(request_id="s1"),
            ShutdownRequest(request_id="s2"),
            StatsResponse(
                request_id="s1",
                counters={"serve.jobs": 3.0},
                latency_ms={"p50": 1.5, "p95": 9.0, "p99": 12.0},
                pending=2,
                draining=True,
                uptime_s=4.5,
            ),
            ShutdownResponse(request_id="s2", draining=True, pending=1),
        ):
            text = frame.to_json()
            parse = (
                parse_request
                if isinstance(frame, (StatsRequest, ShutdownRequest))
                else parse_response
            )
            back = parse(text)
            assert back == frame
            assert back.to_json() == text

    def test_stats_feedback_payload_round_trips(self):
        """The ISSUE 10 stats extension: drift health + retrain counters
        ride the stats frame, and frames from older daemons (no
        ``feedback`` key) parse to an empty dict."""
        frame = StatsResponse(
            request_id="s3",
            counters={"serve.jobs": 1.0},
            latency_ms={"p50": 1.0, "p95": 2.0, "p99": 3.0},
            pending=0,
            draining=False,
            uptime_s=1.0,
            feedback={
                "q_error": 2.5,
                "status": "warn",
                "retrains": 1,
                "model_generation": 1,
                "observations_total": 40,
            },
        )
        text = frame.to_json()
        back = parse_response(text)
        assert back == frame
        assert back.feedback["status"] == "warn"
        # An old daemon's frame has no feedback key at all.
        doc = json.loads(text)
        del doc["feedback"]
        old = parse_response(json.dumps(doc))
        assert old.feedback == {}
        # A no-sample q_error travels as null (to_json forbids NaN).
        frame.feedback["q_error"] = None
        assert parse_response(frame.to_json()).feedback["q_error"] is None

    def test_every_frame_carries_version_and_type(self):
        doc = json.loads(OptimizeRequest(workload="WordCount").to_json())
        assert doc["v"] == PROTOCOL_VERSION
        assert doc["type"] == "optimize"
        doc = json.loads(ErrorResponse(error="x").to_json())
        assert doc["v"] == PROTOCOL_VERSION
        assert doc["type"] == "error"


stats_requests = st.builds(StatsRequest, request_id=names)
shutdown_requests = st.builds(ShutdownRequest, request_id=names)
stats_responses = st.builds(
    StatsResponse,
    request_id=names,
    counters=st.dictionaries(names, finite, max_size=4),
    latency_ms=st.dictionaries(names, finite, max_size=3),
    pending=st.integers(min_value=0, max_value=10**6),
    draining=st.booleans(),
    uptime_s=nonneg,
    feedback=json_objects,
)
shutdown_responses = st.builds(
    ShutdownResponse,
    request_id=names,
    draining=st.booleans(),
    pending=st.integers(min_value=0, max_value=10**6),
)
any_frame = st.one_of(
    optimize_requests,
    optimize_responses,
    error_responses,
    stats_requests,
    stats_responses,
    shutdown_requests,
    shutdown_responses,
)


def _asdict_json(frame) -> str:
    """The frame encoding as ``dataclasses.asdict`` produced it."""
    doc = {"v": PROTOCOL_VERSION, "type": frame.TYPE}
    for key, value in dataclasses.asdict(frame).items():
        if value is not None:
            doc[key] = value
    return json.dumps(doc, separators=(",", ":"), allow_nan=False)


class TestShallowEncoding:
    """``to_dict`` reads the fields without the recursive ``asdict`` copy;
    the bytes on the wire must not change."""

    @settings(max_examples=150, deadline=None)
    @given(any_frame)
    def test_same_bytes_as_the_asdict_encoding(self, frame):
        assert frame.to_json() == _asdict_json(frame)

    def test_every_frame_type_is_generated(self):
        """``any_frame`` draws from one strategy per frame class."""
        frame_types = {
            cls
            for cls in vars(protocol).values()
            if isinstance(cls, type)
            and issubclass(cls, protocol._Frame)
            and cls is not protocol._Frame
        }
        assert frame_types == {
            OptimizeRequest,
            OptimizeResponse,
            ErrorResponse,
            StatsRequest,
            StatsResponse,
            ShutdownRequest,
            ShutdownResponse,
        }


class TestTolerance:
    @settings(max_examples=40, deadline=None)
    @given(optimize_requests, json_values)
    def test_unknown_fields_are_ignored(self, request, extra):
        doc = json.loads(request.to_json())
        doc["field_from_the_future"] = extra
        assert parse_request(json.dumps(doc)) == request

    def test_unknown_response_fields_are_ignored(self):
        doc = json.loads(OptimizeResponse(request_id="a").to_json())
        doc["telemetry"] = {"spans": [1, 2, 3]}
        assert parse_response(json.dumps(doc)).request_id == "a"


class TestRejection:
    def test_version_mismatch_is_structured(self):
        frame = json.dumps({"v": PROTOCOL_VERSION + 1, "type": "optimize"})
        with pytest.raises(ProtocolError) as err:
            parse_request(frame)
        assert err.value.code == "version_mismatch"
        response = err.value.to_response()
        assert response.code == "version_mismatch"
        assert not response.ok

    def test_missing_version_is_a_mismatch(self):
        with pytest.raises(ProtocolError) as err:
            parse_request(json.dumps({"type": "optimize"}))
        assert err.value.code == "version_mismatch"

    def test_version_error_carries_request_id(self):
        frame = json.dumps({"v": 99, "type": "optimize", "request_id": "r7"})
        with pytest.raises(ProtocolError) as err:
            parse_request(frame)
        assert err.value.request_id == "r7"

    @pytest.mark.parametrize(
        "text",
        [
            "not json at all",
            "[1, 2, 3]",
            '"just a string"',
            json.dumps({"v": PROTOCOL_VERSION, "type": "no_such_frame"}),
            json.dumps({"v": PROTOCOL_VERSION}),
            json.dumps(
                {"v": PROTOCOL_VERSION, "type": "optimize", "request_id": 42}
            ),
            json.dumps(
                {"v": PROTOCOL_VERSION, "type": "optimize", "deadline_ms": "soon"}
            ),
        ],
    )
    def test_malformed_frames_raise_bad_request(self, text):
        with pytest.raises(ProtocolError) as err:
            parse_request(text)
        assert err.value.code in ("bad_request", "version_mismatch")

    def test_request_needs_exactly_one_plan_source(self):
        with pytest.raises(ProtocolError):
            OptimizeRequest(plan=None, workload=None).validate()
        with pytest.raises(ProtocolError):
            OptimizeRequest(plan={"operators": []}, workload="WordCount").validate()

    def test_negative_knobs_are_rejected(self):
        with pytest.raises(ProtocolError):
            OptimizeRequest(workload="WordCount", size_bytes=-1.0).validate()
        with pytest.raises(ProtocolError):
            OptimizeRequest(workload="WordCount", deadline_ms=-5.0).validate()

    def test_nan_never_reaches_the_wire(self):
        response = OptimizeResponse(request_id="x", predicted_runtime=float("nan"))
        with pytest.raises(ValueError):
            response.to_json()


class TestWorkloadResolution:
    @pytest.mark.parametrize("name", ["WordCount", "wordcount", "word count", "Word-Count"])
    def test_name_normalization(self, name):
        plan = resolve_workload(name)
        assert plan.n_operators > 0

    def test_unknown_workload_raises(self):
        with pytest.raises(ReproError, match="unknown workload"):
            resolve_workload("NoSuchThing")

    def test_request_to_plan_resolves_and_validates(self):
        plan = request_to_plan(OptimizeRequest(workload="WordCount"))
        assert plan.n_operators > 0

    def test_request_to_plan_wraps_bad_documents(self):
        with pytest.raises(ProtocolError) as err:
            request_to_plan(OptimizeRequest(plan={"operators": "nope"}))
        assert err.value.code == "bad_request"

    def test_request_to_job_threads_the_knobs(self):
        request = OptimizeRequest(
            request_id="j1",
            workload="WordCount",
            size_bytes=2**20,
            deadline_ms=250.0,
            tags={"team": "qa"},
        )
        job = request_to_job(request)
        assert job.job_id == "j1"
        assert job.size_bytes == 2**20
        assert job.deadline_ms == 250.0
        assert job.tags == {"team": "qa"}


class TestJobRows:
    def test_workload_row(self):
        request = job_row_to_request(
            {"id": "a", "workload": "WordCount", "size": "30MB"}
        )
        assert request.request_id == "a"
        assert request.workload == "WordCount"
        assert request.size_bytes == parse_size("30MB")

    def test_numeric_size(self):
        request = job_row_to_request({"workload": "WordCount", "size": 1024})
        assert request.size_bytes == 1024.0

    def test_bare_plan_document(self):
        doc = {"name": "p", "operators": []}
        request = job_row_to_request(doc)
        assert request.plan == doc
        assert request.request_id == "p"

    def test_deadline_rides_along(self):
        request = job_row_to_request({"workload": "WordCount", "deadline_ms": 50})
        assert request.deadline_ms == 50.0

    @pytest.mark.parametrize(
        "row",
        [
            [1, 2],
            {"id": "x"},
            {"workload": "WordCount", "size": "not-a-size"},
            {"workload": "WordCount", "tags": "not-an-object"},
        ],
    )
    def test_bad_rows_raise_protocol_error(self, row):
        with pytest.raises(ProtocolError):
            job_row_to_request(row)


class TestLoadJobsJsonl:
    def test_per_row_degradation(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        path.write_text(
            "# comment\n"
            "\n"
            '{"id": "good", "workload": "WordCount", "size": "10MB"}\n'
            "this is not json\n"
            '{"id": "badsize", "workload": "WordCount", "size": "oops"}\n'
        )
        requests, errors = load_jobs_jsonl(str(path))
        assert [r.request_id for r in requests] == ["good"]
        assert len(errors) == 2
        assert all(not row["ok"] for row in errors)
        assert "line4" in errors[0]["id"]

    def test_zero_rows_raises(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("# only comments\n\n")
        with pytest.raises(ReproError, match="contains no jobs"):
            load_jobs_jsonl(str(path))

    def test_unreadable_file_raises(self, tmp_path):
        with pytest.raises(ReproError, match="cannot read jobs"):
            load_jobs_jsonl(str(tmp_path / "missing.jsonl"))


class TestParseSize:
    def test_suffixes(self):
        assert parse_size("1KB") == 2**10
        assert parse_size("30MB") == 30 * 2**20
        assert parse_size("6GB") == 6 * 2**30
        assert parse_size("1TB") == 2**40
        assert parse_size(" 2 gb ") == 2 * 2**30
        assert parse_size("123") == 123.0

    def test_cli_reexports_it(self):
        from repro.cli import parse_size as cli_parse_size

        assert cli_parse_size is parse_size
