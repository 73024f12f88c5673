"""End-to-end tests for the ``repro serve`` daemon.

The daemon's contracts (see ``repro/serve/daemon.py``):

* an ``optimize`` frame is answered with a real execution plan;
* two clients asking for the same fingerprint concurrently share one
  optimization (``serve.jobs_coalesced``);
* past ``max_pending`` accepted requests, new work is refused with a
  structured ``overloaded`` error carrying ``retry_after_ms``;
* no client input — malformed JSON, wrong version — can raise past the
  serve loop: each yields an ``error`` frame on that connection only;
* a client disconnecting mid-request does not hurt the daemon or the
  coalesced siblings of its in-flight work;
* a ``shutdown`` frame (or SIGTERM, tested via subprocess) drains:
  in-flight jobs are answered, new ones get ``shutting_down``, and the
  process exits 0.

The in-process tests host the daemon's event loop in a background
thread (asyncio signal handlers need the main thread, so drain is
driven by the ``shutdown`` frame there; SIGTERM gets a subprocess).
"""

from __future__ import annotations

import os
import signal
import socket as socket_module
import subprocess
import sys
import threading
import time

import pytest

from repro.resilience import PROFILES, ChaosProfile
from repro.rheem.platforms import synthetic_registry
from repro.rheem.serialization import plan_to_dict
from repro.serve import (
    BatchOptimizationService,
    PlanCache,
    ServeClient,
    resilient_robopt_factory,
)
from repro.serve.protocol import OptimizeRequest
from repro.serve.testing import (
    DaemonHarness,
    count_markers,
    counting_robopt_factory,
    linear_robopt_factory,
    run_daemon,
)

from conftest import build_join_plan, build_pipeline

N_PLATFORMS = 2


def _named(plan, name):
    plan.name = name
    return plan


def _plan_request(plan, request_id="", **kwargs):
    return OptimizeRequest(
        request_id=request_id, plan=plan_to_dict(plan), **kwargs
    )


def _sleepy_service(sleep_s):
    """Serial service whose plans named ``*sleep*`` take ``sleep_s`` longer."""
    factory = resilient_robopt_factory(
        platforms=N_PLATFORMS,
        chaos=ChaosProfile(latency_ms=sleep_s * 1000.0, match="sleep"),
    )
    return BatchOptimizationService(
        factory, synthetic_registry(N_PLATFORMS), workers=0
    )


def _service(factory_kwargs=None, **service_kwargs):
    factory = linear_robopt_factory(platforms=N_PLATFORMS, **(factory_kwargs or {}))
    service_kwargs.setdefault("workers", 0)
    return BatchOptimizationService(
        factory, synthetic_registry(N_PLATFORMS), **service_kwargs
    )


class TestOptimizePath:
    def test_optimize_round_trip(self, tmp_path):
        with run_daemon(_service(), unix_path=str(tmp_path / "d.sock")) as harness:
            with ServeClient(harness.address) as client:
                response = client.optimize(_plan_request(build_pipeline(3)))
                assert response.ok, response
                assert response.predicted_runtime > 0.0
                assert response.platforms
                assert len(response.assignment) == 5  # source + 3 + sink
                assert response.stats["final_vectors"] >= 1
                assert response.optimizer == "robopt"
                assert response.duration_ms > 0.0
                assert not response.coalesced

    def test_tcp_transport_works_too(self):
        with run_daemon(_service(), host="127.0.0.1", port=0) as harness:
            host, port = harness.address.rsplit(":", 1)
            assert int(port) > 0
            with ServeClient(harness.address) as client:
                assert client.optimize(_plan_request(build_pipeline(2))).ok

    def test_pipelined_requests_on_one_connection(self, tmp_path):
        with run_daemon(_service(), unix_path=str(tmp_path / "d.sock")) as harness:
            with ServeClient(harness.address) as client:
                requests = [
                    _plan_request(build_pipeline(2)),
                    _plan_request(build_pipeline(3)),
                    _plan_request(build_join_plan()),
                ]
                responses = client.optimize_many(requests)
                assert len(responses) == 3
                assert all(r.ok for r in responses)
                # answers matched back to their requests by id
                assert [r.request_id for r in responses] == [
                    q.request_id for q in requests
                ]

    def test_size_bytes_scales_the_plan(self, tmp_path):
        with run_daemon(_service(), unix_path=str(tmp_path / "d.sock")) as harness:
            with ServeClient(harness.address) as client:
                plan = build_pipeline(3)
                small = client.optimize(_plan_request(plan, size_bytes=2**20))
                large = client.optimize(_plan_request(plan, size_bytes=2**34))
                assert small.ok and large.ok
                assert large.predicted_runtime > small.predicted_runtime

    def test_stats_frame_reports_live_state(self, tmp_path):
        with run_daemon(_service(), unix_path=str(tmp_path / "d.sock")) as harness:
            with ServeClient(harness.address) as client:
                client.optimize(_plan_request(build_pipeline(2)))
                stats = client.stats()
                assert stats.counters["serve.daemon.requests"] == 1
                assert stats.counters["serve.daemon.connections"] >= 1
                assert set(stats.latency_ms) == {"p50", "p95", "p99"}
                assert stats.latency_ms["p95"] >= stats.latency_ms["p50"] > 0.0
                assert stats.pending == 0
                assert not stats.draining
                assert stats.uptime_s > 0.0
                # no --feedback: the frame carries an empty feedback dict
                assert stats.feedback == {}

    def test_stats_frame_carries_feedback_health(self, tmp_path):
        """With a feedback controller attached, the stats frame reports
        the drift/retrain health block so operators can watch the loop
        without shell access to the daemon host."""
        from repro.core.features import FeatureSchema
        from repro.ml.drift import DriftMonitor
        from repro.ml.feedback import FeedbackLoop
        from repro.serve.feedback import FeedbackController

        class _InstantExecutor:
            def execute(self, xplan, timeout_s=3600.0):
                class _Report:
                    ok = True
                    status = "success"
                    runtime_s = 12.0
                    detail = ""

                return _Report()

        registry = synthetic_registry(N_PLATFORMS)
        controller = FeedbackController(
            FeedbackLoop(FeatureSchema(registry), n_estimators=3, max_depth=6),
            _InstantExecutor(),
            drift=DriftMonitor(min_samples=2),
            retrain_after=0,
            min_observations=10**9,  # observe-only: never retrain here
        )
        service = BatchOptimizationService(
            linear_robopt_factory(platforms=N_PLATFORMS),
            registry,
            workers=0,
            feedback=controller,
        )
        with run_daemon(service, unix_path=str(tmp_path / "d.sock")) as harness:
            with ServeClient(harness.address) as client:
                client.optimize(_plan_request(build_pipeline(2)))
                stats = client.stats()
                assert stats.feedback["observations_total"] == 1
                assert stats.feedback["model_generation"] == 0
                assert stats.feedback["status"] in ("ok", "warn", "drifted")
                assert stats.feedback["retrains"] == 0

    def test_background_retrains_count_into_the_stats_frame(self, tmp_path):
        """A ``--feedback`` refit on a background thread still counts into
        the daemon's tracer: one ``serve.model_swaps`` and one
        ``serve.feedback.retrains`` per installed model."""
        from repro.core.features import FeatureSchema
        from repro.ml.feedback import FeedbackLoop
        from repro.serve.feedback import FeedbackController

        class _InstantExecutor:
            def execute(self, xplan, timeout_s=3600.0):
                class _Report:
                    ok = True
                    status = "success"
                    runtime_s = 12.0
                    detail = ""

                return _Report()

        registry = synthetic_registry(N_PLATFORMS)
        controller = FeedbackController(
            FeedbackLoop(FeatureSchema(registry), n_estimators=3, max_depth=6),
            _InstantExecutor(),
            retrain_after=2,
            min_observations=2,
            background=True,
        )
        service = BatchOptimizationService(
            linear_robopt_factory(platforms=N_PLATFORMS),
            registry,
            workers=0,
            feedback=controller,
        )
        plans = [build_pipeline(2), build_pipeline(3), build_pipeline(4),
                 build_join_plan(), build_pipeline(5), build_pipeline(6)]
        with run_daemon(service, unix_path=str(tmp_path / "d.sock")) as harness:
            with ServeClient(harness.address) as client:
                for i, plan in enumerate(plans):
                    assert client.optimize(_plan_request(plan, f"p{i}")).ok
                    controller.join()
                stats = client.stats()
        installs = stats.feedback["model_generation"]
        assert installs >= 2
        assert stats.counters["serve.model_swaps"] == installs
        assert stats.counters["serve.feedback.retrains"] == installs


class TestCoalescing:
    def test_two_clients_same_fingerprint_one_optimization(self, tmp_path):
        """The ISSUE acceptance bar: concurrent identical requests from
        *different connections* share one computation."""
        state = tmp_path / "markers"
        state.mkdir()
        factory = counting_robopt_factory(
            platforms=N_PLATFORMS, state_dir=str(state), sleep_s=1.0
        )
        service = BatchOptimizationService(
            factory, synthetic_registry(N_PLATFORMS), workers=0
        )
        plan = build_pipeline(3)
        responses = {}

        def ask(name, delay):
            time.sleep(delay)
            with ServeClient(harness.address) as client:
                responses[name] = client.optimize(_plan_request(plan))

        with run_daemon(service, unix_path=str(tmp_path / "d.sock")) as harness:
            threads = [
                threading.Thread(target=ask, args=("owner", 0.0)),
                threading.Thread(target=ask, args=("rider", 0.4)),
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30.0)
            stats = ServeClient(harness.address).stats()

        assert responses["owner"].ok and responses["rider"].ok
        # one optimize() ran; the rider's answer is marked coalesced
        assert count_markers(str(state), "opt") == 1
        assert not responses["owner"].coalesced
        assert responses["rider"].coalesced
        assert stats.counters["serve.jobs_coalesced"] == 1
        assert responses["owner"].predicted_runtime == pytest.approx(
            responses["rider"].predicted_runtime
        )

    def test_no_coalesce_flag_disables_sharing(self, tmp_path):
        state = tmp_path / "markers"
        state.mkdir()
        factory = counting_robopt_factory(
            platforms=N_PLATFORMS, state_dir=str(state), sleep_s=0.5
        )
        service = BatchOptimizationService(
            factory, synthetic_registry(N_PLATFORMS), workers=0
        )
        plan = build_pipeline(3)
        results = []

        def ask(delay):
            time.sleep(delay)
            with ServeClient(harness.address) as client:
                results.append(client.optimize(_plan_request(plan)))

        with run_daemon(
            service, unix_path=str(tmp_path / "d.sock"), coalesce=False
        ) as harness:
            threads = [threading.Thread(target=ask, args=(d,)) for d in (0.0, 0.2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30.0)

        assert all(r.ok for r in results)
        assert not any(r.coalesced for r in results)
        assert count_markers(str(state), "opt") == 2


class TestAdmissionControl:
    def test_overload_burst_gets_structured_refusals(self, tmp_path):
        """Past ``max_pending``, extra requests are refused immediately
        with ``overloaded`` + ``retry_after_ms`` — not queued, not
        dropped, not an exception."""
        service = _sleepy_service(1.0)
        with run_daemon(
            service,
            unix_path=str(tmp_path / "d.sock"),
            max_pending=1,
            coalesce=False,
        ) as harness:
            with ServeClient(harness.address) as client:
                # distinct plans, all marked slow; pipelined in one burst
                requests = [
                    _plan_request(
                        _named(build_pipeline(2 + i), f"sleepy-{i}"), f"r{i}"
                    )
                    for i in range(4)
                ]
                responses = client.optimize_many(requests)
            stats = ServeClient(harness.address).stats()

        accepted = [r for r in responses if r.ok]
        refused = [r for r in responses if not r.ok]
        assert len(accepted) == 1
        assert len(refused) == 3
        for r in refused:
            assert r.code == "overloaded"
            assert r.retry_after_ms >= 50.0
            assert "capacity" in r.error
        assert stats.counters["serve.daemon.overloaded"] == 3

    def test_daemon_recovers_after_the_burst(self, tmp_path):
        service = _sleepy_service(0.5)
        with run_daemon(
            service,
            unix_path=str(tmp_path / "d.sock"),
            max_pending=1,
            coalesce=False,
        ) as harness:
            with ServeClient(harness.address) as client:
                burst = client.optimize_many(
                    [
                        _plan_request(_named(build_pipeline(2), "sleepy-a"), "a"),
                        _plan_request(_named(build_pipeline(3), "sleepy-b"), "b"),
                    ]
                )
                assert sorted(r.ok for r in burst) == [False, True]
                # backlog drained: the next request is admitted normally
                after = client.optimize(_plan_request(build_pipeline(4)))
                assert after.ok


class TestHostileInput:
    def _raw_connection(self, address):
        path = address[len("unix:"):]
        sock = socket_module.socket(socket_module.AF_UNIX)
        sock.connect(path)
        return sock

    def test_malformed_frames_get_error_frames_not_disconnects(self, tmp_path):
        with run_daemon(_service(), unix_path=str(tmp_path / "d.sock")) as harness:
            sock = self._raw_connection(harness.address)
            reader = sock.makefile("rb")
            try:
                for hostile in (
                    b"this is not json\n",
                    b"[1, 2, 3]\n",
                    b'{"v": 1, "type": "no_such_frame"}\n',
                    b'{"v": 99, "type": "optimize", "request_id": "old"}\n',
                ):
                    sock.sendall(hostile)
                    import json

                    doc = json.loads(reader.readline())
                    assert doc["type"] == "error"
                    assert doc["code"] in ("bad_request", "version_mismatch")
                # version mismatch is structured AND keeps the request id
                assert doc["code"] == "version_mismatch"
                assert doc["request_id"] == "old"
                # the connection still serves real work afterwards
                request = _plan_request(build_pipeline(2), "alive")
                sock.sendall((request.to_json() + "\n").encode())
                doc = json.loads(reader.readline())
                assert doc["type"] == "result"
                assert doc["request_id"] == "alive"
            finally:
                sock.close()
            stats = ServeClient(harness.address).stats()
            assert stats.counters["serve.daemon.bad_frames"] == 4
            assert "serve.daemon.internal_errors" not in stats.counters

    def test_invalid_plan_document_is_a_bad_request(self, tmp_path):
        with run_daemon(_service(), unix_path=str(tmp_path / "d.sock")) as harness:
            with ServeClient(harness.address) as client:
                response = client.optimize(
                    OptimizeRequest(plan={"operators": "garbage"})
                )
                assert not response.ok
                assert response.code == "bad_request"

    def test_client_disconnect_mid_request_does_not_hurt_the_daemon(
        self, tmp_path
    ):
        service = _sleepy_service(1.0)
        with run_daemon(service, unix_path=str(tmp_path / "d.sock")) as harness:
            # fire an optimize and hang up without reading the answer
            sock = self._raw_connection(harness.address)
            request = _plan_request(_named(build_pipeline(3), "sleepy-gone"))
            sock.sendall((request.to_json() + "\n").encode())
            time.sleep(0.2)
            sock.close()
            # the daemon finishes the orphaned job and keeps serving
            deadline = time.monotonic() + 20.0
            while harness.daemon.pending and time.monotonic() < deadline:
                time.sleep(0.05)
            assert harness.daemon.pending == 0
            with ServeClient(harness.address) as client:
                assert client.optimize(_plan_request(build_pipeline(2))).ok


class TestDeadlines:
    def test_deadline_degrades_instead_of_failing(self, tmp_path):
        factory = resilient_robopt_factory(platforms=N_PLATFORMS)
        service = BatchOptimizationService(
            factory, synthetic_registry(N_PLATFORMS), workers=0
        )
        with run_daemon(service, unix_path=str(tmp_path / "d.sock")) as harness:
            with ServeClient(harness.address) as client:
                response = client.optimize(
                    _plan_request(build_pipeline(4), deadline_ms=0.0)
                )
                assert response.ok
                assert response.degraded  # best-effort, flagged as such
                # still a complete assignment over every operator
                assert len(response.assignment) == 6

    def test_degraded_answers_are_not_published_to_the_cache(self, tmp_path):
        factory = resilient_robopt_factory(platforms=N_PLATFORMS)
        service = BatchOptimizationService(
            factory,
            synthetic_registry(N_PLATFORMS),
            workers=0,
            cache=PlanCache(),
        )
        with run_daemon(service, unix_path=str(tmp_path / "d.sock")) as harness:
            with ServeClient(harness.address) as client:
                plan = build_pipeline(3)
                first = client.optimize(_plan_request(plan, deadline_ms=0.0))
                assert first.ok and first.degraded
                # a degraded answer must not satisfy later lookups
                second = client.optimize(_plan_request(plan, deadline_ms=0.0))
                assert second.ok and not second.cached
                # full-fidelity results do publish...
                full = client.optimize(_plan_request(plan))
                assert full.ok and not full.degraded and not full.cached
                # ...and the repeat is a hit
                again = client.optimize(_plan_request(plan))
                assert again.ok and again.cached
                assert not again.degraded


class TestDrain:
    def test_shutdown_frame_drains_and_refuses_new_work(self, tmp_path):
        service = _sleepy_service(1.0)
        harness = DaemonHarness(
            service, unix_path=str(tmp_path / "d.sock")
        ).start()
        inflight = {}

        def slow_ask():
            with ServeClient(harness.address) as client:
                inflight["response"] = client.optimize(
                    _plan_request(_named(build_pipeline(3), "sleepy-drain"))
                )

        worker = threading.Thread(target=slow_ask)
        worker.start()
        time.sleep(0.3)  # the slow job is in flight
        with ServeClient(harness.address) as control:
            ack = control.shutdown()
            assert ack.draining
            assert ack.pending == 1
            # draining: new optimize frames are refused...
            refused = control.optimize(_plan_request(build_pipeline(2)))
            assert not refused.ok
            assert refused.code == "shutting_down"
            # ...but introspection still answers
            assert control.stats().draining
        worker.join(timeout=30.0)
        # the in-flight job was completed, not dropped
        assert inflight["response"].ok
        assert harness.stop() == 0  # clean drain exit

    def test_idle_shutdown_is_immediate_and_clean(self, tmp_path):
        harness = DaemonHarness(
            _service(), unix_path=str(tmp_path / "d.sock")
        ).start()
        with ServeClient(harness.address) as client:
            assert client.shutdown().draining
        assert harness.stop() == 0


@pytest.mark.slow
class TestSigtermSubprocess:
    def test_sigterm_drains_and_exits_zero(self, tmp_path):
        """The real process contract: `repro serve` under SIGTERM answers
        what it accepted and exits 0 ("daemon drained cleanly")."""
        socket_path = str(tmp_path / "daemon.sock")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), "..", "src")
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--socket",
                socket_path,
                "--model",
                str(tmp_path / "no-model.pkl"),
                "--workers",
                "0",
                "--no-cache",
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            deadline = time.monotonic() + 60.0
            while not os.path.exists(socket_path):
                assert proc.poll() is None, proc.stdout.read()
                assert time.monotonic() < deadline, "daemon never bound"
                time.sleep(0.1)
            with ServeClient(f"unix:{socket_path}") as client:
                response = client.optimize(
                    OptimizeRequest(workload="WordCount", size_bytes=2**20)
                )
                assert response.ok, response
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=60.0)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, out
        assert "drained cleanly" in out


@pytest.mark.slow
class TestShutdownSubprocess:
    def test_shutdown_with_an_idle_client_exits_without_traceback(
        self, tmp_path
    ):
        """A ``shutdown`` frame while another client holds an idle
        connection: the daemon closes that connection itself, exits 0
        and prints no asyncio traceback."""
        import socket

        socket_path = str(tmp_path / "daemon.sock")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), "..", "src")
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--socket", socket_path,
                "--model", str(tmp_path / "no-model.pkl"),
                "--workers", "0",
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        idle = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            deadline = time.monotonic() + 60.0
            while not os.path.exists(socket_path):
                assert proc.poll() is None, proc.communicate()
                assert time.monotonic() < deadline, "daemon never bound"
                time.sleep(0.1)
            idle.connect(socket_path)
            with ServeClient(f"unix:{socket_path}") as client:
                assert client.stats().counters["serve.daemon.connections"] == 2
                assert client.shutdown().draining
            out, err = proc.communicate(timeout=60.0)
        finally:
            idle.close()
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, err
        assert "drained cleanly" in out
        assert "Traceback" not in err, err


class TestDaemonUnderChaos:
    """The resilience armor holds behind the network front door too."""

    def test_model_outage_never_costs_availability(self, tmp_path):
        factory = resilient_robopt_factory(
            platforms=N_PLATFORMS, chaos=PROFILES["model-outage"]
        )
        service = BatchOptimizationService(
            factory, synthetic_registry(N_PLATFORMS), workers=0
        )
        with run_daemon(service, unix_path=str(tmp_path / "d.sock")) as harness:
            with ServeClient(harness.address) as client:
                responses = client.optimize_many(
                    [
                        _plan_request(build_pipeline(2 + i % 3), f"j{i}")
                        for i in range(6)
                    ]
                )
            stats = ServeClient(harness.address).stats()
        assert all(r.ok for r in responses)
        assert "serve.daemon.internal_errors" not in stats.counters

    def test_worker_death_is_a_structured_error_not_an_outage(self, tmp_path):
        """With ``worker_death_rate=1.0`` in serial mode every job dies;
        each client gets an ``optimization_failed`` error frame and the
        daemon keeps serving."""
        factory = resilient_robopt_factory(
            platforms=N_PLATFORMS, chaos=ChaosProfile(worker_death_rate=1.0)
        )
        service = BatchOptimizationService(
            factory, synthetic_registry(N_PLATFORMS), workers=0
        )
        with run_daemon(service, unix_path=str(tmp_path / "d.sock")) as harness:
            with ServeClient(harness.address) as client:
                first = client.optimize(_plan_request(build_pipeline(2), "a"))
                second = client.optimize(_plan_request(build_pipeline(3), "b"))
                stats = client.stats()
        for response in (first, second):
            assert not response.ok
            assert response.code == "optimization_failed"
            assert "worker death" in response.error
        # failures answered per-request; the loop itself never broke
        assert stats.counters["serve.daemon.requests"] == 2
        assert "serve.daemon.internal_errors" not in stats.counters
