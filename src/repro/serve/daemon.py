"""``repro serve``: the persistent asyncio front door.

The batch CLI optimizes one JSONL file and exits; a millions-of-users
service needs a *process* that outlives any one client. The
:class:`OptimizationDaemon` owns a single long-lived
:class:`~repro.serve.batch.BatchOptimizationService` (warm worker pool,
plan cache, resilience armor) and serves concurrent network clients over
newline-delimited JSON frames (:mod:`repro.serve.protocol`) on a unix
socket and/or TCP:

* **Admission control** — accepted-but-unanswered requests are bounded
  by ``max_pending``; past the bound, new work is *refused* with a
  structured ``overloaded`` error carrying ``retry_after_ms`` (estimated
  from the live latency window) instead of queueing unboundedly. An
  overload sheds load in microseconds; an unbounded queue converts it
  into timeouts for everyone.
* **Micro-batching** — one dispatcher task drains whatever requests are
  queued *right now* (up to ``max_batch``) and drives them through the
  service as one batch in a worker thread: concurrent clients get the
  batch layer's dedupe and warm-pool parallelism for free, and the
  service is only ever entered single-file.
* **Cross-client coalescing** — a fingerprint-keyed in-flight table at
  the daemon level (the only one: the service is entered single-file):
  while a fingerprint is being optimized for one client, identical
  requests from *any other connection* await that same computation
  instead of re-enumerating (``serve.jobs_coalesced``). Kepler's
  observation is that real traffic is dominated by repeated parametric
  templates — this is where that observation pays.
* **Per-request deadlines** — an ``optimize`` frame's ``deadline_ms``
  becomes a :class:`repro.resilience.budget.Budget` on its job, so the
  existing anytime machinery answers with the best complete plan found
  in time (``degraded`` set) rather than missing the deadline.
* **Graceful drain** — SIGTERM/SIGINT or a ``shutdown`` frame flips the
  daemon into draining: new optimize frames get ``shutting_down``
  errors, every accepted job is answered, then the process exits 0. A
  drain that cannot finish within ``drain_grace_s`` force-stops and
  exits 1 — visible, not hung.
* **Introspection** — a ``stats`` frame returns the tracer's counters
  plus live p50/p95/p99 over the recent answered-request window. The
  default tracer is a :class:`~repro.obs.CounterTracer`: counters
  always, spans never, so a daemon's memory does not grow with the
  requests it answers. Spans are recorded only when the caller passes a
  full :class:`~repro.obs.Tracer` to the constructor. When
  the owned service carries a :class:`~repro.serve.template.TemplateCache`
  (``repro serve --template-cache``), its ``serve.template.*`` counters
  (hits, misses, guardrail_rejects — coverage refusals of
  multi-candidate templates — recost_errors, ...) appear here too —
  batches run under the daemon's tracer, so the second cache tier is
  observable without any protocol change. So do ``serve.model_swaps``
  and ``serve.feedback.*`` from a ``--feedback`` background retrain,
  whose thread inherits the batch's tracer context.

A malformed or version-mismatched frame yields an ``error`` response on
that connection; no client input can raise past the serve loop.
"""

from __future__ import annotations

import asyncio
import collections
import signal
import time
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional, Tuple, Union

from repro.exceptions import ReproError
from repro.obs import CounterTracer, Tracer, use_tracer
from repro.serve.batch import BatchJob, BatchOptimizationService, JobOutcome, _percentile
from repro.serve.fingerprint import plan_fingerprint
from repro.serve.protocol import (
    ErrorResponse,
    OptimizeRequest,
    OptimizeResponse,
    ProtocolError,
    ShutdownRequest,
    ShutdownResponse,
    StatsRequest,
    StatsResponse,
    parse_request,
    request_to_plan,
)

__all__ = ["DaemonConfig", "OptimizationDaemon"]

#: Longest accepted frame (bytes). Plan documents are small (a few KB);
#: 16 MiB leaves room for pathological-but-legitimate plans while
#: bounding what one client can make the daemon buffer.
MAX_FRAME_BYTES = 16 * 1024 * 1024

#: Fallback per-job latency estimate before the window has data.
_DEFAULT_LATENCY_S = 0.1

#: How many recent round trips the ``stats`` latency tails and the
#: ``retry_after_ms`` estimate are computed over.
LATENCY_WINDOW = 1024


@dataclass
class DaemonConfig:
    """Tuning knobs of one :class:`OptimizationDaemon`.

    ``unix_path`` and/or ``host``+``port`` select the listening
    transports (at least one required). ``max_pending`` is the admission
    bound; ``max_batch`` caps one dispatcher micro-batch;
    ``default_deadline_ms`` applies to optimize frames that carry none;
    ``drain_grace_s`` bounds how long a drain may wait for in-flight
    work.
    """

    unix_path: Optional[str] = None
    host: Optional[str] = None
    port: int = 0
    max_pending: int = 64
    max_batch: int = 32
    default_deadline_ms: Optional[float] = None
    drain_grace_s: float = 30.0

    def __post_init__(self):
        if self.unix_path is None and self.host is None:
            raise ReproError("the daemon needs a unix_path and/or a host to listen on")
        if self.max_pending < 1:
            raise ReproError(f"max_pending must be >= 1, got {self.max_pending}")
        if self.max_batch < 1:
            raise ReproError(f"max_batch must be >= 1, got {self.max_batch}")


@dataclass
class _Accepted:
    """One admitted optimize request riding through the dispatcher."""

    job: BatchJob
    future: "asyncio.Future[JobOutcome]"


class OptimizationDaemon:
    """One long-lived service, many network clients (see module docs).

    The daemon does not own the service's lifetime semantics beyond
    :meth:`~repro.serve.batch.BatchOptimizationService.close` on stop —
    construct the service with whatever cache/armor/worker configuration
    the deployment needs and hand it over. ``tracer`` defaults to a
    :class:`~repro.obs.CounterTracer`; pass a :class:`~repro.obs.Tracer`
    to record every span of every request as well.
    """

    def __init__(
        self,
        service: BatchOptimizationService,
        config: DaemonConfig,
        tracer: Optional[Union[Tracer, CounterTracer]] = None,
    ):
        self.service = service
        self.config = config
        self.tracer = tracer if tracer is not None else CounterTracer()
        self._queue: "asyncio.Queue[Optional[_Accepted]]" = None  # type: ignore[assignment]
        self._inflight: Dict[Tuple[str, Optional[float]], "asyncio.Future[JobOutcome]"] = {}
        self._latencies: Deque[float] = collections.deque(maxlen=LATENCY_WINDOW)
        self._pending = 0
        self._answered = 0
        self._draining = False
        self._drained: Optional[asyncio.Event] = None
        self._shutdown_requested: Optional[asyncio.Event] = None
        self._servers: List[asyncio.AbstractServer] = []
        #: Open connections: handler task -> (writer, its frame tasks).
        self._connections: Dict[asyncio.Task, Tuple[Any, set]] = {}
        self._dispatcher: Optional[asyncio.Task] = None
        self._started_at = time.monotonic()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def pending(self) -> int:
        """Accepted optimize requests not yet answered."""
        return self._pending

    @property
    def addresses(self) -> List[str]:
        """The bound listen addresses (``unix:...`` / ``host:port``)."""
        out = []
        for server in self._servers:
            for sock in server.sockets or []:
                name = sock.getsockname()
                if isinstance(name, str):
                    out.append(f"unix:{name}")
                else:
                    out.append(f"{name[0]}:{name[1]}")
        return out

    async def start(self) -> None:
        """Bind the transports and start the dispatcher."""
        self._queue = asyncio.Queue()
        self._drained = asyncio.Event()
        self._drained.set()
        self._shutdown_requested = asyncio.Event()
        self._started_at = time.monotonic()
        if self.config.unix_path is not None:
            # A stale socket file from a previous (crashed) daemon would
            # fail the bind; an *active* one is a real conflict and still
            # fails with EADDRINUSE on connect-test platforms, so only a
            # plain leftover socket inode is removed.
            import os
            import stat

            try:
                if stat.S_ISSOCK(os.stat(self.config.unix_path).st_mode):
                    os.unlink(self.config.unix_path)
            except OSError:
                pass
            self._servers.append(
                await asyncio.start_unix_server(
                    self._handle_connection,
                    path=self.config.unix_path,
                    limit=MAX_FRAME_BYTES,
                )
            )
        if self.config.host is not None:
            self._servers.append(
                await asyncio.start_server(
                    self._handle_connection,
                    host=self.config.host,
                    port=self.config.port,
                    limit=MAX_FRAME_BYTES,
                )
            )
        self._dispatcher = asyncio.create_task(self._dispatch_loop())
        if self.tracer.enabled:
            self.tracer.event("serve.daemon.start", addresses=self.addresses)

    async def stop(self) -> None:
        """Close the transports, the dispatcher and every open client
        connection; idempotent."""
        servers, self._servers = self._servers, []
        for server in servers:
            server.close()
        for server in servers:
            try:
                await server.wait_closed()
            except Exception:  # pragma: no cover - transport teardown races
                pass
        if self._dispatcher is not None:
            self._queue.put_nowait(None)
            try:
                await asyncio.wait_for(self._dispatcher, timeout=self.config.drain_grace_s)
            except asyncio.TimeoutError:  # pragma: no cover - hung worker
                self._dispatcher.cancel()
            self._dispatcher = None
        # A client may still hold its connection open. Let its in-flight
        # frames answer, then close it so the handler returns on its own:
        # a handler left for loop teardown to cancel logs a traceback.
        connections, self._connections = self._connections, {}
        frames = [task for _, tasks in connections.values() for task in tasks]
        if frames:
            await asyncio.wait(frames, timeout=self.config.drain_grace_s)
        for writer, _ in connections.values():
            writer.close()
        if connections:
            await asyncio.wait(connections, timeout=self.config.drain_grace_s)
        self.service.close()

    def request_shutdown(self) -> None:
        """Flip into draining (signal handlers and shutdown frames)."""
        if not self._draining:
            self._draining = True
            if self.tracer.enabled:
                self.tracer.count("serve.daemon.drains")
        if self._shutdown_requested is not None:
            self._shutdown_requested.set()

    async def run(self, ready=None) -> int:
        """Serve until SIGTERM/SIGINT or a ``shutdown`` frame, drain, exit.

        ``ready``, when given, is called with the bound address list once
        the transports are listening (the CLI prints it; tests wait on
        it). Returns the process exit code: 0 when every accepted job
        was answered before the transports closed, 1 when the drain
        grace expired with work still in flight.
        """
        await self.start()
        if ready is not None:
            ready(self.addresses)
        loop = asyncio.get_running_loop()
        hooked = []
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, self.request_shutdown)
                hooked.append(signum)
            except (NotImplementedError, ValueError, RuntimeError):
                # Not the main thread (tests) or unsupported platform:
                # the shutdown frame remains the drain path.
                pass
        try:
            await self._shutdown_requested.wait()
            self._draining = True
            drained = True
            if self._pending > 0:
                self._drained.clear()
                try:
                    await asyncio.wait_for(
                        self._drained.wait(), timeout=self.config.drain_grace_s
                    )
                except asyncio.TimeoutError:
                    drained = False
            return 0 if drained else 1
        finally:
            for signum in hooked:
                loop.remove_signal_handler(signum)
            await self.stop()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        if self.tracer.enabled:
            self.tracer.count("serve.daemon.connections")
        write_lock = asyncio.Lock()
        tasks: set = set()
        handler = asyncio.current_task()
        self._connections[handler] = (writer, tasks)
        try:
            while True:
                try:
                    line = await reader.readline()
                except (
                    asyncio.LimitOverrunError,
                    ValueError,
                ):  # frame longer than MAX_FRAME_BYTES
                    await self._send(
                        writer,
                        write_lock,
                        ErrorResponse(
                            error=f"frame exceeds {MAX_FRAME_BYTES} bytes",
                            code="bad_request",
                        ),
                    )
                    break
                except (ConnectionError, OSError):
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                # Frames are handled concurrently per connection so one
                # slow optimization does not serialize its siblings; the
                # write lock keeps response lines whole.
                task = asyncio.create_task(
                    self._serve_frame(line, writer, write_lock)
                )
                tasks.add(task)
                task.add_done_callback(tasks.discard)
        finally:
            # The client is gone. In-flight optimizations keep running —
            # coalesced siblings on other connections may be waiting on
            # them — but their answers will hit a closed pipe, which
            # _send absorbs.
            self._connections.pop(handler, None)
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    async def _send(self, writer, write_lock, response) -> None:
        """Write one response frame; a dead connection is not an error."""
        payload = (response.to_json() + "\n").encode()
        try:
            async with write_lock:
                writer.write(payload)
                await writer.drain()
        except (ConnectionError, OSError):
            if self.tracer.enabled:
                self.tracer.count("serve.daemon.dropped_replies")

    async def _serve_frame(self, line: bytes, writer, write_lock) -> None:
        """Parse and answer one frame; errors become error frames."""
        try:
            frame = parse_request(line.decode("utf-8", errors="replace"))
        except ProtocolError as exc:
            if self.tracer.enabled:
                self.tracer.count("serve.daemon.bad_frames")
            await self._send(writer, write_lock, exc.to_response())
            return
        try:
            if isinstance(frame, OptimizeRequest):
                response = await self._serve_optimize(frame)
            elif isinstance(frame, StatsRequest):
                response = self._stats_response(frame)
            elif isinstance(frame, ShutdownRequest):
                response = ShutdownResponse(
                    request_id=frame.request_id, pending=self._pending
                )
                self.request_shutdown()
            else:  # pragma: no cover - parse_request table is closed
                response = ErrorResponse(
                    error=f"unhandled frame {type(frame).__name__}", code="internal"
                )
        except ProtocolError as exc:
            response = exc.to_response()
        except Exception as exc:
            # The contract: nothing a client sends can raise past the
            # serve loop. Anything unexpected becomes a structured error.
            if self.tracer.enabled:
                self.tracer.count("serve.daemon.internal_errors")
            response = ErrorResponse(
                request_id=getattr(frame, "request_id", ""),
                error=f"{type(exc).__name__}: {exc}",
                code="internal",
            )
        await self._send(writer, write_lock, response)

    # ------------------------------------------------------------------
    # The optimize path
    # ------------------------------------------------------------------

    async def _serve_optimize(self, request: OptimizeRequest):
        accepted_at = time.monotonic()
        if self.tracer.enabled:
            self.tracer.count("serve.daemon.requests")
        if self._draining:
            if self.tracer.enabled:
                self.tracer.count("serve.daemon.refused_draining")
            return ErrorResponse(
                request_id=request.request_id,
                error="daemon is draining; resubmit elsewhere",
                code="shutting_down",
            )
        # Resolve + fingerprint on the event loop: cheap (sha256 over the
        # plan structure) and it gates both coalescing and admission. The
        # job carries the fingerprint, so the service's cache lookup
        # reuses it instead of hashing the plan again.
        plan = request_to_plan(request)
        if request.size_bytes is not None:
            plan = plan.clone()
            plan.scale_datasets_to_bytes(request.size_bytes)
        deadline_ms = (
            request.deadline_ms
            if request.deadline_ms is not None
            else self.config.default_deadline_ms
        )
        fingerprint = plan_fingerprint(plan, self.service.registry)
        key = (fingerprint, deadline_ms)

        # Cross-client coalescing: same fingerprint (and deadline class)
        # already in flight → ride it, free of admission accounting.
        sibling = self._inflight.get(key)
        if sibling is not None:
            if self.tracer.enabled:
                self.tracer.count("serve.jobs_coalesced")
            try:
                outcome = await asyncio.shield(sibling)
            except Exception as exc:
                return ErrorResponse(
                    request_id=request.request_id,
                    error=f"{type(exc).__name__}: {exc}",
                    code="internal",
                )
            return self._outcome_response(
                request, outcome, accepted_at, coalesced=True
            )

        # Admission control: bounded pending set, structured refusal.
        if self._pending >= self.config.max_pending:
            if self.tracer.enabled:
                self.tracer.count("serve.daemon.overloaded")
            return ErrorResponse(
                request_id=request.request_id,
                error=(
                    f"daemon at capacity ({self._pending} pending, "
                    f"bound {self.config.max_pending})"
                ),
                code="overloaded",
                retry_after_ms=self._retry_after_ms(),
            )

        # Admitted: account it, register the in-flight future, enqueue.
        job = BatchJob(
            request.request_id or plan.name or "job",
            plan,
            tags=request.tags,
            deadline_ms=deadline_ms,
            fingerprint=fingerprint,
        )
        future: "asyncio.Future[JobOutcome]" = asyncio.get_running_loop().create_future()
        item = _Accepted(job, future)
        self._pending += 1
        if self._drained is not None:
            self._drained.clear()
        self._inflight[key] = future
        future.add_done_callback(lambda _f, key=key: self._inflight.pop(key, None))
        self._queue.put_nowait(item)
        try:
            outcome = await asyncio.shield(future)
            return self._outcome_response(request, outcome, accepted_at)
        except Exception as exc:
            return ErrorResponse(
                request_id=request.request_id,
                error=f"{type(exc).__name__}: {exc}",
                code="internal",
            )
        finally:
            self._pending -= 1
            self._answered += 1
            self._latencies.append(time.monotonic() - accepted_at)
            if self._pending == 0 and self._drained is not None:
                self._drained.set()

    def _outcome_response(
        self,
        request: OptimizeRequest,
        outcome: JobOutcome,
        accepted_at: float,
        coalesced: bool = False,
    ):
        duration_ms = (time.monotonic() - accepted_at) * 1000.0
        if not outcome.ok or outcome.result is None:
            code = "optimization_failed"
            if outcome.timed_out:
                code = "timeout"
            elif outcome.quarantined:
                code = "quarantined"
            return ErrorResponse(
                request_id=request.request_id,
                error=outcome.error or "optimization failed",
                code=code,
            )
        result = outcome.result
        return OptimizeResponse(
            request_id=request.request_id,
            predicted_runtime=float(result.predicted_runtime),
            platforms=sorted(result.execution_plan.platforms_used()),
            assignment={
                str(k): str(v)
                for k, v in sorted(result.execution_plan.assignment.items())
            },
            stats=result.stats.as_dict(),
            optimizer=result.optimizer,
            degraded=result.stats.degradation if result.stats.degraded else "",
            cached=outcome.cached,
            coalesced=coalesced,
            duration_ms=duration_ms,
        )

    def _retry_after_ms(self) -> float:
        """How long an overloaded client should back off: the pending
        backlog's expected drain time under the live p50 latency."""
        p50 = (
            _percentile(list(self._latencies), 50.0)
            if self._latencies
            else _DEFAULT_LATENCY_S
        )
        workers = max(self.service.workers, 1)
        estimate = p50 * (self._pending / workers) * 1000.0
        return max(50.0, min(estimate, 10_000.0))

    def _stats_response(self, frame: StatsRequest) -> StatsResponse:
        window = list(self._latencies)
        return StatsResponse(
            request_id=frame.request_id,
            counters=dict(self.tracer.counters),
            latency_ms={
                "p50": _percentile(window, 50.0) * 1000.0,
                "p95": _percentile(window, 95.0) * 1000.0,
                "p99": _percentile(window, 99.0) * 1000.0,
            },
            pending=self._pending,
            draining=self._draining,
            uptime_s=time.monotonic() - self._started_at,
            feedback=self.service.feedback_stats(),
        )

    # ------------------------------------------------------------------
    # The dispatcher: micro-batches through the batch service
    # ------------------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        """Drain the queue into micro-batches, one service call at a time."""
        stop = False
        while not stop:
            item = await self._queue.get()
            if item is None:
                break
            batch = [item]
            while len(batch) < self.config.max_batch:
                try:
                    nxt = self._queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if nxt is None:
                    stop = True
                    break
                batch.append(nxt)
            if self.tracer.enabled:
                self.tracer.count("serve.daemon.batches")
                self.tracer.count("serve.daemon.batched_jobs", len(batch))
            try:
                outcomes = await asyncio.to_thread(
                    self._run_batch, [entry.job for entry in batch]
                )
            except Exception as exc:  # the service itself failed
                for entry in batch:
                    if not entry.future.done():
                        entry.future.set_exception(exc)
                continue
            for entry, outcome in zip(batch, outcomes):
                if not entry.future.done():
                    entry.future.set_result(outcome)
        # Drain leftovers on shutdown: anything still queued is refused.
        while True:
            try:
                leftover = self._queue.get_nowait()
            except asyncio.QueueEmpty:
                break
            if leftover is not None and not leftover.future.done():
                leftover.future.set_result(
                    JobOutcome(
                        leftover.job.job_id,
                        ok=False,
                        error="daemon stopped before the job was dispatched",
                    )
                )

    def _run_batch(self, jobs: List[BatchJob]) -> List[JobOutcome]:
        """One service call, under the daemon's tracer (worker thread)."""
        with use_tracer(self.tracer):
            report = self.service.optimize_batch(jobs)
        return report.outcomes

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"OptimizationDaemon(pending={self._pending}, "
            f"draining={self._draining}, addresses={self.addresses})"
        )
