"""Picklable test doubles for the batch service.

Process-pool workers rebuild their optimizer from a pickled factory, so
the differential/concurrency suites need *picklable* cost models and
optimizer wrappers — closures and test-local classes do not qualify.
These doubles are deterministic (seeded) and cheap, and double as the
reference oracles of the differential suite: a linear model is
merge-decomposable, so boundary pruning is provably lossless against it
(Def. 2) and the exhaustive baseline must agree with Robopt exactly.

Here live the linear model and its factory, the marker-file counting
probe, the slow-construction factory and the in-process daemon harness.
Faults — raising, worker-killing, slow or transiently failing plans —
are not doubles: tests build them as
:class:`~repro.resilience.chaos.ChaosProfile` values (``match`` picks
the plans) through ``resilient_robopt_factory(chaos=...)``, the same
injector ``--chaos-profile`` runs.
"""

from __future__ import annotations

import contextlib
import time

import numpy as np

from repro.api import Optimizer, OptimizationResult
from repro.rheem.logical_plan import LogicalPlan

__all__ = [
    "LinearRuntimeModel",
    "CountingOptimizer",
    "linear_robopt_factory",
    "slow_init_robopt_factory",
    "counting_robopt_factory",
    "count_markers",
    "DaemonHarness",
    "run_daemon",
]


class LinearRuntimeModel:
    """A deterministic linear "runtime model": ``predict = X @ w``.

    Weights are drawn uniformly from [0, 1) with a seeded generator —
    the same construction as the test suite's ``make_linear_cost`` — so
    costs are non-negative on non-negative features and decompose over
    merges.
    """

    def __init__(self, n_features: int, seed: int = 0):
        self.n_features = n_features
        self.seed = seed
        rng = np.random.default_rng(seed)
        self.weights = rng.uniform(0.0, 1.0, n_features)

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X[None, :]
        return X @ self.weights


def _touch_marker(state_dir: str, prefix: str) -> None:
    """Drop one uniquely-named marker file under ``state_dir``."""
    import os
    import tempfile

    os.makedirs(state_dir, exist_ok=True)
    fd, _ = tempfile.mkstemp(prefix=f"{prefix}.", dir=state_dir)
    os.close(fd)


def count_markers(state_dir: str, prefix: str) -> int:
    """How many ``prefix``-markers the counting probes dropped so far."""
    import os

    if not os.path.isdir(state_dir):
        return 0
    return len(
        [f for f in os.listdir(state_dir) if f.startswith(prefix + ".")]
    )


class CountingOptimizer:
    """Delegates to an inner optimizer; counts events via marker files.

    The warm-worker probe: construction drops an ``init`` marker (done by
    the builder, so it counts pool worker initializations) and every
    ``optimize`` call drops an ``opt`` marker, optionally after sleeping
    ``sleep_s`` — long enough for a sibling thread to find the job still
    in flight. Markers live under ``state_dir`` (use
    :func:`count_markers` to read them), so counts are shared across
    pool processes and survive worker recycling.
    """

    def __init__(self, inner: Optimizer, state_dir: str, sleep_s: float = 0.0):
        self.inner = inner
        self.state_dir = state_dir
        self.sleep_s = sleep_s

    @property
    def registry(self):
        return self.inner.registry

    def optimize(self, plan: LogicalPlan) -> OptimizationResult:
        if self.sleep_s > 0:
            time.sleep(self.sleep_s)
        _touch_marker(self.state_dir, "opt")
        return self.inner.optimize(plan)


# ---------------------------------------------------------------------------
# Picklable factories (functools.partial over these module-level builders
# pickles by reference; the pool rebuilds the stack inside each worker).
# ---------------------------------------------------------------------------


def _build_linear_robopt(platforms, seed: int, priority: str):
    from repro.core.features import FeatureSchema
    from repro.core.optimizer import Robopt
    from repro.rheem.platforms import default_registry, synthetic_registry

    if isinstance(platforms, int):
        registry = synthetic_registry(platforms)
    else:
        registry = default_registry(tuple(platforms))
    schema = FeatureSchema(registry)
    model = LinearRuntimeModel(schema.n_features, seed=seed)
    return Robopt(registry, model, priority=priority, schema=schema)


def linear_robopt_factory(platforms=("java", "spark", "flink"), seed: int = 0, priority: str = "robopt"):
    """Factory for a Robopt over a deterministic linear model.

    ``platforms`` is either a name tuple (default registry) or an int
    (synthetic registry of that many platforms).
    """
    import functools

    return functools.partial(_build_linear_robopt, platforms, seed, priority)


def _build_counting(platforms, seed: int, state_dir: str, sleep_s: float):
    _touch_marker(state_dir, "init")
    return CountingOptimizer(
        _build_linear_robopt(platforms, seed, "robopt"), state_dir, sleep_s
    )


def counting_robopt_factory(
    platforms=("java", "spark", "flink"),
    seed: int = 0,
    state_dir: str = ".",
    sleep_s: float = 0.0,
):
    """Factory for an event-counting linear Robopt (see CountingOptimizer).

    Construction drops an ``init`` marker in ``state_dir``; each
    optimization drops an ``opt`` marker. Read them back with
    :func:`count_markers`.
    """
    import functools

    return functools.partial(_build_counting, platforms, seed, state_dir, sleep_s)


def _build_slow_init(platforms, seed: int, init_sleep_s: float):
    time.sleep(init_sleep_s)
    return _build_linear_robopt(platforms, seed, "robopt")


def slow_init_robopt_factory(
    platforms=("java", "spark", "flink"), seed: int = 0, init_sleep_s: float = 5.0
):
    """Factory whose *construction* blocks for ``init_sleep_s`` seconds.

    The hook of the timeout-covers-construction tests: worker
    initialization runs the factory, so a per-job timeout must start
    ticking before the pool (and this sleep) exists.
    """
    import functools

    return functools.partial(_build_slow_init, platforms, seed, init_sleep_s)


# ---------------------------------------------------------------------------
# The daemon harness (tests + benchmarks host the event loop off-thread)
# ---------------------------------------------------------------------------


class DaemonHarness:
    """One :class:`~repro.serve.daemon.OptimizationDaemon` event loop in a
    background thread, driven by synchronous clients outside it.

    ``asyncio.run(daemon.run(...))`` happens off the main thread, so the
    daemon's signal hooks are skipped (it tolerates that) and drain is
    driven by the ``shutdown`` frame or :meth:`stop`. The harness owns a
    fresh :class:`~repro.obs.Tracer` (``harness.tracer``) unless one is
    passed in.
    """

    def __init__(self, service, tracer=None, **config_kwargs):
        from repro.obs import Tracer
        from repro.serve.daemon import DaemonConfig, OptimizationDaemon

        config_kwargs.setdefault("drain_grace_s", 20.0)
        self.tracer = tracer if tracer is not None else Tracer()
        self.daemon = OptimizationDaemon(
            service, DaemonConfig(**config_kwargs), tracer=self.tracer
        )
        self.exit_code = None
        self.addresses = []
        self.loop = None
        self._ready = None
        self._thread = None

    def _run(self):
        import asyncio

        async def main():
            def ready(addresses):
                self.addresses = addresses
                self.loop = asyncio.get_running_loop()
                self._ready.set()

            return await self.daemon.run(ready=ready)

        try:
            self.exit_code = asyncio.run(main())
        finally:
            self._ready.set()  # unblock start() even on a failed boot

    def start(self) -> "DaemonHarness":
        import threading

        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout=30.0) or not self.addresses:
            raise RuntimeError("daemon failed to start")
        return self

    @property
    def address(self) -> str:
        """The first bound listen address (``unix:...`` / ``host:port``)."""
        return self.addresses[0]

    def stop(self, timeout: float = 30.0):
        """Request drain (idempotent), join the loop thread, return the
        daemon's exit code (0 = clean drain)."""
        if self.loop is not None and self._thread is not None and self._thread.is_alive():
            with contextlib.suppress(RuntimeError):
                self.loop.call_soon_threadsafe(self.daemon.request_shutdown)
        if self._thread is not None:
            self._thread.join(timeout)
            if self._thread.is_alive():
                raise RuntimeError("daemon loop failed to exit")
        return self.exit_code


@contextlib.contextmanager
def run_daemon(service, tracer=None, **config_kwargs):
    """Context manager: a running :class:`DaemonHarness`, drained on exit."""
    harness = DaemonHarness(service, tracer=tracer, **config_kwargs).start()
    try:
        yield harness
    finally:
        harness.stop()
