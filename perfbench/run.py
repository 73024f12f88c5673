"""The repository benchmark: drive ``repro serve`` end to end.

Run one workload from the repository root::

    python3 perfbench/run.py --workload cold-large --seed 1 --seconds 10 --trace 0

One run sets up (TDGEN training data, forest training, daemon start,
first answered request) several times, then sends the workload's seeded
request stream to the last daemon over two unix-socket connections,
checks every answer, and prints one JSON object as the last line of
standard output. ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` repeats the load on the benchmark's traced launcher
(``launcher.py``) and reports the per-layer metrics. README.md has the
metric and workload tables.
"""

from __future__ import annotations

import argparse
import bisect
import collections
import hashlib
import itertools
import json
import math
import os
import platform
import select
import shutil
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Set-ups per end-to-end run; setup_s is their median.
SETUPS = 3
#: TDGEN training points and the fixed training seed: the model is part
#: of the system under test, not of the seeded input.
TRAIN_POINTS = 1000
TRAIN_SEED = 7
#: Plan-quality sample: each template's first requests, up to this many.
QUALITY_PER_TEMPLATE = {"cold-large": 1, "hot-small": 80, "param-shift": 60}
#: FeedbackController's default refit floor (observations).
MIN_OBSERVATIONS = 8
DAEMON_TIMEOUT_S = 60.0
#: The CPU the client, the daemon and the set-up share (see ``run_clock``).
BENCH_CPU = min(os.sched_getaffinity(0))
#: Seconds between two readings of the steal counter during the load.
STEAL_SAMPLE_S = 0.25
#: The registry every workload runs against.
PLATFORMS = ("java", "spark", "flink")


class BenchError(Exception):
    """A run that cannot produce a result (the program misbehaved)."""


def _percentile(values, q):
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), q)) if values else 0.0


def _median(values):
    return float(statistics.median(values)) if values else 0.0


# ---------------------------------------------------------------------------
# Run metadata
# ---------------------------------------------------------------------------


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def cpu_probe_ms() -> float:
    """A fixed CPU workload, timed: tells host drift apart from a change."""
    import numpy as np

    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        a = np.arange(200_000, dtype=np.float64)
        float(np.sort(np.sin(a))[100])
        times.append((time.perf_counter() - t0) * 1000.0)
    return _median(times)


def run_meta(args, workload) -> dict:
    import numpy as np

    return {
        "git_sha": _git_sha(),
        "source_digest": _source_digest(),
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "workers": 0,
        "connections": 2,
        "requests": len(workload.requests),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "train_points": TRAIN_POINTS,
        "setups": SETUPS if not args.trace else 1,
        "bench_cpu": BENCH_CPU,
        "cpu_probe_ms": cpu_probe_ms(),
    }


# ---------------------------------------------------------------------------
# The daemon process
# ---------------------------------------------------------------------------


def _proc_cpu_s(pid: int) -> float:
    """User+sys CPU of a process and its reaped children, in seconds."""
    with open(f"/proc/{pid}/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    ticks = sum(int(fields[i]) for i in (11, 12, 13, 14))
    return ticks / os.sysconf("SC_CLK_TCK")


def _steal_s(cpu: int) -> float:
    """Seconds the host has taken from one CPU of this machine (/proc/stat)."""
    key = f"cpu{cpu} "
    with open("/proc/stat") as f:
        for line in f:
            if line.startswith(key):
                return int(line.split()[8]) / os.sysconf("SC_CLK_TCK")
    raise BenchError(f"no {key.strip()} line in /proc/stat")


def clock_read():
    """(wall seconds, seconds the host took from ``BENCH_CPU``) now."""
    return time.perf_counter(), _steal_s(BENCH_CPU)


def run_clock() -> float:
    """Seconds the benchmark's CPU ran: wall time minus host steal.

    The client, the daemon and the set-up share one CPU (``BENCH_CPU``),
    and a closed loop and the keeper leave it no idle time, so time the
    host takes from that CPU is time in which none of them made
    progress. The kernel accounts it exactly as steal; subtracting it
    gives the time a run takes on a CPU of its own, which does not
    depend on what the host's other tenants do.
    """
    wall, stolen = clock_read()
    return wall - stolen


def _proc_hwm_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError("no VmHWM in /proc status")


#: The keeper: lowest scheduling class, busy until its parent is gone or
#: it is terminated. It inherits the benchmark's CPU.
_KEEPER = """
import os
os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
parent = os.getppid()
while os.getppid() == parent:
    for _ in range(100000):
        pass
"""


class CpuKeeper:
    """Keep the benchmark's CPU out of its idle state.

    On a virtual machine an idle CPU halts and hands its time back to
    the host; waking it costs a host reschedule whose delay depends on
    the host's other tenants. A ``SCHED_IDLE`` busy loop keeps the CPU
    running, the user-space counterpart of the guest halt-polling that
    kernels offer for this: the guest scheduler hands its CPU to any
    other runnable task at once, so it takes no CPU from the daemon or
    the client, and every stretch the host takes away shows as steal.
    """

    def __enter__(self):
        self.proc = subprocess.Popen(
            [sys.executable, "-c", _KEEPER], stdin=subprocess.DEVNULL
        )
        return self

    def __exit__(self, *exc):
        self.proc.terminate()
        self.proc.wait()


def _batch_policy() -> None:
    """``SCHED_BATCH`` for the daemon: its wake-ups do not preempt the client.

    The client then sends a round's two requests before the daemon
    reads either, and the daemon's dispatcher takes them as one batch.
    """
    os.sched_setscheduler(0, os.SCHED_BATCH, os.sched_param(0))


class Daemon:
    """One daemon subprocess listening on a unix socket in the run dir.

    ``traced`` runs the benchmark's launcher in place of ``repro serve``.
    """

    def __init__(self, workload, model: Path, tmp: Path, tag: str, traced=False):
        # Paths relative to the checkout root, the daemon's working
        # directory: a unix socket path must stay under ~100 bytes.
        prefix = str((tmp / tag).relative_to(ROOT))
        self.socket = prefix + ".sock"
        self.out_path = ROOT / (prefix + ".out")
        self.err_path = ROOT / (prefix + ".err")
        if traced:
            program = [str(HERE / "launcher.py"), "--trace-out", prefix + ".spans"]
        else:
            program = ["-m", "repro", "serve", "--workers", "0"]
        self.argv = [
            sys.executable, *program, "--socket", self.socket, "--model", str(model),
            *(a.replace("{prefix}", prefix) for a in workload.serve_args),
        ]
        self.proc = None

    def start(self) -> float:
        """Spawn and wait for the readiness line; returns seconds taken."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC)
        c0 = run_clock()
        t0 = time.perf_counter()
        with open(self.out_path, "wb") as out, open(self.err_path, "wb") as err:
            self.proc = subprocess.Popen(
                self.argv, cwd=ROOT, env=env, stdout=out, stderr=err,
                stdin=subprocess.DEVNULL, preexec_fn=_batch_policy,
            )
        while time.perf_counter() < t0 + DAEMON_TIMEOUT_S:
            if b"serving on" in self.out_path.read_bytes():
                return run_clock() - c0
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        self.kill()
        raise BenchError(
            f"daemon did not become ready: {self.err_path.read_text()[-2000:]}"
        )

    def client(self):
        from repro.serve import ServeClient

        return ServeClient("unix:" + self.socket, timeout_s=DAEMON_TIMEOUT_S).connect()

    def stop(self) -> None:
        """Drain through a shutdown frame and wait for a clean exit."""
        if self.proc is None or self.proc.poll() is not None:
            return
        with self.client() as control:
            control.shutdown()
        try:
            code = self.proc.wait(timeout=DAEMON_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()
            raise BenchError("daemon did not exit after shutdown")
        if code != 0:
            raise BenchError(f"daemon exited with {code}")

    def kill(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=DAEMON_TIMEOUT_S)


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


def train_model(path: Path):
    """TDGEN training data and a forest, as ``repro train`` makes them."""
    from repro.ml.model import RuntimeModel
    from repro.rheem.platforms import default_registry
    from repro.simulator.executor import SimulatedExecutor
    from repro.tdgen.generator import TrainingDataGenerator

    registry = default_registry(PLATFORMS)
    t0 = run_clock()
    executor = SimulatedExecutor.default(registry, seed=TRAIN_SEED)
    dataset = TrainingDataGenerator(registry, executor, seed=TRAIN_SEED).generate(
        TRAIN_POINTS
    )
    t1 = run_clock()
    model = RuntimeModel.train(dataset, "random_forest", seed=TRAIN_SEED)
    model.save(path)
    return t1 - t0, run_clock() - t1


def _warm_up(daemon) -> None:
    """The first answered request (it also loads the model lazily)."""
    from repro.serve.protocol import OptimizeRequest

    with daemon.client() as client:
        reply = client.optimize(
            OptimizeRequest(request_id="warmup", workload="WordCount")
        )
    if not reply.ok:
        daemon.kill()
        raise BenchError(f"warm-up request failed: {reply.error}")


def setup(workload, tmp: Path, tag: str):
    """One full set-up; returns the ready daemon and its phase times."""
    t0 = run_clock()
    model = tmp / f"{tag}.model.pkl"
    generate_s, train_s = train_model(model)
    # The pristine model stays for the quality check and the traced run:
    # --feedback rewrites the daemon's model file on every retrain.
    shutil.copyfile(model, tmp / "base.model.pkl")
    daemon = Daemon(workload, model, tmp, tag)
    startup_s = daemon.start()
    _warm_up(daemon)
    phases = {
        "setup_s": run_clock() - t0,
        "tdgen.generate_s": generate_s,
        "ml.train_s": train_s,
        "serve.startup_s": startup_s,
    }
    return daemon, phases


def start_traced(workload, tmp: Path, tag: str):
    """The traced launcher on a fresh copy of the pristine model."""
    model = tmp / f"{tag}.model.pkl"
    shutil.copyfile(tmp / "base.model.pkl", model)
    daemon = Daemon(workload, model, tmp, tag, traced=True)
    daemon.start()
    _warm_up(daemon)
    return daemon


# ---------------------------------------------------------------------------
# Load
# ---------------------------------------------------------------------------


class Connection:
    """One load connection; the client waits for answers in ``select``.

    The client shares its CPU with the daemon, so it sleeps while a
    request is in flight.
    """

    def __init__(self, path: str):
        from repro.serve.protocol import parse_response

        self.parse = parse_response
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.connect(path)
        self.sock.setblocking(False)
        self.buffer = b""
        self.inflight = None  # (request, sent_at)

    def send(self, request) -> None:
        data = (request.line + "\n").encode()
        self.inflight = (request, time.perf_counter())
        while data:
            try:
                data = data[self.sock.send(data):]
            except BlockingIOError:
                pass

    def poll(self):
        """The finished record ``(request, sent, answered, reply)`` or None."""
        try:
            chunk = self.sock.recv(1 << 20)
        except BlockingIOError:
            return None
        if not chunk:
            raise BenchError("daemon closed a load connection")
        self.buffer += chunk
        if b"\n" not in self.buffer:
            return None
        line, self.buffer = self.buffer.split(b"\n", 1)
        answered = time.perf_counter()
        request, sent = self.inflight
        self.inflight = None
        return (request, sent, answered, self.parse(line.decode()))

    def close(self) -> None:
        self.sock.close()


def _feedback(control) -> dict:
    return control.stats().feedback or {}


def _retrain_started(fb: dict, generation: int, retrain_after: int) -> bool:
    if fb.get("model_generation", 0) != generation:
        return True
    if fb.get("retrains", 0) != generation:  # fitted, not yet installed
        return True
    if fb.get("observations_total", 0) < MIN_OBSERVATIONS:
        return False
    return (
        fb.get("observations_since_retrain", 0) >= retrain_after
        or fb.get("status") == "drifted"
    )


def await_install(control, generation: int, retrain_after: int):
    """Wait for a retrain the last answer started to install its model.

    Returns (run-clock seconds waited, model generation). The install is
    complete when the generation moved on and the drift window was reset.
    """
    fb = _feedback(control)
    if not _retrain_started(fb, generation, retrain_after):
        return 0.0, generation
    c0 = run_clock()
    t0 = time.perf_counter()
    while not (
        fb.get("model_generation", 0) == generation + 1 and fb.get("window", 1) == 0
    ):
        if time.perf_counter() > t0 + DAEMON_TIMEOUT_S:
            raise BenchError(f"retrain never installed: {fb}")
        time.sleep(0.002)
        fb = _feedback(control)
    return run_clock() - c0, generation + 1


def drive(daemon, workload, control, retrain_after):
    """Send the stream in order over two closed-loop connections.

    Each connection has at most one request in flight, so two are in
    flight together. With feedback on, a template's first request runs
    alone: it is the only kind of request that enumerates and so feeds
    the retraining loop, whose training set depends on the order
    observations arrive in. After it the client waits until a retrain it
    started has installed its model (a background retrain snapshots and
    installs at a time the scheduler sets). Installs then happen at the
    same point of the stream on every run.

    Returns the records, the run-clock seconds of the load and of the
    waits for installs, the daemon counters at the shift, and
    ``(wall, stolen)`` readings of the clock every ``STEAL_SAMPLE_S``.
    """
    conns = [Connection(daemon.socket) for _ in (0, 1)]
    records = []
    waited, at_shift = 0.0, None
    generation = _feedback(control).get("model_generation", 0)
    samples = [clock_read()]

    def poll_until(done):
        last = time.perf_counter()
        while not done():
            waiting = [conn for conn in conns if conn.inflight is not None]
            readable, _, _ = select.select(
                [conn.sock for conn in waiting], [], [], STEAL_SAMPLE_S
            )
            for conn in waiting:
                record = conn.poll() if conn.sock in readable else None
                if record is not None:
                    records.append(record)
                    last = time.perf_counter()
            now = time.perf_counter()
            if now - samples[-1][0] >= STEAL_SAMPLE_S:
                samples.append(clock_read())
            if now - last > DAEMON_TIMEOUT_S:
                raise BenchError("the daemon stopped answering")

    def idle():
        return all(conn.inflight is None for conn in conns)

    try:
        t0 = run_clock()
        for request in workload.requests:
            conn = conns[request.conn]
            shift = request.phase == 1 and at_shift is None
            if shift or (workload.feedback and request.first):
                poll_until(idle)
            if shift:
                at_shift = control.stats().counters
            if conn.inflight is not None:
                poll_until(idle)
            conn.send(request)
            if workload.feedback and request.first:
                poll_until(idle)
                wait_s, generation = await_install(control, generation, retrain_after)
                waited += wait_s
        poll_until(idle)
        run_s = run_clock() - t0
        samples.append(clock_read())
    finally:
        for conn in conns:
            conn.close()
    return records, run_s, waited, at_shift, samples


def _delta(after: dict, before: dict) -> dict:
    return {k: v - before.get(k, 0) for k, v in after.items()}


def measure(daemon, workload, retrain_after):
    """Send the stream once; returns the raw observations of the phase."""
    pid = daemon.proc.pid
    with daemon.client() as control:
        before = control.stats()
        cpu0 = _proc_cpu_s(pid)
        records, run_s, waited, at_shift, samples = drive(
            daemon, workload, control, retrain_after
        )
        cpu1 = _proc_cpu_s(pid)
        after = control.stats()
    (wall0, stolen0), (wall1, stolen1) = samples[0], samples[-1]
    return {
        "records": records,
        "run_s": run_s,
        "retrain_wait_s": waited,
        "steal_samples": samples,
        "cpu_s": cpu1 - cpu0,
        "steal_share": (stolen1 - stolen0) / (wall1 - wall0),
        "rss_mb": _proc_hwm_mb(pid),
        "counters": _delta(after.counters, before.counters),
        "post_shift_counters": _delta(after.counters, at_shift or after.counters),
        "feedback_before": before.feedback or {},
        "feedback": after.feedback or {},
    }


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def check_reply(request, reply):
    """Problems with one answer (empty when it is a valid plan)."""
    if not reply.ok:
        return [f"{request.rid}: {reply.code}: {reply.error}"]
    problems = []
    ids = {str(op["id"]) for op in request.plan_doc["operators"]}
    if set(reply.assignment) != ids:
        problems.append(f"{request.rid}: assignment does not cover the plan")
    if any(p not in PLATFORMS for p in reply.assignment.values()):
        problems.append(f"{request.rid}: unknown platform in assignment")
    if not math.isfinite(reply.predicted_runtime):
        problems.append(f"{request.rid}: non-finite predicted_runtime")
    if reply.degraded or reply.stats.get("degraded"):
        problems.append(f"{request.rid}: degraded answer ({reply.degraded})")
    return problems


def _is_fresh(reply) -> bool:
    return reply.ok and not reply.cached and not reply.coalesced


def workload_counts(workload, phase) -> dict:
    """The counts two runs with one seed must reproduce exactly."""
    c = phase["counters"]
    fresh = [r[3] for r in phase["records"] if _is_fresh(r[3])]
    counts = {
        "answered": sum(1 for r in phase["records"] if r[3].ok),
        "fresh": len(fresh),
        "cache.hits": c.get("serve.cache.hits", 0),
        "cache.misses": c.get("serve.cache.misses", 0),
        "template.hits": c.get("serve.template.hits", 0),
        "template.misses": c.get("serve.template.misses", 0),
        "retrains": phase["feedback"].get("retrains", 0)
        - phase["feedback_before"].get("retrains", 0),
        "installs": phase["feedback"].get("model_generation", 0)
        - phase["feedback_before"].get("model_generation", 0),
    }
    for key in ("merges", "prune_calls", "vectors_created", "vectors_pruned",
                "rows_predicted"):
        counts[f"core.{key}"] = sum(int(r.stats.get(key, 0)) for r in fresh)
    return counts


def self_check(workload, phase, counts):
    """The property each workload exists for; problems when it is lost."""
    problems = []
    name = workload.name
    if name == "cold-large":
        if counts["cache.hits"] or counts["template.hits"]:
            problems.append(f"cold-large: cache answered {counts}")
        if counts["fresh"] != len(workload.requests):
            problems.append("cold-large: not every request enumerated")
    elif name == "hot-small":
        later = [r[3] for r in phase["records"] if not r[0].first]
        hits = sum(1 for reply in later if reply.ok and reply.cached)
        if not later or hits / len(later) < 0.9:
            problems.append(f"hot-small: exact-hit rate {hits}/{len(later)} < 0.9")
    elif name == "param-shift":
        post = phase["post_shift_counters"]
        hits = post.get("serve.template.hits", 0)
        misses = post.get("serve.template.misses", 0)
        if hits <= misses:
            problems.append(
                f"param-shift: template tier answered {hits} of "
                f"{hits + misses} post-shift lookups"
            )
        if counts["installs"] < 2:
            problems.append(f"param-shift: {counts['installs']} model installs < 2")
    return problems


def plan_quality(workload, phase, tmp: Path):
    """Geometric mean of served / fresh-optimizer simulated runtime.

    A sample of the answered requests is re-optimized in process by a
    fresh ``Robopt`` with the set-up model; both plans are run on the
    default simulated executor; a plan that fails there (out of memory)
    costs TDGEN's failure penalty. Returns (ratio, sample size,
    mismatches, served failures), where mismatches counts served plans
    that differ from the fresh choice.
    """
    from repro.core.optimizer import Robopt
    from repro.ml.model import RuntimeModel
    from repro.rheem.execution_plan import ExecutionPlan
    from repro.rheem.platforms import default_registry
    from repro.rheem.serialization import plan_from_dict
    from repro.simulator.executor import SimulatedExecutor
    from repro.tdgen.loggen import FAILURE_PENALTY_S

    registry = default_registry(PLATFORMS)
    robopt = Robopt(registry, RuntimeModel.load(tmp / "base.model.pkl"))
    executor = SimulatedExecutor.default(registry)
    # In stream order, not completion order (which varies from run to
    # run). Equal counts per template, each walking its parameter
    # sequence, keep the sample's mix the same for every seed.
    replies = {record[0].rid: record[3] for record in phase["records"]}
    per_template = collections.Counter()
    sample = []
    for request in workload.requests:
        if per_template[request.template] < QUALITY_PER_TEMPLATE[workload.name]:
            per_template[request.template] += 1
            sample.append(request)

    def runtime(xplan):
        report = executor.execute(xplan)
        return report.runtime_s if report.ok else FAILURE_PENALTY_S

    logs, mismatches, failures = [], 0, 0
    for request in sample:
        reply = replies[request.rid]
        plan = plan_from_dict(request.plan_doc)
        fresh = robopt.optimize(plan).execution_plan
        served = ExecutionPlan(
            plan, {int(k): v for k, v in reply.assignment.items()}, registry
        )
        if dict(served.assignment) != dict(fresh.assignment):
            mismatches += 1
        served_s = runtime(served)
        failures += served_s == FAILURE_PENALTY_S
        logs.append(math.log(served_s) - math.log(runtime(fresh)))
    return math.exp(sum(logs) / len(logs)), len(logs), mismatches, failures


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def _rtts_ms(records):
    return [(t1 - t0) * 1000.0 for _, t0, t1, _ in records]


def run_rtts_ms(phase):
    """Round trips in run-clock time.

    Each round trip is scaled by the share of its steal sample window
    (``STEAL_SAMPLE_S``) in which the host let the benchmark's CPU run.
    """
    samples = phase["steal_samples"]
    walls = [wall for wall, _ in samples]
    rtts = []
    for _, sent, answered, _ in phase["records"]:
        i = min(max(bisect.bisect_right(walls, answered) - 1, 0), len(samples) - 2)
        (w0, s0), (w1, s1) = samples[i], samples[i + 1]
        ran = 1.0 - min(max((s1 - s0) / (w1 - w0), 0.0), 1.0)
        rtts.append((answered - sent) * 1000.0 * ran)
    return rtts


def throughput(phase) -> float:
    """Answered requests per run-clock second of load.

    Waits for model installs (``serve.retrain_wait_s``) are the
    benchmark's, not the daemon's, and are left out.
    """
    answered = sum(1 for r in phase["records"] if r[3].ok)
    return answered / (phase["run_s"] - phase["retrain_wait_s"])


def end_to_end(phase, setups, quality) -> dict:
    records = phase["records"]
    answered = sum(1 for r in records if r[3].ok)
    return {
        "throughput_rps": (throughput(phase), "1/s"),
        "latency_p50_ms": (_median(run_rtts_ms(phase)), "ms"),
        "cpu_ms_per_req": (phase["cpu_s"] * 1000.0 / answered, "ms"),
        "rss_mb": (phase["rss_mb"], "MB"),
        "setup_s": (_median([s["setup_s"] for s in setups]), "s"),
        "plan_runtime_ratio": (quality[0], "ratio"),
    }


def _batch_size_mean(counters) -> float:
    batches = counters.get("serve.daemon.batches", 0)
    return counters.get("serve.daemon.batched_jobs", 0) / max(batches, 1)


def layer_counts(phase, setup_phases) -> dict:
    """Per-layer metrics measured from outside on an untraced run."""
    records = phase["records"]
    replies = [r[3] for r in records]
    answered = [reply for reply in replies if reply.ok]
    fresh = [reply for reply in replies if _is_fresh(reply)]
    c = phase["counters"]
    rtts = _rtts_ms(records)
    wire = [rtt - reply.duration_ms for rtt, reply in zip(rtts, replies) if reply.ok]
    daemon_ms = [
        reply.duration_ms - reply.stats.get("latency_s", 0.0) * 1000.0
        if _is_fresh(reply) else reply.duration_ms
        for reply in answered
    ]
    lat = [r.stats["latency_s"] * 1000.0 for r in fresh]
    merge = [r.stats["time_merge_s"] * 1000.0 for r in fresh]
    prune = [r.stats["time_prune_s"] * 1000.0 for r in fresh]
    n_fresh = max(len(fresh), 1)

    def total(key):
        return sum(float(r.stats.get(key, 0)) for r in fresh)

    def rate(hits, misses):
        h, m = c.get(hits, 0), c.get(misses, 0)
        return h / (h + m) if h + m else 0.0

    fb, fb0 = phase["feedback"], phase["feedback_before"]
    q = fb.get("q_error")
    degraded = sum(1 for r in answered if r.degraded or r.stats.get("degraded"))
    return {
        "serve.latency_samples": (len(rtts), "count"),
        "serve.rtt_p95_ms": (_percentile(rtts, 95.0), "ms"),
        "serve.wire_ms_p50": (_median(wire), "ms"),
        "serve.daemon_ms_p50": (_median(daemon_ms), "ms"),
        "serve.batch_size_mean": (_batch_size_mean(c), "count"),
        "serve.coalesced": (c.get("serve.jobs_coalesced", 0), "count"),
        "serve.error_rate": ((len(replies) - len(answered)) / len(replies), "share"),
        "serve.retrain_wait_s": (phase["retrain_wait_s"], "s"),
        "serve.cache.hit_rate": (rate("serve.cache.hits", "serve.cache.misses"), "share"),
        "serve.cache.evictions": (c.get("serve.cache.evictions", 0), "count"),
        "serve.template.hit_rate": (
            rate("serve.template.hits", "serve.template.misses"), "share"
        ),
        "serve.template.guardrail_rejects": (
            c.get("serve.template.guardrail_rejects", 0), "count"
        ),
        "serve.feedback.observed": (c.get("serve.feedback.observed", 0), "count"),
        "serve.feedback.retrains": (
            fb.get("retrains", 0) - fb0.get("retrains", 0), "count"
        ),
        "serve.model_swaps": (
            fb.get("model_generation", 0) - fb0.get("model_generation", 0), "count"
        ),
        "ml.drift.q_error": (q if isinstance(q, (int, float)) else 0.0, "ratio"),
        "core.fresh_requests": (len(fresh), "count"),
        "core.optimize_ms_p50": (_median(lat), "ms"),
        "core.merge_ms_p50": (_median(merge), "ms"),
        "core.prune_ms_p50": (_median(prune), "ms"),
        "core.unattributed_ms_p50": (
            _median([a - b - d for a, b, d in zip(lat, merge, prune)]), "ms"
        ),
        "core.merges": (total("merges") / n_fresh, "count"),
        "core.prune_calls": (total("prune_calls") / n_fresh, "count"),
        "core.vectors_created": (total("vectors_created") / n_fresh, "count"),
        "core.vectors_pruned": (total("vectors_pruned") / n_fresh, "count"),
        "core.prune_ratio": (
            total("vectors_pruned") / max(total("vectors_created"), 1.0), "share"
        ),
        "core.rows_predicted": (total("rows_predicted") / n_fresh, "count"),
        "ml.predict_calls": (c.get("model.calls", 0) / max(len(answered), 1), "count"),
        "ml.rows_per_call": (
            c.get("model.rows_predicted", 0) / max(c.get("model.calls", 0), 1), "count"
        ),
        "resilience.degraded_share": (degraded / max(len(answered), 1), "share"),
        "resilience.fallback": (c.get("resilience.fallback", 0), "count"),
        "tdgen.generate_s": (_median([s["tdgen.generate_s"] for s in setup_phases]), "s"),
        "ml.train_s": (_median([s["ml.train_s"] for s in setup_phases]), "s"),
        "serve.startup_s": (_median([s["serve.startup_s"] for s in setup_phases]), "s"),
    }


def _overlap(a0, a1, b0, b1) -> float:
    return max(0.0, min(a1, b1) - max(a0, b0))


def layer_times(phase, spans) -> dict:
    """Per-layer timings of the traced run, from the launcher's spans."""
    t0 = min(r[1] for r in phase["records"])
    spans = [s for s in spans if s["start"] >= t0]
    # The service runs one batch at a time: sorted by start, the batch
    # spans are sorted by end too.
    batches = sorted((s for s in spans if s["name"] == "serve.batch"),
                     key=lambda s: s["start"])
    ends = [b["end"] for b in batches]
    answered = [r for r in phase["records"] if r[3].ok]

    def durations(name, scale):
        return [(s["end"] - s["start"]) * scale for s in spans if s["name"] == name]

    # Per request: the wire (round trip minus the daemon's accept-to-answer
    # time), then inside the daemon's window the service calls it
    # overlapped (its own batch, and queue wait behind others), and the
    # rest (event loop: plan decode, fingerprint, admission, thread hops)
    # as unattributed. The window ends when the answer reached the client;
    # the reply's own write time is small and lands in the window.
    unattributed, queue_wait = [], []
    for request, s0, s1, reply in answered:
        daemon_s = reply.duration_ms / 1000.0
        w0 = s1 - daemon_s
        service = own = 0.0
        for b in itertools.islice(batches, bisect.bisect_right(ends, w0), None):
            if b["start"] > s1:
                break
            o = _overlap(w0, s1, b["start"], b["end"])
            service += o
            if request.rid in (b["rids"] or ()):
                own += o
        queue_wait.append((service - own) * 1000.0)
        unattributed.append(max(daemon_s - service, 0.0) / (s1 - s0))

    # Inside the service: named layers versus the batch's own time.
    service_s = sum(s["end"] - s["start"] for s in batches)
    fresh_core_s = sum(r[3].stats.get("latency_s", 0.0) for r in answered
                       if _is_fresh(r[3]))
    named = fresh_core_s + sum(
        sum(durations(n, 1.0)) for n in (
            "serve.cache.get", "serve.cache.put", "serve.template.get",
            "serve.template.observe", "serve.feedback.execute",
        )
    )
    predict = durations("ml.predict", 1000.0)
    n = max(len(answered), 1)
    return {
        "serve.queue_wait_ms_p50": (_median(queue_wait), "ms"),
        "serve.service_ms_per_req": (service_s * 1000.0 / n, "ms"),
        "serve.cache.get_us_p50": (_median(durations("serve.cache.get", 1e6)), "us"),
        "serve.template.get_ms_p50": (
            _median(durations("serve.template.get", 1000.0)), "ms"
        ),
        "serve.feedback.execute_ms_p50": (
            _median(durations("serve.feedback.execute", 1000.0)), "ms"
        ),
        "ml.retrain_s": (sum(durations("ml.retrain", 1.0)), "s"),
        "ml.predict_ms": (sum(predict) / n, "ms"),
        "trace.unattributed_share": (_median(unattributed), "share"),
        "trace.service_unattributed_share": (
            max(service_s - named, 0.0) / service_s if service_s else 0.0, "share"
        ),
    }


def _read_spans(path: Path):
    with open(path) as f:
        return [json.loads(line) for line in f]


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------


def run(args, tmp: Path):
    """One benchmark run; returns (correct, attempted, failed, metrics)."""
    from workloads import RETRAIN_AFTER, build_workload

    workload = build_workload(args.workload, args.seed, args.seconds)
    meta = run_meta(args, workload)
    n_setups = 1 if args.trace else SETUPS
    setups, daemon = [], None
    with CpuKeeper():
        try:
            for k in range(n_setups):
                if daemon is not None:
                    daemon.stop()
                daemon, phases = setup(workload, tmp, f"d{k}")
                setups.append(phases)
            phase = measure(daemon, workload, RETRAIN_AFTER)
            daemon.stop()
            traced = None
            if args.trace:
                daemon = start_traced(workload, tmp, "traced")
                traced = measure(daemon, workload, RETRAIN_AFTER)
                daemon.stop()
                traced["spans"] = _read_spans(tmp / "traced.spans")
        finally:
            if daemon is not None:
                daemon.kill()

    problems = []
    for checked in (phase, traced) if traced else (phase,):
        for request, _, _, reply in checked["records"]:
            problems.extend(check_reply(request, reply))
    if phase["counters"].get("serve.daemon.internal_errors", 0):
        problems.append("daemon reported internal errors")
    counts = workload_counts(workload, phase)
    problems.extend(self_check(workload, phase, counts))
    meta["counts"] = counts
    meta["steal_share"] = phase["steal_share"]
    meta["batch_size_mean"] = _batch_size_mean(phase["counters"])
    failed = sum(1 for r in phase["records"] if not r[3].ok)
    attempted = len(phase["records"])

    if args.trace:
        if workload_counts(workload, traced) != counts:
            problems.append("traced run counts differ from the untraced run")
        metrics = layer_counts(phase, setups)
        metrics.update(layer_times(traced, traced["spans"]))
        untraced_rps = throughput(phase)
        traced_rps = throughput(traced)
        metrics["trace.throughput_rps"] = (traced_rps, "1/s")
        metrics["trace.overhead_share"] = (1.0 - traced_rps / untraced_rps, "share")
        metrics["trace.cpu_overhead_share"] = (
            traced["cpu_s"] / phase["cpu_s"] - 1.0, "share"
        )
        metrics["meta.cpu_probe_ms"] = (meta["cpu_probe_ms"], "ms")
        metrics["host.steal_share"] = (phase["steal_share"], "share")
    else:
        quality = plan_quality(workload, phase, tmp)
        meta["quality"] = dict(zip(("ratio", "sample", "mismatches",
                                    "served_failures"), quality))
        if workload.name == "cold-large" and (quality[0] != 1.0 or quality[2]):
            problems.append(
                f"cold-large: served plans differ from a fresh Robopt "
                f"(ratio {quality[0]!r}, {quality[2]} mismatches)"
            )
        metrics = end_to_end(phase, setups, quality)
    meta["problems"] = problems[:20]
    print("meta " + json.dumps(meta, sort_keys=True))
    return not problems, attempted, failed, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True,
                        choices=("cold-large", "hot-small", "param-shift"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    # Before any thread or process starts: all of them inherit the CPU.
    os.sched_setaffinity(0, {BENCH_CPU})
    tmp = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        correct, attempted, failed, metrics = run(args, tmp)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
