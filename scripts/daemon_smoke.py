#!/usr/bin/env python
"""CI smoke drill for the ``repro serve`` daemon (ISSUE 7).

Boots a real ``repro serve`` subprocess on a unix socket, slams it with
``--clients`` concurrent connections (default 8) that all ask for the
*same* workload fingerprint at the same instant plus a spread of
distinct ones, then checks the serving contracts end to end:

* every request is answered (a result or a structured error — never a
  dropped connection);
* the overlapping fingerprints were coalesced across clients
  (``serve.jobs_coalesced > 0`` in the ``stats`` frame);
* the optimizer's own counters reach that frame from the batch thread
  (``model.calls > 0`` and ``enumerate.merges > 0``), although the
  daemon keeps no spans;
* SIGTERM drains cleanly: the process exits 0 and reports
  "daemon drained cleanly".

Exits non-zero on any violated contract. Usage::

    PYTHONPATH=src python scripts/daemon_smoke.py --clients 8
"""

from __future__ import annotations

import argparse
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--clients", type=int, default=8)
    parser.add_argument(
        "--distinct-sizes",
        type=int,
        default=3,
        help="distinct workload sizes per client besides the shared one",
    )
    parser.add_argument("--boot-timeout", type=float, default=60.0)
    parser.add_argument("--drain-timeout", type=float, default=60.0)
    args = parser.parse_args(argv)

    from repro.serve import ServeClient
    from repro.serve.protocol import OptimizeRequest

    workdir = tempfile.mkdtemp(prefix="repro-daemon-smoke-")
    socket_path = os.path.join(workdir, "daemon.sock")
    model_path = os.path.join(workdir, "model.pkl")
    env = dict(os.environ)
    # A tiny real model (~1 s): without one the fallback chain serves and
    # the forest's ``model.*`` counters never move.
    subprocess.run(
        [
            sys.executable,
            "-m",
            "repro",
            "train",
            "--points",
            "200",
            "--seed",
            "3",
            "--out",
            model_path,
        ],
        env=env,
        stdout=subprocess.DEVNULL,
        check=True,
    )
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--socket",
            socket_path,
            "--model",
            model_path,
            "--workers",
            "0",
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )

    failures = []
    try:
        deadline = time.monotonic() + args.boot_timeout
        while not os.path.exists(socket_path):
            if proc.poll() is not None:
                print(proc.stdout.read())
                print("daemon-smoke: daemon died during boot", file=sys.stderr)
                return 1
            if time.monotonic() > deadline:
                print("daemon-smoke: daemon never bound its socket", file=sys.stderr)
                return 1
            time.sleep(0.1)

        address = f"unix:{socket_path}"
        results = [None] * args.clients
        barrier = threading.Barrier(args.clients)

        def drive(index):
            try:
                with ServeClient(address, timeout_s=120.0) as client:
                    barrier.wait(timeout=30.0)
                    # Every client fires the SAME fingerprint first — the
                    # coalescing window — then its own distinct sizes.
                    requests = [
                        OptimizeRequest(
                            request_id=f"c{index}-shared",
                            workload="WordCount",
                            size_bytes=float(2**30),
                        )
                    ]
                    for s in range(args.distinct_sizes):
                        requests.append(
                            OptimizeRequest(
                                request_id=f"c{index}-own{s}",
                                workload="WordCount",
                                # unique size => unique fingerprint bucket
                                size_bytes=float(2**20 * (2 + index))
                                * (4.0**s),
                            )
                        )
                    results[index] = client.optimize_many(requests)
            except Exception as exc:  # noqa: BLE001 - report, don't crash
                results[index] = exc

        threads = [
            threading.Thread(target=drive, args=(i,)) for i in range(args.clients)
        ]
        t0 = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=180.0)
        wall_s = time.perf_counter() - t0

        n_ok = n_error = 0
        for index, shard in enumerate(results):
            if isinstance(shard, Exception) or shard is None:
                failures.append(f"client {index} failed: {shard!r}")
                continue
            for response in shard:
                if response.ok:
                    n_ok += 1
                else:
                    n_error += 1
                    # structured errors are acceptable under load, but
                    # they must BE structured
                    if not getattr(response, "code", ""):
                        failures.append(
                            f"unstructured error frame: {response!r}"
                        )
        expected = args.clients * (1 + args.distinct_sizes)
        if n_ok + n_error != expected:
            failures.append(
                f"answered {n_ok + n_error}/{expected} requests"
            )
        if n_ok == 0:
            failures.append("no request succeeded")

        with ServeClient(address) as control:
            stats = control.stats()
        coalesced = stats.counters.get("serve.jobs_coalesced", 0)
        print(
            f"daemon-smoke: {n_ok} ok / {n_error} structured errors over "
            f"{args.clients} clients in {wall_s:.1f}s; "
            f"jobs_coalesced={coalesced:.0f}, "
            f"p95={stats.latency_ms['p95']:.0f}ms"
        )
        if coalesced <= 0:
            failures.append(
                "serve.jobs_coalesced == 0: concurrent identical requests "
                "were not coalesced"
            )
        for name in ("model.calls", "enumerate.merges"):
            if stats.counters.get(name, 0) <= 0:
                failures.append(
                    f"{name} missing from the stats frame: fresh "
                    "enumerations did not count into the daemon's tracer"
                )

        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=args.drain_timeout)
        if proc.returncode != 0:
            failures.append(f"SIGTERM drain exited {proc.returncode}:\n{out}")
        elif "drained cleanly" not in out:
            failures.append(f"no clean-drain confirmation in output:\n{out}")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
        shutil.rmtree(workdir, ignore_errors=True)

    if failures:
        for failure in failures:
            print(f"daemon-smoke: FAIL — {failure}", file=sys.stderr)
        return 1
    print("daemon-smoke: all serving contracts hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
