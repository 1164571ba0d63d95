"""Child processes of the benchmark (started by ``perfbench/run.py``).

Each mode runs in a fresh interpreter, so set-up time is measured from
process start and every search pass starts from the same cold state::

    worker.py setup  --workload W [--state DIR]
        import repro and build the workload's programs (serve workloads
        also start a daemon on DIR and wait for its ping), print READY,
        then tear down;
    worker.py search --workload W --programs a,b --out FILE
                     [--store PATH] [--trace FILE]
        print READY once set up, then run one pass of searches through
        ``repro.api.optimize`` and write the results to FILE;
    worker.py serve  --state DIR [--trace FILE]
        run ``k2 serve`` (2 job slots, 2 workers) until shut down.

``--trace`` installs the span tracer before anything is built and writes
the spans to FILE when the process ends.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing.util
import os
import signal
import subprocess
import sys
import time

from tracer import Tracer
from workloads import SEARCH_SEED, WORKLOADS

SERVE_ARGS = ["--max-concurrent-jobs", "2", "--worker-budget", "2"]


def peak_rss_mb(pid: str = "self") -> float:
    """Peak resident set size (``VmHWM``) of a process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


class SpeedProbe:
    """Samples how fast this CPU runs Python code while work runs.

    A shared host runs the same work up to 1.7x slower in phases that
    last from a second to most of a run.  Every 20 ms a timer signal runs
    a fixed interpreter-bound kernel in the main thread and records its
    duration, so the samples cover the same core and the same moments as
    the work.  ``factor`` turns wall seconds into seconds at a reference
    speed: the kernel taking ``REFERENCE_S``, its time on an uncontended
    core of the 2-vCPU VM the benchmark was tuned on.
    """

    PERIOD_S = 0.02
    REFERENCE_S = 0.0002

    def __init__(self):
        self.samples = []

    @classmethod
    def factor(cls, samples) -> float:
        """Reference-speed seconds per wall second over ``samples`` (the
        mean of reference over sample, since samples are evenly spaced
        in wall time); 1 without samples."""
        if not samples:
            return 1.0
        return sum(cls.REFERENCE_S / sample for sample in samples) \
            / len(samples)

    @staticmethod
    def _kernel() -> int:
        total, table = 0, {}
        for index in range(1500):
            table[index & 63] = table.get(index & 63, 0) + index
            total += (index * 31) % 7
        return total + len(table)

    def _sample(self, signum, frame) -> None:
        started = time.perf_counter()
        self._kernel()
        self.samples.append(time.perf_counter() - started)

    def __enter__(self) -> "SpeedProbe":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


class ForkedSpeedProbes:
    """Runs a :class:`SpeedProbe` in every process forked from this one
    (the daemon's process-pool workers, where its jobs' searches run)
    and writes each worker's samples and lifetime to
    ``<directory>/speed.<pid>.json`` when it exits."""

    def __init__(self, directory: str):
        self.directory = directory
        multiprocessing.util.register_after_fork(
            self, ForkedSpeedProbes._after_fork)

    def _after_fork(self) -> None:
        probe = SpeedProbe().__enter__()
        started = time.time()

        def write() -> None:
            probe.__exit__()
            path = f"{self.directory}/speed.{os.getpid()}.json"
            with open(path, "w", encoding="utf-8") as handle:
                json.dump({"start": started, "end": time.time(),
                           "samples": probe.samples}, handle)

        multiprocessing.util.Finalize(self, write, exitpriority=0)


def start_daemon(state: str, trace: str = "") -> subprocess.Popen:
    """Start a ``k2 serve`` child on ``state``; returns once ping answers."""
    from repro.service import DaemonClient, DaemonUnavailable

    command = [sys.executable, __file__, "serve", "--state", state]
    if trace:
        command += ["--trace", trace]
    daemon = subprocess.Popen(command, stdout=subprocess.DEVNULL)
    client = DaemonClient(state, timeout=5.0)
    deadline = time.monotonic() + 60
    while True:
        try:
            client.ping()
            return daemon
        except DaemonUnavailable:
            if daemon.poll() is not None or time.monotonic() > deadline:
                stop_daemon(daemon, state)
                raise RuntimeError("k2 serve did not come up")
            time.sleep(0.01)


def stop_daemon(daemon: subprocess.Popen, state: str) -> None:
    """Shut a daemon down and wait for it (killed after 30 s)."""
    from repro.service import DaemonClient, DaemonUnavailable

    if daemon.poll() is None:
        try:
            DaemonClient(state, timeout=5.0).shutdown()
        except DaemonUnavailable:
            daemon.terminate()
    try:
        daemon.wait(timeout=30)
    except subprocess.TimeoutExpired:
        daemon.kill()
        daemon.wait()


def _setup(args) -> int:
    """Prints ``READY <speed factor>`` once set up."""
    workload = WORKLOADS[args.workload]
    daemon = None
    with SpeedProbe() as probe:
        from repro import api

        for name in workload.programs:
            api.benchmark_program(name)
        if workload.kind == "serve":
            daemon = start_daemon(args.state)
    try:
        print(f"READY {SpeedProbe.factor(probe.samples)}", flush=True)
    finally:
        if daemon is not None:
            stop_daemon(daemon, args.state)
    return 0


def _search(args) -> int:
    tracer = Tracer(args.trace).install() if args.trace else None
    from repro import api

    workload = WORKLOADS[args.workload]
    programs = [(name, api.benchmark_program(name))
                for name in args.programs.split(",")]
    configs = {name: api.K2Config(iterations=workload.iterations_of(name),
                                  settings=workload.settings,
                                  seed=SEARCH_SEED, store=args.store or None)
               for name, _ in programs}
    print("READY", flush=True)
    searches = []
    started = time.perf_counter()
    with SpeedProbe() as probe:
        for name, program in programs:
            mark = len(probe.samples)
            search_started = time.perf_counter()
            result = api.optimize(program, configs[name])
            seconds = time.perf_counter() - search_started
            searches.append(_search_record(name, result, seconds,
                                           probe.samples[mark:]))
    pass_seconds = time.perf_counter() - started
    report = {"pass_s": pass_seconds, "peak_rss_mb": peak_rss_mb(),
              "searches": searches,
              "trace": tracer.summary() if tracer else None}
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    if tracer:
        tracer.dump()
    return 0


def _search_record(name, result, seconds, speed_samples) -> dict:
    return {"program": name,
            "seconds": seconds,
            "speed_samples": speed_samples,
            "best_text": result.optimized.to_text(),
            "source_insns": result.source.num_real_instructions,
            "best_insns": result.optimized.num_real_instructions,
            "store_hits": result.search.cache_stats.get("store_hits", 0)}


def _serve(args) -> int:
    tracer = Tracer(args.trace).install() if args.trace else None
    probes = ForkedSpeedProbes(args.state)  # noqa: F841 (kept alive)
    from repro.cli import main

    try:
        return main(["serve", "--state", args.state] + SERVE_ARGS)
    finally:
        if tracer:
            tracer.dump()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "search", "serve"))
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--state", default="")
    parser.add_argument("--programs", default="")
    parser.add_argument("--store", default="")
    parser.add_argument("--out", default="")
    parser.add_argument("--trace", default="")
    args = parser.parse_args(argv)
    return {"setup": _setup, "search": _search, "serve": _serve}[args.mode](
        args)


if __name__ == "__main__":
    sys.exit(main())
