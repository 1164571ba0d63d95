"""The K2 benchmark: whole-search end-to-end metrics and a per-layer trace.

Run from the root of the repository::

    python3 perfbench/run.py --workload search_small --seed 1 \\
        --seconds 30 --trace 0

Workloads (``perfbench/workloads.py``; the README has the full record):

* ``search_small`` — 8 small/medium corpus programs, in-process
  ``repro.api.optimize`` with the default ``K2Config``, a fresh store;
* ``search_long`` — the two long programs, cold, no store;
* ``serve_warm`` — small-program jobs through a ``k2 serve`` daemon on a
  pre-filled store, driven by a closed loop of 2 connections.

Search passes run in fresh child processes (``worker.py``), so each pass
starts cold and reports its own peak memory.  Passes repeat until the
next one would end past ``--seconds``; a serve run keeps its closed loop
busy for ``--seconds``.  Every best program is replayed against its
source on seeded random inputs through the reference interpreter, best
digests must repeat across passes, runs and (on ``serve_warm``) the
in-process result of the same job spec.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes (serve: an untraced then a traced daemon,
half the time each) and prints the per-layer metrics and a self-time
table.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
#: Scratch space inside the checkout (listed in the root .gitignore).
SCRATCH = Path(".perfbench")
SETUP_PROBES = 5
#: serve_warm reads the daemon's peak memory after this many jobs.
RSS_AT_JOBS = 30
#: A child that takes longer than this is killed and its work failed.
CHILD_TIMEOUT_S = 150

LAYERS = ("synthesis", "engine", "safety", "analysis", "verification",
          "equivalence", "smt", "store", "checkpoint", "verifier", "service")


# --------------------------------------------------------------------------- #
# Statistics
# --------------------------------------------------------------------------- #
def tail(values):
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it; the maximum (percentile 100) below 11 samples."""
    ordered = sorted(values)
    if len(ordered) < 11:
        return ordered[-1], 100
    index = len(ordered) - 11
    return ordered[index], int(100 * (index + 1) / len(ordered))




# --------------------------------------------------------------------------- #
# Children
# --------------------------------------------------------------------------- #
def spawn(args, ready_timeout=CHILD_TIMEOUT_S):
    """Start a worker; returns (process, seconds until it printed READY)."""
    started = time.perf_counter()
    child = subprocess.Popen([sys.executable, str(WORKER)] + args,
                             stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(ready_timeout, child.kill)
    timer.start()
    try:
        line = child.stdout.readline()
    finally:
        timer.cancel()
    ready = time.perf_counter() - started
    words = line.split()
    if not words or words[0] != "READY":
        finish(child)
        raise RuntimeError(f"worker {args[0]} failed to start")
    if len(words) > 1:  # a speed factor (worker.SpeedProbe)
        ready *= float(words[1])
    return child, ready


def finish(child, timeout=CHILD_TIMEOUT_S):
    """Wait for a worker (killed after ``timeout``); True if it exited 0."""
    try:
        child.stdout.read()
        child.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
    return child.returncode == 0


def setup_samples(workload, work: Path) -> list:
    samples = []
    for index in range(SETUP_PROBES):
        child, ready = spawn(["setup", "--workload", workload.name,
                              "--state", str(work / f"probe{index}")])
        if not finish(child):
            raise RuntimeError("setup probe failed")
        samples.append(ready)
    return samples


# --------------------------------------------------------------------------- #
# Search workloads
# --------------------------------------------------------------------------- #
def run_search(workload, args, work: Path, trace_dir: Path) -> dict:
    order = workload.ordered(args.seed)
    passes, errors = [], []
    started = time.perf_counter()
    for index in itertools.count():
        traced = bool(args.trace) and index % 2 == 1
        out = work / f"pass{index}.json"
        command = ["search", "--workload", workload.name,
                   "--programs", ",".join(order), "--out", str(out)]
        if workload.store:
            command += ["--store", str(work / f"store{index}.k2s")]
        if traced:
            command += ["--trace", str(trace_dir / f"pass{index}.json")]
        try:
            child, _ = spawn(command)
            ok = finish(child)
        except RuntimeError as exc:
            ok = False
            errors.append(str(exc))
        if ok:
            report = json.loads(out.read_text())
            report["traced"] = traced
            passes.append(report)
        else:
            errors.append(f"pass {index} failed")
            passes.append({"traced": traced, "searches": None})
        elapsed = time.perf_counter() - started
        if elapsed * (index + 2) / (index + 1) > args.seconds and \
                (not args.trace or index >= 1):
            break
    return {"passes": passes, "errors": errors}


# --------------------------------------------------------------------------- #
# The serve workload
# --------------------------------------------------------------------------- #
def job_specs(workload):
    from repro import api
    from workloads import SEARCH_SEED

    return {name: api.K2Config(
                iterations=workload.iterations_of(name),
                settings=workload.settings, seed=SEARCH_SEED,
                executor="process", num_workers=1).job_spec(
                    benchmark=name, sync_interval=workload.sync_interval)
            for name in workload.programs}


def prefill(specs, store_path: str) -> dict:
    """One untimed in-process pass over the job set into the daemon's store;
    returns each spec's in-process result summary (the reference)."""
    from repro.service.daemon import summarize_search_result
    from repro.synthesis import Synthesizer

    reference = {}
    for name, spec in specs.items():
        options = spec.search_options(store_path, None)
        reference[name] = summarize_search_result(
            Synthesizer(options).optimize(spec.build_program()))
    return reference


def closed_loop(specs, order, state: str, seconds: float,
                daemon_pid: int) -> dict:
    """Two connections, each submitting its next job when ``wait``
    returns, for ``seconds``.

    The daemon's memory grows with every job (its store keeps each job's
    checkpoint records), so its peak is read once ``RSS_AT_JOBS`` jobs
    have finished: a fixed amount of work, whatever the host's speed.
    """
    from repro.service import DaemonClient
    from worker import peak_rss_mb

    cycle = itertools.cycle(order)
    lock = threading.Lock()
    jobs, errors, peaks = [], [], []
    started = time.perf_counter()
    deadline = started + seconds

    def connection():
        client = DaemonClient(state)
        while time.perf_counter() < deadline:
            with lock:
                name = next(cycle)
            try:
                submitted = time.perf_counter()
                job_id = client.submit(specs[name])
                acknowledged = time.perf_counter()
                record = client.wait(job_id, timeout=CHILD_TIMEOUT_S)
                ended = time.perf_counter()
            except Exception as exc:  # counted as a failed job
                errors.append(f"{name}: {exc!r}")
                continue
            with lock:
                jobs.append({"program": name, "job_s": ended - submitted,
                             "submit_rtt_s": acknowledged - submitted,
                             "record": record})
                if len(jobs) == RSS_AT_JOBS:
                    peaks.append(peak_rss_mb(str(daemon_pid)))

    threads = [threading.Thread(target=connection) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return {"jobs": jobs, "errors": errors,
            "elapsed_s": time.perf_counter() - started,
            "peak_rss_mb": (peaks or [peak_rss_mb(str(daemon_pid))])[0]}


def serve_phase(specs, order, workload, work: Path, name: str,
                seconds: float, trace: str = "") -> dict:
    from worker import start_daemon, stop_daemon

    state = work / name
    state.mkdir()
    shutil.copyfile(work / "prefill" / "store.k2s", state / "store.k2s")
    daemon = start_daemon(str(state), trace)
    try:
        phase = closed_loop(specs, order, str(state), seconds, daemon.pid)
    finally:
        stop_daemon(daemon, str(state))
    phase["workers"] = [json.loads(path.read_text())
                        for path in state.glob("speed.*.json")]
    return phase


def normalize_jobs(phase: dict) -> float:
    """Scale each job's time by the host's CPU speed while it ran, as
    ``run_search`` does per search; returns the job-time-weighted factor
    of the whole phase.

    The speed comes from the pool workers alive while the job ran (its
    own and the concurrent job's, ``worker.ForkedSpeedProbes``).  Jobs
    share the two cores with each other and the daemon, so a sample also
    waits whenever its worker is preempted; that wait is the workload's
    own cost, not host noise.  A job's host speed is therefore the fast
    samples (20th percentile), which shift with the host but not with
    preemption."""
    from worker import SpeedProbe

    workers = phase["workers"]
    for job in phase["jobs"]:
        record = job["record"]
        samples = [t for worker in workers
                   if worker["end"] > record["started_at"]
                   and worker["start"] < (record["finished_at"] or 0)
                   for t in worker["samples"]]
        factor = 1.0 if len(samples) < 5 else SpeedProbe.factor(
            [statistics.quantiles(samples, n=5)[0]])
        job["norm_s"] = job["job_s"] * factor
    return sum(job["norm_s"] for job in phase["jobs"]) \
        / sum(job["job_s"] for job in phase["jobs"])


def run_serve(workload, args, work: Path, trace_dir: Path) -> dict:
    specs = job_specs(workload)
    (work / "prefill").mkdir()
    reference = prefill(specs, str(work / "prefill" / "store.k2s"))
    order = workload.ordered(args.seed)
    if not args.trace:
        phases = [serve_phase(specs, order, workload, work, "daemon",
                              args.seconds)]
        phases[0]["traced"] = False
    else:
        untraced = serve_phase(specs, order, workload, work, "daemon0",
                               args.seconds / 2)
        from tracer import Tracer

        client_tracer = Tracer().install()
        traced = serve_phase(specs, order, workload, work, "daemon1",
                             args.seconds / 2,
                             trace=str(trace_dir / "daemon.json"))
        client_tracer.dump(str(trace_dir / "client.json"))
        untraced["traced"], traced["traced"] = False, True
        phases = [untraced, traced]
    return {"reference": reference, "phases": phases}


# --------------------------------------------------------------------------- #
# Correctness
# --------------------------------------------------------------------------- #
class Checker:
    """Independent replay, digest agreement and cross-run determinism."""

    def __init__(self, workload, seed: int):
        from check import digest

        self.workload = workload
        self.seed = seed
        self.digest = digest
        self.attempted = 0
        self.failures = []
        self.digests = {}
        self.sizes = {}
        self._replayed = {}

    def search(self, name: str, best_text: str, source_insns: int,
               best_insns: int, expected_digest=None) -> None:
        """Check one finished search or job."""
        self.attempted += 1
        digest = self.digest(best_text)
        problem = None
        if expected_digest is not None and digest != expected_digest:
            problem = "best_digest differs from the in-process result"
        elif self.digests.setdefault(name, digest) != digest:
            problem = "best program differs between runs of the same search"
        else:
            problem = self._replay(name, best_text)
        self.sizes[name] = (source_insns, best_insns)
        if problem:
            self.failures.append(f"{name}: {problem}")

    def fail(self, what: str) -> None:
        self.attempted += 1
        self.failures.append(what)

    def _replay(self, name: str, best_text: str):
        key = (name, best_text)
        if key not in self._replayed:
            from check import divergence, make_inputs
            from repro import api
            from repro.bpf import assemble

            source = api.benchmark_program(name)
            best = source.with_instructions(assemble(best_text))
            rng = random.Random(f"{self.seed}/{name}")
            self._replayed[key] = divergence(source, best,
                                             make_inputs(source, rng))
        return self._replayed[key]

    def size_ratio(self) -> float:
        from check import geomean

        return geomean(best / source for source, best in self.sizes.values())

    def across_runs(self) -> None:
        """Compare digests with earlier runs of this workload and code."""
        record_dir = SCRATCH / "digests"
        record_dir.mkdir(parents=True, exist_ok=True)
        path = record_dir / f"{self.workload.name}-{fingerprint()}.json"
        current = {"digests": self.digests, "size_ratio": self.size_ratio()}
        if path.exists():
            earlier = json.loads(path.read_text())
            for name, digest in self.digests.items():
                if earlier["digests"].get(name, digest) != digest:
                    self.failures.append(
                        f"{name}: best program differs from an earlier run")
            if set(earlier["digests"]) == set(self.digests) and \
                    earlier["size_ratio"] != current["size_ratio"]:
                self.failures.append("size_ratio differs from an earlier run")
        else:
            path.write_text(json.dumps(current, sort_keys=True))


def fingerprint() -> str:
    """Hash of the source tree and the benchmark definitions."""
    hasher = hashlib.blake2b(digest_size=8)
    for path in sorted(list(Path("src").rglob("*.py"))
                       + [HERE / "workloads.py"]):
        hasher.update(str(path).encode())
        hasher.update(path.read_bytes())
    return hasher.hexdigest()


# --------------------------------------------------------------------------- #
# Metrics
# --------------------------------------------------------------------------- #
def merge_traces(paths) -> dict:
    merged = {"spans": {}, "counters": {}, "toplevel_s": 0.0}
    for path in paths:
        summary = json.loads(Path(path).read_text())["summary"]
        merge_summary(merged, summary)
    return merged


def merge_summary(merged: dict, summary: dict) -> None:
    for name, row in summary["spans"].items():
        into = merged["spans"].setdefault(name, [0, 0.0, 0.0, 0.0])
        for index in range(3):
            into[index] += row[index]
        into[3] = max(into[3], row[3])
    for name, value in summary["counters"].items():
        merged["counters"][name] = merged["counters"].get(name, 0) + value
    merged["toplevel_s"] += summary["toplevel_s"]


def layer_metrics(trace: dict, passes: float, store_hits: float,
                  coverage: float, overhead: float, service: dict) -> dict:
    """Every per-layer metric, per pass over the workload's searches."""
    spans, counters = trace["spans"], trace["counters"]

    def total(*names):
        return sum(spans.get(name, [0, 0.0])[1] for name in names) / passes

    def count(name):
        return counters.get(name, 0) / passes

    def ratio(part, whole):
        whole = counters.get(whole, 0)
        return counters.get(part, 0) / whole if whole else 0.0

    self_time = {layer: 0.0 for layer in LAYERS}
    for name, row in spans.items():
        self_time[name.split(".")[0]] += row[2] / passes
    engine_s = total("engine.run")
    metrics = {
        "synthesis.iterations": (count("synthesis.iterations"), "count"),
        "synthesis.accept_ratio":
            (ratio("synthesis.accepted", "synthesis.iterations"), "ratio"),
        "synthesis.propose_s": (total("synthesis.propose"), "s"),
        "synthesis.cost_s": (total("synthesis.cost"), "s"),
        "synthesis.self_s": (self_time["synthesis"], "s"),
        "engine.run_s": (engine_s, "s"),
        "engine.tests_run": (count("engine.tests_run"), "count"),
        "engine.tests_per_s":
            (count("engine.tests_run") / engine_s if engine_s else 0.0, "1/s"),
        "engine.lockstep_batches": (count("engine.lockstep_batches"), "count"),
        "engine.fused_fallbacks": (count("engine.fused_fallbacks"), "count"),
        "safety.check_s": (total("safety.check"), "s"),
        "safety.checks": (count("safety.checks"), "count"),
        "safety.unsafe_ratio": (ratio("safety.unsafe", "safety.checks"),
                                "ratio"),
        "analysis.memo_hit_ratio":
            (ratio("analysis.memo_hits", "analysis.analyses"), "ratio"),
    }
    for stage in ("safety", "replay", "cache", "window", "full"):
        prefix = f"verification.{stage}"
        metrics[f"{prefix}.s"] = (total(prefix), "s")
        metrics[f"{prefix}.attempts"] = (count(f"{prefix}.attempts"), "count")
        metrics[f"{prefix}.decided_ratio"] = (
            ratio(f"{prefix}.decided", f"{prefix}.attempts"), "ratio")
    metrics.update({
        "verification.inconclusive":
            (count("verification.inconclusive"), "count"),
        "equivalence.check_s":
            (total("equivalence.check", "equivalence.window"), "s"),
        "equivalence.checks": (count("equivalence.checks"), "count"),
        "equivalence.cache_hit_ratio":
            (ratio("equivalence.cache_hits", "equivalence.cache_lookups"),
             "ratio"),
        "smt.solve_s": (total("smt.solve"), "s"),
        "smt.solves": (count("smt.solves"), "count"),
        "smt.solve_max_s": (spans.get("smt.solve", [0, 0, 0, 0.0])[3], "s"),
        "smt.conflicts": (count("smt.conflicts"), "count"),
        "smt.decisions": (count("smt.decisions"), "count"),
        "smt.blast_s": (total("smt.blast"), "s"),
        "store.load_s": (total("store.load"), "s"),
        "store.flush_s": (total("store.flush"), "s"),
        "store.bytes_written": (count("store.bytes_written"), "bytes"),
        "store.hits": (store_hits / passes, "count"),
        "checkpoint.s": (total("checkpoint.record", "checkpoint.build"), "s"),
        "checkpoint.writes": (count("checkpoint.writes"), "count"),
        "checkpoint.bytes": (count("checkpoint.bytes"), "bytes"),
        "verifier.load_s": (total("verifier.load"), "s"),
        "verifier.rejected": (count("verifier.rejected"), "count"),
    })
    for name in ("submit_rtt_s", "queue_wait_s", "run_s", "overhead_s"):
        metrics[f"service.{name}"] = (service.get(name, 0.0), "s")
    for layer in LAYERS[1:-1]:
        metrics[f"{layer}.self_s"] = (self_time[layer], "s")
    metrics["trace.coverage"] = (coverage, "ratio")
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    return metrics, self_time


def print_layer_table(spans: dict, self_time: dict, passes: float,
                      wall: float) -> None:
    """Self time per layer, as a share of the pass wall clock (serve
    passes overlap two jobs, so shares there can sum past 100%).  The
    service layer is the client waiting on the daemon and is left out."""
    print(f"per-layer self time (per pass, pass wall {wall:.3f} s):")
    for layer, seconds in sorted(self_time.items(), key=lambda kv: -kv[1]):
        if seconds and layer != "service":
            print(f"  {layer:13s} {seconds:9.4f} s  {100 * seconds / wall:5.1f}%")
    print("per-span totals (per pass): calls, inclusive s, self s, max s")
    for name, row in sorted(spans.items(), key=lambda kv: -kv[1][2]):
        print(f"  {name:24s} {row[0] / passes:10.1f} {row[1] / passes:9.4f}"
              f" {row[2] / passes:9.4f} {row[3]:8.4f}")


# --------------------------------------------------------------------------- #
def search_result(workload, args, outcome, checker, trace_dir):
    good = [p for p in outcome["passes"] if p["searches"] is not None]
    for error in outcome["errors"]:
        checker.fail(error)
    for report in good:
        for search in report["searches"]:
            checker.search(search["program"], search["best_text"],
                           search["source_insns"], search["best_insns"])
    untraced = [p for p in good if not p["traced"]]
    if not untraced:
        return None
    pass_s = statistics.median(p["pass_s"] for p in untraced)
    if args.trace:
        traced = [p for p in good if p["traced"]]
        if not traced:
            return None
        merged = {"spans": {}, "counters": {}, "toplevel_s": 0.0}
        for report in traced:
            merge_summary(merged, report["trace"])
        wall = statistics.mean(p["pass_s"] for p in traced)
        hits = sum(s["store_hits"] for p in traced for s in p["searches"])
        coverage = merged["toplevel_s"] / sum(p["pass_s"] for p in traced)
        metrics, self_time = layer_metrics(
            merged, len(traced), hits, coverage,
            statistics.median(p["pass_s"] for p in traced) / pass_s, {})
        print_layer_table(merged["spans"], self_time, len(traced), wall)
        return metrics
    # Each search is deterministic work run at the host's varying speed:
    # its wall clock is scaled to the reference speed by the samples taken
    # while it ran (worker.SpeedProbe), and a program's cost is its
    # fastest pass, since what the scaling misses only ever adds time.
    from worker import SpeedProbe

    fastest, raw = {}, {}
    for report in untraced:
        for search in report["searches"]:
            name = search["program"]
            seconds = search["seconds"] * SpeedProbe.factor(
                search["speed_samples"])
            fastest[name] = min(fastest.get(name, seconds), seconds)
            raw[name] = min(raw.get(name, search["seconds"]),
                            search["seconds"])
    for name, seconds in sorted(fastest.items()):
        print(f"  {name:20s} search {seconds:8.3f} s (fastest raw "
              f"{raw[name]:8.3f} s)")
    print(f"passes: {len(untraced)}, median pass {pass_s:.3f} s, raw "
          f"{sum(raw.values()):.3f} s; job_tail_s is the slowest of "
          f"{len(fastest)} programs")
    search_s = sum(fastest.values())
    return {
        "search_s": (search_s, "s"),
        "size_ratio": (checker.size_ratio(), "ratio"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in untraced),
                        "MiB"),
        "job_p50_s": (statistics.median(fastest.values()), "s"),
        "job_tail_s": (max(fastest.values()), "s"),
        "jobs_per_min": (60.0 * len(fastest) / search_s, "1/min"),
    }


def serve_result(workload, args, outcome, checker, trace_dir):
    reference = outcome["reference"]
    for phase in outcome["phases"]:
        for error in phase["errors"]:
            checker.fail(error)
        for job in phase["jobs"]:
            record = job["record"]
            result = record.get("result") or {}
            if record.get("state") != "done" or not result:
                checker.fail(f"{job['program']}: job ended "
                             f"{record.get('state')}: {record.get('error')}")
                continue
            expected = reference[job["program"]]["best_digest"]
            checker.search(job["program"], result["best_program"],
                           result["source_insns"], result["best_insns"],
                           expected_digest=expected)
    untraced = outcome["phases"][0]
    jobs = untraced["jobs"]
    if not jobs:
        return None
    times = [job["job_s"] for job in jobs]
    p50 = statistics.median(times)
    if args.trace:
        traced = outcome["phases"][1]
        tjobs = [job for job in traced["jobs"] if job["record"].get("result")]
        if not tjobs:
            return None
        passes = len(tjobs) / len(workload.programs)
        paths = [p for p in trace_dir.iterdir() if p.name != "client.json"]
        merged = merge_traces(paths)
        client = merge_traces([trace_dir / "client.json"])
        merge_summary(merged, {"spans": client["spans"], "counters": {},
                               "toplevel_s": 0.0})
        records = [job["record"] for job in tjobs]
        waits = [r["started_at"] - r["submitted_at"] for r in records]
        runs = [r["finished_at"] - r["started_at"] for r in records]
        service = {
            "submit_rtt_s": statistics.mean(j["submit_rtt_s"] for j in tjobs),
            "queue_wait_s": statistics.mean(waits),
            "run_s": statistics.mean(runs),
            "overhead_s": statistics.mean(
                job["job_s"] - wait - run
                for job, wait, run in zip(tjobs, waits, runs)),
        }
        hits = sum(job["record"]["result"]["cache"].get("store_hits", 0)
                   for job in tjobs)
        metrics, self_time = layer_metrics(
            merged, passes, hits, merged["toplevel_s"] / sum(runs),
            statistics.median(j["job_s"] for j in tjobs) / p50, service)
        print_layer_table(merged["spans"], self_time, passes,
                          traced["elapsed_s"] / passes)
        return metrics
    factor = normalize_jobs(untraced)
    times = [job["norm_s"] for job in jobs]
    job_tail, percentile = tail(times)
    elapsed = untraced["elapsed_s"] * factor
    print(f"jobs: {len(jobs)} in {untraced['elapsed_s']:.2f} s (speed "
          f"factor {factor:.3f}, raw p50 {p50:.3f} s); job_tail_s is "
          f"p{percentile} of {len(times)} samples")
    return {
        "search_s": (elapsed * len(workload.programs) / len(jobs), "s"),
        "size_ratio": (checker.size_ratio(), "ratio"),
        "peak_rss_mb": (untraced["peak_rss_mb"], "MiB"),
        "job_p50_s": (statistics.median(times), "s"),
        "job_tail_s": (job_tail, "s"),
        "jobs_per_min": (60.0 * len(jobs) / elapsed, "1/min"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="K2 benchmark: end-to-end metrics or a per-layer trace")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no K2 sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in os.environ.get(
            "PYTHONPATH", "").split(os.pathsep) if p])
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(sorted(WORKLOADS))}", file=sys.stderr)
        return 2
    work = SCRATCH / f"run-{workload.name}-{args.seed}-{os.getpid()}"
    trace_dir = SCRATCH / "trace" / f"{workload.name}-seed{args.seed}"
    shutil.rmtree(trace_dir, ignore_errors=True)
    work.mkdir(parents=True)
    if args.trace:
        trace_dir.mkdir(parents=True)
    try:
        setup = [] if args.trace else setup_samples(workload, work)
        runner = run_search if workload.kind == "search" else run_serve
        outcome = runner(workload, args, work, trace_dir)
        checker = Checker(workload, args.seed)
        build = search_result if workload.kind == "search" else serve_result
        metrics = build(workload, args, outcome, checker, trace_dir)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if metrics is None:
        print("perfbench: no run completed", file=sys.stderr)
        return 1
    checker.across_runs()
    if not args.trace:
        metrics = dict({"setup_s": (statistics.median(setup), "s")},
                       **metrics)
    print(f"workload {workload.name}, seed {args.seed}: "
          f"{checker.attempted} searches, {len(checker.failures)} failed "
          f"(failed_frac {len(checker.failures) / max(1, checker.attempted):.3f})")
    for failure in checker.failures:
        print(f"  FAILED {failure}")
    for name in sorted(checker.sizes):
        source, best = checker.sizes[name]
        print(f"  {name:20s} {source:4d} -> {best:4d} insns  "
              f"{checker.digests.get(name, '-')}")
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:14.6f} {unit}")
    print(json.dumps({
        "correct": not checker.failures,
        "attempted": max(1, checker.attempted),
        "failed": len(checker.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
