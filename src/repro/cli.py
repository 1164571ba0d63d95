"""Command-line interface: ``k2 optimize``, ``k2 check``, ``k2 serve``, ...

Examples::

    k2 optimize program.s --hook xdp --iterations 2000
    k2 optimize --benchmark sys_enter_wide --conflict-budget 50000  # query deadline
    k2 optimize --benchmark xdp_pktcntr --store verdicts.k2s  # warm start
    k2 check program.s --hook xdp
    k2 corpus --list
    k2 store verdicts.k2s stats
    k2 serve --state .k2d                 # start the job daemon
    k2 serve --state .k2d --max-concurrent-jobs 4 --worker-budget 8
    k2 serve --state .k2d --peer .k2d-b --peer .k2d-c  # shard coordinator
    k2 submit --state .k2d --benchmark xdp_pktcntr --wait
    k2 submit --state .k2d --benchmark xdp_pktcntr --follow  # pushed events
    k2 submit --state .k2d --benchmark xdp_pktcntr --shards 2
    k2 watch --state .k2d j0001
    k2 status --state .k2d j0001
    k2 result --state .k2d j0001

The CLI is a thin shell over the stable :mod:`repro.api` facade — every
search flag maps one-for-one onto a :class:`repro.api.K2Config` field, so
anything scriptable here is scriptable in Python with the same names.
``k2 optimize``, ``k2 check`` and ``k2 submit`` declare their shared
program flags once, and ``k2 optimize`` and ``k2 submit`` their shared
search flags, with the defaults of the config each builds (a
``K2Config`` and a :class:`~repro.service.JobSpec`).

Every command flushes open verdict stores and exits with status 130 on
SIGINT/SIGTERM, so an interrupted warm-started run never loses buffered
verdicts.  ``k2 serve`` upgrades that to a graceful daemon shutdown:
in-flight jobs stop at their next (checkpointed) generation boundary and
resume when the daemon restarts.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import signal
import sys

from . import api
from .bpf import HookType
from .corpus import all_benchmarks
from .safety import SafetyChecker
from .synthesis import EXECUTOR_KINDS, GOALS
from .verifier import KernelChecker

__all__ = ["build_parser", "main"]


def _search_config(args: argparse.Namespace) -> api.K2Config:
    """The :class:`~repro.api.K2Config` a flag namespace denotes.

    The CLI is a thin shell over :mod:`repro.api`: every config field is
    the dest of a ``k2 optimize`` or ``k2 submit`` flag of the same name,
    so this is a straight transcription of the fields the subcommand has.
    """
    return api.K2Config(**{
        field.name: getattr(args, field.name)
        for field in dataclasses.fields(api.K2Config)
        if hasattr(args, field.name)})


def _program(args: argparse.Namespace):
    if args.benchmark:
        return api.benchmark_program(args.benchmark)
    return api.load_program(args.program, args.hook)


def _cmd_optimize(args: argparse.Namespace) -> int:
    result = api.optimize(_program(args), _search_config(args))
    print(result.summary())
    print()
    print(result.optimized.to_text())
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    program = _program(args)
    safety = SafetyChecker().check(program)
    verdict = KernelChecker().load(program)
    print(f"safety checker : {'safe' if safety.safe else 'UNSAFE'}")
    for violation in safety.violations:
        print(f"  - {violation}")
    print(f"kernel checker : {'accepted' if verdict else 'REJECTED'} "
          f"({verdict.reason}, {verdict.insns_processed} insns processed)")
    return 0 if safety.safe and verdict.accepted else 1


def _cmd_corpus(args: argparse.Namespace) -> int:
    for bench in all_benchmarks():
        program = bench.program()
        print(f"{bench.paper_index:2d}  {bench.name:20s} {bench.origin:9s} "
              f"{len(program):4d} insns  {bench.description}")
    return 0


def _cmd_store(args: argparse.Namespace) -> int:
    from .store import VerdictStore

    store = VerdictStore(args.path)
    if args.action == "stats":
        for field, value in api.store_stats(args.path).items():
            print(f"{field:22s} {value}")
        return 0
    if args.action == "gc":
        report = store.gc()
        print(f"compacted {args.path}: {report['lines_before']} -> "
              f"{report['lines_after']} lines "
              f"({report['dropped']} dropped, "
              f"{report['corrupt_dropped']} corrupt)")
        return 0
    # verify: nonzero exit on any corruption or a stale/foreign header.
    report = store.verify()
    state = "ok" if report["ok"] else "CORRUPT"
    if not report["exists"]:
        state = "ok (missing: reads as empty)"
    elif not report["header_ok"]:
        state = "STALE (header missing, foreign or old semantics; " \
                "reads as empty)"
    print(f"{args.path}: {state} — {report['records']} records, "
          f"{report['corrupt']} corrupt, {report['skipped']} skipped")
    return 0 if report["ok"] else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    from .service import K2Daemon

    daemon = K2Daemon(args.state,
                      max_job_attempts=args.max_job_attempts,
                      max_concurrent_jobs=args.max_concurrent_jobs,
                      worker_budget=args.worker_budget,
                      peers=args.peer)
    print(f"k2 daemon: state dir {daemon.state_dir}, "
          f"{len(daemon.queue.jobs())} journaled jobs, "
          f"{daemon.max_concurrent_jobs} slots x "
          f"{daemon.worker_budget} workers"
          + (f", {len(daemon.peers)} peers" if daemon.peers else ""),
          flush=True)
    return daemon.serve_forever()


def _client(args: argparse.Namespace):
    from .service import DaemonClient

    return DaemonClient(args.state)


def _cmd_submit(args: argparse.Namespace) -> int:
    program_text = None
    if args.program:
        with open(args.program, "r", encoding="utf-8") as handle:
            program_text = handle.read()
    job_id = api.submit(_search_config(args), benchmark=args.benchmark,
                        program_text=program_text, hook=args.hook,
                        state=args.state)
    print(job_id, flush=True)
    if args.follow:
        job = _print_events(job_id, args).get("job")
        if job is None:  # stream ended without a terminal record
            job = _client(args).result(job_id)
    elif args.wait:
        job = api.wait(job_id, state=args.state, timeout=args.timeout)
    else:
        return 0
    print(json.dumps(job, indent=2, sort_keys=True))
    return 0 if job["state"] == "done" else 1


def _cmd_job_query(args: argparse.Namespace) -> int:
    client = _client(args)
    if args.command == "status":
        job = client.status(args.job)
    elif args.command == "result":
        job = client.wait(args.job, timeout=args.timeout) if args.wait \
            else client.result(args.job)
    else:  # cancel
        job = client.cancel(args.job)
    print(json.dumps(job, indent=2, sort_keys=True))
    if args.command == "result":
        return 0 if job["state"] == "done" else 1
    return 0


def _print_events(job_id: str, args: argparse.Namespace) -> dict:
    """Print a job's events as JSON lines until its terminal one; returns
    that event's data (empty if the stream ended first).

    Event-driven: every line was pushed by the daemon over a held-open
    watch stream — following costs zero status polls.
    """
    final = {}
    for event in api.watch(job_id, state=args.state, timeout=args.timeout):
        line = {"event": event.event, "seq": event.seq}
        line.update({key: value for key, value in event.data.items()
                     if key != "job"})
        print(json.dumps(line, sort_keys=True), flush=True)
        if event.final:
            final = event.data or {}
    return final


def _cmd_watch(args: argparse.Namespace) -> int:
    return 0 if _print_events(args.job, args).get("state") == "done" else 1


def _cmd_jobs(args: argparse.Namespace) -> int:
    for job in _client(args).jobs():
        progress = job.get("progress") or {}
        gen = f"{progress.get('generation', '-')}/{progress.get('total', '-')}"
        target = job["spec"].get("benchmark") or "<submitted>"
        print(f"{job['id']}  {job['state']:9s} {gen:>7s}  {target}")
    return 0


def _cmd_shutdown(args: argparse.Namespace) -> int:
    response = _client(args).shutdown()
    print(json.dumps(response, sort_keys=True))
    return 0 if response.get("ok") else 1


def _add_state_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--state", default=".k2d", metavar="DIR",
                        help="daemon state directory: socket, job journal "
                             "and shared verdict store live here "
                             "(default: %(default)s)")


def _add_program_args(parser: argparse.ArgumentParser, verb: str) -> None:
    """The program a command reads: an assembly file or a benchmark."""
    parser.add_argument("program", nargs="?", help="path to a .s assembly file")
    parser.add_argument("--benchmark", metavar="NAME",
                        help=f"{verb} a corpus benchmark (see `k2 corpus`) "
                             f"instead of an assembly file")
    parser.add_argument("--hook", default="xdp",
                        choices=[h.value for h in HookType],
                        help="BPF hook the program attaches to "
                             "(default: %(default)s)")


def _add_search_args(parser: argparse.ArgumentParser,
                     defaults: api.K2Config, sync_help: str) -> None:
    """The search flags ``k2 optimize`` and ``k2 submit`` share, with the
    defaults of the config each command builds."""
    parser.add_argument("--goal", default=defaults.goal, choices=list(GOALS),
                        help="optimize for fewer instructions (size) or for "
                             "estimated latency (default: %(default)s)")
    parser.add_argument("--iterations", type=int, default=defaults.iterations,
                        metavar="N",
                        help="MCMC proposals per Markov chain "
                             "(default: %(default)s)")
    parser.add_argument("--settings", type=int, default=defaults.settings,
                        metavar="K",
                        help="number of Table 8 parameter settings, i.e. "
                             "chains, to search (default: %(default)s)")
    parser.add_argument("--seed", type=int, default=defaults.seed,
                        metavar="SEED",
                        help="RNG seed; identical seeds reproduce identical "
                             "results (default: %(default)s)")
    parser.add_argument("--num-workers", type=int,
                        default=defaults.num_workers, metavar="N",
                        help="worker processes to run chains in parallel; "
                             "1 keeps the search in-process and sequential "
                             "(default: %(default)s)")
    parser.add_argument("--executor", default=defaults.executor,
                        choices=list(EXECUTOR_KINDS),
                        help="executor backend for dispatching chains: auto "
                             "picks a process pool when --num-workers > 1 "
                             "and the deterministic serial executor "
                             "otherwise (default: %(default)s)")
    parser.add_argument("--sync-interval", type=int,
                        default=defaults.sync_interval, metavar="N",
                        help=sync_help)
    parser.add_argument("--windowed", action="store_true",
                        help="windowed segment synthesis: slice the program "
                             "into overlapping windows, search each window "
                             "with its own chains and window-local proposal "
                             "pools, stitch the best rewrites and re-verify "
                             "the stitched program against the source "
                             "through the full tiered pipeline (programs "
                             "no longer than --window-size fall back to "
                             "the whole-program search)")
    parser.add_argument("--window-size", type=int,
                        default=defaults.window_size, metavar="N",
                        help="instructions per candidate window "
                             "(default: %(default)s)")
    parser.add_argument("--window-overlap", type=int,
                        default=defaults.window_overlap, metavar="N",
                        help="instructions shared by consecutive windows "
                             "(default: %(default)s)")
    parser.add_argument("--conflict-budget", type=int,
                        default=defaults.conflict_budget, metavar="N",
                        help="per-query solver conflict budget "
                             "(EquivalenceOptions.max_conflicts, fixed when "
                             "each session solver is built): an SMT query "
                             "that exhausts it degrades to 'unknown' and "
                             "the pipeline escalates, so one pathological "
                             "candidate cannot hang the search; omit for "
                             "the library default")


def build_parser() -> argparse.ArgumentParser:
    """The ``k2`` argument parser, every subcommand included."""
    from .service import JobSpec

    parser = argparse.ArgumentParser(
        prog="k2", description="K2: synthesize safe and efficient BPF bytecode")
    sub = parser.add_subparsers(dest="command", required=True)

    optimize = sub.add_parser("optimize", help="optimize a BPF assembly file")
    _add_program_args(optimize, "optimize")
    _add_search_args(
        optimize, api.K2Config(),
        "iterations between cross-chain sharing points (equivalence-cache "
        "entries and counterexamples); omit to run each chain to "
        "completion without mid-run sharing")
    optimize.add_argument("--store", default=None, metavar="PATH",
                          help="durable verdict store: preseed the "
                               "equivalence cache from PATH before the "
                               "search and flush new verdicts back at every "
                               "generation boundary; verdicts learned in one "
                               "run accelerate every future run on the same "
                               "program, and warm starts are bit-identical "
                               "to cold ones (the file is created on first "
                               "use)")
    optimize.add_argument("--verify-pipeline", default=None, metavar="STAGES",
                          help="comma-separated verification stages to enable, "
                               "in escalation order, from: cache, window, "
                               "full (default: all three); e.g. "
                               "--verify-pipeline cache,full reproduces a "
                               "Table 4 ablation configuration")
    optimize.set_defaults(func=_cmd_optimize)

    check = sub.add_parser("check", help="run the safety and kernel checkers")
    _add_program_args(check, "check")
    check.set_defaults(func=_cmd_check)

    corpus = sub.add_parser("corpus", help="list the benchmark corpus")
    corpus.set_defaults(func=_cmd_corpus)

    store = sub.add_parser(
        "store", help="inspect or maintain a durable verdict store")
    store.add_argument("path", help="path of the store file")
    store.add_argument("action", choices=["stats", "gc", "verify"],
                       help="stats: summarize contents; gc: compact the "
                            "file (drop corrupt, duplicate and "
                            "foreign-semantics records); verify: integrity "
                            "scan, nonzero exit on corruption")
    store.set_defaults(func=_cmd_store)

    serve = sub.add_parser(
        "serve", help="run the long-lived synthesis job daemon")
    _add_state_arg(serve)
    serve.add_argument("--max-job-attempts", type=int, default=3, metavar="N",
                       help="times a crashing job is retried before it is "
                            "marked failed (default: %(default)s)")
    serve.add_argument("--max-concurrent-jobs", type=int, default=1,
                       metavar="N",
                       help="scheduler slots: jobs running at once "
                            "(default: %(default)s)")
    serve.add_argument("--worker-budget", type=int, default=None, metavar="N",
                       help="daemon-wide worker pool that per-job grants are "
                            "carved from; a job asking for more workers than "
                            "remain is clamped, never skipped (default: "
                            "max(cpu count, --max-concurrent-jobs))")
    serve.add_argument("--peer", action="append", default=[], metavar="DIR",
                       help="state directory of a peer daemon to farm shard "
                            "sub-jobs out to (repeatable); shards with no "
                            "live peer run locally")
    serve.set_defaults(func=_cmd_serve)

    submit = sub.add_parser(
        "submit", help="submit an optimization job to a running daemon")
    _add_state_arg(submit)
    _add_program_args(submit, "submit")
    _add_search_args(
        submit, JobSpec(),
        "generation length; the daemon checkpoints at every boundary, so "
        "this bounds the work a crash can lose (default: %(default)s)")
    submit.add_argument("--priority", type=int, default=0, metavar="P",
                        help="scheduling priority: higher runs first, FIFO "
                             "within a priority (default: %(default)s)")
    submit.add_argument("--shards", type=int, default=1, metavar="N",
                        help="split the job's chains into N contiguous "
                             "shards farmed out to the daemon's --peer "
                             "daemons and merged deterministically "
                             "(default: %(default)s)")
    submit.add_argument("--no-share-cache", dest="share_cache",
                        action="store_false",
                        help="disable cross-chain equivalence-cache sharing "
                             "(makes a sharded run bit-identical to the "
                             "unsharded one)")
    submit.add_argument("--no-share-counterexamples",
                        dest="share_counterexamples", action="store_false",
                        help="disable cross-chain counterexample sharing")
    submit.add_argument("--wait", action="store_true",
                        help="block until the job is terminal and print its "
                             "result record (event-driven, no polling)")
    submit.add_argument("--follow", action="store_true",
                        help="stream the daemon's pushed job events (state "
                             "changes, per-generation progress, shard "
                             "transitions) as JSON lines until the job is "
                             "terminal, then print its result record; "
                             "costs zero status polls")
    submit.add_argument("--timeout", type=float, default=None, metavar="SEC",
                        help="give up waiting after SEC seconds (the job "
                             "keeps running)")
    submit.set_defaults(func=_cmd_submit)

    watch = sub.add_parser(
        "watch", help="stream a job's pushed events as JSON lines")
    _add_state_arg(watch)
    watch.add_argument("job", help="job id, e.g. j0001")
    watch.add_argument("--timeout", type=float, default=None, metavar="SEC")
    watch.set_defaults(func=_cmd_watch)

    for name, helptext in (("status", "show a job's queue state"),
                           ("result", "show a job's full record incl. result"),
                           ("cancel", "cancel a queued or running job")):
        query = sub.add_parser(name, help=helptext)
        _add_state_arg(query)
        query.add_argument("job", help="job id, e.g. j0001")
        if name == "result":
            query.add_argument("--wait", action="store_true",
                               help="block until the job is terminal")
            query.add_argument("--timeout", type=float, default=None,
                               metavar="SEC")
        query.set_defaults(func=_cmd_job_query)

    jobs = sub.add_parser("jobs", help="list the daemon's jobs")
    _add_state_arg(jobs)
    jobs.set_defaults(func=_cmd_jobs)

    shutdown = sub.add_parser(
        "shutdown", help="ask the daemon to shut down gracefully")
    _add_state_arg(shutdown)
    shutdown.set_defaults(func=_cmd_shutdown)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command in ("optimize", "check", "submit") and not args.program \
            and not args.benchmark:
        parser.error("provide a program file or --benchmark NAME")
    if args.command in ("optimize", "submit"):
        try:
            _search_config(args).validate()
        except ValueError as exc:
            parser.error(str(exc))
    return _dispatch(args)


def _raise_interrupt(signum, frame):  # pragma: no cover - signal path
    raise KeyboardInterrupt


def _dispatch(args: argparse.Namespace) -> int:
    """Run the selected command with interrupt-safe store flushing.

    SIGINT and SIGTERM both land here as :class:`KeyboardInterrupt`: any
    buffered verdict-store records are flushed before exiting 130, so an
    interrupted warm-started run keeps everything it learned.  ``k2 serve``
    installs its own graceful handlers once the daemon starts, which
    supersede this wrapper's.  A reader that closes standard output early
    (``k2 optimize ... | head``) gets the same store flush and a silent
    exit 1.
    """
    try:
        signal.signal(signal.SIGTERM, _raise_interrupt)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass
    service_commands = ("submit", "status", "result", "cancel", "jobs",
                        "watch", "shutdown")
    try:
        status = args.func(args)
        # A closed pipe must surface here, not in the flush at exit.
        sys.stdout.flush()
        return status
    except KeyboardInterrupt:
        from .store import flush_open_stores

        flushed = flush_open_stores()
        note = f" ({flushed} store records flushed)" if flushed else ""
        print(f"k2 {args.command}: interrupted{note}", file=sys.stderr)
        return 130
    except BrokenPipeError:
        from .store import flush_open_stores

        flush_open_stores()
        # Python flushes stdout again at exit; writing to devnull instead
        # keeps that flush from raising a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except Exception as exc:
        if args.command in service_commands:
            from .service import DaemonUnavailable

            if isinstance(exc, (DaemonUnavailable, ValueError,
                                TimeoutError)):
                print(f"k2 {args.command}: {exc}", file=sys.stderr)
                return 2
        raise


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
