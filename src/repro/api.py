"""The stable public facade: one config type, four verbs.

Everything the CLI can do is reachable programmatically through this
module, and one typed :class:`K2Config` describes a search wherever it
runs::

    from repro import api

    config = api.K2Config(iterations=2000, settings=4, store="v.k2s")
    result = api.optimize(api.benchmark_program("xdp_pktcntr"), config)

    job = api.submit(config, benchmark="xdp_pktcntr", state=".k2d")
    for event in api.watch(job, state=".k2d"):
        print(event.event, event.data)

``K2Config`` fields mirror the CLI flags one-for-one (``--sync-interval``
is ``sync_interval`` and so on), so anything expressible on the command
line is expressible here with the same names and defaults — the CLI
itself is built on this module, and ``tests/test_cli.py`` checks that
every field is a ``k2 optimize`` or ``k2 submit`` flag and every search
flag a field, which keeps the two from drifting.  A daemon job's
:class:`~repro.service.JobSpec` is a ``K2Config`` plus the program, and
:meth:`K2Config.search_options` is the one mapping to the library's
:class:`~repro.synthesis.SearchOptions`, so one request means one search
in-process, in the daemon and across shards.  There is no engine
option: every search runs on the decode-once execution engine.
"""

from __future__ import annotations

import dataclasses
from typing import Iterator, List, Optional

from .bpf import BpfProgram, HookType, assemble
from .bpf.encoder import encode_program
from .equivalence import EquivalenceOptions
from .perf.latency_model import DEFAULT_LATENCY_MODEL
from .synthesis import (
    EXECUTOR_KINDS, GOALS, PerformanceGoal, SearchOptions, SearchResult,
    Synthesizer,
)
from .verification import summarize_verification_stats
from .verifier import KernelChecker, KernelCheckerVerdict

__all__ = ["K2Config", "CompilationResult", "optimize", "submit", "watch",
           "wait", "store_stats", "serve", "load_program",
           "benchmark_program"]


@dataclasses.dataclass
class K2Config:
    """Every search knob, as one typed value.

    Field names, meanings and defaults mirror the ``k2 optimize`` /
    ``k2 submit`` flags exactly; see ``k2 optimize --help`` for the long
    documentation of each.  The service-only fields (``priority``,
    ``shards``) are ignored by the in-process :func:`optimize` and
    consumed by :func:`submit`.  :class:`~repro.service.JobSpec` extends
    this class, so a spec the daemon accepts is exactly a config the
    library accepts.
    """

    # Search shape (``k2 optimize`` flags).
    goal: str = "size"
    iterations: int = 2000
    settings: int = 4
    seed: int = 0
    num_workers: int = 1
    executor: str = "auto"
    sync_interval: Optional[int] = None
    windowed: bool = False
    window_size: int = 24
    window_overlap: int = 8
    store: Optional[str] = None
    conflict_budget: Optional[int] = None
    verify_pipeline: Optional[str] = None
    # Service-side scheduling (``k2 submit`` flags).
    priority: int = 0
    shards: int = 1
    share_cache: bool = True
    share_counterexamples: bool = True

    # ------------------------------------------------------------------ #
    def validate(self) -> None:
        """Raise ``ValueError`` if this config names a search no run can
        do."""
        if self.goal not in GOALS:
            raise ValueError(f"goal must be one of {', '.join(GOALS)}")
        if self.iterations <= 0:
            raise ValueError("iterations must be positive")
        if self.settings <= 0:
            raise ValueError("settings must be positive")
        if self.executor not in EXECUTOR_KINDS:
            raise ValueError(
                f"executor must be one of {', '.join(EXECUTOR_KINDS)}")
        if self.window_size < 2 or not \
                0 <= self.window_overlap < self.window_size:
            raise ValueError("window_size must be >= 2 and window_overlap "
                             "must be >= 0 and smaller than window_size")
        if self.conflict_budget is not None and self.conflict_budget <= 0:
            raise ValueError("conflict_budget must be positive")
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if self.verify_pipeline is not None:
            EquivalenceOptions.from_stages(self.verify_pipeline)

    # ------------------------------------------------------------------ #
    def search_options(self, store_path: Optional[str] = None,
                       checkpoint_key: Optional[str] = None,
                       generation_hook=None,
                       progress_listener=None) -> SearchOptions:
        """The fully-resolved library options this config denotes.

        The arguments are the daemon's wiring: ``store_path`` (its shared
        verdict store, searched on in place of ``store``), the job's
        ``checkpoint_key`` and the per-generation ``generation_hook`` and
        ``progress_listener`` it observes a job through (see
        :class:`~repro.synthesis.SearchOptions`).
        """
        self.validate()
        goal = GOALS[self.goal]
        equivalence = EquivalenceOptions.from_stages(self.verify_pipeline) \
            if self.verify_pipeline is not None else EquivalenceOptions()
        if self.conflict_budget is not None:
            equivalence = dataclasses.replace(
                equivalence, max_conflicts=int(self.conflict_budget))
        return SearchOptions(
            goal=goal,
            iterations_per_chain=int(self.iterations),
            num_parameter_settings=int(self.settings),
            top_k=1 if goal == PerformanceGoal.INSTRUCTION_COUNT else 5,
            seed=int(self.seed),
            num_workers=int(self.num_workers),
            executor=self.executor,
            sync_interval=self.sync_interval,
            equivalence=equivalence,
            window_mode=bool(self.windowed),
            window_size=int(self.window_size),
            window_overlap=int(self.window_overlap),
            share_cache=bool(self.share_cache),
            share_counterexamples=bool(self.share_counterexamples),
            store_path=store_path or self.store,
            checkpoint_key=checkpoint_key,
            generation_hook=generation_hook,
            progress_listener=progress_listener)

    def job_spec(self, benchmark: Optional[str] = None,
                 program_text: Optional[str] = None, hook: str = "xdp",
                 sync_interval: Optional[int] = None):
        """The service :class:`~repro.service.JobSpec` of this config: a
        copy of its fields plus the program.

        ``sync_interval`` overrides the config's; with neither set the
        spec keeps the service default (a finite 250 — the daemon
        checkpoints at generation boundaries, so unbounded generations
        would make crashes expensive).
        """
        from .service import JobSpec

        fields = {field.name: getattr(self, field.name)
                  for field in dataclasses.fields(K2Config)}
        if sync_interval is not None:
            fields["sync_interval"] = sync_interval
        elif self.sync_interval is None:
            del fields["sync_interval"]
        spec = JobSpec(benchmark=benchmark, program_text=program_text,
                       hook=hook, **fields)
        spec.validate()
        return spec


@dataclasses.dataclass
class CompilationResult:
    """The outcome of one :func:`optimize` call."""

    source: BpfProgram
    optimized: BpfProgram
    search: SearchResult
    kernel_checker_verdict: KernelCheckerVerdict

    # ------------------------------------------------------------------ #
    @property
    def instruction_reduction(self) -> int:
        return (self.source.num_real_instructions
                - self.optimized.num_real_instructions)

    @property
    def compression_percent(self) -> float:
        original = self.source.num_real_instructions
        return 100.0 * self.instruction_reduction / original if original else 0.0

    @property
    def estimated_latency_gain(self) -> float:
        return (DEFAULT_LATENCY_MODEL.program_cost(self.source)
                - DEFAULT_LATENCY_MODEL.program_cost(self.optimized))

    def to_bytes(self) -> bytes:
        """The optimized program in the kernel's binary instruction format."""
        return encode_program(self.optimized.instructions)

    def summary(self) -> str:
        lines = [
            f"program:       {self.source.name}",
            f"instructions:  {self.source.num_real_instructions} -> "
            f"{self.optimized.num_real_instructions} "
            f"({self.compression_percent:.2f}% smaller)",
            f"est. latency:  {DEFAULT_LATENCY_MODEL.program_cost(self.source):.1f}ns -> "
            f"{DEFAULT_LATENCY_MODEL.program_cost(self.optimized):.1f}ns",
            f"kernel check:  {'accepted' if self.kernel_checker_verdict else 'REJECTED'}",
            f"search:        {self.search.total_iterations()} iterations, "
            f"{self.search.elapsed_seconds:.1f}s "
            f"({len(self.search.chain_results)} chains, "
            f"{self.search.executor_used} executor)",
        ]
        cache = self.search.cache_stats
        if cache:
            lines.append(
                f"eq-cache:      {cache['hits']:.0f} hits / "
                f"{cache['misses']:.0f} misses "
                f"({100.0 * cache['hit_rate']:.0f}% hit rate, "
                f"{cache['cross_chain_hits']:.0f} cross-chain), "
                f"{self.search.counterexamples_shared} counterexamples shared")
        verification = self.search.verification_stats
        if verification:
            lines.append(
                f"verify:        {summarize_verification_stats(verification)}")
        store = self.search.store_stats
        if store:
            lines.append(
                f"store:         {store['path']}: "
                f"{store['preseeded_verdicts']} verdicts + "
                f"{store['preseeded_analysis']} memos preseeded "
                f"({self.search.cache_stats.get('store_hits', 0):.0f} "
                f"cross-run hits), "
                f"{store['flushed_records']} records flushed")
        windows = self.search.window_stats
        if windows:
            adopted = [w for w in windows if w.adopted]
            removed = sum(w.insns_removed for w in adopted)
            if self.search.stitch_verified is None:
                stitch = "unchanged"
            elif not self.search.stitch_verified:
                stitch = "proof FAILED (fell back to source)"
            elif self.search.best is None:
                stitch = "verified, kernel-checker REJECTED " \
                         "(fell back to source)"
            else:
                stitch = "verified"
            lines.append(
                f"windows:       {len(windows)} planned, "
                f"{len(adopted)} adopted, {removed} insns removed, "
                f"stitch {stitch}")
        return "\n".join(lines)


# --------------------------------------------------------------------------- #
# Program loading
# --------------------------------------------------------------------------- #
def load_program(path: str, hook: str = "xdp") -> BpfProgram:
    """A :class:`BpfProgram` from a ``.s`` assembly file."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    return BpfProgram.create(assemble(text), HookType(hook), name=path)


def benchmark_program(name: str) -> BpfProgram:
    """A corpus benchmark's program (see ``k2 corpus`` for names)."""
    from .corpus import get_benchmark

    return get_benchmark(name).program()


# --------------------------------------------------------------------------- #
# Verbs
# --------------------------------------------------------------------------- #
def optimize(program: BpfProgram, config: Optional[K2Config] = None,
             settings: Optional[List] = None) -> CompilationResult:
    """Optimize ``program`` in-process; the facade's ``k2 optimize``.

    The optimized program is the search's best candidate — safe,
    equivalent to ``program`` and accepted by the kernel-checker model —
    or ``program`` itself when the search reports none.
    """
    program.validate()
    search = Synthesizer((config or K2Config()).search_options()).optimize(
        program, settings=settings)
    optimized = search.best_program
    return CompilationResult(
        source=program, optimized=optimized, search=search,
        kernel_checker_verdict=KernelChecker().load(optimized))


def submit(config: Optional[K2Config] = None, *,
           benchmark: Optional[str] = None,
           program_text: Optional[str] = None, hook: str = "xdp",
           state: str = ".k2d") -> str:
    """Submit a job to the daemon at ``state``; returns the job id."""
    from .service import DaemonClient

    spec = (config or K2Config()).job_spec(
        benchmark=benchmark, program_text=program_text, hook=hook)
    return DaemonClient(state).submit(spec)


def watch(job_id: str, *, state: str = ".k2d",
          timeout: Optional[float] = None) -> Iterator:
    """Stream a job's pushed events (generation progress, state changes,
    shard transitions) until its terminal event — no polling; see
    :meth:`repro.service.DaemonClient.watch`."""
    from .service import DaemonClient

    return DaemonClient(state).watch(job_id, timeout=timeout)


def wait(job_id: str, *, state: str = ".k2d",
         timeout: Optional[float] = None) -> dict:
    """Block until the job is terminal; returns its full record."""
    from .service import DaemonClient

    return DaemonClient(state).wait(job_id, timeout=timeout)


def store_stats(path: str) -> dict:
    """Summary statistics of a durable verdict store file."""
    from .store import VerdictStore

    return VerdictStore(path).stats()


def serve(state: str = ".k2d", *, max_job_attempts: int = 3,
          max_concurrent_jobs: int = 1,
          worker_budget: Optional[int] = None,
          peers: Optional[List[str]] = None,
          install_signal_handlers: bool = True) -> int:
    """Run a daemon in this process until shutdown; the facade's
    ``k2 serve`` (blocks; returns the exit status)."""
    from .service import K2Daemon

    daemon = K2Daemon(state, max_job_attempts=max_job_attempts,
                      max_concurrent_jobs=max_concurrent_jobs,
                      worker_budget=worker_budget, peers=peers)
    return daemon.serve_forever(
        install_signal_handlers=install_signal_handlers)
