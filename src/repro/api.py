"""The stable public facade: one config type, four verbs.

Everything the CLI can do is reachable programmatically through this
module, with one typed :class:`K2Config` replacing the historical
``K2Compiler(...)`` keyword sprawl::

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
flag a field, which keeps the two from drifting.  There is no engine
option: every search runs on the fused execution engine.

Compatibility: the pre-facade keyword constructor of ``K2Compiler``
(``goal=``, ``iterations_per_chain=`` and the rest) is gone after its one
deprecated release.  :class:`~repro.core.K2Compiler` takes only the
:class:`~repro.synthesis.SearchOptions` that :meth:`K2Config.compiler`
builds; anything else should construct a :class:`K2Config`.
"""

from __future__ import annotations

import dataclasses
from typing import Iterator, List, Optional

from .bpf import BpfProgram, HookType, assemble, get_hook
from .bpf.maps import MapEnvironment
from .core import CompilationResult, K2Compiler, OptimizationGoal
from .equivalence import EquivalenceOptions
from .synthesis import GOALS, SearchOptions, validate_request

__all__ = ["K2Config", "optimize", "submit", "watch", "wait",
           "store_stats", "serve", "load_program", "benchmark_program"]


@dataclasses.dataclass
class K2Config:
    """Every search knob, as one typed value.

    Field names, meanings and defaults mirror the ``k2 optimize`` /
    ``k2 submit`` flags exactly; see ``k2 optimize --help`` for the long
    documentation of each.  The service-only fields (``priority``,
    ``shards``) are ignored by the in-process :func:`optimize` and
    consumed by :func:`submit`.  :meth:`validate` applies the rules a
    :class:`~repro.service.JobSpec` is held to as well
    (:func:`repro.synthesis.validate_request`).
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
        validate_request(self)
        if self.verify_pipeline is not None:
            EquivalenceOptions.from_stages(self.verify_pipeline)

    # ------------------------------------------------------------------ #
    def equivalence_options(self) -> EquivalenceOptions:
        equivalence = EquivalenceOptions.from_stages(self.verify_pipeline) \
            if self.verify_pipeline is not None else EquivalenceOptions()
        if self.conflict_budget is not None:
            equivalence = dataclasses.replace(
                equivalence, max_conflicts=int(self.conflict_budget))
        return equivalence

    def search_options(self) -> SearchOptions:
        """The fully-resolved library options this config denotes."""
        self.validate()
        goal = GOALS[self.goal]
        return SearchOptions(
            goal=goal,
            iterations_per_chain=int(self.iterations),
            num_parameter_settings=int(self.settings),
            top_k=1 if goal == OptimizationGoal.INSTRUCTION_COUNT else 5,
            seed=int(self.seed),
            num_workers=int(self.num_workers),
            executor=self.executor,
            sync_interval=self.sync_interval,
            equivalence=self.equivalence_options(),
            window_mode=bool(self.windowed),
            window_size=int(self.window_size),
            window_overlap=int(self.window_overlap),
            share_cache=bool(self.share_cache),
            share_counterexamples=bool(self.share_counterexamples),
            store_path=self.store)

    def compiler(self) -> K2Compiler:
        return K2Compiler(options=self.search_options())

    def job_spec(self, benchmark: Optional[str] = None,
                 program_text: Optional[str] = None, hook: str = "xdp",
                 sync_interval: Optional[int] = None):
        """The service :class:`~repro.service.jobs.JobSpec` of this config.

        ``sync_interval`` overrides the config's (the service default is a
        finite 250 — the daemon checkpoints at generation boundaries, so
        unbounded generations would make crashes expensive).
        """
        from .service import JobSpec

        self.validate()
        if sync_interval is None:
            sync_interval = self.sync_interval \
                if self.sync_interval is not None else 250
        return JobSpec(
            benchmark=benchmark, program_text=program_text, hook=hook,
            goal=self.goal, iterations=int(self.iterations),
            settings=int(self.settings), seed=int(self.seed),
            sync_interval=sync_interval,
            num_workers=int(self.num_workers), executor=self.executor,
            windowed=bool(self.windowed),
            window_size=int(self.window_size),
            window_overlap=int(self.window_overlap),
            conflict_budget=self.conflict_budget,
            priority=int(self.priority), shards=int(self.shards),
            share_cache=bool(self.share_cache),
            share_counterexamples=bool(self.share_counterexamples))


# --------------------------------------------------------------------------- #
# Program loading
# --------------------------------------------------------------------------- #
def load_program(path: str, hook: str = "xdp") -> BpfProgram:
    """A :class:`BpfProgram` from a ``.s`` assembly file."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    return BpfProgram(instructions=assemble(text),
                      hook=get_hook(HookType(hook)),
                      maps=MapEnvironment(), name=path)


def benchmark_program(name: str) -> BpfProgram:
    """A corpus benchmark's program (see ``k2 corpus`` for names)."""
    from .corpus import get_benchmark

    return get_benchmark(name).program()


# --------------------------------------------------------------------------- #
# Verbs
# --------------------------------------------------------------------------- #
def optimize(program: BpfProgram, config: Optional[K2Config] = None,
             settings: Optional[List] = None) -> CompilationResult:
    """Optimize ``program`` in-process; the facade's ``k2 optimize``."""
    return (config or K2Config()).compiler().optimize(program,
                                                      settings=settings)


def submit(config: Optional[K2Config] = None, *,
           benchmark: Optional[str] = None,
           program_text: Optional[str] = None, hook: str = "xdp",
           sync_interval: Optional[int] = None,
           state: str = ".k2d") -> str:
    """Submit a job to the daemon at ``state``; returns the job id."""
    from .service import DaemonClient

    spec = (config or K2Config()).job_spec(
        benchmark=benchmark, program_text=program_text, hook=hook,
        sync_interval=sync_interval)
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
