"""Multi-chain search orchestration (paper §8 "how K2 is set up").

K2 launches several Markov chains, one per parameter setting of Table 8,
and returns the top-k best safe, formally-equivalent programs found across
all of them.  The chains run as independent, seeded work units dispatched
over a :mod:`concurrent.futures` executor by the
:class:`~repro.synthesis.parallel.ChainController` — a process pool when
``num_workers > 1``, a deterministic in-process serial executor otherwise —
and share discoveries through a cross-chain equivalence cache and a
counterexample pool (see :mod:`repro.synthesis.parallel` for the
determinism model).  Each chain is bounded by an iteration count instead of
a timeout so results are reproducible.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Callable, Dict, List, Optional

from ..bpf.program import BpfProgram
from ..equivalence import EquivalenceOptions
from ..verification import PipelineStats
from ..verifier import KernelChecker
from .cost import PerformanceGoal
from .mcmc import ChainResult, VerifiedCandidate
from .params import ParameterSetting, all_parameter_settings
from .parallel import ChainController

__all__ = ["GOALS", "SearchOptions", "SearchResult", "Synthesizer",
           "assemble_search_result", "deduplicate_candidates"]

#: The ``goal`` names of the front ends (``K2Config`` and the CLI's
#: ``--goal``), mapped to the goal a search optimizes.
GOALS = {"size": PerformanceGoal.INSTRUCTION_COUNT,
         "latency": PerformanceGoal.LATENCY}


@dataclasses.dataclass
class SearchOptions:
    """Knobs for one synthesis run."""

    goal: PerformanceGoal = PerformanceGoal.INSTRUCTION_COUNT
    iterations_per_chain: int = 2000
    num_parameter_settings: int = 4
    top_k: int = 1
    seed: int = 0
    equivalence: EquivalenceOptions = dataclasses.field(
        default_factory=EquivalenceOptions)
    #: Worker processes to dispatch chains over.  ``1`` keeps the search
    #: in-process (serial executor) and fully sequential.
    num_workers: int = 1
    #: Executor backend: ``auto`` (process pool when ``num_workers > 1``,
    #: serial otherwise), ``serial`` or ``process``.
    executor: str = "auto"
    #: Iterations per generation between cross-chain synchronisation points.
    #: ``None`` (or any non-positive value) runs each chain to completion in
    #: a single generation (no mid-run sharing — the original sequential
    #: behaviour).
    sync_interval: Optional[int] = None
    #: Share equivalence-cache entries across chains at generation boundaries.
    share_cache: bool = True
    #: Share discovered counterexamples across chains at generation boundaries.
    share_counterexamples: bool = True
    #: Windowed segment synthesis (the CLI's ``--windowed``): slice the
    #: source into overlapping windows (:mod:`repro.synthesis.windows`), run
    #: the chains per window with window-local proposals, stitch the best
    #: rewrites and re-verify the stitched program through the full tiered
    #: pipeline.  Programs no longer than ``window_size`` fall back to the
    #: whole-program search.
    window_mode: bool = False
    #: Instructions per candidate window.
    window_size: int = 24
    #: Instructions shared by two consecutive windows.
    window_overlap: int = 8
    #: Path of the durable cross-run verdict store (the CLI's ``--store``).
    #: ``None`` keeps the run fully in-memory.  With a store the controller
    #: preseeds the shared cache from disk before the first generation and
    #: flushes fresh verdicts back at every generation boundary; stored
    #: verdicts replay exactly what the solver would recompute, so warm
    #: starts are bit-identical to cold and store-less runs.
    store_path: Optional[str] = None
    #: Stable identifier for checkpointed, resumable searches (requires
    #: ``store_path``): the controller persists its full state to the store
    #: under this key after every generation, and a later run with the same
    #: key, source and options resumes bit-identically from the last
    #: completed generation.  ``None`` disables checkpointing.  Windowed
    #: runs derive one sub-key per window (``<key>/w<index>``).
    checkpoint_key: Optional[str] = None
    #: Called after each generation boundary (checkpoint already written)
    #: as ``hook(completed, total)``; returning ``False`` interrupts the
    #: search with :class:`~repro.synthesis.parallel.SearchInterrupted` at
    #: that resumable point.  The serve daemon uses this for progress
    #: reporting, cancellation and graceful shutdown.  Never shipped to
    #: workers (the controller calls it in-process), so it need not pickle.
    generation_hook: Optional[Callable[[int, int], Optional[bool]]] = None
    #: Called after each generation boundary with a progress payload
    #: (``{"completed", "total", "checkpoint", "chains": [...]}`` — see
    #: :meth:`~repro.synthesis.parallel.ChainController._notify_generation`)
    #: *before* ``generation_hook``.  Purely observational: its return value
    #: is ignored and it can never perturb the search.  The serve daemon
    #: uses it to push streaming ``watch`` events.  Like the hook it runs
    #: in-process only and need not pickle.
    progress_listener: Optional[Callable[[Dict], None]] = None
    #: Global index of this run's first chain.  A sharded job slices its
    #: parameter settings into contiguous shards and runs each slice in its
    #: own controller; the offset keeps every chain's seeds derived from its
    #: *global* index, so shard-local chain ``i`` is bit-identical to chain
    #: ``offset + i`` of the unsharded run (see ``repro.service.shards``).
    chain_index_offset: int = 0
    #: Generations re-dispatched after a dying process-pool worker before
    #: the failure is propagated (process executor only; serial failures
    #: are never retried — their units share the parent's chains).
    max_worker_retries: int = 3
    #: Base of the exponential backoff between pool rebuilds.
    worker_retry_backoff_seconds: float = 0.05


@dataclasses.dataclass
class SearchResult:
    """Everything a caller (or a benchmark table) needs about one run."""

    source: BpfProgram
    best: Optional[VerifiedCandidate]
    top_candidates: List[VerifiedCandidate]
    chain_results: List[ChainResult]
    settings_used: List[ParameterSetting]
    elapsed_seconds: float
    rejected_by_kernel_checker: int = 0
    #: Aggregate equivalence-cache statistics across every chain, with
    #: hits/misses accumulated coherently through the merge path.
    cache_stats: Dict[str, float] = dataclasses.field(default_factory=dict)
    #: Distinct counterexamples that entered the cross-chain pool.
    counterexamples_shared: int = 0
    #: Generations the controller ran (1 unless ``sync_interval`` was set).
    num_generations: int = 1
    #: Concrete executor backend the controller used.
    executor_used: str = "serial"
    #: Per-stage verification-pipeline counters summed over every chain:
    #: ``{stage: {attempts, accepts, rejects, escalations, seconds}}``
    #: plus a ``_pipeline`` bucket with ``queries``/``inconclusive``.
    verification_stats: Dict[str, Dict[str, float]] = dataclasses.field(
        default_factory=dict)
    #: Per-window scheduling statistics (windowed runs only, in window
    #: order); see :class:`repro.synthesis.windows.WindowStats`.
    window_stats: List = dataclasses.field(default_factory=list)
    #: Whether the stitched program was re-proven equivalent to the source
    #: by the full tiered pipeline (``None`` for whole-program runs and for
    #: windowed runs whose stitch equals the source).  A verified stitch can
    #: still be withheld by the kernel-checker filter, in which case
    #: ``best`` is None and ``rejected_by_kernel_checker`` records it.
    stitch_verified: Optional[bool] = None
    #: Durable verdict-store accounting (``None`` when no store was used):
    #: path plus preseeded and flushed verdict counts and flushed record
    #: counts.
    store_stats: Optional[Dict[str, object]] = None

    @property
    def best_program(self) -> BpfProgram:
        return self.best.program if self.best else self.source

    @property
    def compression(self) -> float:
        """Fractional reduction in instruction count vs. the source program.

        Robust to degenerate runs: a source with no real instructions (all
        NOPs) or a best candidate no smaller than the source yields ``0.0``
        instead of dividing by zero / going negative.
        """
        if not self.best:
            return 0.0
        original = self.source.num_real_instructions
        if original <= 0:
            return 0.0
        return max(original - self.best.instruction_count, 0) / original

    @property
    def per_chain_seconds(self) -> List[float]:
        """Wall clock spent inside each chain, in settings order."""
        return [result.statistics.elapsed_seconds
                for result in self.chain_results]

    def total_iterations(self) -> int:
        return sum(result.statistics.iterations for result in self.chain_results)

    @property
    def worker_retries(self) -> int:
        """Generations re-dispatched after a worker death, over all chains."""
        return sum(result.statistics.worker_retries
                   for result in self.chain_results)


def deduplicate_candidates(candidates: List[VerifiedCandidate]
                           ) -> List[VerifiedCandidate]:
    """Drop structurally-identical candidates, keeping the first of each."""
    seen = set()
    unique = []
    for candidate in candidates:
        key = candidate.program.structural_key()
        if key in seen:
            continue
        seen.add(key)
        unique.append(candidate)
    return unique


def assemble_search_result(source: BpfProgram,
                           chain_results: List[ChainResult],
                           settings: List[ParameterSetting],
                           options: SearchOptions,
                           kernel_checker: Optional[KernelChecker] = None,
                           *,
                           elapsed_seconds: float = 0.0,
                           cache_stats: Optional[Dict[str, float]] = None,
                           counterexamples_shared: int = 0,
                           num_generations: int = 1,
                           executor_used: str = "serial",
                           store_stats: Optional[Dict[str, object]] = None
                           ) -> SearchResult:
    """Post-process raw chain results into a :class:`SearchResult`.

    This is the single assembly path for whole-program runs *and* for the
    shard-merge path in :mod:`repro.service.shards`: candidates are sorted
    by ``(perf_cost, instruction_count)``, filtered through the
    kernel-checker model, deduplicated structurally and cut to ``top_k`` —
    all deterministic given ``chain_results`` in chain-index order, which
    is what makes a merged sharded run bit-identical to an unsharded one.
    """
    candidates = [candidate
                  for result in chain_results
                  for candidate in result.candidates]
    candidates.sort(key=lambda c: (c.perf_cost, c.instruction_count))

    if kernel_checker is None:
        kernel_checker = KernelChecker()
    accepted = [candidate for candidate in candidates
                if kernel_checker.load(candidate.program).accepted]
    rejected = len(candidates) - len(accepted)

    verification: Dict[str, Dict[str, float]] = {}
    for result in chain_results:
        PipelineStats.merge_dicts(verification,
                                  result.statistics.verification)

    top = deduplicate_candidates(accepted)[:max(options.top_k, 1)]
    return SearchResult(
        source=source,
        best=top[0] if top else None,
        top_candidates=top,
        chain_results=chain_results,
        settings_used=settings,
        elapsed_seconds=elapsed_seconds,
        rejected_by_kernel_checker=rejected,
        cache_stats=dict(cache_stats or {}),
        counterexamples_shared=counterexamples_shared,
        num_generations=num_generations,
        executor_used=executor_used,
        verification_stats=verification,
        store_stats=store_stats)


class Synthesizer:
    """Run the full K2 search: several chains plus kernel-checker filtering."""

    def __init__(self, options: Optional[SearchOptions] = None):
        self.options = options or SearchOptions()
        self.kernel_checker = KernelChecker()

    # ------------------------------------------------------------------ #
    def optimize(self, source: BpfProgram,
                 settings: Optional[List[ParameterSetting]] = None
                 ) -> SearchResult:
        options = self.options
        if options.window_mode \
                and len(source.instructions) > options.window_size:
            from .windows import WindowedScheduler

            scheduler = WindowedScheduler(options,
                                          kernel_checker=self.kernel_checker)
            return scheduler.optimize(source, settings=settings)
        started = time.perf_counter()
        if settings is None:
            settings = all_parameter_settings(options.goal)[
                :options.num_parameter_settings]

        controller = ChainController(source, settings, options)
        chain_results = controller.run()

        return assemble_search_result(
            source, chain_results, settings, options, self.kernel_checker,
            elapsed_seconds=time.perf_counter() - started,
            cache_stats=controller.shared_cache.stats(),
            counterexamples_shared=controller.counterexamples_shared,
            num_generations=controller.num_generations,
            executor_used=controller.executor_kind,
            store_stats=controller.store_summary)
