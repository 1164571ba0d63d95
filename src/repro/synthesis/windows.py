"""Windowed segment synthesis: scaling the search to long programs.

Whole-program stochastic search degrades superlinearly with program length:
the proposal distribution spreads over every instruction, so the expected
time to visit any particular optimization site grows with the program, and
every solver query pays full-program encoding cost.  K2 localizes both
costs with windows (paper §5 IV); this module applies the same idea to the
*search itself*:

1. **Plan** — slice the source into overlapping candidate windows
   (:func:`plan_windows`) using the CFG and liveness passes of
   :mod:`repro.bpf.cfg` / :mod:`repro.bpf.liveness` and one walk of the
   fused analysis (:func:`repro.analysis.states_before`).  Each
   :class:`SegmentWindow` carries its computed interface: live-in/live-out
   registers, the live stack bytes observable after the window, the basic
   blocks it spans and whether it contains helper calls.
2. **Search** — run the existing MCMC chains *per window* through the
   parallel :class:`~repro.synthesis.parallel.ChainController`, with
   proposals restricted to the window span and operand pools harvested from
   the window body (window-local pools).  Candidates are still verified as
   full programs by each chain's tiered pipeline, so every adopted rewrite
   is formally equivalent to the program it rewrote.
3. **Stitch** — adopt each window's best verified rewrite into the working
   program (candidates keep their NOP padding, so instruction indices stay
   stable across windows) and hand the next window the stitched result;
   two adjacent windows that both changed therefore compose by
   construction.  One master equivalence cache is threaded through every
   window's controller: all search bases are formally equivalent to the
   original source, so cached verdicts transfer soundly between windows.
4. **Re-verify** — compact the NOPs out of the final stitched program and
   prove it equivalent to the *original* source through a fresh full tiered
   verification pipeline before it is ever reported as a candidate.  If the
   proof does not conclude, the scheduler falls back to the source program.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Dict, FrozenSet, List, Optional, Tuple

from ..analysis import AbstractAnalyzer, states_before
from ..bpf.cfg import build_cfg
from ..bpf.liveness import compute_liveness
from ..bpf.program import BpfProgram
from ..bpf.transforms import remove_nops
from ..equivalence import EquivalenceCache
from ..equivalence.window import live_stack_offsets
from ..perf.latency_model import DEFAULT_LATENCY_MODEL
from ..store import VerdictStore
from ..verification import PipelineStats, VerificationPipeline
from .cost import performance_cost
from .mcmc import ChainResult, VerifiedCandidate
from .params import ParameterSetting, all_parameter_settings
from .parallel import ChainController

__all__ = ["SegmentWindow", "WindowStats", "WindowedScheduler",
           "plan_windows", "split_budget"]


@dataclasses.dataclass(frozen=True)
class SegmentWindow:
    """One candidate window ``[start, end)`` with its computed interface."""

    start: int
    end: int
    #: Registers live into the window (the window precondition).
    live_in: FrozenSet[int]
    #: Registers live out of the window (the window postcondition).
    live_out: FrozenSet[int]
    #: Indices of the basic blocks the window intersects, in order.
    blocks: Tuple[int, ...]
    #: The window body contains at least one helper call.
    contains_call: bool
    #: Stack byte offsets that may be read after the window (``None`` when a
    #: post-window stack read could not be bounded — every byte observable).
    live_stack_out: Optional[FrozenSet[int]]

    def __len__(self) -> int:
        return self.end - self.start

    @property
    def span(self) -> Tuple[int, int]:
        return (self.start, self.end)

    @property
    def spans_blocks(self) -> bool:
        """True when the window crosses at least one basic-block boundary."""
        return len(self.blocks) > 1


@dataclasses.dataclass
class WindowStats:
    """What the scheduler did with one window (CLI / bench reporting)."""

    index: int
    start: int
    end: int
    spans_blocks: bool
    contains_call: bool
    iterations: int = 0
    verified_candidates: int = 0
    adopted: bool = False
    #: Best candidate's performance cost relative to the window's search
    #: base (negative = improvement); 0.0 when nothing was adopted.
    perf_gain: float = 0.0
    #: Real (non-NOP) instructions removed by the adopted rewrite.  Clamped
    #: at zero: a latency-goal adoption may trade instruction count for
    #: estimated latency (``perf_gain`` carries the true improvement).
    insns_removed: int = 0

    def as_dict(self) -> Dict[str, float]:
        return dataclasses.asdict(self)


def plan_windows(program: BpfProgram, window_size: int = 24,
                 overlap: int = 8) -> List[SegmentWindow]:
    """Slice ``program`` into overlapping windows with computed interfaces.

    Windows are ``window_size`` instructions long (the last one may be
    shorter), consecutive windows share ``overlap`` instructions, and every
    instruction is covered by at least one window.  Unlike the solver-side
    :func:`repro.equivalence.window.select_windows`, planning windows may
    span basic-block boundaries and contain helper calls — the per-window
    search verifies candidates as full programs, so the window body is not
    restricted to straight-line code.
    """
    if window_size < 2:
        raise ValueError("window_size must be at least 2")
    if not 0 <= overlap < window_size:
        raise ValueError("overlap must satisfy 0 <= overlap < window_size")
    instructions = program.instructions
    n = len(instructions)
    if n == 0:
        return []
    cfg = build_cfg(instructions)
    liveness = compute_liveness(instructions, cfg)
    states = states_before(instructions, program.hook)
    stride = window_size - overlap

    windows: List[SegmentWindow] = []
    start = 0
    while start < n:
        end = min(start + window_size, n)
        block_indices = sorted({cfg.block_of_insn[i] for i in range(start, end)})
        live_stack = live_stack_offsets(instructions, states, end)
        windows.append(SegmentWindow(
            start=start,
            end=end,
            live_in=liveness.live_in_at(start),
            live_out=liveness.live_out_at(end - 1),
            blocks=tuple(block_indices),
            contains_call=any(instructions[i].is_call
                              for i in range(start, end)),
            live_stack_out=None if live_stack is None
            else frozenset(live_stack)))
        if end >= n:
            break
        start += stride
    return windows


def split_budget(iterations: int, num_windows: int) -> List[int]:
    """Split one chain's iteration budget evenly across the windows.

    The windowed and whole-program searches spend the *same* total number
    of proposals per chain — the fairness basis of the windowed bench.
    Remainder iterations go to the earliest windows; with fewer iterations
    than windows, trailing windows receive zero and are skipped.
    """
    if num_windows <= 0:
        return []
    base, remainder = divmod(max(iterations, 0), num_windows)
    return [base + (1 if index < remainder else 0)
            for index in range(num_windows)]


class WindowedScheduler:
    """Per-window MCMC search with stitching and full re-verification."""

    def __init__(self, options, kernel_checker=None):
        self.options = options
        # Lazily constructed only for the post-processing filter, mirroring
        # Synthesizer; the caller usually hands its own checker over.
        self.kernel_checker = kernel_checker

    # ------------------------------------------------------------------ #
    def optimize(self, source: BpfProgram,
                 settings: Optional[List[ParameterSetting]] = None):
        from .search import SearchResult  # circular at import time
        from ..verifier import KernelChecker

        options = self.options
        started = time.perf_counter()
        source.validate()
        if settings is None:
            settings = all_parameter_settings(options.goal)[
                :options.num_parameter_settings]
        if self.kernel_checker is None:
            self.kernel_checker = KernelChecker()

        plan = plan_windows(source, options.window_size,
                            options.window_overlap)
        budgets = split_budget(options.iterations_per_chain, len(plan))

        current = source
        # One durable store shared by every window's controller: each
        # controller preseeds from it (keyed on its own search base) and
        # flushes its discoveries back, so the file is read once per window
        # base, written by one controller at a time, and a re-run warm-starts
        # every window.
        store = VerdictStore(options.store_path) \
            if options.store_path else None
        store_stats: Optional[Dict[str, object]] = None
        master_cache = EquivalenceCache()
        #: Distinct counterexamples discovered by any window, replayed into
        #: every later window's controller (valid for every search base:
        #: all bases are equivalent to the source).
        master_pool: List = []
        master_pool_keys: set = set()
        chain_results: List[ChainResult] = []
        window_stats: List[WindowStats] = []
        verification: Dict[str, Dict[str, float]] = {}
        rejected = 0
        num_generations = 0
        executor_used = "serial"

        for index, (window, budget) in enumerate(zip(plan, budgets)):
            stats = WindowStats(index=index, start=window.start,
                                end=window.end,
                                spans_blocks=window.spans_blocks,
                                contains_call=window.contains_call)
            window_stats.append(stats)
            if budget <= 0:
                continue
            # Each window gets its own checkpoint sub-key: a restarted
            # windowed job re-runs completed windows cold (bit-identical —
            # the shared store replays their verdicts) and resumes the
            # window that was in flight from its last generation.
            base_key = options.checkpoint_key
            # The caller's progress listener sees every window's generations
            # tagged with the window index/span, so a streaming consumer
            # (the serve daemon's watch events) can attribute progress.
            listener = options.progress_listener
            if listener is not None:
                def window_listener(info, _listener=listener, _index=index,
                                    _span=window.span):
                    _listener(dict(info, window=_index,
                                   window_span=list(_span)))
            else:
                window_listener = None
            window_options = dataclasses.replace(
                options, iterations_per_chain=budget, window_mode=False,
                progress_listener=window_listener,
                checkpoint_key=f"{base_key}/w{index}" if base_key else None)
            controller = ChainController(current, settings, window_options,
                                         proposal_region=window.span,
                                         keep_nops=True,
                                         collect_all_counterexamples=True,
                                         store=store)
            controller.preseed_cache(master_cache.export_entries())
            controller.preseed_counterexamples(master_pool)
            results = controller.run()
            if controller.store_summary is not None:
                if store_stats is None:
                    store_stats = dict(controller.store_summary)
                else:
                    for field, value in controller.store_summary.items():
                        if isinstance(value, int):
                            store_stats[field] += value
            master_cache.merge(controller.shared_cache, include_counters=True)
            for test in controller.pool_entries():
                key = test.freeze_key()
                if key not in master_pool_keys:
                    master_pool_keys.add(key)
                    master_pool.append(test)
            chain_results.extend(results)
            num_generations += controller.num_generations
            executor_used = controller.executor_kind
            for result in results:
                PipelineStats.merge_dicts(verification,
                                          result.statistics.verification)
                stats.iterations += result.statistics.iterations
                stats.verified_candidates += \
                    result.statistics.verified_candidates

            best, newly_rejected = self._best_candidate(results)
            rejected += newly_rejected
            if best is not None and best.perf_cost < 0:
                stats.adopted = True
                stats.perf_gain = best.perf_cost
                stats.insns_removed = max(
                    current.num_real_instructions
                    - best.program.num_real_instructions, 0)
                # Candidates keep their NOP padding (keep_nops=True), so
                # the adopted program has the same length as the source and
                # later windows' spans remain valid.
                current = best.program

        stitched = current.with_instructions(
            remove_nops(current.instructions))
        best_candidate, stitch_verified, kernel_rejected = self._finalize(
            source, stitched, settings, verification,
            total_iterations=sum(r.statistics.iterations
                                 for r in chain_results),
            elapsed=time.perf_counter() - started)
        rejected += kernel_rejected

        return SearchResult(
            source=source,
            best=best_candidate,
            top_candidates=[best_candidate] if best_candidate else [],
            chain_results=chain_results,
            settings_used=settings,
            elapsed_seconds=time.perf_counter() - started,
            rejected_by_kernel_checker=rejected,
            cache_stats=master_cache.stats(),
            counterexamples_shared=len(master_pool),
            num_generations=num_generations,
            executor_used=executor_used,
            verification_stats=verification,
            window_stats=window_stats,
            stitch_verified=stitch_verified,
            store_stats=store_stats)

    # ------------------------------------------------------------------ #
    def _best_candidate(self, results: List[ChainResult]
                        ) -> Tuple[Optional[VerifiedCandidate], int]:
        """Best kernel-checker-accepted candidate across one window's chains.

        Only the best candidate is ever adopted, so the (path-sensitive,
        expensive) kernel-checker filter scans the perf-sorted list and
        stops at the first accepted candidate instead of analysing all of
        them the way ``Synthesizer`` must for its top-k output.
        """
        candidates = [candidate
                      for result in results
                      for candidate in result.candidates]
        candidates.sort(key=lambda c: (c.perf_cost, c.instruction_count))
        rejected = 0
        for candidate in candidates:
            if self.kernel_checker.load(candidate.program).accepted:
                return candidate, rejected
            rejected += 1
        return None, rejected

    # ------------------------------------------------------------------ #
    def _finalize(self, source: BpfProgram, stitched: BpfProgram,
                  settings: List[ParameterSetting],
                  verification: Dict[str, Dict[str, float]],
                  total_iterations: int, elapsed: float
                  ) -> Tuple[Optional[VerifiedCandidate], Optional[bool], int]:
        """Re-verify the stitched program against the original source.

        Every adopted rewrite was already proven equivalent to the program
        it rewrote, so equivalence to the source holds transitively — but
        the stitched program is only ever *reported* after the full tiered
        pipeline has proven it directly against the source (with a fresh
        cache, so the verdict is a proof, not a lookup).  An inconclusive
        proof or a kernel-checker rejection falls back to the source.
        """
        options = self.options
        if stitched.same_instructions(source):
            return None, None, 0

        pipeline = VerificationPipeline(options=options.equivalence,
                                        analyzer=AbstractAnalyzer())
        outcome = pipeline.verify(source, stitched)
        PipelineStats.merge_dicts(verification, pipeline.stats.as_dict())
        if not outcome.result.equivalent:
            return None, False, 0
        # The proof concluded: stitch_verified stays True even when the
        # kernel-checker filter rejects the program afterwards (a distinct
        # outcome, reported separately via rejected_by_kernel_checker).
        if not self.kernel_checker.load(stitched).accepted:
            return None, True, 1

        cost_settings = settings[0].cost if settings else None
        perf = performance_cost(source, stitched, cost_settings) \
            if cost_settings is not None else float(
                stitched.num_real_instructions
                - source.num_real_instructions)
        return VerifiedCandidate(
            program=stitched,
            perf_cost=perf,
            instruction_count=stitched.num_real_instructions,
            estimated_latency=DEFAULT_LATENCY_MODEL.program_cost(stitched),
            found_at_iteration=total_iterations,
            found_at_seconds=elapsed), True, 0
