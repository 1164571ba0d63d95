"""Parallel multi-chain synthesis: controller/worker orchestration.

The paper launches one Markov chain per Table 8 parameter setting and
attributes most of its wall-clock savings to pruning solver calls via
caching (§5, Table 6).  This module runs those chains as independent,
seeded work units dispatched over a :mod:`concurrent.futures` executor
(:mod:`repro.synthesis.executors`), while letting the chains share
discoveries through two channels:

* a cross-chain :class:`~repro.equivalence.EquivalenceCache` keyed on
  canonicalized programs — each worker cache is merged back into the
  controller between generations, so a verdict computed by one chain
  prunes solver calls in every other chain;
* a counterexample pool — a test case found by one chain (from the
  equivalence checker or the safety checker) is added to every other
  chain's test suite, pruning non-equivalent candidates without any
  solver involvement.

Determinism
-----------
Sharing happens only at *generation* boundaries: each chain's iteration
budget is split into chunks of ``SearchOptions.sync_interval`` proposals,
and all shared state (cache entries, counterexample pool) is snapshotted
once per generation, *before* any chain of that generation is dispatched.
Every chain in a generation therefore sees the same snapshot, which makes
the computation independent of dispatch order and executor backend: a
process-pool run produces exactly the same candidates and statistics as a
serial run (only wall-clock fields differ).  With the default single
generation (``sync_interval=None``) the initial snapshot is empty and each
chain behaves exactly like the original sequential engine.

Chains are shipped to workers whole (a :class:`MarkovChain` pickles,
including its RNG, test suite and cache) and shipped back mutated, so
state carries across generations with no separate bookkeeping.

Durable warm start
------------------
With ``SearchOptions.store_path`` set the controller opens a
:class:`~repro.store.VerdictStore` and becomes its single writer: verdicts,
counterexamples and analyzer memos persisted by earlier runs are preseeded
into the shared state before the first generation, and each generation's
fresh discoveries are flushed back after its merge.  Workers never touch the
store — they receive preseeds through the same delta channels used for
cross-chain sharing and buffer their discoveries in their own caches/memos,
which keeps the multi-process path single-writer by construction.  Preseeded
cache entries replay exactly the verdict (and counterexample) the solver
would recompute, and preseeded analyzer memos replay exactly the analysis
outcome, so a warm-started search walks a bit-identical trajectory to a cold
one — only faster.  Preseeding stored counterexamples into the chains' test
suites *does* legitimately perturb the trajectory (suite contents feed the
error cost), so it is opt-in via
``SearchOptions.store_preseed_counterexamples``.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import dataclasses
import time
from typing import Dict, List, Optional, Tuple

from ..analysis.analyzer import AnalysisOutcome
from ..bpf.program import BpfProgram
from ..engine import ExecutionEngine
from ..equivalence import EquivalenceCache
from ..equivalence.checker import EquivalenceResult
from ..interpreter import ProgramInput
from ..store import VerdictStore
from ..verification import VerificationPipeline
from .checkpoint import (
    apply_chain_state, build_controller_payload, decode_controller_payload,
)
from .executors import create_executor, resolve_executor_kind
from .mcmc import ChainResult, MarkovChain
from .params import ParameterSetting
from .testcases import TestSuite

__all__ = ["ChainWorkUnit", "ChainWorkUnitResult", "run_chain_generation",
           "ChainController", "SearchInterrupted"]


class SearchInterrupted(RuntimeError):
    """A generation hook stopped the search at a generation boundary.

    Raised *after* the boundary's store flush and checkpoint write, so the
    interrupted run is exactly as resumable as a killed one: re-running the
    same search with the same ``checkpoint_key`` picks up at the next
    generation.  The daemon's cancel and graceful-shutdown paths rely on
    this.
    """


@dataclasses.dataclass
class ChainWorkUnit:
    """One generation of one chain, self-contained and picklable."""

    chain_index: int
    chain: MarkovChain
    iterations: int
    shared_cache_entries: Dict[Tuple, EquivalenceResult]
    shared_counterexamples: List[ProgramInput]
    #: Analyzer program-memo entries to seed into the worker's analyzer
    #: (store preseeds plus sibling discoveries; delta since last sync).
    shared_analysis_entries: Dict[Tuple, AnalysisOutcome] = \
        dataclasses.field(default_factory=dict)
    #: Cache keys whose entries came from the durable store — tagged on the
    #: worker cache so its hits count as cross-run (``store_hits``).
    store_keys: frozenset = frozenset()
    #: Ship the analyzer's program memo back with the result (set when the
    #: controller persists memos to a store).
    export_analysis: bool = False


@dataclasses.dataclass
class ChainWorkUnitResult:
    """What a worker sends back: the mutated chain plus its cumulative result."""

    chain_index: int
    chain: MarkovChain
    result: ChainResult
    #: The worker analyzer's program memo (content key → outcome), exported
    #: when the unit asked for it; empty otherwise.
    analysis_entries: Dict[Tuple, AnalysisOutcome] = \
        dataclasses.field(default_factory=dict)


#: Test-only fault injection: when set, called with the unit at the top of
#: every worker execution.  Forked pool workers inherit the parent's module
#: state, so the crash-injection tests install a hook here that SIGKILLs
#: the first worker to claim a marker file.
_FAULT_HOOK = None


def run_chain_generation(unit: ChainWorkUnit) -> ChainWorkUnitResult:
    """Execute one work unit (module-level so process pools can import it)."""
    if _FAULT_HOOK is not None:
        _FAULT_HOOK(unit)
    chain = unit.chain
    if unit.shared_cache_entries and chain.pipeline.options.enable_cache:
        chain.pipeline.cache.seed(unit.shared_cache_entries, foreign=True)
    if unit.store_keys and chain.pipeline.options.enable_cache:
        chain.pipeline.cache.mark_store_origin(unit.store_keys)
    if unit.shared_counterexamples:
        chain.receive_counterexamples(unit.shared_counterexamples)
    analyzer = chain.safety.analyzer
    if unit.shared_analysis_entries:
        analyzer.seed_program_memo(unit.shared_analysis_entries)
    result = chain.run(unit.iterations)
    analysis_entries = {}
    if unit.export_analysis:
        analysis_entries = analyzer.export_program_memo()
    return ChainWorkUnitResult(chain_index=unit.chain_index, chain=chain,
                               result=result,
                               analysis_entries=analysis_entries)


class ChainController:
    """Fans chain generations out to an executor and aggregates shared state.

    After :meth:`run` returns, ``shared_cache`` holds the union of every
    chain's cache entries with coherent aggregate counters (hits/misses
    accumulated across chains via :meth:`EquivalenceCache.merge`), and
    ``counterexamples_shared`` counts the distinct tests that entered the
    cross-chain pool.
    """

    def __init__(self, source: BpfProgram, settings: List[ParameterSetting],
                 options, proposal_region: Optional[Tuple[int, int]] = None,
                 keep_nops: bool = False,
                 collect_all_counterexamples: bool = False,
                 store: Optional[VerdictStore] = None):
        self.source = source
        self.settings = settings
        self.options = options
        #: Restrict every chain's proposals to one instruction span and keep
        #: candidates NOP-padded at full length (windowed segment synthesis;
        #: see :mod:`repro.synthesis.windows`).
        self.proposal_region = proposal_region
        self.keep_nops = keep_nops
        #: Collect discovered counterexamples into the pool even when they
        #: can no longer be delivered to a sibling chain (final generation,
        #: single chain) — the windowed scheduler harvests the pool and
        #: replays it into the *next* window's controller.
        self.collect_all_counterexamples = collect_all_counterexamples
        self.executor_kind = resolve_executor_kind(
            options.executor, options.num_workers)
        self.shared_cache = EquivalenceCache()
        self.num_generations = 0
        #: (origin chain index, test) for every distinct shared counterexample.
        self._pool: List[Tuple[int, ProgramInput]] = []
        self._pool_keys: set = set()
        #: Append-only log of shared cache entries, so each chain can be sent
        #: only the delta since its last sync instead of the full snapshot.
        self._cache_log: List[Tuple[Tuple, EquivalenceResult]] = []
        self._cache_watermarks: List[int] = []
        self._pool_watermarks: List[int] = []
        #: Append-only log of analyzer program-memo entries, delta-shipped to
        #: workers like the cache log (their analyzers restart cold every
        #: process-pool generation: pickling ships configuration only).
        self._analysis_log: List[Tuple[Tuple, AnalysisOutcome]] = []
        self._analysis_seen: set = set()
        self._analysis_watermarks: List[int] = []
        #: Durable cross-run store; the controller is its single writer.
        #: An explicit instance wins (the windowed scheduler shares one
        #: across its per-window controllers); otherwise built from
        #: ``options.store_path``.
        if store is None and options.store_path:
            store = VerdictStore(options.store_path)
        self.store = store
        #: Canonical keys preseeded from the store this run (first-dispatch
        #: tagging of worker caches for cross-run hit accounting).
        self._store_keys: frozenset = frozenset()
        #: How far into each log the store already reflects (preseeds are
        #: placed behind these marks so they are never re-recorded).
        self._store_flush_cache_mark = 0
        self._store_flush_pool_mark = 0
        self._store_flush_analysis_mark = 0
        self.store_summary: Optional[Dict[str, object]] = None
        if self.store is not None:
            self.store_summary = {
                "path": self.store.path,
                "preseeded_verdicts": 0, "preseeded_counterexamples": 0,
                "preseeded_analysis": 0, "flushed_verdicts": 0,
                "flushed_counterexamples": 0, "flushed_analysis": 0,
                "flushed_records": 0,
            }

    # ------------------------------------------------------------------ #
    @property
    def counterexamples_shared(self) -> int:
        return len(self._pool)

    # ------------------------------------------------------------------ #
    def pool_entries(self) -> List[ProgramInput]:
        """Every distinct counterexample in the pool, in discovery order."""
        return [test for _, test in self._pool]

    def preseed_counterexamples(self, tests: List[ProgramInput]) -> int:
        """Seed the pool before :meth:`run` (cross-window reuse).

        Seeded tests carry origin ``-1``, so the delta path delivers them
        to *every* chain with its first generation.  Distinguishing inputs
        are valid for any window's search base (all bases are equivalent to
        the source), so a counterexample found by one window prunes
        non-equivalent candidates in every later window at the test stage,
        with no solver involvement.  Returns the number adopted.
        """
        inserted = 0
        for test in tests:
            key = test.freeze_key()
            if key in self._pool_keys:
                continue
            self._pool_keys.add(key)
            self._pool.append((-1, test))
            inserted += 1
        return inserted

    def preseed_cache(self, entries: Dict[Tuple, EquivalenceResult]) -> int:
        """Seed the shared cache before :meth:`run` (cross-window reuse).

        The windowed scheduler carries one master cache across its
        per-window searches; every search base is formally equivalent to the
        original source, so "equivalent/non-equivalent to the base" is the
        same predicate for every window and the entries transfer soundly.
        Entries are appended to the delta log, so every chain receives them
        with its first generation.  Returns the number of entries adopted.
        """
        inserted = 0
        for key, value in entries.items():
            if self.shared_cache.seed({key: value}, foreign=True):
                self._cache_log.append((key, value))
                inserted += 1
        return inserted

    # ------------------------------------------------------------------ #
    def run(self) -> List[ChainResult]:
        options = self.options
        generations = self._generation_schedule(options.iterations_per_chain)
        self.num_generations = len(generations)

        start_generation = 0
        chains: Optional[List[MarkovChain]] = None
        resumed = self._try_resume(generations)
        if resumed is not None:
            start_generation, chains = resumed
        else:
            self._preseed_from_store()
            chains = [self._build_chain(index, setting)
                      for index, setting in enumerate(self.settings)]

        # On resume every chain has completed at least one generation, so
        # its cumulative result is reconstructible from the chain itself —
        # which also covers a crash after the final generation's checkpoint
        # but before the run returned.
        results: List[Optional[ChainResult]] = [
            self._result_snapshot(chain) if start_generation > 0 else None
            for chain in chains]
        self._cache_watermarks = [0] * len(chains)
        self._pool_watermarks = [0] * len(chains)
        self._analysis_watermarks = [0] * len(chains)
        export_analysis = self.store is not None

        pool = create_executor(self.executor_kind, options.num_workers)
        try:
            for generation in range(start_generation, len(generations)):
                iterations = generations[generation]
                # Shared state is frozen once per generation, before anything
                # is dispatched: every chain sees the state as of the same
                # point, so results are independent of dispatch order and
                # backend.  Workers retain what they were seeded with, so
                # each chain is sent only the delta since its last sync.
                units = [
                    ChainWorkUnit(
                        chain_index=index,
                        chain=chain,
                        iterations=iterations,
                        shared_cache_entries=self._cache_delta_for(index),
                        shared_counterexamples=self._pool_delta_for(index),
                        shared_analysis_entries=self._analysis_delta_for(index),
                        store_keys=self._store_keys if generation == 0
                        else frozenset(),
                        export_analysis=export_analysis)
                    for index, chain in enumerate(chains)]
                outcomes, pool = self._dispatch_generation(pool, units)
                # Merge deterministically, in chain-index order.  Skip pool
                # collection after the final generation: a counterexample
                # that can never be delivered to a sibling was not shared
                # (unless a harvester — the windowed scheduler or the durable
                # store — wants it anyway).
                last = generation == len(generations) - 1
                for outcome in sorted(outcomes, key=lambda o: o.chain_index):
                    chains[outcome.chain_index] = outcome.chain
                    results[outcome.chain_index] = outcome.result
                    self._absorb(outcome.chain_index, outcome.chain,
                                 collect_counterexamples=not last,
                                 analysis_entries=outcome.analysis_entries)
                self._flush_store()
                self._write_checkpoint(generation, generations, chains)
                self._notify_generation(generation + 1, len(generations),
                                        chains)
        finally:
            pool.shutdown(wait=True)

        self._clear_checkpoint()
        for chain in chains:
            self.shared_cache.merge(chain.cache, include_counters=True)
        return [result for result in results if result is not None]

    # ------------------------------------------------------------------ #
    # Worker supervision (bounded retry on a dying process pool)
    # ------------------------------------------------------------------ #
    def _dispatch_generation(self, pool, units):
        """Run one generation's units; rebuild a broken process pool.

        A SIGKILL'd worker surfaces as :class:`BrokenProcessPool` on every
        future of the generation.  Process workers receive *pickled copies*
        of the chains, so the parent's units are untouched by a partial
        generation — resubmitting them replays the generation from its
        seeded snapshot and the results stay bit-identical to an
        uninterrupted run.  The serial executor shares the parent's chain
        objects (a failed unit may have mutated them), so there the error
        propagates instead of being retried.  Retries
        are bounded with exponential backoff and surfaced via
        ``ChainStatistics.worker_retries``.
        """
        retries = 0
        max_retries = self.options.max_worker_retries
        backoff = self.options.worker_retry_backoff_seconds
        while True:
            try:
                futures = [pool.submit(run_chain_generation, unit)
                           for unit in units]
                outcomes = [future.result() for future in futures]
            except concurrent.futures.BrokenExecutor:
                if self.executor_kind != "process" or retries >= max_retries:
                    raise
                retries += 1
                with contextlib.suppress(Exception):
                    pool.shutdown(wait=False, cancel_futures=True)
                delay = backoff * (2 ** (retries - 1))
                if delay > 0:
                    time.sleep(delay)
                pool = create_executor(self.executor_kind,
                                       self.options.num_workers)
                continue
            if retries:
                for outcome in outcomes:
                    outcome.chain.stats.worker_retries += retries
            return outcomes, pool

    # ------------------------------------------------------------------ #
    # Checkpointing (crash-recoverable chains; repro.synthesis.checkpoint)
    # ------------------------------------------------------------------ #
    def _checkpoint_key(self) -> Optional[str]:
        if self.store is None:
            return None
        key = self.options.checkpoint_key
        return str(key) if key else None

    def _write_checkpoint(self, generation: int, generations: List[int],
                          chains: List[MarkovChain]) -> None:
        """Persist the full resumable state after a completed generation."""
        key = self._checkpoint_key()
        if key is None:
            return
        payload = build_controller_payload(self, generation + 1,
                                           generations, chains)
        self.store.record_checkpoint(key, generation + 1, payload)
        summary = self.store_summary
        if summary is not None:
            summary["flushed_records"] += self.store.flush()
        else:  # pragma: no cover - store implies a summary today
            self.store.flush()

    def _clear_checkpoint(self) -> None:
        """Drop the job's checkpoint once the search completed normally."""
        key = self._checkpoint_key()
        if key is None:
            return
        if self.store.clear_checkpoint(key):
            summary = self.store_summary
            if summary is not None:
                summary["flushed_records"] += self.store.flush()
            else:  # pragma: no cover - store implies a summary today
                self.store.flush()

    def _try_resume(self, generations: List[int]
                    ) -> Optional[Tuple[int, List[MarkovChain]]]:
        """Restore chains and shared state from the job's last checkpoint.

        Any incompatibility — different options signature, source program,
        generation schedule, or an undecodable payload — degrades to a cold
        start (with the usual warm-store preseed), never to a wrong resume.
        """
        key = self._checkpoint_key()
        if key is None:
            return None
        entry = self.store.checkpoint_for(key)
        if entry is None:
            return None
        decoded = decode_controller_payload(
            entry[1], self.source, self.settings, self.options,
            self.proposal_region, self.keep_nops, generations)
        if decoded is None:
            # Stale checkpoint (e.g. the job spec changed): discard it so
            # the cold restart below does not re-read it forever.
            self.store.clear_checkpoint(key)
            return None

        cache_state = decoded["shared_cache"]
        self.shared_cache = EquivalenceCache.restore_state(cache_state)
        # The shared cache's insertion order *is* the append order of the
        # cache log (they grow in lockstep), so one snapshot restores both
        # — including the store-preseeded provenance of the log's head.
        self._cache_log = [(entry_key, result)
                           for entry_key, result, _, _
                           in cache_state["entries"]]
        self._store_keys = frozenset(
            entry_key for entry_key, _, _, from_store
            in cache_state["entries"] if from_store)
        self._pool = list(decoded["pool"])
        self._pool_keys = {test.freeze_key() for _, test in self._pool}
        self._analysis_log = list(decoded["analysis"])
        self._analysis_seen = {entry_key for entry_key, _
                               in self._analysis_log}
        # Everything restored was flushed before its checkpoint was
        # written, so the store already reflects the full logs.
        self._store_flush_cache_mark = len(self._cache_log)
        self._store_flush_pool_mark = len(self._pool)
        self._store_flush_analysis_mark = len(self._analysis_log)
        if self.store_summary is not None and decoded["store_summary"]:
            summary = dict(decoded["store_summary"])
            summary["path"] = self.store.path
            self.store_summary = summary

        chains = [self._build_chain(index, setting)
                  for index, setting in enumerate(self.settings)]
        for chain, state in zip(chains, decoded["chains"]):
            apply_chain_state(chain, state)
        return decoded["next_generation"], chains

    @staticmethod
    def _result_snapshot(chain: MarkovChain) -> ChainResult:
        """The cumulative ChainResult a restored chain last reported."""
        ordered = sorted(chain.verified, key=lambda c: c.perf_cost)
        return ChainResult(best=ordered[0] if ordered else None,
                           candidates=ordered, statistics=chain.stats)

    def _notify_generation(self, completed: int, total: int,
                           chains: Optional[List[MarkovChain]] = None) -> None:
        """Invoke the caller's progress listener and generation hook.

        Runs after the boundary's flush and checkpoint write; a hook
        returning ``False`` therefore interrupts the search at a resumable
        point.  The listener fires first and is purely observational — the
        serve daemon turns its payload into streaming ``watch`` events.
        """
        listener = self.options.progress_listener
        if listener is not None:
            offset = self.options.chain_index_offset
            listener({
                "completed": completed,
                "total": total,
                "checkpoint": self._checkpoint_key() is not None,
                "chains": [
                    {"chain": offset + index,
                     "iterations": chain.stats.iterations,
                     "verified": chain.stats.verified_candidates,
                     "best_cost": min((c.perf_cost for c in chain.verified),
                                      default=None)}
                    for index, chain in enumerate(chains or [])],
            })
        hook = self.options.generation_hook
        if hook is None:
            return
        if hook(completed, total) is False:
            raise SearchInterrupted(
                f"search interrupted after generation {completed}/{total}")

    # ------------------------------------------------------------------ #
    def _preseed_from_store(self) -> None:
        """Warm the shared state from the durable store before generation 0.

        Preseeded verdicts and analyzer memos replay exactly what the
        pipeline would recompute, so they accelerate the search without
        touching its trajectory; preseeded counterexamples change the test
        suites (and therefore the trajectory), so they are gated behind
        ``options.store_preseed_counterexamples``.
        """
        if self.store is None:
            return
        summary = self.store_summary
        verdicts = self.store.verdicts_for(self.source)
        if verdicts and self.options.share_cache:
            summary["preseeded_verdicts"] = self.preseed_cache(verdicts)
            self.shared_cache.mark_store_origin(verdicts)
            self._store_keys = frozenset(
                self.shared_cache.store_origin_keys())
        for key, outcome in self.store.analysis_entries(
                strict_alignment=True).items():
            if key not in self._analysis_seen:
                self._analysis_seen.add(key)
                self._analysis_log.append((key, outcome))
                summary["preseeded_analysis"] += 1
        if self.options.store_preseed_counterexamples:
            summary["preseeded_counterexamples"] = \
                self.preseed_counterexamples(
                    self.store.counterexamples_for(self.source))
        # Everything preseeded is already durable: start the flush marks
        # past it so it is never re-recorded.
        self._store_flush_cache_mark = len(self._cache_log)
        self._store_flush_pool_mark = len(self._pool)
        self._store_flush_analysis_mark = len(self._analysis_log)

    def _flush_store(self) -> None:
        """Persist this generation's fresh discoveries (single writer)."""
        if self.store is None:
            return
        summary = self.store_summary
        for key, result in self._cache_log[self._store_flush_cache_mark:]:
            if self.store.record_verdict(self.source, key, result):
                summary["flushed_verdicts"] += 1
        self._store_flush_cache_mark = len(self._cache_log)
        for _, test in self._pool[self._store_flush_pool_mark:]:
            if self.store.record_counterexample(self.source, test):
                summary["flushed_counterexamples"] += 1
        self._store_flush_pool_mark = len(self._pool)
        for key, outcome in self._analysis_log[
                self._store_flush_analysis_mark:]:
            if self.store.record_analysis(key, outcome,
                                          strict_alignment=True):
                summary["flushed_analysis"] += 1
        self._store_flush_analysis_mark = len(self._analysis_log)
        summary["flushed_records"] += self.store.flush()

    # ------------------------------------------------------------------ #
    def _build_chain(self, index: int, setting: ParameterSetting) -> MarkovChain:
        options = self.options
        # Seeds derive from the chain's *global* index: a sharded run's
        # controller sees only a contiguous slice of the settings, and the
        # offset keeps its chain ``i`` bit-identical to chain ``offset + i``
        # of the unsharded run.
        index += options.chain_index_offset
        # One engine per chain, for its test suite (chains must not share
        # engines: each is shipped whole to a worker).
        engine = ExecutionEngine()
        suite = TestSuite(self.source, seed=options.seed + index,
                          engine=engine)
        # With a durable store, warm the chain's cache at construction time:
        # building a chain evaluates the source against itself, and that
        # verification would otherwise always escalate to the full stage —
        # even when a previous run already proved it.  A preseeded hit
        # returns exactly the verdict the pipeline would recompute, so this
        # only removes redundant work, never changes the trajectory.
        cache = None
        if self.store is not None and options.share_cache and self._cache_log:
            cache = EquivalenceCache()
            cache.seed(dict(self._cache_log), foreign=True)
            cache.mark_store_origin(self._store_keys)
        pipeline = VerificationPipeline(options=options.equivalence,
                                        cache=cache)
        return MarkovChain(
            self.source,
            cost_settings=setting.cost,
            probabilities=setting.probabilities,
            seed=options.seed * 1009 + index,
            test_suite=suite,
            pipeline=pipeline,
            engine=engine,
            proposal_region=self.proposal_region,
            keep_nops=self.keep_nops)

    def _generation_schedule(self, iterations: int) -> List[int]:
        interval = self.options.sync_interval
        # Non-positive intervals mean "no mid-run sharing", same as None —
        # never an empty schedule, which would silently run zero iterations.
        if not interval or interval <= 0 or interval >= iterations:
            return [iterations]
        schedule = [interval] * (iterations // interval)
        if iterations % interval:
            schedule.append(iterations % interval)
        return schedule

    # ------------------------------------------------------------------ #
    def _cache_delta_for(self, chain_index: int
                         ) -> Dict[Tuple, EquivalenceResult]:
        """Shared entries added since this chain's last dispatch.

        Chains keep everything they were seeded with (and skip keys they
        already hold, including their own discoveries), so sending the log
        suffix is equivalent to sending the full snapshot.
        """
        if not self.options.share_cache:
            return {}
        watermark = self._cache_watermarks[chain_index]
        self._cache_watermarks[chain_index] = len(self._cache_log)
        return dict(self._cache_log[watermark:])

    def _pool_delta_for(self, chain_index: int) -> List[ProgramInput]:
        """Pool entries from *other* chains since this chain's last dispatch."""
        if not self.options.share_counterexamples:
            return []
        watermark = self._pool_watermarks[chain_index]
        self._pool_watermarks[chain_index] = len(self._pool)
        return [test for origin, test in self._pool[watermark:]
                if origin != chain_index]

    def _analysis_delta_for(self, chain_index: int
                            ) -> Dict[Tuple, AnalysisOutcome]:
        """Analyzer memo entries added since this chain's last dispatch."""
        if self.store is None:
            return {}
        watermark = self._analysis_watermarks[chain_index]
        self._analysis_watermarks[chain_index] = len(self._analysis_log)
        return dict(self._analysis_log[watermark:])

    def _absorb(self, chain_index: int, chain: MarkovChain,
                collect_counterexamples: bool = True,
                analysis_entries: Optional[Dict[Tuple, AnalysisOutcome]]
                = None) -> None:
        """Fold one worker's discoveries back into the controller state."""
        if self.options.share_cache:
            for key, value in chain.cache.local_entries().items():
                if self.shared_cache.seed({key: value}, foreign=False):
                    self._cache_log.append((key, value))
        if analysis_entries:
            for key, outcome in analysis_entries.items():
                if key not in self._analysis_seen:
                    self._analysis_seen.add(key)
                    self._analysis_log.append((key, outcome))
        discovered = chain.drain_discovered_counterexamples()
        if not self.options.share_counterexamples:
            return
        # A counterexample that can never reach a sibling chain is normally
        # not collected; a harvester (the windowed scheduler, the durable
        # store) collects everything — harvesting never feeds back into the
        # chains, so it cannot perturb the search.
        harvesting = self.collect_all_counterexamples or self.store is not None
        if not harvesting and (not collect_counterexamples
                               or len(self._pool_watermarks) < 2):
            return
        for test in discovered:
            key = test.freeze_key()
            if key in self._pool_keys:
                continue
            self._pool_keys.add(key)
            self._pool.append((chain_index, test))
