"""The tiered candidate-verification pipeline.

:class:`VerificationPipeline` owns the whole "is this candidate equivalent
to the source?" path of the synthesis loop.  A candidate escalates through
explicit, pluggable stages — interpreter replay, cache lookup, window
(modular) checking, full symbolic checking — each returning a typed
:class:`~repro.verification.stages.StageVerdict`; the first conclusive
verdict wins.  Per-stage attempt/accept/reject/escalate counters and wall
clock are kept in :class:`PipelineStats`, which is what the Table 4/6
benches and the CLI summary report.

The pipeline owns the single :class:`~repro.equivalence.EquivalenceOptions`
instance for the whole path (the §5 toggles used to be threaded separately
through the checker, the window checker and the search loop) and hands the
same object to every stage.  It also owns the
:class:`~repro.equivalence.EquivalenceCache` and the counterexample pool
that feeds the replay stage.

Underneath, the two solver-backed stages keep *incremental sessions*
(:mod:`repro.equivalence.checker` / :mod:`repro.equivalence.window`): the
source program's encoding is bit-blasted once at the solver's base level
and every candidate query runs in a push/pop scope guarded by an assumption
literal, reusing the blasted CNF and the learned clauses of earlier
queries.  :meth:`begin_generation` drops those sessions; the parallel
engine calls it at every generation boundary so serial and process
executors traverse identical solver histories.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Dict, List, Optional, Tuple

from ..bpf.program import BpfProgram
from ..engine import ExecutionEngine
from ..equivalence import (
    EquivalenceCache, EquivalenceChecker, EquivalenceOptions,
    EquivalenceResult, Window, WindowEquivalenceChecker,
)
from ..interpreter import ProgramInput, ProgramOutput
from .stages import (
    CacheLookupStage, FullSymbolicStage, InterpreterReplayStage, StageOutcome,
    StageVerdict, StaticSafetyStage, VerificationStage, WindowCheckStage,
)

__all__ = ["StageStats", "PipelineStats", "PipelineOutcome",
           "VerificationPipeline", "summarize_verification_stats"]


def summarize_verification_stats(stats: Dict[str, Dict[str, float]]) -> str:
    """One-line "decided/attempted" digest of a per-stage stats dict."""
    parts = []
    for stage, counters in stats.items():
        if stage == "_pipeline":
            continue
        attempts = int(counters.get("attempts", 0))
        decided = int(counters.get("accepts", 0)) + int(counters.get("rejects", 0))
        parts.append(f"{stage} {decided}/{attempts}")
    pipeline = stats.get("_pipeline", {})
    inconclusive = int(pipeline.get("inconclusive", 0))
    suffix = " (decided/escalated-to)"
    if inconclusive:
        suffix += f", {inconclusive} inconclusive"
    return ", ".join(parts) + suffix if parts else "no verification queries"


@dataclasses.dataclass
class StageStats:
    """Counters for one pipeline stage (feeds Table 4/6-style reports)."""

    attempts: int = 0
    accepts: int = 0
    rejects: int = 0
    escalations: int = 0
    skips: int = 0
    seconds: float = 0.0

    def record(self, verdict: StageVerdict) -> None:
        if verdict.outcome == StageOutcome.SKIP:
            self.skips += 1
            return
        self.attempts += 1
        self.seconds += verdict.elapsed
        if verdict.outcome == StageOutcome.ACCEPT:
            self.accepts += 1
        elif verdict.outcome == StageOutcome.REJECT:
            self.rejects += 1
        else:
            self.escalations += 1

    def as_dict(self) -> Dict[str, float]:
        return {"attempts": self.attempts, "accepts": self.accepts,
                "rejects": self.rejects, "escalations": self.escalations,
                "skips": self.skips, "seconds": round(self.seconds, 6)}


class PipelineStats:
    """Per-stage statistics for every query one pipeline has seen."""

    def __init__(self, stage_names: Tuple[str, ...]):
        self.stages: Dict[str, StageStats] = {
            name: StageStats() for name in stage_names}
        self.queries = 0
        self.inconclusive = 0
        # How often the refutation-ranked replay order differed from pool
        # insertion order.
        self.replay_reorders = 0

    def as_dict(self) -> Dict[str, Dict[str, float]]:
        summary = {name: stats.as_dict() for name, stats in self.stages.items()}
        summary["_pipeline"] = {
            "queries": self.queries,
            "inconclusive": self.inconclusive,
            "replay_reorders": self.replay_reorders,
        }
        return summary

    def load_dict(self, snapshot: Dict[str, Dict[str, float]]) -> None:
        """Restore counters from an :meth:`as_dict` snapshot (checkpoints).

        Stage names absent from this pipeline's configuration are ignored
        (a checkpoint taken under different stage toggles fails its options
        signature before restore is ever attempted).
        """
        for name, counters in snapshot.items():
            if name == "_pipeline":
                continue
            stats = self.stages.get(name)
            if stats is None:
                continue
            stats.attempts = int(counters.get("attempts", 0))
            stats.accepts = int(counters.get("accepts", 0))
            stats.rejects = int(counters.get("rejects", 0))
            stats.escalations = int(counters.get("escalations", 0))
            stats.skips = int(counters.get("skips", 0))
            stats.seconds = float(counters.get("seconds", 0.0))
        pipeline = snapshot.get("_pipeline", {})
        self.queries = int(pipeline.get("queries", 0))
        self.inconclusive = int(pipeline.get("inconclusive", 0))
        self.replay_reorders = int(pipeline.get("replay_reorders", 0))

    @staticmethod
    def merge_dicts(into: Dict[str, Dict[str, float]],
                    other: Dict[str, Dict[str, float]]) -> Dict[str, Dict[str, float]]:
        """Accumulate one ``as_dict()`` snapshot into another (for chains)."""
        for stage, counters in other.items():
            bucket = into.setdefault(stage, {})
            for key, value in counters.items():
                bucket[key] = bucket.get(key, 0) + value
        return into


@dataclasses.dataclass
class PipelineOutcome:
    """What :meth:`VerificationPipeline.verify` returns for one candidate."""

    result: EquivalenceResult
    verdicts: List[StageVerdict]
    concluded_by: str

    @property
    def cache_hit(self) -> bool:
        return self.concluded_by == "cache"

    def __bool__(self) -> bool:
        return self.result.equivalent


class VerificationPipeline:
    """Escalate candidates through replay → cache → window → full symbolic."""

    def __init__(self, options: Optional[EquivalenceOptions] = None,
                 cache: Optional[EquivalenceCache] = None,
                 stages: Optional[List[VerificationStage]] = None,
                 max_pool_size: int = 64,
                 engine=None,
                 analyzer=None):
        self.options = options or EquivalenceOptions()
        self.cache = cache if cache is not None else EquivalenceCache()
        #: Fused abstract analyzer backing the static-safety pre-stage; when
        #: None the stage is omitted entirely.  The search loop passes the analyzer instance
        #: shared with its :class:`~repro.safety.SafetyChecker`, so stage
        #: verdicts are program-memo hits.
        self.analyzer = analyzer
        # One long-lived execution engine feeds the replay stage (and is
        # shared with the owning chain's test suite when the caller passes
        # the same instance).
        self.engine = engine if engine is not None else ExecutionEngine()
        self.checker = EquivalenceChecker(self.options)
        self.window_checker = WindowEquivalenceChecker(self.options)
        if stages is not None:
            self.stages: List[VerificationStage] = stages
        else:
            self.stages = []
            if self.analyzer is not None:
                self.stages.append(StaticSafetyStage())
            self.stages.extend([InterpreterReplayStage(),
                                CacheLookupStage(),
                                WindowCheckStage(self.window_checker),
                                FullSymbolicStage(self.checker)])
        self.stats = PipelineStats(tuple(s.name for s in self.stages))
        #: Counterexample pool feeding the replay stage, newest last.
        self._pool: List[ProgramInput] = []
        self._pool_keys: set = set()
        self._pool_key_list: List = []
        self._max_pool_size = max_pool_size
        #: Source outputs for the pool, recomputed when the source changes.
        self._pool_outputs: List[ProgramOutput] = []
        #: ``observable()`` tuples aligned with ``_pool_outputs`` — derived
        #: once per pool refresh, not once per candidate.
        self._pool_observables: List[tuple] = []
        self._pool_source_key = None
        #: Adaptive replay: per-test refutation counts (keyed by the test's
        #: freeze key), reset whenever the source program changes.  Tests
        #: that refuted recent candidates replay first, so the
        #: first-divergence early exit fires in O(1) expected tests for
        #: doomed candidates.
        self._refute_counts: Dict = {}

    # ------------------------------------------------------------------ #
    # Counterexample pool
    # ------------------------------------------------------------------ #
    def add_counterexample(self, test: ProgramInput) -> bool:
        """Add a concrete distinguishing input to the replay pool."""
        key = test.freeze_key()
        if key in self._pool_keys or len(self._pool) >= self._max_pool_size:
            return False
        self._pool_keys.add(key)
        self._pool_key_list.append(key)
        self._pool.append(test)
        # Keep cached source outputs aligned by appending lazily in
        # _refresh_pool (invalidate the shorter cache here).
        return True

    @property
    def pool_size(self) -> int:
        return len(self._pool)

    def record_refutation(self, test: ProgramInput) -> None:
        """Bump the refutation-frequency rank of a distinguishing input."""
        key = test.freeze_key()
        self._refute_counts[key] = self._refute_counts.get(key, 0) + 1

    def _refresh_pool(self, source: BpfProgram) -> None:
        key = source.structural_key()
        if self._pool_source_key != key:
            self._pool_outputs = []
            self._pool_observables = []
            self._refute_counts = {}
            self._pool_source_key = key
        missing = self._pool[len(self._pool_outputs):]
        if missing:
            fresh = self.engine.run_batch(source, missing)
            self._pool_outputs.extend(fresh)
            self._pool_observables.extend(
                output.observable() for output in fresh)

    def replay_entries(self, source: BpfProgram) -> List[Tuple[ProgramInput, ProgramOutput]]:
        """(input, source output) pairs for the replay stage, pool order."""
        self._refresh_pool(source)
        return list(zip(self._pool, self._pool_outputs))

    def replay_plan(self, source: BpfProgram) -> Tuple[List[ProgramInput], List[tuple]]:
        """Pooled tests and their precomputed source observables, ordered
        by descending refutation frequency (ties keep pool order)."""
        self._refresh_pool(source)
        pool = self._pool
        counts = self._refute_counts
        if not counts:
            return list(pool), list(self._pool_observables)
        keys = self._pool_key_list
        order = sorted(range(len(pool)),
                       key=lambda i: (-counts.get(keys[i], 0), i))
        if any(position != index for position, index in enumerate(order)):
            self.stats.replay_reorders += 1
        return ([pool[index] for index in order],
                [self._pool_observables[index] for index in order])

    # ------------------------------------------------------------------ #
    # Checkpointing (crash-recoverable chains; repro.synthesis.checkpoint)
    # ------------------------------------------------------------------ #
    def export_replay_state(self):
        """Pool tests (in insertion order) and refutation counts.

        Counts are keyed by test freeze key; a count can reference a test
        the bounded pool rejected, so the two collections are exported
        separately.
        """
        return list(self._pool), dict(self._refute_counts)

    def restore_replay_state(self, source, tests, refute_counts) -> None:
        """Rebuild the replay pool and the adaptive ordering state.

        ``source`` pins the pool's source key so the restored refutation
        counts survive the next :meth:`verify` (a ``None`` key would read
        as a source change and reset them).  The derived caches (source
        outputs, observables) are recomputed lazily on the next query,
        exactly as after a process-pool hop.
        """
        self._pool = []
        self._pool_keys = set()
        self._pool_key_list = []
        for test in tests:
            self.add_counterexample(test)
        self._pool_outputs = []
        self._pool_observables = []
        self._pool_source_key = source.structural_key()
        self._refute_counts = dict(refute_counts)

    # ------------------------------------------------------------------ #
    def begin_generation(self) -> None:
        """Reset the incremental solver sessions (not stats, cache or pool).

        Called at every chain-generation boundary so that all executor
        backends — including process pools, whose pickling drops sessions —
        see identical solver histories and produce identical results.
        """
        self.checker.reset_session()
        self.window_checker.reset_session()

    # ------------------------------------------------------------------ #
    def verify(self, source: BpfProgram, candidate: BpfProgram,
               window: Optional[Window] = None) -> PipelineOutcome:
        """Escalate ``candidate`` through the stages; first conclusion wins."""
        self.stats.queries += 1
        verdicts: List[StageVerdict] = []
        final: Optional[EquivalenceResult] = None
        concluded_by = "none"

        for stage in self.stages:
            if not stage.enabled(self):
                verdict = StageVerdict(stage.name, StageOutcome.SKIP,
                                       detail="stage disabled")
            else:
                started = time.perf_counter()
                verdict = stage.run(self, source, candidate, window)
                verdict.elapsed = time.perf_counter() - started
            stats = self.stats.stages.get(stage.name)
            if stats is not None:
                stats.record(verdict)
            verdicts.append(verdict)
            if verdict.outcome.conclusive:
                final = verdict.result
                concluded_by = stage.name
                break

        if final is None:
            self.stats.inconclusive += 1
            final = EquivalenceResult(
                equivalent=False, unknown=True,
                reason="verification pipeline exhausted without a conclusive "
                       "stage")
        # Safety-stage rejections stay out of the equivalence cache: the
        # static verdict is conservative ("may misbehave"), not a proof
        # that the two programs differ on some input.
        if self.options.enable_cache and concluded_by not in ("cache", "none",
                                                              "safety"):
            self.cache.store(candidate, final)
        if final.counterexample is not None:
            self.add_counterexample(final.counterexample)
            # Feed the adaptive replay ordering: this input just refuted a
            # candidate, whether the replay stage or a solver tier found it.
            self.record_refutation(final.counterexample)
        return PipelineOutcome(result=final, verdicts=verdicts,
                               concluded_by=concluded_by)
