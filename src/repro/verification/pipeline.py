"""The tiered candidate-verification pipeline.

:class:`VerificationPipeline` is the equivalence decider of the synthesis
loop (paper §4–§5).  A candidate escalates through the stages its
:class:`~repro.equivalence.EquivalenceOptions` enable — cache lookup,
window (modular) checking, full symbolic checking — each returning a typed
:class:`~repro.verification.stages.StageVerdict`; the first conclusive
verdict wins.  Per-stage attempt/accept/reject/escalate counters and wall
clock are kept in :class:`PipelineStats`, which is what the Table 4/6
benches and the CLI summary report.

The test suite, the §6 safety check and the counterexample feedback of
Fig. 1 stay with the search loop (:class:`repro.synthesis.MarkovChain`):
a candidate reaches the pipeline only once it passes every test, every
counterexample the pipeline returns joins that suite, and only safe
candidates are verified.

The pipeline owns the single :class:`~repro.equivalence.EquivalenceOptions`
instance for the whole path and hands the same object to every stage.  It
also owns the :class:`~repro.equivalence.EquivalenceCache`.

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
from ..equivalence import (
    EquivalenceCache, EquivalenceChecker, EquivalenceOptions,
    EquivalenceResult, Window, WindowEquivalenceChecker,
)
from .stages import (
    CacheLookupStage, FullSymbolicStage, StageOutcome, StageVerdict,
    VerificationStage, WindowCheckStage,
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
    seconds: float = 0.0

    def record(self, verdict: StageVerdict) -> None:
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
                "seconds": round(self.seconds, 6)}


class PipelineStats:
    """Per-stage statistics for every query one pipeline has seen."""

    def __init__(self, stage_names: Tuple[str, ...]):
        self.stages: Dict[str, StageStats] = {
            name: StageStats() for name in stage_names}
        self.queries = 0
        self.inconclusive = 0

    def as_dict(self) -> Dict[str, Dict[str, float]]:
        summary = {name: stats.as_dict() for name, stats in self.stages.items()}
        summary["_pipeline"] = {
            "queries": self.queries,
            "inconclusive": self.inconclusive,
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
            stats.seconds = float(counters.get("seconds", 0.0))
        pipeline = snapshot.get("_pipeline", {})
        self.queries = int(pipeline.get("queries", 0))
        self.inconclusive = int(pipeline.get("inconclusive", 0))

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
    """Escalate candidates through cache → window → full symbolic."""

    def __init__(self, options: Optional[EquivalenceOptions] = None,
                 cache: Optional[EquivalenceCache] = None):
        self.options = options or EquivalenceOptions()
        self.cache = cache if cache is not None else EquivalenceCache()
        self.checker = EquivalenceChecker(self.options)
        self.window_checker = WindowEquivalenceChecker(self.options)
        stages = {"cache": CacheLookupStage(),
                  "window": WindowCheckStage(self.window_checker),
                  "full": FullSymbolicStage(self.checker)}
        self.stages: List[VerificationStage] = [
            stages[name] for name in self.options.stage_names()]
        self.stats = PipelineStats(self.options.stage_names())

    # ------------------------------------------------------------------ #
    def begin_generation(self) -> None:
        """Reset the incremental solver sessions (not stats or cache).

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
            started = time.perf_counter()
            verdict = stage.run(self, source, candidate, window)
            verdict.elapsed = time.perf_counter() - started
            self.stats.stages[stage.name].record(verdict)
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
        if self.options.enable_cache and concluded_by not in ("cache", "none"):
            self.cache.store(candidate, final)
        return PipelineOutcome(result=final, verdicts=verdicts,
                               concluded_by=concluded_by)
