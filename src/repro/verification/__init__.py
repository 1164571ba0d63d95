"""Tiered candidate verification: safety → replay → cache → window → full.

The :class:`VerificationPipeline` is the single entry point the synthesis
loop uses to decide whether a candidate is formally equivalent to the
source program (paper §4–§5); see :mod:`repro.verification.pipeline`.  The
optional leading static-safety stage (fused analyzer pre-check) rejects
provably-unsafe candidates before any execution or solver work.
"""

from .stages import (
    CacheLookupStage, FullSymbolicStage, InterpreterReplayStage, StageOutcome,
    StageVerdict, StaticSafetyStage, VerificationStage, WindowCheckStage,
    changed_window,
)
from .pipeline import (
    PipelineOutcome, PipelineStats, StageStats, VerificationPipeline,
    summarize_verification_stats,
)

__all__ = [name for name in dir() if not name.startswith("_")]
