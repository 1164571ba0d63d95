"""Tiered equivalence verification: cache → window → full.

The :class:`VerificationPipeline` is the single entry point the synthesis
loop uses to decide whether a candidate is formally equivalent to the
source program (paper §4–§5); see :mod:`repro.verification.pipeline`.  The
test suite and the §6 safety check run before it, in the search loop.
"""

from .stages import (
    CacheLookupStage, FullSymbolicStage, StageOutcome, StageVerdict,
    VerificationStage, WindowCheckStage, changed_window,
)
from .pipeline import (
    PipelineOutcome, PipelineStats, StageStats, VerificationPipeline,
    summarize_verification_stats,
)

__all__ = [name for name in dir() if not name.startswith("_")]
