"""Unified incremental abstract-interpretation safety analysis (paper §6).

One product domain — pointer provenance × tnums (known bits) × value
intervals — analyzed over basic blocks with per-block input-state
memoization, so the synthesis hot loop only re-analyzes the blocks an MCMC
proposal actually changed.  Powers :class:`repro.safety.SafetyChecker`,
:class:`repro.verifier.KernelChecker` and the windowed scheduler's check
of the stitched program; :func:`states_before` exposes the same analysis
per instruction for window preconditions (§5 opt. IV), window planning and
the peephole baseline.
"""

from .analyzer import (
    AbstractAnalyzer, AnalysisOutcome, pointer_info, states_before,
)
from .domains import AbsVal, scalar_alu_transfer
from .state import AnalysisState
from .tnum import Tnum
from .transfer import refine_branch, transfer
from .verdicts import SafetyResult, SafetyViolation, SafetyViolationKind

__all__ = [
    "AbstractAnalyzer", "AnalysisOutcome", "AbsVal", "AnalysisState",
    "Tnum", "SafetyResult", "SafetyViolation", "SafetyViolationKind",
    "scalar_alu_transfer", "refine_branch", "transfer", "pointer_info",
    "states_before",
]
