"""The stages of the candidate-verification pipeline.

Each stage implements one tier of the paper's §4–§5 equivalence check (and
of the Table 4/6 ablations):

========  =======================================  ==================
stage     what it does                              paper section
========  =======================================  ==================
cache     look up the candidate's canonical form    §5 optimization V
          in the :class:`EquivalenceCache`
window    modular verification of the changed       §5 optimization IV,
          window under live-in/live-out conditions  Appendix C.2
full      full-program symbolic equivalence over    §4
          shared inputs (the decision procedure
          of last resort)
========  =======================================  ==================

The test suite and the §6 safety check run before a candidate reaches the
pipeline; they belong to the search loop
(:class:`repro.synthesis.MarkovChain`).

A stage returns a :class:`StageVerdict` whose outcome is one of:

* ``accept`` — the candidate is proven equivalent; the pipeline stops.
* ``reject`` — the candidate is proven non-equivalent (possibly with a
  counterexample); the pipeline stops.
* ``escalate`` — the stage could not decide; the next tier runs.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Optional

from ..bpf.program import BpfProgram
from ..equivalence import (
    EquivalenceChecker, EquivalenceResult, Window, WindowEquivalenceChecker,
)

__all__ = ["StageOutcome", "StageVerdict", "VerificationStage",
           "CacheLookupStage", "WindowCheckStage", "FullSymbolicStage",
           "changed_window"]

#: Windows larger than this fall back to full-program verification, matching
#: the pre-pipeline search behaviour.
MAX_WINDOW_SIZE = 6


class StageOutcome(enum.Enum):
    ACCEPT = "accept"
    REJECT = "reject"
    ESCALATE = "escalate"

    @property
    def conclusive(self) -> bool:
        return self in (StageOutcome.ACCEPT, StageOutcome.REJECT)


@dataclasses.dataclass
class StageVerdict:
    """The typed outcome of running one pipeline stage on one candidate."""

    stage: str
    outcome: StageOutcome
    result: Optional[EquivalenceResult] = None
    elapsed: float = 0.0
    detail: str = ""


def changed_window(source: BpfProgram, candidate: BpfProgram,
                   max_size: int = MAX_WINDOW_SIZE) -> Optional[Window]:
    """The contiguous window containing every instruction that differs."""
    source_insns = source.instructions
    candidate_insns = candidate.instructions
    if len(source_insns) != len(candidate_insns):
        return None
    changed = [index for index in range(len(source_insns))
               if source_insns[index] != candidate_insns[index]]
    if not changed:
        return None
    window = Window(changed[0], changed[-1] + 1)
    if len(window) > max_size:
        return None
    return window


class VerificationStage:
    """Base class: stages are stateless beyond what the pipeline hands them."""

    name = "stage"

    def run(self, pipeline, source: BpfProgram, candidate: BpfProgram,
            window: Optional[Window]) -> StageVerdict:
        raise NotImplementedError


class CacheLookupStage(VerificationStage):
    """Tier 1: look the canonical form up in the equivalence cache (§5 V)."""

    name = "cache"

    def run(self, pipeline, source, candidate, window) -> StageVerdict:
        cached = pipeline.cache.lookup(candidate)
        if cached is None:
            return StageVerdict(self.name, StageOutcome.ESCALATE,
                                detail="cache miss")
        outcome = StageOutcome.ACCEPT if cached.equivalent else StageOutcome.REJECT
        return StageVerdict(self.name, outcome, cached, detail="cache hit")


class WindowCheckStage(VerificationStage):
    """Tier 2: modular (window) verification of the changed region (§5 IV)."""

    name = "window"

    def __init__(self, checker: WindowEquivalenceChecker):
        self.checker = checker

    def run(self, pipeline, source, candidate, window) -> StageVerdict:
        if window is None:
            window = changed_window(source, candidate)
        if window is None:
            return StageVerdict(self.name, StageOutcome.ESCALATE,
                                detail="no single bounded window")
        result = self.checker.check(source, candidate, window)
        if result.unknown:
            return StageVerdict(self.name, StageOutcome.ESCALATE, result,
                                detail=result.reason)
        outcome = StageOutcome.ACCEPT if result.equivalent else StageOutcome.REJECT
        return StageVerdict(self.name, outcome, result)


class FullSymbolicStage(VerificationStage):
    """Tier 3: full-program symbolic equivalence (§4) — always concludes."""

    name = "full"

    def __init__(self, checker: EquivalenceChecker):
        self.checker = checker

    def run(self, pipeline, source, candidate, window) -> StageVerdict:
        result = self.checker.check(source, candidate)
        outcome = StageOutcome.ACCEPT if result.equivalent else StageOutcome.REJECT
        return StageVerdict(self.name, outcome, result)


# ``perfbench/tracer.py`` looks the retired safety and replay stage classes
# up by name and wraps each class's own ``run``; these aliases keep that
# lookup working (no live stage inherits the base ``run``, so nothing is
# traced twice).  They go with the next benchmark change.
StaticSafetyStage = InterpreterReplayStage = VerificationStage
