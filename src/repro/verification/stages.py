"""The pluggable stages of the candidate-verification pipeline.

Each stage implements one tier of the escalation ladder described in the
paper's §5 (and mirrored by the Table 4/6 ablations):

========  =======================================  ==================
stage     what it does                              paper section
========  =======================================  ==================
replay    interpret the candidate on pooled         §3.2 (test-based
          counterexamples from earlier queries      pruning, Fig. 1)
cache     look up the candidate's canonical form    §5 optimization V
          in the :class:`EquivalenceCache`
window    modular verification of the changed       §5 optimization IV,
          window under live-in/live-out conditions  Appendix C.2
full      full-program symbolic equivalence over    §4
          shared inputs (the decision procedure
          of last resort)
========  =======================================  ==================

A stage returns a :class:`StageVerdict` whose outcome is one of:

* ``accept`` — the candidate is proven equivalent; the pipeline stops.
* ``reject`` — the candidate is proven non-equivalent (possibly with a
  counterexample); the pipeline stops.
* ``escalate`` — the stage could not decide; the next tier runs.
* ``skip`` — the stage is disabled or not applicable to this query.
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
           "StaticSafetyStage", "InterpreterReplayStage", "CacheLookupStage",
           "WindowCheckStage", "FullSymbolicStage", "changed_window"]

#: Windows larger than this fall back to full-program verification, matching
#: the pre-pipeline search behaviour.
MAX_WINDOW_SIZE = 6


class StageOutcome(enum.Enum):
    ACCEPT = "accept"
    REJECT = "reject"
    ESCALATE = "escalate"
    SKIP = "skip"

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

    def enabled(self, pipeline) -> bool:
        return True

    def run(self, pipeline, source: BpfProgram, candidate: BpfProgram,
            window: Optional[Window]) -> StageVerdict:
        raise NotImplementedError


class StaticSafetyStage(VerificationStage):
    """Tier 0: reject statically-unsafe candidates before any execution.

    Runs the fused abstract interpreter (:mod:`repro.analysis`) on the
    candidate — and, memoized, on the source — and rejects when the source
    is safe but the candidate provably misbehaves (§6).  Such a candidate
    is useless to the synthesizer regardless of its input/output behaviour,
    so refusing it here saves the replay batch and any solver work.

    Inside the search loop this stage is a cheap no-op safeguard: the chain
    checks safety *before* querying the pipeline with the same shared
    analyzer, so the verdict is a program-memo hit and the stage escalates.
    Its rejections matter when the pipeline is driven standalone (benches,
    library users).  The pipeline never caches a safety rejection in the
    equivalence cache: "unsafe" is a conservative static verdict, not a
    proof of non-equivalence.
    """

    name = "safety"

    def enabled(self, pipeline) -> bool:
        return pipeline.analyzer is not None

    def run(self, pipeline, source, candidate, window) -> StageVerdict:
        candidate_outcome = pipeline.analyzer.analyze(candidate)
        if candidate_outcome.safe:
            return StageVerdict(self.name, StageOutcome.ESCALATE,
                                detail="candidate statically safe")
        if not pipeline.analyzer.analyze(source).safe:
            return StageVerdict(self.name, StageOutcome.ESCALATE,
                                detail="source itself statically unsafe")
        kinds = ", ".join(sorted(k.value
                                 for k in candidate_outcome.violation_kinds()))
        result = EquivalenceResult(
            equivalent=False,
            reason=f"candidate rejected by static safety analysis ({kinds})")
        return StageVerdict(self.name, StageOutcome.REJECT, result)


class InterpreterReplayStage(VerificationStage):
    """Tier 1: replay the candidate on the pooled counterexamples.

    Counterexamples produced by the solver tiers of *earlier* queries are
    concrete inputs on which the source behaves differently from some past
    candidate; structurally similar candidates usually fail on the same
    inputs, so a handful of interpreter runs can refute them without any
    symbolic work (the Fig. 1 feedback edge, applied inside the pipeline).

    The stage is *adaptive*: the pipeline ranks pooled tests by how often
    each one refuted a recent candidate (``replay_plan``), and the whole
    ranked pool runs as one ``run_batch`` against source observables
    precomputed once per pool refresh rather than re-derived per
    candidate.  The batch stops at the first divergent output, so a doomed
    candidate usually costs one run: the test that refuted its
    predecessors.

    Inside the search loop this stage is a cheap no-op safeguard: the same
    counterexamples also join the chain's test suite, so candidates reaching
    the pipeline already pass them and the stage escalates after replaying
    the (small, ``max_pool_size``-capped) pool.  Its rejections matter when
    the pipeline is driven standalone — benches, library users, or stage
    lists without a test suite in front.
    """

    name = "replay"

    def enabled(self, pipeline) -> bool:
        return pipeline.options.interpreter_replay

    def run(self, pipeline, source, candidate, window) -> StageVerdict:
        tests, observables = pipeline.replay_plan(source)
        if not tests:
            return StageVerdict(self.name, StageOutcome.ESCALATE,
                                detail="empty counterexample pool")
        try:
            # The candidate is decoded once, reset images are shared, and
            # the precomputed ``observable()`` tuples give the engine a
            # first-divergence early exit: a short return pinpoints the
            # refuting test.
            got = pipeline.engine.run_batch(
                candidate, tests,
                stop=lambda index, output:
                    output.observable() != observables[index])
        except Exception as exc:  # broken candidate: let the solver tiers
            return StageVerdict(self.name, StageOutcome.ESCALATE,
                                detail=f"replay failed: {exc}")
        last = len(got) - 1
        if got[last].observable() != observables[last]:
            result = EquivalenceResult(
                equivalent=False, counterexample=tests[last],
                reason="refuted by pooled counterexample")
            return StageVerdict(self.name, StageOutcome.REJECT, result)
        return StageVerdict(self.name, StageOutcome.ESCALATE,
                            detail=f"passed {len(tests)} pooled tests")


class CacheLookupStage(VerificationStage):
    """Tier 2: look the canonical form up in the equivalence cache (§5 V)."""

    name = "cache"

    def enabled(self, pipeline) -> bool:
        return pipeline.options.enable_cache

    def run(self, pipeline, source, candidate, window) -> StageVerdict:
        cached = pipeline.cache.lookup(candidate)
        if cached is None:
            return StageVerdict(self.name, StageOutcome.ESCALATE,
                                detail="cache miss")
        outcome = StageOutcome.ACCEPT if cached.equivalent else StageOutcome.REJECT
        return StageVerdict(self.name, outcome, cached, detail="cache hit")


class WindowCheckStage(VerificationStage):
    """Tier 3: modular (window) verification of the changed region (§5 IV)."""

    name = "window"

    def __init__(self, checker: WindowEquivalenceChecker):
        self.checker = checker

    def enabled(self, pipeline) -> bool:
        return pipeline.options.modular_verification

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
    """Tier 4: full-program symbolic equivalence (§4) — always concludes."""

    name = "full"

    def __init__(self, checker: EquivalenceChecker):
        self.checker = checker

    def enabled(self, pipeline) -> bool:
        return pipeline.options.full_symbolic

    def run(self, pipeline, source, candidate, window) -> StageVerdict:
        result = self.checker.check(source, candidate)
        outcome = StageOutcome.ACCEPT if result.equivalent else StageOutcome.REJECT
        return StageVerdict(self.name, outcome, result)
