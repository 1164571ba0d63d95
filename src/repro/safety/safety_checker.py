"""Safety checking of candidate BPF programs (paper §6).

K2 evaluates the safety of every candidate program produced by the stochastic
search.  The properties enforced here mirror §6 of the paper:

**Control flow safety**
    no unreachable basic blocks, no loops (back edges), no out-of-bounds jump
    targets.

**Memory accesses within bounds**
    every load/store resolves to a known memory region and stays inside that
    region's bounds (stack: 512 bytes below r10; ctx: the context structure;
    packet: the bytes proven available by a ``data + N > data_end`` check;
    map values: the map's declared value size).

**Memory-specific considerations**
    stack slots and registers must be written before they are read; r10 is
    read-only; map-lookup results must be NULL-checked before dereference.

**Access alignment**
    stack loads/stores of width N must be N-byte aligned.

**Kernel-checker-specific constraints**
    no ALU (other than pointer ± scalar) on pointers, no immediate stores via
    context pointers, r1–r5 unreadable after a helper call, no pointer may
    escape through r0 at program exit.

The checks run on the fused abstract interpreter of :mod:`repro.analysis`
(provenance × known bits × intervals over the CFG) — the same analysis whose
per-instruction states give the equivalence checker its window
preconditions; when a violation depends on the program input (e.g. a packet
access without a preceding bounds check), the checker also produces a small
*safety counterexample* input that makes the interpreter fault, which the
synthesizer adds to its test suite exactly as in Fig. 1 of the paper.
"""

from __future__ import annotations

from typing import List

from ..analysis import AbstractAnalyzer
from ..analysis.verdicts import (
    SafetyResult, SafetyViolation, SafetyViolationKind,
)
from ..bpf.hooks import HookType
from ..bpf.program import BpfProgram
from ..interpreter import ProgramInput

__all__ = ["SafetyViolationKind", "SafetyViolation", "SafetyResult",
           "SafetyChecker"]


class SafetyChecker:
    """Static safety analysis of BPF programs, as used inside the search loop.

    Runs the unified incremental abstract interpreter
    (:class:`repro.analysis.AbstractAnalyzer`): one product domain
    (provenance × tnum × interval) with per-basic-block memoization across
    the proposals of a synthesis run.
    """

    def __init__(self, strict_alignment: bool = True):
        self.analyzer = AbstractAnalyzer(strict_alignment=strict_alignment)
        self.num_checks = 0

    # ------------------------------------------------------------------ #
    def check(self, program: BpfProgram) -> SafetyResult:
        """Check every §6 property; returns all violations found."""
        self.num_checks += 1
        outcome = self.analyzer.analyze(program)
        return SafetyResult(list(outcome.violations),
                            self._counterexamples(program)
                            if outcome.violations else [])

    # ------------------------------------------------------------------ #
    # Safety counterexamples (used to prune unsafe candidates cheaply)
    # ------------------------------------------------------------------ #
    def _counterexamples(self, program: BpfProgram) -> List[ProgramInput]:
        """Adversarial inputs likely to expose the violation at run time."""
        inputs = [ProgramInput(packet=b"")]
        if program.hook.hook_type == HookType.XDP:
            inputs.append(ProgramInput(packet=bytes(14)))
            inputs.append(ProgramInput(packet=bytes(1)))
        inputs.append(ProgramInput(packet=bytes(64)))
        return inputs
