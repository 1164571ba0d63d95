"""A model of the Linux kernel's in-kernel BPF static checker ("the verifier").

K2 keeps its own safety checks (:mod:`repro.safety`) and, as a fail-safe,
loads its best outputs into the kernel to weed out any program the *kernel
checker* rejects (paper §6, Table 5).  This module plays the role of that
kernel checker for the reproduction: it is an independent, stricter,
path-sensitive static analysis in the style of ``kernel/bpf/verifier.c``:

* it explores program paths one by one (no joins), tracking register types,
  constant values, stack initialization and verified packet bounds,
* it enforces the documented restrictions (read-only r10, no stores through
  context pointers, clobbered r1-r5 after calls, bounded and aligned memory
  accesses, scalar return values),
* it counts the number of instructions *examined* across all paths and
  rejects programs that exceed the complexity limit — the behaviour that
  makes even sub-4096-instruction programs unloadable in practice
  (paper §1, footnote 2),
* it rejects programs longer than the 4096-instruction limit for
  unprivileged program types.

Both checkers walk the *same* abstract semantics — the product domain of
:mod:`repro.analysis` (provenance × tnums × intervals) with its transfer,
branch refinement and per-point checks — but remain distinct verdict
procedures: the safety checker joins states at merge points (dataflow), the
kernel checker enumerates paths, mirroring the paper's "distinct but
overlapping checks" situation.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Set, Tuple

from ..analysis import AnalysisState, refine_branch, transfer
from ..analysis.checks import (
    check_helper_args, check_memory_access, check_pointer_alu,
)
from ..bpf.cfg import CfgError, build_cfg
from ..bpf.opcodes import MAX_INSNS
from ..bpf.program import BpfProgram

__all__ = ["KernelCheckerVerdict", "KernelChecker"]


@dataclasses.dataclass
class KernelCheckerVerdict:
    """The kernel checker's accept/reject decision for one program."""

    accepted: bool
    reason: str = ""
    insns_processed: int = 0
    paths_explored: int = 0

    def __bool__(self) -> bool:
        return self.accepted


class KernelChecker:
    """Simplified ``verifier.c``: path-sensitive acceptance of BPF programs."""

    def __init__(self, insn_limit: int = MAX_INSNS,
                 complexity_limit: int = 1_000_000,
                 strict_alignment: bool = True):
        self.insn_limit = insn_limit
        self.complexity_limit = complexity_limit
        self.strict_alignment = strict_alignment

    # ------------------------------------------------------------------ #
    def load(self, program: BpfProgram) -> KernelCheckerVerdict:
        """Attempt to "load" the program, returning the checker's verdict."""
        instructions = program.instructions
        if not instructions:
            return KernelCheckerVerdict(False, "empty program")
        if len(instructions) > self.insn_limit:
            return KernelCheckerVerdict(
                False, f"program too large: {len(instructions)} > {self.insn_limit}")
        if not program.is_valid():
            return KernelCheckerVerdict(False, "malformed program")

        try:
            cfg = build_cfg(instructions)
        except CfgError as exc:
            return KernelCheckerVerdict(False, f"invalid control flow: {exc}")
        if not cfg.is_loop_free():
            return KernelCheckerVerdict(False, "back-edge (loop) detected")
        for block_index in cfg.unreachable_blocks():
            block = cfg.blocks[block_index]
            if not all(instructions[i].is_nop for i in block.instruction_indices):
                return KernelCheckerVerdict(False, "unreachable instructions")

        return self._do_check(program)

    # ------------------------------------------------------------------ #
    # Path-sensitive walk over the fused product domain.
    # ------------------------------------------------------------------ #
    def _do_check(self, program: BpfProgram) -> KernelCheckerVerdict:
        instructions = program.instructions
        insns_processed = 0
        paths = 0
        visited: Set[Tuple] = set()
        stack: List[Tuple[int, AnalysisState]] = [
            (0, AnalysisState.entry(program.hook))]

        while stack:
            index, state = stack.pop()
            paths += 1
            while True:
                if insns_processed > self.complexity_limit:
                    return KernelCheckerVerdict(
                        False, "BPF program is too large; processed "
                               f"{insns_processed} insns",
                        insns_processed, paths)
                if not 0 <= index < len(instructions):
                    return KernelCheckerVerdict(
                        False, f"jump out of range to {index}",
                        insns_processed, paths)
                insn = instructions[index]
                insns_processed += 1

                reason = self._check_one(program, insn, state, index)
                if reason is not None:
                    return KernelCheckerVerdict(False, reason,
                                                insns_processed, paths)

                if insn.is_exit:
                    break
                if insn.is_unconditional_jump:
                    index = index + 1 + insn.off
                    continue
                if insn.is_conditional_jump:
                    taken = refine_branch(state, insn, taken=True)
                    fallthrough = refine_branch(state, insn, taken=False)
                    taken_index = index + 1 + insn.off
                    signature = (taken_index,) + taken.signature()
                    if signature not in visited:
                        visited.add(signature)
                        stack.append((taken_index, taken))
                    state = fallthrough
                    index += 1
                    continue
                state = transfer(state, insn, program.hook)
                index += 1

        return KernelCheckerVerdict(True, "accepted", insns_processed, paths)

    def _check_one(self, program: BpfProgram, insn,
                   state: AnalysisState, index: int) -> Optional[str]:
        """Per-instruction rules; returns a rejection reason or None."""
        if insn.is_nop:
            return None
        for reg in insn.regs_read():
            if not state.regs[reg].initialized:
                return f"R{reg} !read_ok at insn {index}"
        if 10 in insn.regs_written():
            return f"frame pointer is read only at insn {index}"
        if insn.is_alu:
            violations = check_pointer_alu(insn, state, index)
            if violations:
                return violations[0].message
        if insn.is_memory:
            violations = check_memory_access(program, insn, state, index,
                                             self.strict_alignment)
            if violations:
                return violations[0].message
        if insn.is_call:
            violations = check_helper_args(program, insn, state, index)
            if violations:
                return violations[0].message
        if insn.is_exit:
            if state.regs[0].is_pointer:
                return f"R0 leaks addr as return value at insn {index}"
        return None
