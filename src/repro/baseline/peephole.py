"""Peephole rewrite rules and the rule-based optimizer built from them.

This is the "traditional optimizing compiler" the paper contrasts K2 with.
Each rule matches a short instruction pattern and rewrites it in place (the
replacement has the same length; freed positions become NOPs, exactly like the
synthesizer's candidates, so jump offsets never need adjusting).  The rules
cover the classic BPF peepholes, including the two §2.2 examples whose naive
application produces checker-rejected code:

========================  ===================================================
rule                      checker restriction it can trip over (§2.2)
========================  ===================================================
store-zero strength        storing an immediate through a context
reduction                  (``PTR_TO_CTX``) pointer is rejected
byte-store coalescing      stack stores must be aligned to the access size
multiply-to-shift          —
identity elimination       —
constant folding           —
redundant move removal     —
========================  ===================================================

Every rule runs in one of two modes:

* **naive** (``checker_aware=False``): apply whenever the syntactic pattern
  matches — what a generic rule-based optimizer does, and what produces
  kernel-checker rejections (the phase-ordering problem);
* **checker-aware** (``checker_aware=True``): consult the pointer
  provenance of the fused analysis (:func:`repro.analysis.states_before`)
  and skip the rewrite when the kernel checker would reject the result.  The skipped application
  is recorded so callers can report the missed optimization.
"""

from __future__ import annotations

import abc
import dataclasses
from typing import List, Optional, Sequence

from ..analysis import AnalysisState, pointer_info, states_before
from ..bpf import builders
from ..bpf.instruction import Instruction, NOP
from ..bpf.liveness import LivenessInfo, compute_liveness, dead_code_eliminate
from ..bpf.opcodes import AluOp, InsnClass, MemSize, SrcOperand
from ..bpf.program import BpfProgram
from ..bpf.regions import MemRegion
from ..bpf.transforms import remove_nops

__all__ = ["RewriteDecision", "RuleApplication", "PeepholeRule",
           "PeepholeResult", "PeepholeOptimizer", "all_rules", "rule_by_name"]

_I32_MIN = -(1 << 31)
_I32_MAX = (1 << 31) - 1
_U64 = (1 << 64) - 1


@dataclasses.dataclass
class RuleContext:
    """Everything a rule may consult when deciding whether to fire."""

    program: BpfProgram
    instructions: List[Instruction]
    states: List[Optional[AnalysisState]]
    liveness: LivenessInfo
    checker_aware: bool


@dataclasses.dataclass(frozen=True)
class RewriteDecision:
    """Outcome of matching one rule at one position."""

    applied: bool
    replacement: Optional[List[Instruction]] = None
    span: int = 1
    blocked_reason: Optional[str] = None


@dataclasses.dataclass(frozen=True)
class RuleApplication:
    """A record of one fired (or checker-blocked) rewrite."""

    rule: str
    index: int
    applied: bool
    note: str = ""


class PeepholeRule(abc.ABC):
    """Base class for peephole rules."""

    name: str = "rule"
    description: str = ""

    @abc.abstractmethod
    def match(self, ctx: RuleContext, index: int) -> Optional[RewriteDecision]:
        """Return a decision if the pattern matches at ``index``, else None."""

    # Convenience helpers shared by several rules ----------------------- #
    @staticmethod
    def _is_mov64_imm(insn: Instruction) -> bool:
        return (insn.is_alu and insn.insn_class == InsnClass.ALU64
                and insn.alu_op == AluOp.MOV and not insn.uses_reg_source)

    @staticmethod
    def _to_signed32(value: int) -> int:
        value &= 0xFFFFFFFF
        return value - (1 << 32) if value >= (1 << 31) else value


# --------------------------------------------------------------------------- #
# Rule implementations
# --------------------------------------------------------------------------- #
class StoreZeroStrengthReduction(PeepholeRule):
    """``mov rY, imm; *(rX+off) = rY``  →  ``*(rX+off) = imm`` (§2.2, ex. 1).

    Valid only when ``rY`` is dead after the store.  The kernel checker
    rejects the rewritten form when ``rX`` points into context memory, which
    is exactly the restriction the checker-aware mode enforces.
    """

    name = "store-zero-strength-reduction"
    description = "fold a register zeroing + register store into an immediate store"

    def match(self, ctx: RuleContext, index: int) -> Optional[RewriteDecision]:
        insns = ctx.instructions
        if index + 1 >= len(insns):
            return None
        mov, store = insns[index], insns[index + 1]
        if not self._is_mov64_imm(mov) or not store.is_store_reg:
            return None
        if store.src != mov.dst:
            return None
        if mov.dst in ctx.liveness.live_out_at(index + 1):
            return None
        if not _I32_MIN <= mov.imm <= _I32_MAX:
            return None

        region, _ = pointer_info(store, ctx.states[index + 1])
        if region == MemRegion.CTX:
            if ctx.checker_aware:
                return RewriteDecision(
                    applied=False, blocked_reason=(
                        "immediate stores through a PTR_TO_CTX pointer are "
                        "rejected by the kernel checker"))
            # Naive mode applies anyway — the §2.2 phase-ordering failure.
        replacement = [
            NOP,
            builders.ST_MEM(store.mem_size, store.dst, store.off, mov.imm),
        ]
        return RewriteDecision(applied=True, replacement=replacement, span=2)


class CoalesceByteStores(PeepholeRule):
    """Two adjacent 1-byte immediate stores of 0 → one 2-byte store (§2.2, ex. 2).

    The kernel checker requires stack stores to be aligned to the access
    size; coalescing at an odd stack offset is therefore rejected.
    """

    name = "coalesce-byte-stores"
    description = "merge two adjacent byte stores of zero into a halfword store"

    def match(self, ctx: RuleContext, index: int) -> Optional[RewriteDecision]:
        insns = ctx.instructions
        if index + 1 >= len(insns):
            return None
        first, second = insns[index], insns[index + 1]
        for insn in (first, second):
            if not insn.is_store_imm or insn.mem_size != MemSize.B:
                return None
            if insn.imm != 0:
                return None
        if first.dst != second.dst:
            return None
        if second.off != first.off + 1:
            return None

        region, offset = pointer_info(first, ctx.states[index])
        if region == MemRegion.STACK and offset is not None and offset % 2 != 0:
            if ctx.checker_aware:
                return RewriteDecision(
                    applied=False, blocked_reason=(
                        "the coalesced halfword store would not be 2-byte "
                        "aligned on the stack"))
        replacement = [
            builders.ST_MEM(MemSize.H, first.dst, first.off, 0),
            NOP,
        ]
        return RewriteDecision(applied=True, replacement=replacement, span=2)


class MultiplyToShift(PeepholeRule):
    """``rX *= 2**k``  →  ``rX <<= k`` (classic strength reduction)."""

    name = "multiply-to-shift"
    description = "replace multiplication by a power of two with a left shift"

    def match(self, ctx: RuleContext, index: int) -> Optional[RewriteDecision]:
        insn = ctx.instructions[index]
        if not insn.is_alu or insn.uses_reg_source:
            return None
        if insn.alu_op != AluOp.MUL:
            return None
        if insn.imm <= 0 or insn.imm & (insn.imm - 1) != 0:
            return None
        shift = insn.imm.bit_length() - 1
        new_opcode = (insn.insn_class | AluOp.LSH | SrcOperand.K)
        replacement = [insn.with_fields(opcode=new_opcode, imm=shift)]
        return RewriteDecision(applied=True, replacement=replacement, span=1)


class IdentityElimination(PeepholeRule):
    """Remove 64-bit ALU identities (``add 0``, ``mul 1``, ``mov rX, rX``...).

    Restricted to the 64-bit ALU class: 32-bit ops also zero the upper half
    of the destination, so e.g. ``add32 rX, 0`` is *not* a no-op.
    """

    name = "identity-elimination"
    description = "drop 64-bit ALU operations that cannot change their operand"

    _ZERO_IDENTITY = {AluOp.ADD, AluOp.SUB, AluOp.OR, AluOp.XOR, AluOp.LSH,
                      AluOp.RSH, AluOp.ARSH}
    _ONE_IDENTITY = {AluOp.MUL, AluOp.DIV}

    def match(self, ctx: RuleContext, index: int) -> Optional[RewriteDecision]:
        insn = ctx.instructions[index]
        if not insn.is_alu or insn.insn_class != InsnClass.ALU64:
            return None
        op = insn.alu_op
        if insn.uses_reg_source:
            if op == AluOp.MOV and insn.dst == insn.src:
                return RewriteDecision(applied=True, replacement=[NOP], span=1)
            return None
        if op in self._ZERO_IDENTITY and insn.imm == 0:
            return RewriteDecision(applied=True, replacement=[NOP], span=1)
        if op in self._ONE_IDENTITY and insn.imm == 1:
            return RewriteDecision(applied=True, replacement=[NOP], span=1)
        return None


class RedundantMoveElimination(PeepholeRule):
    """``mov rX, rY; mov rY, rX`` — the second move is redundant."""

    name = "redundant-move-elimination"
    description = "drop a move that copies a value back where it came from"

    def match(self, ctx: RuleContext, index: int) -> Optional[RewriteDecision]:
        insns = ctx.instructions
        if index + 1 >= len(insns):
            return None
        first, second = insns[index], insns[index + 1]
        for insn in (first, second):
            if not (insn.is_alu and insn.insn_class == InsnClass.ALU64
                    and insn.alu_op == AluOp.MOV and insn.uses_reg_source):
                return None
        if first.dst != second.src or first.src != second.dst:
            return None
        return RewriteDecision(applied=True, replacement=[first, NOP], span=2)


class ConstantFolding(PeepholeRule):
    """``mov rX, imm1; <op> rX, imm2``  →  ``mov rX, imm1 <op> imm2``."""

    name = "constant-folding"
    description = "fold an immediate move followed by an immediate ALU op"

    _FOLDABLE = {AluOp.ADD, AluOp.SUB, AluOp.MUL, AluOp.OR, AluOp.AND,
                 AluOp.XOR, AluOp.LSH, AluOp.RSH}

    def match(self, ctx: RuleContext, index: int) -> Optional[RewriteDecision]:
        insns = ctx.instructions
        if index + 1 >= len(insns):
            return None
        mov, op_insn = insns[index], insns[index + 1]
        if not self._is_mov64_imm(mov):
            return None
        if not op_insn.is_alu or op_insn.insn_class != InsnClass.ALU64 \
                or op_insn.uses_reg_source:
            return None
        if op_insn.dst != mov.dst or op_insn.alu_op not in self._FOLDABLE:
            return None
        folded = self._fold(mov.imm, op_insn.alu_op, op_insn.imm)
        if folded is None or not _I32_MIN <= folded <= _I32_MAX:
            return None
        replacement = [NOP, builders.MOV64_IMM(mov.dst, folded)]
        return RewriteDecision(applied=True, replacement=replacement, span=2)

    def _fold(self, a: int, op: AluOp, b: int) -> Optional[int]:
        a &= _U64
        b &= _U64
        if op == AluOp.ADD:
            result = a + b
        elif op == AluOp.SUB:
            result = a - b
        elif op == AluOp.MUL:
            result = a * b
        elif op == AluOp.OR:
            result = a | b
        elif op == AluOp.AND:
            result = a & b
        elif op == AluOp.XOR:
            result = a ^ b
        elif op == AluOp.LSH:
            result = a << (b & 63)
        elif op == AluOp.RSH:
            result = a >> (b & 63)
        else:
            return None
        result &= _U64
        # Only representable if the 64-bit result equals the sign extension
        # of its low 32 bits (a MOV64 immediate is sign-extended).
        signed = self._to_signed32(result)
        if (signed & _U64) != result:
            return None
        return signed


def all_rules() -> List[PeepholeRule]:
    """Every rule, in the order the optimizer tries them."""
    return [
        ConstantFolding(),
        RedundantMoveElimination(),
        IdentityElimination(),
        MultiplyToShift(),
        StoreZeroStrengthReduction(),
        CoalesceByteStores(),
    ]


def rule_by_name(name: str) -> PeepholeRule:
    """Look up a rule by its ``name`` attribute."""
    for rule in all_rules():
        if rule.name == name:
            return rule
    raise KeyError(name)


# --------------------------------------------------------------------------- #
# The optimizer
# --------------------------------------------------------------------------- #
@dataclasses.dataclass
class PeepholeResult:
    """Outcome of one rule-based optimization run."""

    original: BpfProgram
    optimized: BpfProgram
    applications: List[RuleApplication]
    blocked: List[RuleApplication]

    @property
    def instruction_reduction(self) -> int:
        return (self.original.num_real_instructions
                - self.optimized.num_real_instructions)

    def summary(self) -> str:
        lines = [f"{self.original.name}: "
                 f"{self.original.num_real_instructions} -> "
                 f"{self.optimized.num_real_instructions} instructions"]
        for application in self.applications:
            lines.append(f"  applied {application.rule} at {application.index}")
        for blocked in self.blocked:
            lines.append(f"  blocked {blocked.rule} at {blocked.index}: "
                         f"{blocked.note}")
        return "\n".join(lines)


class PeepholeOptimizer:
    """Applies peephole rules to a fixed point (the clang-style baseline)."""

    def __init__(self, rules: Optional[Sequence[PeepholeRule]] = None,
                 checker_aware: bool = True,
                 eliminate_dead_code: bool = True,
                 max_passes: int = 8):
        self.rules = list(rules) if rules is not None else all_rules()
        self.checker_aware = checker_aware
        self.eliminate_dead_code = eliminate_dead_code
        self.max_passes = max_passes

    # ------------------------------------------------------------------ #
    def optimize(self, program: BpfProgram) -> PeepholeResult:
        """Run every rule to a fixed point and compact the result."""
        program.validate()
        instructions = list(program.instructions)
        applications: List[RuleApplication] = []
        blocked: List[RuleApplication] = []

        for _ in range(self.max_passes):
            changed = self._one_pass(program, instructions, applications,
                                     blocked)
            if not changed:
                break

        if self.eliminate_dead_code:
            instructions = dead_code_eliminate(instructions)
        optimized = program.with_instructions(remove_nops(instructions))
        return PeepholeResult(original=program, optimized=optimized,
                              applications=applications, blocked=blocked)

    # ------------------------------------------------------------------ #
    def _one_pass(self, program: BpfProgram,
                  instructions: List[Instruction],
                  applications: List[RuleApplication],
                  blocked: List[RuleApplication]) -> bool:
        ctx = RuleContext(
            program=program,
            instructions=instructions,
            states=states_before(instructions, program.hook),
            liveness=compute_liveness(instructions),
            checker_aware=self.checker_aware)

        changed = False
        index = 0
        while index < len(instructions):
            decision = self._first_match(ctx, index)
            if decision is None:
                index += 1
                continue
            rule_name, decision = decision
            if decision.applied:
                assert decision.replacement is not None
                for position, replacement in enumerate(decision.replacement):
                    instructions[index + position] = replacement
                applications.append(RuleApplication(
                    rule=rule_name, index=index, applied=True))
                changed = True
                # The pass continues with a stale analysis, which is safe
                # because replacements only touch the matched span; the next
                # pass recomputes states and liveness from scratch.
                index += decision.span
            else:
                if not any(b.rule == rule_name and b.index == index
                           for b in blocked):
                    blocked.append(RuleApplication(
                        rule=rule_name, index=index, applied=False,
                        note=decision.blocked_reason or ""))
                index += 1
        return changed

    def _first_match(self, ctx: RuleContext, index: int):
        for rule in self.rules:
            decision = rule.match(ctx, index)
            if decision is not None:
                return rule.name, decision
        return None
