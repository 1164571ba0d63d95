"""Register value-range analysis (unsigned 64-bit intervals).

The paper strengthens window preconditions with "inferred concrete valuations
of variables" (Appendix C.2) and reports context-dependent optimizations that
are only valid under a known register value (§9, example 2: narrowing a 64-bit
mask-and-shift because ``r3`` was known to be ``0x00000000ffe00000``).  Both
need a forward dataflow analysis that answers: *what values can this register
hold at this program point?*

This module implements that analysis as an interval domain over unsigned
64-bit values:

* every ALU instruction has a sound (possibly conservative) transfer
  function,
* conditional jumps against immediates refine the interval on both outgoing
  edges (``jlt r2, 16`` proves ``r2 ∈ [0, 15]`` on the taken edge),
* joins at control-flow merge points take the interval hull.

It tracks scalars only.  The fused analyzer (:mod:`repro.analysis`) reuses
its interval domain and branch refinement as the interval component of its
product domain, next to pointer provenance and known bits; that product is
what the safety checkers and the window preconditions consume.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence

from .cfg import build_cfg
from .hooks import Hook
from .instruction import Instruction
from .opcodes import AluOp, InsnClass, JmpOp, NUM_REGISTERS

__all__ = ["ValueInterval", "RangeAnalysis", "analyze_ranges", "apply_alu",
           "refine_interval_for_branch"]

_U64 = (1 << 64) - 1
_U32 = (1 << 32) - 1


@dataclasses.dataclass(frozen=True)
class ValueInterval:
    """An inclusive unsigned interval ``[lo, hi]`` of 64-bit values."""

    lo: int = 0
    hi: int = _U64

    def __post_init__(self) -> None:
        if not 0 <= self.lo <= _U64 or not 0 <= self.hi <= _U64:
            raise ValueError("interval bounds must be unsigned 64-bit values")
        if self.lo > self.hi:
            raise ValueError("empty interval")

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @staticmethod
    def top() -> "ValueInterval":
        return ValueInterval(0, _U64)

    @staticmethod
    def constant(value: int) -> "ValueInterval":
        value &= _U64
        return ValueInterval(value, value)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    @property
    def is_constant(self) -> bool:
        return self.lo == self.hi

    @property
    def const(self) -> Optional[int]:
        return self.lo if self.is_constant else None

    @property
    def is_top(self) -> bool:
        return self.lo == 0 and self.hi == _U64

    def contains(self, value: int) -> bool:
        return self.lo <= (value & _U64) <= self.hi

    def __str__(self) -> str:  # pragma: no cover - debugging convenience
        if self.is_constant:
            return f"{{{self.lo:#x}}}"
        if self.is_top:
            return "⊤"
        return f"[{self.lo:#x}, {self.hi:#x}]"

    # ------------------------------------------------------------------ #
    # Lattice operations
    # ------------------------------------------------------------------ #
    def join(self, other: "ValueInterval") -> "ValueInterval":
        return ValueInterval(min(self.lo, other.lo), max(self.hi, other.hi))

    def meet(self, other: "ValueInterval") -> Optional["ValueInterval"]:
        lo, hi = max(self.lo, other.lo), min(self.hi, other.hi)
        if lo > hi:
            return None
        return ValueInterval(lo, hi)

    # ------------------------------------------------------------------ #
    # Transfer functions
    # ------------------------------------------------------------------ #
    def add(self, other: "ValueInterval") -> "ValueInterval":
        lo, hi = self.lo + other.lo, self.hi + other.hi
        if hi > _U64:  # possible wraparound: give up precision
            return ValueInterval.top()
        return ValueInterval(lo, hi)

    def sub(self, other: "ValueInterval") -> "ValueInterval":
        lo, hi = self.lo - other.hi, self.hi - other.lo
        if lo < 0:
            return ValueInterval.top()
        return ValueInterval(lo, hi)

    def mul(self, other: "ValueInterval") -> "ValueInterval":
        hi = self.hi * other.hi
        if hi > _U64:
            return ValueInterval.top()
        return ValueInterval(self.lo * other.lo, hi)

    def bitwise_and(self, other: "ValueInterval") -> "ValueInterval":
        if self.is_constant and other.is_constant:
            return ValueInterval.constant(self.lo & other.lo)
        # x & y can never exceed either operand's maximum.
        return ValueInterval(0, min(self.hi, other.hi))

    def bitwise_or(self, other: "ValueInterval") -> "ValueInterval":
        if self.is_constant and other.is_constant:
            return ValueInterval.constant(self.lo | other.lo)
        upper = (1 << max(self.hi.bit_length(), other.hi.bit_length())) - 1
        return ValueInterval(max(self.lo, other.lo), min(upper, _U64))

    def bitwise_xor(self, other: "ValueInterval") -> "ValueInterval":
        if self.is_constant and other.is_constant:
            return ValueInterval.constant(self.lo ^ other.lo)
        upper = (1 << max(self.hi.bit_length(), other.hi.bit_length())) - 1
        return ValueInterval(0, min(upper, _U64))

    def lshift(self, other: "ValueInterval") -> "ValueInterval":
        if not other.is_constant:
            return ValueInterval.top()
        shift = other.lo & 63
        hi = self.hi << shift
        if hi > _U64:
            return ValueInterval.top()
        return ValueInterval(self.lo << shift, hi)

    def rshift(self, other: "ValueInterval") -> "ValueInterval":
        if not other.is_constant:
            return ValueInterval(0, self.hi)
        shift = other.lo & 63
        return ValueInterval(self.lo >> shift, self.hi >> shift)

    def truncate32(self) -> "ValueInterval":
        """The interval of the value's low 32 bits (zero-extended)."""
        if self.hi <= _U32:
            return self
        return ValueInterval(0, _U32)


def apply_alu(op: AluOp, dst: ValueInterval, src: ValueInterval,
              is64: bool) -> ValueInterval:
    """Transfer function for one ALU operation.

    Sound against :func:`repro.semantics.alu_op_concrete` — the property
    suite in ``tests/test_analysis_domains.py`` checks containment on
    sampled operands for both widths.
    """
    width = 64 if is64 else 32
    if not is64:
        dst, src = dst.truncate32(), src.truncate32()
    if op == AluOp.MOV:
        result = src
    elif op == AluOp.ADD:
        result = dst.add(src)
    elif op == AluOp.SUB:
        result = dst.sub(src)
    elif op == AluOp.MUL:
        result = dst.mul(src)
    elif op == AluOp.AND:
        result = dst.bitwise_and(src)
    elif op == AluOp.OR:
        result = dst.bitwise_or(src)
    elif op == AluOp.XOR:
        result = dst.bitwise_xor(src)
    elif op == AluOp.LSH:
        # Runtime shift counts are masked to the operand width, so a 32-bit
        # shift by 33 really shifts by 1 — mask before shifting.
        if not src.is_constant:
            result = ValueInterval.top()
        else:
            result = dst.lshift(ValueInterval.constant(src.lo & (width - 1)))
    elif op in (AluOp.RSH, AluOp.ARSH):
        # ARSH on a value whose sign bit (of the operating width) may be set
        # replicates ones at the top; no useful unsigned bound remains.
        if op == AluOp.ARSH and dst.hi >= (1 << (width - 1)):
            result = ValueInterval.top()
        elif not src.is_constant:
            result = ValueInterval(0, dst.hi)
        else:
            result = dst.rshift(ValueInterval.constant(src.lo & (width - 1)))
    elif op == AluOp.DIV:
        # x / 0 == 0 in the BPF runtime; otherwise the quotient never
        # exceeds the dividend.
        result = ValueInterval(0, dst.hi)
    elif op == AluOp.MOD:
        # x % 0 == x in the BPF runtime, so a divisor interval containing 0
        # cannot bound the result below the dividend.
        if src.lo == 0:
            result = ValueInterval(0, dst.hi)
        else:
            result = ValueInterval(0, min(dst.hi, src.hi - 1))
    else:  # NEG, END and anything else: no useful bound
        result = ValueInterval.top()
    if not is64:
        result = result.truncate32()
    return result


#: Backwards-compatible alias (the function predates the public name).
_apply_alu = apply_alu


def _refine_for_branch(interval: ValueInterval, op: JmpOp, imm: int,
                       taken: bool) -> Optional[ValueInterval]:
    """Refine ``interval`` knowing a comparison against ``imm`` was taken or not.

    Returns None when the branch outcome is impossible for the interval
    (the corresponding CFG edge is dead).
    """
    imm &= _U64
    if op == JmpOp.JEQ:
        if taken:
            return interval.meet(ValueInterval.constant(imm))
        if interval.is_constant and interval.lo == imm:
            return None
        return interval
    if op == JmpOp.JNE:
        if not taken:
            return interval.meet(ValueInterval.constant(imm))
        if interval.is_constant and interval.lo == imm:
            return None
        return interval
    if op in (JmpOp.JGT, JmpOp.JGE, JmpOp.JLT, JmpOp.JLE):
        if op == JmpOp.JGT:
            bound = ValueInterval(imm + 1, _U64) if taken and imm < _U64 else \
                (None if taken else ValueInterval(0, imm))
        elif op == JmpOp.JGE:
            bound = ValueInterval(imm, _U64) if taken else \
                (ValueInterval(0, imm - 1) if imm > 0 else None)
        elif op == JmpOp.JLT:
            bound = (ValueInterval(0, imm - 1) if imm > 0 else None) if taken \
                else ValueInterval(imm, _U64)
        else:  # JLE
            bound = ValueInterval(0, imm) if taken else \
                (ValueInterval(imm + 1, _U64) if imm < _U64 else None)
        if bound is None:
            return None
        return interval.meet(bound)
    return interval


#: Public name used by the fused analyzer (:mod:`repro.analysis`); the
#: branch-refinement rules are shared between both interval consumers.
refine_interval_for_branch = _refine_for_branch


class RangeAnalysis:
    """Per-instruction register intervals computed by :func:`analyze_ranges`."""

    def __init__(self, before: List[Optional[Dict[int, ValueInterval]]]):
        self._before = before

    def interval_before(self, index: int, reg: int) -> ValueInterval:
        """Interval of ``reg`` immediately before instruction ``index``."""
        state = self._before[index]
        if state is None:
            return ValueInterval.top()
        return state.get(reg, ValueInterval.top())

    def known_constant(self, index: int, reg: int) -> Optional[int]:
        """The concrete value of ``reg`` before ``index``, if provable."""
        return self.interval_before(index, reg).const

    def constants_before(self, index: int) -> Dict[int, int]:
        """Every register with a provably constant value before ``index``.

        This is exactly the "inferred concrete valuations" set the paper uses
        to strengthen window preconditions (Appendix C.2).
        """
        state = self._before[index] or {}
        return {reg: interval.lo for reg, interval in state.items()
                if interval.is_constant}


def analyze_ranges(instructions: Sequence[Instruction],
                   hook: Optional[Hook] = None) -> RangeAnalysis:
    """Run the interval analysis over a loop-free program.

    Pointer-valued registers simply carry the ⊤ interval; the analysis makes
    no attempt to distinguish them (that is :mod:`repro.analysis`' job).
    """
    del hook  # the input convention does not affect scalar ranges
    instructions = list(instructions)
    cfg = build_cfg(instructions)

    top_state = {reg: ValueInterval.top() for reg in range(NUM_REGISTERS)}
    before: List[Optional[Dict[int, ValueInterval]]] = \
        [None] * len(instructions)
    block_entry: Dict[int, Dict[int, ValueInterval]] = {0: dict(top_state)}

    for block_index in cfg.topological_order():
        block = cfg.blocks[block_index]
        state = block_entry.get(block_index)
        if state is None:   # unreachable block
            continue
        state = dict(state)
        for index in range(block.start, block.end):
            before[index] = dict(state)
            _transfer(state, instructions[index])

        last = instructions[block.end - 1]
        taken_state, fallthrough_state = _branch_states(state, last,
                                                        before[block.end - 1])
        for successor in block.successors:
            succ_start = cfg.blocks[successor].start
            if last.is_conditional_jump and \
                    succ_start == block.end - 1 + 1 + last.off:
                out_state = taken_state
            else:
                out_state = fallthrough_state
            if out_state is None:
                continue
            existing = block_entry.get(successor)
            if existing is None:
                block_entry[successor] = dict(out_state)
            else:
                block_entry[successor] = {
                    reg: existing[reg].join(out_state[reg])
                    for reg in range(NUM_REGISTERS)}
    return RangeAnalysis(before)


def _transfer(state: Dict[int, ValueInterval], insn: Instruction) -> None:
    """Update ``state`` in place with the effect of ``insn``."""
    if insn.is_nop:
        return
    if insn.is_lddw:
        value = insn.imm64 if insn.imm64 is not None else insn.imm
        state[insn.dst] = ValueInterval.constant(value)
        return
    if insn.is_alu:
        op = insn.alu_op
        if op in (AluOp.NEG, AluOp.END):
            state[insn.dst] = ValueInterval.top()
            return
        src = state[insn.src] if insn.uses_reg_source \
            else ValueInterval.constant(insn.imm)
        state[insn.dst] = _apply_alu(op, state[insn.dst], src,
                                     insn.insn_class == InsnClass.ALU64)
        return
    if insn.is_load:
        state[insn.dst] = ValueInterval(0, (1 << (8 * insn.access_bytes)) - 1)
        return
    if insn.is_call:
        for reg in range(6):
            state[reg] = ValueInterval.top()
        return
    # Stores, jumps and exits do not define registers.


def _branch_states(state: Dict[int, ValueInterval], last: Instruction,
                   state_before_last: Optional[Dict[int, ValueInterval]]):
    """Per-edge refined states after the block's final instruction."""
    taken = dict(state)
    fallthrough = dict(state)
    if not last.is_conditional_jump or last.uses_reg_source \
            or last.insn_class == InsnClass.JMP32:
        # JMP32 compares only the low halves; refining the full 64-bit
        # interval from it would be unsound, so those branches refine nothing.
        return taken, fallthrough
    base = state_before_last or state
    interval = base.get(last.dst, ValueInterval.top())
    refined_taken = _refine_for_branch(interval, last.jmp_op, last.imm, True)
    refined_fall = _refine_for_branch(interval, last.jmp_op, last.imm, False)
    taken_state = None if refined_taken is None else taken
    fall_state = None if refined_fall is None else fallthrough
    if taken_state is not None and refined_taken is not None:
        taken_state[last.dst] = refined_taken
    if fall_state is not None and refined_fall is not None:
        fall_state[last.dst] = refined_fall
    return taken_state, fall_state
