"""Register value-range analysis (unsigned 64-bit intervals).

The paper strengthens window preconditions with "inferred concrete valuations
of variables" (Appendix C.2) and reports context-dependent optimizations that
are only valid under a known register value (§9, example 2: narrowing a 64-bit
mask-and-shift because ``r3`` was known to be ``0x00000000ffe00000``).  Both
need a forward dataflow analysis that answers: *what values can this register
hold at this program point?*

This module provides the interval domain over unsigned 64-bit values that
analysis is built on:

* every ALU operation has a sound (possibly conservative) transfer
  function (:func:`apply_alu`),
* conditional jumps against immediates refine the interval on both outgoing
  edges (``jlt r2, 16`` proves ``r2 ∈ [0, 15]`` on the taken edge;
  :func:`refine_interval_for_branch`),
* joins at control-flow merge points take the interval hull.

The walk itself is the fused analyzer's (:mod:`repro.analysis`): it uses
this domain as the interval component of its product domain, next to
pointer provenance and known bits, and
:func:`~repro.analysis.states_before` exposes the per-instruction result
that the safety checkers and the window preconditions consume.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from .opcodes import AluOp, JmpOp

__all__ = ["ValueInterval", "apply_alu", "refine_interval_for_branch"]

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


def refine_interval_for_branch(interval: ValueInterval, op: JmpOp, imm: int,
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
