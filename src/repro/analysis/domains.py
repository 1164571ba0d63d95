"""The fused product domain: provenance × known-bits × value range.

One :class:`AbsVal` describes a register (or a tracked stack slot) at one
program point.  It fuses the three per-register abstractions that used to
live in separate analyses:

* pointer provenance with a concrete region offset (region, offset,
  map fd, null-ness, initialization),
* known bits (:class:`~repro.analysis.tnum.Tnum`, the kernel verifier's
  tristate numbers),
* an unsigned 64-bit interval (:class:`~repro.bpf.valrange.ValueInterval`).

For pointers the scalar components are pinned to ⊤ (region + concrete
offset carry all the information the safety checks consume); for scalars
the region is :data:`~repro.bpf.regions.MemRegion.SCALAR` and the tnum and
interval both constrain the concrete value.  Constant folding delegates to
:func:`repro.semantics.alu_op_concrete` — the same table the interpreter
executes — so "the analyzer's constant" can never drift from "the value the
engine computes".
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from ..bpf.opcodes import AluOp
from ..bpf.regions import MemRegion
from ..bpf.valrange import ValueInterval, apply_alu
from ..semantics import alu_op_concrete
from .tnum import Tnum

__all__ = ["AbsVal", "scalar_alu_transfer"]

_U64 = (1 << 64) - 1
_U32 = (1 << 32) - 1

_TOP_TNUM = Tnum.unknown()
_TOP_RANGE = ValueInterval.top()


@dataclasses.dataclass(frozen=True)
class AbsVal:
    """Abstract value of one register / stack slot in the fused domain."""

    region: MemRegion = MemRegion.UNKNOWN
    offset: Optional[int] = None     # concrete offset from the region base
    map_fd: Optional[int] = None     # for MAP_PTR / MAP_VALUE provenance
    maybe_null: bool = False         # pointer may be NULL (unchecked lookup)
    initialized: bool = True         # False for never-written registers
    tnum: Tnum = _TOP_TNUM           # known bits (scalars only)
    rng: ValueInterval = _TOP_RANGE  # unsigned interval (scalars only)

    def __hash__(self) -> int:
        # Abstract values are hashed millions of times as parts of the
        # incremental analyzer's block-memo keys and state signatures;
        # cache the (immutable) hash on first use.
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash((self.region, self.offset, self.map_fd,
                           self.maybe_null, self.initialized,
                           self.tnum, self.rng))
            self.__dict__["_hash"] = cached
        return cached

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @staticmethod
    def scalar(const: Optional[int] = None) -> "AbsVal":
        if const is None:
            return _SCALAR_TOP
        const &= _U64
        return AbsVal(region=MemRegion.SCALAR, tnum=Tnum.const(const),
                      rng=ValueInterval.constant(const))

    @staticmethod
    def from_parts(tnum: Tnum, rng: ValueInterval) -> "AbsVal":
        """A scalar known only through its abstractions, cross-narrowed."""
        # Each component may know the value exactly; propagate the constant
        # into the other so queries see the tightest description.
        if tnum.is_const and not rng.is_constant:
            rng = ValueInterval.constant(tnum.value)
        elif rng.is_constant and not tnum.is_const:
            tnum = Tnum.const(rng.lo)
        return AbsVal(region=MemRegion.SCALAR, tnum=tnum, rng=rng)

    @staticmethod
    def pointer(region: MemRegion, offset: Optional[int] = None,
                map_fd: Optional[int] = None,
                maybe_null: bool = False) -> "AbsVal":
        return AbsVal(region=region, offset=offset, map_fd=map_fd,
                      maybe_null=maybe_null)

    @staticmethod
    def uninitialized() -> "AbsVal":
        return _UNINITIALIZED

    @staticmethod
    def unknown() -> "AbsVal":
        return _UNKNOWN

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    @property
    def is_pointer(self) -> bool:
        return self.region not in (MemRegion.SCALAR, MemRegion.UNKNOWN)

    @property
    def is_scalar(self) -> bool:
        return self.region == MemRegion.SCALAR

    @property
    def const(self) -> Optional[int]:
        """The concrete 64-bit value, when either component proves it."""
        if self.region != MemRegion.SCALAR:
            return None
        if self.tnum.is_const:
            return self.tnum.value
        return self.rng.const

    # ------------------------------------------------------------------ #
    # Lattice
    # ------------------------------------------------------------------ #
    def join(self, other: "AbsVal") -> "AbsVal":
        """Least-upper-bound merge at control-flow joins."""
        if self == other:
            return self
        initialized = self.initialized and other.initialized
        if self.region == other.region:
            if self.region == MemRegion.SCALAR:
                return AbsVal(region=MemRegion.SCALAR,
                              initialized=initialized,
                              tnum=self.tnum.union(other.tnum),
                              rng=self.rng.join(other.rng))
            return AbsVal(
                region=self.region,
                offset=self.offset if self.offset == other.offset else None,
                map_fd=self.map_fd if self.map_fd == other.map_fd else None,
                maybe_null=self.maybe_null or other.maybe_null,
                initialized=initialized)
        return AbsVal(region=MemRegion.UNKNOWN, initialized=initialized)


_SCALAR_TOP = AbsVal(region=MemRegion.SCALAR)
_UNINITIALIZED = AbsVal(region=MemRegion.UNKNOWN, initialized=False)
_UNKNOWN = AbsVal(region=MemRegion.UNKNOWN)


def _tnum_alu(op: AluOp, dst: Tnum, src: Tnum, width: int) -> Tnum:
    """Known-bits transfer for one ALU operation at the given width."""
    if op == AluOp.MOV:
        return src
    if op == AluOp.ADD:
        return dst.add(src)
    if op == AluOp.SUB:
        return dst.sub(src)
    if op == AluOp.AND:
        return dst.bitwise_and(src)
    if op == AluOp.OR:
        return dst.bitwise_or(src)
    if op == AluOp.XOR:
        return dst.bitwise_xor(src)
    if op == AluOp.LSH and src.is_const:
        return dst.lshift(src.value & (width - 1))
    if op == AluOp.RSH and src.is_const:
        return dst.rshift(src.value & (width - 1))
    if op == AluOp.ARSH and src.is_const:
        return dst.arshift(src.value & (width - 1), width)
    # MUL / DIV / MOD and variable shifts: constants were folded exactly by
    # the caller; anything else has no cheap known-bits rule.
    return Tnum.unknown()


def scalar_alu_transfer(op: AluOp, dst: AbsVal, src: AbsVal,
                        is64: bool) -> AbsVal:
    """Fused scalar ALU transfer: exact constant folding, else tnum × range.

    Both operands must be scalars (pointer arithmetic is handled by the
    instruction-level transfer in :mod:`repro.analysis.transfer`).
    """
    dst_const, src_const = dst.const, src.const
    if dst_const is not None and src_const is not None:
        return AbsVal.scalar(alu_op_concrete(op, dst_const, src_const, is64))

    width = 64 if is64 else 32
    dst_t, src_t = dst.tnum, src.tnum
    if not is64:
        dst_t, src_t = dst_t.truncate32(), src_t.truncate32()
    tnum = _tnum_alu(op, dst_t, src_t, width)
    if not is64:
        tnum = tnum.truncate32()
    rng = apply_alu(op, dst.rng, src.rng, is64)
    return AbsVal.from_parts(tnum, rng)
