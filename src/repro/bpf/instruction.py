"""The BPF instruction representation and builder helpers.

An :class:`Instruction` mirrors the kernel's ``struct bpf_insn``: an opcode
byte, destination and source register fields, a signed 16-bit offset and a
signed 32-bit immediate.  The 64-bit immediate load (``LDDW``) is represented
as a *single* logical instruction carrying a 64-bit ``imm64`` payload; the
binary encoder expands it to the two raw slots the kernel expects.

Jump offsets in this representation are expressed in *logical instruction*
units (the distance in list positions from the following instruction), which
matches the kernel semantics for programs that do not contain ``LDDW``; the
encoder converts between logical and raw-slot offsets.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from .opcodes import (
    SIZE_BYTES, AluOp, InsnClass, JmpOp, MemMode, MemSize, SrcOperand,
)

__all__ = ["Instruction", "NOP"]

_U64 = (1 << 64) - 1
#: ``InsnClass`` members indexed by ``opcode & 0x07``: the class lookup runs
#: on every predicate, and indexing a tuple avoids constructing the enum.
_INSN_CLASSES = tuple(InsnClass(value) for value in range(8))
_ALU_CLASSES = (InsnClass.ALU, InsnClass.ALU64)
_JMP_CLASSES = (InsnClass.JMP, InsnClass.JMP32)
_MEM_CLASSES = (InsnClass.LD, InsnClass.LDX, InsnClass.ST, InsnClass.STX)


@dataclasses.dataclass(frozen=True)
class Instruction:
    """A single logical BPF instruction.

    Attributes:
        opcode: the full opcode byte (class | op | source / size | mode).
        dst: destination register number (0-10).
        src: source register number (0-10).
        off: signed 16-bit offset (memory displacement or jump distance).
        imm: signed 32-bit immediate.
        imm64: 64-bit immediate payload, only meaningful for ``LDDW``.
    """

    opcode: int
    dst: int = 0
    src: int = 0
    off: int = 0
    imm: int = 0
    imm64: Optional[int] = None

    def __hash__(self) -> int:
        # Instructions key several hot caches (decode memos, the analyzer's
        # per-insn structure memo); cache the hash of the immutable fields.
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash((self.opcode, self.dst, self.src, self.off,
                           self.imm, self.imm64))
            self.__dict__["_hash"] = cached
        return cached

    # ------------------------------------------------------------------ #
    # Field decoding helpers
    # ------------------------------------------------------------------ #
    @property
    def insn_class(self) -> InsnClass:
        return _INSN_CLASSES[self.opcode & 0x07]

    @property
    def is_alu(self) -> bool:
        return self.insn_class in _ALU_CLASSES

    @property
    def is_alu64(self) -> bool:
        return self.insn_class == InsnClass.ALU64

    @property
    def is_jump(self) -> bool:
        return self.insn_class in _JMP_CLASSES

    @property
    def is_jump32(self) -> bool:
        return self.insn_class == InsnClass.JMP32

    @property
    def alu_op(self) -> AluOp:
        if not self.is_alu:
            raise ValueError(f"not an ALU instruction: {self!r}")
        return AluOp(self.opcode & 0xF0)

    @property
    def jmp_op(self) -> JmpOp:
        if not self.is_jump:
            raise ValueError(f"not a jump instruction: {self!r}")
        return JmpOp(self.opcode & 0xF0)

    @property
    def src_operand(self) -> SrcOperand:
        return SrcOperand(self.opcode & 0x08)

    @property
    def uses_reg_source(self) -> bool:
        return self.src_operand == SrcOperand.X

    @property
    def mem_size(self) -> MemSize:
        if self.insn_class not in _MEM_CLASSES:
            raise ValueError(f"not a memory instruction: {self!r}")
        return MemSize(self.opcode & 0x18)

    @property
    def mem_mode(self) -> MemMode:
        if self.insn_class not in _MEM_CLASSES:
            raise ValueError(f"not a memory instruction: {self!r}")
        return MemMode(self.opcode & 0xE0)

    @property
    def access_bytes(self) -> int:
        return SIZE_BYTES[self.mem_size]

    # ------------------------------------------------------------------ #
    # Classification helpers
    # ------------------------------------------------------------------ #
    @property
    def is_lddw(self) -> bool:
        return (
            self.insn_class == InsnClass.LD
            and self.mem_mode == MemMode.IMM
            and self.mem_size == MemSize.DW
        )

    @property
    def is_load(self) -> bool:
        """A memory load (LDX ... MEM)."""
        return self.insn_class == InsnClass.LDX and self.mem_mode == MemMode.MEM

    @property
    def is_store(self) -> bool:
        """A memory store, either register (STX) or immediate (ST)."""
        return (
            self.insn_class in (InsnClass.ST, InsnClass.STX)
            and self.mem_mode == MemMode.MEM
        )

    @property
    def is_store_imm(self) -> bool:
        return self.insn_class == InsnClass.ST and self.mem_mode == MemMode.MEM

    @property
    def is_store_reg(self) -> bool:
        return self.insn_class == InsnClass.STX and self.mem_mode == MemMode.MEM

    @property
    def is_xadd(self) -> bool:
        return self.insn_class == InsnClass.STX and self.mem_mode == MemMode.XADD

    @property
    def is_memory(self) -> bool:
        return self.is_load or self.is_store or self.is_xadd

    @property
    def is_call(self) -> bool:
        return self.insn_class == InsnClass.JMP and (self.opcode & 0xF0) == JmpOp.CALL

    @property
    def is_exit(self) -> bool:
        return self.insn_class == InsnClass.JMP and (self.opcode & 0xF0) == JmpOp.EXIT

    @property
    def is_unconditional_jump(self) -> bool:
        return self.insn_class == InsnClass.JMP and (self.opcode & 0xF0) == JmpOp.JA

    @property
    def is_conditional_jump(self) -> bool:
        if not self.is_jump:
            return False
        op = self.jmp_op
        return op not in (JmpOp.JA, JmpOp.CALL, JmpOp.EXIT)

    @property
    def is_branch(self) -> bool:
        """Any instruction that can transfer control (not fallthrough-only)."""
        return self.is_conditional_jump or self.is_unconditional_jump or self.is_exit

    @property
    def is_nop(self) -> bool:
        """The canonical NOP used by the synthesizer: ``ja +0``.

        Class ``JMP`` and operation ``JA`` in one mask: every bit but the
        source-operand bit (0x08) is fixed.
        """
        return (self.opcode & 0xF7) == 0x05 and self.off == 0

    # ------------------------------------------------------------------ #
    # Register def/use sets (used by liveness, SSA, and proposal rules)
    # ------------------------------------------------------------------ #
    def regs_read(self) -> frozenset[int]:
        """Registers whose value this instruction reads (cached)."""
        cached = self.__dict__.get("_regs_read")
        if cached is None:
            cached = self._regs_read_uncached()
            self.__dict__["_regs_read"] = cached
        return cached

    def _regs_read_uncached(self) -> frozenset[int]:
        if self.is_nop:
            return frozenset()
        if self.is_lddw:
            return frozenset()
        if self.is_alu:
            op = self.alu_op
            if op == AluOp.MOV:
                return frozenset({self.src} if self.uses_reg_source else set())
            if op == AluOp.NEG or op == AluOp.END:
                return frozenset({self.dst})
            read = {self.dst}
            if self.uses_reg_source:
                read.add(self.src)
            return frozenset(read)
        if self.is_load:
            return frozenset({self.src})
        if self.is_store_reg or self.is_xadd:
            return frozenset({self.dst, self.src})
        if self.is_store_imm:
            return frozenset({self.dst})
        if self.is_jump:
            op = self.jmp_op
            if op == JmpOp.JA:
                return frozenset()
            if op == JmpOp.EXIT:
                return frozenset({0})
            if op == JmpOp.CALL:
                from .helpers import helper_num_args

                return frozenset(range(1, 1 + helper_num_args(self.imm)))
            read = {self.dst}
            if self.uses_reg_source:
                read.add(self.src)
            return frozenset(read)
        return frozenset()

    def regs_written(self) -> frozenset[int]:
        """Registers whose value this instruction (re)defines."""
        if self.is_nop:
            return frozenset()
        if self.is_lddw:
            return frozenset({self.dst})
        if self.is_alu:
            return frozenset({self.dst})
        if self.is_load:
            return frozenset({self.dst})
        if self.is_call:
            # r0 holds the return value; r1-r5 are clobbered by the call.
            return frozenset({0, 1, 2, 3, 4, 5})
        return frozenset()

    # ------------------------------------------------------------------ #
    # Pretty printing
    # ------------------------------------------------------------------ #
    def __str__(self) -> str:  # pragma: no cover - exercised via asm tests
        from .asm import format_instruction

        return format_instruction(self)

    def with_fields(self, **kwargs) -> "Instruction":
        """Return a copy with the given fields replaced."""
        return dataclasses.replace(self, **kwargs)


#: Canonical no-op used by the synthesizer's "replace by NOP" rewrite rule.
NOP = Instruction(opcode=InsnClass.JMP | JmpOp.JA, off=0)
