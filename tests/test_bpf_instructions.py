"""Unit tests for the BPF instruction representation and builders."""

import pytest

from repro.bpf import (
    ADD64_IMM, ADD64_REG, AluOp, CALL_HELPER, EXIT_INSN, HelperId, InsnClass,
    JA, JEQ_IMM, JmpOp, LD_MAP_FD, LDDW, LDX_MEM, MemSize, MOV64_IMM,
    MOV64_REG, NOP, NOP_INSN, ST_MEM, STX_MEM, STX_XADD,
)
from repro.bpf.instruction import Instruction
from repro.bpf.opcodes import MemMode


class TestInstructionClassification:
    def test_alu64_imm_fields(self):
        insn = ADD64_IMM(3, 7)
        assert insn.is_alu and insn.is_alu64
        assert insn.alu_op == AluOp.ADD
        assert insn.dst == 3 and insn.imm == 7
        assert not insn.uses_reg_source

    def test_alu64_reg_fields(self):
        insn = ADD64_REG(3, 4)
        assert insn.uses_reg_source
        assert insn.src == 4

    def test_mov_reads_only_source(self):
        insn = MOV64_REG(1, 2)
        assert insn.regs_read() == frozenset({2})
        assert insn.regs_written() == frozenset({1})

    def test_add_reads_both(self):
        insn = ADD64_REG(1, 2)
        assert insn.regs_read() == frozenset({1, 2})

    def test_load_classification(self):
        insn = LDX_MEM(MemSize.W, 1, 2, -4)
        assert insn.is_load and insn.is_memory and not insn.is_store
        assert insn.access_bytes == 4
        assert insn.regs_read() == frozenset({2})
        assert insn.regs_written() == frozenset({1})

    def test_store_reg_classification(self):
        insn = STX_MEM(MemSize.DW, 10, 1, -8)
        assert insn.is_store and insn.is_store_reg
        assert insn.access_bytes == 8
        assert insn.regs_read() == frozenset({10, 1})
        assert insn.regs_written() == frozenset()

    def test_store_imm_classification(self):
        insn = ST_MEM(MemSize.B, 10, -1, 0xFF)
        assert insn.is_store_imm
        assert insn.regs_read() == frozenset({10})

    def test_xadd_classification(self):
        insn = STX_XADD(MemSize.DW, 0, 1, 0)
        assert insn.is_xadd and insn.is_memory
        assert insn.regs_read() == frozenset({0, 1})

    def test_xadd_rejects_narrow_width(self):
        with pytest.raises(ValueError):
            STX_XADD(MemSize.H, 0, 1, 0)

    def test_exit_classification(self):
        insn = EXIT_INSN()
        assert insn.is_exit and insn.is_branch
        assert insn.regs_read() == frozenset({0})

    def test_call_reads_argument_registers(self):
        insn = CALL_HELPER(HelperId.MAP_LOOKUP_ELEM)
        assert insn.is_call
        assert insn.regs_read() == frozenset({1, 2})
        assert insn.regs_written() == frozenset({0, 1, 2, 3, 4, 5})

    def test_nop_is_ja_zero(self):
        assert NOP.is_nop
        assert NOP_INSN() == NOP
        assert JA(0).is_nop
        assert not JA(2).is_nop

    def test_jump_classification(self):
        insn = JEQ_IMM(1, 0, 5)
        assert insn.is_conditional_jump and insn.is_branch
        assert insn.jmp_op == JmpOp.JEQ
        assert insn.regs_read() == frozenset({1})

    def test_lddw_classification(self):
        insn = LDDW(2, 0x1_0000_0002)
        assert insn.is_lddw
        assert insn.imm64 == 0x1_0000_0002
        assert insn.regs_written() == frozenset({2})

    def test_ld_map_fd_marks_pseudo_source(self):
        insn = LD_MAP_FD(1, 3)
        assert insn.is_lddw and insn.src == 1 and insn.imm == 3

    def test_with_fields_returns_new_instruction(self):
        insn = MOV64_IMM(1, 5)
        other = insn.with_fields(imm=6)
        assert other.imm == 6 and insn.imm == 5
        assert insn != other

    def test_instruction_is_hashable_and_frozen(self):
        insn = MOV64_IMM(1, 5)
        assert hash(insn) == hash(MOV64_IMM(1, 5))
        with pytest.raises(Exception):
            insn.imm = 9  # type: ignore[misc]

    def test_insn_class_decoding(self):
        assert MOV64_IMM(0, 0).insn_class == InsnClass.ALU64
        assert JEQ_IMM(0, 0, 0).insn_class == InsnClass.JMP
        assert LDX_MEM(MemSize.B, 0, 1, 0).insn_class == InsnClass.LDX


def _cls(opcode):
    return InsnClass(opcode & 0x07)


def _mode(opcode):
    return MemMode(opcode & 0xE0)


#: The enum-constructing definitions of the class predicates: the fast
#: ones must return the same value, or raise the same error, on every
#: encoding.
_ENUM_PREDICATES = {
    "insn_class": lambda o, off: _cls(o),
    "is_alu": lambda o, off: _cls(o) in (InsnClass.ALU, InsnClass.ALU64),
    "is_alu64": lambda o, off: _cls(o) == InsnClass.ALU64,
    "is_jump": lambda o, off: _cls(o) in (InsnClass.JMP, InsnClass.JMP32),
    "is_jump32": lambda o, off: _cls(o) == InsnClass.JMP32,
    "is_lddw": lambda o, off: (_cls(o) == InsnClass.LD
                               and _mode(o) == MemMode.IMM
                               and MemSize(o & 0x18) == MemSize.DW),
    "is_load": lambda o, off: (_cls(o) == InsnClass.LDX
                               and _mode(o) == MemMode.MEM),
    "is_store": lambda o, off: (_cls(o) in (InsnClass.ST, InsnClass.STX)
                                and _mode(o) == MemMode.MEM),
    "is_store_imm": lambda o, off: (_cls(o) == InsnClass.ST
                                    and _mode(o) == MemMode.MEM),
    "is_store_reg": lambda o, off: (_cls(o) == InsnClass.STX
                                    and _mode(o) == MemMode.MEM),
    "is_xadd": lambda o, off: (_cls(o) == InsnClass.STX
                               and _mode(o) == MemMode.XADD),
    "is_call": lambda o, off: (_cls(o) == InsnClass.JMP
                               and (o & 0xF0) == JmpOp.CALL),
    "is_exit": lambda o, off: (_cls(o) == InsnClass.JMP
                               and (o & 0xF0) == JmpOp.EXIT),
    "is_unconditional_jump": lambda o, off: (_cls(o) == InsnClass.JMP
                                             and (o & 0xF0) == JmpOp.JA),
    "is_conditional_jump": lambda o, off: (
        _cls(o) in (InsnClass.JMP, InsnClass.JMP32)
        and JmpOp(o & 0xF0) not in (JmpOp.JA, JmpOp.CALL, JmpOp.EXIT)),
    "is_nop": lambda o, off: (_cls(o) == InsnClass.JMP
                              and (o & 0xF0) == JmpOp.JA and off == 0),
}
_ENUM_PREDICATES["is_memory"] = lambda o, off: (
    _ENUM_PREDICATES["is_load"](o, off)
    or _ENUM_PREDICATES["is_store"](o, off)
    or _ENUM_PREDICATES["is_xadd"](o, off))
_ENUM_PREDICATES["is_branch"] = lambda o, off: (
    _ENUM_PREDICATES["is_conditional_jump"](o, off)
    or _ENUM_PREDICATES["is_unconditional_jump"](o, off)
    or _ENUM_PREDICATES["is_exit"](o, off))


def _outcome(fn):
    try:
        return fn()
    except ValueError as exc:
        return type(exc)


def test_predicates_equal_enum_definitions_on_every_encoding():
    predicates = sorted(name for name in dir(Instruction)
                        if name.startswith("is_") or name == "insn_class")
    assert sorted(_ENUM_PREDICATES) == predicates
    for opcode in range(256):
        for off in (-1, 0, 1):
            insn = Instruction(opcode=opcode, off=off)
            for name, reference in _ENUM_PREDICATES.items():
                got = _outcome(lambda: getattr(insn, name))
                want = _outcome(lambda: reference(opcode, off))
                assert got == want and type(got) is type(want), (
                    f"{name} on opcode {opcode:#04x} off {off}: "
                    f"{got!r} != {want!r}")
