"""Tests for the register value-range analysis.

The unsigned 64-bit interval domain lives in :mod:`repro.bpf.valrange`;
the fused analysis walks programs with it, so the range checks on whole
programs read the interval and constant of each register from
:func:`repro.analysis.states_before`.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import states_before
from repro.bpf import builders
from repro.bpf.hooks import HookType
from repro.bpf.opcodes import JmpOp, MemSize
from repro.bpf.program import BpfProgram
from repro.bpf.valrange import ValueInterval
from repro.corpus import get_benchmark
from repro.interpreter import ProgramInput, run_program

U64 = (1 << 64) - 1


def _states(program):
    """The fused state before each instruction of an XDP program."""
    if not isinstance(program, BpfProgram):
        program = BpfProgram.create(list(program), HookType.XDP)
    return states_before(program.instructions, program.hook)


# --------------------------------------------------------------------------- #
# ValueInterval lattice and arithmetic
# --------------------------------------------------------------------------- #
class TestValueInterval:
    def test_constant_and_top(self):
        const = ValueInterval.constant(42)
        assert const.is_constant and const.const == 42
        assert ValueInterval.top().is_top
        assert ValueInterval.top().const is None

    def test_invalid_intervals_rejected(self):
        with pytest.raises(ValueError):
            ValueInterval(5, 4)
        with pytest.raises(ValueError):
            ValueInterval(-1, 4)

    def test_join_is_hull(self):
        joined = ValueInterval(2, 5).join(ValueInterval(10, 12))
        assert (joined.lo, joined.hi) == (2, 12)

    def test_meet_intersects_or_is_empty(self):
        assert ValueInterval(0, 10).meet(ValueInterval(5, 20)) == \
            ValueInterval(5, 10)
        assert ValueInterval(0, 4).meet(ValueInterval(5, 20)) is None

    def test_add_overflow_goes_to_top(self):
        assert ValueInterval(U64 - 1, U64).add(ValueInterval(2, 2)).is_top

    def test_and_bounded_by_operands(self):
        result = ValueInterval(0, 0xFF).bitwise_and(ValueInterval(0, 0xF))
        assert result.hi <= 0xF

    def test_lshift_by_constant(self):
        shifted = ValueInterval(1, 4).lshift(ValueInterval.constant(3))
        assert (shifted.lo, shifted.hi) == (8, 32)

    def test_truncate32(self):
        assert ValueInterval.constant(0x1_0000_0001).truncate32() == \
            ValueInterval(0, 0xFFFFFFFF)
        assert ValueInterval.constant(7).truncate32().const == 7

    @settings(max_examples=60, deadline=None)
    @given(a=st.integers(min_value=0, max_value=U64),
           b=st.integers(min_value=0, max_value=U64),
           c=st.integers(min_value=0, max_value=U64))
    def test_join_contains_both_property(self, a, b, c):
        interval = ValueInterval.constant(a).join(ValueInterval.constant(b))
        assert interval.contains(a) and interval.contains(b)
        meet = interval.meet(ValueInterval.constant(a))
        assert meet is not None and meet.contains(a)


# --------------------------------------------------------------------------- #
# The analysis on straight-line code
# --------------------------------------------------------------------------- #
class TestStraightLineRanges:
    def test_constants_propagate_through_alu(self):
        states = _states([
            builders.MOV64_IMM(2, 6),
            builders.ADD64_IMM(2, 10),
            builders.LSH64_IMM(2, 2),
            builders.MOV64_REG(0, 2),
            builders.EXIT_INSN(),
        ])
        assert states[1].regs[2].const == 6
        assert states[2].regs[2].const == 16
        assert states[3].regs[2].const == 64

    def test_lddw_constant(self):
        states = _states([
            builders.LDDW(3, 0x00000000FFE00000),
            builders.MOV64_IMM(0, 0),
            builders.EXIT_INSN(),
        ])
        assert states[1].regs[3].const == 0x00000000FFE00000

    def test_load_bounded_by_width(self):
        states = _states([
            builders.MOV64_IMM(1, 0),
            builders.STX_MEM(MemSize.W, 10, 1, -4),
            builders.LDX_MEM(MemSize.B, 2, 10, -4),
            builders.MOV64_REG(0, 2),
            builders.EXIT_INSN(),
        ])
        assert states[3].regs[2].rng.hi == 0xFF

    def test_helper_call_clobbers_r0_to_r5(self):
        program = get_benchmark("xdp_pktcntr").program()
        states = _states(program)
        call_index = next(i for i, insn in enumerate(program.instructions)
                          if insn.is_call)
        after = states[call_index + 1].regs
        assert after[1].rng.is_top
        # Only r0 carries the call's result; r1-r5 are no longer readable.
        assert after[0].initialized
        assert not any(after[reg].initialized for reg in range(1, 6))

    def test_constants_before_collects_all(self):
        states = _states([
            builders.MOV64_IMM(2, 3),
            builders.MOV64_IMM(3, 9),
            builders.MOV64_REG(0, 2),
            builders.EXIT_INSN(),
        ])
        constants = {reg: value.const
                     for reg, value in enumerate(states[2].regs)
                     if value.const is not None}
        assert constants[2] == 3 and constants[3] == 9

    def test_32bit_op_truncates(self):
        states = _states([
            builders.LDDW(2, 0xAAAA_BBBB_CCCC_DDDD),
            builders.MOV32_REG(2, 2),    # zero-extends the low 32 bits
            builders.MOV64_REG(0, 2),
            builders.EXIT_INSN(),
        ])
        assert states[2].regs[2].rng.hi <= 0xFFFFFFFF
        assert states[2].regs[2].const == 0xCCCCDDDD


# --------------------------------------------------------------------------- #
# Branch refinement
# --------------------------------------------------------------------------- #
class TestBranchRefinement:
    def _branchy(self, op, imm):
        # r2 = stack word; if cond(r2, imm) goto exit path; else r0 = r2
        return _states([
            builders.MOV64_IMM(2, 0),
            builders.STX_MEM(MemSize.W, 10, 2, -4),
            builders.LDX_MEM(MemSize.W, 2, 10, -4),
            builders.JMP_IMM(op, 2, imm, 2),
            builders.MOV64_REG(0, 2),      # fallthrough: branch not taken
            builders.EXIT_INSN(),
            builders.MOV64_REG(0, 2),      # taken target
            builders.EXIT_INSN(),
        ])

    def test_jlt_refines_taken_edge(self):
        states = self._branchy(JmpOp.JLT, 16)
        taken = states[6].regs[2].rng
        fallthrough = states[4].regs[2].rng
        assert taken.hi == 15
        assert fallthrough.lo == 16
        assert (taken, fallthrough) == (ValueInterval(0, 15),
                                        ValueInterval(16, 0xFFFFFFFF))

    def test_jeq_makes_register_constant_on_taken_edge(self):
        states = self._branchy(JmpOp.JEQ, 7)
        assert states[6].regs[2].const == 7
        assert states[4].regs[2].const is None
        assert states[4].regs[2].rng == ValueInterval(0, 0xFFFFFFFF)

    def test_jgt_refines_both_edges(self):
        states = self._branchy(JmpOp.JGT, 100)
        assert states[6].regs[2].rng.lo == 101
        assert states[4].regs[2].rng.hi == 100
        assert states[6].regs[2].rng == ValueInterval(101, 0xFFFFFFFF)
        assert states[4].regs[2].rng == ValueInterval(0, 100)

    def test_join_at_merge_point_is_hull(self):
        states = _states([
            builders.MOV64_IMM(2, 0),
            builders.JMP_IMM(JmpOp.JEQ, 1, 0, 1),
            builders.MOV64_IMM(2, 8),
            builders.MOV64_REG(0, 2),     # merge point: r2 in {0, 8}
            builders.EXIT_INSN(),
        ])
        merged = states[3].regs[2]
        assert merged.rng.lo == 0 and merged.rng.hi == 8
        assert merged.const is None

    def test_context_dependent_precondition_from_paper(self):
        """§9 example 2: r3 is known to be 0x00000000ffe00000 before the
        mask-and-shift sequence — the precondition K2 exploited."""
        states = _states([
            builders.LDDW(3, 0x00000000FFE00000),
            builders.MOV64_IMM(2, 0x12345),
            builders.MOV64_REG(0, 2),
            builders.AND64_REG(0, 3),
            builders.RSH64_IMM(0, 21),
            builders.EXIT_INSN(),
        ])
        assert states[3].regs[3].const == 0x00000000FFE00000


# --------------------------------------------------------------------------- #
# Soundness: the analysis never excludes a value the interpreter produces
# --------------------------------------------------------------------------- #
@settings(max_examples=30, deadline=None)
@given(a=st.integers(min_value=0, max_value=2**31 - 1),
       b=st.integers(min_value=0, max_value=2**31 - 1),
       shift=st.integers(min_value=0, max_value=31))
def test_exit_value_inside_predicted_interval_property(a, b, shift):
    program = BpfProgram.create([
        builders.MOV64_IMM(0, a),
        builders.ADD64_IMM(0, b),
        builders.RSH64_IMM(0, shift),
        builders.EXIT_INSN(),
    ], HookType.XDP)
    predicted = _states(program)[3].regs[0].rng
    output = run_program(program, ProgramInput(packet=bytes(64)))
    assert predicted.contains(output.observable()[0])
