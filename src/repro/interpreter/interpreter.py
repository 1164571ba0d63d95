"""The BPF bytecode interpreter.

A faithful executable model of the instruction subset used in this
reproduction, mirroring the role of K2's internal interpreter (paper §7): it
runs candidate programs on test cases so that incorrect or unsafe candidates
can be pruned cheaply before any solver query is made.

The interpreter shares its instruction semantics with the symbolic
formalization in :mod:`repro.equivalence.symbolic` through the
:mod:`repro.semantics` tables, mirroring how K2 auto-generates both the
interpreter and the verification-condition generator from one specification.
"""

from __future__ import annotations

import threading
from typing import Callable, List, Optional, Sequence

from ..bpf.helpers import HelperId, XDP_REDIRECT, helper_spec
from ..bpf.instruction import Instruction
from ..bpf.opcodes import AluOp, SrcOperand, STACK_SIZE
from ..bpf.program import BpfProgram
from ..bpf.regions import (
    CTX_BASE, PACKET_BASE, STACK_BASE, MemRegion, region_for_address,
)
from ..semantics import alu_op_concrete, byteswap, jump_taken_concrete
from .errors import (
    BpfFault,
    InstructionLimitExceeded,
    InvalidHelperArgument,
    InvalidJumpTarget,
    NullPointerDereference,
    OutOfBoundsAccess,
    ReadOnlyRegisterWrite,
    UninitializedRead,
    UnsupportedInstruction,
)
from .state import MAP_PTR_BASE, MachineState, ProgramInput, ProgramOutput

__all__ = ["Interpreter", "run_program", "DEFAULT_STEP_LIMIT", "StopPredicate"]

_U64 = (1 << 64) - 1
DEFAULT_STEP_LIMIT = 65536
_DEFAULT_STEP_LIMIT = DEFAULT_STEP_LIMIT

#: ``run_batch``'s early exit: called with each test's index and output,
#: it ends the batch (that output included) by returning true.
StopPredicate = Callable[[int, ProgramOutput], bool]


class Interpreter:
    """Executes BPF programs on concrete test inputs.

    This is the reference ("legacy") execution engine: it re-dispatches on the
    instruction's opcode properties at every step.  The decode-once engine in
    :mod:`repro.engine` is the hot-loop implementation; this class remains the
    behavioural oracle (differential tests compare the two bit-for-bit), and
    it exposes the same ``run`` / ``run_batch`` surface so an instance can
    stand in wherever an engine instance is accepted.

    Args:
        step_limit: dynamic instruction budget (protects against looping
            candidates produced by the synthesizer).
        opcode_cost_fn: optional callable mapping an instruction to its
            estimated execution cost in nanoseconds; when provided the
            interpreter accumulates the total in the output, which is how
            the performance rig derives per-packet service times.
        strict_uninitialized: when True, reading an uninitialized register or
            stack byte is a fault (matching the kernel checker's semantics);
            when False such reads return zero (useful for differential
            testing of the symbolic encoder).
    """

    def __init__(self, step_limit: int = _DEFAULT_STEP_LIMIT,
                 opcode_cost_fn: Optional[Callable[[Instruction], float]] = None,
                 strict_uninitialized: bool = True):
        self.step_limit = step_limit
        self.opcode_cost_fn = opcode_cost_fn
        self.strict_uninitialized = strict_uninitialized

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def run(self, program: BpfProgram, test: ProgramInput) -> ProgramOutput:
        """Execute ``program`` on ``test`` and return its observable output.

        Faults never propagate as Python exceptions: they are reported in
        ``ProgramOutput.fault`` so callers can treat them as "incorrect /
        unsafe behaviour observed on this input".
        """
        state = MachineState(program.hook, program.maps, test)
        output = ProgramOutput()
        try:
            output.return_value = self._execute(program, state, output)
        except BpfFault as fault:
            output.fault = f"{type(fault).__name__}: {fault}"
            output.return_value = None
        output.packet = state.packet_bytes()
        output.maps = state.snapshot_maps()
        return output

    def run_batch(self, program: BpfProgram, tests: Sequence[ProgramInput],
                  stop: Optional[StopPredicate] = None,
                  ) -> List[ProgramOutput]:
        """Execute ``program`` on every test, in order.

        Mirrors :meth:`repro.engine.ExecutionEngine.run_batch` so the legacy
        interpreter can stand in for an engine instance: the batch ends
        after the first output for which ``stop(index, output)`` returns
        true (that output is included in the returned list).
        """
        outputs: List[ProgramOutput] = []
        for index, test in enumerate(tests):
            output = self.run(program, test)
            outputs.append(output)
            if stop is not None and stop(index, output):
                break
        return outputs

    # ------------------------------------------------------------------ #
    # Execution loop
    # ------------------------------------------------------------------ #
    def _execute(self, program: BpfProgram, state: MachineState,
                 output: ProgramOutput) -> int:
        instructions = program.instructions
        pc = 0
        steps = 0
        while True:
            if steps >= self.step_limit:
                raise InstructionLimitExceeded(
                    f"exceeded {self.step_limit} steps", pc)
            if not 0 <= pc < len(instructions):
                raise InvalidJumpTarget(f"pc {pc} outside program", pc)
            insn = instructions[pc]
            steps += 1
            output.steps = steps
            if self.opcode_cost_fn is not None:
                output.estimated_ns += self.opcode_cost_fn(insn)

            if insn.is_nop:
                pc += 1
                continue
            if insn.is_exit:
                return self._read_reg(state, 0, pc)
            if insn.is_unconditional_jump:
                pc = pc + 1 + insn.off
                continue
            if insn.is_conditional_jump:
                pc = self._jump(state, insn, pc)
                continue
            if insn.is_call:
                self._call_helper(state, insn, pc)
                pc += 1
                continue
            if insn.is_lddw:
                self._write_reg(state, insn.dst,
                                MAP_PTR_BASE + insn.imm if insn.src == 1
                                else (insn.imm64 or insn.imm), pc)
                pc += 1
                continue
            if insn.is_alu:
                self._alu(state, insn, pc)
                pc += 1
                continue
            if insn.is_load:
                self._load(state, insn, pc)
                pc += 1
                continue
            if insn.is_store or insn.is_xadd:
                self._store(state, insn, pc)
                pc += 1
                continue
            raise UnsupportedInstruction(f"opcode {insn.opcode:#x}", pc)

    # ------------------------------------------------------------------ #
    # Register access
    # ------------------------------------------------------------------ #
    def _read_reg(self, state: MachineState, reg: int, pc: int) -> int:
        if self.strict_uninitialized and not state.reg_initialized[reg]:
            raise UninitializedRead(f"read of uninitialized r{reg}", pc)
        return state.regs[reg] & _U64

    def _write_reg(self, state: MachineState, reg: int, value: int, pc: int) -> None:
        if reg == 10:
            raise ReadOnlyRegisterWrite("write to frame pointer r10", pc)
        state.regs[reg] = value & _U64
        state.reg_initialized[reg] = True

    # ------------------------------------------------------------------ #
    # ALU
    # ------------------------------------------------------------------ #
    def _alu(self, state: MachineState, insn: Instruction, pc: int) -> None:
        op = insn.alu_op
        is64 = insn.is_alu64
        if op == AluOp.END:
            value = self._read_reg(state, insn.dst, pc)
            swap = insn.src_operand == SrcOperand.X  # be = swap on LE hosts
            width = insn.imm
            result = _byteswap(value, width) if swap else value & ((1 << width) - 1)
            self._write_reg(state, insn.dst, result, pc)
            return
        if op == AluOp.NEG:
            value = self._read_reg(state, insn.dst, pc)
            result = alu_op_concrete(AluOp.SUB, 0, value, is64)
            self._write_reg(state, insn.dst, result, pc)
            return
        if insn.uses_reg_source:
            src = self._read_reg(state, insn.src, pc)
        else:
            src = insn.imm & _U64
        if op == AluOp.MOV:
            result = src & (_U64 if is64 else 0xFFFFFFFF)
            self._write_reg(state, insn.dst, result, pc)
            return
        dst = self._read_reg(state, insn.dst, pc)
        result = alu_op_concrete(op, dst, src, is64)
        self._write_reg(state, insn.dst, result, pc)

    # ------------------------------------------------------------------ #
    # Jumps
    # ------------------------------------------------------------------ #
    def _jump(self, state: MachineState, insn: Instruction, pc: int) -> int:
        dst = self._read_reg(state, insn.dst, pc)
        if insn.uses_reg_source:
            src = self._read_reg(state, insn.src, pc)
        else:
            src = insn.imm & _U64
        taken = jump_taken_concrete(insn.jmp_op, dst, src,
                                    is64=not insn.is_jump32)
        if taken:
            return pc + 1 + insn.off
        return pc + 1

    # ------------------------------------------------------------------ #
    # Memory access
    # ------------------------------------------------------------------ #
    def _resolve(self, state: MachineState, address: int, width: int,
                 pc: int, for_write: bool) -> tuple[bytearray, int, MemRegion]:
        """Route a flat address to (buffer, offset) with bounds checking."""
        if address == 0:
            raise NullPointerDereference("NULL pointer dereference", pc)
        region = region_for_address(address)
        if region == MemRegion.STACK:
            offset = address - STACK_BASE
            if not 0 <= offset <= STACK_SIZE - width:
                raise OutOfBoundsAccess(
                    f"stack access at offset {offset - STACK_SIZE} width {width}", pc)
            return state.stack, offset, region
        if region == MemRegion.PACKET:
            offset = address - PACKET_BASE
            if not state.packet_start <= offset <= state.packet_end - width:
                raise OutOfBoundsAccess(
                    f"packet access at {offset - state.packet_start} width {width} "
                    f"(packet length {state.packet_length})", pc)
            return state.packet_buffer, offset, region
        if region == MemRegion.CTX:
            offset = address - CTX_BASE
            if not 0 <= offset <= state.hook.ctx_size - width:
                raise OutOfBoundsAccess(
                    f"ctx access at {offset} width {width}", pc)
            return state.ctx, offset, region
        if region == MemRegion.MAP_VALUE:
            for map_state in state.maps.values():
                if map_state.owns_address(address):
                    buffer, offset = map_state.value_buffer(address)
                    if offset + width > map_state.definition.value_size:
                        raise OutOfBoundsAccess(
                            f"map value access at {offset} width {width}", pc)
                    return buffer, offset, region
            raise OutOfBoundsAccess(f"map value address {address:#x} not live", pc)
        raise NullPointerDereference(
            f"access through non-pointer value {address:#x}", pc)

    def _load(self, state: MachineState, insn: Instruction, pc: int) -> None:
        address = (self._read_reg(state, insn.src, pc) + insn.off) & _U64
        width = insn.access_bytes
        buffer, offset, region = self._resolve(state, address, width, pc, False)
        if (region == MemRegion.STACK and self.strict_uninitialized
                and any(not state.stack_initialized[offset + i] for i in range(width))):
            raise UninitializedRead(
                f"read of uninitialized stack bytes at {offset - STACK_SIZE}", pc)
        value = int.from_bytes(buffer[offset:offset + width], "little")
        # Loads through ctx packet-pointer fields yield flat packet addresses
        # (the kernel rewrites such 32-bit ctx accesses into pointer loads).
        if region == MemRegion.CTX:
            field = state.hook.field_by_offset(address - CTX_BASE)
            if field is not None and field.size == width:
                from ..bpf.hooks import CtxFieldKind

                if field.kind in (CtxFieldKind.PACKET_PTR, CtxFieldKind.PACKET_END_PTR):
                    value = PACKET_BASE + value
        self._write_reg(state, insn.dst, value, pc)

    def _store(self, state: MachineState, insn: Instruction, pc: int) -> None:
        address = (self._read_reg(state, insn.dst, pc) + insn.off) & _U64
        width = insn.access_bytes
        buffer, offset, region = self._resolve(state, address, width, pc, True)
        if region == MemRegion.CTX:
            raise OutOfBoundsAccess("stores to ctx memory are not permitted", pc)
        if insn.is_xadd:
            src = self._read_reg(state, insn.src, pc)
            current = int.from_bytes(buffer[offset:offset + width], "little")
            value = (current + src) & ((1 << (8 * width)) - 1)
        elif insn.is_store_reg:
            value = self._read_reg(state, insn.src, pc) & ((1 << (8 * width)) - 1)
        else:
            value = insn.imm & ((1 << (8 * width)) - 1)
        buffer[offset:offset + width] = value.to_bytes(width, "little")
        if region == MemRegion.STACK:
            for i in range(width):
                state.stack_initialized[offset + i] = 1

    # ------------------------------------------------------------------ #
    # Helper calls
    # ------------------------------------------------------------------ #
    def _read_mem_bytes(self, state: MachineState, address: int, width: int,
                        pc: int) -> bytes:
        buffer, offset, _ = self._resolve(state, address, width, pc, False)
        return bytes(buffer[offset:offset + width])

    def _write_mem_bytes(self, state: MachineState, address: int, data: bytes,
                         pc: int) -> None:
        buffer, offset, region = self._resolve(state, address, len(data), pc, True)
        buffer[offset:offset + len(data)] = data
        if region == MemRegion.STACK:
            for i in range(len(data)):
                state.stack_initialized[offset + i] = 1

    def _map_from_reg(self, state: MachineState, reg: int, pc: int):
        value = self._read_reg(state, reg, pc)
        fd = value - MAP_PTR_BASE
        if fd not in state.maps:
            raise InvalidHelperArgument(
                f"r{reg} does not hold a valid map reference", pc)
        return state.maps[fd]

    def _call_helper(self, state: MachineState, insn: Instruction, pc: int) -> None:
        try:
            spec = helper_spec(insn.imm)
        except KeyError as exc:
            raise UnsupportedInstruction(f"unknown helper {insn.imm}", pc) from exc
        helper_id = spec.helper_id
        result = 0

        if helper_id == HelperId.MAP_LOOKUP_ELEM:
            map_state = self._map_from_reg(state, 1, pc)
            key = self._read_mem_bytes(
                state, self._read_reg(state, 2, pc),
                map_state.definition.key_size, pc)
            result = map_state.lookup(key)
        elif helper_id == HelperId.MAP_UPDATE_ELEM:
            map_state = self._map_from_reg(state, 1, pc)
            key = self._read_mem_bytes(
                state, self._read_reg(state, 2, pc),
                map_state.definition.key_size, pc)
            value = self._read_mem_bytes(
                state, self._read_reg(state, 3, pc),
                map_state.definition.value_size, pc)
            result = map_state.update(key, value) & _U64
        elif helper_id == HelperId.MAP_DELETE_ELEM:
            map_state = self._map_from_reg(state, 1, pc)
            key = self._read_mem_bytes(
                state, self._read_reg(state, 2, pc),
                map_state.definition.key_size, pc)
            result = map_state.delete(key) & _U64
        elif helper_id == HelperId.KTIME_GET_NS:
            result = state.test.time_ns & _U64
        elif helper_id == HelperId.KTIME_GET_BOOT_NS:
            result = (state.test.time_ns + 1) & _U64
        elif helper_id == HelperId.GET_PRANDOM_U32:
            result = state.next_random()
        elif helper_id == HelperId.GET_SMP_PROCESSOR_ID:
            result = state.test.cpu_id & 0xFFFFFFFF
        elif helper_id == HelperId.XDP_ADJUST_HEAD:
            result = self._adjust_head(state, pc)
        elif helper_id == HelperId.XDP_ADJUST_TAIL:
            result = self._adjust_tail(state, pc)
        elif helper_id == HelperId.XDP_ADJUST_META:
            result = 0
        elif helper_id == HelperId.REDIRECT_MAP:
            map_state = self._map_from_reg(state, 1, pc)
            index = self._read_reg(state, 2, pc)
            flags = self._read_reg(state, 3, pc)
            in_range = index < map_state.definition.max_entries
            result = XDP_REDIRECT if in_range else (flags & 0xFFFFFFFF)
        elif helper_id == HelperId.REDIRECT:
            result = XDP_REDIRECT
        elif helper_id == HelperId.PERF_EVENT_OUTPUT:
            result = 0
        elif helper_id == HelperId.TAIL_CALL:
            result = 0
        elif helper_id == HelperId.FIB_LOOKUP:
            result = self._fib_lookup(state, pc)
        else:  # pragma: no cover - registry and dispatch kept in sync
            raise UnsupportedInstruction(f"helper {spec.name} not implemented", pc)

        state.helper_trace.append((spec.name, result))
        self._write_reg(state, 0, result, pc)
        # r1-r5 are clobbered and become unreadable after the call (§6).
        for reg in range(1, 6):
            state.reg_initialized[reg] = False

    def _adjust_head(self, state: MachineState, pc: int) -> int:
        delta = self._read_reg(state, 2, pc)
        if delta >= 1 << 63:
            delta -= 1 << 64
        new_start = state.packet_start + delta
        if not 0 <= new_start <= state.packet_end:
            return (-1) & _U64
        state.packet_start = new_start
        state.refresh_ctx_packet_pointers()
        return 0

    def _adjust_tail(self, state: MachineState, pc: int) -> int:
        delta = self._read_reg(state, 2, pc)
        if delta >= 1 << 63:
            delta -= 1 << 64
        new_end = state.packet_end + delta
        if not state.packet_start <= new_end <= len(state.packet_buffer):
            return (-1) & _U64
        state.packet_end = new_end
        state.refresh_ctx_packet_pointers()
        return 0

    def _fib_lookup(self, state: MachineState, pc: int) -> int:
        """Deterministic stand-in for the kernel FIB: derive the next-hop MAC
        addresses from the destination address bytes in the params struct."""
        params_addr = self._read_reg(state, 2, pc)
        params = bytearray(self._read_mem_bytes(state, params_addr, 64, pc))
        ipv4_dst = int.from_bytes(params[24:28], "little")
        smac = ((ipv4_dst * 2654435761) & 0xFFFFFFFFFFFF).to_bytes(6, "little")
        dmac = ((ipv4_dst * 40503) & 0xFFFFFFFFFFFF).to_bytes(6, "little")
        params[52:58] = smac
        params[58:64] = dmac
        self._write_mem_bytes(state, params_addr, bytes(params), pc)
        return 0


#: Shared with the symbolic layer through :mod:`repro.semantics`; kept under
#: the old private name for callers inside this package.
_byteswap = byteswap

#: Per-thread default engine reused by :func:`run_program`, so convenience
#: calls in loops do not rebuild an engine (and re-decode) per invocation.
#: Thread-local because an engine's machine state is scratch shared across
#: its runs — the pre-engine, fresh-interpreter-per-call behaviour was
#: thread-safe and this keeps the convenience API that way.
_thread_engines = threading.local()


def run_program(program: BpfProgram, test: ProgramInput,
                **kwargs) -> ProgramOutput:
    """Convenience wrapper: execute ``program`` on ``test`` once.

    Calls with default settings share one long-lived decode-once engine per
    thread (its decode cache makes repeated calls on the same program
    cheap); explicit keyword arguments fall back to a one-shot legacy
    interpreter with exactly those settings.
    """
    if kwargs:
        return Interpreter(**kwargs).run(program, test)
    engine = getattr(_thread_engines, "engine", None)
    if engine is None:
        from ..engine import ExecutionEngine

        engine = _thread_engines.engine = ExecutionEngine()
    return engine.run(program, test)
