"""Decode-once compilation of BPF programs into micro-op closures.

The legacy :class:`repro.interpreter.Interpreter` re-probes an instruction's
opcode properties (``is_nop`` / ``is_exit`` / ``is_alu`` / ...) on every
executed step; each probe constructs enum objects, so interpretation cost is
dominated by dispatch rather than by the instruction's actual semantics.
This module resolves that dispatch exactly once, at *decode* time: every
instruction is compiled into a micro-op — a closure ``(machine, pc) ->
next_pc`` with its operands, masks, jump deltas and helper bodies already
bound — and a program becomes a flat tuple of micro-ops indexed by pc.

Two levels of caching keep decoding off the synthesis hot path:

* a per-instruction memo keyed on the instruction's field tuple, so when an
  MCMC proposal mutates a small window of a program, the unchanged
  instructions outside the window are never re-decoded (their micro-ops are
  position-independent: jump targets are relative deltas applied to the pc
  the runner passes in);
* an LRU cache of whole decoded programs keyed on
  :meth:`~repro.bpf.program.BpfProgram.content_key`, so the accept/reject
  ping-pong between a chain's current program and its proposals never decodes
  the same program twice.

Semantics are shared with the legacy interpreter through
:mod:`repro.semantics` (``alu_op_concrete`` / ``jump_taken_concrete`` /
``byteswap``) and the same fault types and messages, so the two engines are
bit-identical — ``tests/test_engine.py`` enforces this differentially.
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict
from typing import Callable, Dict, Optional, Tuple

from ..bpf.helpers import HelperId, XDP_REDIRECT, helper_spec
from ..bpf.hooks import CtxFieldKind
from ..bpf.instruction import Instruction
from ..bpf.opcodes import AluOp, SrcOperand, STACK_SIZE
from ..bpf.program import BpfProgram
from ..bpf.regions import (
    CTX_BASE,
    PACKET_BASE,
    STACK_BASE,
    MemRegion,
    region_for_address,
)
from ..interpreter.errors import (
    InvalidHelperArgument,
    NullPointerDereference,
    OutOfBoundsAccess,
    ReadOnlyRegisterWrite,
    UninitializedRead,
    UnsupportedInstruction,
)
from ..interpreter.state import MAP_PTR_BASE
from ..semantics import alu_op_concrete, byteswap, jump_taken_concrete

__all__ = ["MicroOp", "DecodedProgram", "ProgramDecoder", "compile_instruction"]

_U64 = (1 << 64) - 1

#: A compiled instruction: executes one step against a machine state and
#: returns the next pc, or ``None`` when the program exits (the runner then
#: reads ``machine.exit_value``).
MicroOp = Callable[[object, int], Optional[int]]

#: Upper bound on the per-instruction memo: far above what any search run
#: produces (operand pools are small), present only as a leak backstop.
_MAX_INSN_MEMO = 1 << 16


# --------------------------------------------------------------------------- #
# Memory access (mirrors Interpreter._resolve and friends exactly)
# --------------------------------------------------------------------------- #
def resolve_address(machine, address: int, width: int, pc: int,
                    write: bool = True):
    """Route a flat address to ``(buffer, offset, region)`` with bounds checks.

    ``write`` is forwarded to :meth:`MapState.value_buffer` as the dirty
    marker; read paths pass ``False`` so read-only maps stay pristine for
    the dirty-aware snapshot/reset-image fast paths.
    """
    if address == 0:
        raise NullPointerDereference("NULL pointer dereference", pc)
    region = region_for_address(address)
    if region is MemRegion.STACK:
        offset = address - STACK_BASE
        if not 0 <= offset <= STACK_SIZE - width:
            raise OutOfBoundsAccess(
                f"stack access at offset {offset - STACK_SIZE} width {width}", pc)
        return machine.stack, offset, region
    if region is MemRegion.PACKET:
        offset = address - PACKET_BASE
        if not machine.packet_start <= offset <= machine.packet_end - width:
            raise OutOfBoundsAccess(
                f"packet access at {offset - machine.packet_start} width {width} "
                f"(packet length {machine.packet_length})", pc)
        return machine.packet_buffer, offset, region
    if region is MemRegion.CTX:
        offset = address - CTX_BASE
        if not 0 <= offset <= machine.hook.ctx_size - width:
            raise OutOfBoundsAccess(f"ctx access at {offset} width {width}", pc)
        return machine.ctx, offset, region
    if region is MemRegion.MAP_VALUE:
        for map_state in machine.maps.values():
            access = map_state.value_access(address, write)
            if access is not None:
                buffer, offset = access
                if offset + width > map_state.definition.value_size:
                    raise OutOfBoundsAccess(
                        f"map value access at {offset} width {width}", pc)
                return buffer, offset, region
        raise OutOfBoundsAccess(f"map value address {address:#x} not live", pc)
    raise NullPointerDereference(
        f"access through non-pointer value {address:#x}", pc)


def _read_reg(machine, reg: int, pc: int, strict: bool) -> int:
    if strict and not machine.reg_initialized[reg]:
        raise UninitializedRead(f"read of uninitialized r{reg}", pc)
    return machine.regs[reg] & _U64


def _read_mem_bytes(machine, address: int, width: int, pc: int) -> bytes:
    # Stack fast path: helper key/value arguments almost always live on the
    # stack, and an in-bounds stack read can neither fault nor need routing
    # (negative/foreign offsets fall through to the full resolver).
    offset = address - STACK_BASE
    if 0 <= offset <= STACK_SIZE - width:
        return bytes(machine.stack[offset:offset + width])
    buffer, offset, _ = resolve_address(machine, address, width, pc, False)
    return bytes(buffer[offset:offset + width])


def _write_mem_bytes(machine, address: int, data: bytes, pc: int) -> None:
    buffer, offset, region = resolve_address(machine, address, len(data), pc)
    buffer[offset:offset + len(data)] = data
    if region is MemRegion.STACK:
        machine.stack_initialized[offset:offset + len(data)] = b"\x01" * len(data)
    elif region is MemRegion.PACKET:
        # Invalidates the engine's image-cached packet output.
        machine.packet_dirty = True


def _map_from_reg(machine, reg: int, pc: int, strict: bool):
    value = _read_reg(machine, reg, pc, strict)
    state = machine.maps.get(value - MAP_PTR_BASE)
    if state is None:
        raise InvalidHelperArgument(
            f"r{reg} does not hold a valid map reference", pc)
    return state


# --------------------------------------------------------------------------- #
# Helper bodies (one function per helper id, mirroring Interpreter._call_helper)
# --------------------------------------------------------------------------- #
def _helper_map_lookup(machine, pc, strict):
    map_state = _map_from_reg(machine, 1, pc, strict)
    key = _read_mem_bytes(machine, _read_reg(machine, 2, pc, strict),
                          map_state.definition.key_size, pc)
    return map_state.lookup(key)


def _helper_map_update(machine, pc, strict):
    map_state = _map_from_reg(machine, 1, pc, strict)
    key = _read_mem_bytes(machine, _read_reg(machine, 2, pc, strict),
                          map_state.definition.key_size, pc)
    value = _read_mem_bytes(machine, _read_reg(machine, 3, pc, strict),
                            map_state.definition.value_size, pc)
    return map_state.update(key, value) & _U64


def _helper_map_delete(machine, pc, strict):
    map_state = _map_from_reg(machine, 1, pc, strict)
    key = _read_mem_bytes(machine, _read_reg(machine, 2, pc, strict),
                          map_state.definition.key_size, pc)
    return map_state.delete(key) & _U64


def _helper_adjust_head(machine, pc, strict):
    delta = _read_reg(machine, 2, pc, strict)
    if delta >= 1 << 63:
        delta -= 1 << 64
    new_start = machine.packet_start + delta
    if not 0 <= new_start <= machine.packet_end:
        return (-1) & _U64
    machine.packet_start = new_start
    machine.refresh_ctx_packet_pointers()
    return 0


def _helper_adjust_tail(machine, pc, strict):
    delta = _read_reg(machine, 2, pc, strict)
    if delta >= 1 << 63:
        delta -= 1 << 64
    new_end = machine.packet_end + delta
    if not machine.packet_start <= new_end <= len(machine.packet_buffer):
        return (-1) & _U64
    machine.packet_end = new_end
    machine.refresh_ctx_packet_pointers()
    return 0


def _helper_redirect_map(machine, pc, strict):
    map_state = _map_from_reg(machine, 1, pc, strict)
    index = _read_reg(machine, 2, pc, strict)
    flags = _read_reg(machine, 3, pc, strict)
    in_range = index < map_state.definition.max_entries
    return XDP_REDIRECT if in_range else (flags & 0xFFFFFFFF)


def _helper_fib_lookup(machine, pc, strict):
    # Deterministic FIB stand-in: next-hop MACs derived from the destination
    # address bytes, identical to the legacy interpreter's model.
    params_addr = _read_reg(machine, 2, pc, strict)
    params = bytearray(_read_mem_bytes(machine, params_addr, 64, pc))
    ipv4_dst = int.from_bytes(params[24:28], "little")
    smac = ((ipv4_dst * 2654435761) & 0xFFFFFFFFFFFF).to_bytes(6, "little")
    dmac = ((ipv4_dst * 40503) & 0xFFFFFFFFFFFF).to_bytes(6, "little")
    params[52:58] = smac
    params[58:64] = dmac
    _write_mem_bytes(machine, params_addr, bytes(params), pc)
    return 0


_HELPER_BODIES = {
    HelperId.MAP_LOOKUP_ELEM: _helper_map_lookup,
    HelperId.MAP_UPDATE_ELEM: _helper_map_update,
    HelperId.MAP_DELETE_ELEM: _helper_map_delete,
    HelperId.KTIME_GET_NS:
        lambda machine, pc, strict: machine.test.time_ns & _U64,
    HelperId.KTIME_GET_BOOT_NS:
        lambda machine, pc, strict: (machine.test.time_ns + 1) & _U64,
    HelperId.GET_PRANDOM_U32:
        lambda machine, pc, strict: machine.next_random(),
    HelperId.GET_SMP_PROCESSOR_ID:
        lambda machine, pc, strict: machine.test.cpu_id & 0xFFFFFFFF,
    HelperId.XDP_ADJUST_HEAD: _helper_adjust_head,
    HelperId.XDP_ADJUST_TAIL: _helper_adjust_tail,
    HelperId.XDP_ADJUST_META: lambda machine, pc, strict: 0,
    HelperId.REDIRECT_MAP: _helper_redirect_map,
    HelperId.REDIRECT: lambda machine, pc, strict: XDP_REDIRECT,
    HelperId.PERF_EVENT_OUTPUT: lambda machine, pc, strict: 0,
    HelperId.TAIL_CALL: lambda machine, pc, strict: 0,
    HelperId.FIB_LOOKUP: _helper_fib_lookup,
}


# --------------------------------------------------------------------------- #
# Per-instruction compilation
# --------------------------------------------------------------------------- #
def _op_nop(machine, pc):
    return pc + 1


def _compile_exit(strict: bool) -> MicroOp:
    def op(machine, pc):
        if strict and not machine.reg_initialized[0]:
            raise UninitializedRead("read of uninitialized r0", pc)
        machine.exit_value = machine.regs[0] & _U64
        return None
    return op


def _compile_ja(insn: Instruction) -> MicroOp:
    delta = 1 + insn.off

    def op(machine, pc):
        return pc + delta
    return op


def _compile_cond_jump(insn: Instruction, strict: bool) -> MicroOp:
    jop = insn.jmp_op
    dst = insn.dst
    delta = 1 + insn.off
    is64 = not insn.is_jump32
    if insn.uses_reg_source:
        src = insn.src

        def op(machine, pc):
            initialized = machine.reg_initialized
            if strict and not initialized[dst]:
                raise UninitializedRead(f"read of uninitialized r{dst}", pc)
            a = machine.regs[dst] & _U64
            if strict and not initialized[src]:
                raise UninitializedRead(f"read of uninitialized r{src}", pc)
            b = machine.regs[src] & _U64
            return pc + delta if jump_taken_concrete(jop, a, b, is64) else pc + 1
    else:
        imm = insn.imm & _U64

        def op(machine, pc):
            if strict and not machine.reg_initialized[dst]:
                raise UninitializedRead(f"read of uninitialized r{dst}", pc)
            a = machine.regs[dst] & _U64
            return pc + delta if jump_taken_concrete(jop, a, imm, is64) else pc + 1
    return op


def _compile_call(insn: Instruction, strict: bool) -> MicroOp:
    imm = insn.imm
    try:
        spec = helper_spec(imm)
    except KeyError:
        def op(machine, pc):
            raise UnsupportedInstruction(f"unknown helper {imm}", pc)
        return op
    body = _HELPER_BODIES.get(spec.helper_id)
    name = spec.name
    if body is None:  # pragma: no cover - registry and bodies kept in sync
        def op(machine, pc):
            raise UnsupportedInstruction(f"helper {name} not implemented", pc)
        return op

    def op(machine, pc):
        result = body(machine, pc, strict)
        machine.helper_trace.append((name, result))
        machine.regs[0] = result & _U64
        initialized = machine.reg_initialized
        initialized[0] = True
        # r1-r5 are clobbered and become unreadable after the call (§6).
        initialized[1] = initialized[2] = initialized[3] = False
        initialized[4] = initialized[5] = False
        return pc + 1
    return op


def _raise_r10_write(reads: Tuple[int, ...], strict: bool) -> MicroOp:
    """An instruction that writes r10: perform its register reads (their
    faults take precedence, matching the legacy ordering) then fault."""
    def op(machine, pc):
        if strict:
            initialized = machine.reg_initialized
            for reg in reads:
                if not initialized[reg]:
                    raise UninitializedRead(f"read of uninitialized r{reg}", pc)
        raise ReadOnlyRegisterWrite("write to frame pointer r10", pc)
    return op


def _compile_lddw(insn: Instruction) -> MicroOp:
    if insn.dst == 10:
        return _raise_r10_write((), strict=False)
    dst = insn.dst
    value = (MAP_PTR_BASE + insn.imm if insn.src == 1
             else (insn.imm64 or insn.imm)) & _U64

    def op(machine, pc):
        machine.regs[dst] = value
        machine.reg_initialized[dst] = True
        return pc + 1
    return op


def _compile_alu(insn: Instruction, strict: bool) -> MicroOp:
    kind = insn.alu_op
    is64 = insn.is_alu64
    dst = insn.dst

    if kind == AluOp.END:
        swap = insn.src_operand == SrcOperand.X
        width = insn.imm
        keep_mask = (1 << width) - 1
        to_r10 = dst == 10

        def op(machine, pc):
            if strict and not machine.reg_initialized[dst]:
                raise UninitializedRead(f"read of uninitialized r{dst}", pc)
            value = machine.regs[dst] & _U64
            # The byteswap runs before the r10 write check: its errors (odd
            # widths raise OverflowError) take precedence, as in the legacy
            # interpreter.
            result = byteswap(value, width) if swap else value & keep_mask
            if to_r10:
                raise ReadOnlyRegisterWrite("write to frame pointer r10", pc)
            machine.regs[dst] = result & _U64
            machine.reg_initialized[dst] = True
            return pc + 1
        return op

    if kind == AluOp.NEG:
        if dst == 10:
            return _raise_r10_write((), strict)

        def op(machine, pc):
            if strict and not machine.reg_initialized[dst]:
                raise UninitializedRead(f"read of uninitialized r{dst}", pc)
            value = machine.regs[dst] & _U64
            machine.regs[dst] = alu_op_concrete(AluOp.SUB, 0, value, is64)
            machine.reg_initialized[dst] = True
            return pc + 1
        return op

    uses_reg = insn.uses_reg_source
    src = insn.src

    if kind == AluOp.MOV:
        mov_mask = _U64 if is64 else 0xFFFFFFFF
        if dst == 10:
            return _raise_r10_write((src,) if uses_reg else (), strict)
        if uses_reg:
            def op(machine, pc):
                if strict and not machine.reg_initialized[src]:
                    raise UninitializedRead(f"read of uninitialized r{src}", pc)
                machine.regs[dst] = machine.regs[src] & mov_mask
                machine.reg_initialized[dst] = True
                return pc + 1
        else:
            value = (insn.imm & _U64) & mov_mask

            def op(machine, pc):
                machine.regs[dst] = value
                machine.reg_initialized[dst] = True
                return pc + 1
        return op

    if dst == 10:
        return _raise_r10_write((src, dst) if uses_reg else (dst,), strict)
    if uses_reg:
        def op(machine, pc):
            initialized = machine.reg_initialized
            if strict and not initialized[src]:
                raise UninitializedRead(f"read of uninitialized r{src}", pc)
            b = machine.regs[src] & _U64
            if strict and not initialized[dst]:
                raise UninitializedRead(f"read of uninitialized r{dst}", pc)
            machine.regs[dst] = alu_op_concrete(
                kind, machine.regs[dst] & _U64, b, is64)
            initialized[dst] = True
            return pc + 1
    else:
        imm = insn.imm & _U64

        def op(machine, pc):
            if strict and not machine.reg_initialized[dst]:
                raise UninitializedRead(f"read of uninitialized r{dst}", pc)
            machine.regs[dst] = alu_op_concrete(
                kind, machine.regs[dst] & _U64, imm, is64)
            machine.reg_initialized[dst] = True
            return pc + 1
    return op


def _compile_load(insn: Instruction, strict: bool) -> MicroOp:
    src = insn.src
    dst = insn.dst
    off = insn.off
    width = insn.access_bytes
    to_r10 = dst == 10

    def op(machine, pc):
        initialized = machine.reg_initialized
        if strict and not initialized[src]:
            raise UninitializedRead(f"read of uninitialized r{src}", pc)
        address = (machine.regs[src] + off) & _U64
        buffer, offset, region = resolve_address(machine, address, width, pc,
                                                  False)
        if (region is MemRegion.STACK and strict
                and 0 in machine.stack_initialized[offset:offset + width]):
            raise UninitializedRead(
                f"read of uninitialized stack bytes at {offset - STACK_SIZE}", pc)
        value = int.from_bytes(buffer[offset:offset + width], "little")
        # Loads through ctx packet-pointer fields yield flat packet addresses
        # (the kernel rewrites such 32-bit ctx accesses into pointer loads).
        if region is MemRegion.CTX:
            field = machine.hook.field_by_offset(address - CTX_BASE)
            if field is not None and field.size == width:
                field_kind = field.kind
                if (field_kind is CtxFieldKind.PACKET_PTR
                        or field_kind is CtxFieldKind.PACKET_END_PTR):
                    value = PACKET_BASE + value
        if to_r10:
            raise ReadOnlyRegisterWrite("write to frame pointer r10", pc)
        machine.regs[dst] = value & _U64
        initialized[dst] = True
        return pc + 1
    return op


def _compile_store(insn: Instruction, strict: bool) -> MicroOp:
    dst = insn.dst
    src = insn.src
    off = insn.off
    width = insn.access_bytes
    value_mask = (1 << (8 * width)) - 1
    stack_ones = b"\x01" * width

    if insn.is_xadd:
        def compute(machine, buffer, offset, pc):
            if strict and not machine.reg_initialized[src]:
                raise UninitializedRead(f"read of uninitialized r{src}", pc)
            addend = machine.regs[src] & _U64
            current = int.from_bytes(buffer[offset:offset + width], "little")
            return (current + addend) & value_mask
    elif insn.is_store_reg:
        def compute(machine, buffer, offset, pc):
            if strict and not machine.reg_initialized[src]:
                raise UninitializedRead(f"read of uninitialized r{src}", pc)
            return (machine.regs[src] & _U64) & value_mask
    else:
        imm_value = insn.imm & value_mask

        def compute(machine, buffer, offset, pc):
            return imm_value

    def op(machine, pc):
        if strict and not machine.reg_initialized[dst]:
            raise UninitializedRead(f"read of uninitialized r{dst}", pc)
        address = (machine.regs[dst] + off) & _U64
        buffer, offset, region = resolve_address(machine, address, width, pc)
        if region is MemRegion.CTX:
            raise OutOfBoundsAccess("stores to ctx memory are not permitted", pc)
        value = compute(machine, buffer, offset, pc)
        buffer[offset:offset + width] = value.to_bytes(width, "little")
        if region is MemRegion.STACK:
            machine.stack_initialized[offset:offset + width] = stack_ones
        elif region is MemRegion.PACKET:
            # Invalidates the engine's image-cached packet output.
            machine.packet_dirty = True
        return pc + 1
    return op


def compile_instruction(insn: Instruction, strict: bool = True) -> MicroOp:
    """Compile one instruction into a position-independent micro-op.

    The classification order mirrors the legacy interpreter's dispatch chain
    exactly, so ambiguous encodings (``ja +0`` is both a NOP and an
    unconditional jump) resolve the same way in both engines.
    """
    if insn.is_nop:
        return _op_nop
    if insn.is_exit:
        return _compile_exit(strict)
    if insn.is_unconditional_jump:
        return _compile_ja(insn)
    if insn.is_conditional_jump:
        return _compile_cond_jump(insn, strict)
    if insn.is_call:
        return _compile_call(insn, strict)
    if insn.is_lddw:
        return _compile_lddw(insn)
    if insn.is_alu:
        return _compile_alu(insn, strict)
    if insn.is_load:
        return _compile_load(insn, strict)
    if insn.is_store or insn.is_xadd:
        return _compile_store(insn, strict)
    opcode = insn.opcode

    def op(machine, pc):
        raise UnsupportedInstruction(f"opcode {opcode:#x}", pc)
    return op


# --------------------------------------------------------------------------- #
# Decoded programs and the decode cache
# --------------------------------------------------------------------------- #
@dataclasses.dataclass
class DecodedProgram:
    """A program compiled to micro-ops, plus its per-step cost table.

    Deliberately does *not* reference the source :class:`BpfProgram`: the
    LRU decode cache holds hundreds of these, and retaining the programs
    would pin every cached proposal's instruction list in memory.
    """

    ops: Tuple[MicroOp, ...]
    #: Pre-computed ``opcode_cost_fn`` value per instruction (None when the
    #: owning engine runs without a cost model).
    costs: Optional[Tuple[float, ...]]

    def __len__(self) -> int:
        return len(self.ops)


class ProgramDecoder:
    """Compiles programs to micro-ops behind two layers of caching.

    One decoder belongs to one engine: its configuration (strict mode, cost
    function) is baked into the compiled closures, so cached micro-ops are
    only ever reused under the settings they were compiled for.
    """

    def __init__(self, strict_uninitialized: bool = True,
                 opcode_cost_fn=None, cache_size: int = 512):
        if cache_size <= 0:
            raise ValueError("cache_size must be positive")
        self.strict_uninitialized = strict_uninitialized
        self.opcode_cost_fn = opcode_cost_fn
        self.cache_size = cache_size
        self._programs: "OrderedDict[tuple, DecodedProgram]" = OrderedDict()
        self._micro_ops: Dict[tuple, MicroOp] = {}
        self._insn_costs: Dict[tuple, float] = {}
        self.program_hits = 0
        self.program_misses = 0
        self.instructions_compiled = 0
        self.instructions_reused = 0

    # ------------------------------------------------------------------ #
    def decode(self, program: BpfProgram) -> DecodedProgram:
        key = program.content_key()
        cached = self._programs.get(key)
        if cached is not None:
            self.program_hits += 1
            self._programs.move_to_end(key)
            return cached
        self.program_misses += 1

        strict = self.strict_uninitialized
        cost_fn = self.opcode_cost_fn
        memo = self._micro_ops
        cost_memo = self._insn_costs
        ops = []
        costs = [] if cost_fn is not None else None
        for insn in program.instructions:
            insn_key = (insn.opcode, insn.dst, insn.src, insn.off,
                        insn.imm, insn.imm64)
            op = memo.get(insn_key)
            if op is None:
                op = compile_instruction(insn, strict)
                if len(memo) < _MAX_INSN_MEMO:
                    memo[insn_key] = op
                self.instructions_compiled += 1
            else:
                self.instructions_reused += 1
            ops.append(op)
            if costs is not None:
                cost = cost_memo.get(insn_key)
                if cost is None:
                    cost = cost_fn(insn)
                    if len(cost_memo) < _MAX_INSN_MEMO:
                        cost_memo[insn_key] = cost
                costs.append(cost)

        decoded = DecodedProgram(
            ops=tuple(ops),
            costs=tuple(costs) if costs is not None else None)
        self._programs[key] = decoded
        if len(self._programs) > self.cache_size:
            self._programs.popitem(last=False)
        return decoded

    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, float]:
        probes = self.program_hits + self.program_misses
        return {
            "program_hits": self.program_hits,
            "program_misses": self.program_misses,
            "program_hit_rate": self.program_hits / probes if probes else 0.0,
            "programs_cached": len(self._programs),
            "instructions_compiled": self.instructions_compiled,
            "instructions_reused": self.instructions_reused,
        }
