"""Per-instruction safety checks over the fused abstract state.

These functions are the single implementation of the paper's §6 per-point
checklist, consumed by both unified checkers:

* :class:`repro.analysis.analyzer.AbstractAnalyzer` composes them through
  :func:`check_instruction` inside its memoized per-block walk (the search
  loop's :class:`~repro.safety.SafetyChecker`);
* :class:`repro.verifier.KernelChecker` calls the individual pieces from
  its path-sensitive ``do_check()`` walk, keeping its own kernel-style
  rejection messages where they differ.

Besides the classic rules, they cover checks the interpreter enforces that
the pre-fused safety pass missed: atomic adds through context pointers, and
helper arguments (map references and the memory regions behind
key/value/params pointers).
"""

from __future__ import annotations

from typing import List

from ..bpf.helpers import HELPERS, HelperId
from ..bpf.opcodes import AluOp, STACK_SIZE
from ..bpf.program import BpfProgram
from ..bpf.regions import MemRegion
from .domains import AbsVal
from .state import AnalysisState
from .verdicts import SafetyViolation, SafetyViolationKind

__all__ = ["check_uninitialized_reads", "check_pointer_alu",
           "check_memory_access", "check_helper_args", "check_exit",
           "check_instruction"]


def check_uninitialized_reads(insn, state: AnalysisState,
                              index: int) -> List[SafetyViolation]:
    violations = []
    for reg in insn.regs_read():
        if not state.regs[reg].initialized:
            violations.append(SafetyViolation(
                SafetyViolationKind.UNINITIALIZED_READ, index,
                f"r{reg} is read before being written"))
    return violations


def check_pointer_alu(insn, state: AnalysisState,
                      index: int) -> List[SafetyViolation]:
    """Kernel-checker constraint: most ALU ops are disallowed on pointers."""
    dst_val: AbsVal = state.regs[insn.dst]
    if not dst_val.is_pointer:
        return []
    op = insn.alu_op
    if op in (AluOp.MOV, AluOp.END):
        return []
    if insn.is_alu64 and op in (AluOp.ADD, AluOp.SUB):
        return []
    return [SafetyViolation(
        SafetyViolationKind.POINTER_ARITHMETIC, index,
        f"ALU operation {op.name} on a pointer into "
        f"{dst_val.region.value} memory")]


def check_memory_access(program: BpfProgram, insn, state: AnalysisState,
                        index: int,
                        strict_alignment: bool = True) -> List[SafetyViolation]:
    violations: List[SafetyViolation] = []
    base_reg = insn.src if insn.is_load else insn.dst
    base: AbsVal = state.regs[base_reg]
    width = insn.access_bytes

    if base.region in (MemRegion.SCALAR, MemRegion.UNKNOWN):
        return [SafetyViolation(
            SafetyViolationKind.UNKNOWN_POINTER, index,
            f"memory access through r{base_reg}, which does not hold a "
            f"pointer with known provenance")]
    if base.maybe_null:
        violations.append(SafetyViolation(
            SafetyViolationKind.NULL_DEREFERENCE, index,
            f"r{base_reg} may be NULL (unchecked bpf_map_lookup_elem result)"))
    if base.region == MemRegion.MAP_PTR:
        violations.append(SafetyViolation(
            SafetyViolationKind.UNKNOWN_POINTER, index,
            "direct memory access through a map reference"))
        return violations
    if base.region == MemRegion.PACKET_END:
        violations.append(SafetyViolation(
            SafetyViolationKind.OUT_OF_BOUNDS, index,
            "memory access through the data_end sentinel pointer"))
        return violations

    # The interpreter rejects both stores and atomic adds through context
    # pointers (the pre-fused checker missed the atomic-add case).
    if (insn.is_store or insn.is_xadd) and base.region == MemRegion.CTX:
        violations.append(SafetyViolation(
            SafetyViolationKind.CTX_STORE, index,
            "store through a context (PTR_TO_CTX) pointer"))
        return violations

    if base.offset is None:
        violations.append(SafetyViolation(
            SafetyViolationKind.OUT_OF_BOUNDS, index,
            f"cannot bound the offset of the access through r{base_reg}"))
        return violations
    offset = base.offset + insn.off

    if base.region == MemRegion.STACK:
        if not 0 <= offset <= STACK_SIZE - width:
            violations.append(SafetyViolation(
                SafetyViolationKind.OUT_OF_BOUNDS, index,
                f"stack access at r10{offset - STACK_SIZE:+d} "
                f"width {width} is out of bounds"))
        elif strict_alignment and offset % width != 0:
            violations.append(SafetyViolation(
                SafetyViolationKind.MISALIGNED_ACCESS, index,
                f"stack access at r10{offset - STACK_SIZE:+d} is not "
                f"{width}-byte aligned"))
        elif insn.is_load:
            missing = [b for b in range(offset, offset + width)
                       if b not in state.stack_written]
            if missing:
                violations.append(SafetyViolation(
                    SafetyViolationKind.UNINITIALIZED_READ, index,
                    f"stack bytes at r10{offset - STACK_SIZE:+d} are read "
                    f"before being written"))
    elif base.region == MemRegion.CTX:
        if not 0 <= offset <= program.hook.ctx_size - width:
            violations.append(SafetyViolation(
                SafetyViolationKind.OUT_OF_BOUNDS, index,
                f"ctx access at offset {offset} width {width} is out of "
                f"bounds for {program.hook.name}"))
    elif base.region == MemRegion.PACKET:
        bound = state.packet_bound
        if offset < 0 or offset + width > bound:
            violations.append(SafetyViolation(
                SafetyViolationKind.OUT_OF_BOUNDS, index,
                f"packet access at offset {offset} width {width} exceeds "
                f"the verified packet bound of {bound} bytes"))
    elif base.region == MemRegion.MAP_VALUE:
        value_size = None
        if base.map_fd is not None and base.map_fd in program.maps:
            value_size = program.maps.definition(base.map_fd).value_size
        if value_size is None:
            violations.append(SafetyViolation(
                SafetyViolationKind.UNKNOWN_POINTER, index,
                "cannot determine which map this value pointer refers to"))
        elif not 0 <= offset <= value_size - width:
            violations.append(SafetyViolation(
                SafetyViolationKind.OUT_OF_BOUNDS, index,
                f"map value access at offset {offset} width {width} exceeds "
                f"the value size of {value_size} bytes"))
    return violations


# --------------------------------------------------------------------------- #
# Helper argument checks (interpreter fault surface the legacy pass missed)
# --------------------------------------------------------------------------- #
def _check_map_ref(program: BpfProgram, state: AnalysisState, reg: int,
                   index: int, helper: str) -> List[SafetyViolation]:
    value = state.regs[reg]
    if value.region != MemRegion.MAP_PTR or value.map_fd is None \
            or value.map_fd not in program.maps:
        return [SafetyViolation(
            SafetyViolationKind.HELPER_MISUSE, index,
            f"r{reg} does not hold a valid map reference for {helper}")]
    return []


def _check_mem_arg(program: BpfProgram, state: AnalysisState, reg: int,
                   size: int, index: int, what: str) -> List[SafetyViolation]:
    """The helper will read (or write) ``size`` bytes through ``reg``."""
    value = state.regs[reg]
    kind = SafetyViolationKind.HELPER_MISUSE
    if value.region in (MemRegion.SCALAR, MemRegion.UNKNOWN,
                        MemRegion.MAP_PTR, MemRegion.PACKET_END):
        return [SafetyViolation(kind, index,
                                f"r{reg} does not point to readable memory "
                                f"for the {what}")]
    if value.maybe_null:
        return [SafetyViolation(kind, index,
                                f"r{reg} may be NULL (unchecked lookup) when "
                                f"passed as the {what}")]
    if value.offset is None:
        return [SafetyViolation(kind, index,
                                f"cannot bound the {what} pointer in r{reg}")]
    offset = value.offset
    if value.region == MemRegion.STACK:
        in_bounds = 0 <= offset <= STACK_SIZE - size
    elif value.region == MemRegion.CTX:
        in_bounds = 0 <= offset <= program.hook.ctx_size - size
    elif value.region == MemRegion.PACKET:
        in_bounds = 0 <= offset and offset + size <= state.packet_bound
    else:  # MAP_VALUE
        value_size = None
        if value.map_fd is not None and value.map_fd in program.maps:
            value_size = program.maps.definition(value.map_fd).value_size
        in_bounds = value_size is not None and 0 <= offset <= value_size - size
    if not in_bounds:
        return [SafetyViolation(kind, index,
                                f"the {what} in r{reg} ({size} bytes at "
                                f"{value.region.value}+{offset}) is out of "
                                f"bounds")]
    return []


def check_helper_args(program: BpfProgram, insn, state: AnalysisState,
                      index: int) -> List[SafetyViolation]:
    """Model the argument accesses the interpreter performs for this helper.

    Only helpers whose runtime implementation dereferences an argument are
    checked, so the rules flag exactly the calls that can fault.
    """
    spec = HELPERS.get(insn.imm)
    if spec is None:
        return []  # unknown helper: already a structural HELPER_MISUSE
    violations: List[SafetyViolation] = []
    helper_id = spec.helper_id
    if helper_id in (HelperId.MAP_LOOKUP_ELEM, HelperId.MAP_UPDATE_ELEM,
                     HelperId.MAP_DELETE_ELEM):
        violations.extend(_check_map_ref(program, state, 1, index, spec.name))
        if not violations:
            definition = program.maps.definition(state.regs[1].map_fd)
            violations.extend(_check_mem_arg(
                program, state, 2, definition.key_size, index, "map key"))
            if helper_id == HelperId.MAP_UPDATE_ELEM:
                violations.extend(_check_mem_arg(
                    program, state, 3, definition.value_size, index,
                    "map value"))
    elif helper_id == HelperId.REDIRECT_MAP:
        violations.extend(_check_map_ref(program, state, 1, index, spec.name))
    elif helper_id == HelperId.FIB_LOOKUP:
        violations.extend(_check_mem_arg(
            program, state, 2, 64, index, "fib_lookup params struct"))
    return violations


def check_exit(program: BpfProgram, state: AnalysisState, index: int,
               check_return_range: bool = True) -> List[SafetyViolation]:
    value = state.regs[0]
    if value.is_pointer:
        return [SafetyViolation(
            SafetyViolationKind.POINTER_LEAK, index,
            "r0 holds a kernel pointer at program exit")]
    if check_return_range and program.hook.return_range is not None \
            and value.is_scalar:
        low, high = program.hook.return_range
        const = value.const
        if const is not None and not low <= const <= high:
            return [SafetyViolation(
                SafetyViolationKind.BAD_RETURN_VALUE, index,
                f"return value {const} outside "
                f"[{low}, {high}] for hook {program.hook.name}")]
        if const is None and (value.rng.hi < low or value.rng.lo > high):
            return [SafetyViolation(
                SafetyViolationKind.BAD_RETURN_VALUE, index,
                f"return value in [{value.rng.lo}, {value.rng.hi}] is "
                f"outside [{low}, {high}] for hook {program.hook.name}")]
    return []


def check_instruction(program: BpfProgram, insn, state: AnalysisState,
                      index: int,
                      strict_alignment: bool = True) -> List[SafetyViolation]:
    """Every §6 rule for one instruction; composition used by the analyzer."""
    if insn.is_nop:
        return []
    violations = check_uninitialized_reads(insn, state, index)
    if insn.is_alu:
        violations.extend(check_pointer_alu(insn, state, index))
    if insn.is_memory:
        violations.extend(check_memory_access(program, insn, state, index,
                                              strict_alignment))
    if insn.is_call:
        violations.extend(check_helper_args(program, insn, state, index))
    if insn.is_exit:
        violations.extend(check_exit(program, state, index))
    return violations
