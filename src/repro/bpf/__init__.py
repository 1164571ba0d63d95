"""BPF instruction set, program representation and static analyses."""

from .opcodes import (
    AluOp, InsnClass, JmpOp, MemMode, MemSize, Register, SrcOperand,
    MAX_INSNS, NUM_REGISTERS, STACK_SIZE,
)
from .instruction import Instruction, NOP
from . import builders
from .builders import *  # noqa: F401,F403 - re-export the builder helpers
from .program import BpfProgram, ProgramValidationError
from .encoder import encode_program, decode_program, EncodingError
from .asm import assemble, disassemble, format_instruction, AsmError
from .cfg import BasicBlock, ControlFlowGraph, build_cfg, CfgError
from .liveness import LivenessInfo, compute_liveness, dead_code_eliminate
from .maps import MapDef, MapEnvironment, MapState, MapType
from .helpers import (
    HELPERS, HelperId, HelperSpec, helper_spec, helper_num_args,
    XDP_ABORTED, XDP_DROP, XDP_PASS, XDP_TX, XDP_REDIRECT,
)
from .hooks import CtxField, CtxFieldKind, Hook, HookType, HOOKS, get_hook
from .regions import MemRegion, REGION_BASES, region_for_address

__all__ = [name for name in dir() if not name.startswith("_")]
