"""Executable model of BPF: machine state, test cases and the interpreter."""

from .errors import (
    BpfFault, OutOfBoundsAccess, UninitializedRead, NullPointerDereference,
    InvalidJumpTarget, InstructionLimitExceeded, InvalidHelperArgument,
    UnsupportedInstruction, ReadOnlyRegisterWrite,
)
from .state import (
    MachineState, ProgramInput, ProgramOutput, MAP_PTR_BASE, PACKET_HEADROOM,
)
from .interpreter import Interpreter, StopPredicate, run_program

__all__ = [name for name in dir() if not name.startswith("_")]
