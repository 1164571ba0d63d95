"""Decode-once batched execution engine for the synthesis hot loop.

The package splits execution into three layers:

* :mod:`repro.engine.decode` — per-instruction micro-op compilation with an
  instruction memo and an LRU whole-program decode cache;
* :mod:`repro.engine.machine` — machine state allocated once and rewound in
  place between test cases, with per-test reset images backing the batched
  replay fast path;
* :mod:`repro.engine.engine` — the :class:`ExecutionEngine` run loop and
  the batched ``run_batch`` API.

Every search, test suite and perf rig runs on :class:`ExecutionEngine`.  The :class:`repro.interpreter.Interpreter` is the
behavioural oracle the differential tests compare it against.  Outputs are
bit-identical across the two; the engine only changes *when* dispatch and
allocation work happens.
"""

from .decode import DecodedProgram, MicroOp, ProgramDecoder, compile_instruction
from .engine import ExecutionEngine
from .machine import ResettableMachine

# The benchmark's span tracer (perfbench/tracer.py) still imports the two
# retired engine names below and wraps ``cls.__dict__["run_batch"]`` on
# each, so they stay bound to ExecutionEngine itself (a subclass would lack
# that entry) until the tracer drops those imports.  Nothing in src/,
# tests/, benchmarks/ or examples/ may use them.
FusedEngine = BatchedEngine = ExecutionEngine

__all__ = [
    "DecodedProgram", "MicroOp", "ProgramDecoder", "compile_instruction",
    "ExecutionEngine", "ResettableMachine",
]
