"""Decode-once batched execution engine for the synthesis hot loop.

The package splits execution into four layers:

* :mod:`repro.engine.decode` — per-instruction micro-op compilation with an
  instruction memo and an LRU whole-program decode cache;
* :mod:`repro.engine.fuse` — superinstruction fusion: each basic block
  compiled into one exec'd callable, behind the same cache layers plus a
  per-block memo, with tiered promotion (decoded tier until a content key
  recurs, fused blocks after);
* :mod:`repro.engine.machine` — machine state allocated once and rewound in
  place between test cases, with per-test reset images backing the batched
  replay fast path;
* :mod:`repro.engine.engine` — the :class:`ExecutionEngine` /
  :class:`FusedEngine` run loops and the batched ``run_batch`` API.

Every search, test suite, verification pipeline and perf rig runs on
:class:`FusedEngine`; :class:`ExecutionEngine` is its decoded tier (the
fallback for programs the CFG builder rejects, and for programs not yet
promoted) and base class.  The :class:`repro.interpreter.Interpreter` is
the behavioural oracle the differential tests compare both against.
Outputs are bit-identical across all three; the engines only change
*when* dispatch and allocation work happens.
"""

from .decode import DecodedProgram, MicroOp, ProgramDecoder, compile_instruction
from .engine import ExecutionEngine, FusedEngine
from .fuse import FusedDecoder, FusedProgram
from .machine import ResettableMachine

# The benchmark's span tracer (perfbench/tracer.py) still imports
# BatchedEngine and wraps its run_batch, so the name stays, bound to the
# fused engine, until the tracer drops that import.  Nothing in src/,
# tests/ or benchmarks/ may use it.
BatchedEngine = FusedEngine

__all__ = [
    "DecodedProgram", "MicroOp", "ProgramDecoder", "compile_instruction",
    "ExecutionEngine", "FusedEngine", "FusedDecoder", "FusedProgram",
    "ResettableMachine",
]
