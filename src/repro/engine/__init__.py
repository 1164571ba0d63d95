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
  :class:`FusedEngine` run loops, the batched ``run_batch`` API and the
  :func:`create_engine` factory behind the ``--engine
  fused|decoded|legacy`` ablation knob.

The stack is legacy (the :class:`repro.interpreter.Interpreter` oracle) →
decoded → fused.  Outputs are bit-identical across all engine kinds; the
engines only change *when* dispatch and allocation work happens.
"""

from .decode import DecodedProgram, MicroOp, ProgramDecoder, compile_instruction
from .engine import (
    DEFAULT_ENGINE_KIND, ENGINE_KINDS, ExecutionEngine, FusedEngine,
    create_engine,
)
from .fuse import FusedDecoder, FusedProgram
from .machine import ResettableMachine

# The benchmark's span tracer (perfbench/tracer.py) still imports
# BatchedEngine and wraps its run_batch, so the name stays, bound to the
# fused engine, until the tracer drops that import.  Nothing in src/,
# tests/ or benchmarks/ may use it.
BatchedEngine = FusedEngine

__all__ = [
    "DecodedProgram", "MicroOp", "ProgramDecoder", "compile_instruction",
    "DEFAULT_ENGINE_KIND", "ENGINE_KINDS", "ExecutionEngine", "FusedEngine",
    "create_engine", "FusedDecoder", "FusedProgram", "ResettableMachine",
]
