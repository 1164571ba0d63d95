"""Per-opcode microbenchmark profiling.

The paper builds its latency cost function by "profiling every instruction of
the BPF instruction set by executing each opcode millions of times on a
lightly loaded system" (§3.2).  This module reproduces that methodology
against this repository's execution substrate — the BPF interpreter: for each
opcode category it constructs a straight-line program containing many copies
of the opcode, measures its execution time, subtracts the harness baseline
and divides down to a per-instruction figure.

The absolute numbers describe the Python interpreter, not silicon; what the
cost model needs (and what the optimization relies on) is the *relative*
ordering — ALU ops are cheap, loads and stores cost more, helper calls
dominate — which the profile preserves.  :meth:`ProfileReport.calibrated_model`
turns a profile into an :class:`~repro.perf.latency_model.OpcodeLatencyModel`
whose scale is anchored to a chosen ALU latency, mirroring how the paper
anchors its opcode table to measured hardware timings.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Dict, List, Optional, Sequence

from ..bpf import builders
from ..bpf.helpers import HelperId
from ..bpf.hooks import HookType
from ..bpf.instruction import Instruction
from ..bpf.maps import MapDef, MapEnvironment, MapType
from ..bpf.opcodes import MemSize
from ..bpf.program import BpfProgram
from ..engine import FusedEngine
from ..interpreter import ProgramInput
from .latency_model import OpcodeLatencyModel

__all__ = ["OpcodeProfile", "ProfileReport", "OpcodeProfiler"]

#: The opcode categories the profiler measures, in display order.
PROFILE_CATEGORIES = [
    "alu_simple", "alu_mul", "alu_div", "load", "store", "xadd",
    "branch_not_taken", "helper_get_prandom", "helper_map_lookup",
]


@dataclasses.dataclass(frozen=True)
class OpcodeProfile:
    """Measured per-instruction execution time of one opcode category."""

    category: str
    nanoseconds: float
    samples: int

    def relative_to(self, baseline: "OpcodeProfile") -> float:
        """Cost ratio against another category (normally ``alu_simple``)."""
        if baseline.nanoseconds <= 0:
            return float("inf")
        return self.nanoseconds / baseline.nanoseconds


@dataclasses.dataclass
class ProfileReport:
    """The full profile: one entry per category."""

    profiles: Dict[str, OpcodeProfile]

    def profile(self, category: str) -> OpcodeProfile:
        return self.profiles[category]

    def ratios(self) -> Dict[str, float]:
        """Per-category cost relative to the simple-ALU baseline."""
        baseline = self.profiles["alu_simple"]
        return {category: profile.relative_to(baseline)
                for category, profile in self.profiles.items()}

    def calibrated_model(self, alu_ns: float = 1.0) -> OpcodeLatencyModel:
        """An :class:`OpcodeLatencyModel` anchored at ``alu_ns`` per ALU op.

        The model's built-in relative costs already encode the ALU ≪ memory ≪
        helper ordering; calibration scales the whole table so that a simple
        ALU instruction costs ``alu_ns`` nanoseconds, the same way the
        paper's table is anchored to its hardware measurements.
        """
        return OpcodeLatencyModel(scale=alu_ns / 1.0)

    def format_table(self) -> str:
        """Human-readable profile table (used by the CLI and examples)."""
        lines = [f"{'category':<22}{'ns/insn':>12}{'vs ALU':>10}"]
        ratios = self.ratios()
        for category in PROFILE_CATEGORIES:
            profile = self.profiles.get(category)
            if profile is None:
                continue
            lines.append(f"{category:<22}{profile.nanoseconds:>12.1f}"
                         f"{ratios[category]:>9.1f}x")
        return "\n".join(lines)


class OpcodeProfiler:
    """Measures per-opcode interpreter cost (the paper's §3.2 methodology)."""

    def __init__(self, copies: int = 64, repeats: int = 20, engine=None):
        if copies <= 0 or repeats <= 0:
            raise ValueError("copies and repeats must be positive")
        self.copies = copies
        self.repeats = repeats
        # One long-lived engine for the whole profile run: each category's
        # program is decoded once and timed many times, so the numbers
        # reflect steady-state execution, not decode overhead.
        self.engine = engine if engine is not None \
            else FusedEngine(step_limit=1_000_000)

    # ------------------------------------------------------------------ #
    def run(self, categories: Optional[Sequence[str]] = None) -> ProfileReport:
        """Profile the requested categories (default: all of them)."""
        categories = list(categories) if categories else list(PROFILE_CATEGORIES)
        baseline_seconds = self._time_program(*self._program([]))
        profiles = {}
        for category in categories:
            body = self._body_for(category)
            seconds = self._time_program(*self._program(body))
            per_insn_ns = max(
                0.0, (seconds - baseline_seconds) * 1e9 / len(body))
            profiles[category] = OpcodeProfile(
                category=category, nanoseconds=per_insn_ns,
                samples=self.repeats * len(body))
        return ProfileReport(profiles=profiles)

    # ------------------------------------------------------------------ #
    # Workload construction
    # ------------------------------------------------------------------ #
    def _body_for(self, category: str) -> List[Instruction]:
        copies = self.copies
        if category == "alu_simple":
            body = [builders.ADD64_IMM(2, 1) for _ in range(copies)]
        elif category == "alu_mul":
            body = [builders.MUL64_IMM(2, 3) for _ in range(copies)]
        elif category == "alu_div":
            body = [builders.DIV64_IMM(2, 3) for _ in range(copies)]
        elif category == "load":
            body = [builders.LDX_MEM(MemSize.W, 3, 10, -8)
                    for _ in range(copies)]
        elif category == "store":
            body = [builders.STX_MEM(MemSize.W, 10, 2, -8)
                    for _ in range(copies)]
        elif category == "xadd":
            body = [builders.STX_XADD(MemSize.DW, 10, 2, -16)
                    for _ in range(copies)]
        elif category == "branch_not_taken":
            # A never-taken forward branch followed by its fall-through NOP
            # target keeps every proposal loop-free and in-range.
            body = []
            for _ in range(max(1, copies // 2)):
                body.append(builders.JEQ_IMM(2, -1, 0))
        elif category == "helper_get_prandom":
            body = [builders.CALL_HELPER(HelperId.GET_PRANDOM_U32)
                    for _ in range(copies)]
        elif category == "helper_map_lookup":
            body = []
            for _ in range(max(1, copies // 4)):
                body.extend([
                    builders.MOV64_REG(2, 10),
                    builders.ADD64_IMM(2, -4),
                    builders.LD_MAP_FD(1, 1),
                    builders.CALL_HELPER(HelperId.MAP_LOOKUP_ELEM),
                ])
        else:
            raise KeyError(f"unknown profile category {category!r}")
        return body

    def _program(self, body: List[Instruction]):
        maps = MapEnvironment([MapDef(fd=1, name="profile_map",
                                      map_type=MapType.ARRAY, key_size=4,
                                      value_size=8, max_entries=4)])
        prologue = [
            builders.MOV64_IMM(2, 7),
            builders.STX_MEM(MemSize.DW, 10, 2, -8),
            builders.STX_MEM(MemSize.DW, 10, 2, -16),
            builders.MOV64_IMM(1, 0),
            builders.STX_MEM(MemSize.W, 10, 1, -4),
        ]
        epilogue = [builders.MOV64_IMM(0, 0), builders.EXIT_INSN()]
        program = BpfProgram.create(prologue + list(body) + epilogue,
                                    HookType.XDP, maps=maps, name="profile")
        return program, ProgramInput(packet=bytes(64))

    # ------------------------------------------------------------------ #
    def _time_program(self, program: BpfProgram, test: ProgramInput) -> float:
        """Median-of-repeats wall-clock execution time of one program."""
        timings = []
        for _ in range(self.repeats):
            started = time.perf_counter()
            self.engine.run(program, test)
            timings.append(time.perf_counter() - started)
        timings.sort()
        return timings[len(timings) // 2]
