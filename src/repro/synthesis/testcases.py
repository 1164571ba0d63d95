"""Test-case generation and management for the synthesis loop.

K2 evaluates each proposal against a suite of automatically-generated test
cases to prune programs that are not equivalent to the source (Fig. 1).  The
suite starts from randomly-generated inputs appropriate for the program's
hook and grows with every counterexample returned by the equivalence checker
or the safety checker.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from ..bpf.hooks import CtxFieldKind
from ..bpf.program import BpfProgram
from ..engine import FusedEngine
from ..interpreter import ProgramInput, ProgramOutput, StopPredicate

__all__ = ["TestCaseGenerator", "TestSuite"]


def _ethernet_ipv4_packet(rng: random.Random, length: int) -> bytes:
    """A loosely-structured Ethernet+IPv4+UDP packet, padded to ``length``."""
    length = max(length, 42)
    packet = bytearray(rng.randrange(256) for _ in range(length))
    packet[0:6] = bytes(rng.randrange(256) for _ in range(6))      # dst MAC
    packet[6:12] = bytes(rng.randrange(256) for _ in range(6))     # src MAC
    packet[12:14] = (0x0800).to_bytes(2, "big")                    # IPv4
    packet[14] = 0x45                                              # IHL=5
    packet[23] = rng.choice([6, 17])                               # TCP/UDP
    packet[26:30] = bytes(rng.randrange(256) for _ in range(4))    # src IP
    packet[30:34] = bytes(rng.randrange(256) for _ in range(4))    # dst IP
    packet[16:18] = (length - 14).to_bytes(2, "big")               # tot_len
    return bytes(packet)


class TestCaseGenerator:
    """Generates random, hook-appropriate program inputs."""

    def __init__(self, program: BpfProgram, seed: int = 0):
        self.program = program
        self.rng = random.Random(seed)

    # ------------------------------------------------------------------ #
    def generate(self, count: int) -> List[ProgramInput]:
        return [self.generate_one() for _ in range(count)]

    def generate_one(self) -> ProgramInput:
        rng = self.rng
        hook = self.program.hook
        if hook.has_packet:
            style = rng.random()
            if style < 0.6:
                packet = _ethernet_ipv4_packet(rng, rng.choice([60, 64, 128, 256]))
            elif style < 0.85:
                packet = bytes(rng.randrange(256)
                               for _ in range(rng.randrange(0, 96)))
            else:
                packet = bytes(rng.randrange(0, 2) * 255
                               for _ in range(rng.choice([14, 34, 64])))
        else:
            packet = b""

        ctx: Dict[str, int] = {}
        for field in hook.fields:
            if field.kind != CtxFieldKind.SCALAR:
                continue
            ctx[field.name] = rng.randrange(0, 1 << min(8 * field.size, 32))

        map_contents: Dict[int, Dict[bytes, bytes]] = {}
        for definition in self.program.maps.definitions():
            entries: Dict[bytes, bytes] = {}
            for _ in range(rng.randrange(0, min(4, definition.max_entries) + 1)):
                if definition.map_type.value in ("array", "percpu_array",
                                                 "devmap", "cpumap"):
                    key_int = rng.randrange(definition.max_entries)
                    key = key_int.to_bytes(definition.key_size, "little")
                else:
                    key = bytes(rng.randrange(256)
                                for _ in range(definition.key_size))
                value = bytes(rng.randrange(256)
                              for _ in range(definition.value_size))
                entries[key] = value
            if entries:
                map_contents[definition.fd] = entries

        return ProgramInput(
            packet=packet, ctx=ctx, map_contents=map_contents,
            random_values=[rng.randrange(1 << 32) for _ in range(4)],
            time_ns=rng.randrange(1 << 48),
            cpu_id=rng.randrange(8))


class TestSuite:
    """The growing set of tests shared by one synthesis run (Fig. 1)."""

    def __init__(self, source: BpfProgram, num_initial: int = 24, seed: int = 0,
                 engine=None):
        self.source = source
        # One long-lived engine per suite: its decode cache persists across
        # every candidate evaluation of the owning chain.
        self.engine = engine if engine is not None else FusedEngine()
        self.generator = TestCaseGenerator(source, seed=seed)
        #: How many leading tests are seed-generated (everything after them
        #: is an accumulated counterexample — the part a checkpoint stores;
        #: the prefix is regenerated from the seed on restore).
        self.num_initial = num_initial
        self.tests: List[ProgramInput] = self.generator.generate(num_initial)
        self._seen = {test.freeze_key() for test in self.tests}
        self._source_outputs: Optional[List[ProgramOutput]] = None
        self._source_observables: List[tuple] = []

    # ------------------------------------------------------------------ #
    @property
    def source_outputs(self) -> List[ProgramOutput]:
        self._refresh_source()
        return self._source_outputs

    @property
    def source_observables(self) -> List[tuple]:
        """``observable()`` of each source output, cached alongside them."""
        self._refresh_source()
        return self._source_observables

    def _refresh_source(self) -> None:
        if self._source_outputs is None or \
                len(self._source_outputs) != len(self.tests):
            self._source_outputs = self.engine.run_batch(self.source,
                                                         self.tests)
            self._source_observables = [output.observable()
                                        for output in self._source_outputs]

    def run_candidate(self, candidate: BpfProgram,
                      stop: Optional[StopPredicate] = None
                      ) -> List[ProgramOutput]:
        """The candidate's outputs on the suite, in order; ``stop`` is the
        engine's early exit (see ``run_batch``)."""
        return self.engine.run_batch(candidate, self.tests, stop=stop)

    def add_counterexample(self, test: ProgramInput) -> bool:
        """Add a counterexample returned by a checker; dedup by content."""
        key = test.freeze_key()
        if key in self._seen:
            return False
        self._seen.add(key)
        self.tests.append(test)
        self._source_outputs = None
        return True

    def __len__(self) -> int:
        return len(self.tests)
