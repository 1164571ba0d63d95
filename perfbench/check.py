"""Independent output check: replay best programs against their sources.

Every best program the benchmark collects is run next to its source on
seeded random inputs that this module generates itself, through the
legacy reference interpreter (``repro.interpreter.Interpreter``).  The
check uses neither the execution-engine tiers nor the solver that the
search relied on, so a bug in either cannot vouch for its own output.
"""

from __future__ import annotations

import hashlib
import math
import random
from typing import Iterable, List, Optional

from repro.bpf.hooks import CtxFieldKind
from repro.bpf.program import BpfProgram
from repro.interpreter import Interpreter, ProgramInput

#: Inputs replayed per (source, best program) pair.
INPUTS_PER_PROGRAM = 48

_KEYED_BY_INDEX = ("array", "percpu_array", "devmap", "cpumap")


def digest(text: str) -> str:
    """The digest the serve daemon reports as ``best_digest``."""
    return hashlib.blake2b(text.encode("utf-8"), digest_size=12).hexdigest()


def geomean(values: Iterable[float]) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _packet(rng: random.Random) -> bytes:
    shape = rng.randrange(4)
    if shape == 0:
        return bytes(rng.getrandbits(8) for _ in range(rng.randrange(0, 40)))
    length = rng.choice((54, 60, 64, 90, 128, 200))
    packet = bytearray(rng.getrandbits(8) for _ in range(length))
    if shape >= 2:
        # Ethernet + IPv4 + TCP/UDP headers, so parsers take their deep paths.
        packet[12:14] = rng.choice((b"\x08\x00", b"\x86\xdd", b"\x08\x06"))
        packet[14] = rng.choice((0x45, 0x46, 0x55))
        packet[23] = rng.choice((1, 6, 17, 47))
        packet[16:18] = (length - 14).to_bytes(2, "big")
    return bytes(packet)


def make_inputs(program: BpfProgram, rng: random.Random,
                count: int = INPUTS_PER_PROGRAM) -> List[ProgramInput]:
    """Random hook-appropriate inputs for ``program``'s hook and maps."""
    hook = program.hook
    inputs = []
    for _ in range(count):
        ctx = {field.name: rng.getrandbits(min(8 * field.size, 32))
               for field in hook.fields if field.kind == CtxFieldKind.SCALAR}
        maps = {}
        for definition in program.maps.definitions():
            entries = {}
            for _ in range(rng.randrange(0, min(4, definition.max_entries) + 1)):
                if definition.map_type.value in _KEYED_BY_INDEX:
                    key = rng.randrange(definition.max_entries).to_bytes(
                        definition.key_size, "little")
                else:
                    key = bytes(rng.getrandbits(8)
                                for _ in range(definition.key_size))
                entries[key] = bytes(rng.getrandbits(8)
                                     for _ in range(definition.value_size))
            if entries:
                maps[definition.fd] = entries
        inputs.append(ProgramInput(
            packet=_packet(rng) if hook.has_packet else b"", ctx=ctx,
            map_contents=maps,
            random_values=[rng.getrandbits(32) for _ in range(4)],
            time_ns=rng.getrandbits(48), cpu_id=rng.randrange(8)))
    return inputs


def divergence(source: BpfProgram, best: BpfProgram,
               inputs: List[ProgramInput]) -> Optional[str]:
    """Why ``best`` differs from ``source`` on ``inputs``, or None."""
    interpreter = Interpreter()
    for index, test in enumerate(inputs):
        expected = interpreter.run(source, test)
        got = interpreter.run(best, test)
        if expected.observable() != got.observable():
            return (f"input {index}: source returned {expected.return_value} "
                    f"(fault {expected.fault}), best returned "
                    f"{got.return_value} (fault {got.fault})")
    return None
