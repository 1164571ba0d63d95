"""Packet-processing benchmark rig (substitute for the paper's testbed, §8).

The paper measures throughput (maximum loss-free forwarding rate, MLFFR) and
round-trip latency on a CloudLab testbed: a T-Rex traffic generator drives a
device-under-test whose NIC runs the XDP program.  This module reproduces
that methodology in simulation:

* :class:`TrafficGenerator` produces a pool of representative packets
  (64-byte frames by default, per the paper's methodology),
* :class:`DeviceUnderTest` executes the BPF program on each packet through
  the execution engine and charges it the per-opcode latency model plus a
  fixed per-packet driver/NIC overhead,
* :class:`BenchmarkRig` runs an open-loop single-core queueing simulation
  with a finite RX descriptor ring, sweeping the offered load to find the
  MLFFR (RFC 2544 style) and recording average latency and drop rate at any
  offered load (Tables 2 and 3, Appendix H figures).

Absolute numbers are not comparable to the paper's hardware measurements,
but the *relative* ordering of program variants is preserved because the
service time of a packet is derived from exactly the instruction costs K2
optimizes.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence

from ..bpf.program import BpfProgram
from ..engine import ExecutionEngine
from ..interpreter import ProgramInput
from ..synthesis.testcases import TestCaseGenerator
from .latency_model import DEFAULT_LATENCY_MODEL, OpcodeLatencyModel

__all__ = ["TrafficGenerator", "DeviceUnderTest", "LoadPoint",
           "BenchmarkRig"]

#: Fixed per-packet cost outside the BPF program: driver RX/TX, DMA, XDP
#: dispatch.  Roughly calibrated so a trivial XDP_DROP program lands in the
#: tens-of-Mpps range on one core, as reported for XDP [83].
_PER_PACKET_OVERHEAD_NS = 45.0

#: RX descriptor ring size used by the DUT (packets waiting beyond this are
#: dropped by the NIC, which is what creates the loss knee of the MLFFR).
_RX_RING_SIZE = 512


class TrafficGenerator:
    """Generates the packet pool offered to the device under test."""

    def __init__(self, program: BpfProgram, packet_size: int = 64,
                 pool_size: int = 128, seed: int = 7):
        generator = TestCaseGenerator(program, seed=seed)
        self.pool: List[ProgramInput] = []
        for _ in range(pool_size):
            test = generator.generate_one()
            if program.hook.has_packet:
                packet = bytes(test.packet[:packet_size]).ljust(packet_size, b"\x00")
                test = dataclasses.replace(test, packet=packet)
            self.pool.append(test)

    def __iter__(self):
        return iter(self.pool)

    def __len__(self) -> int:
        return len(self.pool)


class DeviceUnderTest:
    """Executes one BPF program per packet and reports its service time."""

    def __init__(self, program: BpfProgram,
                 latency_model: OpcodeLatencyModel = DEFAULT_LATENCY_MODEL,
                 per_packet_overhead_ns: float = _PER_PACKET_OVERHEAD_NS):
        self.program = program
        self.latency_model = latency_model
        self.per_packet_overhead_ns = per_packet_overhead_ns
        # One long-lived engine per DUT: the program is decoded once and the
        # per-opcode cost table folded into the decoded form, then reused
        # for every packet of every load sweep.
        self._engine = ExecutionEngine(
            opcode_cost_fn=latency_model.instruction_cost)

    def service_times_ns(self, traffic: Sequence[ProgramInput]) -> List[float]:
        """Per-packet service times (program execution + fixed overhead)."""
        outputs = self._engine.run_batch(self.program, list(traffic))
        return [output.estimated_ns + self.per_packet_overhead_ns
                for output in outputs]

    def mean_service_time_ns(self, traffic: Sequence[ProgramInput]) -> float:
        times = self.service_times_ns(traffic)
        return sum(times) / len(times) if times else self.per_packet_overhead_ns


@dataclasses.dataclass
class LoadPoint:
    """One point of the load sweep (one column of the Appendix H figures)."""

    offered_mpps: float
    throughput_mpps: float
    average_latency_us: float
    drop_rate: float


class BenchmarkRig:
    """MLFFR and latency-vs-load measurements for one program."""

    def __init__(self, program: BpfProgram,
                 latency_model: OpcodeLatencyModel = DEFAULT_LATENCY_MODEL,
                 packet_size: int = 64, pool_size: int = 96,
                 packets_per_trial: int = 20_000, seed: int = 7,
                 rx_ring_size: int = _RX_RING_SIZE):
        self.program = program
        self.traffic = TrafficGenerator(program, packet_size=packet_size,
                                        pool_size=pool_size, seed=seed)
        self.dut = DeviceUnderTest(program, latency_model)
        self.packets_per_trial = packets_per_trial
        self.rx_ring_size = rx_ring_size
        self._service_pool = self.dut.service_times_ns(self.traffic.pool)

    # ------------------------------------------------------------------ #
    # Queueing simulation
    # ------------------------------------------------------------------ #
    def run_at_load(self, offered_mpps: float) -> LoadPoint:
        """Open-loop, single-server, finite-queue simulation at one load."""
        if offered_mpps <= 0:
            raise ValueError("offered load must be positive")
        interarrival_ns = 1e3 / offered_mpps     # Mpps -> ns between packets
        pool = self._service_pool
        pool_size = len(pool)

        served = 0
        dropped = 0
        total_latency_ns = 0.0
        server_free_at = 0.0
        # Completion times of packets currently in the system (ring + server).
        in_flight: List[float] = []

        arrival = 0.0
        for index in range(self.packets_per_trial):
            arrival += interarrival_ns
            # Retire completed packets from the ring.
            in_flight = [finish for finish in in_flight if finish > arrival]
            if len(in_flight) >= self.rx_ring_size:
                dropped += 1
                continue
            service = pool[index % pool_size]
            start = max(arrival, server_free_at)
            finish = start + service
            server_free_at = finish
            in_flight.append(finish)
            total_latency_ns += finish - arrival
            served += 1

        throughput = served / (arrival / 1e3) if arrival else 0.0
        average_latency_us = (total_latency_ns / served / 1e3) if served else 0.0
        drop_rate = dropped / self.packets_per_trial
        return LoadPoint(offered_mpps=offered_mpps,
                         throughput_mpps=throughput,
                         average_latency_us=average_latency_us,
                         drop_rate=drop_rate)

    # ------------------------------------------------------------------ #
    def mlffr_mpps(self, loss_threshold: float = 0.001,
                   precision: float = 0.01) -> float:
        """Maximum loss-free forwarding rate (RFC 2544 binary search)."""
        mean_service = sum(self._service_pool) / len(self._service_pool)
        upper = 1e3 / mean_service * 1.5         # beyond saturation
        lower = 0.0
        while upper - lower > precision:
            mid = (upper + lower) / 2
            point = self.run_at_load(mid)
            if point.drop_rate <= loss_threshold:
                lower = mid
            else:
                upper = mid
        return round(lower, 3)

    def load_profile(self, loads: Sequence[float]) -> List[LoadPoint]:
        """Throughput / latency / drop-rate curves (Appendix H figures)."""
        return [self.run_at_load(load) for load in loads]

    # ------------------------------------------------------------------ #
    def standard_latency_loads(self, other: Optional["BenchmarkRig"] = None
                               ) -> Dict[str, float]:
        """The four offered loads of Table 3: low / medium / high / saturating.

        ``other`` is the rig of the competing variant (clang vs. K2); the
        medium and high loads are defined relative to the slower and faster
        of the two, following the paper's methodology.
        """
        own = self.mlffr_mpps()
        peer = other.mlffr_mpps() if other is not None else own
        slow, fast = min(own, peer), max(own, peer)
        return {
            "low": max(slow * 0.6, 0.05),
            "medium": slow,
            "high": fast,
            "saturating": fast * 1.15,
        }
