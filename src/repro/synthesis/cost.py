"""Cost functions for the stochastic search (paper §3.2).

The total cost of a candidate is::

    f(p) = alpha * err(p) + beta * perf(p) + gamma * safe(p)

* ``err(p)`` measures how far the candidate's outputs are from the source
  program's outputs over the test suite, plus an ``unequal * num_tests`` term
  driven by formal equivalence checking.  Eight variants exist (2 diff
  functions x 2 normalizations x 2 num_tests interpretations); all eight are
  exercised by the parameter sweep of Table 8/9.  One :class:`ErrorTally`
  accumulates it test by test in suite order, both for :func:`error_cost`
  and for the MCMC step's lower bound on a partly run suite.
* ``perf(p)`` is either the extra instruction count (compactness goal) or the
  extra estimated latency (latency goal) relative to the source.
* ``safe(p)`` is 0 for safe candidates and ``ERR_MAX`` for unsafe ones — the
  candidate is not discarded outright because the path to a better safe
  program may pass through unsafe ones.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Sequence

from ..bpf.program import BpfProgram
from ..interpreter import ProgramOutput
from ..perf.latency_model import OpcodeLatencyModel, DEFAULT_LATENCY_MODEL

__all__ = ["DiffKind", "NumTestsVariant", "PerformanceGoal", "CostSettings",
           "ERR_MAX", "output_distance", "ErrorTally", "error_cost",
           "performance_cost", "total_cost"]

#: Penalty assigned to unsafe candidates (paper: "a large value ERR_MAX").
ERR_MAX = 100_000.0

#: Penalty contributed by a test case on which the candidate faulted.
_FAULT_PENALTY = 256.0


class DiffKind(enum.Enum):
    """How the distance between two output values is measured."""

    POPCOUNT = "pop"    # number of differing bits (STOKE's choice)
    ABSOLUTE = "abs"    # absolute numerical difference (for counters etc.)


class NumTestsVariant(enum.Enum):
    """Interpretation of the ``num_tests`` factor in the error cost."""

    INCORRECT = "incorrect"   # number of tests the candidate got wrong
    CORRECT = "correct"       # number of tests the candidate got right


class PerformanceGoal(enum.Enum):
    """What the search optimizes (paper §8 setup)."""

    INSTRUCTION_COUNT = "inst"
    LATENCY = "latency"


@dataclasses.dataclass(frozen=True)
class CostSettings:
    """One point in the cost-function configuration space (Table 8)."""

    diff_kind: DiffKind = DiffKind.ABSOLUTE
    normalize_by_tests: bool = False
    num_tests_variant: NumTestsVariant = NumTestsVariant.INCORRECT
    alpha: float = 0.5      # weight of the error cost
    beta: float = 5.0       # weight of the performance cost
    gamma: float = 1.0      # weight of the safety cost
    goal: PerformanceGoal = PerformanceGoal.INSTRUCTION_COUNT


def _popcount_distance(a: int, b: int) -> float:
    return float(bin((a ^ b) & ((1 << 64) - 1)).count("1"))


def _absolute_distance(a: int, b: int) -> float:
    return float(abs(a - b))


def output_distance(source: ProgramOutput, candidate: ProgramOutput,
                    diff_kind: DiffKind) -> float:
    """Distance between two observable outputs on one test case (diff())."""
    if candidate.faulted and source.faulted:
        return 0.0
    if candidate.faulted != source.faulted:
        return _FAULT_PENALTY

    diff = _popcount_distance if diff_kind == DiffKind.POPCOUNT \
        else _absolute_distance
    distance = diff(source.return_value or 0, candidate.return_value or 0)

    # Packet contents: byte-wise distance plus a length mismatch penalty.
    if len(source.packet) != len(candidate.packet):
        distance += 8.0 * abs(len(source.packet) - len(candidate.packet))
    for a, b in zip(source.packet, candidate.packet):
        if a != b:
            distance += diff(a, b)

    # Map contents: keys present in one but not the other, then value bytes.
    for fd in set(source.maps) | set(candidate.maps):
        source_entries = source.maps.get(fd, {})
        candidate_entries = candidate.maps.get(fd, {})
        for key in set(source_entries) | set(candidate_entries):
            left = source_entries.get(key)
            right = candidate_entries.get(key)
            if left is None or right is None:
                distance += 64.0
                continue
            left_value = int.from_bytes(left, "little")
            right_value = int.from_bytes(right, "little")
            distance += diff(left_value, right_value)
    return distance


class ErrorTally:
    """err(p) accumulated one test at a time, in suite order.

    Per-test distances are summed left to right with plain float addition.
    Every term is non-negative, so the sum over the tests added so far never
    exceeds the sum over the whole suite, in floating point as well, and
    the ``num_tests`` count of either variant only grows.  Hence
    ``cost(1)`` over a prefix is a lower bound on ``cost(1)`` over the
    whole suite: the MCMC step stops a suite run on it once a test has
    diverged (which makes ``unequal`` 1).
    """

    __slots__ = ("num_tests", "seen", "wrong", "distance", "diverged",
                 "_diff_kind", "_count_correct", "_weight")

    def __init__(self, settings: CostSettings, num_tests: int):
        #: Size of the suite being tallied (the normalization divisor).
        self.num_tests = num_tests
        self.seen = 0
        #: Tests at a positive distance (the INCORRECT count).
        self.wrong = 0
        self.distance = 0.0
        #: True once some candidate observable differed from the source's,
        #: i.e. the candidate fails the suite.
        self.diverged = False
        self._diff_kind = settings.diff_kind
        self._count_correct = \
            settings.num_tests_variant == NumTestsVariant.CORRECT
        self._weight = 1.0 / num_tests if settings.normalize_by_tests \
            else 1.0

    def add(self, source: ProgramOutput, candidate: ProgramOutput,
            source_observable: tuple) -> None:
        """Tally the next test (``source_observable`` is
        ``source.observable()``)."""
        self.seen += 1
        # Equal observables are at distance 0, which adds nothing.
        if candidate.observable() == source_observable:
            return
        self.diverged = True
        distance = output_distance(source, candidate, self._diff_kind)
        if distance > 0:
            self.distance += distance
            self.wrong += 1

    def cost(self, unequal: int) -> float:
        """err(p) over the tests tallied so far."""
        num_tests = self.seen - self.wrong if self._count_correct \
            else self.wrong
        return self._weight * self.distance + unequal * num_tests


def error_cost(source_outputs: Sequence[ProgramOutput],
               candidate_outputs: Sequence[ProgramOutput],
               settings: CostSettings,
               unequal: int = 0) -> float:
    """The error component err(p) of the cost function (equation (1))."""
    if not source_outputs:
        return float(unequal)
    tally = ErrorTally(settings, min(len(source_outputs),
                                     len(candidate_outputs)))
    for source, candidate in zip(source_outputs, candidate_outputs):
        tally.add(source, candidate, source.observable())
    return tally.cost(unequal)


def performance_cost(source: BpfProgram, candidate: BpfProgram,
                     settings: CostSettings,
                     latency_model: OpcodeLatencyModel = DEFAULT_LATENCY_MODEL
                     ) -> float:
    """perf(p): extra instructions or extra estimated latency vs. the source."""
    if settings.goal == PerformanceGoal.INSTRUCTION_COUNT:
        return float(candidate.num_real_instructions
                     - source.num_real_instructions)
    return latency_model.program_cost(candidate) - latency_model.program_cost(source)


def total_cost(error: float, perf: float, safe: float,
               settings: CostSettings) -> float:
    """Combine the three components with the chain's (alpha, beta, gamma)."""
    return (settings.alpha * error
            + settings.beta * perf
            + settings.gamma * safe)
