"""Tests for the per-opcode profiler (repro.perf.profiles)."""

import pytest

from repro.perf import (
    DEFAULT_LATENCY_MODEL, OpcodeLatencyModel, OpcodeProfiler, ProfileReport,
)
from repro.perf.profiles import PROFILE_CATEGORIES, OpcodeProfile


@pytest.fixture(scope="module")
def report() -> ProfileReport:
    """One shared small profile run (kept tiny so the test suite stays fast)."""
    return OpcodeProfiler(copies=16, repeats=5).run()


class TestOpcodeProfiler:
    def test_all_categories_profiled(self, report):
        assert set(report.profiles) == set(PROFILE_CATEGORIES)

    def test_costs_are_non_negative(self, report):
        assert all(profile.nanoseconds >= 0.0
                   for profile in report.profiles.values())

    def test_samples_recorded(self, report):
        assert all(profile.samples > 0 for profile in report.profiles.values())

    def test_subset_of_categories(self):
        subset = OpcodeProfiler(copies=8, repeats=3).run(["alu_simple", "load"])
        assert set(subset.profiles) == {"alu_simple", "load"}

    def test_unknown_category_rejected(self):
        with pytest.raises(KeyError):
            OpcodeProfiler(copies=4, repeats=2).run(["not_a_category"])

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            OpcodeProfiler(copies=0)
        with pytest.raises(ValueError):
            OpcodeProfiler(repeats=0)

    def test_ratios_are_relative_to_alu(self, report):
        ratios = report.ratios()
        assert ratios["alu_simple"] == pytest.approx(1.0) or \
            report.profile("alu_simple").nanoseconds == 0.0

    def test_format_table_lists_categories(self, report):
        table = report.format_table()
        assert "alu_simple" in table
        assert "helper_map_lookup" in table


class TestCalibratedModel:
    def test_calibration_scales_alu_cost(self):
        model = OpcodeLatencyModel(scale=2.0)
        from repro.bpf import builders
        insn = builders.ADD64_IMM(1, 1)
        assert model.instruction_cost(insn) == pytest.approx(
            2.0 * DEFAULT_LATENCY_MODEL.instruction_cost(insn))

    def test_calibrated_model_preserves_ordering(self):
        from repro.bpf import builders
        from repro.bpf.helpers import HelperId
        from repro.bpf.opcodes import MemSize
        model = OpcodeLatencyModel(scale=1.5)
        alu = model.instruction_cost(builders.ADD64_IMM(1, 1))
        load = model.instruction_cost(builders.LDX_MEM(MemSize.W, 1, 10, -8))
        call = model.instruction_cost(
            builders.CALL_HELPER(HelperId.MAP_LOOKUP_ELEM))
        assert alu < load < call


class TestOpcodeProfile:
    def test_relative_to(self):
        fast = OpcodeProfile("a", 2.0, 10)
        slow = OpcodeProfile("b", 6.0, 10)
        assert slow.relative_to(fast) == pytest.approx(3.0)
        assert fast.relative_to(OpcodeProfile("c", 0.0, 1)) == float("inf")
