"""Tests for the stochastic synthesis machinery (§3) and the K2 compiler API."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import K2Config, optimize
from repro.bpf import BpfProgram, HookType, assemble, get_hook
from repro.bpf.maps import MapDef, MapEnvironment, MapType
from repro.bpf.transforms import remove_nops
from repro.interpreter import Interpreter, ProgramOutput
from repro.synthesis import (
    CostSettings, DiffKind, MarkovChain, NumTestsVariant, OperandPools,
    PerformanceGoal, ProposalGenerator, RewriteRuleProbabilities,
    TABLE8_SETTINGS, all_parameter_settings,
    error_cost, output_distance, performance_cost,
)
from repro.synthesis import TestCaseGenerator as CaseGenerator
from repro.synthesis import TestSuite as SynthTestSuite


def prog(text, maps=None, hook=HookType.XDP):
    return BpfProgram(instructions=assemble(text), hook=get_hook(hook),
                      maps=maps or MapEnvironment(), name="prog")


REDUNDANT = """
    mov64 r6, 0
    stxw [r10-4], r6
    stxw [r10-4], r6
    ldxw r0, [r10-4]
    exit
"""


class TestCostFunctions:
    def test_identical_outputs_have_zero_distance(self):
        a = ProgramOutput(return_value=3, packet=b"xy")
        assert output_distance(a, a, DiffKind.ABSOLUTE) == 0

    def test_popcount_vs_absolute(self):
        a = ProgramOutput(return_value=0, packet=b"")
        b = ProgramOutput(return_value=8, packet=b"")
        assert output_distance(a, b, DiffKind.POPCOUNT) == 1
        assert output_distance(a, b, DiffKind.ABSOLUTE) == 8

    def test_fault_mismatch_penalised(self):
        ok = ProgramOutput(return_value=0)
        bad = ProgramOutput(return_value=None, fault="OutOfBounds")
        assert output_distance(ok, bad, DiffKind.ABSOLUTE) > 0

    def test_packet_differences_counted(self):
        a = ProgramOutput(return_value=0, packet=b"\x00\x00")
        b = ProgramOutput(return_value=0, packet=b"\x00\xff")
        assert output_distance(a, b, DiffKind.POPCOUNT) == 8

    def test_map_differences_counted(self):
        a = ProgramOutput(return_value=0, maps={1: {b"k": b"\x01"}})
        b = ProgramOutput(return_value=0, maps={1: {b"k": b"\x02"}})
        assert output_distance(a, b, DiffKind.ABSOLUTE) == 1

    def test_error_cost_unequal_term(self):
        outputs = [ProgramOutput(return_value=1)] * 4
        settings_ = CostSettings(num_tests_variant=NumTestsVariant.CORRECT)
        assert error_cost(outputs, outputs, settings_, unequal=1) == 4
        assert error_cost(outputs, outputs, settings_, unequal=0) == 0

    def test_performance_cost_instruction_count(self):
        source = prog("mov64 r0, 0\nmov64 r1, 1\nexit")
        candidate = prog("mov64 r0, 0\nja +0\nexit")
        assert performance_cost(source, candidate, CostSettings()) == -1

    def test_performance_cost_latency_goal(self):
        source = prog("call bpf_ktime_get_ns\nmov64 r0, 0\nexit")
        candidate = prog("mov64 r0, 0\nja +0\nexit")
        settings_ = CostSettings(goal=PerformanceGoal.LATENCY)
        assert performance_cost(source, candidate, settings_) < 0


class TestProposalGenerator:
    def test_proposals_preserve_length(self):
        source = prog(REDUNDANT)
        generator = ProposalGenerator(source, random.Random(0))
        for _ in range(200):
            candidate = generator.propose(source.instructions)
            assert len(candidate) == len(source.instructions)

    def test_proposals_never_write_r10(self):
        source = prog(REDUNDANT)
        generator = ProposalGenerator(source, random.Random(1))
        for _ in range(300):
            for insn in generator.propose(source.instructions):
                assert 10 not in insn.regs_written()

    def test_jump_offsets_are_forward(self):
        source = prog(REDUNDANT)
        generator = ProposalGenerator(source, random.Random(2))
        for _ in range(300):
            candidate = generator.propose(source.instructions)
            for index, insn in enumerate(candidate):
                if insn.is_conditional_jump or insn.is_unconditional_jump:
                    assert insn.off >= 0

    def test_operand_pools_harvested_from_source(self):
        pools = OperandPools(prog(REDUNDANT))
        assert -4 in pools.offsets
        assert 0 in pools.immediates
        assert 10 in pools.base_registers and 10 not in pools.registers

    def test_rule_probabilities_validate(self):
        with pytest.raises(ValueError):
            RewriteRuleProbabilities(0, 0, 0, 0, 0, 0).normalized()
        weights = RewriteRuleProbabilities().normalized()
        assert sum(weights) == pytest.approx(1.0)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_property_proposals_are_new_lists(self, seed):
        source = prog(REDUNDANT)
        generator = ProposalGenerator(source, random.Random(seed))
        original = list(source.instructions)
        generator.propose(source.instructions)
        assert list(source.instructions) == original


class TestTestSuite:
    def test_generator_respects_hook(self):
        xdp = CaseGenerator(prog(REDUNDANT), seed=1).generate_one()
        trace = CaseGenerator(prog("mov64 r0, 0\nexit",
                                       hook=HookType.TRACEPOINT),
                                  seed=1).generate_one()
        assert xdp.packet != b"" or trace.packet == b""
        assert trace.packet == b""

    def test_map_contents_generated_for_programs_with_maps(self):
        maps = MapEnvironment([MapDef(fd=1, name="m", map_type=MapType.ARRAY,
                                      key_size=4, value_size=8, max_entries=4)])
        program = prog(REDUNDANT, maps)
        tests = CaseGenerator(program, seed=2).generate(20)
        assert any(t.map_contents for t in tests)

    def test_counterexamples_deduplicated(self):
        suite = SynthTestSuite(prog(REDUNDANT), num_initial=4, seed=0)
        test = suite.tests[0]
        assert not suite.add_counterexample(test)
        assert len(suite) == 4

    def test_source_outputs_cached_and_refreshed(self):
        suite = SynthTestSuite(prog(REDUNDANT), num_initial=4, seed=0)
        first = suite.source_outputs
        assert suite.source_outputs is first
        from repro.interpreter import ProgramInput

        suite.add_counterexample(ProgramInput(packet=b"\xff" * 64))
        assert len(suite.source_outputs) == 5


class TestTransforms:
    def test_remove_nops_rewrites_jumps(self):
        instructions = assemble("""
        jeq r1, 0, +2
        ja +0
        mov64 r0, 1
        mov64 r0, 2
        exit
        """)
        compacted = remove_nops(instructions)
        assert len(compacted) == 4
        assert compacted[0].off == 1
        program = prog("mov64 r0, 0\nexit").with_instructions(compacted)
        program.validate()

    def test_remove_nops_identity_when_no_nops(self):
        instructions = assemble("mov64 r0, 1\nexit")
        assert remove_nops(instructions) == instructions


class TestMarkovChain:
    def test_chain_finds_redundant_store_removal(self):
        source = prog(REDUNDANT)
        chain = MarkovChain(source, seed=5,
                            test_suite=SynthTestSuite(source, num_initial=8, seed=5))
        result = chain.run(600)
        assert result.best is not None
        assert result.best.instruction_count <= source.num_real_instructions
        assert result.statistics.iterations == 600

    def test_verified_candidates_are_truly_equivalent(self):
        source = prog(REDUNDANT)
        chain = MarkovChain(source, seed=9,
                            test_suite=SynthTestSuite(source, num_initial=8, seed=9))
        result = chain.run(400)
        interp = Interpreter()
        tests = CaseGenerator(source, seed=99).generate(20)
        for candidate in result.candidates[:3]:
            candidate.program.validate()
            for test in tests:
                assert interp.run(source, test).observable() == \
                    interp.run(candidate.program, test).observable()

    def test_parameter_settings_table(self):
        settings_ = all_parameter_settings()
        assert len(settings_) == 16
        assert len({s.setting_id for s in settings_}) == 16
        assert settings_[:5] == [
            s.__class__(**{**s.__dict__}) if False else s
            for s in settings_[:5]]
        assert TABLE8_SETTINGS[0].cost.diff_kind == DiffKind.ABSOLUTE


class TestK2Compiler:
    """The in-process entry point, ``api.optimize``."""

    def test_compiler_end_to_end_on_small_program(self):
        source = prog(REDUNDANT)
        result = optimize(source, K2Config(iterations=400, settings=1,
                                           seed=2))
        assert result.kernel_checker_verdict.accepted
        assert result.optimized.num_real_instructions <= \
            source.num_real_instructions
        result.optimized.validate()
        assert len(result.to_bytes()) % 8 == 0

    def test_compiler_never_degrades(self):
        source = prog("mov64 r0, 2\nexit")
        result = optimize(source, K2Config(iterations=50, settings=1,
                                           seed=0))
        assert result.optimized.num_real_instructions <= 2
        assert result.compression_percent >= 0.0

    def test_latency_goal(self):
        source = prog(REDUNDANT)
        result = optimize(source, K2Config(goal="latency", iterations=200,
                                           settings=1, seed=4))
        assert result.estimated_latency_gain >= 0.0

    def test_summary_mentions_instruction_counts(self):
        source = prog("mov64 r0, 2\nexit")
        result = optimize(source, K2Config(iterations=20, settings=1))
        assert "instructions" in result.summary()
