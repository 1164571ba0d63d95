"""Differential battery for the engine's batched image path.

``ExecutionEngine.run_batch`` rewinds the machine from cached per-test
reset images and, when a run never touched the packet, returns the image's
packet bytes instead of copying the buffer.  Its contract is the legacy
interpreter's observable behaviour, bit for bit: return value, packet
bytes, map snapshots, fault strings, step counts and accumulated
cost-model nanoseconds.  The battery runs every batch twice on one engine,
so the second pass restores each test from an image cached after earlier
runs dirtied the machine, over the corpus, proposal-mutated candidates
(which exercise every fault path), step-limit boundaries and a statically
broken jump structure.
"""

import random

import pytest

from repro.bpf import BpfProgram, HookType, assemble, get_hook
from repro.bpf.instruction import NOP
from repro.bpf.maps import MapEnvironment
from repro.corpus import all_benchmarks, get_benchmark
from repro.engine import ExecutionEngine
from repro.interpreter import Interpreter, ProgramInput
from repro.perf.latency_model import DEFAULT_LATENCY_MODEL
from repro.synthesis.proposals import ProposalGenerator
from repro.synthesis.testcases import TestCaseGenerator as InputGenerator

from golden_helpers import engine_chain_signatures
from test_engine import output_fingerprint


def prog(text, hook=HookType.XDP, maps=None):
    return BpfProgram(instructions=assemble(text), hook=get_hook(hook),
                      maps=maps or MapEnvironment(), name="prog")


def assert_image_path_identical(program, tests, **engine_kwargs):
    """Legacy and two batches on one engine must agree bit for bit.

    The first batch builds each test's reset image; the second restores
    every test from its cached image after the first batch's runs.
    """
    legacy = Interpreter(**engine_kwargs).run_batch(program, tests)
    engine = ExecutionEngine(**engine_kwargs)
    for batch in ("first", "second"):
        outputs = engine.run_batch(program, tests)
        assert len(outputs) == len(legacy)
        for a, b in zip(legacy, outputs):
            assert output_fingerprint(a) == output_fingerprint(b), (
                f"{batch} batch diverges from legacy on {program.name}:\n"
                f"legacy={output_fingerprint(a)}\n"
                f"engine={output_fingerprint(b)}")


# --------------------------------------------------------------------------- #
# Corpus differential
# --------------------------------------------------------------------------- #
class TestFusedCorpusDifferential:
    def test_every_corpus_program_matches_both_engines(self):
        for bench in all_benchmarks():
            program = bench.program()
            tests = InputGenerator(program, seed=5).generate(8)
            assert_image_path_identical(program, tests)

    def test_cost_model_estimates_identical(self):
        cost_fn = DEFAULT_LATENCY_MODEL.instruction_cost
        for name in ["xdp_exception", "xdp1", "xdp_fw", "xdp-balancer"]:
            program = get_benchmark(name).program()
            tests = InputGenerator(program, seed=9).generate(6)
            assert_image_path_identical(program, tests, opcode_cost_fn=cost_fn)

    def test_non_strict_mode_matches(self):
        program = get_benchmark("xdp_pktcntr").program()
        tests = InputGenerator(program, seed=2).generate(6)
        assert_image_path_identical(program, tests, strict_uninitialized=False)


# --------------------------------------------------------------------------- #
# Proposal-mutated differential fuzz
# --------------------------------------------------------------------------- #
class TestFusedDifferentialFuzz:
    """Mutated candidates hit the fault paths and the instruction memo, and
    one long-lived engine restores every candidate's tests from the same
    cached images; it must stay bit-identical to legacy throughout."""

    def _fuzz(self, names, proposals_per_program, tests_per_candidate,
              seed=4321):
        rng = random.Random(seed)
        checked = 0
        faults_seen = set()
        engines = {"legacy": Interpreter(), "decoded": ExecutionEngine()}
        for name in names:
            source = get_benchmark(name).program()
            proposer = ProposalGenerator(source, rng)
            tests = InputGenerator(source, seed=seed).generate(
                tests_per_candidate)
            current = list(source.instructions)
            for _ in range(proposals_per_program):
                current = proposer.propose(current)
                candidate = source.with_instructions(current)
                outputs = {kind: engine.run_batch(candidate, tests)
                           for kind, engine in engines.items()}
                for a, b in zip(outputs["legacy"], outputs["decoded"]):
                    assert output_fingerprint(a) == output_fingerprint(b), (
                        f"divergence on mutated {name}:\n"
                        f"{candidate.to_text()}\n"
                        f"legacy={output_fingerprint(a)}\n"
                        f"decoded={output_fingerprint(b)}")
                for output in outputs["decoded"]:
                    checked += 1
                    if output.fault:
                        faults_seen.add(output.fault.split(":")[0])
        return checked, faults_seen

    def test_mutated_candidates_smoke(self):
        checked, faults = self._fuzz(
            ["xdp_exception", "xdp_pktcntr"], proposals_per_program=30,
            tests_per_candidate=4)
        assert checked > 0
        assert faults, "fuzz run produced no faulting candidates"

    @pytest.mark.slow
    def test_mutated_candidates_wide(self):
        checked, faults = self._fuzz(
            ["xdp_exception", "xdp_pktcntr", "xdp_map_access", "xdp_fw",
             "from-network", "sys_enter_open"],
            proposals_per_program=200, tests_per_candidate=6, seed=77)
        assert checked > 0
        assert len(faults) >= 2


# --------------------------------------------------------------------------- #
# Step-limit boundaries
# --------------------------------------------------------------------------- #
class TestStepLimitBoundaries:
    def test_every_limit_around_program_length(self):
        # Sweeping the limit across every instruction boundary stops runs
        # at every pc.  ``xdp2`` writes the packet, so its sweep also stops
        # runs after a packet store, where the image's packet bytes are
        # stale and must not be returned.
        for name in ("xdp_exception", "xdp2"):
            program = get_benchmark(name).program()
            tests = InputGenerator(program, seed=13).generate(3)
            baseline = Interpreter().run_batch(program, tests)
            steps_needed = max(output.steps for output in baseline)
            for limit in list(range(1, steps_needed + 2)):
                assert_image_path_identical(program, tests, step_limit=limit)

    def test_infinite_loop_limit_fault_identical(self):
        looping = prog("ja -1\nexit")
        for limit in (1, 2, 49, 50):
            assert_image_path_identical(
                looping, [ProgramInput(packet=bytes(64))], step_limit=limit)


# --------------------------------------------------------------------------- #
# Instruction memo and a statically broken jump structure
# --------------------------------------------------------------------------- #
class TestFuseCache:
    def test_mutated_window_reuses_unchanged_blocks(self):
        engine = ExecutionEngine()
        program = get_benchmark("xdp_exception").program()
        test = InputGenerator(program, seed=3).generate_one()
        engine.run(program, test)
        reused_before = engine.stats()["instructions_reused"]
        instructions = list(program.instructions)
        instructions[3] = NOP
        engine.run(program.with_instructions(instructions), test)
        # Every instruction outside the one-instruction window comes from
        # the per-instruction memo.
        assert engine.stats()["instructions_reused"] - reused_before == \
            len(instructions) - 1

    def test_broken_jump_structure_falls_back_to_decoded(self):
        # A statically out-of-range jump has defined dynamic behaviour: the
        # run faults when it takes the bad edge, identically on both sides.
        broken = prog("mov64 r0, 0\nja 100\nexit")
        test = ProgramInput(packet=bytes(64))
        assert_image_path_identical(broken, [test])
        assert ExecutionEngine().run(broken, test).fault.startswith(
            "InvalidJumpTarget")


# --------------------------------------------------------------------------- #
# Search-level identity: chains on the engine == chains on the oracle
# --------------------------------------------------------------------------- #
class TestSearchIdentityFused:
    def test_fused_search_bit_identical_to_decoded(self):
        source = get_benchmark("xdp_exception").program()
        assert engine_chain_signatures(source, ExecutionEngine,
                                       iterations=60, seed=11) == \
            engine_chain_signatures(source, Interpreter, iterations=60,
                                    seed=11)

    @pytest.mark.slow
    def test_fused_search_bit_identical_to_legacy_wide(self):
        source = get_benchmark("xdp_pktcntr").program()
        assert engine_chain_signatures(source, ExecutionEngine,
                                       iterations=150, seed=7) == \
            engine_chain_signatures(source, Interpreter, iterations=150,
                                    seed=7)
