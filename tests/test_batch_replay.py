"""Property tests for vectorized batch replay (``run_batch``).

``run_batch`` is the test suite's hot path: one decode, one machine, a
batch of tests, with one early exit — a ``stop(index, output)``
predicate, which the MCMC step uses to stop a suite run once its step is
lost, and which can pinpoint a refuting test.  The contract, for every
engine, is that a batched run is indistinguishable from N sequential
:meth:`run` calls:

* identical output fingerprints (return value, packet, maps, fault kind
  and text, step count, estimated nanoseconds) in identical order;
* stopping on a fault returns exactly the prefix up to and including the
  first faulting output;
* stopping on divergence from the aligned reference outputs returns
  exactly the prefix up to and including the first output whose
  ``observable()`` differs, so ``len(result) - 1`` is the refuting index;
  stopping against the reference's precomputed ``observable()`` tuples
  (the form the test suite caches) returns the same prefix.

Hypothesis drives the candidate shapes (proposal-mutation chains over
corpus programs) and the batch shapes (sizes, duplicate tests, early-exit
positions); each engine class is a separate parametrized case.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.corpus import get_benchmark
from repro.engine import ExecutionEngine
from repro.interpreter import Interpreter
from repro.synthesis.proposals import ProposalGenerator
from repro.synthesis.testcases import TestCaseGenerator as InputGenerator

from test_engine import output_fingerprint

BENCHMARKS = ["xdp_exception", "xdp_pktcntr", "xdp_map_access"]

#: Every engine the suite compares, by the name its test ids carry.
ENGINES = {"decoded": ExecutionEngine, "legacy": Interpreter}


def _candidate(name, mutations, seed):
    """A proposal-mutation chain of ``mutations`` steps over a benchmark."""
    source = get_benchmark(name).program()
    if mutations == 0:
        return source
    rng = random.Random(seed)
    proposer = ProposalGenerator(source, rng)
    current = list(source.instructions)
    for _ in range(mutations):
        current = proposer.propose(current)
    return source.with_instructions(current)


def _tests(program, size, seed):
    generated = InputGenerator(program, seed=seed).generate(max(size, 1))
    # Duplicates and reordering are legal batch shapes; derive them
    # deterministically from the seed.
    rng = random.Random(seed ^ 0xBA7C4)
    return [generated[rng.randrange(len(generated))] for _ in range(size)]


batch_cases = st.tuples(
    st.sampled_from(BENCHMARKS),      # benchmark
    st.integers(0, 12),               # proposal-mutation chain length
    st.integers(0, 9),                # batch size (0 = empty batch)
    st.integers(0, 2**16),            # seed
)


@pytest.mark.parametrize("kind", ENGINES)
class TestBatchEqualsSequential:
    @given(case=batch_cases)
    @settings(max_examples=40, deadline=None)
    def test_batch_matches_sequential(self, kind, case):
        name, mutations, size, seed = case
        program = _candidate(name, mutations, seed)
        tests = _tests(program, size, seed)
        sequential = [ENGINES[kind]().run(program, test)
                      for test in tests]
        batched = ENGINES[kind]().run_batch(program, tests)
        assert len(batched) == len(sequential)
        for a, b in zip(sequential, batched):
            assert output_fingerprint(a) == output_fingerprint(b)

    @given(case=batch_cases)
    @settings(max_examples=40, deadline=None)
    def test_stop_on_first_fault_prefix(self, kind, case):
        name, mutations, size, seed = case
        program = _candidate(name, mutations, seed)
        tests = _tests(program, size, seed)
        sequential = [ENGINES[kind]().run(program, test)
                      for test in tests]
        truncated = ENGINES[kind]().run_batch(
            program, tests, stop=lambda index, output: output.fault is not None)
        faults = [index for index, output in enumerate(sequential)
                  if output.fault is not None]
        expected_len = faults[0] + 1 if faults else len(tests)
        assert len(truncated) == expected_len
        for a, b in zip(sequential, truncated):
            assert output_fingerprint(a) == output_fingerprint(b)

    @given(case=batch_cases, divergence=st.integers(0, 9))
    @settings(max_examples=40, deadline=None)
    def test_expected_divergence_early_exit(self, kind, case, divergence):
        """Candidate outputs vs. source references.

        The returned list must stop at the first index where the candidate's
        observable differs from the reference — ``len(result) - 1`` is the
        refuting test.
        """
        name, mutations, size, seed = case
        source = get_benchmark(name).program()
        candidate = _candidate(name, mutations, seed)
        tests = _tests(source, size, seed)
        engine = ENGINES[kind]()
        expected = engine.run_batch(source, tests)
        sequential = [ENGINES[kind]().run(candidate, test)
                      for test in tests]
        got = ENGINES[kind]().run_batch(
            candidate, tests, stop=lambda index, output:
                output.observable() != expected[index].observable())
        observables = [o.observable() for o in expected]
        got_by_observable = ENGINES[kind]().run_batch(
            candidate, tests, stop=lambda index, output:
                output.observable() != observables[index])
        assert [output_fingerprint(o) for o in got_by_observable] == \
            [output_fingerprint(o) for o in got]
        diverging = [index for index, (a, b) in
                     enumerate(zip(sequential, expected))
                     if a.observable() != b.observable()]
        expected_len = diverging[0] + 1 if diverging else len(tests)
        assert len(got) == expected_len
        for a, b in zip(sequential, got):
            assert output_fingerprint(a) == output_fingerprint(b)
        if diverging:
            refuting = len(got) - 1
            assert got[refuting].observable() != \
                expected[refuting].observable()

    @given(case=batch_cases)
    @settings(max_examples=15, deadline=None)
    def test_batch_reuses_one_engine(self, kind, case):
        """A single long-lived engine must behave like fresh ones per call
        (the pipeline keeps one engine for the whole search)."""
        name, mutations, size, seed = case
        program = _candidate(name, mutations, seed)
        tests = _tests(program, size, seed)
        engine = ENGINES[kind]()
        first = engine.run_batch(program, tests)
        second = engine.run_batch(program, tests)
        fresh = ENGINES[kind]().run_batch(program, tests)
        assert [output_fingerprint(o) for o in first] == \
            [output_fingerprint(o) for o in fresh]
        assert [output_fingerprint(o) for o in second] == \
            [output_fingerprint(o) for o in fresh]
