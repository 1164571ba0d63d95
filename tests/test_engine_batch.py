"""Early exits of the engine's ``run_batch`` against sequential runs.

Given a ``stop`` predicate over the source program's precomputed
``observable()`` tuples (the form the test suite caches), the engine must
stop at the first diverging test and return exactly what the legacy
interpreter returns for the same call.
"""

from repro.bpf import assemble
from repro.corpus import get_benchmark
from repro.engine import ExecutionEngine
from repro.interpreter import Interpreter
from repro.synthesis.testcases import TestCaseGenerator as InputGenerator

from test_engine import output_fingerprint


class TestAdaptiveReplay:
    def _divergent_pair(self):
        source = get_benchmark("xdp_exception").program()
        instructions = list(source.instructions)
        # Flip the return value: diverges on every test.
        candidate = source.with_instructions(
            assemble("mov64 r0, 3\nexit") + instructions[2:])
        return source, candidate

    def test_expected_observables_early_exit_matches_sequential(self):
        source, candidate = self._divergent_pair()
        tests = InputGenerator(source, seed=3).generate(10)
        observables = [o.observable()
                       for o in Interpreter().run_batch(source, tests)]

        def diverged(index, output):
            return output.observable() != observables[index]

        sequential = Interpreter().run_batch(candidate, tests, stop=diverged)
        batched = ExecutionEngine().run_batch(candidate, tests, stop=diverged)
        assert len(batched) == len(sequential)
        for a, b in zip(sequential, batched):
            assert output_fingerprint(a) == output_fingerprint(b)
