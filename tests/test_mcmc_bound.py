"""The MCMC step's early stop: a bounded evaluation decides like a full one.

Each Metropolis-Hastings step draws its acceptance uniform before it
evaluates the proposal, and the suite run stops once the cost over the
tests run so far (an :class:`~repro.synthesis.cost.ErrorTally` lower bound)
already loses the step.  The contract pinned here:

* for every Table 8 setting, a bounded evaluation (``_evaluate`` with the
  draw) takes the same accept/reject decision as a full one (``_evaluate``
  without a draw) and leaves the same chain state — counters, suite,
  shared counterexamples, verified candidates, pipeline tallies, RNG —
  apart from ``tests_skipped``.  Draws include the full cost's acceptance
  probability itself and its neighbouring floats;
* ``beta_anneal=0`` accepts every step and never stops early;
* ``_evaluate`` never draws from the chain RNG, which is what lets the
  step draw first without changing the RNG stream;
* ``error_cost`` equals equation (1) computed the long way (every
  distance, summed left to right), and a tally's cost over any prefix of
  a suite never exceeds its cost over the whole suite;
* a real chain runs fewer suite tests than iterations x suite size, and
  ``ChainStatistics.tests_skipped`` counts exactly the difference; the
  count survives checkpoint resume and reaches the daemon's job summary.

The tier-1 check runs a few hundred mutated candidates per setting; the
seeded sweep under the ``slow`` marker runs thousands for the nightly job.
"""

import dataclasses
import math
import random

import pytest

from repro.corpus import get_benchmark
from repro.engine import ExecutionEngine
from repro.service.daemon import summarize_search_result
from repro.synthesis import SearchInterrupted, SearchOptions, Synthesizer
from repro.synthesis.cost import (
    ErrorTally, NumTestsVariant, error_cost, output_distance,
)
from repro.synthesis.mcmc import MarkovChain
from repro.synthesis.params import TABLE8_SETTINGS
from repro.synthesis.proposals import ProposalGenerator

from golden_helpers import verification_signature
from test_parallel_search import REDUNDANT
from test_service import prog, stop_after

SETTING_IDS = [setting.setting_id for setting in TABLE8_SETTINGS]


def _setting(setting_id):
    return next(setting for setting in TABLE8_SETTINGS
                if setting.setting_id == setting_id)


def _chain(source, setting, seed, **kwargs):
    return MarkovChain(source, cost_settings=setting.cost,
                       probabilities=setting.probabilities, seed=seed,
                       **kwargs)


def chain_state(chain):
    """Everything an evaluation may change, minus ``tests_skipped``."""
    stats = dataclasses.asdict(chain.stats)
    del stats["tests_skipped"]
    return (
        stats,
        [test.freeze_key() for test in chain.tests.tests],
        [test.freeze_key() for test in chain.discovered_counterexamples],
        [(candidate.program.structural_key(), candidate.perf_cost,
          candidate.found_at_iteration) for candidate in chain.verified],
        verification_signature(chain.pipeline.stats.as_dict()),
        chain.rng.getstate(),
    )


def _draw(rng, step, probability):
    """Uniform draws, mixed with the acceptance probability itself and its
    neighbouring floats (the decision boundary)."""
    kind = step % 4
    if kind == 1:
        draw = probability
    elif kind == 2:
        draw = math.nextafter(probability, 0.0)
    elif kind == 3:
        draw = math.nextafter(probability, 1.0)
    else:
        return rng.random()
    return min(draw, math.nextafter(1.0, 0.0))


def check_bounded_decisions(program_name, setting, candidates, seed,
                            lazy_safety=True):
    """Walk ``candidates`` mutated proposals through a bounded and a full
    twin chain; assert equal decisions and states.  Returns how many
    evaluations stopped early, and how many of those found the candidate
    unsafe."""
    source = get_benchmark(program_name).program()
    bounded = _chain(source, setting, seed, lazy_safety=lazy_safety)
    full = _chain(source, setting, seed, lazy_safety=lazy_safety)
    proposer = ProposalGenerator(source, random.Random(seed),
                                 setting.probabilities)
    draws = random.Random(seed ^ 0x5EED)
    current = list(source.instructions)
    stops = stopped_unsafe = 0
    for step in range(candidates):
        insns = proposer.propose(current)
        candidate = source.with_instructions(insns)
        full_cost, _ = full._evaluate(candidate)
        probability = full._accept_probability(full_cost)
        draw = _draw(draws, step, probability)
        skipped = bounded.stats.tests_skipped
        unsafe = bounded.stats.proposals_unsafe
        bounded_cost, _ = bounded._evaluate(candidate, draw=draw)
        if bounded_cost is None:
            stops += 1
            stopped_unsafe += bounded.stats.proposals_unsafe - unsafe
            assert bounded.stats.tests_skipped >= skipped
        else:
            assert bounded_cost == full_cost
            assert bounded.stats.tests_skipped == skipped
        accepted = draw < probability
        assert (bounded_cost is not None and
                draw < bounded._accept_probability(bounded_cost)) == accepted
        assert chain_state(bounded) == chain_state(full)
        if accepted:
            current = insns
            for chain in (bounded, full):
                chain._current = insns
                chain._current_cost = full_cost
    return stops, stopped_unsafe


def reference_error_cost(source_outputs, candidate_outputs, settings,
                         unequal):
    """Equation (1) term by term: every distance, summed left to right."""
    per_test = [output_distance(s, c, settings.diff_kind)
                for s, c in zip(source_outputs, candidate_outputs)]
    total = 0.0
    for distance in per_test:
        total += distance
    weight = 1.0 / len(per_test) if settings.normalize_by_tests else 1.0
    num_wrong = sum(1 for distance in per_test if distance > 0)
    num_tests = num_wrong \
        if settings.num_tests_variant == NumTestsVariant.INCORRECT \
        else len(per_test) - num_wrong
    return weight * total + unequal * num_tests


class TestErrorTally:
    @pytest.mark.parametrize("setting_id", SETTING_IDS)
    def test_error_cost_matches_reference_and_bounds_prefixes(self,
                                                              setting_id):
        settings = _setting(setting_id).cost
        engine = ExecutionEngine()
        for name, seed in (("xdp_pktcntr", 1), ("xdp2", 2),
                           ("xdp_map_access", 3)):
            source = get_benchmark(name).program()
            suite = _chain(source, _setting(setting_id), seed).tests
            source_outputs = suite.source_outputs
            proposer = ProposalGenerator(source, random.Random(seed))
            current = list(source.instructions)
            for _ in range(40):
                current = proposer.propose(current)
                outputs = engine.run_batch(source.with_instructions(current),
                                           suite.tests)
                for unequal in (0, 1):
                    assert error_cost(source_outputs, outputs, settings,
                                      unequal) == reference_error_cost(
                        source_outputs, outputs, settings, unequal)
                tally = ErrorTally(settings, len(outputs))
                prefixes = []
                for source_output, output, observable in zip(
                        source_outputs, outputs, suite.source_observables):
                    tally.add(source_output, output, observable)
                    prefixes.append(tally.cost(1))
                assert prefixes == sorted(prefixes)
                assert prefixes[-1] == error_cost(source_outputs, outputs,
                                                  settings, 1)


class TestBoundedEvaluation:
    @pytest.mark.parametrize("setting_id", SETTING_IDS)
    def test_bounded_decision_matches_full(self, setting_id):
        stops, _ = check_bounded_decisions(
            "xdp_pktcntr", _setting(setting_id), candidates=200,
            seed=setting_id)
        assert stops > 0

    def test_eager_safety_still_checks_stopped_candidates(self):
        stops, stopped_unsafe = check_bounded_decisions(
            "xdp_exception", _setting(1), candidates=150, seed=5,
            lazy_safety=False)
        assert stops > 0 and stopped_unsafe > 0

    def test_zero_beta_never_stops(self):
        source = get_benchmark("xdp_pktcntr").program()
        chain = _chain(source, _setting(1), seed=3, beta_anneal=0.0)
        result = chain.run(150)
        assert result.statistics.tests_skipped == 0
        assert result.statistics.proposals_accepted == 150

    def test_evaluate_leaves_chain_rng_untouched(self):
        source = get_benchmark("xdp_pktcntr").program()
        chain = _chain(source, _setting(2), seed=9, lazy_safety=False)
        proposer = ProposalGenerator(source, random.Random(9))
        state = chain.rng.getstate()
        # The source passes every test and reaches the verification
        # pipeline; the mutations mostly fail the suite.
        candidates = [source] + [
            source.with_instructions(proposer.propose(source.instructions))
            for _ in range(30)]
        for candidate in candidates:
            chain._evaluate(candidate)
            chain._evaluate(candidate, draw=0.999)
        assert chain.stats.tests_skipped > 0
        assert chain.rng.getstate() == state


class TestSkippedTests:
    def test_chain_runs_fewer_suite_tests(self):
        source = get_benchmark("xdp_pktcntr").program()
        chain = _chain(source, _setting(1), seed=4)
        initial_size = len(chain.tests)
        ran, sizes = [], []
        run_candidate = chain.tests.run_candidate

        def counted(candidate, *args, **kwargs):
            sizes.append(len(chain.tests))
            outputs = run_candidate(candidate, *args, **kwargs)
            ran.append(len(outputs))
            return outputs

        chain.tests.run_candidate = counted
        iterations = 200
        stats = chain.run(iterations).statistics
        assert sum(ran) < iterations * initial_size
        assert stats.tests_skipped == sum(sizes) - sum(ran)

    def test_skipped_count_survives_resume_and_reaches_summary(self,
                                                               tmp_path):
        source = prog(REDUNDANT)
        options = dict(iterations_per_chain=160, num_parameter_settings=2,
                       seed=7, sync_interval=40)
        clean = Synthesizer(SearchOptions(**options)).optimize(source)
        skipped = [chain.statistics.tests_skipped
                   for chain in clean.chain_results]
        assert all(skipped)

        store = str(tmp_path / "st.k2s")
        with pytest.raises(SearchInterrupted):
            Synthesizer(SearchOptions(
                store_path=store, checkpoint_key="job",
                generation_hook=stop_after(2), **options)).optimize(source)
        resumed = Synthesizer(SearchOptions(
            store_path=store, checkpoint_key="job", **options)).optimize(source)
        assert [chain.statistics.tests_skipped
                for chain in resumed.chain_results] == skipped
        summary = summarize_search_result(resumed)
        assert [chain["tests_skipped"]
                for chain in summary["chains"]] == skipped


@pytest.mark.slow
@pytest.mark.parametrize("setting_id", SETTING_IDS)
def test_seeded_sweep_bounded_decisions(setting_id):
    setting = _setting(setting_id)
    stops = 0
    for program_name, seed in (("xdp_pktcntr", 101), ("xdp_exception", 202),
                               ("xdp_map_access", 303)):
        stops += check_bounded_decisions(program_name, setting,
                                         candidates=1000,
                                         seed=seed + setting_id)[0]
    assert stops >= 100
