"""Tests for the portfolio equivalence front end (repro.verification.portfolio).

The portfolio dovetails two solver front ends — the long-lived incremental
session and a fresh-solver-per-query session — on a deterministic doubling
conflict budget; the first conclusive verdict wins.  The invariants under
test:

* the verdict is identical to the plain incremental checker's, no matter
  which front end wins a given query;
* the dovetail schedule is deterministic (EMA over *conflicts spent*, not
  wall clock, with declaration-order tie-breaks), so seeded search results
  are bit-identical with the portfolio on or off and across executors;
* on healthy workloads the incremental front end wins every query inside
  the first budget slice, so the fresh front end does zero work — the
  zero-overhead property that fixes the ``sys_enter_open`` Table 4
  regression without taxing the rows where the incremental session wins.
"""

import pickle

import pytest

from repro.bpf import NOP
from repro.corpus import get_benchmark
from repro.equivalence import (
    EquivalenceChecker, EquivalenceOptions, EquivalenceResult, Window,
)
from repro.synthesis import SearchOptions, Synthesizer
from repro.verification import PortfolioEquivalenceChecker, VerificationPipeline

from golden_helpers import search_signature


def _pairs(name="xdp_exception"):
    """(source, candidate, window) triples: one equivalent rewrite (NOP a
    dead store? no — NOP the instruction and let the checker decide) and one
    semantics-changing immediate tweak."""
    source = get_benchmark(name).program()
    triples = []
    for index, insn in enumerate(source.instructions):
        if not insn.is_store or insn.is_nop:
            continue
        window = Window(index, index + 1)
        variants = [NOP]
        if insn.is_store_imm:
            variants.append(insn.with_fields(imm=insn.imm ^ 1))
        variants.append(insn.with_fields(off=insn.off - 8))
        for variant in variants:
            instructions = list(source.instructions)
            instructions[index] = variant
            triples.append((source, source.with_instructions(instructions),
                            window))
        break
    assert triples, "benchmark has no store to rewrite"
    return triples


# --------------------------------------------------------------------------- #
# Verdict identity
# --------------------------------------------------------------------------- #
class TestPortfolioVerdicts:
    def test_agrees_with_plain_incremental_checker(self):
        options = EquivalenceOptions()
        plain = EquivalenceChecker(options)
        portfolio = PortfolioEquivalenceChecker(options)
        for source, candidate, _ in _pairs():
            expected = plain.check(source, candidate)
            got = portfolio.check(source, candidate)
            assert got.equivalent == expected.equivalent
            assert got.unknown == expected.unknown
        assert portfolio.num_queries == len(_pairs())
        assert sum(portfolio.wins.values()) == portfolio.num_queries

    def test_verdict_independent_of_winning_front_end(self):
        options = EquivalenceOptions()
        baseline = {}
        for source, candidate, _ in _pairs():
            baseline[candidate.structural_key()] = \
                EquivalenceChecker(options).check(source, candidate)
        for favored in PortfolioEquivalenceChecker.FRONT_ENDS:
            portfolio = PortfolioEquivalenceChecker(options)
            for source, candidate, _ in _pairs():
                # Bias the EMA so ``favored`` is scheduled first; the verdict
                # must not depend on who answers.
                portfolio._ema = {name: 0.0 if name == favored else 1.0
                                  for name in portfolio.FRONT_ENDS}
                got = portfolio.check(source, candidate)
                expected = baseline[candidate.structural_key()]
                assert got.equivalent == expected.equivalent
                assert got.unknown == expected.unknown
            assert portfolio.wins[favored] == portfolio.num_queries

    def test_first_query_prefers_incremental(self):
        # Declaration-order tie-break on the all-zero EMA: the incremental
        # session answers first, so a healthy workload never pays for the
        # fresh front end.
        portfolio = PortfolioEquivalenceChecker(EquivalenceOptions())
        source, candidate, _ = _pairs()[0]
        portfolio.check(source, candidate)
        assert portfolio.wins == {"incremental": 1, "fresh": 0}
        assert portfolio.escalations == 0


# --------------------------------------------------------------------------- #
# Dovetail schedule (stub front ends: budget thresholds are exact)
# --------------------------------------------------------------------------- #
class _BudgetedStub:
    """A front end that answers only once its budget reaches a threshold.

    Below the threshold it burns the whole slice and reports the retryable
    "solver budget exhausted" unknown, exactly like a real checker whose SAT
    core ran out of conflicts.
    """

    def __init__(self, needed, verdict):
        self.needed = needed
        self.verdict = verdict
        self.conflict_budget = None
        self._conflicts = 0

    @property
    def session_conflicts(self):
        return self._conflicts

    def reset_session(self):
        self._conflicts = 0

    def check(self, source, candidate, *rest):
        if self.conflict_budget >= self.needed:
            return self.verdict
        self._conflicts += self.conflict_budget
        return EquivalenceResult(equivalent=False, unknown=True,
                                 reason="solver budget exhausted")


def _stub_factory(thresholds, verdict):
    """Factory handing each front end (in declaration order) its threshold."""
    queue = list(thresholds)

    def factory(options):
        return _BudgetedStub(queue.pop(0), verdict)

    return factory


class TestDovetailSchedule:
    def test_fresh_wins_after_escalation(self):
        verdict = EquivalenceResult(equivalent=True)
        options = EquivalenceOptions(portfolio_initial_conflicts=4,
                                     portfolio_growth=2, max_conflicts=64)
        # Incremental never answers within the cap; fresh answers once the
        # slice reaches 8 — i.e. after one full escalation round.
        portfolio = PortfolioEquivalenceChecker(
            options, factory=_stub_factory([1000, 8], verdict))
        source, candidate, _ = _pairs()[0]
        result = portfolio.check(source, candidate)
        assert result.equivalent
        assert portfolio.wins == {"incremental": 0, "fresh": 1}
        # Slice 4: both fail.  Slice 8: incremental (still tied on the EMA,
        # declaration order) fails once more, then fresh answers.
        assert portfolio.escalations == 3

    def test_budget_doubles_up_to_the_cap(self):
        verdict = EquivalenceResult(equivalent=True)
        options = EquivalenceOptions(portfolio_initial_conflicts=1,
                                     portfolio_growth=2, max_conflicts=16)
        # Fresh answers only at the full cap: both fail slices 1,2,4,8
        # (two escalations each), incremental fails once more at 16.
        portfolio = PortfolioEquivalenceChecker(
            options, factory=_stub_factory([1000, 16], verdict))
        source, candidate, _ = _pairs()[0]
        result = portfolio.check(source, candidate)
        assert result.equivalent
        assert portfolio.escalations == 9

    def test_both_exhausted_returns_retryable_unknown(self):
        verdict = EquivalenceResult(equivalent=True)
        options = EquivalenceOptions(portfolio_initial_conflicts=2,
                                     portfolio_growth=2, max_conflicts=8)
        portfolio = PortfolioEquivalenceChecker(
            options, factory=_stub_factory([1000, 1000], verdict))
        source, candidate, _ = _pairs()[0]
        result = portfolio.check(source, candidate)
        assert result.unknown
        assert result.reason.endswith("solver budget exhausted")
        assert portfolio.wins == {"incremental": 0, "fresh": 0}

    def test_ema_prefers_the_cheaper_front_end(self):
        verdict = EquivalenceResult(equivalent=True)
        options = EquivalenceOptions(portfolio_initial_conflicts=4,
                                     portfolio_growth=2, max_conflicts=64)
        portfolio = PortfolioEquivalenceChecker(
            options, factory=_stub_factory([1000, 8], verdict))
        source, candidate, _ = _pairs()[0]
        portfolio.check(source, candidate)
        # Incremental burned conflicts, fresh concluded: fresh is now
        # cheaper on the EMA and gets scheduled first.
        assert portfolio._order()[0] == "fresh"


# --------------------------------------------------------------------------- #
# Plumbing: pickling (process executors) and session resets
# --------------------------------------------------------------------------- #
class TestPortfolioPlumbing:
    def test_pickle_round_trip(self):
        portfolio = PortfolioEquivalenceChecker(EquivalenceOptions())
        source, candidate, _ = _pairs()[0]
        before = portfolio.check(source, candidate)
        clone = pickle.loads(pickle.dumps(portfolio))
        after = clone.check(source, candidate)
        assert after.equivalent == before.equivalent
        assert clone.num_queries == portfolio.num_queries + 1

    def test_reset_session_clears_schedule_state(self):
        portfolio = PortfolioEquivalenceChecker(EquivalenceOptions())
        source, candidate, _ = _pairs()[0]
        portfolio.check(source, candidate)
        portfolio._ema["incremental"] = 42.0
        portfolio.reset_session()
        assert portfolio._ema == {name: 0.0
                                  for name in portfolio.FRONT_ENDS}
        assert portfolio._fresh_query_key is None

    def test_pipeline_wires_portfolio_into_both_solver_stages(self):
        pipeline = VerificationPipeline(
            options=EquivalenceOptions(portfolio=True))
        assert isinstance(pipeline.checker, PortfolioEquivalenceChecker)
        assert isinstance(pipeline.window_checker,
                          PortfolioEquivalenceChecker)
        pipeline.begin_generation()  # must reset both portfolios cleanly


# --------------------------------------------------------------------------- #
# Search determinism with the portfolio on
# --------------------------------------------------------------------------- #
class TestSearchDeterminism:
    def _signature(self, executor, portfolio):
        source = get_benchmark("xdp_exception").program()
        options = SearchOptions(
            iterations_per_chain=40, num_parameter_settings=2, seed=23,
            executor=executor,
            equivalence=EquivalenceOptions(portfolio=portfolio))
        return search_signature(Synthesizer(options).optimize(source))

    def test_portfolio_does_not_change_search_results(self):
        assert self._signature("serial", True) == \
            self._signature("serial", False)

    @pytest.mark.slow
    def test_portfolio_identical_across_executors(self):
        serial = self._signature("serial", True)
        assert self._signature("thread", True) == serial
        assert self._signature("process", True) == serial


# --------------------------------------------------------------------------- #
# The Table 4 regression the portfolio exists to fix
# --------------------------------------------------------------------------- #
class TestSysEnterOpenRegression:
    def _workload(self, source):
        work = []
        windows = 0
        for index, insn in enumerate(source.instructions):
            if not insn.is_store or insn.is_nop:
                continue
            window = Window(index, index + 1)
            variants = [NOP]
            if insn.is_store_imm:
                variants.append(insn.with_fields(imm=insn.imm ^ 1))
            variants.append(insn.with_fields(off=insn.off - 8))
            for variant in variants:
                instructions = list(source.instructions)
                instructions[index] = variant
                work.append((source.with_instructions(instructions), window))
            windows += 1
            if windows >= 2:
                break
        return work

    def test_sys_enter_open_incremental_regression(self):
        """The Table 4 ``sys_enter_open`` row where plain incremental barely
        beat fresh solving (1.06x in the committed baseline).  The portfolio
        must (a) agree with both plain configurations on every verdict and
        (b) resolve every query with the incremental front end inside the
        first budget slice — zero escalations, so the fresh front end does
        no work and the portfolio adds no overhead where incremental is
        already winning, while still bounding its worst case.
        """
        source = get_benchmark("sys_enter_open").program()
        work = self._workload(source)
        assert work, "sys_enter_open lost its store instructions"

        def verdicts(options):
            pipeline = VerificationPipeline(options=options)
            return pipeline, [
                pipeline.verify(source, candidate, window=window)
                .result.equivalent for candidate, window in work]

        _, incremental = verdicts(EquivalenceOptions())
        portfolio_pipeline, portfolio = verdicts(
            EquivalenceOptions(portfolio=True))
        assert portfolio == incremental

        window_portfolio = portfolio_pipeline.window_checker
        full_portfolio = portfolio_pipeline.checker
        solver_queries = window_portfolio.num_queries + \
            full_portfolio.num_queries
        assert solver_queries > 0, \
            "workload never reached a solver-backed stage"
        assert window_portfolio.escalations == 0
        assert full_portfolio.escalations == 0
        assert window_portfolio.wins["fresh"] == 0
        assert full_portfolio.wins["fresh"] == 0
        assert window_portfolio.wins["incremental"] == \
            window_portfolio.num_queries
