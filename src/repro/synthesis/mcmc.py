"""The Metropolis-Hastings search over BPF programs (paper §3).

One :class:`MarkovChain` runs the loop of Fig. 1: propose a rewrite (§3.1),
evaluate its cost (§3.2) using the test suite, the safety checker and — when
every test passes — the tiered verification pipeline
(:class:`repro.verification.VerificationPipeline`: interpreter replay →
cache → window check → full symbolic equivalence), then accept or reject the
proposal (§3.3).  Equivalence and safety counterexamples feed back into the
test suite so similar candidates are pruned without further solver calls.

Each step draws its acceptance uniform before the evaluation, so the suite
run can stop as soon as the cost over the tests run so far already loses
the Metropolis-Hastings test; decisions are those of a full evaluation.
"""

from __future__ import annotations

import dataclasses
import math
import random
import time
from typing import Dict, List, Optional

from ..analysis import AbstractAnalyzer
from ..bpf.program import BpfProgram
from ..engine import FusedEngine
from ..equivalence import EquivalenceCache, EquivalenceResult
from ..perf.latency_model import DEFAULT_LATENCY_MODEL, OpcodeLatencyModel
from ..safety import SafetyChecker
from ..verification import VerificationPipeline
from .cost import (
    CostSettings, ERR_MAX, ErrorTally, error_cost, performance_cost,
    total_cost,
)
from .proposals import ProposalGenerator, RewriteRuleProbabilities
from .testcases import TestSuite

__all__ = ["ChainStatistics", "VerifiedCandidate", "ChainResult", "MarkovChain"]

#: Relative slack on the early-stop test: a suite run stops only when the
#: draw clears the bound's acceptance probability by this factor, so
#: rounding in ``exp`` can never stop a step the full cost would accept.
_STOP_MARGIN = 1e-9


@dataclasses.dataclass
class ChainStatistics:
    """Counters describing one chain's run (feed Tables 1, 6 and 9).

    ``elapsed_seconds`` is the chain's cumulative wall clock: repeated
    :meth:`MarkovChain.run` calls (the parallel engine runs each chain in
    several *generations*) accumulate rather than overwrite it.
    """

    iterations: int = 0
    proposals_accepted: int = 0
    proposals_unsafe: int = 0
    test_failures: int = 0
    equivalence_checks: int = 0
    equivalence_cache_hits: int = 0
    counterexamples_added: int = 0
    verified_candidates: int = 0
    best_found_at_iteration: Optional[int] = None
    best_found_at_seconds: Optional[float] = None
    elapsed_seconds: float = 0.0
    #: Cache hits on entries discovered by *another* chain (parallel engine).
    cross_chain_cache_hits: int = 0
    #: Cache hits on entries preseeded from the durable verdict store —
    #: verdicts computed by a *previous run* (cross-run warm start).
    cross_run_cache_hits: int = 0
    #: Counterexamples received from other chains via the shared pool.
    counterexamples_received: int = 0
    #: Number of ``run()`` calls (generations) this chain has executed.
    generations: int = 0
    #: Generations of this chain re-dispatched because a pool worker died
    #: (the controller rebuilds the pool and replays the seeded unit, so
    #: retries change wall clock and this counter, never the results).
    worker_retries: int = 0
    #: Per-stage verification-pipeline counters (attempts/accepts/rejects/
    #: escalations/skips/seconds per stage), snapshotted from the pipeline.
    verification: Dict[str, Dict[str, float]] = dataclasses.field(
        default_factory=dict)
    #: Instruction span ``[window_start, window_end)`` this chain was
    #: restricted to by the windowed scheduler; ``None`` for whole-program
    #: chains.  Surfaced so per-window statistics survive into SearchResult.
    window_start: Optional[int] = None
    window_end: Optional[int] = None
    #: Suite tests not run because the step was already lost (the
    #: early stop of :meth:`MarkovChain._evaluate`).
    tests_skipped: int = 0


@dataclasses.dataclass
class VerifiedCandidate:
    """A safe candidate formally proven equivalent to the source program."""

    program: BpfProgram
    perf_cost: float
    instruction_count: int
    estimated_latency: float
    found_at_iteration: int
    found_at_seconds: float


@dataclasses.dataclass
class ChainResult:
    """Outcome of running one Markov chain."""

    best: Optional[VerifiedCandidate]
    candidates: List[VerifiedCandidate]
    statistics: ChainStatistics


class MarkovChain:
    """One MCMC chain with a fixed cost configuration (one Table 8 column)."""

    def __init__(self, source: BpfProgram,
                 cost_settings: Optional[CostSettings] = None,
                 probabilities: Optional[RewriteRuleProbabilities] = None,
                 seed: int = 0,
                 test_suite: Optional[TestSuite] = None,
                 beta_anneal: float = 1.0,
                 latency_model: OpcodeLatencyModel = DEFAULT_LATENCY_MODEL,
                 lazy_safety: bool = True,
                 pipeline: Optional[VerificationPipeline] = None,
                 engine=None,
                 proposal_region: Optional[tuple] = None,
                 keep_nops: bool = False):
        source.validate()
        self.source = source
        self.settings = cost_settings or CostSettings()
        self.rng = random.Random(seed)
        # ``proposal_region`` restricts every rewrite to one instruction span
        # (windowed segment synthesis); ``keep_nops`` reports verified
        # candidates at full padded length so the windowed scheduler can
        # stitch them positionally before the final NOP compaction.
        self.proposer = ProposalGenerator(source, self.rng, probabilities,
                                          region=proposal_region)
        self.keep_nops = keep_nops
        # One long-lived execution engine per chain, shared by the test
        # suite and the verification pipeline's replay stage so the current
        # program and its proposals are decoded once for both.  Any engine
        # instance (or the legacy interpreter) may be passed in.
        if engine is None:
            engine = FusedEngine()
        self.engine = engine
        self.tests = test_suite or TestSuite(source, seed=seed, engine=engine)
        # The verification pipeline owns the equivalence options and the
        # cache.  One fused abstract analyzer per chain, shared by the
        # safety checker and the pipeline's static-safety pre-stage so both
        # hit one per-block/program memo (the static-analysis analogue of
        # the shared decode cache above); a pipeline built without one
        # leaves the safety checker its own.
        if pipeline is None:
            pipeline = VerificationPipeline(engine=engine,
                                            analyzer=AbstractAnalyzer())
        self.pipeline = pipeline
        self.safety = SafetyChecker(analyzer=pipeline.analyzer)
        self.latency_model = latency_model
        self.beta_anneal = beta_anneal
        self.lazy_safety = lazy_safety
        self.stats = ChainStatistics()
        if proposal_region is not None:
            self.stats.window_start, self.stats.window_end = proposal_region
        self.verified: List[VerifiedCandidate] = []
        #: Counterexamples this chain discovered itself (drained by the
        #: parallel controller to share with sibling chains).
        self.discovered_counterexamples: List = []

        self._current = list(source.instructions)
        self._current_cost = self._evaluate(self.source)[0]

    # ------------------------------------------------------------------ #
    # Accessors delegating to the pipeline.
    @property
    def cache(self) -> EquivalenceCache:
        return self.pipeline.cache

    @property
    def equivalence(self):
        return self.pipeline.checker

    @property
    def window_equivalence(self):
        return self.pipeline.window_checker

    # ------------------------------------------------------------------ #
    def run(self, iterations: int) -> ChainResult:
        """Run the chain for ``iterations`` proposals.

        ``run`` may be called repeatedly: the chain resumes from its current
        program, RNG state, test suite and cache, and the returned
        :class:`ChainResult` is cumulative over every call so far.  The
        parallel engine relies on this to run chains in generations.
        """
        started = time.perf_counter()
        # Solver sessions never cross a generation boundary: process pools
        # drop them in pickling, so serial runs drop them too — every
        # backend traverses the same solver history.
        self.pipeline.begin_generation()
        for _ in range(iterations):
            self.step(started)
        self.stats.elapsed_seconds += time.perf_counter() - started
        self.stats.generations += 1
        self.stats.cross_chain_cache_hits = self.cache.cross_chain_hits
        self.stats.cross_run_cache_hits = self.cache.store_hits
        self.stats.verification = self.pipeline.stats.as_dict()
        ordered = sorted(self.verified, key=lambda c: c.perf_cost)
        return ChainResult(best=ordered[0] if ordered else None,
                           candidates=ordered, statistics=self.stats)

    # ------------------------------------------------------------------ #
    def receive_counterexamples(self, tests) -> int:
        """Adopt counterexamples found by other chains (shared pool).

        Duplicates already in the suite are ignored.  Returns the number of
        tests actually added.
        """
        added = 0
        for test in tests:
            if self.tests.add_counterexample(test):
                added += 1
        self.stats.counterexamples_received += added
        return added

    def drain_discovered_counterexamples(self) -> List:
        """Hand the chain's own new counterexamples to the controller."""
        drained = self.discovered_counterexamples
        self.discovered_counterexamples = []
        return drained

    # ------------------------------------------------------------------ #
    def step(self, started: Optional[float] = None) -> None:
        """One Metropolis-Hastings step (§3.3)."""
        self.stats.iterations += 1
        proposal_insns = self.proposer.propose(self._current)
        candidate = self.source.with_instructions(proposal_insns)
        # Drawn ahead of the evaluation, which never uses ``self.rng``: the
        # RNG stream is the one a draw after the evaluation would see.
        draw = self.rng.random()
        candidate_cost, _ = self._evaluate(candidate, started=started,
                                           draw=draw)
        if candidate_cost is not None and \
                draw < self._accept_probability(candidate_cost):
            self._current = proposal_insns
            self._current_cost = candidate_cost
            self.stats.proposals_accepted += 1

    def _accept_probability(self, cost: float) -> float:
        """The Metropolis-Hastings acceptance probability of ``cost``."""
        if cost <= self._current_cost:
            return 1.0
        return math.exp(-self.beta_anneal * (cost - self._current_cost))

    # ------------------------------------------------------------------ #
    def _evaluate(self, candidate: BpfProgram,
                  started: Optional[float] = None,
                  draw: Optional[float] = None):
        """Compute the total cost of a candidate (Fig. 1 pipeline).

        ``draw`` is the step's acceptance uniform.  With it, the suite run
        stops as soon as the step is lost on the tests run so far, and the
        returned cost is ``None`` (the step rejects); every other side
        effect is the full evaluation's.
        """
        settings = self.settings
        perf = performance_cost(self.source, candidate, settings,
                                self.latency_model)

        # Test-case execution (cheap pruning before any static analysis).
        tally = self._run_suite(candidate, perf, draw)
        tests_pass = not tally.diverged

        # Safety checking (§6).  With ``lazy_safety`` the full static analysis
        # only runs for candidates that survive the test suite: candidates
        # that already fail tests carry a large error cost, so the additional
        # ERR_MAX term would not change the search's behaviour for them.
        safety_result = None
        safe_cost = 0.0
        if tests_pass or not self.lazy_safety:
            safety_result = self.safety.check(candidate)
            safe_cost = 0.0 if safety_result.safe else ERR_MAX
            if not safety_result.safe:
                self.stats.proposals_unsafe += 1
                # Feed back *every* safety counterexample (an earlier version
                # sliced to the first one): the suite deduplicates, and every
                # genuinely new input also enters the cross-chain shared pool
                # via discovered_counterexamples.
                for counterexample in safety_result.counterexamples:
                    if self.tests.add_counterexample(counterexample):
                        self.stats.counterexamples_added += 1
                        self.discovered_counterexamples.append(counterexample)

        # Formal equivalence checking only when every test passes (§3.2) and
        # the candidate is structurally sound enough to encode.
        unequal = 1
        error = None
        if tests_pass and (safety_result is None or safety_result.safe):
            equivalence = self._check_equivalence(candidate)
            unequal = 0 if equivalence.equivalent else 1
            if equivalence.counterexample is not None:
                if self.tests.add_counterexample(equivalence.counterexample):
                    self.stats.counterexamples_added += 1
                    self.discovered_counterexamples.append(
                        equivalence.counterexample)
                    # Re-count over the grown suite.
                    candidate_outputs = self.tests.run_candidate(candidate)
                    error = error_cost(self.tests.source_outputs,
                                       candidate_outputs, settings, unequal)
            if equivalence.equivalent and safety_result is not None \
                    and safety_result.safe:
                self._record_verified(candidate, started)
        else:
            self.stats.test_failures += 1

        if self._lost(tally, perf, draw):
            self.stats.tests_skipped += tally.num_tests - tally.seen
            return None, unequal
        if error is None:
            error = tally.cost(unequal)
        return total_cost(error, perf, safe_cost, settings), unequal

    def _run_suite(self, candidate: BpfProgram, perf: float,
                   draw: Optional[float]) -> ErrorTally:
        """Run the suite on ``candidate``, tallying err(p) in suite order.

        With a ``draw`` the run stops once :meth:`_lost` holds.
        """
        suite = self.tests
        # Source results first: the candidate's stop predicate reads them
        # while the engine is busy.
        source_outputs = suite.source_outputs
        observables = suite.source_observables
        tally = ErrorTally(self.settings, len(suite))

        def stop(index, output):
            tally.add(source_outputs[index], output, observables[index])
            return tally.diverged and self._lost(tally, perf, draw)

        suite.run_candidate(candidate, stop=stop)
        return tally

    def _lost(self, tally: ErrorTally, perf: float,
              draw: Optional[float]) -> bool:
        """Whether the step is lost whatever the untallied tests give.

        After a divergence the candidate fails the suite, so ``unequal`` is
        1 and the safety cost is 0 or more: the tally's cost with ``perf``
        and no safety term bounds the full cost from below, and a draw that
        this bound already rejects rejects the full cost too.  The bound
        needs non-negative error and safety weights; with ``beta_anneal``
        at 0 or below every step accepts.
        """
        settings = self.settings
        if draw is None or not tally.diverged or self.beta_anneal <= 0 \
                or settings.alpha < 0 or settings.gamma < 0:
            return False
        bound = total_cost(tally.cost(1), perf, 0.0, settings)
        return draw >= self._accept_probability(bound) * (1.0 + _STOP_MARGIN)

    # ------------------------------------------------------------------ #
    def _check_equivalence(self, candidate: BpfProgram) -> EquivalenceResult:
        outcome = self.pipeline.verify(self.source, candidate)
        if outcome.cache_hit:
            self.stats.equivalence_cache_hits += 1
        else:
            self.stats.equivalence_checks += 1
        return outcome.result

    # ------------------------------------------------------------------ #
    def _record_verified(self, candidate: BpfProgram,
                         started: Optional[float]) -> None:
        from ..bpf.transforms import remove_nops

        perf = performance_cost(self.source, candidate, self.settings,
                                self.latency_model)
        # Cumulative wall clock: prior generations plus the current run().
        elapsed = self.stats.elapsed_seconds + (
            (time.perf_counter() - started) if started else 0.0)
        reported = candidate if self.keep_nops else \
            candidate.with_instructions(remove_nops(candidate.instructions))
        entry = VerifiedCandidate(
            program=reported,
            perf_cost=perf,
            instruction_count=candidate.num_real_instructions,
            estimated_latency=self.latency_model.program_cost(candidate),
            found_at_iteration=self.stats.iterations,
            found_at_seconds=elapsed)
        self.stats.verified_candidates += 1
        if not self.verified or perf < min(c.perf_cost for c in self.verified):
            self.stats.best_found_at_iteration = self.stats.iterations
            self.stats.best_found_at_seconds = elapsed
        self.verified.append(entry)
        # Keep the list bounded: retain the best 16 candidates.
        self.verified.sort(key=lambda c: c.perf_cost)
        del self.verified[16:]
