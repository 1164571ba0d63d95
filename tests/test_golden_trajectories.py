"""Pinned search trajectories and SAT-core answers.

``tests/golden_trajectories.json`` pins two things:

* ``searches``: for a long corpus program (``xdp_stats_ladder``, 1 setting
  x 12 iterations) and a small one (``xdp_pktcntr``, 2 x 120), both serial
  with seed 7, a digest of :func:`golden_helpers.search_signature` plus the
  SAT core's effort per verification stage — solves, SAT (counterexample)
  and UNSAT (equivalent) answers, conflicts and decisions — and, to make a
  drift readable, the full stage's tallies and the best program's size.
* ``sessions``: seeded incremental random-3-CNF sessions run directly on
  :class:`~repro.smt.sat.IncrementalSatSolver`.  Each session adds clauses
  (and sometimes variables) between solves and solves under random
  assumptions; one runs under ``max_conflicts``, times out, then recovers.
  Per solve the file holds ``[satisfiable, assumption_failed, conflicts,
  decisions, model digest]`` (or ``["timeout", conflicts, decisions]``).

Conflicts and decisions are read as differences of the solver's lifetime
counters, so the pins do not depend on what :class:`SatResult` reports.

A change to the SAT core that keeps its propagation, conflict-analysis
and decision order (data layout, inlining, allocation) must reproduce the
file exactly.  A heuristic change (blocker literals, clause deletion,
restart policy, ...) changes trajectories by design and must regenerate
the file deliberately, saying so in its change description::

    PYTHONPATH=src:tests python tests/test_golden_trajectories.py --regenerate
"""

import contextlib
import hashlib
import json
import random

import pytest

from golden_helpers import TRAJECTORIES_PATH, search_signature
from repro.corpus import get_benchmark
from repro.equivalence import EquivalenceChecker, WindowEquivalenceChecker
from repro.smt.sat import IncrementalSatSolver
from repro.synthesis import SearchOptions, Synthesizer

#: name -> (corpus program, parameter settings, iterations per chain).
SEARCHES = {
    "xdp_stats_ladder-1x12": ("xdp_stats_ladder", 1, 12),
    "xdp_pktcntr-2x120": ("xdp_pktcntr", 2, 120),
}
SEARCH_SEED = 7

#: name -> (seed, variables, initial clauses, rounds, clauses per round,
#: max_conflicts).  Every third round allocates two fresh variables before
#: its clauses; the clause/variable ratios sit around the random-3-SAT
#: threshold, so sessions move from SAT to UNSAT and restart mid-solve.
SESSIONS = {
    "sat-heavy": (1, 60, 200, 6, 10, None),
    "near-threshold": (3, 120, 470, 8, 12, None),
    "unsat-drift": (6, 60, 230, 8, 16, None),
    "budget-timeout": (5, 130, 520, 3, 14, 100),
}


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def model_digest(model, num_vars):
    return _digest("".join("1" if model[var] else "0"
                           for var in range(1, num_vars + 1)))


def solve_record(solver, assumptions):
    """Solve once; return the pinned per-solve record."""
    conflicts, decisions = solver.conflicts, solver.decisions
    try:
        result = solver.solve(assumptions)
    except TimeoutError:
        return ["timeout", solver.conflicts - conflicts,
                solver.decisions - decisions]
    return [result.satisfiable, result.assumption_failed,
            solver.conflicts - conflicts, solver.decisions - decisions,
            model_digest(result.model, solver.num_vars)
            if result.satisfiable else None]


def run_session(seed, num_vars, initial, rounds, per_round, max_conflicts):
    rng = random.Random(seed)
    solver = IncrementalSatSolver(max_conflicts=max_conflicts)
    variables = [solver.new_var() for _ in range(num_vars)]

    def add_random_clauses(count):
        for _ in range(count):
            solver.add_clause([var if rng.random() < 0.5 else -var
                               for var in rng.sample(variables, 3)])

    add_random_clauses(initial)
    records = []
    for round_index in range(rounds):
        if round_index % 3 == 2:
            variables += [solver.new_var(), solver.new_var()]
        add_random_clauses(per_round)
        assumptions = [var if rng.random() < 0.5 else -var
                       for var in rng.sample(variables, rng.randint(0, 4))]
        records.append(solve_record(solver, assumptions))
        if records[-1][0] == "timeout":
            # Recover: the same query without a budget, on the warm core.
            solver.max_conflicts = None
            records.append(solve_record(solver, assumptions))
            solver.max_conflicts = max_conflicts
    return records


@contextlib.contextmanager
def tally_sat_effort():
    """Count SAT-core answers and effort per verification stage.

    Solves issued inside :meth:`EquivalenceChecker.check` count as
    ``full``, inside :meth:`WindowEquivalenceChecker.check` as ``window``.
    """
    tally = {}
    stage = ["other"]
    originals = {}

    def labelled(cls, label):
        original = originals[cls] = cls.check

        def check(self, *args, **kwargs):
            outer, stage[0] = stage[0], label
            try:
                return original(self, *args, **kwargs)
            finally:
                stage[0] = outer
        return check

    solve = originals[IncrementalSatSolver] = IncrementalSatSolver.solve

    def counted_solve(self, assumptions=()):
        counts = tally.setdefault(stage[0], {
            "solves": 0, "sat": 0, "unsat": 0, "timeouts": 0,
            "conflicts": 0, "decisions": 0})
        conflicts, decisions = self.conflicts, self.decisions
        counts["solves"] += 1
        try:
            result = solve(self, assumptions)
        except TimeoutError:
            counts["timeouts"] += 1
            raise
        finally:
            counts["conflicts"] += self.conflicts - conflicts
            counts["decisions"] += self.decisions - decisions
        counts["sat" if result.satisfiable else "unsat"] += 1
        return result

    EquivalenceChecker.check = labelled(EquivalenceChecker, "full")
    WindowEquivalenceChecker.check = labelled(WindowEquivalenceChecker,
                                              "window")
    IncrementalSatSolver.solve = counted_solve
    try:
        yield tally
    finally:
        IncrementalSatSolver.solve = originals[IncrementalSatSolver]
        EquivalenceChecker.check = originals[EquivalenceChecker]
        WindowEquivalenceChecker.check = originals[WindowEquivalenceChecker]


def run_search(program, settings, iterations):
    options = SearchOptions(iterations_per_chain=iterations,
                            num_parameter_settings=settings,
                            seed=SEARCH_SEED, executor="serial")
    with tally_sat_effort() as tally:
        result = Synthesizer(options).optimize(
            get_benchmark(program).program())
    full_stage = {key: sum(chain.statistics.verification["full"][key]
                           for chain in result.chain_results)
                  for key in ("attempts", "accepts", "rejects")}
    return {"signature": _digest(repr(search_signature(result))),
            "sat_effort": tally,
            "full_stage": full_stage,
            "best_instructions": result.best_program.num_real_instructions}


def observed():
    return {"searches": {name: run_search(*spec)
                         for name, spec in SEARCHES.items()},
            "sessions": {name: run_session(*spec)
                         for name, spec in SESSIONS.items()}}


@pytest.fixture(scope="module")
def golden():
    with open(TRAJECTORIES_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("name", sorted(SEARCHES))
def test_search_trajectory_matches_golden(golden, name):
    assert run_search(*SEARCHES[name]) == golden["searches"][name]


@pytest.mark.parametrize("name", sorted(SESSIONS))
def test_sat_session_matches_golden(golden, name):
    assert run_session(*SESSIONS[name]) == golden["sessions"][name]


def test_golden_covers_every_pin(golden):
    assert set(golden["searches"]) == set(SEARCHES)
    assert set(golden["sessions"]) == set(SESSIONS)


def test_pins_exercise_both_answers_and_a_timeout(golden):
    """The pins are only as strong as what they exercise: full-stage SAT
    (counterexample) and UNSAT (equivalent) answers from the SAT core,
    SAT and UNSAT session answers, a failed assumption, and a timeout
    followed by a completed solve."""
    full = [search["sat_effort"].get("full", {})
            for search in golden["searches"].values()]
    assert sum(counts.get("sat", 0) for counts in full) >= 1
    assert sum(counts.get("unsat", 0) for counts in full) >= 1
    records = [record for session in golden["sessions"].values()
               for record in session]
    answers = [record for record in records if record[0] != "timeout"]
    assert any(record[0] is True for record in answers)
    assert any(record[0] is False for record in answers)
    assert any(record[1] is True for record in answers)
    timed_out = golden["sessions"]["budget-timeout"]
    index = [record[0] for record in timed_out].index("timeout")
    assert timed_out[index + 1][0] != "timeout"


def _regenerate():  # pragma: no cover - maintenance entry point
    golden = observed()
    with open(TRAJECTORIES_PATH, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"regenerated {TRAJECTORIES_PATH}")


if __name__ == "__main__":  # pragma: no cover
    import sys

    if "--regenerate" in sys.argv:
        _regenerate()
