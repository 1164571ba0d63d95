"""Differential test of the SAT core against exhaustive enumeration.

Random incremental sessions run on :class:`IncrementalSatSolver` over at
most 12 variables.  Clauses (duplicates, tautologies and units included)
and fresh variables are added between solves, and every solve carries
random assumptions, possibly contradictory ones.  Every answer is checked
against brute force: the SAT/UNSAT verdict against the set of all
assignments that satisfy the clauses so far, and every model against every
clause and every assumption.

The hypothesis-driven version is sized for tier-1 and shrinks a failure to
a small session; the seeded sweep under the ``slow`` marker runs 2000
conflict-dense sessions (about 37k solves) for the nightly job.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.smt import IncrementalSatSolver

MAX_VARS = 12


class BruteForceOracle:
    """Every assignment (a bitmask, bit ``v-1`` for variable ``v``) that
    satisfies the clauses added so far."""

    def __init__(self, num_vars):
        self.num_vars = num_vars
        self.models = list(range(1 << num_vars))

    def new_var(self):
        bit = 1 << self.num_vars
        self.num_vars += 1
        self.models += [model | bit for model in self.models]

    def add_clause(self, clause):
        positive = negative = 0
        for lit in clause:
            if lit > 0:
                positive |= 1 << (lit - 1)
            else:
                negative |= 1 << (-lit - 1)
        self.models = [model for model in self.models
                       if model & positive or ~model & negative]

    def satisfiable(self, assumptions):
        positive = negative = 0
        for lit in assumptions:
            if lit > 0:
                positive |= 1 << (lit - 1)
            else:
                negative |= 1 << (-lit - 1)
        return any(model & positive == positive and not model & negative
                   for model in self.models)


def run_checked_session(initial_vars, rounds):
    """Replay one session on the solver and the oracle; assert agreement.

    ``rounds`` is a list of ``(fresh_vars, clauses, assumptions)``.
    Returns the verdicts, so callers can check what a sweep exercised.
    """
    solver = IncrementalSatSolver()
    oracle = BruteForceOracle(initial_vars)
    for _ in range(initial_vars):
        solver.new_var()
    clauses = []
    verdicts = []
    for fresh_vars, new_clauses, assumptions in rounds:
        for _ in range(fresh_vars):
            solver.new_var()
            oracle.new_var()
        for clause in new_clauses:
            solver.add_clause(clause)
            oracle.add_clause(clause)
            clauses.append(clause)
        conflicts, decisions = solver.conflicts, solver.decisions
        result = solver.solve(assumptions)
        expected = oracle.satisfiable(assumptions)
        assert result.satisfiable == expected, (clauses, assumptions)
        assert result.conflicts == solver.conflicts - conflicts
        assert result.decisions == solver.decisions - decisions
        if result.satisfiable:
            model = result.model
            assert set(model) == set(range(1, solver.num_vars + 1))
            for clause in clauses:
                assert any(model[abs(lit)] == (lit > 0) for lit in clause), \
                    (clause, model)
            for lit in assumptions:
                assert model[abs(lit)] == (lit > 0), (lit, model)
        verdicts.append(result.satisfiable)
    return verdicts


def literals(num_vars):
    return st.tuples(st.integers(1, num_vars), st.booleans()).map(
        lambda pair: pair[0] if pair[1] else -pair[0])


@st.composite
def sessions(draw):
    """A base formula of up to 3n short clauses, then rounds that each add
    a few clauses (and sometimes a variable) and solve under up to five
    assumptions — dense enough in conflicts that clause learning and
    backjumping take part."""
    initial_vars = draw(st.integers(1, MAX_VARS))
    num_vars = initial_vars
    clause = st.lists(literals(num_vars), min_size=1, max_size=4)
    rounds = [(0, draw(st.lists(clause, max_size=3 * num_vars)), [])]
    for _ in range(draw(st.integers(1, 12))):
        fresh_vars = draw(st.integers(0, min(1, MAX_VARS - num_vars)))
        num_vars += fresh_vars
        lit = literals(num_vars)
        clauses = draw(st.lists(st.lists(lit, min_size=1, max_size=4),
                                max_size=3))
        assumptions = draw(st.lists(lit, max_size=5))
        rounds.append((fresh_vars, clauses, assumptions))
    return initial_vars, rounds


@settings(max_examples=150, deadline=None)
@given(sessions())
def test_incremental_sessions_agree_with_brute_force(session):
    run_checked_session(*session)


def random_session(rng):
    """A seeded session of the same shape, with mostly 3-literal clauses
    over distinct variables near the satisfiability threshold."""
    num_vars = rng.randint(8, MAX_VARS - 1)
    initial_vars = num_vars

    def clause():
        width = rng.choice((2, 3, 3, 3, 4))
        return [rng.choice((var, -var))
                for var in rng.sample(range(1, num_vars + 1), width)]

    rounds = [(0, [clause() for _ in range(3 * num_vars)], [])]
    for _ in range(rng.randint(10, 25)):
        fresh_vars = int(num_vars < MAX_VARS and rng.random() < 0.1)
        num_vars += fresh_vars
        clauses = [clause() for _ in range(rng.randint(0, 2))]
        if rng.random() < 0.1:
            # Short, possibly duplicated or tautological clauses.
            clauses.append([rng.choice((var, -var)) for var in
                            rng.choices(range(1, num_vars + 1),
                                        k=rng.randint(1, 5))])
        assumptions = [rng.choice((var, -var)) for var in
                       rng.sample(range(1, num_vars + 1), rng.randint(0, 5))]
        rounds.append((fresh_vars, clauses, assumptions))
    return initial_vars, rounds


@pytest.mark.slow
def test_seeded_sessions_agree_with_brute_force():
    rng = random.Random(2003)
    verdicts = []
    for _ in range(2000):
        verdicts += run_checked_session(*random_session(rng))
    # The sweep must exercise both answers in volume.
    assert verdicts.count(True) >= 5000 and verdicts.count(False) >= 5000
