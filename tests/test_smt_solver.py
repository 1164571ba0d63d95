"""Tests for the SAT solver, the bit-blaster and the Solver facade."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.smt import (
    CNF, CheckResult, IncrementalSatSolver, SatSolver, Solver, bool_and,
    bool_not, bool_or, bool_var,
    bv_add, bv_and, bv_ashr, bv_concat, bv_const, bv_eq, bv_extract, bv_ite,
    bv_lshr, bv_mul, bv_ne, bv_or, bv_shl, bv_sign_extend, bv_sle, bv_slt,
    bv_sub, bv_udiv, bv_ule, bv_ult, bv_urem, bv_var, bv_xor, bv_zero_extend,
    evaluate, solve_cnf,
)


class TestSatSolver:
    def test_trivially_satisfiable(self):
        cnf = CNF()
        a = cnf.new_var()
        cnf.add_clause([a])
        result = solve_cnf(cnf)
        assert result.satisfiable and result.model[a] is True

    def test_trivially_unsatisfiable(self):
        cnf = CNF()
        a = cnf.new_var()
        cnf.add_clause([a])
        cnf.add_clause([-a])
        assert not solve_cnf(cnf).satisfiable

    def test_unit_propagation_chain(self):
        cnf = CNF()
        variables = [cnf.new_var() for _ in range(10)]
        cnf.add_clause([variables[0]])
        for a, b in zip(variables, variables[1:]):
            cnf.add_clause([-a, b])
        result = solve_cnf(cnf)
        assert result.satisfiable
        assert all(result.model[v] for v in variables)

    def test_pigeonhole_3_into_2_unsat(self):
        # 3 pigeons, 2 holes: p[i][j] = pigeon i in hole j.
        cnf = CNF()
        p = [[cnf.new_var() for _ in range(2)] for _ in range(3)]
        for i in range(3):
            cnf.add_clause([p[i][0], p[i][1]])
        for j in range(2):
            for i in range(3):
                for k in range(i + 1, 3):
                    cnf.add_clause([-p[i][j], -p[k][j]])
        assert not solve_cnf(cnf).satisfiable

    def test_model_satisfies_all_clauses(self):
        cnf = CNF()
        variables = [cnf.new_var() for _ in range(8)]
        clauses = [
            [variables[0], -variables[1], variables[2]],
            [-variables[0], variables[3]],
            [variables[4], variables[5]],
            [-variables[5], -variables[6], variables[7]],
            [variables[1], variables[6]],
        ]
        for clause in clauses:
            cnf.add_clause(clause)
        result = solve_cnf(cnf)
        assert result.satisfiable
        for clause in clauses:
            assert any(result.model[abs(l)] == (l > 0) for l in clause)

    def test_empty_clause_is_unsat(self):
        cnf = CNF()
        cnf.new_var()
        cnf.clauses.append([])
        assert not SatSolver(cnf).solve().satisfiable

    def test_conflict_limit_raises(self):
        # A hard pigeonhole instance with a tiny conflict budget.
        cnf = CNF()
        holes, pigeons = 5, 6
        p = [[cnf.new_var() for _ in range(holes)] for _ in range(pigeons)]
        for i in range(pigeons):
            cnf.add_clause(p[i])
        for j in range(holes):
            for i in range(pigeons):
                for k in range(i + 1, pigeons):
                    cnf.add_clause([-p[i][j], -p[k][j]])
        with pytest.raises(TimeoutError):
            SatSolver(cnf, max_conflicts=5).solve()


class TestIncrementalSatSolver:
    def test_clauses_added_between_solves(self):
        solver = IncrementalSatSolver()
        a = solver.new_var()
        solver.add_clause([a])
        assert solver.solve().satisfiable
        b = solver.new_var()
        solver.add_clause([-a, b])
        result = solver.solve()
        assert result.satisfiable and result.model[b] is True
        solver.add_clause([-b])
        assert not solver.solve().satisfiable

    def test_assumptions_leave_no_trace(self):
        solver = IncrementalSatSolver()
        a, b = solver.new_var(), solver.new_var()
        solver.add_clause([a, b])
        assert not solver.solve([-a, -b]).satisfiable
        assert solver.solve([-a, -b]).assumption_failed
        assert solver.solve().satisfiable
        assert solver.solve([-a]).satisfiable
        assert solver.solve([-b]).satisfiable

    def test_conflicting_assumptions(self):
        solver = IncrementalSatSolver()
        a = solver.new_var()
        result = solver.solve([a, -a])
        assert not result.satisfiable and result.assumption_failed

    def test_unit_clause_added_after_solve_propagates(self):
        """A clause that is unit under the level-0 assignment must fire."""
        solver = IncrementalSatSolver()
        a, b = solver.new_var(), solver.new_var()
        solver.add_clause([a])
        assert solver.solve().satisfiable
        solver.add_clause([-a, b])       # unit under a=True
        result = solver.solve()
        assert result.satisfiable and result.model[b] is True

    def test_learned_clauses_persist_and_stay_sound(self):
        rng = random.Random(7)
        solver = IncrementalSatSolver()
        variables = [solver.new_var() for _ in range(30)]
        clauses = []
        for _ in range(120):
            clause = [rng.choice(variables) * rng.choice([1, -1])
                      for _ in range(3)]
            clauses.append(clause)
            solver.add_clause(clause)
        first = solver.solve()
        second = solver.solve()
        assert first.satisfiable == second.satisfiable
        if second.satisfiable:
            for clause in clauses:
                assert any(second.model[abs(l)] == (l > 0) for l in clause)

    def test_result_counts_only_its_own_solve(self):
        """SatResult reports one call's effort; the solver keeps totals."""
        rng = random.Random(3)
        solver = IncrementalSatSolver()
        variables = [solver.new_var() for _ in range(120)]
        for _ in range(470):
            solver.add_clause([var if rng.random() < 0.5 else -var
                               for var in rng.sample(variables, 3)])
        first = solver.solve()
        assert first.conflicts > 0
        assert (first.conflicts, first.decisions) == \
            (solver.conflicts, solver.decisions)
        second = solver.solve([variables[0]])
        assert second.decisions > 0
        assert second.conflicts == solver.conflicts - first.conflicts
        assert second.decisions == solver.decisions - first.decisions

    def test_timeout_then_recovery(self):
        solver = IncrementalSatSolver(max_conflicts=5)
        holes, pigeons = 5, 6
        p = [[solver.new_var() for _ in range(holes)] for _ in range(pigeons)]
        guard = solver.new_var()
        for i in range(pigeons):
            solver.add_clause([-guard] + p[i])
        for j in range(holes):
            for i in range(pigeons):
                for k in range(i + 1, pigeons):
                    solver.add_clause([-guard, -p[i][j], -p[k][j]])
        with pytest.raises(TimeoutError):
            solver.solve([guard])
        # The pigeonhole clauses are disabled by retiring the guard; the
        # solver must be reusable afterwards.
        solver.add_clause([-guard])
        assert solver.solve().satisfiable


class TestIncrementalScopes:
    def test_unsat_scope_then_sat_after_pop(self):
        x = bv_var("sx", 16)
        solver = Solver()
        solver.add(bv_ult(x, bv_const(10, 16)))
        token = solver.push()
        solver.add(bv_ult(bv_const(20, 16), x))
        assert solver.check() == CheckResult.UNSAT
        solver.pop(token)
        assert solver.check() == CheckResult.SAT
        assert solver.model()[x] < 10

    def test_nested_scopes(self):
        x = bv_var("nx", 16)
        solver = Solver()
        outer = solver.push()
        solver.add(bv_ult(x, bv_const(10, 16)))
        inner = solver.push()
        solver.add(bv_ult(bv_const(20, 16), x))
        assert solver.check() == CheckResult.UNSAT
        solver.pop(inner)
        assert solver.check() == CheckResult.SAT
        solver.pop(outer)
        assert solver.check() == CheckResult.SAT
        assert solver.assertions == []

    def test_check_with_expression_assumptions(self):
        x = bv_var("ax", 16)
        solver = Solver()
        solver.add(bv_ult(x, bv_const(10, 16)))
        assert solver.check([bv_eq(x, bv_const(5, 16))]) == CheckResult.SAT
        assert solver.model()[x] == 5
        assert solver.check([bv_eq(x, bv_const(50, 16))]) == CheckResult.UNSAT
        assert solver.check() == CheckResult.SAT

    def test_scoped_queries_match_fresh_solver(self):
        """Differential: one incremental solver vs. a fresh solver per query."""
        rng = random.Random(3)
        a, b = bv_var("da", 8), bv_var("db", 8)
        operators = [bv_add, bv_sub, bv_mul, bv_and, bv_or, bv_xor]
        predicates = [bv_ult, bv_ule, bv_eq]

        def random_predicate():
            term = rng.choice(operators)(
                rng.choice([a, b, bv_const(rng.randrange(256), 8)]),
                rng.choice([a, b, bv_const(rng.randrange(256), 8)]))
            pred = rng.choice(predicates)(term,
                                          bv_const(rng.randrange(256), 8))
            return bool_not(pred) if rng.random() < 0.4 else pred

        base = [random_predicate() for _ in range(2)]
        incremental = Solver()
        for expr in base:
            incremental.add(expr)
        for _ in range(12):
            scoped = [random_predicate() for _ in range(2)]
            token = incremental.push()
            for expr in scoped:
                incremental.add(expr)
            got = incremental.check()
            reference = Solver()
            for expr in base + scoped:
                reference.add(expr)
            assert got == reference.check()
            if got == CheckResult.SAT:
                model = incremental.model()
                for expr in base + scoped:
                    assert model.evaluate(expr)
            incremental.pop(token)

    def test_popped_scope_vars_are_rebindable(self):
        """Reusing a variable name after pop must take the new constraints."""
        x = bv_var("rb", 16)
        solver = Solver()
        token = solver.push()
        solver.add(bv_eq(x, bv_const(1, 16)))
        assert solver.check() == CheckResult.SAT
        solver.pop(token)
        token = solver.push()
        solver.add(bv_eq(x, bv_const(2, 16)))
        assert solver.check() == CheckResult.SAT
        assert solver.model()[x] == 2
        solver.pop(token)


X = bv_var("x", 64)
Y = bv_var("y", 64)


def _is_valid(formula) -> bool:
    """A formula is valid iff its negation is unsatisfiable."""
    solver = Solver()
    solver.add(bool_not(formula))
    return solver.check() == CheckResult.UNSAT


class TestSolverFacade:
    def test_simple_model(self):
        solver = Solver()
        solver.add(bv_eq(bv_add(X, bv_const(2, 64)), bv_const(7, 64)))
        assert solver.check() == CheckResult.SAT
        assert solver.model()[X] == 5

    def test_unsat_conjunction(self):
        solver = Solver()
        solver.add(bv_ult(X, Y))
        solver.add(bv_ult(Y, X))
        assert solver.check() == CheckResult.UNSAT

    def test_trivial_true_is_sat_without_sat_call(self):
        solver = Solver()
        solver.add(bv_eq(X, X))
        assert solver.check() == CheckResult.SAT
        assert solver.stats.num_trivial == 1

    def test_push_pop(self):
        solver = Solver()
        solver.add(bv_ult(X, bv_const(10, 64)))
        token = solver.push()
        solver.add(bv_ult(bv_const(20, 64), X))
        assert solver.check() == CheckResult.UNSAT
        solver.pop(token)
        assert solver.check() == CheckResult.SAT

    def test_model_evaluates_arbitrary_expressions(self):
        solver = Solver()
        solver.add(bv_eq(X, bv_const(6, 64)))
        solver.add(bv_eq(Y, bv_const(7, 64)))
        assert solver.check() == CheckResult.SAT
        assert solver.model().evaluate(bv_mul(X, Y)) == 42

    def test_bool_variables(self):
        p, q = bool_var("p"), bool_var("q")
        solver = Solver()
        solver.add(bool_or(p, q))
        solver.add(bool_not(p))
        assert solver.check() == CheckResult.SAT
        assert solver.model()["q"] == 1

    def test_rejects_non_boolean_assertion(self):
        solver = Solver()
        with pytest.raises(ValueError):
            solver.add(X)


class TestBitvectorTheorems:
    """Known-valid identities must be proved UNSAT when negated."""

    def test_add_commutative(self):
        assert _is_valid(bv_eq(bv_add(X, Y), bv_add(Y, X)))

    def test_sub_is_add_neg(self):
        assert _is_valid(bv_eq(bv_sub(X, Y),
                               bv_add(X, bv_sub(bv_const(0, 64), Y))))

    def test_shift_left_is_multiply(self):
        assert _is_valid(bv_eq(bv_shl(X, bv_const(3, 64)),
                               bv_mul(X, bv_const(8, 64))))

    def test_and_le_both(self):
        assert _is_valid(bv_ule(bv_and(X, Y), X))

    def test_de_morgan(self):
        from repro.smt import bv_not
        assert _is_valid(bv_eq(bv_not(bv_and(X, Y)),
                               bv_or(bv_not(X), bv_not(Y))))

    def test_concat_extract_roundtrip(self):
        lo = bv_extract(X, 31, 0)
        hi = bv_extract(X, 63, 32)
        assert _is_valid(bv_eq(bv_concat(hi, lo), X))

    def test_zero_extend_preserves_unsigned_order(self):
        a = bv_var("a", 32)
        b = bv_var("b", 32)
        wide_lt = bv_ult(bv_zero_extend(a, 32), bv_zero_extend(b, 32))
        narrow_lt = bv_ult(a, b)
        assert _is_valid(bool_or(bool_and(wide_lt, narrow_lt),
                                 bool_and(bool_not(wide_lt), bool_not(narrow_lt))))

    def test_signed_lt_differs_from_unsigned_on_sign_bit(self):
        solver = Solver()
        solver.add(bv_slt(X, bv_const(0, 64)))
        solver.add(bv_ult(X, bv_const(0x8000_0000_0000_0000, 64)))
        assert solver.check() == CheckResult.UNSAT

    def test_store_coalescing_identity(self):
        # The optimization from paper §9 example 1: writing two 32-bit zero
        # halves equals writing one 64-bit zero.
        lo = bv_const(0, 32)
        hi = bv_const(0, 32)
        assert bv_concat(hi, lo) == bv_const(0, 64)


class TestDifferentialBitblasting:
    """The SAT-level semantics must agree with the evaluator (hypothesis)."""

    OPS = [bv_add, bv_sub, bv_mul, bv_and, bv_or, bv_xor, bv_udiv, bv_urem,
           bv_shl, bv_lshr, bv_ashr]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, (1 << 16) - 1), st.integers(0, (1 << 16) - 1),
           st.sampled_from(range(len(OPS))))
    def test_property_16bit_ops_match_evaluator(self, av, bval, op_index):
        op = self.OPS[op_index]
        a, b = bv_var("a", 16), bv_var("b", 16)
        expr = op(a, b)
        expected = evaluate(expr, {"a": av, "b": bval})
        solver = Solver()
        solver.add(bv_eq(a, bv_const(av, 16)))
        solver.add(bv_eq(b, bv_const(bval, 16)))
        solver.add(bool_not(bv_eq(expr, bv_const(int(expected), 16))))
        assert solver.check() == CheckResult.UNSAT

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, (1 << 16) - 1), st.integers(0, (1 << 16) - 1))
    def test_property_comparisons_match_evaluator(self, av, bval):
        a, b = bv_var("a", 16), bv_var("b", 16)
        for predicate in (bv_ult, bv_ule, bv_slt, bv_sle, bv_eq, bv_ne):
            expr = predicate(a, b)
            expected = evaluate(expr, {"a": av, "b": bval})
            solver = Solver()
            solver.add(bv_eq(a, bv_const(av, 16)))
            solver.add(bv_eq(b, bv_const(bval, 16)))
            solver.add(expr if expected else bool_not(expr))
            assert solver.check() == CheckResult.SAT

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, (1 << 16) - 1), st.integers(0, 31))
    def test_property_variable_shifts(self, av, shift):
        a, s = bv_var("a", 16), bv_var("s", 16)
        for op in (bv_shl, bv_lshr, bv_ashr):
            expr = op(a, s)
            expected = evaluate(expr, {"a": av, "s": shift})
            solver = Solver()
            solver.add(bv_eq(a, bv_const(av, 16)))
            solver.add(bv_eq(s, bv_const(shift, 16)))
            solver.add(bool_not(bv_eq(expr, bv_const(int(expected), 16))))
            assert solver.check() == CheckResult.UNSAT

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, (1 << 32) - 1))
    def test_property_extend_extract(self, value):
        a = bv_var("a", 32)
        widened = bv_zero_extend(a, 32)
        sign_widened = bv_sign_extend(a, 32)
        env = {"a": value}
        assert evaluate(bv_extract(widened, 31, 0), env) == value
        assert evaluate(sign_widened, env) & 0xFFFFFFFF == value
        solver = Solver()
        solver.add(bv_eq(a, bv_const(value, 32)))
        solver.add(bool_not(bv_eq(bv_extract(sign_widened, 31, 0), a)))
        assert solver.check() == CheckResult.UNSAT

    def test_ite_blasting(self):
        cond = bv_ult(X, Y)
        expr = bv_ite(cond, bv_const(1, 64), bv_const(2, 64))
        solver = Solver()
        solver.add(bv_eq(X, bv_const(3, 64)))
        solver.add(bv_eq(Y, bv_const(10, 64)))
        solver.add(bv_eq(expr, bv_const(2, 64)))
        assert solver.check() == CheckResult.UNSAT
