"""Solver facade: the reproduction's replacement for the Z3 API surface K2 uses.

Typical usage::

    solver = Solver()
    solver.add(bv_eq(x, y))
    solver.add(bv_ult(x, bv_const(10, 64)))
    if solver.check() == CheckResult.SAT:
        model = solver.model()
        print(model[x])

The solver applies three layers before touching the SAT core:

1. eager word-level simplification (performed by the expression constructors),
2. a trivial-decision pass (assertions that simplified to ``true``/``false``),
3. Tseitin bit-blasting followed by CDCL search.

Unlike the original one-shot design, the facade is **incremental**:

* One :class:`~repro.smt.bitblast.BitBlaster` and one
  :class:`~repro.smt.sat.IncrementalSatSolver` live for the lifetime of the
  ``Solver``.  Because expressions are hash-consed, the blaster's structural
  cache makes every shared subexpression — across the two programs of one
  equivalence query *and* across successive queries — blast to CNF exactly
  once.
* :meth:`push`/:meth:`pop` create *scopes* guarded by fresh **assumption
  literals**: an assertion made inside a scope becomes the guarded clause
  ``¬act ∨ assertion`` and :meth:`check` solves under the assumption
  ``act``.  Popping a scope retires its guard with the unit clause
  ``¬act``, which permanently disables the scope's clauses while keeping
  the blasted CNF and every learned clause for the next query.
* Learned clauses are consequences of the clause database alone (never of
  the assumptions), so they remain sound across pops — this is what makes
  re-checking a structurally similar candidate much cheaper than the first
  check.
"""

from __future__ import annotations

import enum
import time
from typing import Dict, List, Optional, Sequence

from .bitblast import BitBlaster
from .bitvec import Expr, FALSE, TRUE
from .sat import IncrementalSatSolver
from .simplify import collect_vars, evaluate

__all__ = ["CheckResult", "Model", "Solver", "SolverStats"]


class CheckResult(enum.Enum):
    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"


class Model:
    """A satisfying assignment, addressable by variable expression or name."""

    def __init__(self, values: Dict[str, int]):
        self._values = values

    def __getitem__(self, key) -> int:
        name = key.name if isinstance(key, Expr) else key
        return self._values.get(name, 0)

    def get(self, key, default: int = 0) -> int:
        name = key.name if isinstance(key, Expr) else key
        return self._values.get(name, default)

    def as_dict(self) -> Dict[str, int]:
        return dict(self._values)

    def evaluate(self, expr: Expr):
        """Evaluate an arbitrary expression under this model."""
        return evaluate(expr, self._values)

    def __repr__(self) -> str:
        return f"Model({self._values!r})"


class SolverStats:
    """Bookkeeping for the equivalence-checking benchmarks (Table 4 / 6)."""

    def __init__(self) -> None:
        self.num_checks = 0
        self.num_sat = 0
        self.num_unsat = 0
        self.num_trivial = 0
        self.total_time = 0.0
        #: Clauses / variables added to the shared CNF (cumulative; with the
        #: incremental core, re-checked structure contributes nothing here).
        self.num_clauses = 0
        self.num_variables = 0

    def __repr__(self) -> str:
        return (f"SolverStats(checks={self.num_checks}, trivial={self.num_trivial}, "
                f"sat={self.num_sat}, unsat={self.num_unsat}, "
                f"time={self.total_time:.3f}s)")


class _Scope:
    """One push/pop scope: a guard literal plus its pending assertions."""

    __slots__ = ("guard", "assertions", "blasted")

    def __init__(self, guard: int):
        self.guard = guard
        self.assertions: List[Expr] = []
        self.blasted = 0  # watermark: assertions already turned into clauses


class Solver:
    """Check satisfiability of conjunctions of boolean bit-vector formulas.

    Scoped usage (incremental)::

        solver.add(base_fact)          # base level: permanent unit clauses
        token = solver.push()          # open a scope with a fresh guard
        solver.add(query_specific)     # guarded: ¬act ∨ query_specific
        solver.check()                 # solves under assumption act
        solver.pop(token)              # retires act; CNF + learned kept
    """

    def __init__(self, max_conflicts: Optional[int] = 2_000_000):
        self._max_conflicts = max_conflicts
        self.stats = SolverStats()
        self._reset_core()

    def _reset_core(self) -> None:
        self._sat = IncrementalSatSolver(max_conflicts=self._max_conflicts)
        self._blaster = BitBlaster(self._sat)
        self._base: List[Expr] = []
        self._base_blasted = 0
        self._scopes: List[_Scope] = []
        self._model: Optional[Model] = None

    # ------------------------------------------------------------------ #
    def add(self, expr: Expr) -> None:
        """Assert a boolean expression in the current scope."""
        if not expr.is_bool:
            raise ValueError("assertions must be boolean expressions")
        if self._scopes:
            self._scopes[-1].assertions.append(expr)
        else:
            self._base.append(expr)
        self._model = None

    def push(self) -> int:
        """Open a new scope; returns a token for :meth:`pop`."""
        token = len(self._scopes)
        self._scopes.append(_Scope(self._sat.new_var()))
        return token

    def pop(self, token: int) -> None:
        """Retire every scope opened after ``token`` was taken."""
        while len(self._scopes) > token:
            scope = self._scopes.pop()
            # Permanently disable the scope's guarded clauses.  The blasted
            # structure and any clauses learned from it stay — they are
            # consequences of the database, sound for every later query.
            self._sat.add_clause([-scope.guard])
        self._model = None

    def reset(self) -> None:
        self._reset_core()

    @property
    def assertions(self) -> List[Expr]:
        exprs = list(self._base)
        for scope in self._scopes:
            exprs.extend(scope.assertions)
        return exprs

    @property
    def num_clauses(self) -> int:
        """Size of the live clause database (original + learned)."""
        return len(self._sat.clauses) + len(self._sat.learned)

    # ------------------------------------------------------------------ #
    def check(self, assumptions: Sequence[Expr] = ()) -> CheckResult:
        """Decide satisfiability of the active assertions.

        ``assumptions`` are extra boolean expressions assumed *for this call
        only* — they are blasted to literals and handed to the SAT core as
        assumptions, leaving no trace in the clause database's semantics.
        """
        started = time.perf_counter()
        self.stats.num_checks += 1
        self._model = None

        active = self.assertions + list(assumptions)
        try:
            if any(expr == FALSE for expr in active):
                self.stats.num_trivial += 1
                self.stats.num_unsat += 1
                return CheckResult.UNSAT
            if all(expr == TRUE for expr in active):
                self.stats.num_trivial += 1
                self.stats.num_sat += 1
                self._model = Model({})
                return CheckResult.SAT

            assumption_lits = self._blast_pending(assumptions)
            try:
                result = self._sat.solve(assumption_lits)
            except TimeoutError:
                return CheckResult.UNKNOWN

            if result.satisfiable:
                self._model = self._extract_model(active, result.model)
                self.stats.num_sat += 1
                return CheckResult.SAT
            self.stats.num_unsat += 1
            return CheckResult.UNSAT
        finally:
            self.stats.total_time += time.perf_counter() - started

    # ------------------------------------------------------------------ #
    def _blast_pending(self, assumptions: Sequence[Expr]) -> List[int]:
        """Blast new assertions into the live CNF; return assumption lits."""
        clauses_before = self._sat_clause_total()
        vars_before = self._sat.num_vars

        while self._base_blasted < len(self._base):
            expr = self._base[self._base_blasted]
            self._base_blasted += 1
            if expr == TRUE:
                continue
            self._blaster.assert_expr(expr)
        for scope in self._scopes:
            while scope.blasted < len(scope.assertions):
                expr = scope.assertions[scope.blasted]
                scope.blasted += 1
                if expr == TRUE:
                    continue
                self._sat.add_clause([-scope.guard,
                                      self._blaster.blast_bool(expr)])

        assumption_lits = [scope.guard for scope in self._scopes]
        for expr in assumptions:
            if expr == TRUE:
                continue
            assumption_lits.append(self._blaster.blast_bool(expr))

        self.stats.num_clauses += self._sat_clause_total() - clauses_before
        self.stats.num_variables += self._sat.num_vars - vars_before
        return assumption_lits

    def _sat_clause_total(self) -> int:
        return len(self._sat.clauses) + len(self._sat.learned)

    def _extract_model(self, active: List[Expr],
                       sat_model: Dict[int, bool]) -> Model:
        values: Dict[str, int] = {}
        for expr in active:
            for variable in collect_vars(expr):
                if variable.name in values:
                    continue
                if variable.op == "bvvar":
                    values[variable.name] = self._blaster.extract_value(
                        variable.name, sat_model)
                else:
                    lit = self._blaster.bool_vars.get(variable.name)
                    values[variable.name] = int(sat_model.get(lit, False)) \
                        if lit is not None else 0
        return Model(values)

    def model(self) -> Model:
        """The model found by the last :meth:`check` (SAT results only)."""
        if self._model is None:
            raise RuntimeError("no model available; call check() first")
        return self._model
