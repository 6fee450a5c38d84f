import random

import pytest

from subtrop.condition import Clause, LinearCondition, LinearLiteral, build_cnf
from subtrop.oracle import TooManySelections, exhaustive_decide

from conftest import load, solve_condition
from gensys import random_condition


class TestExhaustiveDecide:
    def test_example2_sat(self):
        assert exhaustive_decide(build_cnf(load("example2.spp"))) is True

    def test_example3_unsat(self):
        assert exhaustive_decide(build_cnf(load("example3.spp"))) is False

    def test_empty_condition_is_sat(self):
        assert exhaustive_decide(LinearCondition(2, ())) is True

    def test_empty_clause_is_unsat(self):
        assert exhaustive_decide(LinearCondition(1, (Clause(0, 0, ()),))) is False

    def test_selection_guard(self):
        literal = LinearLiteral((1,), 0, 0, 0)
        clauses = tuple(Clause(0, i, (literal,) * 10) for i in range(7))
        with pytest.raises(TooManySelections):
            exhaustive_decide(LinearCondition(1, clauses))

    def test_agrees_with_main_solver(self):
        rng = random.Random(31)
        for _ in range(100):
            cond = random_condition(rng)
            assert exhaustive_decide(cond) == (solve_condition(cond) is not None)

