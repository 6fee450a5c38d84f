import random

import pytest

from subtrop import (
    Clause,
    ExponentSolution,
    LinearCondition,
    LinearLiteral,
    build_cnf,
)
from subtrop.oracle import (
    BoxTooLarge,
    GridSpec,
    NotFoundWithin,
    TooManySelections,
    exhaustive_decide,
    grid_search,
)

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


class TestGridSearch:
    def test_example2_box_contains_a_point(self):
        cond = build_cnf(load("example2.spp"))
        found = grid_search(cond, GridSpec(12))
        assert isinstance(found, ExponentSolution)
        assert cond.satisfied_by(found.n)
        assert cond.satisfied_by((-12, -11))

    def test_intro_f_tiny_box(self):
        cond = build_cnf(load("intro_f.spp"))
        found = grid_search(cond, GridSpec(1))
        assert found.n in {(-1,), (1,)}

    def test_example3_box_is_empty(self):
        result = grid_search(build_cnf(load("example3.spp")), GridSpec(20))
        assert result == NotFoundWithin(20)

    def test_lexicographic_first_point(self):
        cond = build_cnf(load("intro_f.spp"))
        assert grid_search(cond, GridSpec(5)).n == (-5,)

    def test_found_points_satisfy_the_condition(self):
        rng = random.Random(32)
        for _ in range(60):
            cond = random_condition(rng)
            result = grid_search(cond, GridSpec(4))
            if isinstance(result, ExponentSolution):
                assert cond.satisfied_by(result.n)

    def test_box_guard(self):
        cond = LinearCondition(3, ())
        with pytest.raises(BoxTooLarge):
            grid_search(cond, GridSpec(110))

    def test_radius_must_be_positive(self):
        with pytest.raises(ValueError):
            GridSpec(0)
