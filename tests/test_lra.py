import hashlib
import itertools
import math
import operator
import random
from fractions import Fraction

import pytest

from subtrop import decide_system, lra, parse_system
from subtrop.condition import (
    Clause,
    LinearCondition,
    LinearLiteral,
    build_cnf,
    build_dnf,
    shrink,
)
from subtrop.lra import solve_dnf
from subtrop.oracle import exhaustive_decide
from subtrop.refutation import certifies

from conftest import exact, load, pin_batch, solve_condition, solve_rows
from gensys import random_condition, random_signed_system


class TestSolveConjunction:
    """One row with one branch that asserts every constraint."""

    def test_single_lower_bound(self):
        # n_0 >= 1 bounds the variable directly; the simplex moves it onto the bound
        model = solve_rows(1, [(1,)])
        assert model == (Fraction(1),)

    def test_contradictory_bounds(self):
        assert solve_rows(1, [(-1,), (1,)]) is None

    def test_empty_row_list_gives_zero_vector(self):
        model = solve_rows(3, [])
        assert model == (Fraction(0),) * 3

    def test_two_sided_interval_takes_midpoint(self):
        # x >= 1 bounds x directly; -x + y >= 1 is an upper bound -1 on the slack
        # x - y.  Asserting x >= 1 moves x to 1, then one pivot brings the slack
        # to its bound by raising y: both nonbasic variables sit at bounds.
        model = solve_rows(2, [(1, 0), (-1, 1)])
        assert model == (Fraction(1), Fraction(2))
        assert model[1] - model[0] >= 1

    def test_models_satisfy_all_rows(self):
        rng = random.Random(3)
        for _ in range(200):
            d = rng.randint(1, 3)
            rows = tuple(
                tuple(rng.randint(-5, 5) for _ in range(d)) for _ in range(rng.randint(0, 6))
            )
            model = solve_rows(d, rows)
            if model is not None:
                for row in rows:
                    assert sum(a * x for a, x in zip(row, model)) >= 1


class TestSolveCnf:
    """The CNF searched as rows of single-literal branches."""

    def test_example2_sat(self):
        cond = build_cnf(load("example2.spp"))
        model = solve_condition(cond)
        assert model is not None
        assert cond.satisfied_by(model)

    def test_example3_unsat(self):
        assert solve_condition(build_cnf(load("example3.spp"))) is None

    def test_empty_clause_is_unsat(self):
        cond = LinearCondition(2, (Clause(0, 0, ()),))
        assert solve_condition(cond) is None

    def test_empty_condition_gives_zero_vector(self):
        model = solve_condition(LinearCondition(2, ()))
        assert model == (Fraction(0), Fraction(0))

    def test_deterministic(self):
        cond = build_cnf(load("example2.spp"))
        assert solve_condition(cond) == solve_condition(cond)

    def test_sat_answer_is_order_independent(self):
        rng = random.Random(4)
        for _ in range(60):
            cond = random_condition(rng)
            baseline = solve_condition(cond) is not None
            clauses = list(cond.clauses)
            rng.shuffle(clauses)
            shuffled = tuple(
                Clause(c.row, c.neg, tuple(rng.sample(c.literals, len(c.literals))))
                for c in clauses
            )
            shuffled_model = solve_condition(LinearCondition(cond.num_vars, shuffled))
            assert (shuffled_model is not None) == baseline


def tricky_condition(rng: random.Random) -> LinearCondition:
    """Literals that share slacks, bound variables directly or are all zero.

    Each literal is a multiple ``k * base`` of a few small base forms, with
    ``k`` in {-3, ..., 3}: scaled copies such as (2, -2) and (1, -1) bound the
    same slack, opposite signs bound it from above, unit bases bound a
    variable directly and ``k = 0`` gives the all-zero literal.  Half of the
    conditions end with clauses that contradict each other and nothing
    else, so an UNSAT answer needs a jump over every earlier level.
    """
    d = rng.randint(1, 3)
    bases = [tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(3)]
    bases.append(tuple(int(j == rng.randrange(d)) for j in range(d)))

    def literal(coeffs, pos):
        return LinearLiteral(tuple(coeffs), 0, pos, 0)

    clauses = []
    for c in range(rng.randint(0, 5)):
        literals = [
            literal((rng.choice((-3, -2, -1, 0, 1, 1, 2, 3)) * a for a in rng.choice(bases)), p)
            for p in range(rng.randint(1, 3))
        ]
        clauses.append(Clause(0, c, tuple(literals)))
    if rng.random() < 0.5:
        base = rng.choice(bases)
        for c, k in enumerate((rng.randint(1, 3), -rng.randint(1, 3)), start=len(clauses)):
            clauses.append(Clause(0, c, (literal((k * a for a in base), 0),)))
    return LinearCondition(d, tuple(clauses))


def first_feasible_selection(condition: LinearCondition):
    """The first selection, in stored order, whose conjunction the oracle finds feasible."""
    for pick in itertools.product(*(clause.literals for clause in condition.clauses)):
        singles = tuple(Clause(0, i, (lit,)) for i, lit in enumerate(pick))
        if exhaustive_decide(LinearCondition(condition.num_vars, singles)):
            return pick
    return None


class TestSearchAgainstOracle:
    def test_verdicts_match_exhaustive_oracle(self):
        rng = random.Random(11)
        for _ in range(400):
            cond = tricky_condition(rng)
            model = solve_condition(cond)
            assert (model is not None) == exhaustive_decide(cond), cond
            if model is not None:
                assert cond.satisfied_by(model)

    def test_model_satisfies_first_feasible_selection(self):
        # backjumping skips only subtrees without a feasible full selection,
        # so the model comes from the selection chronological search finds
        rng = random.Random(12)
        for _ in range(150):
            cond = random_condition(rng) if rng.random() < 0.5 else tricky_condition(rng)
            first = first_feasible_selection(cond)
            model = solve_condition(cond)
            assert (model is None) == (first is None)
            if model is not None:
                assert all(lit.satisfied_by(model) for lit in first)

    def test_scaled_and_opposite_forms_share_one_slack(self):
        # (2,-2) and (1,-1) bound x - y below by 1/2 and 1; (-1,1) bounds it above
        d = 2
        shared = LinearCondition(d, (
            Clause(0, 0, (LinearLiteral((2, -2), 0, 1, 0),)),
            Clause(0, 1, (LinearLiteral((1, -1), 0, 1, 0),)),
        ))
        model = solve_condition(shared)
        assert model[0] - model[1] == 1
        clash = LinearCondition(d, shared.clauses + (
            Clause(0, 2, (LinearLiteral((-1, 1), 0, 1, 0),)),
        ))
        assert solve_condition(clash) is None

    def test_conflict_names_the_level_of_the_violated_row(self):
        # levels 0-1 bound the slacks x - y and x + 2y from above; x >= 1/4 at
        # level 2 then violates the row of a slack bounded at level 1, so the
        # search must jump to level 1, whose second literal is feasible
        def clause(index, *forms):
            return Clause(0, index, tuple(LinearLiteral(f, 0, 1, index) for f in forms))

        cond = LinearCondition(3, (
            clause(0, (-2, 2, 0)),
            clause(1, (-2, -4, 0), (-2, 4, 0)),
            clause(2, (4, 0, 0)),
        ))
        model = solve_condition(cond)
        assert model is not None
        assert cond.clauses[1].literals[1].satisfied_by(model)

    def test_zero_and_single_variable_literals(self):
        zero = LinearLiteral((0, 0), 0, 1, 0)
        single = LinearLiteral((0, -3), 0, 2, 0)
        cond = LinearCondition(2, (Clause(0, 0, (zero, single)),))
        assert exact(solve_condition, cond) == (0, Fraction(-1, 3))
        assert solve_condition(LinearCondition(2, (Clause(0, 0, (zero,)),))) is None


def branch_rows(pick):
    """Every constraint of one branch per row, as the rows of one conjunction."""
    return [coeffs for branch in pick for coeffs in branch]


class TestRowSearch:
    """One level per row, one alternative per positive monomial (``solve_dnf``)."""

    def test_agrees_with_literal_search_and_oracle(self):
        # the oracle decides every system up to 1000 selections; SAT models must satisfy the CNF
        rng = random.Random(21)
        oracle_runs = 0
        for _ in range(500):
            system = random_signed_system(
                rng, max_rows=4, max_monomials=8, max_vars=3, max_exp=4,
                ensure_positive=rng.random() < 0.8,
            )
            cond = build_cnf(system)
            model, _ = solve_dnf(system.d, build_dnf(system))
            if math.prod(len(c.literals) for c in cond.clauses) <= 1000:
                oracle_runs += 1
                assert (model is not None) == exhaustive_decide(cond), system
            if model is not None:
                assert cond.satisfied_by(model)
        assert oracle_runs > 250

    def test_model_satisfies_first_feasible_branch_selection(self):
        # the model comes from the first feasible choice in (row, positive monomial) order
        rng = random.Random(22)
        checked = 0
        for _ in range(150):
            system = random_signed_system(rng, max_rows=3, max_monomials=6, max_vars=2)
            rows = build_dnf(system)
            if math.prod(len(row) for row in rows) > 200:
                continue
            first = next(
                (
                    pick for pick in itertools.product(*rows)
                    if solve_rows(system.d, branch_rows(pick)) is not None
                ),
                None,
            )
            model, _ = solve_dnf(system.d, rows)
            assert (model is None) == (first is None)
            if model is not None:
                checked += 1
                assert all(
                    sum(a * x for a, x in zip(coeffs, model)) >= 1 for coeffs in branch_rows(first)
                )
        assert checked > 30

    def test_row_without_branches_is_unsat(self):
        assert solve_dnf(1, ((),)) == (None, (0, ()))

    def test_no_rows_gives_zero_vector(self):
        assert solve_dnf(2, ()) == ((0, 0), None)

    def test_hard_unsat_template(self):
        # 2.2e14 literal selections but 1120 branch selections; every one is infeasible
        system = load("search_head_8.spp")
        rows = build_dnf(system)
        assert [len(row) for row in rows] == [4, 7, 5, 8]
        assert decide_system(system).status == "unsat"
        assert all(
            solve_rows(system.d, branch_rows(pick)) is None
            for pick in itertools.product(*rows)
        )


# solve_dnf's models before scaling, recorded from the simplex that kept its
# assignment over Fraction; the integer simplex must reach the same bases
PINNED_MODELS = {
    "certify_head_42.spp": (Fraction(15, 377), Fraction(64, 377), Fraction(-86, 377)),
    "example2.spp": (Fraction(-5, 2), Fraction(-2)),
    "example3.spp": None,
    "intro_f.spp": (Fraction(1),),
    "intro_f_ones.spp": (Fraction(1),),
    "intro_g.spp": None,
    "search_head_3.spp": (
        Fraction(-4192, 3393), Fraction(-7039, 3393), Fraction(25333, 10179),
        Fraction(-62351, 10179), Fraction(-26341, 10179), Fraction(24913, 10179),
    ),
    "search_head_8.spp": None,
    "sec2.spp": None,
    "zero_row.spp": (Fraction(0),),
}
# the CLI smoke test for the search wall; a call takes about half a second, so CI runs it
SLOW_DATA = {"wall_8_20_8_1.spp"}


class TestPinnedModels:
    """The exact models, not just the verdicts, stay those of the Fraction simplex."""

    def test_data_files(self, data_dir):
        names = {path.name for path in data_dir.glob("*.spp")}
        assert names == set(PINNED_MODELS) | SLOW_DATA
        for name, expected in PINNED_MODELS.items():
            system = load(name)
            assert exact(solve_dnf, system.d, build_dnf(system)) == expected, name

    def test_seeded_batch_digest(self):
        models = [exact(solve_dnf, system.d, build_dnf(system)) for system in pin_batch()]
        assert sum(model is not None for model in models) == 223
        assert sum(
            model is not None and any(x.denominator != 1 for x in model) for model in models
        ) == 108
        digest = hashlib.sha256(repr(models).encode()).hexdigest()
        assert digest == "108eac697cbed73ace0960ab8aaead00d7ab9376a8e06ce7649a97439d19116f"


class TestPinnedTrees:
    """The whole answer, refutation trees included, stays byte for byte the same."""

    def test_answers_and_trees_digest(self, data_dir):
        # every data file, the wall template included, then the pinned batch
        systems = [load(path.name) for path in sorted(data_dir.glob("*.spp"))] + pin_batch()
        answers = [solve_dnf(system.d, build_dnf(system)) for system in systems]
        assert len(answers) == 311 and sum(n is not None for n, _ in answers) == 229
        digest = hashlib.sha256(repr(answers).encode()).hexdigest()
        assert digest == "e541fcbdb4e9521665e0562a2bc8b133ce9856cab2ed421977e98d3aa7de1a3d"


def fraction_inverse(matrix):
    """The inverse of a square int matrix over Fraction, by Gauss-Jordan elimination."""
    d = len(matrix)
    rows = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(d)]
            for i, row in enumerate(matrix)]
    for col in range(d):
        pivot = next(i for i in range(col, d) if rows[i][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [x / rows[col][col] for x in rows[col]]
        for i in range(d):
            if i != col and rows[i][col]:
                factor = rows[i][col]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[col])]
    return [row[d:] for row in rows]


class TestTableauInverse:
    """The tableau is ``A`` over ``det > 0``, with ``A`` times the nonbasic forms ``det * I``."""

    def test_inverse_and_rows_after_every_step(self, monkeypatch):
        # after every assertion, check and backtrack: A . M = det * I for the matrix M
        # of the nonbasic forms, and each bounded basic variable's row form . A / det
        # is the row form . M^-1 solved over Fraction
        assert_literal, check, backtrack = (
            lra._Simplex.assert_literal, lra._Simplex.check, lra._Simplex.backtrack
        )
        seen = {"steps": 0, "rows": 0, "scaled": 0}

        def inspect(engine):
            d, det = engine.num_vars, engine.det
            assert type(det) is int and det > 0
            forms = [engine.forms[var] for var in engine.nonbasic]
            assert [
                [sum(a * form[j] for a, form in zip(coords, forms)) for j in range(d)]
                for coords in engine.inverse
            ] == [[det * (i == j) for j in range(d)] for i in range(d)]
            solved = fraction_inverse(forms)
            for var in {entry[0] for entry in engine.trail} - set(engine.column):
                form = engine.forms[var]
                row = [Fraction(sum(map(operator.mul, form, col)), det)
                       for col in zip(*engine.inverse)]
                assert row == [sum(f * x for f, x in zip(form, col)) for col in zip(*solved)]
                seen["rows"] += 1
            seen["steps"] += 1
            seen["scaled"] += det > 1

        def recording_assert(self, coeffs, level):
            result = assert_literal(self, coeffs, level)
            inspect(self)
            return result

        def recording_check(self):
            result = check(self)
            inspect(self)
            return result

        def recording_backtrack(self, level):
            backtrack(self, level)
            inspect(self)

        monkeypatch.setattr(lra._Simplex, "assert_literal", recording_assert)
        monkeypatch.setattr(lra._Simplex, "check", recording_check)
        monkeypatch.setattr(lra._Simplex, "backtrack", recording_backtrack)
        for system in pin_batch():
            solve_dnf(system.d, build_dnf(system))
        rng = random.Random(25)
        for _ in range(150):
            solve_condition(tricky_condition(rng))
        # 4935 steps, 5064 bounded basic rows, and det > 1 after 1778 of the steps
        assert seen["steps"] > 4000 and seen["rows"] > 4000 and seen["scaled"] > 1000


class TestBounds:
    """Each bound is a unit fraction: +1/g from below, -1/g from above."""

    def test_tighter_lower_bound_wins(self):
        # x >= 1/3, then x >= 1/2: the second is tighter and moves x onto it
        assert exact(solve_rows, 1, [(3,), (2,)]) == (Fraction(1, 2),)
        assert exact(solve_rows, 1, [(2,), (3,)]) == (Fraction(1, 2),)

    def test_tighter_upper_bound_wins(self):
        # x <= -1/2, then x <= -1/3: the first stays, the second is implied
        assert exact(solve_rows, 1, [(-2,), (-3,)]) == (Fraction(-1, 2),)
        assert exact(solve_rows, 1, [(-3,), (-2,)]) == (Fraction(-1, 2),)

    def test_tighter_bound_on_a_slack_wins(self):
        # (3, -3) and (2, -2) bound the slack x - y below by 1/3 and 1/2
        for rows in ([(3, -3), (2, -2)], [(2, -2), (3, -3)]):
            model = exact(solve_rows, 2, rows)
            assert model[0] - model[1] == Fraction(1, 2)
        for rows in ([(-2, 2), (-3, 3)], [(-3, 3), (-2, 2)]):
            model = exact(solve_rows, 2, rows)
            assert model[0] - model[1] == Fraction(-1, 2)

    def test_value_inside_a_new_bound_stays(self):
        # branch 0 puts x at 1/2 and fails at level 1; retracting it leaves x at 1/2,
        # which satisfies branch 1's x >= 1/3, so x is not moved onto 1/3
        rows = ((((2, 0), (0, 1)), ((3, 0),)), (((0, -1),),))
        assert exact(solve_dnf, 2, rows) == (Fraction(1, 2), Fraction(-1))

    def test_opposite_bounds_clash_at_assert_time(self, monkeypatch):
        # level 0 bounds the slack x - y below, level 1 bounds z, and level 2 bounds
        # x - y above: the clash names levels 0 and 2 only, so the search jumps from
        # level 2 straight to level 0 and never tries level 1's second branch.  The
        # two literals sum to 0 with the multipliers 1 and 1.
        calls = []
        assert_literal = lra._Simplex.assert_literal
        check = lra._Simplex.check

        def recording_assert(self, coeffs, level):
            result = assert_literal(self, coeffs, level)
            # the search edits the level set
            calls.append((coeffs, level, result and (set(result[0]), result[1])))
            return result

        def recording_check(self):
            calls.append("check")
            return check(self)

        monkeypatch.setattr(lra._Simplex, "assert_literal", recording_assert)
        monkeypatch.setattr(lra._Simplex, "check", recording_check)
        rows = (
            (((1, -1, 0),), ((5, 0, 0),)),
            (((0, 0, 1),), ((0, 0, 2),)),
            (((-1, 1, 0),),),
        )
        model = exact(solve_dnf, 3, rows)
        assert ((0, 0, 2), 1, None) not in calls
        assert calls[:6] == [
            ((1, -1, 0), 0, None), "check",
            ((0, 0, 1), 1, None), "check",
            ((-1, 1, 0), 2, ({0, 2}, ((1, (1, -1, 0)), (1, (-1, 1, 0))))),  # no pivot
            ((5, 0, 0), 0, None),
        ]
        assert model[0] == Fraction(1, 5) and model[1] - model[0] >= 1 and model[2] == 1

    def test_nonbasic_values_sit_at_zero_or_at_a_bound(self, monkeypatch):
        # after every assertion and check, each nonbasic value is (0, 1) or a bound
        # once asserted on that variable, and after a successful check every bounded
        # variable, its value recomputed over Fraction, satisfies its bound
        asserted = {}
        assert_literal = lra._Simplex.assert_literal
        check = lra._Simplex.check
        inspected = [0]
        at_slack_bound = [0]

        def exact_value(engine, var):
            if var in engine.column:
                s, g = engine.at[engine.column[var]]
                return Fraction(s, g)
            values = [exact_value(engine, nb) for nb in engine.nonbasic]
            n = [sum(map(operator.mul, coords, values)) / engine.det for coords in engine.inverse]
            return sum(f * x for f, x in zip(engine.forms[var], n))

        def inspect(engine):
            seen = asserted.setdefault(id(engine), {})
            for var in engine.nonbasic:
                value = engine.at[engine.column[var]]
                assert value == (0, 1) or value in seen.get(var, ())
                at_slack_bound[0] += var >= engine.num_vars and value != (0, 1)
            inspected[0] += 1

        def recording_assert(self, coeffs, level):
            depth = len(self.trail)
            result = assert_literal(self, coeffs, level)
            if len(self.trail) > depth:
                var = self.trail[-1][0]
                asserted.setdefault(id(self), {}).setdefault(var, set()).add(self.bound[var][0])
            inspect(self)
            return result

        def recording_check(self):
            result = check(self)
            inspect(self)
            if result is None:
                for var, record in enumerate(self.bound):
                    if record is not None:
                        s, g = record[0]
                        x = exact_value(self, var)
                        assert x >= Fraction(1, g) if s > 0 else x <= Fraction(-1, g)
            return result

        monkeypatch.setattr(lra._Simplex, "assert_literal", recording_assert)
        monkeypatch.setattr(lra._Simplex, "check", recording_check)
        rng = random.Random(23)
        for _ in range(150):
            system = random_signed_system(rng, max_rows=4, max_monomials=8, max_vars=4, max_exp=6)
            solve_dnf(system.d, build_dnf(system))
        for _ in range(150):
            solve_condition(tricky_condition(rng))
        assert inspected[0] > 1500  # 1875
        assert at_slack_bound[0] > 1000  # 1676 nonbasic slacks seen away from 0

    def test_search_builds_no_fraction(self, monkeypatch):
        # the search does integer arithmetic only, up to and including its answer
        sat, unsat = load("certify_head_42.spp"), load("search_head_8.spp")
        built = []
        new = Fraction.__new__

        def counting(cls, *args, **kwargs):
            built.append(args)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", counting)
        assert solve_dnf(sat.d, build_dnf(sat))[0] == (15, 64, -86)
        assert solve_dnf(unsat.d, build_dnf(unsat))[0] is None
        assert built == []
        Fraction(1, 3)
        assert built == [(1, 3)]  # the counter sees every construction


class TestConflicts:
    """Each conflict comes with positive int multipliers that sum its literals to 0."""

    def test_opposite_bounds_take_each_others_scale(self):
        # (3, -3) bounds x - y below by 1/3 and (-2, 2) above by -1/2: 2 * (3, -3) +
        # 3 * (-2, 2) = 0; the all-zero literal is a conflict by itself
        engine = lra._Simplex(2)
        assert engine.assert_literal((3, -3), 0) is None
        assert engine.assert_literal((-2, 2), 1) == ({0, 1}, ((2, (3, -3)), (3, (-2, 2))))
        assert engine.assert_literal((0, 0), 2) == ({2}, ((1, (0, 0)),))

    def test_violated_row_gives_its_lcm_scaled_entries(self):
        # x >= 1/2 and y >= 1/3 block the slack x + y, bounded above by -1: with the
        # lcm 6, the basic slack gets 1 * 6 / 1 and the columns 1 * 6 / 2 and 1 * 6 / 3
        engine = lra._Simplex(2)
        for level, coeffs in enumerate([(2, 0), (0, 3), (-1, -1)]):
            assert engine.assert_literal(coeffs, level) is None
        assert engine.check() == ({0, 1, 2}, ((6, (-1, -1)), (3, (2, 0)), (2, (0, 3))))
        assert solve_dnf(2, [[[(2, 0), (0, 3), (-1, -1)]]]) == (
            None, (0, (((6, (-1, -1)), (3, (2, 0)), (2, (0, 3))),))
        )

    def test_every_conflict_sums_its_asserted_literals_to_zero(self, monkeypatch):
        # on every data file, the pinned batch and conditions with shared, scaled and
        # all-zero literals, in exact ints: each literal of a conflict is asserted at
        # that moment, and the conflict's levels are exactly those of its literals
        asserted: dict = {}  # coeffs -> the level of its first assertion still in force
        seen = {"clash": 0, "zero": 0, "row": 0, "scaled": 0}
        assert_literal, check, backtrack = (
            lra._Simplex.assert_literal, lra._Simplex.check, lra._Simplex.backtrack
        )

        def verify(conflict, num_vars):
            if conflict is None:
                return
            levels, leaf = conflict
            assert leaf and all(type(y) is int and y > 0 for y, _ in leaf)
            assert {asserted[coeffs] for _, coeffs in leaf} == levels
            assert [sum(y * c[i] for y, c in leaf) for i in range(num_vars)] == [0] * num_vars
            seen["scaled"] += any(y > 1 for y, _ in leaf)

        def recording_assert(self, coeffs, level):
            asserted.setdefault(coeffs, level)
            conflict = assert_literal(self, coeffs, level)
            verify(conflict, self.num_vars)
            if conflict is not None:
                seen["zero" if len(conflict[1]) == 1 else "clash"] += 1
            return conflict

        def recording_check(self):
            conflict = check(self)
            verify(conflict, self.num_vars)
            seen["row"] += conflict is not None
            return conflict

        def recording_backtrack(self, level):
            for coeffs in [c for c, at in asserted.items() if at >= level]:
                del asserted[coeffs]
            backtrack(self, level)

        monkeypatch.setattr(lra._Simplex, "assert_literal", recording_assert)
        monkeypatch.setattr(lra._Simplex, "check", recording_check)
        monkeypatch.setattr(lra._Simplex, "backtrack", recording_backtrack)
        for system in [load(name) for name in sorted([*PINNED_MODELS, *SLOW_DATA])] + pin_batch():
            asserted.clear()
            solve_dnf(system.d, build_dnf(system))
        rng = random.Random(24)
        for _ in range(150):
            asserted.clear()
            solve_condition(tricky_condition(rng))
        # 75 all-zero literals, 2156 bound clashes and 290 violated rows; 456 conflicts
        # have a multiplier above 1
        assert seen["zero"] > 50 and seen["clash"] > 1000 and seen["row"] > 200
        assert seen["scaled"] > 300


def lcm_scaled(values):
    """Reference scaling: a Fraction vector times the lcm of its denominators."""
    delta = math.lcm(*(x.denominator for x in values)) if values else 1
    return tuple(int(x * delta) for x in values)


def sat_models():
    """(exact model, ``solve_dnf``'s vector) of each SAT data file and seeded-batch system."""
    pairs = []
    for system in [load(name) for name in PINNED_MODELS] + pin_batch():
        rows = build_dnf(system)
        model = exact(solve_dnf, system.d, rows)
        if model is not None:
            pairs.append((model, solve_dnf(system.d, rows)[0]))
    return pairs


def assert_smallest_multiple(model, n):
    """``n`` is ``delta * model`` for the least positive int ``delta`` that makes it integral."""
    assert all(type(x) is int for x in n)
    deltas = {Fraction(x, m) for x, m in zip(n, model, strict=True) if m}
    if not deltas:
        assert not any(n)
        return
    (delta,) = deltas
    assert delta.denominator == 1 and delta >= 1
    # n / g = (delta / g) * model is integral for every common factor g of delta and n
    assert math.gcd(delta.numerator, *n) == 1


class TestSmallestIntegerMultiple:
    """``solve_dnf`` answers with the smallest positive integer multiple of its model."""

    def test_clears_denominators(self):
        # the models (-5/2, -2) and (15/377, 64/377, -86/377) of PINNED_MODELS
        example2, head = load("example2.spp"), load("certify_head_42.spp")
        assert solve_dnf(example2.d, build_dnf(example2)) == ((-5, -4), None)
        assert solve_dnf(head.d, build_dnf(head)) == ((15, 64, -86), None)

    def test_integral_model_unchanged(self):
        assert exact(solve_rows, 2, [(1, 0), (-1, 1)]) == (1, 2)
        assert solve_rows(2, [(1, 0), (-1, 1)]) == (1, 2)
        assert exact(solve_rows, 3, []) == (0, 0, 0)
        assert solve_rows(3, []) == (0, 0, 0)

    def test_third_satisfying_row_scales_to_one(self):
        assert exact(solve_rows, 1, [(3,)]) == (Fraction(1, 3),)
        assert solve_rows(1, [(3,)]) == (1,)

    def test_equals_the_lcm_scaled_model(self):
        pairs = sat_models()
        assert len(pairs) == 223 + 6  # the seeded batch and the SAT data files
        for model, n in pairs:
            assert n == lcm_scaled(model)
            assert_smallest_multiple(model, n)

    def test_result_is_a_positive_integer_multiple(self):
        # a number of variables from 1 to 3 and up to 6 forms coeffs . n >= 1 over them,
        # with entries in [-5, 5]
        rng = random.Random(23)
        feasible = 0
        for _ in range(400):
            d = rng.randint(1, 3)
            rows = [tuple(rng.randint(-5, 5) for _ in range(d)) for _ in range(rng.randint(0, 6))]
            model = exact(solve_rows, d, rows)
            if model is not None:
                feasible += 1
                assert_smallest_multiple(model, solve_rows(d, rows))
        assert feasible >= 200  # 255 of the 400

    def test_scaled_model_still_satisfies_condition(self):
        rng = random.Random(5)
        for _ in range(80):
            cond = random_condition(rng)
            n = solve_condition(cond)
            if n is None:
                continue
            assert cond.satisfied_by(n)
            for _ in range(3):
                delta = rng.randint(1, 100)
                assert cond.satisfied_by(tuple(delta * x for x in n))


def argmax_branch_polyhedron(system, n):
    """Forms a with ``a . m >= 1`` on the branch of each row's first highest positive monomial."""
    exps = system.e.entries
    heights = [sum(a * x for a, x in zip(e, n)) for e in exps]
    forms = []
    for row in system.s.entries:
        positive = [j for j, sign in row if sign > 0]
        negative = [k for k, sign in row if sign < 0]
        if negative:
            top = max(heights[j] for j in positive)
            j = next(j for j in positive if heights[j] == top)
            forms += [tuple(a - b for a, b in zip(exps[j], exps[k])) for k in negative]
    return forms


class TestShrinkModel:
    def test_intro_f_shrinks_to_one(self):
        # the simplex model n = 1 is already minimal, so shrinking keeps it
        system = load("intro_f.spp")
        decision = decide_system(system)
        assert solve_dnf(system.d, build_dnf(system)) == ((1,), None)
        assert decision.n == (1,)
        assert shrink(system.d, build_dnf(system), (1,)) == (1,)

    def test_shrunk_vector_still_certifies(self):
        # every SAT answer is certified, no farther from 0 than the scaled model in any
        # entry, and a fixed point: no unit step of one entry toward 0 stays inside the
        # polyhedron of the branches that its rows' highest positive monomials pick
        rng = random.Random(6)
        sat = moved = 0
        for _ in range(240):
            system = random_signed_system(rng, max_rows=4, max_monomials=10, max_vars=5, max_exp=10)
            decision = decide_system(system)
            if decision.status == "unsat":
                continue
            sat += 1
            n = decision.n
            scaled, _ = solve_dnf(system.d, build_dnf(system))
            assert certifies(system, n)
            assert all(abs(x) <= abs(y) for x, y in zip(n, scaled, strict=True))
            moved += n != scaled
            forms = argmax_branch_polyhedron(system, n)
            assert all(sum(a * x for a, x in zip(form, n)) >= 1 for form in forms)
            for c, x in enumerate(n):
                if x:
                    step = list(n)
                    step[c] -= 1 if x > 0 else -1
                    assert any(sum(a * y for a, y in zip(form, step)) < 1 for form in forms)
        assert sat >= 150  # 193 of the 240
        assert moved >= 50  # 73 of them

    def test_no_entry_changes_sign(self):
        # one row, forms (2, -2, 3) and (0, 2, -3): the first sweep moves (7, 9, 3) to
        # (5, 5, 1), and the step along (-2, -4, -2) that follows must stop before n_3
        # passes 0; without that stop the walk ends at (2, 0, -1), which also certifies
        system = parse_system("vars x y z\npoly f = a*x^2*y^2*z^3 - b*y^4 - c*x^2*z^6\n")
        assert certifies(system, (2, 0, -1))
        assert shrink(system.d, build_dnf(system), (7, 9, 3)) == (2, 1, 0)

    def test_shrunk_vectors_digest(self, data_dir):
        # decide's exact vectors after shrink: every data file, the wall template
        # included, then the pinned batch
        systems = [load(path.name) for path in sorted(data_dir.glob("*.spp"))] + pin_batch()
        vectors = [decide_system(system).n for system in systems]
        assert len(vectors) == 311 and sum(n is not None for n in vectors) == 228
        digest = hashlib.sha256(repr(vectors).encode()).hexdigest()
        assert digest == "19a58cd444f876486616aa272d651d028995cca997f8ae47899fe749a3974e95"

    def test_rejects_uncertified_input(self):
        system = load("intro_f.spp")
        with pytest.raises(ValueError):
            shrink(system.d, build_dnf(system), (0,))
