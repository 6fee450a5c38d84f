import random
from fractions import Fraction

import pytest

from subtrop import (
    NonIntegerCoefficient,
    PreconditionViolated,
    SizeLimitExceeded,
    UnboundCoefficient,
    UncertifiedExponent,
    WitnessFailure,
    decide_system,
    instantiate,
    parse_system,
    symbolic_t,
    uniform_bound,
    verify_witness,
)
from subtrop.core import ConcreteCoefficients, ExponentMatrix, SignedSystem, SignMatrix
from subtrop.witness import _named_rows, _t_from_rows

from conftest import dense_signs, expand, load, read_data, sign_row_terms, t_of
from gensys import (
    random_bindings,
    random_exponent_rows,
    random_positive_value,
    random_signed_system,
    sparse_rows,
)

INTRO_BINDINGS = {"c2": Fraction(1), "c1": Fraction(1), "c0": Fraction(1)}


def rows_t(witness, value_of) -> Fraction:
    """t from the witness's per-row names, each looked up in ``value_of``."""
    return 1 + sum(
        sum(value_of[k] for k in neg) * sum(1 / value_of[j] for j in pos)
        for _, neg, pos in witness.rows
    )


def text_rows(text: str) -> list:
    """``(neg, pos)`` name tuples read back from ``witness`` text, one per row factor."""
    t = text.partition("; z = ")[0]
    rows = []
    for factor in t.removeprefix("t = 1").split(" + (")[1:]:
        neg, pos = factor.removesuffix(")").split(")*(")
        rows.append((tuple(neg.split(" + ")), tuple(p.removeprefix("1/") for p in pos.split(" + "))))
    return rows


def positional_values(system) -> dict:
    """The coefficients of a concrete system, keyed by the names ``c_<i+1>_<j+1>``."""
    return {
        f"c_{i + 1}_{j + 1}": value
        for i, (signs, values) in enumerate(zip(system.s.entries, system.c.values))
        for (j, _), value in zip(signs, values)
    }


class TestSymbolicRows:
    def test_matches_sign_row_reference(self):
        # the witness's rows multiply out to the paper's pairs: row-major, then
        # negative k, then positive j; a row without positive or without
        # negative monomials gives no pair
        rng = random.Random(31)
        systems = [load("zero_row.spp"), load("example2.spp")] + [
            random_signed_system(
                rng, parametric=index % 2 == 0, ensure_positive=rng.random() < 0.5
            )
            for index in range(300)
        ]
        kinds, terms = set(), 0
        for system in systems:
            got = expand(_named_rows(system))
            assert got == [(k, j, i) for k, j, i, *_ in sign_row_terms(system)]
            terms += len(got)
            kinds |= {(max(row) > 0, min(row) < 0) for row in dense_signs(system)}
        assert kinds == {(True, True), (True, False), (False, True), (False, False)}
        assert terms > 500  # 850


class TestSymbolicT:
    def test_example2_seven_terms_in_order(self):
        system = load("example2.spp")
        witness = symbolic_t(system, (-12, -11))
        assert witness.rows == (
            (0, ("c11", "c13"), ("c12", "c15")),
            (1, ("c24",), ("c21", "c22", "c23")),
        )
        assert [(k, j) for k, j, _ in expand(witness.rows)] == [
            ("c11", "c12"),
            ("c11", "c15"),
            ("c13", "c12"),
            ("c13", "c15"),
            ("c24", "c21"),
            ("c24", "c22"),
            ("c24", "c23"),
        ]
        assert witness.to_display_text() == (
            "t = 1 + (c11 + c13)*(1/c12 + 1/c15) + (c24)*(1/c21 + 1/c22 + 1/c23); "
            "z = (t^-12, t^-11)"
        )
        assert witness.to_json_dict() == {
            "t": {"one": 1, "rows": [
                {"row": 0, "neg": ["c11", "c13"], "pos": ["c12", "c15"]},
                {"row": 1, "neg": ["c24"], "pos": ["c21", "c22", "c23"]},
            ]},
            "n": [-12, -11],
        }

    def test_intro_f_terms(self):
        witness = symbolic_t(load("intro_f.spp"), (1,))
        assert witness.rows == ((0, ("c1",), ("c2", "c0")),)
        assert witness.to_display_text() == "t = 1 + (c1)*(1/c2 + 1/c0); z = (t^1)"

    def test_all_positive_system_has_empty_t(self):
        system = parse_system("vars x y\npoly f = a*x + b*y\n")
        witness = symbolic_t(system, (0, 0))
        assert witness.rows == ()
        assert witness.to_display_text() == "t = 1; z = (t^0, t^0)"
        assert witness.to_json_dict() == {"t": {"one": 1, "rows": []}, "n": [0, 0]}

    def test_concrete_systems_get_positional_names(self):
        system = load("intro_f_ones.spp")
        witness = symbolic_t(system, (1,))
        assert witness.rows == ((0, ("c_1_2",), ("c_1_1", "c_1_3")),)
        assert witness.to_display_text() == "t = 1 + (c_1_2)*(1/c_1_1 + 1/c_1_3); z = (t^1)"
        assert witness.to_json_dict() == {
            "t": {"one": 1, "rows": [{"row": 0, "neg": ["c_1_2"], "pos": ["c_1_1", "c_1_3"]}]},
            "n": [1],
        }

    @pytest.mark.parametrize("source, n, rows", [
        # the cancelled x leaves column 0 out, so row 1's terms lie in columns 2 and 3
        ("vars x y\npoly f = 2*x - x - x + y\npoly g = 3*x*y - 1/2 + x*y\n", (1, 0),
         ((1, ("c_2_4",), ("c_2_3",)),)),
        # row 1 leaves column 3 out, so the name of its negative term in column 4 is c24
        (read_data("example2.spp"), (-5, -4),
         ((0, ("c11", "c13"), ("c12", "c15")), (1, ("c24",), ("c21", "c22", "c23")))),
    ], ids=["concrete", "parametric"])
    def test_names_skip_zero_sign_columns(self, source, n, rows):
        assert symbolic_t(parse_system(source), n).rows == rows

    def test_names_each_coefficient_once(self):
        # sum of |P_i| + |N_i| names, where the pairwise form has sum of |P_i| |N_i| terms
        system = load("certify_head_42.spp")
        witness = symbolic_t(system, decide_system(system).n)
        assert sum(len(neg) + len(pos) for _, neg, pos in witness.rows) == 11
        assert len(expand(witness.rows)) == len(sign_row_terms(system)) == 30

    def test_zero_row_is_rejected(self):
        # the row adds no clause, so every n certifies; the gate still refuses
        with pytest.raises(PreconditionViolated, match="^row 0 is identically zero"):
            symbolic_t(load("zero_row.spp"), (0,))

    def test_uncertified_vector_is_rejected(self):
        with pytest.raises(UncertifiedExponent):
            symbolic_t(load("intro_f.spp"), (0,))
        with pytest.raises(UncertifiedExponent):
            symbolic_t(load("intro_f.spp"), (1, 1))

    def test_entries_must_be_ints(self):
        system = load("intro_f.spp")
        concrete = instantiate(system, INTRO_BINDINGS)
        for n in ((Fraction(1),), (True,)):
            with pytest.raises(TypeError, match="must be an int"):
                symbolic_t(system, n)
            with pytest.raises(TypeError, match="must be an int"):
                verify_witness(concrete, n)
        assert symbolic_t(system, [1]).n == (1,)
        assert verify_witness(concrete, [1]).values == (Fraction(7),)

    def test_json_shape(self):
        witness = symbolic_t(load("intro_f.spp"), (1,))
        assert witness.to_json_dict() == {
            "t": {"one": 1, "rows": [{"row": 0, "neg": ["c1"], "pos": ["c2", "c0"]}]},
            "n": [1],
        }

    def test_rows_give_the_t_of_the_rows_and_of_the_pairs(self):
        # every SAT file in tests/data, at random bindings
        rng = random.Random(27)
        names = ["certify_head_42.spp", "example2.spp", "intro_f.spp", "search_head_3.spp"]
        for name in names:
            system = load(name)
            witness = symbolic_t(system, decide_system(system).n)
            assert text_rows(witness.to_display_text()) == [row[1:] for row in witness.rows]
            for _ in range(5):
                bindings = random_bindings(rng, system)
                concrete = instantiate(system, bindings)
                assert rows_t(witness, bindings) == _t_from_rows(concrete) == t_of(concrete)
        concrete = load("intro_f_ones.spp")
        witness = symbolic_t(concrete, decide_system(concrete).n)
        assert rows_t(witness, positional_values(concrete)) == _t_from_rows(concrete) == 3


class TestReportedT:
    def test_unit_coefficients(self):
        system = instantiate(load("intro_f.spp"), INTRO_BINDINGS)
        assert verify_witness(system, (1,)).t_value == 3

    def test_mixed_coefficients(self):
        system = instantiate(
            load("intro_f.spp"), {"c2": Fraction(2), "c1": Fraction(1), "c0": Fraction(4)}
        )
        assert verify_witness(system, (1,)).t_value == Fraction(7, 4)

    def test_no_terms_is_one(self):
        system = parse_system("vars x\npoly f = 2*x\n")
        assert verify_witness(system, (0,)).t_value == 1

    def test_t_above_one_iff_some_sign_pair_exists(self):
        rng = random.Random(21)
        seen = set()
        for _ in range(100):
            system, n = certified_system(rng)
            has_pair = any(min(row) < 0 < max(row) for row in dense_signs(system))
            assert (verify_witness(system, n).t_value > 1) == has_pair
            seen.add(has_pair)
        assert seen == {True, False}


class TestInstantiate:
    def test_missing_name(self):
        with pytest.raises(UnboundCoefficient, match="c0"):
            instantiate(load("intro_f.spp"), {"c2": 1, "c1": 1})

    def test_extra_names_are_ignored(self):
        system = instantiate(load("intro_f.spp"), {**INTRO_BINDINGS, "spare": Fraction(9)})
        assert system.c.values == ((Fraction(1), Fraction(1), Fraction(1)),)

    def test_bound_fractions_are_kept_and_zero_signs_stay_none(self):
        template = load("example2.spp")
        bindings = random_bindings(random.Random(28), template)
        system = instantiate(template, bindings)
        # a zero sign has no term, so it stays without a value
        assert list(map(len, system.c.values)) == list(map(len, template.s.entries))
        for name_row, value_row in zip(template.c.names, system.c.values):
            for name, value in zip(name_row, value_row):
                assert value is bindings[name]

    def test_decision_is_unchanged_by_instantiation(self):
        rng = random.Random(22)
        for _ in range(20):
            system = random_signed_system(rng, parametric=True)
            concrete = instantiate(system, random_bindings(rng, system))
            assert decide_system(concrete).status == decide_system(system).status


class TestUniformBound:
    def test_intro_unit_coefficients(self):
        system = instantiate(load("intro_f.spp"), INTRO_BINDINGS)
        assert uniform_bound(system) == 4  # 1 + 3 * 1

    def test_intro_with_negative_coefficient_four(self):
        system = instantiate(
            load("intro_f.spp"), {"c2": Fraction(2), "c1": Fraction(4), "c0": Fraction(1)}
        )
        assert t_of(system) == 7  # 1 + 4/2 + 4/1
        assert uniform_bound(system) == 13  # 1 + 3 * 4

    def test_three_poly_example(self):
        assert uniform_bound(load("sec2.spp")) == 25  # 1 + 3 * (4 + 3 + 1)

    def test_no_negative_entries(self):
        assert uniform_bound(parse_system("vars x\npoly f = 2*x + 3\n")) == 1

    def test_rejects_non_integer_coefficients(self):
        with pytest.raises(NonIntegerCoefficient):
            uniform_bound(parse_system("vars x\npoly f = 1/2*x - 3\n"))
        with pytest.raises(NonIntegerCoefficient):
            uniform_bound(load("intro_f.spp"))

    def test_dominates_t_on_random_integer_systems(self):
        rng = random.Random(23)
        for _ in range(60):
            system = random_signed_system(
                rng, parametric=False, integer_coeffs=True, ensure_positive=False
            )
            assert uniform_bound(system) >= t_of(system)


def term_by_term(system, point):
    """Row values summed one Fraction term at a time, as a reference."""
    monomials = []
    for exps in system.e.entries:
        value = Fraction(1)
        for x, e in zip(point, exps):
            value *= Fraction(x) ** e
        monomials.append(value)
    return tuple(
        sum(
            (sign * c * monomials[j] for (j, sign), c in zip(sign_row, value_row)),
            Fraction(0),
        )
        for sign_row, value_row in zip(system.s.entries, system.c.values)
    )


class TestVerifyWitness:
    def test_intro_f_at_t(self):
        system = instantiate(load("intro_f.spp"), INTRO_BINDINGS)
        report = verify_witness(system, (1,), Fraction(3))
        assert report.t_value == 3
        assert report.r_value == 3
        assert report.point == (Fraction(3),)
        assert report.values == (Fraction(7),)

    def test_r_defaults_to_t(self):
        system = load("example2.spp")
        rng = random.Random(26)
        n = (-12, -11)
        for _ in range(5):
            concrete = instantiate(system, random_bindings(rng, system))
            t = t_of(concrete)
            report = verify_witness(concrete, n)
            assert report == verify_witness(concrete, n, t)
            assert report.r_value == report.t_value == t

    def test_intro_f_at_larger_r(self):
        system = instantiate(load("intro_f.spp"), INTRO_BINDINGS)
        report = verify_witness(system, (1,), Fraction(100))
        assert report.values == (Fraction(9901),)

    def test_example2_random_instantiations_with_paper_vector(self):
        system = load("example2.spp")
        rng = random.Random(25)
        n = (-12, -11)
        for _ in range(20):
            concrete = instantiate(system, random_bindings(rng, system))
            t = t_of(concrete)
            assert all(value > 0 for value in verify_witness(concrete, n, t).values)

    def test_r_below_t_is_rejected(self):
        system = instantiate(load("intro_f.spp"), INTRO_BINDINGS)
        with pytest.raises(PreconditionViolated, match="below t"):
            verify_witness(system, (1,), Fraction(2))

    def test_uncertified_vector_is_a_precondition_error(self):
        system = instantiate(load("intro_f.spp"), INTRO_BINDINGS)
        with pytest.raises(PreconditionViolated):
            verify_witness(system, (0,), Fraction(100))

    def test_zero_row_is_a_precondition_error(self):
        with pytest.raises(PreconditionViolated, match="identically zero"):
            verify_witness(load("zero_row.spp"), (0,), Fraction(1))

    def test_failure_names_the_exact_value(self, monkeypatch):
        import subtrop.witness as witness

        system = parse_system("vars x\npoly f = x^2 - 3*x + 1/2\n")
        assert verify_witness(system, (1,)).t_value == 10  # 1 + 3/1 + 3/(1/2)
        # a wrong t of 1 puts the point at x = 1, where f = -3/2
        monkeypatch.setattr(witness, "_t_from_rows", lambda system: Fraction(1))
        with pytest.raises(WitnessFailure, match=r"^row 0 evaluates to -3/2 at r = 1, n = \(1,\)$"):
            verify_witness(system, (1,))

    def test_parametric_system_is_rejected(self):
        with pytest.raises(PreconditionViolated):
            verify_witness(load("intro_f.spp"), (1,), Fraction(3))

    def test_size_guard_counts_the_common_denominator(self):
        # every monomial is put over 3^(10 * 40 * 4): each coordinate has 120 bits, one
        # monomial 1200, but the integers built have about 4 * 10 * 120 = 4800 bits
        system = parse_system("vars x y z w\npoly f = x^10 + y^10 + z^10 + w^10 - 1/3\n")
        n, r = (40, 40, 40, 40), Fraction(7, 3)
        with pytest.raises(SizeLimitExceeded, match="1300 bits"):
            verify_witness(system, n, r, max_bits=1300)
        with pytest.raises(SizeLimitExceeded):
            verify_witness(system, n, r, max_bits=4799)
        assert all(value > 0 for value in verify_witness(system, n, r, max_bits=4800).values)


def certified_system(rng: random.Random):
    """A concrete system with rational coefficients and a vector n that certifies it.

    ``d`` runs from 1 to 6 and n has at least one negative entry.  In each
    row, the highest monomial of a random subset is positive, monomials of
    the same height are positive too, and the lower ones take either sign;
    about one row in four has no negative monomial.
    """
    d = rng.randint(1, 6)
    n = [rng.randint(-3, 3) for _ in range(d)]
    n[rng.randrange(d)] = -rng.randint(1, 3)
    exps = random_exponent_rows(rng, rng.randint(2, 8), d, 4)
    heights = [sum(e * x for e, x in zip(row, n)) for row in exps]
    signs = []
    for _ in range(rng.randint(1, 4)):
        support = rng.sample(range(len(exps)), rng.randint(1, len(exps)))
        top = max(heights[j] for j in support)
        no_negative = rng.random() < 0.25
        row = [0] * len(exps)
        for j in support:
            row[j] = 1 if heights[j] == top or no_negative else rng.choice((-1, 1))
        signs.append(tuple(row))
    terms = sparse_rows(signs)
    values = tuple(tuple(random_positive_value(rng) for _ in row) for row in terms)
    system = SignedSystem(
        SignMatrix(terms, len(exps)),
        ExponentMatrix(exps, cols=d),
        ConcreteCoefficients(values),
        tuple(f"x{i + 1}" for i in range(d)),
    )
    return system, tuple(n)


class TestIntegerVerification:
    """``verify_witness`` against the symbolic witness and a term-by-term ``Fraction`` sum."""

    def test_matches_symbolic_t_and_term_by_term(self):
        rng = random.Random(14)
        dims, pairs = set(), 0
        for index in range(300):
            system, n = certified_system(rng)
            t = t_of(system)
            r = None if index % 2 == 0 else t + Fraction(rng.randint(0, 5), rng.randint(1, 5))
            report = verify_witness(system, n, r)
            assert report.t_value == t == rows_t(symbolic_t(system, n), positional_values(system))
            assert report.r_value == (t if r is None else r)
            assert report.point == tuple(report.r_value**ni for ni in n)
            assert report.values == term_by_term(system, report.point)
            assert all(value > 0 for value in report.values)
            dims.add(system.d)
            pairs += len(sign_row_terms(system))
        assert dims == set(range(1, 7))
        assert pairs > 0

    def test_builds_only_the_reports_fractions(self, monkeypatch):
        import subtrop.witness as witness

        built = []

        class Counted(Fraction):
            def __new__(cls, *args, **kwargs):
                built.append(args)
                return super().__new__(cls, *args, **kwargs)

        template = load("example2.spp")
        system = instantiate(template, random_bindings(random.Random(27), template))
        expected = verify_witness(system, (-12, -11))
        monkeypatch.setattr(witness, "Fraction", Counted)
        report = verify_witness(system, (-12, -11))
        assert report == expected
        # one for t, one per coordinate of the point and one per row value
        assert len(built) == 1 + system.d + system.u
