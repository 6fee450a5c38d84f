import copy
import pickle
import random
import sys
from fractions import Fraction
from itertools import chain

import pytest

from subtrop import SignedSystem
from subtrop import decide_system, parse_system, print_system, symbolic_t, verify_witness
from subtrop.core import (
    ConcreteCoefficients,
    ExponentMatrix,
    ParametricCoefficients,
    SignMatrix,
    _Value,
    zero_sign_rows,
)
from subtrop.condition import build_cnf, dominance_rows
from subtrop.parser import parse_coefficient_bindings
from subtrop.pipeline import Decision
from subtrop.witness import instantiate

from conftest import DATA, assert_constructors_agree, dense_signs, load, read_data
from gensys import random_exponent_rows, random_signed_system, template_system


class TestMatrices:
    def test_concrete_coefficients_keep_exact_values(self):
        half = Fraction(1, 2)
        values = ConcreteCoefficients(((half, 3, True),)).values
        assert values[0][0] is half
        assert values == ((half, Fraction(3), Fraction(1)),)
        assert all(type(x) is Fraction for x in values[0])
        for bad, shown in [(Fraction(-1, 2), "-1/2"), (0, "0"), (-3, "-3"), (False, "0")]:
            with pytest.raises(ValueError, match=f"must be strictly positive, got {shown}$"):
                ConcreteCoefficients(((bad,),))
        with pytest.raises(TypeError, match="float"):
            ConcreteCoefficients(((0.5,),))

    def test_exponent_matrix_rejects_negative_entries(self):
        with pytest.raises(ValueError, match="negative exponent"):
            ExponentMatrix(((1, -1),))

    def test_exponent_matrix_rejects_duplicate_rows(self):
        with pytest.raises(ValueError, match="duplicate monomial"):
            ExponentMatrix(((1, 0), (1, 0)))

    def test_exponent_matrix_without_rows_needs_cols(self):
        with pytest.raises(ValueError):
            ExponentMatrix(())
        assert ExponentMatrix((), cols=2).rows == 0

    def test_sign_matrix_rejects_other_values(self):
        with pytest.raises(ValueError, match="must be -1 or 1"):
            SignMatrix((((0, 2),),), 2)

    def test_rows_must_match_cols_and_hold_ints(self):
        with pytest.raises(ValueError, match="entries, expected 2"):
            ExponentMatrix(((1, 0), (1,)))
        with pytest.raises(ValueError, match="entries, expected 3"):
            ExponentMatrix(((1, 0),), cols=3)
        with pytest.raises(ValueError, match="cols is required"):
            ExponentMatrix(())
        # a sign row's columns lie in range(cols), and every term is a pair of ints
        with pytest.raises(ValueError, match="column 2 of sign row 1 is outside 0..1$"):
            SignMatrix((((0, 1),), ((2, 1),)), 2)
        with pytest.raises(ValueError, match="column 1 of sign row 0 is outside 0..0$"):
            SignMatrix((((0, 1), (1, 1)),), 1)
        with pytest.raises(TypeError, match=r"must be a \(column, sign\) pair, got \(0, 1, 1\)$"):
            SignMatrix((((0, 1, 1),),), 2)
        with pytest.raises(TypeError, match="cols"):
            SignMatrix(())
        for matrix in (ExponentMatrix, lambda rows: SignMatrix([[tuple(row)] for row in rows], 2)):
            with pytest.raises(TypeError, match="must be an int"):
                matrix(((1, True),))
            with pytest.raises(TypeError, match="must be an int"):
                matrix(((1, 1.0),))
        assert ExponentMatrix((), cols=2).cols == 2
        assert SignMatrix((), 2).cols == 2

    def test_parametric_names_must_be_distinct(self):
        with pytest.raises(ValueError, match="duplicate coefficient name"):
            ParametricCoefficients((("a", "a"),))

    def test_concrete_values_must_be_positive(self):
        with pytest.raises(ValueError, match="strictly positive"):
            ConcreteCoefficients(((Fraction(0),),))

    def test_concrete_values_reject_floats(self):
        with pytest.raises(TypeError, match="float"):
            ConcreteCoefficients(((0.5,),))

    def test_system_dimension_checks(self):
        s = SignMatrix((((0, 1), (1, -1)),), 2)
        e = ExponentMatrix(((2,), (1,)), cols=1)
        c = ConcreteCoefficients(((1, 1),))
        SignedSystem(s, e, c, ("x",))
        with pytest.raises(ValueError):
            SignedSystem(s, ExponentMatrix(((2,),), cols=1), c, ("x",))
        with pytest.raises(ValueError):
            SignedSystem(s, e, c, ("x", "y"))
        with pytest.raises(ValueError, match="shape does not match"):
            SignedSystem(s, e, ConcreteCoefficients(((1, 1), (1,))), ("x",))

    def test_value_errors_name_their_position(self):
        s = SignMatrix((((0, 1), (1, -1)), ((0, 1), (2, -1))), 3)
        e = ExponentMatrix(((2,), (1,), (0,)), cols=1)
        system = SignedSystem(s, e, ConcreteCoefficients(((1, 2), (3, 1))), ("x",))
        assert system.c.values == ((1, 2), (3, 1))
        # a short row names the first term left without a value; a long row names the row
        missing = ConcreteCoefficients(((1, 2), (3,)))
        with pytest.raises(ValueError) as err:
            SignedSystem(s, e, missing, ("x",))
        assert str(err.value) == (
            "coefficient value at (1, 2) must be present iff the sign is nonzero"
        )
        extra = ConcreteCoefficients(((1, 2), (3, 5, 1)))
        one_at_zero_sign = ConcreteCoefficients(((1, 2, 1), (3, 1)))
        for values, where, count in ((extra, 1, 3), (one_at_zero_sign, 0, 3)):
            with pytest.raises(ValueError) as err:
                SignedSystem(s, e, values, ("x",))
            assert str(err.value) == f"coefficient row {where} has {count} values for 2 terms"

    def test_parametric_name_exactly_at_nonzero_signs(self):
        s = SignMatrix((((0, 1),),), 2)
        e = ExponentMatrix(((2,), (1,)), cols=1)
        with pytest.raises(ValueError, match="^coefficient row 0 has 2 names for 1 terms$"):
            SignedSystem(s, e, ParametricCoefficients((("a", "b"),)), ("x",))
        system = SignedSystem(s, e, ParametricCoefficients((("a",),)), ("x",))
        assert system.c.names == (("a",),)

    def test_int_subclass_entries_are_accepted(self):
        class Small(int):
            pass

        terms = (((Small(0), Small(1)), (2, Small(-1))),)
        assert SignMatrix(terms, 3).entries == (((0, 1), (2, -1)),)
        assert ExponentMatrix(((Small(2), 0),)).entries == ((2, 0),)

    def test_non_int_entries_are_named_in_the_message(self):
        for bad in (True, 1.0):
            with pytest.raises(TypeError) as err:
                ExponentMatrix(((1, 0), (0, bad)))
            assert str(err.value) == f"exponent must be an int, got {bad!r}"
            with pytest.raises(TypeError) as err:
                SignMatrix((((0, 1),), ((1, bad),)), 2)
            assert str(err.value) == f"sign at (1, 1) must be an int, got {bad!r}"
            with pytest.raises(TypeError) as err:
                SignMatrix((((0, 1),), ((0, 1), (bad, 1))), 2)
            assert str(err.value) == f"column of term 1 of sign row 1 must be an int, got {bad!r}"

    def test_sign_error_names_the_first_bad_entry(self):
        with pytest.raises(ValueError) as err:
            SignMatrix((((0, 1), (1, -1)), ((1, 2), (2, 3))), 3)
        assert str(err.value) == "sign at (1, 1) must be -1 or 1, got 2"

    def test_exponent_error_names_the_first_negative_in_row_order(self):
        # not the smallest: min() would name -5, and the second row's -7
        with pytest.raises(ValueError) as err:
            ExponentMatrix(((0, 0, 0), (0, -1, -5), (-7, 0, 0)))
        assert str(err.value) == "negative exponent -1 in row (0, -1, -5)"
        # a duplicate before the negative row is named first, and the other way round
        with pytest.raises(ValueError, match=r"^duplicate monomial row \(1, 0\)$"):
            ExponentMatrix(((1, 0), (1, 0), (0, -1)))
        with pytest.raises(ValueError, match=r"^negative exponent -1 in row \(0, -1\)$"):
            ExponentMatrix(((0, -1), (1, 0), (1, 0)))
        # every row's length and entry types are checked before any row's negative
        # entries and repeats: a later short row wins over an earlier negative, and a
        # later bool over an earlier duplicate
        with pytest.raises(ValueError) as err:
            ExponentMatrix(((0, -1), (1,)))
        assert str(err.value) == "exponent row (1,) has 1 entries, expected 2"
        with pytest.raises(TypeError) as err:
            ExponentMatrix(((1, 0), (1, 0), (0, True)))
        assert str(err.value) == "exponent must be an int, got True"

    def test_row_errors_come_in_row_order(self):
        # row 0 holds a float, row 1 a column out of range: row 0 is named
        with pytest.raises(TypeError, match="got 1.0$"):
            SignMatrix((((0, 1), (1, 1.0)), ((5, 1),)), 2)
        with pytest.raises(ValueError, match="column 5 of sign row 1 is outside 0..1$"):
            SignMatrix((((0, 1),), ((5, 1),), ((1, 1.0),)), 2)

    def test_names_must_be_nonempty_strings(self):
        for bad in ("", 0, 7, b"a", ["a"]):  # a list is unhashable as well
            with pytest.raises(TypeError) as err:
                ParametricCoefficients((("a",), (bad, "b")))
            assert str(err.value) == (
                f"name 0 of coefficient row 1 must be a nonempty string, got {bad!r}"
            )

        class Name(str):
            pass

        assert ParametricCoefficients(((Name("a"), "b"),)).names == (("a", "b"),)

        class Opaque:
            """A name that must be rejected by type, never asked for its truth or equality."""

            __hash__ = object.__hash__

            def __bool__(self):
                raise AssertionError("truth value asked")

            def __eq__(self, other):
                raise AssertionError("compared")

        with pytest.raises(TypeError, match="^name 0 of coefficient row 1 must be a nonempty "
                                            "string, got <"):
            ParametricCoefficients((("a",), (Opaque(), "b")))

    def test_name_errors_come_in_row_order(self):
        with pytest.raises(ValueError, match="^duplicate coefficient name 'a': name 1 of "
                                             "coefficient row 0$"):
            ParametricCoefficients((("a", "a", ""),))
        with pytest.raises(TypeError, match="got ''$"):
            ParametricCoefficients((("a", ""), ("a",)))

    def test_name_and_sign_errors_come_in_row_order(self):
        s = SignMatrix((((0, 1), (1, -1)), ((0, 1), (2, -1))), 3)
        e = ExponentMatrix(((2,), (1,), (0,)), cols=1)
        # row 0's extra name comes before the missing name at (1, 2)
        names = ParametricCoefficients((("a", "b", "z"), ("c",)))
        with pytest.raises(ValueError, match=r"^coefficient row 0 has 3 names for 2 terms$"):
            SignedSystem(s, e, names, ("x",))

    def test_coefficient_errors_name_their_position(self):
        s = SignMatrix((((0, 1), (1, -1)), ((0, 1), (2, -1))), 3)
        e = ExponentMatrix(((2,), (1,), (0,)), cols=1)
        missing = ParametricCoefficients((("a", "b"), ("c",)))
        with pytest.raises(ValueError) as err:
            SignedSystem(s, e, missing, ("x",))
        assert str(err.value) == (
            "coefficient name at (1, 2) must be present iff the sign is nonzero"
        )
        extra = ParametricCoefficients((("a", "b"), ("c", "d", "e")))
        with pytest.raises(ValueError) as err:
            SignedSystem(s, e, extra, ("x",))
        assert str(err.value) == "coefficient row 1 has 3 names for 2 terms"


class TestRejections:
    """Every malformed row of the term form is refused with an error that names its place."""

    E = ExponentMatrix(((2,), (1,), (0,)), cols=1)

    @pytest.mark.parametrize("row, error, message", [
        (((1, 1), (0, -1)), ValueError, "column 0 of sign row 1 does not come after column 1"),
        (((0, 1), (0, -1)), ValueError, "column 0 of sign row 1 does not come after column 0"),
        (((-1, 1),), ValueError, "column -1 of sign row 1 is outside 0..2"),
        (((0, 1), (3, 1)), ValueError, "column 3 of sign row 1 is outside 0..2"),
        (((0, 1), (2, 0)), ValueError, "sign at (1, 2) must be -1 or 1, got 0"),
        (((1, 2),), ValueError, "sign at (1, 1) must be -1 or 1, got 2"),
        (((0, 1), (1, True)), TypeError, "sign at (1, 1) must be an int, got True"),
        (((0, 1), [1, 1]), TypeError,
         "term 1 of sign row 1 must be a (column, sign) pair, got [1, 1]"),
        (((0, 1), (1,)), TypeError,
         "term 1 of sign row 1 must be a (column, sign) pair, got (1,)"),
    ])
    def test_bad_terms(self, row, error, message):
        with pytest.raises(error) as err:
            SignMatrix((((0, 1),), row), 3)
        assert str(err.value) == message

    def test_coefficient_row_of_the_wrong_length(self):
        s = SignMatrix((((0, 1),), ((1, -1), (2, 1))), 3)
        with pytest.raises(ValueError) as err:
            SignedSystem(s, self.E, ConcreteCoefficients(((1,), (2,))), ("x",))
        assert str(err.value) == (
            "coefficient value at (1, 2) must be present iff the sign is nonzero"
        )
        with pytest.raises(ValueError) as err:
            SignedSystem(s, self.E, ParametricCoefficients((("a", "b"), ("c", "d"))), ("x",))
        assert str(err.value) == "coefficient row 0 has 2 names for 1 terms"

    @pytest.mark.parametrize("names, error, message", [
        ((("a",), ("b", "a")), ValueError,
         "duplicate coefficient name 'a': name 1 of coefficient row 1"),
        ((("a",), ("b", "")), TypeError,
         "name 1 of coefficient row 1 must be a nonempty string, got ''"),
    ])
    def test_bad_names(self, names, error, message):
        with pytest.raises(error) as err:
            ParametricCoefficients(names)
        assert str(err.value) == message

    @pytest.mark.parametrize("value, error, message", [
        (0, ValueError, "value 1 of coefficient row 1 must be strictly positive, got 0"),
        (Fraction(-2, 3), ValueError,
         "value 1 of coefficient row 1 must be strictly positive, got -2/3"),
        (0.5, TypeError,
         "value 1 of coefficient row 1 must not be a float (exact rationals only): 0.5"),
    ])
    def test_bad_values(self, value, error, message):
        with pytest.raises(error) as err:
            ConcreteCoefficients(((1,), (2, value)))
        assert str(err.value) == message


def assert_one_coefficient_per_term(system):
    rows = system.c.names if system.is_parametric else system.c.values
    assert list(map(len, rows)) == list(map(len, system.s.entries))
    assert None not in chain.from_iterable(rows)


class TestCoefficientPresence:
    """A coefficient row of either kind holds one coefficient per term of its sign row."""

    @pytest.mark.parametrize("name", sorted(path.name for path in DATA.glob("*.spp")))
    def test_data_files(self, name):
        assert_one_coefficient_per_term(load(name))

    @pytest.mark.parametrize("name, coeffs", [
        ("certify_head_42.spp", "certify_head_42.coeffs"),
        ("example2.spp", "example2_ones.coeffs"),
        ("intro_f.spp", "intro_ones.coeffs"),
        ("intro_g.spp", "intro_ones.coeffs"),
    ])
    def test_instantiated_data_files(self, name, coeffs):
        bindings = parse_coefficient_bindings(read_data(coeffs))
        assert_one_coefficient_per_term(instantiate(load(name), bindings))

    def test_gensys_systems(self):
        rng = random.Random(27)
        zeros = {True: 0, False: 0}
        for index in range(200):
            parametric = index % 2 == 0
            system = random_signed_system(rng, parametric=parametric, integer_coeffs=index % 4 == 1)
            assert system.is_parametric == parametric
            assert_one_coefficient_per_term(system)
            zeros[parametric] += sum(system.v - len(row) for row in system.s.entries)
        assert min(zeros.values()) > 100


class TestSparseStorage:
    """A system stores each row's terms and nothing for the columns a row leaves out."""

    def assert_rows_hold_terms(self, system, nonzero: int):
        assert sum(map(len, system.s.entries)) == nonzero
        for row in system.s.entries:
            columns = [j for j, _ in row]
            assert all(a < b for a, b in zip(columns, columns[1:])), columns
            assert {sign for _, sign in row} <= {-1, 1}
        assert_one_coefficient_per_term(system)
        assert_constructors_agree(system)

    def test_generated_parametric_system(self):
        rng = random.Random(28)
        exps = random_exponent_rows(rng, 100, 4, 9)
        signs = [[0] * len(exps) for _ in range(20)]
        for row in signs:
            for j in rng.sample(range(len(exps)), 100 if rng.random() < 0.5 else 60):
                row[j] = rng.choice((-1, 1))
        system = parse_system(print_system(template_system(signs, exps)))
        nonzero = sum(x != 0 for row in signs for x in row)
        assert system.u == 20 and system.v == 100 and nonzero < system.u * system.v
        self.assert_rows_hold_terms(system, nonzero)

    def test_zero_row(self):
        system = load("zero_row.spp")
        self.assert_rows_hold_terms(system, 0)
        assert system.s.entries == ((),) and system.v == 1
        assert zero_sign_rows(system) == (0,)

    def test_cancelled_column_keeps_its_exponent_row(self):
        # x*y cancels in g and appears in no other row; it keeps its column
        system = parse_system("vars x y\npoly f = 2*x - y + 3\npoly g = x*y - x*y + 1/2*x\n")
        assert system.e.entries == ((1, 0), (0, 1), (0, 0), (1, 1))
        self.assert_rows_hold_terms(system, 4)
        assert all(j != 3 for row in system.s.entries for j, _ in row)
        assert system.s.entries == (((0, 1), (1, -1), (2, 1)), ((0, 1),))
        assert zero_sign_rows(system) == ()


class TestDominanceRows:
    """``dominance_rows`` gives each row's positive and negative monomial indices."""

    def test_example2_row_one(self):
        system = load("example2.spp")
        # monomial columns in first-occurrence order:
        # 0: x1^5, 1: x1^2 x2, 2: x1^2, 3: x2^2, 4: x2^3
        assert next(dominance_rows(system)) == (0, [1, 3], [0, 2])

    def test_all_zero_row_has_empty_supports(self):
        system = load("zero_row.spp")
        assert list(dominance_rows(system)) == []
        assert zero_sign_rows(system) == (0,)

    def test_intro_f(self):
        system = load("intro_f.spp")
        # x^2 and the constant monomial are positive, x is negative
        assert list(dominance_rows(system)) == [(0, [0, 2], [1])]

    def test_support_sizes_count_nonzero_signs(self):
        # every row with a negative sign is given, in index order, with its nonzero
        # signs split by sign in increasing index order; the other rows are skipped
        rng = random.Random(7)
        for _ in range(50):
            system = random_signed_system(rng, parametric=rng.random() < 0.5)
            given_rows = {i: (positive, negative) for i, positive, negative in dominance_rows(system)}
            assert list(given_rows) == sorted(given_rows)
            for i, row in enumerate(dense_signs(system)):
                if i not in given_rows:
                    assert min(row) >= 0
                    continue
                positive, negative = given_rows[i]
                assert positive == [j for j, x in enumerate(row) if x > 0]
                assert negative == [j for j, x in enumerate(row) if x < 0] != []


def value_instances() -> list:
    """One freshly built instance of each value type, from example2, example3 and intro_f_ones.

    example3's decision carries a refutation tree of four leaves.
    """
    system = load("example2.spp")
    concrete = load("intro_f_ones.spp")
    condition = build_cnf(system)
    decision = decide_system(system)
    witness = symbolic_t(system, decision.n)
    return [
        system, system.s, system.e, system.c, concrete.c,
        condition, condition.clauses[0], condition.clauses[0].literals[0],
        decision, decide_system(load("example3.spp")), witness,
        verify_witness(concrete, decide_system(concrete).n),
    ]


class TestValueConstructor:
    """``_Value.__init__`` takes exactly one value per field, with no defaults."""

    def test_decision_needs_all_four_fields(self):
        assert Decision("sat", (1,), None, None).refutation is None
        for fields in [("sat", (1,), None), ("sat", (1,), None, None, None), ()]:
            with pytest.raises(TypeError, match=f"Decision takes 4 fields, got {len(fields)}$"):
                Decision(*fields)


class TestValueTypes:
    """The value types behave as frozen records: by their fields, and never reassigned."""

    def test_every_value_type_is_covered(self):
        assert {type(x) for x in value_instances()} == set(_Value.__subclasses__())
        assert len(_Value.__subclasses__()) == 11

    def test_equal_values_are_equal_and_hash_equal(self):
        for a, b in zip(value_instances(), value_instances()):
            assert a is not b
            assert a == b and not a != b, type(a).__name__
            assert hash(a) == hash(b), type(a).__name__
            assert len({a, b}) == 1
            # unlike a namedtuple, a value is not equal to the tuple of its fields
            assert a != tuple(getattr(a, name) for name in a.__slots__)
        assert load("example2.spp") != load("example3.spp")
        assert SignMatrix((((0, 1), (1, -1)),), 2) != ExponentMatrix(((1, 1),))

    def test_assigning_or_deleting_a_field_raises(self):
        for value in value_instances():
            for name in value.__slots__:
                before = getattr(value, name)
                with pytest.raises(AttributeError):
                    setattr(value, name, None)
                with pytest.raises(AttributeError):
                    delattr(value, name)
                assert getattr(value, name) is before
            with pytest.raises(AttributeError):
                value.extra = 1

    def test_repr_names_the_fields(self):
        assert repr(SignMatrix((((0, 1), (1, -1)),), 2)) == (
            "SignMatrix(entries=(((0, 1), (1, -1)),), cols=2)"
        )
        assert repr(ConcreteCoefficients(((1,),))) == (
            "ConcreteCoefficients(values=((Fraction(1, 1),),))"
        )
        decision = decide_system(load("example2.spp"))
        assert repr(decision) == (
            "Decision(status='sat', n=(-5, -4), zero_row=None, refutation=None)"
        )
        assert repr(decide_system(load("intro_g.spp"))) == (
            "Decision(status='unsat', n=None, zero_row=None, "
            "refutation=(0, (((1, (-1,)), (1, (1,))),)))"
        )
        for value in value_instances():
            text = repr(value)
            assert text.startswith(type(value).__name__ + "(")
            for name in value.__slots__:
                assert f"{name}={getattr(value, name)!r}" in text

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                        reason="this Python has no int-to-text digit limit")
    def test_repr_of_a_long_value_needs_the_digit_limit_lifted(self):
        # the two terms merge into one value of 4301 digits; repr turns it into text
        # under CPython's 4300-digit limit, which README leaves to the caller to lift
        system = parse_system("vars x\npoly f = " + "9" * 4300 + "*x + " + "9" * 4300 + "*x\n")
        with pytest.raises(ValueError):
            repr(system)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            value = str(2 * (10**4300 - 1))
            assert len(value) == 4301
            assert f"values=((Fraction({value}, 1),),)" in repr(system)
        finally:
            sys.set_int_max_str_digits(limit)

    def test_copies_and_pickles_are_equal(self):
        for value in value_instances():
            assert copy.copy(value) == value
            assert copy.deepcopy(value) == value
            assert pickle.loads(pickle.dumps(value)) == value
