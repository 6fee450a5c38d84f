import copy
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from subtrop import SignedSystem
from subtrop import decide_system, symbolic_t, verify_witness
from subtrop.core import (
    ConcreteCoefficients,
    ExponentMatrix,
    ParametricCoefficients,
    SignMatrix,
    _Value,
    zero_sign_rows,
)
from subtrop.condition import build_cnf, dominance_rows

from conftest import load
from gensys import random_signed_system

nonzero_fractions = st.fractions().filter(lambda x: x != 0)


class TestRational:
    def test_canonical_form(self):
        x = Fraction(6, -4)
        assert x.numerator == -3
        assert x.denominator == 2

    @given(nonzero_fractions, nonzero_fractions)
    def test_reciprocal_product_is_one(self, a, b):
        assert (a / b) * (b / a) == 1

    @given(st.fractions(), st.fractions())
    def test_order_matches_subtraction_sign(self, a, b):
        diff = a - b
        assert (a < b) == (diff < 0)
        assert (a == b) == (diff == 0)
        assert (a > b) == (diff > 0)

    @given(st.fractions(), st.fractions(), st.integers(min_value=0, max_value=12))
    def test_arithmetic_is_exact(self, a, b, e):
        assert a + b - b == a
        if b != 0:
            assert (a * b) / b == a
        assert a**e == Fraction(a.numerator**e, a.denominator**e)


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
        with pytest.raises(ValueError, match="sign entries"):
            SignMatrix(((2, 0),))

    def test_rows_must_match_cols_and_hold_ints(self):
        for matrix in (ExponentMatrix, SignMatrix):
            with pytest.raises(ValueError, match="entries, expected 2"):
                matrix(((1, 0), (1,)))
            with pytest.raises(ValueError, match="entries, expected 3"):
                matrix(((1, 0),), cols=3)
            with pytest.raises(TypeError, match="must be an int"):
                matrix(((1, True),))
            with pytest.raises(TypeError, match="must be an int"):
                matrix(((1, 1.0),))
            with pytest.raises(ValueError, match="cols is required"):
                matrix(())
            assert matrix((), cols=2).cols == 2

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
        s = SignMatrix(((1, -1),))
        e = ExponentMatrix(((2,), (1,)), cols=1)
        c = ConcreteCoefficients(((1, 1),))
        SignedSystem(s, e, c, ("x",))
        with pytest.raises(ValueError):
            SignedSystem(s, ExponentMatrix(((2,),), cols=1), c, ("x",))
        with pytest.raises(ValueError):
            SignedSystem(s, e, c, ("x", "y"))

    def test_placeholder_one_enforced_at_zero_signs(self):
        s = SignMatrix(((1, 0),))
        e = ExponentMatrix(((2,), (1,)), cols=1)
        with pytest.raises(ValueError, match="placeholder"):
            SignedSystem(s, e, ConcreteCoefficients(((1, 2),)), ("x",))

    def test_parametric_name_exactly_at_nonzero_signs(self):
        s = SignMatrix(((1, 0),))
        e = ExponentMatrix(((2,), (1,)), cols=1)
        with pytest.raises(ValueError, match="iff the sign is nonzero"):
            SignedSystem(s, e, ParametricCoefficients((("a", "b"),)), ("x",))
        system = SignedSystem(s, e, ParametricCoefficients((("a", None),)), ("x",))
        assert system.coefficient_name(0, 0) == "a"

    def test_int_subclass_entries_are_accepted(self):
        class Small(int):
            pass

        assert SignMatrix(((Small(1), 0, Small(-1)),)).entries == ((1, 0, -1),)
        assert ExponentMatrix(((Small(2), 0),)).entries == ((2, 0),)

    def test_non_int_entries_are_named_in_the_message(self):
        for matrix, what in ((ExponentMatrix, "exponent"), (SignMatrix, "sign")):
            for bad in (True, 1.0):
                with pytest.raises(TypeError) as err:
                    matrix(((1, 0), (0, bad)))
                assert str(err.value) == f"{what} must be an int, got {bad!r}"

    def test_sign_error_names_the_first_bad_entry(self):
        with pytest.raises(ValueError) as err:
            SignMatrix(((1, -1, 0), (0, 2, 3)))
        assert str(err.value) == "sign entries must be -1, 0 or 1, got 2"

    def test_coefficient_errors_name_their_position(self):
        s = SignMatrix(((1, -1, 0), (1, 0, -1)))
        e = ExponentMatrix(((2,), (1,), (0,)), cols=1)
        one = Fraction(1)
        with pytest.raises(ValueError) as err:
            SignedSystem(s, e, ConcreteCoefficients(((1, 2, 1), (3, 5, 1))), ("x",))
        assert str(err.value) == "zero-sign position (1, 1) must hold the placeholder 1, got 5"
        SignedSystem(s, e, ConcreteCoefficients(((1, 2, one), (3, one, 1))), ("x",))
        missing = ParametricCoefficients((("a", "b", None), ("c", None, None)))
        extra = ParametricCoefficients((("a", "b", None), ("c", "d", "e")))
        for names, where in ((missing, "(1, 2)"), (extra, "(1, 1)")):
            with pytest.raises(ValueError) as err:
                SignedSystem(s, e, names, ("x",))
            assert str(err.value) == (
                f"coefficient name at {where} must be present iff the sign is nonzero"
            )


class TestRowSupports:
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
            for i, row in enumerate(system.s.entries):
                if i not in given_rows:
                    assert min(row) >= 0
                    continue
                positive, negative = given_rows[i]
                assert positive == [j for j, x in enumerate(row) if x > 0]
                assert negative == [j for j, x in enumerate(row) if x < 0] != []


def value_instances() -> list:
    """One freshly built instance of each value type, from example2 and intro_f_ones."""
    system = load("example2.spp")
    concrete = load("intro_f_ones.spp")
    condition = build_cnf(system)
    decision = decide_system(system)
    witness = symbolic_t(system, decision.n)
    return [
        system, system.s, system.e, system.c, concrete.c,
        condition, condition.clauses[0], condition.clauses[0].literals[0],
        decision, witness, witness.terms[0],
        verify_witness(concrete, decide_system(concrete).n),
    ]


class TestValueTypes:
    """The value types behave as frozen records: by their fields, and never reassigned."""

    def test_every_value_type_is_covered(self):
        assert {type(x) for x in value_instances()} == set(_Value.__subclasses__())
        assert len(_Value.__subclasses__()) == 12

    def test_equal_values_are_equal_and_hash_equal(self):
        for a, b in zip(value_instances(), value_instances()):
            assert a is not b
            assert a == b and not a != b, type(a).__name__
            assert hash(a) == hash(b), type(a).__name__
            assert len({a, b}) == 1
            # unlike a namedtuple, a value is not equal to the tuple of its fields
            assert a != tuple(getattr(a, name) for name in a.__slots__)
        assert load("example2.spp") != load("example3.spp")
        assert SignMatrix(((1, -1),)) != ExponentMatrix(((1, 1),))

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
        assert repr(SignMatrix(((1, -1),))) == "SignMatrix(entries=((1, -1),), cols=2)"
        assert repr(ConcreteCoefficients(((1,),))) == (
            "ConcreteCoefficients(values=((Fraction(1, 1),),))"
        )
        decision = decide_system(load("example2.spp"))
        assert repr(decision) == "Decision(status='sat', n=(-5, -4), zero_row=None)"
        for value in value_instances():
            text = repr(value)
            assert text.startswith(type(value).__name__ + "(")
            for name in value.__slots__:
                assert f"{name}={getattr(value, name)!r}" in text

    def test_copies_and_pickles_are_equal(self):
        for value in value_instances():
            assert copy.copy(value) == value
            assert copy.deepcopy(value) == value
            assert pickle.loads(pickle.dumps(value)) == value
