import random
from fractions import Fraction

import pytest

from subtrop import ParseError, parse_system, print_system

from conftest import load, read_data
from gensys import random_signed_system

# Matrices as printed in the worked three-polynomial example; our parser
# orders monomial columns by first occurrence in the text, which is a column
# permutation of these.
SEC2_PRINTED_S = ((1, 0, -1), (0, -1, 1), (-1, 1, 0))
SEC2_PRINTED_C = ((2, 1, 4), (1, 3, 6), (1, 5, 1))
SEC2_PRINTED_E = ((2, 1), (1, 2), (3, 0))

EX2_PRINTED_S = ((-1, 1, -1, 0, 1), (1, 1, 1, -1, 0))
EX2_PRINTED_E = ((5, 0), (2, 1), (2, 0), (0, 3), (0, 2))


def column_triples(s_rows, e_rows, c_rows=None):
    """Unordered view of a system: one (exponent, sign column, coeff column) per monomial."""
    v = len(e_rows)
    out = set()
    for j in range(v):
        signs = tuple(row[j] for row in s_rows)
        coeffs = tuple(row[j] for row in c_rows) if c_rows is not None else None
        out.add((tuple(e_rows[j]), signs, coeffs))
    return out


class TestGoldenParses:
    def test_three_poly_example_matrices(self):
        system = load("sec2.spp")
        assert system.var_names == ("x1", "x2")
        # first-occurrence column order: x1^2 x2, x1^3, x1 x2^2
        assert system.e.entries == ((2, 1), (3, 0), (1, 2))
        assert system.s.entries == ((1, -1, 0), (0, 1, -1), (-1, 0, 1))
        assert system.c.values == (
            (Fraction(2), Fraction(4), Fraction(1)),
            (Fraction(1), Fraction(6), Fraction(3)),
            (Fraction(1), Fraction(1), Fraction(5)),
        )
        # same system as the printed matrices, up to the column permutation
        assert column_triples(system.s.entries, system.e.entries, system.c.values) == (
            column_triples(
                SEC2_PRINTED_S,
                SEC2_PRINTED_E,
                tuple(tuple(Fraction(x) for x in row) for row in SEC2_PRINTED_C),
            )
        )

    def test_example2_matrices(self):
        system = load("example2.spp")
        assert system.is_parametric
        assert system.e.entries == ((5, 0), (2, 1), (2, 0), (0, 2), (0, 3))
        assert system.s.entries == ((-1, 1, -1, 1, 0), (1, 1, 1, 0, -1))
        assert system.c.names == (
            ("c11", "c12", "c13", "c15", None),
            ("c21", "c22", "c23", None, "c24"),
        )
        assert column_triples(system.s.entries, system.e.entries) == column_triples(
            EX2_PRINTED_S, EX2_PRINTED_E
        )

    def test_cancellation_keeps_the_zero_column(self):
        system = parse_system("vars x1\npoly g = x1 - x1\n")
        assert system.s.entries == ((0,),)
        assert system.c.values == ((Fraction(1),),)
        assert system.e.entries == ((1,),)

    def test_concrete_terms_with_equal_monomials_are_summed(self):
        system = parse_system("vars x\npoly f = 2*x - 5*x + x + 1/2*x^2\n")
        assert system.s.entries == ((-1, 1),)
        assert system.c.values == ((Fraction(2), Fraction(1, 2)),)

    def test_repeated_variable_factors_multiply(self):
        system = parse_system("vars x\npoly f = x*x + x^2*x\n")
        assert system.e.entries == ((2,), (3,))

    def test_bare_coefficient_is_a_constant_term(self):
        system = parse_system("vars x\npoly f = 7/2\n")
        assert system.e.entries == ((0,),)
        assert system.c.values == ((Fraction(7, 2),),)

    def test_unweighted_concrete_term_gets_one(self):
        system = parse_system("vars x y\npoly f = x*y\n")
        assert system.c.values == ((Fraction(1),),)


class TestParseErrors:
    def test_syntax_error_reports_position(self):
        with pytest.raises(ParseError) as err:
            parse_system("vars x\npoly f = x + * 2\n")
        assert "line 2" in str(err.value)
        assert err.value.line == 2

    def test_missing_header(self):
        with pytest.raises(ParseError, match="vars"):
            parse_system("poly f = x\n")
        with pytest.raises(ParseError, match="vars"):
            parse_system("   \n# only a comment\n")

    def test_duplicate_variable(self):
        with pytest.raises(ParseError, match="duplicate variable"):
            parse_system("vars x x\npoly f = x\n")

    def test_duplicate_parametric_coefficient_name(self):
        with pytest.raises(ParseError, match="duplicate parametric coefficient"):
            parse_system("vars x\npoly f = a*x + a*x^2\n")

    def test_duplicate_monomial_in_parametric_polynomial(self):
        with pytest.raises(ParseError, match="duplicate monomial"):
            parse_system("vars x\npoly f = a*x + b*x\n")

    def test_negative_exponent(self):
        with pytest.raises(ParseError, match="negative exponent"):
            parse_system("vars x\npoly f = x^-1\n")

    def test_zero_coefficient(self):
        with pytest.raises(ParseError, match="positive"):
            parse_system("vars x\npoly f = 0*x\n")
        with pytest.raises(ParseError, match="positive"):
            parse_system("vars x\npoly f = 0/3*x\n")

    def test_zero_denominator(self):
        with pytest.raises(ParseError, match="zero denominator"):
            parse_system("vars x\npoly f = 1/0*x\n")

    def test_mixed_modes(self):
        with pytest.raises(ParseError, match="mix"):
            parse_system("vars x\npoly f = 2*x + a*x^2\n")
        with pytest.raises(ParseError, match="mix"):
            parse_system("vars x\npoly f = a*x + 2*x^2\n")

    def test_bare_term_in_parametric_file(self):
        with pytest.raises(ParseError, match="named coefficient"):
            parse_system("vars x\npoly f = a*x + x^2\n")

    def test_unknown_variable_after_coefficient(self):
        with pytest.raises(ParseError, match="unknown variable"):
            parse_system("vars x\npoly f = a*y\n")
        with pytest.raises(ParseError, match="unknown variable"):
            parse_system("vars x\npoly f = x*b\n")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_system("vars x\npoly f = x )\n")


class TestParseErrorPositions:
    """Line and column of a parse error, both 1-based, counted in the raw text."""

    @pytest.mark.parametrize(
        "text, message, line, col",
        [
            ("vars x\npoly f = a*y\n", "unknown variable 'y'", 2, 12),
            ("vars x\npoly f = x^-1\n", "negative exponents", 2, 12),
            ("vars x\npoly f = x + 3/0*x^2\n", "zero denominator", 2, 16),
            ("vars x\n# comment\n\n  poly f = x $ 2\n", "unexpected character '\\$'", 4, 14),
            ("vars x\npoly f x\n", "expected '='", 2, 8),
            ("vars x\npoly f = 2*x\npoly g = x^2 + a*x\n", "cannot mix", 3, 16),
            ("vars x y\npoly f = x*y + + y\n", "expected a term", 2, 16),
            ("vars x\npoly f = x )\n", "unexpected character", 2, 12),
            ("vars x\npoly f = a*x^\u00b2\n", "unexpected character '\u00b2'", 2, 14),
        ],
    )
    def test_position(self, text, message, line, col):
        with pytest.raises(ParseError, match=message) as err:
            parse_system(text)
        assert (err.value.line, err.value.col) == (line, col)
        assert str(err.value).startswith(f"line {line}, column {col}: ")

    @pytest.mark.parametrize(
        "text, message, line, col",
        [
            # the header
            ("   \n# only a comment\n", "missing 'vars' header", 1, 1),
            ("poly f = x\n", "expected 'vars'", 1, 1),
            ("\n 2 x\n", "expected 'vars'", 2, 2),
            ("vars x 2\n", "expected a variable name", 1, 8),
            ("vars x y x\n", "duplicate variable 'x'", 1, 10),
            ("vars # none\npoly f = 1\n", "at least one variable is required", 1, 1),
            # polynomial lines
            ("vars x\nf = x\n", "expected 'poly'", 2, 1),
            ("vars x\n= x\n", "expected 'poly'", 2, 1),
            ("vars x\npoly = x\n", "expected a polynomial name", 2, 6),
            ("vars x\npoly f = x +\n", "expected a term", 2, 13),
            ("vars x\npoly f = x x\n", "expected '+', '-' or end of line", 2, 12),
            ("vars x\npoly f = 2 3\n", "expected '+', '-' or end of line", 2, 12),
            # coefficients
            ("vars x\npoly f = 3/\n", "expected a denominator", 2, 12),
            ("vars x\npoly f = x + 0/3*x^2\n", "coefficient must be positive", 2, 14),
            ("vars x\npoly f = 0\n", "coefficient must be positive", 2, 10),
            # factors
            ("vars x\npoly f = x*2\n", "expected a variable name", 2, 12),
            ("vars x\npoly f = 2*\n", "expected a variable name", 2, 12),
            ("vars x\npoly f = x*b\n", "unknown variable 'b'", 2, 12),
            ("vars x\npoly f = x^y\n", "expected an exponent", 2, 12),
            ("vars x\npoly f = x^\n", "expected an exponent", 2, 12),
            # coefficient modes, names and monomials
            ("vars x\npoly f = a*x\npoly g = 2*x\n",
             "cannot mix numeric and named coefficients in one file", 3, 10),
            ("vars x\npoly f = a*x + x^2\n",
             "every term of a parametric system needs a named coefficient", 2, 16),
            ("vars x\npoly f = a*x\npoly g = b + a*x^2\n",
             "duplicate parametric coefficient name 'a'", 3, 14),
            ("vars x\npoly f = a*x + b*x\n", "duplicate monomial in a parametric polynomial", 2, 16),
            # which error wins: characters in every line, then the header, then
            # syntax line by line, then modes, names and monomials term by term
            ("vars x\npoly f = x + + x\npoly g = x $\n", "unexpected character '$'", 3, 12),
            ("vars x x\npoly f = x $\n", "unexpected character '$'", 2, 12),
            ("vars x x\npoly f = x +\n", "duplicate variable 'x'", 1, 8),
            ("vars x\npoly f = 2*x + a*x^2\npoly g = x x\n",
             "expected '+', '-' or end of line", 3, 12),
            ("vars x\npoly f = a*x + b*x\npoly g = 2*x^3\n",
             "duplicate monomial in a parametric polynomial", 2, 16),
            ("vars x\npoly f = a*x + c*x^2 + x^3\npoly g = a*x\n",
             "every term of a parametric system needs a named coefficient", 2, 24),
        ],
    )
    def test_message(self, text, message, line, col):
        with pytest.raises(ParseError) as err:
            parse_system(text)
        assert str(err.value) == f"line {line}, column {col}: {message}"
        assert (err.value.line, err.value.col) == (line, col)


class TestPrintRoundTrip:
    @pytest.mark.parametrize(
        "name",
        ["sec2.spp", "example2.spp", "example3.spp", "intro_f.spp", "intro_g.spp",
         "intro_f_ones.spp", "zero_row.spp"],
    )
    def test_golden_round_trips(self, name):
        system = load(name)
        assert parse_system(print_system(system)) == system

    def test_example2_round_trip_preserves_names_and_matrices(self):
        system = load("example2.spp")
        again = parse_system(print_system(system))
        assert again.s == system.s
        assert again.e == system.e
        assert again.c.names == system.c.names

    def test_empty_system_prints_header_only(self):
        system = parse_system("vars x1 x2\n")
        assert system.u == 0 and system.v == 0
        assert print_system(system) == "vars x1 x2\n"
        assert parse_system(print_system(system)) == system

    def test_zero_row_round_trip(self):
        system = parse_system("vars x\npoly f = x - x\npoly g = x + 1\n")
        assert system.s.entries == ((0, 0), (1, 1))
        assert parse_system(print_system(system)) == system

    def test_cancelled_column_mentioned_early_round_trips(self):
        # x cancels in row 1 but must still be the first monomial column
        source = "vars x y\npoly f = x - x + y\npoly g = x\n"
        system = parse_system(source)
        assert system.e.entries == ((1, 0), (0, 1))
        assert system.s.entries == ((0, 1), (1, 0))
        assert parse_system(print_system(system)) == system

    def test_trailing_all_zero_column_round_trips(self):
        source = "vars x y\npoly f = y + x - x\n"
        system = parse_system(source)
        assert system.s.entries == ((1, 0),)
        assert parse_system(print_system(system)) == system

    def test_parse_is_deterministic(self):
        source = read_data("example2.spp")
        assert parse_system(source) == parse_system(source)

    def test_random_systems_round_trip(self):
        # printing an arbitrary construction yields an equivalent source whose
        # parse is the canonical form; from there print must be the exact inverse
        rng = random.Random(20240817)
        for _ in range(120):
            raw = random_signed_system(rng, parametric=rng.random() < 0.5, ensure_positive=False)
            system = parse_system(print_system(raw))
            printed = print_system(system)
            assert parse_system(printed) == system, printed
