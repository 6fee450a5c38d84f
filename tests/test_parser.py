import hashlib
import pickle
import random
import sys
from fractions import Fraction

import pytest

from subtrop import ParseError, SignedSystem, parse_system, parser, print_system
from subtrop.core import ConcreteCoefficients, ExponentMatrix, ParametricCoefficients, SignMatrix
from subtrop.parser import parse_coefficient_bindings
from subtrop.witness import instantiate

from conftest import (
    DATA,
    assert_constructors_agree,
    coefficients_by_column,
    dense_signs,
    load,
    read_data,
    rebuild,
)
from gensys import random_signed_system

# Matrices as printed in the worked three-polynomial example; our parser
# orders monomial columns by first occurrence in the text, which is a column
# permutation of these.
SEC2_PRINTED_S = ((1, 0, -1), (0, -1, 1), (-1, 1, 0))
# The printed coefficient matrix shows 1 at the zero signs, where no
# coefficient exists; test_three_poly_example_matrices reads those as None.
SEC2_PRINTED_C = ((2, 1, 4), (1, 3, 6), (1, 5, 1))
SEC2_PRINTED_E = ((2, 1), (1, 2), (3, 0))

EX2_PRINTED_S = ((-1, 1, -1, 0, 1), (1, 1, 1, -1, 0))
EX2_PRINTED_E = ((5, 0), (2, 1), (2, 0), (0, 3), (0, 2))


def dense_coefficients(system):
    """The u x v coefficient grid of ``system``, with None at every column a row has no term at."""
    return tuple(
        tuple(map(coefficients_by_column(system, i).get, range(system.v))) for i in range(system.u)
    )


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
        assert system.s.entries == (((0, 1), (1, -1)), ((1, 1), (2, -1)), ((0, -1), (2, 1)))
        assert dense_signs(system) == ((1, -1, 0), (0, 1, -1), (-1, 0, 1))
        assert system.c.values == (
            (Fraction(2), Fraction(4)),
            (Fraction(6), Fraction(3)),
            (Fraction(1), Fraction(5)),
        )
        assert dense_coefficients(system) == (
            (Fraction(2), Fraction(4), None),
            (None, Fraction(6), Fraction(3)),
            (Fraction(1), None, Fraction(5)),
        )
        # same system as the printed matrices, up to the column permutation
        assert column_triples(dense_signs(system), system.e.entries,
                              dense_coefficients(system)) == (
            column_triples(
                SEC2_PRINTED_S,
                SEC2_PRINTED_E,
                tuple(
                    tuple(Fraction(x) if sign else None for x, sign in zip(row, signs))
                    for row, signs in zip(SEC2_PRINTED_C, SEC2_PRINTED_S)
                ),
            )
        )

    def test_example2_matrices(self):
        system = load("example2.spp")
        assert system.is_parametric
        assert system.e.entries == ((5, 0), (2, 1), (2, 0), (0, 2), (0, 3))
        assert system.s.entries == (
            ((0, -1), (1, 1), (2, -1), (3, 1)),
            ((0, 1), (1, 1), (2, 1), (4, -1)),
        )
        assert dense_signs(system) == ((-1, 1, -1, 1, 0), (1, 1, 1, 0, -1))
        assert system.c.names == (("c11", "c12", "c13", "c15"), ("c21", "c22", "c23", "c24"))
        assert dense_coefficients(system) == (
            ("c11", "c12", "c13", "c15", None),
            ("c21", "c22", "c23", None, "c24"),
        )
        assert column_triples(dense_signs(system), system.e.entries) == column_triples(
            EX2_PRINTED_S, EX2_PRINTED_E
        )

    def test_cancellation_keeps_the_zero_column(self):
        system = parse_system("vars x1\npoly g = x1 - x1\n")
        assert system.s.entries == ((),)
        assert system.c.values == ((),)
        assert system.v == 1
        assert system.e.entries == ((1,),)

    def test_concrete_terms_with_equal_monomials_are_summed(self):
        system = parse_system("vars x\npoly f = 2*x - 5*x + x + 1/2*x^2\n")
        assert system.s.entries == (((0, -1), (1, 1)),)
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


class TestNumberLength:
    """A number has at most 4300 digits; a longer one is a ParseError that does not echo it."""

    @pytest.mark.parametrize(
        "template, col",
        [
            ("vars x\npoly f = x^{} - 1\n", 12),
            ("vars x\npoly f = {}*x - 1\n", 10),
            ("vars x\npoly f = x - 1/{}\n", 16),
            ("vars x\npoly f = a*x - b*x^{}\n", 20),
        ],
        ids=["exponent", "numerator", "denominator", "parametric-exponent"],
    )
    def test_longer_number_is_a_parse_error(self, template, col):
        for digits in ("9" * 4301, "0" * 4300 + "1", "7" * 5000):
            with pytest.raises(ParseError) as err:
                parse_system(template.format(digits))
            assert str(err.value) == f"line 2, column {col}: number has more than 4300 digits"
        # refused by length, so an interpreter without the int conversion limit agrees
        if hasattr(sys, "set_int_max_str_digits"):
            limit = sys.get_int_max_str_digits()
            sys.set_int_max_str_digits(0)
            try:
                with pytest.raises(ParseError, match="more than 4300 digits"):
                    parse_system(template.format("9" * 4301))
            finally:
                sys.set_int_max_str_digits(limit)

    def test_4300_digits_are_read(self):
        system = parse_system(f"vars x\npoly f = a*x^{'9' * 4300} - b\n")
        assert system.e.entries[0] == (10**4300 - 1,)
        system = parse_system(f"vars x\npoly f = {'9' * 4300}/{'7' * 4300}*x - 1\n")
        assert system.c.values[0][0] == Fraction(10**4300 - 1, (10**4300 - 1) // 9 * 7)

    def test_values_file(self):
        for value in ("9" * 4301, "1/" + "3" * 4301, "0" * 4301 + "/2"):
            with pytest.raises(ParseError) as err:
                parse_coefficient_bindings(f"a = 1\nb = {value}\n")
            assert str(err.value) == (
                "line 2, column 1: value for 'b' has a number of more than 4300 digits"
            )
        assert parse_coefficient_bindings(f"b = {'9' * 4300}\n") == {"b": 10**4300 - 1}


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
        assert system.s.entries == ((), ((0, 1), (1, 1)))
        assert parse_system(print_system(system)) == system

    def test_cancelled_column_mentioned_early_round_trips(self):
        # x cancels in row 1 but must still be the first monomial column
        source = "vars x y\npoly f = x - x + y\npoly g = x\n"
        system = parse_system(source)
        assert system.e.entries == ((1, 0), (0, 1))
        assert system.s.entries == (((1, 1),), ((0, 1),))
        assert parse_system(print_system(system)) == system

    def test_trailing_all_zero_column_round_trips(self):
        source = "vars x y\npoly f = y + x - x\n"
        system = parse_system(source)
        assert system.s.entries == (((0, 1),),)
        assert system.v == 2
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


def _frontend_text(rng: random.Random) -> str:
    """A small parametric text in the benchmark's layout: ``+ c1_1*x1^2*x3 - c1_2*x2``."""
    d = rng.randint(1, 4)
    lines = ["vars " + " ".join(f"x{k + 1}" for k in range(d))]
    for i in range(rng.randint(1, 3)):
        terms = []
        monomials = {tuple(rng.randint(0, 3) for _ in range(d)) for _ in range(4)}
        for j, exponents in enumerate(monomials):
            factors = [f"x{k + 1}" if e == 1 else f"x{k + 1}^{e}"
                       for k, e in enumerate(exponents) if e]
            body = "*".join([f"c{i + 1}_{j + 1}", *factors])
            terms.append(rng.choice("+-") + " " + body)
        lines.append(f"poly f{i + 1} = " + " ".join(terms))
    return "\n".join(lines) + "\n"


# What a mutation inserts or puts in place of a character.
_PIECES = (
    "poly", "vars", "*", "^", "+", "-", "=", "/", "#", " ", "\t", "\n", "é", "²",
    "0", "1", "2", "7", "10", "x", "x1", "c", "_", "a1", "9" * 4301,
)


def _mutate(rng: random.Random, text: str) -> str:
    """``text`` after one to three edits: a piece inserted, a character deleted or replaced."""
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(len(text) + 1)
        kind = rng.randrange(3)
        piece = "" if kind == 1 else rng.choice(_PIECES)
        text = text[:at] + piece + text[at + (kind != 0):]
    return text


def _outcome(parse, text):
    try:
        return parse(text)
    except ParseError as exc:
        return str(exc), exc.line, exc.col


_EDGES = (
    "vars x\npoly f =\n", "vars x\npoly f = # a\n", "vars x\npoly f a*x\n",
    "vars x\npoly f = +\n", "vars x\npoly f = -\n", "vars x\npoly f = - - a\n",
    "vars x\npoly f = a +\n", "vars x\npoly f = a - + b\n", "vars x\npoly f = a*\n",
    "vars x\npoly f = a*x^\n", "vars x\npoly f = a**x\n", "vars x\npoly f = a*x^-1\n",
    "vars x\npoly f = a*x^1^2\n", "vars x\npoly f = a * x\n", "vars x\npoly = a\n",
    "vars x\npoly f g = a\n", "vars x\npoly f = a = b\n", "vars x\nvars y\n",
    "vars\npoly f = a\n", "vars x x\npoly f = a\n", "vars x\n", "# only\n",
    "vars x\npoly f = x\n", "vars x\npoly f = a*x - b*x\n", "vars x\npoly f = 2*x\n",
    "vars x\npoly f = a\npoly g = a*x\n", "vars x\n\tpoly\tf\t=\t-a*x\t+b\t\n",
    "vars x y\npoly f = +a*x^0*y - b*y*x^02 + c*x^3*x^4\n",
)


def _seeded_cases() -> list[str]:
    """The edge texts, then 3,000 seeded texts: data files and templates, nine in ten mutated."""
    rng = random.Random(7351)
    names = ("example2.spp", "example3.spp", "sec2.spp", "certify_head_42.spp",
             "intro_f.spp", "zero_row.spp")
    sources = [read_data(name) for name in names]
    sources += [print_system(random_signed_system(rng, parametric=rng.random() < 0.7))
                for _ in range(20)]
    sources += [_frontend_text(rng) for _ in range(20)]
    return list(_EDGES) + [
        _mutate(rng, rng.choice(sources)) if case % 10 else rng.choice(sources)
        for case in range(3000)
    ]


class TestFastPathAgreesWithWalker:
    """``_split_terms`` reads a ``poly`` line as the token walker does, or declines it.

    On every ``poly`` line of the seeded texts whose header parses, it must
    return None or exactly the terms of :func:`parser._parse_terms`, token
    positions left out, where the walker raises no error.  It reads only
    lines in which every term has a named coefficient; numbers, bare
    monomials and constants are left to the walker.
    """

    def test_mutations(self):
        split = 0  # lines the split read
        for text in _seeded_cases():
            lines = [(lineno, raw.partition("#")[0])
                     for lineno, raw in enumerate(text.splitlines(), start=1)
                     if raw.partition("#")[0].strip()]
            try:
                var_names = parse_system(lines[0][1]).var_names if lines else ()
            except ParseError:
                continue
            var_index = {name: k for k, name in enumerate(var_names)}
            factors = {}
            for lineno, line in lines[1:]:
                terms = parser._split_terms(line, var_index, factors)
                if terms is None:
                    continue
                assert terms == parser._parse_terms(lineno, line, var_index)[:4], line
                assert None not in terms[2], line
                split += 1
        # the split reads a good share of the lines, so its reading is under test
        assert split > 2000, split


class TestPinnedOutcomes:
    """Each seeded text parses to the same system, or the same error, byte for byte."""

    def test_outcomes_digest(self):
        outcomes = [_outcome(parse_system, text) for text in _seeded_cases()]
        assert len(outcomes) == 3028
        assert sum(isinstance(outcome, tuple) for outcome in outcomes) == 2339
        digest = hashlib.sha256(repr(outcomes).encode()).hexdigest()
        assert digest == "c44110720e186bf9e36383e32bf261ede35ca039b82da6188c16995dc9f1450d"


class TestParsedSystemsPassTheConstructors:
    """``parse_system`` builds without the constructors' checks, so its output is put to them here."""

    def test_data_files(self):
        paths = sorted(DATA.glob("*.spp"))
        assert len(paths) >= 11
        for path in paths:
            assert_constructors_agree(parse_system(path.read_text(encoding="utf-8")))

    def test_generated_systems(self):
        rng = random.Random(31)
        for parametric in (True, False):
            for index in range(200):
                raw = random_signed_system(rng, parametric=parametric,
                                           integer_coeffs=index % 2 == 0, ensure_positive=False)
                system = parse_system(print_system(raw))
                assert system.is_parametric == parametric
                assert_constructors_agree(system)

    def test_pinned_corpus(self):
        outcomes = [_outcome(parse_system, text) for text in _seeded_cases()]
        systems = [outcome for outcome in outcomes if not isinstance(outcome, tuple)]
        assert len(systems) == 3028 - 2339
        assert {system.is_parametric for system in systems} == {True, False}
        for system in systems:
            assert_constructors_agree(system)


_VALIDATING = (SignMatrix, ExponentMatrix, ParametricCoefficients, ConcreteCoefficients,
               SignedSystem)


@pytest.fixture
def constructor_calls(monkeypatch):
    """The class names of the validating constructors run, one entry per call."""
    calls = []
    for cls in _VALIDATING:
        def counted(self, *args, _init=cls.__init__, **kwargs):
            calls.append(type(self).__name__)
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counted)
    return calls


class TestBuildsWithoutRevalidation:
    """``parse_system`` runs no validating constructor, and what it builds behaves as if it had."""

    @pytest.mark.parametrize("name, kind", [("example2.spp", "ParametricCoefficients"),
                                            ("intro_f_ones.spp", "ConcreteCoefficients")])
    def test_parse_runs_no_validating_constructor(self, constructor_calls, name, kind):
        system = load(name)
        assert constructor_calls == []
        # a pickle round trip goes through the constructors, so the count would see them
        assert pickle.loads(pickle.dumps(system)) == system
        assert sorted(constructor_calls) == sorted(
            ["SignMatrix", "ExponentMatrix", kind, "SignedSystem"])

    def test_instantiate_checks_only_the_values(self, constructor_calls):
        template = load("intro_f.spp")
        system = instantiate(template, {"c0": 1, "c1": Fraction(1, 2), "c2": 3})
        assert constructor_calls == ["ConcreteCoefficients"]
        assert_constructors_agree(system)
        with pytest.raises(ValueError, match="strictly positive"):
            instantiate(template, {"c0": 1, "c1": 0, "c2": 3})

    @pytest.mark.parametrize("name", ["example2.spp", "intro_f_ones.spp", "zero_row.spp"])
    def test_made_values_equal_constructed_ones(self, name):
        made, built = load(name), rebuild(load(name))
        for a, b in [(made, built), (made.s, built.s), (made.e, built.e), (made.c, built.c)]:
            assert a is not b and type(a) is type(b)
            assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
            for field in a.__slots__:
                with pytest.raises(AttributeError):
                    setattr(a, field, None)
                with pytest.raises(AttributeError):
                    delattr(a, field)
