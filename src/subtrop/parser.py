"""Line-oriented text format for polynomial systems (``.spp`` files).

Grammar (``#`` starts a comment, blank lines are ignored)::

    file   :=  header line*
    header :=  'vars' id+
    line   :=  'poly' id '=' ['+'|'-'] term (('+'|'-') term)*
    term   :=  [coeff '*'] factor ('*' factor)*  |  coeff
    factor :=  id ['^' nat]
    coeff  :=  nat ['/' nat]  |  id

An ``id`` factor is a variable when it was declared in the header and a
coefficient name otherwise; only the first factor of a term may be a
coefficient.  ``^1`` may be omitted and a variable absent from a term has
exponent 0.  Whether a file is parametric or concrete is inferred from its
first coefficient token (no coefficient tokens at all means concrete, with
every term weighted 1); mixing named and numeric coefficients is an error.

Parsing normalizes the monomials of all polynomials into one shared
exponent matrix, ordered by first occurrence in the text, which makes
repeated runs produce identical matrices.  Within one concrete polynomial,
terms with equal exponent vectors are summed and the sign is taken from
the sum; a sum of exactly zero leaves a zero sign entry behind.  Within
one parametric polynomial, repeating a monomial is an error.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .core import (
    ConcreteCoefficients,
    ExponentMatrix,
    ParametricCoefficients,
    SignedSystem,
    SignMatrix,
    SubtropError,
)


class ParseError(SubtropError):
    """Syntax or validity error, reported with 1-based line and column."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


class _Token(NamedTuple):
    kind: str  # 'ident', 'number', one of '*^+-=/', or 'end'
    text: str
    line: int
    col: int


_TOKEN_RE = re.compile(r"(?P<ident>[A-Za-z_]\w*)|(?P<number>[0-9]+)|(?P<op>[*^+\-=/])|(?P<bad>\S)")
_ONE = Fraction(1)


def _tokenize(line: str, lineno: int) -> list[_Token]:
    """Tokens of one line, each classified by the ``_TOKEN_RE`` alternative that matched."""
    tokens = []
    for match in _TOKEN_RE.finditer(line):
        kind = match.lastgroup
        text = match.group()
        col = match.start() + 1
        if kind == "op":
            kind = text
        elif kind == "bad":
            raise ParseError(f"unexpected character {text!r}", lineno, col)
        tokens.append(_Token(kind, text, lineno, col))
    tokens.append(_Token("end", "", lineno, len(line) + 1))
    return tokens


class _Cursor:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.index = 0

    def peek(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        token = self.tokens[self.index]
        if token.kind != "end":
            self.index += 1
        return token

    def expect(self, kind: str, what: str) -> _Token:
        token = self.peek()
        if token.kind != kind:
            raise ParseError(f"expected {what}", token.line, token.col)
        return self.advance()


@dataclass
class _RawTerm:
    sign: int
    coeff_value: Fraction | None  # numeric coefficient, if any
    coeff_name: str | None  # named coefficient, if any
    exponents: tuple[int, ...]
    line: int
    col: int


def _parse_coefficient(cursor: _Cursor) -> Fraction:
    token = cursor.expect("number", "a number")
    numerator = int(token.text)
    denominator = 1
    if cursor.peek().kind == "/":
        cursor.advance()
        den_token = cursor.expect("number", "a denominator")
        denominator = int(den_token.text)
        if denominator == 0:
            raise ParseError("zero denominator", den_token.line, den_token.col)
    if numerator == 0:
        raise ParseError("coefficient must be positive", token.line, token.col)
    return Fraction(numerator, denominator)


def _parse_factors(cursor: _Cursor, var_index: dict[str, int], exponents: list[int]):
    while True:
        token = cursor.expect("ident", "a variable name")
        if token.text not in var_index:
            raise ParseError(f"unknown variable {token.text!r}", token.line, token.col)
        exponent = 1
        if cursor.peek().kind == "^":
            cursor.advance()
            nxt = cursor.peek()
            if nxt.kind == "-":
                raise ParseError("negative exponents are not allowed", nxt.line, nxt.col)
            exponent = int(cursor.expect("number", "an exponent").text)
        exponents[var_index[token.text]] += exponent
        if cursor.peek().kind == "*":
            cursor.advance()
        else:
            return


def _parse_term(cursor: _Cursor, sign: int, var_index: dict[str, int]) -> _RawTerm:
    start = cursor.peek()
    exponents = [0] * len(var_index)
    coeff_value: Fraction | None = None
    coeff_name: str | None = None
    if start.kind == "number":
        coeff_value = _parse_coefficient(cursor)
        if cursor.peek().kind == "*":
            cursor.advance()
            _parse_factors(cursor, var_index, exponents)
    elif start.kind == "ident":
        if start.text in var_index:
            _parse_factors(cursor, var_index, exponents)
        else:
            coeff_name = cursor.advance().text
            if cursor.peek().kind == "*":
                cursor.advance()
                _parse_factors(cursor, var_index, exponents)
    else:
        raise ParseError("expected a term", start.line, start.col)
    return _RawTerm(sign, coeff_value, coeff_name, tuple(exponents), start.line, start.col)


def _parse_poly_line(cursor: _Cursor, var_index: dict[str, int]) -> list[_RawTerm]:
    cursor.expect("ident", "a polynomial name")
    cursor.expect("=", "'='")
    terms = []
    sign = 1
    first = cursor.peek()
    if first.kind in ("+", "-"):
        cursor.advance()
        sign = -1 if first.kind == "-" else 1
    while True:
        terms.append(_parse_term(cursor, sign, var_index))
        token = cursor.peek()
        if token.kind == "end":
            return terms
        if token.kind not in ("+", "-"):
            raise ParseError("expected '+', '-' or end of line", token.line, token.col)
        cursor.advance()
        sign = -1 if token.kind == "-" else 1


def _scatter(entries: dict[int, object], fill, v: int) -> tuple:
    """Dense row of length ``v``: ``entries[j]`` at the columns it names, ``fill`` elsewhere."""
    row = [fill] * v
    for j, x in entries.items():
        row[j] = x
    return tuple(row)


def parse_system(source: str) -> SignedSystem:
    """Parse ``.spp`` text into a :class:`SignedSystem`."""
    token_lines = []
    for lineno, raw in enumerate(source.splitlines(), start=1):
        stripped = raw.split("#", 1)[0]
        tokens = _tokenize(stripped, lineno)
        if tokens[0].kind != "end":
            token_lines.append(tokens)
    if not token_lines:
        raise ParseError("missing 'vars' header", 1, 1)

    header = _Cursor(token_lines[0])
    keyword = header.expect("ident", "'vars'")
    if keyword.text != "vars":
        raise ParseError("expected 'vars'", keyword.line, keyword.col)
    var_names: list[str] = []
    while header.peek().kind != "end":
        token = header.expect("ident", "a variable name")
        if token.text in var_names:
            raise ParseError(f"duplicate variable {token.text!r}", token.line, token.col)
        var_names.append(token.text)
    if not var_names:
        raise ParseError("at least one variable is required", keyword.line, keyword.col)
    var_index = {name: index for index, name in enumerate(var_names)}

    polys: list[list[_RawTerm]] = []
    for tokens in token_lines[1:]:
        cursor = _Cursor(tokens)
        keyword = cursor.expect("ident", "'poly'")
        if keyword.text != "poly":
            raise ParseError("expected 'poly'", keyword.line, keyword.col)
        polys.append(_parse_poly_line(cursor, var_index))

    parametric = None
    for terms in polys:
        for term in terms:
            if term.coeff_name is not None:
                parametric = True
            elif term.coeff_value is not None:
                parametric = False
            else:
                continue
            break
        if parametric is not None:
            break
    if parametric is None:
        parametric = False

    mono_index: dict[tuple[int, ...], int] = {}

    def column_of(exponents: tuple[int, ...]) -> int:
        if exponents not in mono_index:
            mono_index[exponents] = len(mono_index)
        return mono_index[exponents]

    if parametric:
        seen_names: set[str] = set()
        sign_rows: list[dict[int, int]] = []
        name_rows: list[dict[int, str]] = []
        for terms in polys:
            signs: dict[int, int] = {}
            names: dict[int, str] = {}
            for term in terms:
                if term.coeff_value is not None:
                    raise ParseError(
                        "cannot mix numeric and named coefficients in one file",
                        term.line,
                        term.col,
                    )
                if term.coeff_name is None:
                    raise ParseError(
                        "every term of a parametric system needs a named coefficient",
                        term.line,
                        term.col,
                    )
                if term.coeff_name in seen_names:
                    raise ParseError(
                        f"duplicate parametric coefficient name {term.coeff_name!r}",
                        term.line,
                        term.col,
                    )
                seen_names.add(term.coeff_name)
                col = column_of(term.exponents)
                if col in signs:
                    raise ParseError(
                        "duplicate monomial in a parametric polynomial", term.line, term.col
                    )
                signs[col] = term.sign
                names[col] = term.coeff_name
            sign_rows.append(signs)
            name_rows.append(names)
        v = len(mono_index)
        s_entries = tuple(_scatter(signs, 0, v) for signs in sign_rows)
        spec = ParametricCoefficients(tuple(_scatter(names, None, v) for names in name_rows))
    else:
        sum_rows: list[dict[int, Fraction]] = []
        for terms in polys:
            sums: dict[int, Fraction] = {}
            for term in terms:
                if term.coeff_name is not None:
                    raise ParseError(
                        "cannot mix numeric and named coefficients in one file",
                        term.line,
                        term.col,
                    )
                value = term.coeff_value if term.coeff_value is not None else _ONE
                col = column_of(term.exponents)
                sums[col] = sums.get(col, Fraction(0)) + term.sign * value
            sum_rows.append(sums)
        v = len(mono_index)
        s_entries = []
        c_values = []
        for sums in sum_rows:
            sign_row = [0] * v
            value_row = [_ONE] * v
            for j, total in sums.items():
                if total > 0:
                    sign_row[j] = 1
                    value_row[j] = total
                elif total < 0:
                    sign_row[j] = -1
                    value_row[j] = -total
            s_entries.append(tuple(sign_row))
            c_values.append(tuple(value_row))
        s_entries = tuple(s_entries)
        spec = ConcreteCoefficients(tuple(c_values))

    monomials = tuple(sorted(mono_index, key=mono_index.get))
    return SignedSystem(
        SignMatrix(s_entries, cols=len(mono_index)),
        ExponentMatrix(monomials, cols=len(var_names)),
        spec,
        tuple(var_names),
    )


def _monomial_factors(system: SignedSystem, j: int) -> str:
    factors = []
    for name, exponent in zip(system.var_names, system.e.row(j)):
        if exponent == 0:
            continue
        factors.append(name if exponent == 1 else f"{name}^{exponent}")
    return "*".join(factors)


def _term_body(system: SignedSystem, i: int, j: int) -> str:
    factors = _monomial_factors(system, j)
    if system.is_parametric:
        name = system.c.names[i][j]
        return f"{name}*{factors}" if factors else name
    value = system.c.values[i][j]
    if not factors:
        return str(value)
    return factors if value == 1 else f"{value}*{factors}"


def print_system(system: SignedSystem) -> str:
    """Canonical text for a system; re-parsing it reproduces the system exactly.

    Rows are printed in order, each listing its nonzero terms by monomial
    column.  Monomial columns that would otherwise first appear too late to
    reproduce the original column order (possible after concrete-mode
    cancellations), and rows with no nonzero term at all, are represented by
    a canceling ``+ m - m`` pair, which parses back to a zero sign entry.
    """
    lines = ["vars " + " ".join(system.var_names)]
    u, v = system.u, system.v
    signs = system.s.entries
    inserted: dict[int, set[int]] = {}
    if u and not system.is_parametric:
        first_nonzero = [
            next((i for i in range(u) if signs[i][j] != 0), u) for j in range(v)
        ]
        required = list(first_nonzero)
        for j in range(v - 2, -1, -1):
            required[j] = min(required[j], required[j + 1])
        for j in range(v):
            row = min(required[j], u - 1)
            if row < first_nonzero[j]:
                inserted.setdefault(row, set()).add(j)
    for i in range(u):
        pairs = inserted.get(i, set())
        cols = sorted({j for j in range(v) if signs[i][j] != 0} | pairs)
        if not cols:
            if system.is_parametric or v == 0:
                raise ValueError(f"row {i} has no printable term")
            cols = [0]
            pairs = {0}
        pieces: list[tuple[int, str]] = []
        for j in cols:
            if j in pairs:
                body = _monomial_factors(system, j) or "1"
                pieces.append((1, body))
                pieces.append((-1, body))
            else:
                pieces.append((signs[i][j], _term_body(system, i, j)))
        first_sign, first_body = pieces[0]
        text = ("-" if first_sign < 0 else "") + first_body
        for sign, body in pieces[1:]:
            text += (" - " if sign < 0 else " + ") + body
        lines.append(f"poly f{i + 1} = {text}")
    return "\n".join(lines) + "\n"
