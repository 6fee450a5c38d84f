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
the sum; a sum of exactly zero leaves no term behind, though its monomial
keeps its column.  Within one parametric polynomial, repeating a monomial
is an error.  A number has at most 4300 digits (``_MAX_DIGITS``).
"""

from __future__ import annotations

import re
from fractions import Fraction

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


# One token per match; its first character tells its kind: an ASCII letter or '_'
# starts an identifier, a digit a number, one of '*^+-=/' is an operator, and any
# other character is unexpected.
_TOKEN_RE = re.compile(r"[A-Za-z_]\w*|[0-9]+|[*^+\-=/]|\S")
_IDENT_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
_DIGITS = frozenset("0123456789")
_TOKEN_START = _IDENT_START | _DIGITS | frozenset("*^+-=/")
# Finds nothing in a line that has no unexpected token.  A line where it finds a
# character may still have none, as identifiers take any word character after
# the first, so that line's tokens are checked one by one.
_MAYBE_UNEXPECTED = re.compile(r"[^\sA-Za-z0-9_*^+\-=/]")
# Ends every line's token list; no match of _TOKEN_RE is a newline.
_END = "\n"
_ONE = Fraction(1)
# The most digits a number may have.  CPython 3.10.7 and later refuse to convert
# a longer digit string to int by default; refusing it here gives every version
# the same ParseError.
_MAX_DIGITS = 4300


def _error(message: str, lineno: int, line: str, index: int) -> ParseError:
    """The error at token ``index`` of ``line``, or at the end of the line past its tokens.

    Columns are found only here, by scanning the line again.
    """
    starts = [match.start() for match in _TOKEN_RE.finditer(line)]
    col = starts[index] + 1 if index < len(starts) else len(line) + 1
    return ParseError(message, lineno, col)


def _number(lineno: int, line: str, tokens: list[str], index: int) -> int:
    """The value of the digit token at ``index``."""
    if len(tokens[index]) > _MAX_DIGITS:
        raise _error(f"number has more than {_MAX_DIGITS} digits", lineno, line, index)
    return int(tokens[index])


def _parse_terms(
    lineno: int, line: str, tokens: list[str], var_index: dict[str, int]
) -> list[tuple]:
    """The terms of one ``poly`` line as ``(sign, value, name, exponents, index)`` tuples.

    ``value`` is the numeric coefficient and ``name`` the named one, None when
    absent, and ``index`` is the position of the term's first token.
    ``tokens`` ends with ``_END``.
    """
    if tokens[0] != "poly":
        raise _error("expected 'poly'", lineno, line, 0)
    if tokens[1][0] not in _IDENT_START:
        raise _error("expected a polynomial name", lineno, line, 1)
    if tokens[2] != "=":
        raise _error("expected '='", lineno, line, 2)
    d = len(var_index)
    terms = []
    sign = 1
    i = 3
    if tokens[i] in ("+", "-"):
        sign = -1 if tokens[i] == "-" else 1
        i += 1
    while True:
        start = i
        token = tokens[i]
        value = name = None
        factors = True
        if token[0] in _DIGITS:
            numerator = _number(lineno, line, tokens, i)
            denominator = 1
            i += 1
            if tokens[i] == "/":
                i += 1
                if tokens[i][0] not in _DIGITS:
                    raise _error("expected a denominator", lineno, line, i)
                denominator = _number(lineno, line, tokens, i)
                if denominator == 0:
                    raise _error("zero denominator", lineno, line, i)
                i += 1
            if numerator == 0:
                raise _error("coefficient must be positive", lineno, line, start)
            value = Fraction(numerator, denominator)
            factors = tokens[i] == "*"
            i += factors
        elif token[0] in _IDENT_START:
            if token not in var_index:
                name = token
                i += 1
                factors = tokens[i] == "*"
                i += factors
        else:
            raise _error("expected a term", lineno, line, start)
        exponents = [0] * d
        while factors:
            token = tokens[i]
            if token[0] not in _IDENT_START:
                raise _error("expected a variable name", lineno, line, i)
            if token not in var_index:
                raise _error(f"unknown variable {token!r}", lineno, line, i)
            exponent = 1
            i += 1
            if tokens[i] == "^":
                i += 1
                if tokens[i] == "-":
                    raise _error("negative exponents are not allowed", lineno, line, i)
                if tokens[i][0] not in _DIGITS:
                    raise _error("expected an exponent", lineno, line, i)
                exponent = _number(lineno, line, tokens, i)
                i += 1
            exponents[var_index[token]] += exponent
            factors = tokens[i] == "*"
            i += factors
        terms.append((sign, value, name, tuple(exponents), start))
        token = tokens[i]
        if token == _END:
            return terms
        if token not in ("+", "-"):
            raise _error("expected '+', '-' or end of line", lineno, line, i)
        sign = -1 if token == "-" else 1
        i += 1


def parse_system(source: str) -> SignedSystem:
    """Parse ``.spp`` text into a :class:`SignedSystem`.

    A well-formed parametric file is read line by line with string
    methods (:func:`_read_parametric`).  Any other text, and every text
    with an error, goes to the token walker (:func:`_walk`), which is the
    only source of :class:`ParseError`.  Both give equal systems on every
    text the first one accepts.
    """
    system = _read_parametric(source)
    return _walk(source) if system is None else system


def _factor(text: str, var_index: dict[str, int]) -> tuple[int, int] | None:
    """``(variable index, exponent)`` of a factor ``x`` or ``x^digits``, or None."""
    name, caret, digits = text.partition("^")
    k = var_index.get(name)
    if k is None or (caret and not (digits.isdigit() and len(digits) <= _MAX_DIGITS)):
        return None
    return k, int(digits) if caret else 1


def _read_parametric(source: str) -> SignedSystem | None:
    """The system of a well-formed parametric ASCII text, or None for any other text.

    Terms are split at ``+`` and ``-``, and factors at ``*``.  Each factor
    text (``x1^5``) is read once per call and kept as ``(variable index,
    exponent)``.  A term is ``[sign] name ['*' factor]*``, with blanks
    allowed only around a sign.  This accepts only texts that the walker
    reads as the same tokens with no error, so both give the same system;
    everything else returns None, including concrete files, files with no
    polynomial, unusual spacing, a repeated name or monomial, and a number
    of more than ``_MAX_DIGITS`` digits.  Each line is read to its rows at
    once, so no line's pieces outlive it.
    """
    if not source.isascii():
        return None  # for ASCII text, str.isidentifier and str.isdigit match the walker's classes
    lines = iter(source.splitlines())
    words = next(filter(None, (raw.partition("#")[0].split() for raw in lines)), ["vars"])
    var_index = dict(zip(words[1:], range(len(words))))
    if (words[0] != "vars" or not var_index or len(var_index) < len(words) - 1
            or not all(map(str.isidentifier, var_index))):
        return None
    d = len(var_index)
    factors: dict[str, tuple[int, int]] = {}
    mono_index: dict[tuple[int, ...], int] = {}
    sign_rows, name_rows = [], []
    seen_names: set[str] = set()
    terms = 0
    for raw in lines:
        head, eq, rhs = raw.partition("#")[0].partition("=")
        words = head.split()
        if not (eq or words):
            continue
        if len(words) != 2 or words[0] != "poly" or not words[1].isidentifier():
            return None
        pieces = rhs.replace("-", "+-").split("+")
        if len(pieces) > 1 and not pieces[0].strip():
            del pieces[0]  # the blank before a leading sign
        signs: dict[int, int] = {}
        names: dict[int, str] = {}
        for piece in pieces:
            body = piece.strip()
            sign = 1
            if body[:1] == "-":
                sign, body = -1, body[1:].lstrip()
            name, *texts = body.split("*")
            if not name.isidentifier() or name in var_index:
                return None
            exponents = [0] * d
            for text in texts:
                factor = factors.get(text)
                if factor is None:
                    factor = factors[text] = _factor(text, var_index)
                    if factor is None:
                        return None
                exponents[factor[0]] += factor[1]
            col = mono_index.setdefault(tuple(exponents), len(mono_index))
            signs[col] = sign
            names[col] = name
        if len(names) < len(pieces):
            return None  # a repeated monomial
        sign_rows.append(signs)
        name_rows.append(names)
        seen_names.update(names.values())
        terms += len(names)
    if not name_rows or len(seen_names) < terms:
        return None
    return _system(sign_rows, name_rows, mono_index, var_index, ParametricCoefficients)


def _system(sign_rows, coefficient_rows, mono_index, var_index, kind) -> SignedSystem:
    """The system whose row i has the terms ``sign_rows[i]``, dicts keyed by column j.

    ``coefficient_rows[i]`` has the same keys, and ``kind`` is
    :class:`ParametricCoefficients` or :class:`ConcreteCoefficients`.  Each
    row keeps only its terms, sorted by column: the pairs ``(j, sign)`` and
    their coefficients, so nothing is built for a column a row leaves out.
    """
    signs, coefficients = [], []
    for sign_row, coefficient_row in zip(sign_rows, coefficient_rows):
        columns = sorted(sign_row)
        signs.append(tuple(zip(columns, map(sign_row.__getitem__, columns))))
        coefficients.append(tuple(map(coefficient_row.__getitem__, columns)))
    return SignedSystem(
        SignMatrix(signs, len(mono_index)),
        ExponentMatrix(tuple(mono_index), cols=len(var_index)),
        kind(coefficients),
        tuple(var_index),
    )


def _walk(source: str) -> SignedSystem:
    """Parse ``.spp`` text token by token; raises :class:`ParseError` at the first error.

    Each line is split into tokens by one regex call and walked by index.
    When a file has several errors, the first unexpected character of any
    line wins, then a header error, then the first syntax error line by
    line, then coefficient-mode, name and monomial errors term by term.
    """
    lines = []
    for lineno, raw in enumerate(source.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        tokens = _TOKEN_RE.findall(line)
        if not tokens:
            continue
        if _MAYBE_UNEXPECTED.search(line):
            for index, token in enumerate(tokens):
                if token[0] not in _TOKEN_START:
                    raise _error(f"unexpected character {token!r}", lineno, line, index)
        tokens.append(_END)
        lines.append((lineno, line, tokens))
    if not lines:
        raise ParseError("missing 'vars' header", 1, 1)

    lineno, line, tokens = lines[0]
    if tokens[0] != "vars":
        raise _error("expected 'vars'", lineno, line, 0)
    var_index: dict[str, int] = {}
    for index, token in enumerate(tokens[1:-1], start=1):
        if token[0] not in _IDENT_START:
            raise _error("expected a variable name", lineno, line, index)
        if token in var_index:
            raise _error(f"duplicate variable {token!r}", lineno, line, index)
        var_index[token] = len(var_index)
    if not var_index:
        raise _error("at least one variable is required", lineno, line, 0)

    polys = [
        (lineno, line, _parse_terms(lineno, line, tokens, var_index))
        for lineno, line, tokens in lines[1:]
    ]

    parametric = next(
        (name is not None for _, _, terms in polys for _, value, name, _, _ in terms
         if name is not None or value is not None),
        False,
    )

    mono_index: dict[tuple[int, ...], int] = {}
    if parametric:
        seen_names: set[str] = set()
        sign_rows: list[dict[int, int]] = []
        name_rows: list[dict[int, str]] = []
        for lineno, line, terms in polys:
            signs: dict[int, int] = {}
            names: dict[int, str] = {}
            for sign, value, name, exponents, index in terms:
                if value is not None:
                    raise _error(
                        "cannot mix numeric and named coefficients in one file",
                        lineno, line, index,
                    )
                if name is None:
                    raise _error(
                        "every term of a parametric system needs a named coefficient",
                        lineno, line, index,
                    )
                if name in seen_names:
                    raise _error(
                        f"duplicate parametric coefficient name {name!r}", lineno, line, index
                    )
                seen_names.add(name)
                col = mono_index.setdefault(exponents, len(mono_index))
                if col in signs:
                    raise _error(
                        "duplicate monomial in a parametric polynomial", lineno, line, index
                    )
                signs[col] = sign
                names[col] = name
            sign_rows.append(signs)
            name_rows.append(names)
        return _system(sign_rows, name_rows, mono_index, var_index, ParametricCoefficients)
    sign_rows, value_rows = [], []
    for lineno, line, terms in polys:
        sums: dict[int, Fraction] = {}
        for sign, value, name, exponents, index in terms:
            if name is not None:
                raise _error(
                    "cannot mix numeric and named coefficients in one file",
                    lineno, line, index,
                )
            col = mono_index.setdefault(exponents, len(mono_index))
            sums[col] = sums.get(col, 0) + sign * (_ONE if value is None else value)
        # a column whose terms sum to 0 keeps sign 0 and no value
        sign_rows.append({col: 1 if total > 0 else -1 for col, total in sums.items() if total})
        value_rows.append({col: abs(total) for col, total in sums.items() if total})
    return _system(sign_rows, value_rows, mono_index, var_index, ConcreteCoefficients)


def _monomial_factors(system: SignedSystem, j: int) -> str:
    factors = []
    for name, exponent in zip(system.var_names, system.e.row(j)):
        if exponent == 0:
            continue
        factors.append(name if exponent == 1 else f"{name}^{exponent}")
    return "*".join(factors)


def _term_body(system: SignedSystem, j: int, coefficient) -> str:
    factors = _monomial_factors(system, j)
    if system.is_parametric:
        return f"{coefficient}*{factors}" if factors else coefficient
    if not factors:
        return str(coefficient)
    return factors if coefficient == 1 else f"{coefficient}*{factors}"


def print_system(system: SignedSystem) -> str:
    """Canonical text for a system; re-parsing it reproduces the system exactly.

    Rows are printed in order, each listing its terms by monomial column.
    Monomial columns that would otherwise first appear too late to
    reproduce the original column order (possible after concrete-mode
    cancellations), and rows with no term at all, are represented by a
    canceling ``+ m - m`` pair, which parses back to a zero sign entry.
    """
    lines = ["vars " + " ".join(system.var_names)]
    u, v, rows = system.u, system.v, system.s.entries
    coefficients = system.c.names if system.is_parametric else system.c.values
    inserted: dict[int, set[int]] = {}
    if u and not system.is_parametric:
        # the first row with a term at each column, as each row overwrites the later ones
        first = {j: i for i in range(u - 1, -1, -1) for j, _ in rows[i]}
        required = u  # the least first row over this column and every later one
        for j in range(v - 1, -1, -1):
            required = min(required, first.get(j, u))
            row = min(required, u - 1)
            if row < first.get(j, u):
                inserted.setdefault(row, set()).add(j)
    for i, (terms, row) in enumerate(zip(rows, coefficients)):
        pairs = inserted.get(i, set())
        if not (terms or pairs):
            if system.is_parametric or v == 0:
                raise ValueError(f"row {i} has no printable term")
            pairs = {0}
        pieces: list[tuple[int, int, str]] = []
        for j in pairs:
            body = _monomial_factors(system, j) or "1"
            pieces += [(j, 1, body), (j, -1, body)]
        pieces += [(j, sign, _term_body(system, j, c)) for (j, sign), c in zip(terms, row)]
        pieces.sort(key=lambda piece: piece[0])  # stable: a pair keeps its + before its -
        _, first_sign, first_body = pieces[0]
        text = ("-" if first_sign < 0 else "") + first_body
        for _, sign, body in pieces[1:]:
            text += (" - " if sign < 0 else " + ") + body
        lines.append(f"poly f{i + 1} = {text}")
    return "\n".join(lines) + "\n"
