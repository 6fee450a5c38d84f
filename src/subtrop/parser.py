"""Line-oriented text formats: polynomial systems (``.spp``) and coefficient values.

Grammar of an ``.spp`` file (``#`` starts a comment, blank lines are ignored)::

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

Each ``poly`` line is read on its own.  A line whose every term starts with
a coefficient name is split with string methods (:func:`_split_terms`); a
line the split declines, every concrete one included, is walked token by
token (:func:`_parse_terms`, the grammar's reference and the only source of
syntax errors).  One builder turns the terms into rows.  All polynomials
share one exponent matrix, its monomials ordered by first occurrence in the
text.  Within one concrete polynomial, terms with equal exponent vectors are
summed and the sign is taken from the sum; a sum of exactly zero leaves no
term behind, though its monomial keeps its column.  Within one parametric
polynomial, repeating a monomial is an error.  A number has at most 4300
digits (``_MAX_DIGITS``), in both formats.
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
_ID_RE = re.compile(r"[A-Za-z_]\w*")
_TOKEN_RE = re.compile(_ID_RE.pattern + r"|[0-9]+|[*^+\-=/]|\S")
_IDENT_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
_DIGITS = frozenset("0123456789")
_TOKEN_START = _IDENT_START | _DIGITS | frozenset("*^+-=/")
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


def _parse_terms(lineno: int, line: str, var_index: dict[str, int]) -> tuple:
    """The terms of one ``poly`` line as the lists ``(signs, values, names, monomials, starts)``.

    Term k has sign ``signs[k]``, the numeric coefficient ``values[k]`` and
    the named one ``names[k]`` (None when absent), the exponent tuple
    ``monomials[k]``, and its first token at position ``starts[k]``.
    """
    tokens = _TOKEN_RE.findall(line) + [_END]
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
            return tuple(map(list, zip(*terms)))
        if token not in ("+", "-"):
            raise _error("expected '+', '-' or end of line", lineno, line, i)
        sign = -1 if token == "-" else 1
        i += 1


def _split_terms(line: str, var_index: dict[str, int], factors: dict) -> tuple | None:
    """The first four lists of :func:`_parse_terms` for a ``poly`` line it reads, or None.

    Terms are split at ``+`` and ``-``, and factors at ``*``; ``factors``
    keeps each factor text read so far (``x1^5``) as ``(variable index,
    exponent)``.  Blanks are allowed only around a sign.  Any other line
    returns None: a term without a named coefficient, non-ASCII text, blanks
    inside a term, any error, and an exponent over ``_MAX_DIGITS`` digits.
    """
    head, eq, rhs = line.partition("=")
    words = head.split()
    # for ASCII text, str.isidentifier and str.isdigit match the token classes
    if (not eq or len(words) != 2 or words[0] != "poly" or not words[1].isidentifier()
            or not line.isascii()):
        return None
    pieces = rhs.replace("-", "+-").split("+")
    if len(pieces) > 1 and not pieces[0].strip():
        del pieces[0]  # the blank before a leading sign
    d = len(var_index)
    signs, names, monomials = [], [], []
    for piece in pieces:
        body = piece.strip()
        sign = 1
        if body[:1] == "-":
            sign, body = -1, body[1:].lstrip()
        texts = body.split("*")
        name = texts[0]
        if not name.isidentifier() or name in var_index:
            return None
        del texts[0]
        exponents = [0] * d
        for text in texts:
            factor = factors.get(text)
            if factor is None:
                variable, caret, digits = text.partition("^")
                k = var_index.get(variable)
                if k is None or (caret and not (digits.isdigit() and len(digits) <= _MAX_DIGITS)):
                    return None
                factor = factors[text] = k, int(digits) if caret else 1
            exponents[factor[0]] += factor[1]
        signs.append(sign)
        names.append(name)
        monomials.append(tuple(exponents))
    return signs, [None] * len(names), names, monomials


def parse_system(source: str) -> SignedSystem:
    """Parse ``.spp`` text into a :class:`SignedSystem`, or raise its first :class:`ParseError`.

    When a text has several errors, the first unexpected character of any
    line wins, then a header error, then the first syntax error line by
    line, then coefficient-mode, name and monomial errors term by term.
    """
    lines = []
    for lineno, raw in enumerate(source.splitlines(), start=1):
        line = raw.partition("#")[0]
        if line and not line.isspace():
            lines.append((lineno, line))
    try:
        if not lines:
            raise ParseError("missing 'vars' header", 1, 1)
        lineno, line = lines[0]
        tokens = _TOKEN_RE.findall(line)
        if tokens[0] != "vars":
            raise _error("expected 'vars'", lineno, line, 0)
        var_index: dict[str, int] = {}
        for index, token in enumerate(tokens[1:], start=1):
            if token[0] not in _IDENT_START:
                raise _error("expected a variable name", lineno, line, index)
            if token in var_index:
                raise _error(f"duplicate variable {token!r}", lineno, line, index)
            var_index[token] = len(var_index)
        if not var_index:
            raise _error("at least one variable is required", lineno, line, 0)
        factors: dict[str, tuple[int, int]] = {}
        mono_index: dict[tuple[int, ...], int] = {}
        polys = []
        for lineno, line in lines[1:]:
            terms = _split_terms(line, var_index, factors) or _parse_terms(lineno, line, var_index)
            columns = [mono_index.setdefault(m, len(mono_index)) for m in terms[3]]
            polys.append((lineno, line, terms[0], terms[1], terms[2], columns))
    except ParseError:
        # a line read without error has no unexpected token, so only a failed read looks
        for lineno, line in lines:
            for index, token in enumerate(_TOKEN_RE.findall(line)):
                if token[0] not in _TOKEN_START:
                    raise _error(f"unexpected character {token!r}", lineno, line, index) from None
        raise
    return _build(polys, mono_index, var_index)


def _build(polys, mono_index, var_index) -> SignedSystem:
    """The system of the lines ``(lineno, line, signs, values, names, columns)``.

    Each line is checked whole; only a line that fails is walked term by
    term (:func:`_term_error`).  Each row keeps only its terms, sorted by
    column: the pairs ``(j, sign)`` and their coefficients.

    The values are built through ``_Value._make``, without their
    constructors' checks, as every invariant those check holds here:

    * exponent rows are the keys of ``mono_index``, so they are distinct
      tuples of d non-negative ints, and ``mono_index`` numbers them
      ``range(v)``;
    * each row's columns are sorted, distinct and in ``range(v)``, and
      each sign is -1 or 1;
    * parametric names are nonempty identifiers, unique by ``seen``;
    * concrete values are nonzero ``abs`` of ``Fraction`` sums, so
      positive ``Fraction`` values;
    * each coefficient row holds one entry per term of its sign row;
    * the variables, from ``var_index``, are distinct and at least one.
    """
    parametric = next(
        (name is not None for *_, values, names, _ in polys
         for value, name in zip(values, names) if name is not None or value is not None),
        False,
    )
    seen: set[str] = set()
    sign_rows, coefficient_rows = [], []
    for lineno, line, signs, values, names, columns in polys:
        n = len(columns)
        if parametric:
            k = len(seen)
            seen.update(names)
            if (values.count(None) < n or None in names or len(seen) - k < n
                    or len(set(columns)) < n):
                raise _term_error(lineno, line, var_index, coefficient_rows, values, names, columns)
            coefficients = names
        else:
            if names.count(None) < n:
                raise _term_error(lineno, line, var_index, None, values, names, columns)
            sums: dict[int, Fraction] = {}
            for sign, value, col in zip(signs, values, columns):
                sums[col] = sums.get(col, 0) + sign * (_ONE if value is None else value)
            # a column whose terms sum to 0 keeps sign 0 and no value
            columns = [col for col, total in sums.items() if total]
            signs = [1 if sums[col] > 0 else -1 for col in columns]
            coefficients = [abs(sums[col]) for col in columns]
        order = sorted(range(len(columns)), key=columns.__getitem__)
        sign_rows.append(tuple(zip(map(columns.__getitem__, order), map(signs.__getitem__, order))))
        coefficient_rows.append(tuple(map(coefficients.__getitem__, order)))
    kind = ParametricCoefficients if parametric else ConcreteCoefficients
    return SignedSystem._make(
        SignMatrix._make(tuple(sign_rows), len(mono_index)),
        ExponentMatrix._make(tuple(mono_index), len(var_index)),
        kind._make(tuple(coefficient_rows)),
        tuple(var_index),
    )


def _term_error(lineno, line, var_index, name_rows, values, names, columns) -> ParseError:
    """The error at the first bad term of a line.

    ``name_rows`` holds the names of the earlier rows of a parametric
    system and is None for a concrete one.  The term's column comes from
    :func:`_parse_terms`, as a line that :func:`_split_terms` read keeps no
    token positions.
    """
    seen, row = set().union(*name_rows or ()), set()
    for k, (value, name, col) in enumerate(zip(values, names, columns)):
        if (name if name_rows is None else value) is not None:
            message = "cannot mix numeric and named coefficients in one file"
        elif name_rows is None:
            continue
        elif name is None:
            message = "every term of a parametric system needs a named coefficient"
        elif name in seen:
            message = f"duplicate parametric coefficient name {name!r}"
        elif col in row:
            message = "duplicate monomial in a parametric polynomial"
        else:
            seen.add(name)
            row.add(col)
            continue
        return _error(message, lineno, line, _parse_terms(lineno, line, var_index)[4][k])
    raise AssertionError("no bad term in a line that failed its checks")


def parse_coefficient_bindings(text: str) -> dict[str, Fraction]:
    """Parse a values file: one ``name = p`` or ``name = p/q`` per line, ``#`` comments.

    ``name`` is an identifier, as an ``.spp`` file's ``id`` token, so that
    it can match a coefficient name.  ``p`` and ``q`` are written in ASCII
    digits, at most 4300 of them (``_MAX_DIGITS``).
    """
    bindings: dict[str, Fraction] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        name, eq, value = line.partition("=")
        name = name.strip()
        value = value.strip()
        if not eq or not name or not value:
            raise ParseError("expected 'name = p' or 'name = p/q'", lineno, 1)
        if not _ID_RE.fullmatch(name):
            raise ParseError(f"invalid coefficient name {name!r}", lineno, 1)
        if name in bindings:
            raise ParseError(f"duplicate value for {name!r}", lineno, 1)
        num, slash, den = (part.strip() for part in value.partition("/"))
        if not slash:
            den = "1"
        # ASCII digits only: int() would also take other decimal digits, signs
        # and underscores, and str.isdigit alone also takes "²"
        digits = num.isascii() and num.isdigit() and den.isascii() and den.isdigit()
        if digits and max(len(num), len(den)) > _MAX_DIGITS:
            raise ParseError(
                f"value for {name!r} has a number of more than {_MAX_DIGITS} digits", lineno, 1
            )
        if not digits or int(den) == 0:
            raise ParseError(f"invalid value {value!r}", lineno, 1)
        fraction = Fraction(int(num), int(den))
        if fraction <= 0:
            raise ParseError(f"value for {name!r} must be positive", lineno, 1)
        bindings[name] = fraction
    return bindings


def _monomial_factors(system: SignedSystem, j: int) -> str:
    factors = []
    for name, exponent in zip(system.var_names, system.e.entries[j]):
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

    The round trip holds only while every number printed has at most 4300
    digits (``_MAX_DIGITS``): a concrete row that sums two 4300-digit
    coefficients prints a 4301-digit one, which :func:`parse_system` refuses.
    Printing an int of more than 4300 digits also needs CPython's int-to-text
    limit lifted by the caller, as :func:`subtrop.cli.main` does.
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
