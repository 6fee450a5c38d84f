"""Value types shared by every stage of the positivity pipeline.

A system of polynomial inequalities ``f_i(x) > 0`` is stored in factored
form, each row by its terms alone: sign row i holds a pair ``(j, sign)``,
sign -1 or 1, for each monomial j of ``f_i``, in increasing j, and
coefficient row i one coefficient per pair, in the same order.  Row j of
the dense exponent matrix is the exponent vector of monomial j over the d
variables.  Coefficients are either pairwise-distinct indeterminate names
(the system is a template quantified over all positive coefficient values)
or concrete positive rationals.  An exponent vector ``n`` is a plain
``tuple[int, ...]`` with no type of its own; :mod:`subtrop.witness` checks
its entries.

The value constructors check their arguments, for callers of the library.
:func:`subtrop.parser.parse_system` establishes the same invariants itself,
so that it can report a fault by line and column, and builds its values
through ``_Value._make``, which checks nothing.

All numeric work is exact, in ints and :class:`fractions.Fraction`; nothing
in this package touches floating point.
"""

from __future__ import annotations

from fractions import Fraction


class SubtropError(Exception):
    """Base class for all errors raised by this package."""


class _Value:
    """Base of the package's immutable value types.

    A subclass lists its fields in ``__slots__``, and ``__init__`` takes one
    value per field, in that order; a subclass that converts or checks its
    arguments passes them on to it.  Equality, hashing, ``repr`` and
    pickling go by the fields in that order, as for a frozen dataclass,
    and assigning or deleting a field raises :class:`AttributeError`.  The
    value types are not dataclasses because importing :mod:`dataclasses`
    and building each class costs more than deciding a small system.
    """

    __slots__ = ()

    def __init__(self, *fields):
        names = self.__slots__
        if len(fields) != len(names):
            raise TypeError(f"{type(self).__name__} takes {len(names)} fields, got {len(fields)}")
        for name, value in zip(names, fields):
            object.__setattr__(self, name, value)

    @classmethod
    def _make(cls, *fields):
        """An instance holding ``fields`` as given, with none of the subclass's checks.

        For a builder that establishes every invariant of ``cls`` itself and
        passes exactly what its constructor would store.
        """
        self = object.__new__(cls)
        _Value.__init__(self, *fields)
        return self

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__slots__])
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")

    def __reduce__(self):
        return type(self), self._fields()


def _frozen_rows(entries) -> tuple[tuple, ...]:
    return tuple(map(tuple, entries))


def _require_int(x, what: str) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise TypeError(f"{what} must be an int, got {x!r}")
    return x


class ExponentMatrix(_Value):
    """v x d matrix of nonnegative integers; row j is the exponent vector of monomial j.

    ``cols`` may be omitted when there is at least one row.  No two rows may
    be equal: each monomial appears exactly once.  The constructor names the
    first bad row or entry in two walks: every row's length and entry types
    first, then row by row its negative entries and whether it repeats an
    earlier row.
    """

    __slots__ = ("entries", "cols")
    entries: tuple[tuple[int, ...], ...]
    cols: int

    def __init__(self, entries, cols: int = -1):
        entries = _frozen_rows(entries)
        if cols < 0:
            if not entries:
                raise ValueError("cols is required for exponent matrices with no rows")
            cols = len(entries[0])
        for row in entries:
            if len(row) != cols:
                raise ValueError(f"exponent row {row} has {len(row)} entries, expected {cols}")
            for x in row:
                _require_int(x, "exponent")
        seen = set()
        for row in entries:
            for x in row:
                if x < 0:
                    raise ValueError(f"negative exponent {x} in row {row}")
            if row in seen:
                raise ValueError(f"duplicate monomial row {row}")
            seen.add(row)
        super().__init__(entries, cols)

    @property
    def rows(self) -> int:
        return len(self.entries)


class SignMatrix(_Value):
    """u rows over v monomial columns, each holding only its nonzero signs.

    Row i is the tuple of its terms ``(j, sign)``, sign -1 or 1, in strictly
    increasing j in ``range(cols)``; a column that a row leaves out has sign
    0 there.  Storage and checks are O(terms), whatever ``cols`` is.
    """

    __slots__ = ("entries", "cols")
    entries: tuple[tuple[tuple[int, int], ...], ...]
    cols: int

    def __init__(self, entries, cols: int):
        _require_int(cols, "cols")
        entries = _frozen_rows(entries)
        for i, row in enumerate(entries):
            # one walk over the row's terms, which names the first bad term
            last = -1
            for t, pair in enumerate(row):
                if type(pair) is not tuple or len(pair) != 2:
                    raise TypeError(f"term {t} of sign row {i} must be a (column, sign) pair, "
                                    f"got {pair!r}")
                j, sign = pair
                _require_int(j, f"column of term {t} of sign row {i}")
                if not 0 <= j < cols:
                    raise ValueError(f"column {j} of sign row {i} is outside 0..{cols - 1}")
                if j <= last:
                    raise ValueError(f"column {j} of sign row {i} does not come after "
                                     f"column {last}")
                _require_int(sign, f"sign at ({i}, {j})")
                if sign not in (-1, 1):
                    raise ValueError(f"sign at ({i}, {j}) must be -1 or 1, got {sign}")
                last = j
        super().__init__(entries, cols)

    @property
    def rows(self) -> int:
        return len(self.entries)


class ParametricCoefficients(_Value):
    """Pairwise-distinct indeterminate names, row i one per term of sign row i, in its order."""

    __slots__ = ("names",)
    names: tuple[tuple[str, ...], ...]

    def __init__(self, names):
        names = _frozen_rows(names)
        # one walk over the names, in row order, which names the first bad name
        seen: set[str] = set()
        for i, row in enumerate(names):
            for t, name in enumerate(row):
                if not isinstance(name, str) or not name:
                    raise TypeError(f"name {t} of coefficient row {i} must be a nonempty "
                                    f"string, got {name!r}")
                if name in seen:
                    raise ValueError(f"duplicate coefficient name {name!r}: name {t} of "
                                     f"coefficient row {i}")
                seen.add(name)
        super().__init__(names)


def _as_positive_fraction(x, i: int, t: int) -> Fraction:
    # value t of coefficient row i; an exact Fraction is kept as it is, and a
    # normalised Fraction has a positive denominator, so the numerator carries the sign
    if isinstance(x, float):
        raise TypeError(f"value {t} of coefficient row {i} must not be a float "
                        f"(exact rationals only): {x!r}")
    value = x if type(x) is Fraction else Fraction(x)
    if value.numerator <= 0:
        raise ValueError(f"value {t} of coefficient row {i} must be strictly positive, got {value}")
    return value


class ConcreteCoefficients(_Value):
    """Positive rationals, row i one per term of sign row i, in its order."""

    __slots__ = ("values",)
    values: tuple[tuple[Fraction, ...], ...]

    def __init__(self, values):
        super().__init__(tuple(
            tuple([_as_positive_fraction(x, i, t) for t, x in enumerate(row)])
            for i, row in enumerate(values)
        ))


CoefficientSpec = ParametricCoefficients | ConcreteCoefficients


class SignedSystem(_Value):
    """A polynomial system in factored sign/coefficient/exponent form.

    Shapes: ``s`` has u rows over v columns, ``c`` one coefficient per term
    of ``s``, and ``e`` is v x d with ``d == len(var_names)``.
    """

    __slots__ = ("s", "e", "c", "var_names")
    s: SignMatrix
    e: ExponentMatrix
    c: CoefficientSpec
    var_names: tuple[str, ...]

    def __init__(self, s: SignMatrix, e: ExponentMatrix, c: CoefficientSpec, var_names):
        super().__init__(s, e, c, tuple(var_names))
        if not self.var_names:
            raise ValueError("a system needs at least one variable")
        if len(set(self.var_names)) != len(self.var_names):
            raise ValueError("variable names must be distinct")
        if self.s.cols != self.e.rows:
            raise ValueError(
                f"sign matrix has {self.s.cols} columns but exponent matrix has {self.e.rows} rows"
            )
        if self.e.cols != len(self.var_names):
            raise ValueError(
                f"exponent matrix has {self.e.cols} columns for {len(self.var_names)} variables"
            )
        if isinstance(self.c, ParametricCoefficients):
            rows, what = self.c.names, "name"
        else:
            rows, what = self.c.values, "value"
        if len(rows) != self.s.rows:
            raise ValueError("coefficient matrix shape does not match the sign matrix")
        for i, (terms, row) in enumerate(zip(self.s.entries, rows)):
            if len(row) < len(terms):
                raise ValueError(f"coefficient {what} at ({i}, {terms[len(row)][0]}) must be "
                                 "present iff the sign is nonzero")
            if len(row) > len(terms):
                raise ValueError(
                    f"coefficient row {i} has {len(row)} {what}s for {len(terms)} terms")

    @property
    def u(self) -> int:
        return self.s.rows

    @property
    def v(self) -> int:
        return self.s.cols

    @property
    def d(self) -> int:
        return len(self.var_names)

    @property
    def is_parametric(self) -> bool:
        return isinstance(self.c, ParametricCoefficients)


def zero_sign_rows(system: SignedSystem) -> tuple[int, ...]:
    """Indices of rows whose polynomial is identically zero (no term)."""
    return tuple(i for i, terms in enumerate(system.s.entries) if not terms)
