"""Value types shared by every stage of the positivity pipeline.

A system of polynomial inequalities ``f_i(x) > 0`` is stored in factored
form: a sign matrix with one row per inequality and one column per
monomial, a coefficient matrix of the same shape, and an exponent matrix
whose row j is the exponent vector of monomial j over the d variables.
Coefficients are either pairwise-distinct indeterminate names (the system
is a template quantified over all positive coefficient values) or concrete
positive rationals.  In both kinds a coefficient exists exactly where its
sign is nonzero, and ``None`` marks every zero-sign position.  An exponent
vector ``n`` is a plain ``tuple[int, ...]`` with no type of its own;
:mod:`subtrop.witness` checks its entries.

All numeric work is exact, in ints and :class:`fractions.Fraction`; nothing
in this package touches floating point.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from itertools import chain, repeat
from operator import is_, is_not, not_


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


_INT = frozenset((int,))
_STR = frozenset((str,))


def _freeze_int_matrix(entries, cols: int, what: str) -> tuple[tuple[tuple[int, ...], ...], int]:
    """``(entries, cols)`` with ``entries`` frozen, after checking that rows have ``cols`` ints.

    A negative ``cols`` means "take it from the first row", which needs at
    least one row.  The common case is checked by two C-level scans; only
    when one fails are the rows walked in Python, to accept ``int``
    subclasses or name the first bad row or entry.
    """
    entries = _frozen_rows(entries)
    if cols < 0:
        if not entries:
            raise ValueError(f"cols is required for {what} matrices with no rows")
        cols = len(entries[0])
    if not (frozenset((cols,)).issuperset(map(len, entries))
            and _INT.issuperset(map(type, chain.from_iterable(entries)))):
        for row in entries:
            if len(row) != cols:
                raise ValueError(f"{what} row {row} has {len(row)} entries, expected {cols}")
            for x in row:
                _require_int(x, what)
    return entries, cols


class ExponentMatrix(_Value):
    """v x d matrix of nonnegative integers; row j is the exponent vector of monomial j.

    ``cols`` may be omitted when there is at least one row.  No two rows may
    be equal: each monomial appears exactly once.
    """

    __slots__ = ("entries", "cols")
    entries: tuple[tuple[int, ...], ...]
    cols: int

    def __init__(self, entries, cols: int = -1):
        entries, cols = _freeze_int_matrix(entries, cols, "exponent")
        if min(chain.from_iterable(entries), default=0) < 0 or len(set(entries)) < len(entries):
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

    def row(self, j: int) -> tuple[int, ...]:
        return self.entries[j]


_SIGNS = frozenset((-1, 0, 1))


class SignMatrix(_Value):
    """u x v matrix over {-1, 0, 1}; entry (i, j) is the sign of monomial j in row i."""

    __slots__ = ("entries", "cols")
    entries: tuple[tuple[int, ...], ...]
    cols: int

    def __init__(self, entries, cols: int = -1):
        entries, cols = _freeze_int_matrix(entries, cols, "sign")
        if not _SIGNS.issuperset(chain.from_iterable(entries)):
            bad = next(x for x in chain.from_iterable(entries) if x not in _SIGNS)
            raise ValueError(f"sign entries must be -1, 0 or 1, got {bad}")
        super().__init__(entries, cols)

    @property
    def rows(self) -> int:
        return len(self.entries)


class ParametricCoefficients(_Value):
    """Coefficient matrix of pairwise-distinct indeterminate names.

    ``None`` marks positions whose sign is zero (no coefficient exists there).
    """

    __slots__ = ("names",)
    names: tuple[tuple[str | None, ...], ...]

    def __init__(self, names):
        names = _frozen_rows(names)
        present = list(filter(partial(is_not, None), chain.from_iterable(names)))
        # C-level scans: the names but None are of type str, nonempty and unique; the
        # walk below runs only when one fails, to name the first bad name
        unique = set(present) if _STR.issuperset(map(type, present)) else ()
        if len(unique) < len(present) or "" in unique:
            seen: set[str] = set()
            for name in chain.from_iterable(names):
                if name is None:
                    continue
                if not isinstance(name, str) or not name:
                    raise TypeError(f"coefficient name must be a nonempty string, got {name!r}")
                if name in seen:
                    raise ValueError(f"duplicate coefficient name {name!r}")
                seen.add(name)
        super().__init__(names)


def _as_positive_fraction(x, what: str) -> Fraction:
    # an exact Fraction is kept as it is; a normalised Fraction has a positive
    # denominator, so the numerator carries the sign
    if isinstance(x, float):
        raise TypeError(f"{what} must not be a float (exact rationals only): {x!r}")
    value = x if type(x) is Fraction else Fraction(x)
    if value.numerator <= 0:
        raise ValueError(f"{what} must be strictly positive, got {value}")
    return value


class ConcreteCoefficients(_Value):
    """Coefficient matrix of positive rationals.

    ``None`` marks positions whose sign is zero (no coefficient exists there).
    """

    __slots__ = ("values",)
    values: tuple[tuple[Fraction | None, ...], ...]

    def __init__(self, values):
        super().__init__(tuple(
            tuple(None if x is None else _as_positive_fraction(x, "coefficient") for x in row)
            for row in values
        ))


CoefficientSpec = ParametricCoefficients | ConcreteCoefficients


class SignedSystem(_Value):
    """A polynomial system in factored sign/coefficient/exponent form.

    Shapes: ``s`` is u x v, ``c`` matches ``s``, ``e`` is v x d with
    ``d == len(var_names)``.  A coefficient, a name or a value, is present
    exactly at the nonzero-sign positions, and ``None`` fills the others.
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
            grid, what = self.c.names, "name"
        else:
            grid, what = self.c.values, "value"
        if len(grid) != self.s.rows or not frozenset((self.s.cols,)).issuperset(map(len, grid)):
            raise ValueError("coefficient matrix shape does not match the sign matrix")
        # each row's check is one C-level scan; its entries are walked only to name
        # the first bad one
        for i, (sign_row, row) in enumerate(zip(self.s.entries, grid)):
            if list(map(is_, row, repeat(None))) != list(map(not_, sign_row)):
                j = next(j for j, (sign, x) in enumerate(zip(sign_row, row))
                         if (x is None) != (sign == 0))
                raise ValueError(
                    f"coefficient {what} at ({i}, {j}) must be present iff the sign is nonzero"
                )

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

    def coefficient_name(self, i: int, j: int) -> str:
        """Name of coefficient (i, j); concrete systems get positional names c_<i+1>_<j+1>."""
        if isinstance(self.c, ParametricCoefficients):
            name = self.c.names[i][j]
            if name is None:
                raise ValueError(f"no coefficient exists at zero-sign position ({i}, {j})")
            return name
        return f"c_{i + 1}_{j + 1}"


def zero_sign_rows(system: SignedSystem) -> tuple[int, ...]:
    """Indices of rows whose polynomial is identically zero (every sign entry is 0)."""
    return tuple(i for i, row in enumerate(system.s.entries) if not any(row))
