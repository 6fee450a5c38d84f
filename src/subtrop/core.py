"""Value types shared by every stage of the positivity pipeline.

A system of polynomial inequalities ``f_i(x) > 0`` is stored in factored
form: a sign matrix with one row per inequality and one column per
monomial, a coefficient matrix of the same shape, and an exponent matrix
whose row j is the exponent vector of monomial j over the d variables.
Coefficients are either pairwise-distinct indeterminate names (the system
is a template quantified over all positive coefficient values) or concrete
positive rationals.  An exponent vector ``n`` is a plain ``tuple[int, ...]``
with no type of its own; :mod:`subtrop.witness` checks its entries.

All numeric work is exact, in ints and :class:`fractions.Fraction`; nothing
in this package touches floating point.
"""

from __future__ import annotations

from fractions import Fraction


class SubtropError(Exception):
    """Base class for all errors raised by this package."""


class _Value:
    """Base of the package's immutable value types.

    A subclass lists its fields in ``__slots__`` and sets each one once, in
    ``__init__``, with ``object.__setattr__``.  Equality, hashing, ``repr``
    and pickling go by the fields in that order, as for a frozen dataclass,
    and assigning or deleting a field raises :class:`AttributeError`.  The
    value types are not dataclasses because importing :mod:`dataclasses`
    and building each class costs more than deciding a small system.
    """

    __slots__ = ()

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
    return tuple(tuple(row) for row in entries)


def _require_int(x, what: str) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise TypeError(f"{what} must be an int, got {x!r}")
    return x


def _freeze_int_matrix(matrix, entries, cols: int, what: str) -> tuple[tuple[int, ...], ...]:
    """Set ``matrix.entries`` to ``entries`` frozen, and ``matrix.cols``; rows have ``cols`` ints.

    A negative ``cols`` means "take it from the first row", which needs at
    least one row.  Returns the frozen entries.
    """
    entries = _frozen_rows(entries)
    if cols < 0:
        if not entries:
            raise ValueError(f"cols is required for {what} matrices with no rows")
        cols = len(entries[0])
    for row in entries:
        if len(row) != cols:
            raise ValueError(f"{what} row {row} has {len(row)} entries, expected {cols}")
        if not all(type(x) is int for x in row):
            for x in row:
                _require_int(x, what)
    object.__setattr__(matrix, "entries", entries)
    object.__setattr__(matrix, "cols", cols)
    return entries


class ExponentMatrix(_Value):
    """v x d matrix of nonnegative integers; row j is the exponent vector of monomial j.

    ``cols`` may be omitted when there is at least one row.  No two rows may
    be equal: each monomial appears exactly once.
    """

    __slots__ = ("entries", "cols")
    entries: tuple[tuple[int, ...], ...]
    cols: int

    def __init__(self, entries, cols: int = -1):
        seen = set()
        for row in _freeze_int_matrix(self, entries, cols, "exponent"):
            for x in row:
                if x < 0:
                    raise ValueError(f"negative exponent {x} in row {row}")
            if row in seen:
                raise ValueError(f"duplicate monomial row {row}")
            seen.add(row)

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
        for row in _freeze_int_matrix(self, entries, cols, "sign"):
            if not _SIGNS.issuperset(row):
                bad = next(x for x in row if x not in _SIGNS)
                raise ValueError(f"sign entries must be -1, 0 or 1, got {bad}")

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
        object.__setattr__(self, "names", names)
        seen: set[str] = set()
        for row in names:
            for name in row:
                if name is None:
                    continue
                if not isinstance(name, str) or not name:
                    raise TypeError(f"coefficient name must be a nonempty string, got {name!r}")
                if name in seen:
                    raise ValueError(f"duplicate coefficient name {name!r}")
                seen.add(name)


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
    """Coefficient matrix of positive rationals; 1 is the placeholder at zero-sign positions."""

    __slots__ = ("values",)
    values: tuple[tuple[Fraction, ...], ...]

    def __init__(self, values):
        rows = tuple(
            tuple(_as_positive_fraction(x, "coefficient") for x in row) for row in values
        )
        object.__setattr__(self, "values", rows)


CoefficientSpec = ParametricCoefficients | ConcreteCoefficients

_ONE = Fraction(1)


class SignedSystem(_Value):
    """A polynomial system in factored sign/coefficient/exponent form.

    Shapes: ``s`` is u x v, ``c`` matches ``s``, ``e`` is v x d with
    ``d == len(var_names)``.  Parametric systems carry a name exactly at
    every nonzero-sign position; concrete systems carry the placeholder 1
    at every zero-sign position.
    """

    __slots__ = ("s", "e", "c", "var_names")
    s: SignMatrix
    e: ExponentMatrix
    c: CoefficientSpec
    var_names: tuple[str, ...]

    def __init__(self, s: SignMatrix, e: ExponentMatrix, c: CoefficientSpec, var_names):
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "e", e)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "var_names", tuple(var_names))
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
        grid = self.c.names if isinstance(self.c, ParametricCoefficients) else self.c.values
        if len(grid) != self.s.rows or any(len(row) != self.s.cols for row in grid):
            raise ValueError("coefficient matrix shape does not match the sign matrix")
        if isinstance(self.c, ParametricCoefficients):
            for i, (sign_row, name_row) in enumerate(zip(self.s.entries, grid)):
                for j, (sign, name) in enumerate(zip(sign_row, name_row)):
                    if (name is None) != (sign == 0):
                        raise ValueError(
                            f"coefficient name at ({i}, {j}) must be present iff the sign is nonzero"
                        )
        else:
            for i, (sign_row, value_row) in enumerate(zip(self.s.entries, grid)):
                for j, (sign, value) in enumerate(zip(sign_row, value_row)):
                    if sign == 0 and value != _ONE:
                        raise ValueError(
                            f"zero-sign position ({i}, {j}) must hold the placeholder 1, "
                            f"got {value}"
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
