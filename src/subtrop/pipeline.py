"""The decision pipeline as a library: reduce, search, shrink, and read coefficient files.

:func:`decide_system` is what the ``decide``, ``witness`` and ``verify``
commands run; :mod:`subtrop.cli` only parses arguments and prints.  It
builds only the row branches the search needs, never the CNF, and always
returns the shrunk integer vector.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .condition import build_dnf, shrink
from .core import SignedSystem, _Value, zero_sign_rows
from .lra import SolverDefect, solve_dnf
from .parser import ParseError

# p and q of a value: ASCII digits only, where int() would also take other
# decimal digits, signs and underscores.
_DIGITS = re.compile("[0-9]+")


class Decision(_Value):
    """Result of the full decision pipeline on one system."""

    __slots__ = ("status", "n", "zero_row")
    status: str  # "sat" | "unsat"
    n: tuple[int, ...] | None
    zero_row: int | None

    def __init__(self, status: str, n: tuple[int, ...] | None, zero_row: int | None):
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "zero_row", zero_row)


def decide_system(system: SignedSystem) -> Decision:
    """Decide positive solvability and, in the positive case, produce an integer vector.

    A row whose polynomial is identically zero can never be positive, so
    such systems are unsatisfiable regardless of the linear condition.
    Otherwise the search picks one dominating positive monomial per row
    (:func:`~subtrop.lra.solve_dnf` over :func:`~subtrop.condition.build_dnf`),
    which returns an integer vector.  That vector is moved toward 0
    (:func:`~subtrop.condition.shrink`), which first checks that it
    certifies the system; one that does not raises
    :class:`~subtrop.lra.SolverDefect`.
    """
    zeros = zero_sign_rows(system)
    if zeros:
        return Decision("unsat", None, zeros[0])
    n = solve_dnf(system.d, build_dnf(system))
    if n is None:
        return Decision("unsat", None, None)
    try:
        n = shrink(system, n)
    except ValueError:
        raise SolverDefect(f"row search returned a vector {n} that fails the CNF") from None
    return Decision("sat", n, None)


def parse_coefficient_bindings(text: str) -> dict[str, Fraction]:
    """Parse a values file: one ``name = p`` or ``name = p/q`` per line, ``#`` comments.

    ``p`` and ``q`` are written in ASCII digits.
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
        if name in bindings:
            raise ParseError(f"duplicate value for {name!r}", lineno, 1)
        num, slash, den = (part.strip() for part in value.partition("/"))
        if not slash:
            den = "1"
        if not (_DIGITS.fullmatch(num) and _DIGITS.fullmatch(den)) or int(den) == 0:
            raise ParseError(f"invalid value {value!r}", lineno, 1)
        fraction = Fraction(int(num), int(den))
        if fraction <= 0:
            raise ParseError(f"value for {name!r} must be positive", lineno, 1)
        bindings[name] = fraction
    return bindings
