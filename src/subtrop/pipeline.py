"""The decision pipeline as a library: reduce, search, shrink, and read coefficient files.

:func:`decide_system` is what the ``decide``, ``witness`` and ``verify``
commands run.  :mod:`subtrop.cli` parses arguments, prints and runs the
cross-checks of ``decide --check``; ``explain``'s writer is
:func:`~subtrop.condition.write_cnf`.  :func:`decide_system` builds only
the row branches the search needs, never the CNF.  A SAT decision carries the shrunk integer vector,
which :func:`~subtrop.refutation.certifies` checks, and an UNSAT one the
search's refutation, which :func:`~subtrop.refutation.refutes` checks.
"""

from __future__ import annotations

from fractions import Fraction

from .condition import build_dnf, shrink
from .core import SignedSystem, _Value, zero_sign_rows
from .lra import SolverDefect, solve_dnf
from .parser import _MAX_DIGITS, ParseError


class Decision(_Value):
    """Result of the full decision pipeline on one system.

    All four fields are required.  ``refutation`` is the tree of
    :func:`~subtrop.lra.solve_dnf` when the search answers UNSAT, made of
    tuples only, and None otherwise.
    """

    __slots__ = ("status", "n", "zero_row", "refutation")
    status: str  # "sat" | "unsat"
    n: tuple[int, ...] | None
    zero_row: int | None
    refutation: tuple | None


def decide_system(system: SignedSystem) -> Decision:
    """Decide positive solvability and, in the positive case, produce an integer vector.

    A row whose polynomial is identically zero can never be positive, so
    such systems are unsatisfiable regardless of the linear condition.
    Otherwise the search picks one dominating positive monomial per row
    (:func:`~subtrop.lra.solve_dnf` over :func:`~subtrop.condition.build_dnf`),
    which returns an integer vector or, when no choice is feasible, its
    refutation, kept on the decision.  The vector is moved toward 0
    (:func:`~subtrop.condition.shrink`), which first checks that it
    certifies the system; one that does not raises
    :class:`~subtrop.lra.SolverDefect`.
    """
    zeros = zero_sign_rows(system)
    if zeros:
        return Decision("unsat", None, zeros[0], None)
    n, refutation = solve_dnf(system.d, build_dnf(system))
    if n is None:
        return Decision("unsat", None, None, refutation)
    try:
        n = shrink(system, n)
    except ValueError:
        raise SolverDefect(f"row search returned a vector {n} that fails the CNF") from None
    return Decision("sat", n, None, None)


def parse_coefficient_bindings(text: str) -> dict[str, Fraction]:
    """Parse a values file: one ``name = p`` or ``name = p/q`` per line, ``#`` comments.

    ``p`` and ``q`` are written in ASCII digits, at most 4300 of them
    (``parser._MAX_DIGITS``).
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
