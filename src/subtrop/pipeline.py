"""The decision pipeline as a library: reduce, search and shrink.

:func:`decide_system` is what the ``decide``, ``witness`` and ``verify``
commands run.  :mod:`subtrop.cli` parses arguments, prints and runs the
cross-checks of ``decide --check``; ``explain``'s writer is
:func:`~subtrop.condition.write_cnf`.  :func:`decide_system` builds only
the row branches the search needs, never the CNF.  A SAT decision carries the shrunk integer vector,
which :func:`~subtrop.refutation.certifies` checks, and an UNSAT one the
search's refutation, which :func:`~subtrop.refutation.refutes` checks.
"""

from __future__ import annotations

from .condition import build_dnf, shrink
from .core import SignedSystem, _Value, zero_sign_rows
from .lra import SolverDefect, solve_dnf


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
    (:func:`~subtrop.condition.shrink`) among the same rows, which first
    checks that it certifies the system; one that does not raises
    :class:`~subtrop.lra.SolverDefect`.
    """
    zeros = zero_sign_rows(system)
    if zeros:
        return Decision("unsat", None, zeros[0], None)
    rows = build_dnf(system)
    n, refutation = solve_dnf(system.d, rows)
    if n is None:
        return Decision("unsat", None, None, refutation)
    try:
        n = shrink(system.d, rows, n)
    except ValueError:
        raise SolverDefect(f"row search returned a vector {n} that fails the CNF") from None
    return Decision("sat", n, None, None)
