"""Reduction of a signed system to a linear condition on integer exponent vectors.

A row ``f_i > 0`` holds for every positive choice of coefficients at some
point of the form ``x = t^n`` exactly when, for each negatively signed
monomial k of the row, some positively signed monomial j dominates it:
``(e_j - e_k) . n >= 1``.  Collecting these alternatives gives a CNF over
the unknown integer vector n with one clause per (row, negative monomial)
pair.

The same condition also flattens, row by row, into a disjunction of small
conjunctions, one branch per positive monomial j: ``(e_j - e_k) . n >= 1``
for every negative k of the row.  The two forms are equivalent: a branch
implies each of the row's clauses, and at any n satisfying the clauses the
positive monomial j* that maximises ``e_j . n`` satisfies its branch,
because ``e_j* . n >= e_j . n >= e_k . n + 1`` for the j that dominates k.
A row thus needs one choice among its positive monomials instead of one
per negative monomial.  The search runs on this form (:func:`build_dnf`),
given as plain integer forms ``e_j - e_k``; only the CNF's clauses carry
their (row, positive, negative) provenance, for ``explain``.

The same argmax argument checks a given vector without building either
form: n satisfies the CNF exactly when, in every row with negative
monomials, the largest ``e_j . n`` over positive j is at least 1 more than
the largest ``e_k . n`` over negative k (:func:`certifies`).

All of these walk the rows through :func:`dominance_rows`, the one
definition of the order of clauses, literals and branches.  ``explain``
prints the CNF's clauses from that walk, formatting each clause from the
exponent rows in one step; the CNF as objects (:func:`build_cnf`) is built
only for the brute-force UNSAT cross-check of ``decide --check``.

The argmax argument also bounds where a vector can move: at a certified n,
the branches of each row's highest positive monomial define a convex
polyhedron that contains n, and every integer point of it certifies the
system.  :func:`shrink` walks n toward 0 inside that polyhedron.
"""

from __future__ import annotations

from collections.abc import Iterator
from fractions import Fraction
from itertools import compress
from operator import mul, sub

from .core import SignedSystem, _Value


class LinearLiteral(_Value):
    """One dominance constraint ``coeffs . n >= 1`` with ``coeffs = e[pos] - e[neg]``."""

    __slots__ = ("coeffs", "row", "pos", "neg")
    coeffs: tuple[int, ...]
    row: int
    pos: int
    neg: int

    def __init__(self, coeffs, row: int, pos: int, neg: int):
        object.__setattr__(self, "coeffs", tuple(coeffs))
        object.__setattr__(self, "row", row)
        object.__setattr__(self, "pos", pos)
        object.__setattr__(self, "neg", neg)

    def value_at(self, n) -> Fraction | int:
        if len(n) != len(self.coeffs):
            raise ValueError(f"expected a vector of length {len(self.coeffs)}, got {len(n)}")
        return sum(a * x for a, x in zip(self.coeffs, n))

    def satisfied_by(self, n) -> bool:
        return self.value_at(n) >= 1


class Clause(_Value):
    """Alternatives for dominating negative monomial ``neg`` of row ``row``."""

    __slots__ = ("row", "neg", "literals")
    row: int
    neg: int
    literals: tuple[LinearLiteral, ...]

    def __init__(self, row: int, neg: int, literals):
        object.__setattr__(self, "row", row)
        object.__setattr__(self, "neg", neg)
        object.__setattr__(self, "literals", tuple(literals))

    def satisfied_by(self, n) -> bool:
        return any(lit.satisfied_by(n) for lit in self.literals)


class LinearCondition(_Value):
    """CNF of dominance constraints; clauses ordered by (row, neg), literals by pos."""

    __slots__ = ("num_vars", "clauses")
    num_vars: int
    clauses: tuple[Clause, ...]

    def __init__(self, num_vars: int, clauses):
        object.__setattr__(self, "num_vars", num_vars)
        object.__setattr__(self, "clauses", tuple(clauses))

    def satisfied_by(self, n) -> bool:
        """True when every clause has at least one literal with value >= 1 at ``n``."""
        return all(clause.satisfied_by(n) for clause in self.clauses)

    def to_debug_text(self) -> str:
        """One line per clause: ``clause <row> <neg>: [<pos>: c1 c2 ...] ...``."""
        lines = []
        for clause in self.clauses:
            body = " ".join(
                f"[{lit.pos}: {' '.join(map(str, lit.coeffs))}]" for lit in clause.literals
            )
            lines.append(f"clause {clause.row} {clause.neg}: {body}".rstrip())
        return "\n".join(lines)


def dominance_rows(system: SignedSystem) -> Iterator[tuple[int, list[int], list[int]]]:
    """``(i, positive, negative)`` for each row i with negative monomials, in index order.

    ``positive`` and ``negative`` are the row's monomial indices with
    positive and with negative sign, each in increasing order; ``positive``
    may be empty.  This walk fixes the order everywhere: clauses in
    increasing (row, neg) and literals in increasing pos for
    :func:`build_cnf` and ``explain``, branches in increasing pos and forms
    in increasing neg for :func:`build_dnf`.
    """
    columns = range(system.s.cols)
    for i, row in enumerate(system.s.entries):
        # one C-level scan finds the nonzero signs; only those are read in Python
        support = list(compress(columns, row))
        negative = [k for k in support if row[k] < 0]
        if negative:
            yield i, [j for j in support if row[j] > 0], negative


def build_cnf(system: SignedSystem) -> LinearCondition:
    """CNF over n: for every row i and negative monomial k, some positive j dominates k.

    Rows without negative monomials contribute no clauses; a row with
    negative monomials but no positive ones contributes an empty
    (unsatisfiable) clause.  The result depends only on the sign and
    exponent matrices, never on coefficient values.  Clauses and literals
    come in the order of :func:`dominance_rows`.
    """
    exponents = system.e.entries
    clauses = tuple(
        Clause(i, k, tuple(
            LinearLiteral(tuple(map(sub, exponents[j], exponents[k])), i, j, k) for j in positive
        ))
        for i, positive, negative in dominance_rows(system)
        for k in negative
    )
    return LinearCondition(system.d, clauses)


def build_dnf(system: SignedSystem) -> tuple[tuple[tuple[tuple[int, ...], ...], ...], ...]:
    """Branches of every row that has negative monomials, rows in index order.

    Row i gives one branch per positive monomial j, in increasing j: the
    tuple of forms ``e_j - e_k`` over the row's negative monomials k, in
    increasing k, each meaning ``(e_j - e_k) . n >= 1``.  Some choice of one
    branch per row satisfies all of its forms iff :func:`build_cnf` of the
    same system is satisfiable.  A row with negative monomials but no
    positive ones gives no branch at all, so no choice exists; rows without
    negative monomials are left out (:func:`dominance_rows`).
    """
    exponents = system.e.entries
    return tuple(
        tuple(
            tuple(tuple(map(sub, exponents[j], exponents[k])) for k in negative)
            for j in positive
        )
        for _, positive, negative in dominance_rows(system)
    )


def _heights(system: SignedSystem, n) -> list:
    """Each monomial's height ``e_j . n``, in index order."""
    if len(n) != system.d:
        raise ValueError(f"expected a vector of length {system.d}, got {len(n)}")
    return [sum(map(mul, exps, n)) for exps in system.e.entries]


def _argmax_rows(system: SignedSystem, heights: list) -> Iterator[tuple[int | None, list[int]]]:
    """``(top, negative)`` for each row with negative monomials, at the given heights.

    ``top`` is the row's highest positive monomial, the first in index
    order on a tie, and ``negative`` holds the row's negative monomials.
    ``top`` is None when no positive monomial stands 1 above the highest
    negative one, so that the vector behind ``heights`` does not certify
    the system.  Rows come in the order of :func:`dominance_rows`.
    """
    for _, positive, negative in dominance_rows(system):
        top = max(positive, key=heights.__getitem__, default=None)
        if top is not None and heights[top] < max(map(heights.__getitem__, negative)) + 1:
            top = None
        yield top, negative


def certifies(system: SignedSystem, n) -> bool:
    """True when ``n`` satisfies :func:`build_cnf` of ``system``, in O(u*v*d) steps.

    The check is :func:`_argmax_rows`, without building the CNF or any
    branch form.  A row with negative monomials passes when its highest
    positive monomial stands at least 1 above its highest negative one; a
    row with negative monomials but no positive ones fails, and a row
    without negative monomials passes.  Exact for ``int`` and ``Fraction``
    entries.
    """
    return all(top is not None for top, _ in _argmax_rows(system, _heights(system, n)))


def _descend(forms: list[tuple[int, ...]], values: list[int], n: list[int]) -> bool:
    """Move ``n`` toward 0 inside ``{m : a . m >= 1 for a in forms}``; whether it moved.

    ``values`` holds each ``a . n``, all at least 1: ``n`` lies in the
    polyhedron.  Both are changed in place.  A sweep sets each coordinate in
    turn to the value nearest 0 of its feasible integer interval, the
    others held fixed: ``a . m >= 1`` bounds coordinate c from below by
    ``ceil(b / a_c)`` when ``a_c > 0`` and from above by ``floor(b / a_c)``
    when ``a_c < 0``, with ``b`` = 1 minus the other terms.  After each
    sweep that moved, ``n`` also takes the longest feasible integer step
    along the sweep's move over the coordinates that are still nonzero,
    stopping at 0; plain sweeps zig-zag between two constraints in many
    short moves.  No coordinate ever grows in absolute value or changes
    sign, so ``sum(|n_i|)`` falls with every sweep that moves, and the loop
    ends at a vector that no single unit step toward 0 keeps inside the
    polyhedron.
    """
    columns = [[(r, a[c]) for r, a in enumerate(forms) if a[c]] for c in range(len(n))]
    moved = False
    while True:
        start = n[:]
        for c, column in enumerate(columns):
            x = n[c]
            # a . m >= 1 asks a * y >= b of the coordinate's new value y; lower > 0 or
            # upper < 0 when the bounds keep y from 0, never both, as y = x is feasible
            lower = upper = 0
            for r, a in column:
                b = 1 - values[r] + a * x
                if a > 0:
                    lower = max(lower, -(-b // a))
                else:
                    upper = min(upper, b // a)
            target = lower or upper
            if target != x:
                for r, a in column:
                    values[r] += a * (target - x)
                n[c] = target
        if n == start:
            return moved
        moved = True
        step = [m - s if m else 0 for s, m in zip(start, n)]
        slopes = [sum(map(mul, a, step)) for a in forms]
        length = min(
            [abs(x) // abs(s) for x, s in zip(n, step) if s]
            + [(v - 1) // -g for v, g in zip(values, slopes) if g < 0],
            default=0,
        )
        if length:
            n[:] = [x + length * s for x, s in zip(n, step)]
            values[:] = [v + length * g for v, g in zip(values, slopes)]


def shrink(system: SignedSystem, n) -> tuple[int, ...]:
    """A certified integer vector no farther from 0 than ``n`` in any coordinate.

    ``n`` must certify ``system`` (:func:`certifies`), or ValueError is
    raised.  Any certified vector is a valid answer, and a smaller one
    gives a smaller witness point ``t^n`` that is cheaper to check exactly.
    Each round takes the polyhedron of the branches that the rows' highest
    positive monomials pick at the current vector, which contains it, and
    moves the vector toward 0 inside it (:func:`_descend`).  The next round
    picks the branches again at the new vector; the rounds end when the
    vector is a fixed point of its own polyhedron.  Every point reached lies
    in such a polyhedron, so it certifies, and since ``sum(|n_i|)`` falls
    with every round but the last, the rounds end.
    """
    exponents = system.e.entries
    n = list(n)
    while True:
        heights = _heights(system, n)
        forms: list[tuple[int, ...]] = []
        values: list[int] = []
        for top, negative in _argmax_rows(system, heights):
            if top is None:
                raise ValueError(f"{tuple(n)} does not certify the system")
            forms += [tuple(map(sub, exponents[top], exponents[k])) for k in negative]
            values += [heights[top] - heights[k] for k in negative]
        if not _descend(forms, values, n):
            return tuple(n)
