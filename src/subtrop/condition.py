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
per negative monomial.  The search runs on this form (:func:`build_dnf`).

The same argmax argument checks a given vector without building either
form: n satisfies the CNF exactly when, in every row with negative
monomials, the largest ``e_j . n`` over positive j is at least 1 more than
the largest ``e_k . n`` over negative k (:func:`certifies`).  The CNF
(:func:`build_cnf`) is built only for ``explain`` and for the brute-force
UNSAT cross-check of ``decide --check``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul, sub

from .core import SignedSystem, row_supports


@dataclass(frozen=True, slots=True)
class LinearLiteral:
    """One dominance constraint ``coeffs . n >= 1`` with ``coeffs = e[pos] - e[neg]``."""

    coeffs: tuple[int, ...]
    row: int
    pos: int
    neg: int

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(self.coeffs))

    def value_at(self, n) -> Fraction | int:
        if len(n) != len(self.coeffs):
            raise ValueError(f"expected a vector of length {len(self.coeffs)}, got {len(n)}")
        return sum(a * x for a, x in zip(self.coeffs, n))

    def satisfied_by(self, n) -> bool:
        return self.value_at(n) >= 1


@dataclass(frozen=True, slots=True)
class Clause:
    """Alternatives for dominating negative monomial ``neg`` of row ``row``."""

    row: int
    neg: int
    literals: tuple[LinearLiteral, ...]

    def __post_init__(self):
        object.__setattr__(self, "literals", tuple(self.literals))

    def satisfied_by(self, n) -> bool:
        return any(lit.satisfied_by(n) for lit in self.literals)


@dataclass(frozen=True, slots=True)
class LinearCondition:
    """CNF of dominance constraints; clauses ordered by (row, neg), literals by pos."""

    num_vars: int
    clauses: tuple[Clause, ...]

    def __post_init__(self):
        object.__setattr__(self, "clauses", tuple(self.clauses))

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


@dataclass(frozen=True, slots=True)
class DnfBranch:
    """Constraints forcing positive monomial ``pivot`` to dominate every negative one."""

    pivot: int
    constraints: tuple[LinearLiteral, ...]

    def __post_init__(self):
        object.__setattr__(self, "constraints", tuple(self.constraints))


def build_cnf(system: SignedSystem) -> LinearCondition:
    """CNF over n: for every row i and negative monomial k, some positive j dominates k.

    Rows without negative monomials contribute no clauses; a row with
    negative monomials but no positive ones contributes an empty
    (unsatisfiable) clause.  The result depends only on the sign and
    exponent matrices, never on coefficient values.
    """
    exponents = system.e.entries
    clauses = []
    for i in range(system.u):
        positive, negative = map(sorted, row_supports(system, i))
        for k in negative:
            ek = exponents[k]
            literals = tuple(
                LinearLiteral(tuple(map(sub, exponents[j], ek)), i, j, k) for j in positive
            )
            clauses.append(Clause(i, k, literals))
    return LinearCondition(system.d, tuple(clauses))


def build_dnf(system: SignedSystem) -> tuple[tuple[DnfBranch, ...], ...]:
    """Branches of every row that has negative monomials, rows in index order.

    Row i gives one branch per positive monomial j, in increasing j: the
    conjunction of ``(e_j - e_k) . n >= 1`` over the row's negative
    monomials k.  Some choice of one branch per row is feasible iff
    :func:`build_cnf` of the same system is satisfiable.  A row with
    negative monomials but no positive ones gives no branch at all, so no
    choice exists; rows without negative monomials are left out.
    """
    exponents = system.e.entries
    rows = []
    for i in range(system.u):
        positive, negative = map(sorted, row_supports(system, i))
        if not negative:
            continue
        branches = []
        for j in positive:
            ej = exponents[j]
            constraints = tuple(
                LinearLiteral(tuple(map(sub, ej, exponents[k])), i, j, k) for k in negative
            )
            branches.append(DnfBranch(j, constraints))
        rows.append(tuple(branches))
    return tuple(rows)


def certifies(system: SignedSystem, n) -> bool:
    """True when ``n`` satisfies :func:`build_cnf` of ``system``, in O(v*d + u*v) steps.

    Each monomial's height ``e_j . n`` is computed once.  A row with
    negative monomials passes when its highest positive monomial stands at
    least 1 above its highest negative one; a row with negative monomials
    but no positive ones fails, and a row without negative monomials
    passes.  Exact for ``int`` and ``Fraction`` entries.
    """
    if len(n) != system.d:
        raise ValueError(f"expected a vector of length {system.d}, got {len(n)}")
    heights = [sum(map(mul, exps, n)) for exps in system.e.entries]
    for row in system.s.entries:
        negative = [h for h, sign in zip(heights, row) if sign < 0]
        if negative:
            positive = [h for h, sign in zip(heights, row) if sign > 0]
            if not positive or max(positive) < max(negative) + 1:
                return False
    return True
