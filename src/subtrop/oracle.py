"""Brute-force cross-check for the main solver.

A deliberately dumb decider used by the test suite and the benchmark's
reference answers: exhaustive enumeration of one-literal-per-clause
selections of the CNF, each decided by a from-scratch Fourier-Motzkin pass
(no code shared with :mod:`subtrop.lra`, forward elimination order, no
pruning).  Every row starts at bound 1 and is combined with int
multipliers only, so the elimination runs in ints.  It takes time
exponential in the number of clauses, so ``decide --check`` checks an
UNSAT answer by its refutation (:mod:`subtrop.refutation`) instead.
"""

from __future__ import annotations

import itertools

from .condition import LinearCondition
from .core import SubtropError

SELECTION_LIMIT = 10**6


class TooManySelections(SubtropError):
    """The product of clause sizes exceeds the enumeration guard."""


def _feasible(rows, num_vars: int) -> bool:
    """Textbook variable elimination, smallest index first, feasibility only."""
    system = [(list(coeffs), 1) for coeffs in rows]
    for var in range(num_vars):
        lower, upper, rest = [], [], []
        for coeffs, bound in system:
            if coeffs[var] > 0:
                lower.append((coeffs, bound))
            elif coeffs[var] < 0:
                upper.append((coeffs, bound))
            else:
                rest.append((coeffs, bound))
        system = rest
        for lc, lb in lower:
            p = lc[var]
            for uc, ub in upper:
                q = -uc[var]
                system.append(([q * a + p * b for a, b in zip(lc, uc)], q * lb + p * ub))
    return all(bound <= 0 for _, bound in system)


def exhaustive_decide(condition: LinearCondition) -> bool:
    """True iff some selection of one literal per clause is feasible.

    Guarded: refuses to enumerate more than ``SELECTION_LIMIT`` selections.
    An empty clause admits no selection, so the answer is False; the empty
    condition has the single empty selection and the answer is True.
    """
    total = 1
    for clause in condition.clauses:
        total *= len(clause.literals)
    if total > SELECTION_LIMIT:
        raise TooManySelections(f"{total} selections exceed the limit {SELECTION_LIMIT}")
    for pick in itertools.product(*(clause.literals for clause in condition.clauses)):
        if _feasible([literal.coeffs for literal in pick], condition.num_vars):
            return True
    return False
