"""Seeded random generators shared by the property and acceptance tests."""

from __future__ import annotations

import random
from fractions import Fraction

from subtrop import SignedSystem
from subtrop.condition import Clause, LinearCondition, LinearLiteral
from subtrop.core import (
    ConcreteCoefficients,
    ExponentMatrix,
    ParametricCoefficients,
    SignMatrix,
)


def random_exponent_rows(rng: random.Random, v: int, d: int, max_exp: int):
    """min(v, (max_exp+1)^d) distinct exponent vectors with entries in [0, max_exp]."""
    v = min(v, (max_exp + 1) ** d)
    rows: list[tuple[int, ...]] = []
    seen = set()
    while len(rows) < v:
        row = tuple(rng.randint(0, max_exp) for _ in range(d))
        if row not in seen:
            seen.add(row)
            rows.append(row)
    return tuple(rows)


def random_sign_rows(rng: random.Random, u: int, v: int, *, ensure_positive: bool):
    """Sign rows with at least one nonzero entry each; optionally one positive entry."""
    rows = []
    for _ in range(u):
        while True:
            row = [rng.choice((-1, 0, 1)) for _ in range(v)]
            if ensure_positive and not any(x > 0 for x in row):
                continue
            if any(x != 0 for x in row):
                break
        rows.append(tuple(row))
    return tuple(rows)


def random_signed_system(
    rng: random.Random,
    *,
    max_rows: int = 3,
    max_monomials: int = 6,
    max_vars: int = 3,
    max_exp: int = 5,
    parametric: bool = True,
    integer_coeffs: bool = False,
    ensure_positive: bool = True,
) -> SignedSystem:
    u = rng.randint(1, max_rows)
    v = rng.randint(1, max_monomials)
    d = rng.randint(1, max_vars)
    exps = random_exponent_rows(rng, v, d, max_exp)
    v = len(exps)  # fewer than asked for when the box [0, max_exp]^d is small
    signs = random_sign_rows(rng, u, v, ensure_positive=ensure_positive)
    if parametric:
        return template_system(signs, exps)
    terms = sparse_rows(signs)
    spec = ConcreteCoefficients(
        tuple(tuple(random_positive_value(rng, integer=integer_coeffs) for _ in row)
              for row in terms)
    )
    var_names = tuple(f"x{i + 1}" for i in range(d))
    return SignedSystem(SignMatrix(terms, v), ExponentMatrix(exps, cols=d), spec, var_names)


def sparse_rows(signs):
    """The ``(column, sign)`` terms of each dense sign row, as :class:`SignMatrix` stores them."""
    return tuple(tuple((j, x) for j, x in enumerate(row) if x) for row in signs)


def template_system(signs, exps) -> SignedSystem:
    """The template with coefficient ``k<i>_<j>`` on every signed entry (1-based).

    ``signs`` holds dense rows over the columns of ``exps``.
    """
    terms = sparse_rows(signs)
    names = tuple(tuple(f"k{i + 1}_{j + 1}" for j, _ in row) for i, row in enumerate(terms))
    var_names = tuple(f"x{i + 1}" for i in range(len(exps[0])))
    return SignedSystem(
        SignMatrix(terms, len(exps)), ExponentMatrix(exps, cols=len(exps[0])),
        ParametricCoefficients(names), var_names,
    )


def random_positive_value(rng: random.Random, *, integer: bool = False) -> Fraction:
    if integer:
        return Fraction(rng.randint(1, 10))
    return Fraction(rng.randint(1, 10), rng.randint(1, 10))


def random_bindings(rng: random.Random, system: SignedSystem) -> dict[str, Fraction]:
    return {name: random_positive_value(rng) for row in system.c.names for name in row}


def random_condition(
    rng: random.Random,
    *,
    max_vars: int = 3,
    max_clauses: int = 6,
    max_literals: int = 4,
    max_exp: int = 5,
) -> LinearCondition:
    """Condition whose literal vectors are differences of random exponent vectors."""
    d = rng.randint(1, max_vars)
    clauses = []
    for c in range(rng.randint(0, max_clauses)):
        literals = []
        for l in range(rng.randint(0, max_literals)):
            ej = tuple(rng.randint(0, max_exp) for _ in range(d))
            ek = tuple(rng.randint(0, max_exp) for _ in range(d))
            coeffs = tuple(a - b for a, b in zip(ej, ek))
            literals.append(LinearLiteral(coeffs, 0, l + 1, 0))
        clauses.append(Clause(0, c, tuple(literals)))
    return LinearCondition(d, tuple(clauses))


def long_row_text(k: int, *, unsat: bool = False) -> str:
    """``.spp`` text of ``c*x^2000 - sum_{j=1..k} c_j x^j``, with ``- d*x^2001`` if unsat.

    The CNF has one single-literal clause per negative term, so a
    depth-first search descends k levels; the extra term contradicts every
    other clause and makes the row unsatisfiable.
    """
    terms = "".join(f" - c{j}*x^{j}" for j in range(1, k + 1))
    return f"vars x\npoly f = c*x^2000{terms}{' - d*x^2001' if unsat else ''}\n"
