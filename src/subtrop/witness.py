"""Symbolic positivity witnesses and their exact verification.

Once an integer vector n certifies the dominance condition of a system,
the point ``x = t^n`` (coordinate-wise powers) satisfies every inequality
for every positive choice of coefficients, where ``t`` is 1 plus the sum
of the ratios negative-coefficient / positive-coefficient over all
same-row sign pairs.  Any base ``r >= t`` works as well.  That sum
factors row by row (proof at :func:`_t_from_rows`), and t is kept in this
one form only: for each row, the names of its negative and of its
positive coefficients (:func:`symbolic_t`), or their values summed in
ints (:func:`_t_from_rows`).  This module also computes the cruder
all-integer-coefficient bound ``1 + v * sum of negative coefficients``,
and checks ``f(r^n) > 0`` by exact evaluation.

An exponent vector n is a plain sequence of ints.  One gate checks it for
:func:`symbolic_t` and :func:`verify_witness` alike: it rejects systems
with an identically zero row, entries that are not ints (a ``bool`` or a
``Fraction`` among them) and vectors that fail the dominance condition
(:func:`~subtrop.refutation.certifies`, which ``decide --check`` runs too).
:func:`verify_witness` builds no symbolic witness.  It computes ``t`` from
per-row sums, one numerator and one denominator in ints, and checks at
``r = t`` unless it is given an ``r >= t``.  It keeps ``r^n`` as int
pairs ``(p^n_i, q^n_i)`` and sums each row over one common denominator
(:func:`_row_values`).  Fractions are built only for the report, or for
the value an error names.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from fractions import Fraction
from itertools import chain

from .core import (
    ConcreteCoefficients,
    SignedSystem,
    SubtropError,
    _require_int,
    _Value,
    zero_sign_rows,
)
from .refutation import certifies


class PreconditionViolated(SubtropError):
    """A caller-side precondition does not hold (bad r, uncertified n, ...)."""


class UncertifiedExponent(PreconditionViolated):
    """The supplied exponent vector fails some clause of the dominance condition."""


class UnboundCoefficient(SubtropError):
    """A coefficient name has no concrete value."""


class NonIntegerCoefficient(SubtropError):
    """The integer-coefficient bound was asked of a non-integer system."""


class WitnessFailure(SubtropError):
    """A verification that must succeed came out negative: an implementation defect."""


class SizeLimitExceeded(SubtropError):
    """Exact evaluation would exceed the configured bit-size guard."""


_NamedRow = tuple[int, tuple[str, ...], tuple[str, ...]]


class SymbolicWitness(_Value):
    """The witness ``x = t^n``, with ``t = 1 + sum over rows of (sum neg) * (sum 1/pos)``.

    ``rows`` holds ``(i, neg, pos)`` for each row i with negative
    monomials, in index order: the names of the row's negative and of its
    positive coefficients.
    """

    __slots__ = ("rows", "n")
    rows: tuple[_NamedRow, ...]
    n: tuple[int, ...]

    def to_json_dict(self) -> dict:
        rows = [{"row": i, "neg": list(neg), "pos": list(pos)} for i, neg, pos in self.rows]
        return {"t": {"one": 1, "rows": rows}, "n": list(self.n)}

    def to_display_text(self) -> str:
        parts = ["1"] + [
            f"({' + '.join(neg)})*({' + '.join('1/' + name for name in pos)})"
            for _, neg, pos in self.rows
        ]
        z = ", ".join(f"t^{ni}" for ni in self.n)
        return f"t = {' + '.join(parts)}; z = ({z})"


class VerificationReport(_Value):
    """Outcome of one exact check of ``f(r^n) > 0``; every entry of ``values`` is > 0."""

    __slots__ = ("t_value", "r_value", "point", "values")
    t_value: Fraction
    r_value: Fraction
    point: tuple[Fraction, ...]
    values: tuple[Fraction, ...]


def _named_rows(system: SignedSystem) -> tuple[_NamedRow, ...]:
    """``(i, neg, pos)`` for each row with negative monomials, its names read beside its terms.

    Concrete systems use the synthesized positional names ``c_<i+1>_<j+1>``.
    """
    rows = []
    for i, terms in enumerate(system.s.entries):
        if system.is_parametric:
            names = system.c.names[i]
        else:
            names = [f"c_{i + 1}_{j + 1}" for j, _ in terms]
        neg = tuple(name for (_, sign), name in zip(terms, names) if sign < 0)
        if neg:
            rows.append((i, neg, tuple(name for (_, sign), name in zip(terms, names) if sign > 0)))
    return tuple(rows)


def _certified_exponent(system: SignedSystem, n) -> tuple[int, ...]:
    """``n`` as a tuple of ints of length ``d`` that certifies ``system``.

    A system with an identically zero row raises :class:`PreconditionViolated`
    whatever ``n`` is: that row adds no clause, yet no point makes it
    positive.  ``n`` is any sequence of ints.  A ``bool`` or ``Fraction``
    entry raises :class:`TypeError` before the dominance check, which would
    accept a ``Fraction`` and leave ``r**n_i`` a float.  A vector of the
    wrong length or one that fails a clause raises :class:`UncertifiedExponent`.
    """
    zeros = zero_sign_rows(system)
    if zeros:
        raise PreconditionViolated(f"row {zeros[0]} is identically zero; f > 0 cannot hold")
    n = tuple(n)
    for x in n:
        _require_int(x, "exponent vector entry")
    if len(n) != system.d:
        raise UncertifiedExponent(f"expected {system.d} entries, got {len(n)}")
    if not certifies(system, n):
        raise UncertifiedExponent(f"{n} does not satisfy the dominance condition")
    return n


def symbolic_t(system: SignedSystem, n) -> SymbolicWitness:
    """Witness for a certified exponent vector, behind the same gate as :func:`verify_witness`."""
    n = _certified_exponent(system, n)
    return SymbolicWitness(_named_rows(system), n)


def instantiate(system: SignedSystem, bindings: Mapping[str, Fraction | int]) -> SignedSystem:
    """Replace parametric coefficient names by concrete positive values.

    Every name occurring in the system must be bound; extra bindings are
    ignored so one value file can serve several systems.  Each term's value
    takes the place of its name.  :class:`ConcreteCoefficients` checks the
    bound values; the system around them is built without checks, as its
    shapes are those of ``system``.
    """
    if not system.is_parametric:
        raise ValueError("system already has concrete coefficients")
    for name in chain.from_iterable(system.c.names):
        if name not in bindings:
            raise UnboundCoefficient(f"no value bound for coefficient {name!r}")
    values = ConcreteCoefficients(tuple(map(bindings.__getitem__, row)) for row in system.c.names)
    return SignedSystem._make(system.s, system.e, values, system.var_names)


def uniform_bound(system: SignedSystem) -> Fraction:
    """``1 + v * (sum of all negative-sign coefficients)`` for integer systems.

    Requires concrete integer coefficients >= 1 on every term.  The sum
    runs over the negative terms of every row, so the result dominates the
    analogous bound of any single row and in particular dominates t.
    """
    if system.is_parametric:
        raise NonIntegerCoefficient("the bound needs concrete integer coefficients")
    total = Fraction(0)
    for i, (terms, values) in enumerate(zip(system.s.entries, system.c.values)):
        for (j, sign), value in zip(terms, values):
            if value.denominator != 1:
                raise NonIntegerCoefficient(f"coefficient ({i}, {j}) = {value} is not an integer")
            if sign < 0:
                total += value
    return Fraction(1) + system.v * total


def _row_values(system: SignedSystem, coords) -> list[tuple[int, int]]:
    """Each row's value at the point ``(p_i / q_i)`` as an int pair ``(total, den)``.

    ``coords`` holds the pairs ``(p_i, q_i)`` of positive ints.  Every
    monomial is an integer over the common denominator
    ``prod_i q_i^(max_j e_ji)``.  Each row is summed as integers over that
    times the least common denominator of its coefficients, so
    ``f_i = total / den`` with ``den > 0``, not reduced.
    """
    exponents = system.e.entries
    top = [max(column) for column in zip(*exponents)]
    common = math.prod(q**m for (_, q), m in zip(coords, top))
    monomials = [
        math.prod(p**e * q ** (m - e) for (p, q), e, m in zip(coords, exps, top))
        for exps in exponents
    ]
    values = []
    for sign_row, value_row in zip(system.s.entries, system.c.values):
        terms = [(s, c, monomials[j]) for (j, s), c in zip(sign_row, value_row)]
        den = math.lcm(*(c.denominator for _, c, _ in terms))
        total = sum(s * c.numerator * (den // c.denominator) * m for s, c, m in terms)
        values.append((total, den * common))
    return values


def _t_from_rows(system: SignedSystem) -> Fraction:
    """Exact t of a concrete system, in O(sum of |P_i| + |N_i|) steps.

    This is the value of the t that :func:`symbolic_t` names, row by row.
    Proof that it is the paper's t: the paper states t as
    ``1 + sum_i sum_{k in N_i} sum_{j in P_i} c_k / c_j``, one term per
    same-row sign pair, with ``P_i`` and ``N_i`` the positive and negative
    monomials of row i.  For each row, distributivity factors the
    double sum as ``(sum_{k in N_i} c_k) * (sum_{j in P_i} 1 / c_j)``.  A row
    without negative monomials contributes an empty sum, 0, and those are
    the rows that :func:`~subtrop.condition.dominance_rows` skips.  So
    ``t = 1 + sum_i (sum_{k in N_i} c_k) * (sum_{j in P_i} 1 / c_j)``, over
    the rows it yields, as the same rational.  Each row's terms are read
    side by side with its coefficients.

    With ``c = p / q`` in lowest terms, ``sum_k c_k = a / b`` over
    ``b = lcm(q_k)`` and ``sum_j 1 / c_j = sum_j q_j / p_j = a' / b'`` over
    ``b' = lcm(p_j)``, so row i adds ``a a' / (b b')``.  The rows are added
    over the lcm of their denominators, and one Fraction is built at the end.
    """
    numerators, denominators = [], []
    for terms, row in zip(system.s.entries, system.c.values):
        neg = [c for (_, sign), c in zip(terms, row) if sign < 0]
        if not neg:
            continue
        pos = [c for (_, sign), c in zip(terms, row) if sign > 0]
        neg_den = math.lcm(*(c.denominator for c in neg))
        neg_sum = sum(c.numerator * (neg_den // c.denominator) for c in neg)
        pos_den = math.lcm(*(c.numerator for c in pos))
        pos_sum = sum(c.denominator * (pos_den // c.numerator) for c in pos)
        numerators.append(neg_sum * pos_sum)
        denominators.append(neg_den * pos_den)
    den = math.lcm(*denominators)
    return Fraction(den + sum(num * (den // d) for num, d in zip(numerators, denominators)), den)


def _check_size_guard(system: SignedSystem, n: tuple[int, ...], r: Fraction, max_bits: int):
    """Refuse a point ``r^n`` whose exact evaluation builds numbers above ``max_bits`` bits.

    :func:`_row_values` puts every monomial over the common
    denominator ``prod_i q_i^(top_i)``, ``top`` the componentwise largest
    exponent, so each integer it builds has about ``sum_i top_i * bits_i``
    bits, where ``bits_i`` bounds coordinate i.  That sum also bounds every
    single monomial.
    """
    bits_r = max(r.numerator.bit_length(), r.denominator.bit_length())
    coord_bits = [bits_r * max(1, abs(ni)) for ni in n]
    if any(b > max_bits for b in coord_bits):
        raise SizeLimitExceeded(f"a coordinate of r^n would exceed {max_bits} bits")
    top = [max(column) for column in zip(*system.e.entries)]
    if sum(m * b for m, b in zip(top, coord_bits)) > max_bits:
        raise SizeLimitExceeded(f"evaluating f at r^n would exceed {max_bits} bits")


def verify_witness(
    system: SignedSystem,
    n,
    r=None,
    *,
    max_bits: int | None = None,
) -> VerificationReport:
    """Check ``f(r^n) > 0`` exactly for a concrete system, certified n, and r >= t.

    ``r`` defaults to ``t`` itself, which is computed once either way, from
    per-row sums (:func:`_t_from_rows`).  The point ``r^n`` stays as int
    pairs until the report is built.  Under those preconditions success is
    guaranteed, so a negative outcome is raised as :class:`WitnessFailure`
    rather than returned.
    """
    if system.is_parametric:
        raise PreconditionViolated("verification needs concrete coefficients")
    if isinstance(r, float):
        raise TypeError(f"r must be an exact rational, got float {r!r}")
    if r is not None:
        r = Fraction(r)
    n = _certified_exponent(system, n)
    t_value = _t_from_rows(system)
    if r is None:
        r = t_value
    elif r < t_value:
        raise PreconditionViolated(f"r = {r} is below t = {t_value}")
    if max_bits is not None:
        _check_size_guard(system, n, r, max_bits)
    # r >= t >= 1, so p and q are positive and each pair is in lowest terms
    p, q = r.numerator, r.denominator
    coords = [(p**ni, q**ni) if ni >= 0 else (q**-ni, p**-ni) for ni in n]
    rows = _row_values(system, coords)
    bad = next((i for i, (total, _) in enumerate(rows) if total <= 0), None)
    if bad is not None:
        value = Fraction(*rows[bad])
        raise WitnessFailure(f"row {bad} evaluates to {value} at r = {r}, n = {n}")
    point = tuple(Fraction(num, den) for num, den in coords)
    values = tuple(Fraction(total, den) for total, den in rows)
    return VerificationReport(t_value, r, point, values)
