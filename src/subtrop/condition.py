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
the largest ``e_k . n`` over negative k.  That check lives apart, in
:func:`~subtrop.refutation.certifies`, so that it shares no code with this
module.

All of these walk the rows through :func:`dominance_rows`, the one
definition of the order of clauses, literals and branches.
:func:`write_cnf`, which ``explain`` runs, writes the CNF's clauses from
that walk, each clause one join of its literals' openings and tokens, with
token columns taken from the row before where its distinct exponents
recur; the CNF as objects (:func:`build_cnf`) is built only for the
brute-force oracle of the tests and the benchmark.

The argmax argument also bounds where a vector can move: at a certified n,
the branches of each row's highest positive monomial define a convex
polyhedron that contains n, and every integer point of it certifies the
system.  :func:`shrink` walks n toward 0 inside that polyhedron, picking
each row's branch among the search's own :func:`build_dnf` rows.
"""

from __future__ import annotations

from collections.abc import Iterator
from operator import getitem, itemgetter, mul, sub

from .core import SignedSystem, _Value


class LinearLiteral(_Value):
    """One dominance constraint ``coeffs . n >= 1`` with ``coeffs = e[pos] - e[neg]``."""

    __slots__ = ("coeffs", "row", "pos", "neg")
    coeffs: tuple[int, ...]
    row: int
    pos: int
    neg: int

    def __init__(self, coeffs, row: int, pos: int, neg: int):
        super().__init__(tuple(coeffs), row, pos, neg)

    def value_at(self, n):
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
        super().__init__(row, neg, tuple(literals))

    def satisfied_by(self, n) -> bool:
        return any(lit.satisfied_by(n) for lit in self.literals)


class LinearCondition(_Value):
    """CNF of dominance constraints; clauses ordered by (row, neg), literals by pos."""

    __slots__ = ("num_vars", "clauses")
    num_vars: int
    clauses: tuple[Clause, ...]

    def __init__(self, num_vars: int, clauses):
        super().__init__(num_vars, tuple(clauses))

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
    for i, terms in enumerate(system.s.entries):
        # a row holds only its terms, in increasing column, so this reads no other column
        negative = [k for k, sign in terms if sign < 0]
        if negative:
            yield i, [j for j, sign in terms if sign > 0], negative


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


class _Memo(dict):
    """A dict that fills a missing key with ``make(key)`` the first time it is asked for."""

    __slots__ = ("make",)

    def __init__(self, make):
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


# a token table past this many entries is cleared after a row, so that exponents
# with many distinct differences hold memory per row, not per call
_TOKENS_KEPT = 4096


def write_cnf(system: SignedSystem, write, as_json: bool):
    """Pass the text or JSON of :func:`build_cnf` to ``write``, row by row, without building it.

    The text is ``build_cnf(system).to_debug_text()`` plus a newline, or
    nothing without clauses; the JSON is ``json.dumps`` of ``{"num_vars",
    "clauses"}`` plus a newline.  ``write`` gets one string per row of
    :func:`dominance_rows`, plus the JSON's opening and closing, never the
    whole output; in JSON, the separator from the row before opens the
    row's first clause.  Each int becomes text once per call, with its
    separator, in a token table per coordinate.  A row's tokens of
    ``e_j[c] - a`` over its positive ``j`` form a column, made once for each
    value ``a`` that some negative ``e_k[c]`` takes.  Its tokens are those
    of ``x - a`` over the sorted distinct values ``x`` of the ``e_j[c]``,
    fanned out to every ``j`` by one ``operator.itemgetter`` of each ``j``'s
    position among them, built once per row and coordinate.  When the row
    before had the same distinct values at ``c`` and made a column for each
    value this row needs, the row's columns are gathered from the row
    before's instead, each ``j`` taking the token of a positive monomial
    there with the same ``e[c]``.  Only the row before's columns are kept,
    so they hold no more memory than one row's.  The row's literals lie in
    one flat list of ``d + 1`` slots each, an opening and ``d`` tokens, and
    then the ending (``"]\\n"``, or ``"]}]}"`` in JSON).  A later literal's
    opening is the joint ``"] [j:"``, made once per row; the first
    literal's is the clause's own opening, ``"clause i k: [j:"``, filled
    in per clause.  A clause assigns ``e_k``'s columns to the slices
    ``c + 1::d + 1`` and is the list's one join.  Sums of exponents may
    pass CPython's 4300-digit int-to-text limit, which the caller lifts, as
    :func:`subtrop.cli.main` does.
    """
    d, width, exponents = system.d, system.d + 1, system.e.entries
    if as_json:
        write(f'{{"num_vars": {d}, "clauses": [')
        tokens = [_Memo("%d".__mod__)] + [_Memo(", %d".__mod__)] * (d - 1)
        opening = '{{"row": {}, "neg": %d, "literals": [{{"pos": {}, "coeffs": ['
        empty = '{{"row": {}, "neg": %d, "literals": []}}'
        joint, ending, between = ']}}, {{"pos": {}, "coeffs": [', "]}]}", ", "
    else:
        tokens = [_Memo(" %d".__mod__)] * d
        opening, empty = "clause {} %d: [{}:", "clause {} %d:\n"
        joint, ending, between = "] [{}:", "]\n", ""
    sep = ""
    kept = [[None] * d] * 3  # the row before's value sets, values and columns, per coordinate
    for i, positive, negative in dominance_rows(system):
        if positive:
            head = opening.format(i, positive[0])
            flat = [None] * (width * len(positive) + 1)  # per literal: opening, d tokens
            flat[width::width] = [*map(joint.format, positive[1:]), ending]
            values = list(zip(*map(exponents.__getitem__, positive)))
        else:
            head, flat, values = empty.format(i), [None], [()] * d
        sets = list(map(set, values))
        columns = []  # per coordinate c and value a, the tokens of e_j[c] - a
        needs = map(set, zip(*map(exponents.__getitem__, negative)))
        for v, seen, t, needed, last, w, old in zip(values, sets, tokens, needs, *kept):
            if seen == last and len(v) > 1 and old.keys() >= needed:
                # the row before has the same distinct values here and a column for each
                # a: every j takes its token from a positive monomial there with e_j[c]
                move = itemgetter(*map(dict(zip(w, range(len(w)))).__getitem__, v))
                columns.append({a: move(old[a]) for a in needed})
                continue
            distinct = sorted(seen)
            # one index would give a scalar and none a TypeError; with at most one
            # positive monomial the distinct values' tokens are the column itself
            gather = (
                itemgetter(*map({x: p for p, x in enumerate(distinct)}.__getitem__, v))
                if len(v) > 1 else list
            )
            columns.append({a: gather([t[x - a] for x in distinct]) for a in needed})
        kept = sets, values, columns
        first, later = sep + head, between + head
        clauses = []
        for k in negative:
            flat[0] = first % k
            first = later
            for c, column in enumerate(map(getitem, columns, exponents[k]), 1):
                flat[c::width] = column
            clauses.append("".join(flat))
        write("".join(clauses))
        sep = between
        for table in tokens:
            if len(table) > _TOKENS_KEPT:
                table.clear()
    if as_json:
        write("]}\n")


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


def shrink(num_vars: int, rows, n) -> tuple[int, ...]:
    """A vector that meets ``rows`` and lies no farther from 0 than ``n`` in any coordinate.

    ``rows`` are :func:`build_dnf`'s branches of a system, and ``n`` must
    have length ``num_vars`` and certify that system, or ValueError is
    raised.  Any certified vector is a valid answer, and a smaller one gives
    a smaller witness point ``t^n`` that is cheaper to check exactly.
    Each round picks, in each row, the branch whose first form
    ``e_j - e_k0`` is largest at ``n``, the first on a tie: every branch of
    a row starts with the same ``k0``, so this is the positive monomial of
    greatest height ``e_j . n``.  The round checks that each form of that
    branch is at least 1 at ``n``.  The branches picked define a polyhedron
    that contains the vector, and the round moves the vector toward 0 inside
    it (:func:`_descend`).  The rounds end when the vector is a fixed point
    of its own polyhedron.  Every point reached lies in such a polyhedron,
    so it certifies, and since ``sum(|n_i|)`` falls with every round but
    the last, the rounds end.
    """
    if len(n) != num_vars:
        raise ValueError(f"expected a vector of length {num_vars}, got {len(n)}")
    n = list(n)
    while True:
        forms: list[tuple[int, ...]] = []
        values: list[int] = []
        for branches in rows:
            branch = max(branches, key=lambda b: sum(map(mul, b[0], n)), default=())
            branch_values = [sum(map(mul, a, n)) for a in branch]
            if not branch_values or min(branch_values) < 1:
                raise ValueError(f"{tuple(n)} does not certify the system")
            forms += branch
            values += branch_values
        if not _descend(forms, values, n):
            return tuple(n)
