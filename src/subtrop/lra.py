"""Exact rational satisfiability for the linear dominance condition.

One incremental general simplex over :class:`fractions.Fraction`, in the
style of Dutertre & de Moura (CAV 2006), decides every conjunction of
``coeffs . n >= 1`` literals.  Each distinct primitive linear form gets one
slack variable (``coeffs / gcd``, signed so that a form and its negation
share it), and a literal becomes a rational lower or upper bound on that
slack; a literal with a single nonzero coefficient bounds its variable
directly.  Bounds are asserted and retracted; the assignment is never
rebuilt, and only the rows of slacks without bounds are dropped and
rebuilt.  Bland's rule (smallest index first) picks every pivot, so each
check terminates.  An infeasible check names the bounds of one violated
tableau row, whose conjunction is infeasible by Farkas' lemma.

The one entry point, :func:`solve_dnf`, searches rows, as
:func:`~subtrop.condition.build_dnf` gives them: a level is a row with
negative monomials, and an alternative is a branch of the row: for one
positive monomial j, the tuple of forms ``e_j - e_k`` over the negative k,
all asserted as bounds at the row's level.  No solution of the CNF is lost: at
any n satisfying it, the positive monomial that maximises ``e_j . n``
dominates every negative one (the argmax argument of
:mod:`subtrop.condition`).  A row of ``|P|`` positive and ``|N|`` negative
monomials thus offers ``|P|`` choices instead of the CNF's ``|P|^|N|``.

The search runs depth first with conflict-directed backjumping.  Every
conflict records the lower levels it involves; when a level runs out of
alternatives, the search jumps back to the highest level recorded for it,
and that level inherits the rest.  The skipped subtrees hold no feasible
full choice, so the search finds the same first choice as chronological
depth-first search in (row, positive monomial) order.

The model is the simplex assignment of ``n`` there, a tuple of
:class:`~fractions.Fraction`.  Every nonbasic variable sits at 0 or at the
value of a bound asserted during the search; basic variables follow from
the tableau.  Before it is returned, the model is checked by direct
substitution against every form of the chosen branches.

Feasibility over the rationals and over the reals coincide for these
conditions, so a rational "no" is a real "no".  Integer solutions come
from clearing denominators, never from integer programming: multiplying a
model by any positive integer preserves every ``coeffs . n >= delta >= 1``.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction

from .core import SubtropError


class SolverDefect(SubtropError):
    """Internal soundness check failed; indicates a bug, never a valid outcome."""


LOWER, UPPER = 0, 1


def _reduced(den: int, nums: list[int]) -> tuple[int, list[int]]:
    """Row ``(den, nums)`` divided by the common factor of its entries."""
    g = math.gcd(den, *nums)
    return (den, nums) if g == 1 else (den // g, [c // g for c in nums])


class _Simplex:
    """Tableau, assignment and leveled bounds of the incremental simplex.

    Variables ``0 .. num_vars-1`` are the entries of ``n``; slacks follow in
    creation order.  There are always ``num_vars`` nonbasic variables;
    ``nonbasic[p]`` is the one in column ``p`` and ``column`` inverts that.
    ``rows`` maps each basic variable to its row ``(den, nums)``: the
    variable equals ``sum(nums[p] * nonbasic[p]) / den``, with integer
    ``nums`` and ``den > 0``, so pivots run on integers.  A basic slack
    without bounds can never be violated, so it keeps no row; the row is
    rebuilt from the slack's form when a bound is next asserted on it.
    ``bounds[LOWER]`` and ``bounds[UPPER]`` hold each variable's bounds,
    ``levels`` the decision levels that asserted them, and the trail what
    each assertion replaced, so :meth:`backtrack` restores older bounds
    exactly.
    """

    def __init__(self, num_vars: int):
        self.num_vars = num_vars
        self.value: list[Fraction] = [Fraction(0)] * num_vars
        self.bounds: tuple[list[Fraction | None], ...] = ([None] * num_vars, [None] * num_vars)
        self.levels: tuple[list[int], ...] = ([0] * num_vars, [0] * num_vars)
        self.nonbasic = list(range(num_vars))
        self.column = {j: j for j in range(num_vars)}
        self.rows: dict[int, tuple[int, list[int]]] = {}
        self.trail: list[tuple[int, int, Fraction | None, int, int]] = []
        self._forms: list[tuple[int, ...]] = []
        self._slacks: dict[tuple[int, ...], int] = {}
        self._literals: dict[tuple[int, ...], tuple[int, int, Fraction] | None] = {}

    def _new_slack(self, form: tuple[int, ...]) -> int:
        """A new slack for ``form . n``, basic and without bounds, so without a row."""
        var = len(self.value)
        self._forms.append(form)
        self.value.append(Fraction(0))
        for side in (LOWER, UPPER):
            self.bounds[side].append(None)
            self.levels[side].append(0)
        self._slacks[form] = var
        return var

    def _activate(self, var: int):
        """Give slack ``var`` its row and value over the current nonbasic variables."""
        form = self._forms[var - self.num_vars]
        den = math.lcm(*(self.rows[j][0] for j, a in enumerate(form) if a and j in self.rows))
        nums = [0] * self.num_vars
        for j, a in enumerate(form):
            if a and j in self.rows:
                row_den, row = self.rows[j]
                scale = a * (den // row_den)
                nums = [x + scale * c for x, c in zip(nums, row)]
            elif a:
                nums[self.column[j]] += a * den
        self.rows[var] = _reduced(den, nums)
        self.value[var] = sum(a * x for a, x in zip(form, self.value))

    def _literal(self, coeffs: tuple[int, ...]) -> tuple[int, int, Fraction] | None:
        """``coeffs . n >= 1`` as (variable, LOWER or UPPER, bound); None if all zero.

        With ``coeffs = g * form``, ``form`` primitive and its first nonzero
        entry positive, the literal bounds ``form . n`` by ``1/g`` from
        below when ``g > 0`` and from above when ``g < 0``.  A form with one
        nonzero entry is a variable of ``n`` itself.
        """
        if coeffs in self._literals:
            return self._literals[coeffs]
        support = [j for j, a in enumerate(coeffs) if a]
        found = None
        if support:
            g = math.gcd(*coeffs) if coeffs[support[0]] > 0 else -math.gcd(*coeffs)
            if len(support) == 1:
                var = support[0]
            else:
                form = tuple(a // g for a in coeffs)
                var = self._slacks.get(form)
                if var is None:
                    var = self._new_slack(form)
            found = (var, LOWER if g > 0 else UPPER, Fraction(1, g))
        self._literals[coeffs] = found
        return found

    def assert_literal(self, coeffs: tuple[int, ...], level: int) -> set[int] | None:
        """Assert ``coeffs . n >= 1`` at ``level``; the conflicting levels, or None.

        Only a clash with the variable's opposite bound is found here;
        :meth:`check` finds the rest.
        """
        literal = self._literal(coeffs)
        if literal is None:
            return {level}
        var, side, bound = literal
        if var not in self.rows and var not in self.column:
            self._activate(var)
        sign = 1 if side == LOWER else -1
        old = self.bounds[side][var]
        if old is not None and sign * old >= sign * bound:
            return None
        opposite = self.bounds[1 - side][var]
        if opposite is not None and sign * opposite < sign * bound:
            return {self.levels[1 - side][var], level}
        self.trail.append((var, side, old, self.levels[side][var], level))
        self.bounds[side][var] = bound
        self.levels[side][var] = level
        if var in self.column and sign * self.value[var] < sign * bound:
            self._update(var, bound)
        return None

    def backtrack(self, level: int):
        """Retract every bound asserted at ``level`` or above; the assignment stays."""
        trail = self.trail
        while trail and trail[-1][4] >= level:
            var, side, old, old_level, _ = trail.pop()
            self.bounds[side][var] = old
            self.levels[side][var] = old_level
            self._drop_if_free(var)

    def _drop_if_free(self, var: int):
        """Forget the row of a basic slack without bounds; it can never be violated."""
        free = self.bounds[LOWER][var] is None and self.bounds[UPPER][var] is None
        if free and var >= self.num_vars:
            self.rows.pop(var, None)

    def _update(self, var: int, target: Fraction):
        """Move nonbasic ``var`` to ``target`` and carry the change into every row."""
        value = self.value
        delta = target - value[var]
        num, den = delta.numerator, delta.denominator
        p = self.column[var]
        for basic, (row_den, row) in self.rows.items():
            if row[p]:
                value[basic] += Fraction(row[p] * num, row_den * den)
        value[var] = target

    def _pivot(self, basic: int, p: int, target: Fraction):
        """Set ``basic`` to ``target`` by moving the nonbasic of column ``p``; swap them."""
        value, rows = self.value, self.rows
        entering = self.nonbasic[p]
        den, row = rows.pop(basic)
        a = row[p]
        theta = (target - value[basic]) * den / a
        value[basic] = target
        value[entering] += theta
        num, den_theta = theta.numerator, theta.denominator
        # entering = (den * basic - sum of the row's other terms) / a, written with
        # basic in column p and a positive denominator
        sign = 1 if a > 0 else -1
        new_den = sign * a
        new_row = [-sign * c for c in row]
        new_row[p] = sign * den
        for other, (other_den, other_row) in rows.items():
            c = other_row[p]
            if not c:
                continue
            value[other] += Fraction(c * num, den_theta * other_den)
            nums = [b * new_den + c * e for b, e in zip(other_row, new_row)]
            nums[p] = c * new_row[p]
            rows[other] = _reduced(other_den * new_den, nums)
        rows[entering] = (new_den, new_row)
        self.nonbasic[p] = basic
        del self.column[entering]
        self.column[basic] = p
        self._drop_if_free(entering)

    def check(self) -> set[int] | None:
        """Restore every bound by Bland-rule pivoting; the conflicting levels, or None.

        On conflict, the levels are those of the bounds in the violated
        row: the basic variable's violated bound and, for each nonbasic
        variable of the row, the bound that blocks it.
        """
        value, (lower, upper), nonbasic = self.value, self.bounds, self.nonbasic
        while True:
            for basic in sorted(self.rows):
                x = value[basic]
                if lower[basic] is not None and x < lower[basic]:
                    side = LOWER
                    break
                if upper[basic] is not None and x > upper[basic]:
                    side = UPPER
                    break
            else:
                return None
            row = self.rows[basic][1]
            # the bound that stops each nonbasic variable from moving basic toward its
            # bound: raising a variable with a positive coefficient raises basic
            up = side == LOWER
            blocking = [UPPER if (c > 0) == up else LOWER for c in row]
            free = [
                p for p, c in enumerate(row)
                if c and value[nonbasic[p]] != self.bounds[blocking[p]][nonbasic[p]]
            ]
            if not free:
                return {self.levels[side][basic]} | {
                    self.levels[blocking[p]][nonbasic[p]] for p, c in enumerate(row) if c
                }
            self._pivot(basic, min(free, key=nonbasic.__getitem__), self.bounds[side][basic])


def solve_dnf(
    num_vars: int, rows: Sequence[Sequence[Sequence[tuple[int, ...]]]]
) -> tuple[Fraction, ...] | None:
    """Model of the first feasible choice of one branch per row, or None.

    ``rows[i]`` lists the branches of row i and a branch is a tuple of
    forms ``coeffs``, each meaning ``coeffs . n >= 1``; from
    :func:`~subtrop.condition.build_dnf`, branch j of a row holds
    ``e_j - e_k`` for every negative k, so the first feasible choice is the
    first in (row, positive monomial) order.  Choosing a branch
    asserts all of its forms as bounds at level i, then the simplex checks
    once.  A conflict adds the lower levels it involves to the level's
    conflict set.  A level whose branches are exhausted jumps back to the
    highest level in its set, which inherits the rest of the set; an empty
    set means no choice is feasible.  Only subtrees without a feasible full
    choice are skipped, so the choice found is the first feasible one in
    stored order, as chronological search would find it.  The model is the
    simplex assignment of ``n`` there: each nonbasic variable sits at 0 or
    at a bound asserted during the search.
    """
    if any(not branches for branches in rows):
        return None
    engine = _Simplex(num_vars)
    depth = len(rows)
    choice = [0] * (depth + 1)
    conflicts: dict[int, set[int]] = {}  # level -> lower levels its branches conflict with
    level = 0
    while level < depth:
        branches = rows[level]
        if choice[level] < len(branches):
            engine.backtrack(level)  # retracts the level's previous branch, if any
            culprits = None
            for coeffs in branches[choice[level]]:
                culprits = engine.assert_literal(coeffs, level)
                if culprits is not None:
                    break
            else:
                culprits = engine.check()
            if culprits is None:
                level += 1
                choice[level] = 0
                conflicts.pop(level, None)
                continue
        else:
            culprits = conflicts.pop(level, None)
            if not culprits:
                return None
            level = max(culprits)
            engine.backtrack(level)
        culprits.discard(level)
        conflicts.setdefault(level, set()).update(culprits)
        choice[level] += 1
    model = tuple(engine.value[:num_vars])
    for branches, pick in zip(rows, choice):
        for coeffs in branches[pick]:
            if sum(a * x for a, x in zip(coeffs, model)) < 1:
                raise SolverDefect(f"model {model} fails {coeffs} . n >= 1")
    return model


def scale_to_integer(values: Sequence[Fraction]) -> tuple[int, ...]:
    """Clear denominators: multiply by the least common multiple of all of them.

    Every row value scales by the same positive integer, so
    ``coeffs . n >= 1`` becomes ``coeffs . (delta n) >= delta >= 1``.
    """
    delta = math.lcm(*(x.denominator for x in values)) if values else 1
    return tuple(int(x * delta) for x in values)
