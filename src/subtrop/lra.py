"""Exact rational satisfiability for the linear dominance condition.

One incremental general simplex in the style of Dutertre & de Moura (CAV
2006) decides every conjunction of ``coeffs . n >= 1`` literals, in integer
arithmetic only.  Each distinct primitive linear form gets one slack
variable (``coeffs / gcd``, signed so that a form and its negation share
it), and a literal becomes a lower or upper bound on that slack; a literal
with a single nonzero coefficient bounds its variable directly.  Bounds are
asserted and retracted on one tableau, each kept as one record of its
value, its decision level and the literal that set it.  The tableau is
kept as the inverse of the matrix of the nonbasic variables' forms:
``d x d`` integers over one positive determinant, however many slacks
exist.  A basic variable's row is its form times that inverse,
and a check builds only the row of the variable it finds violated.
Bland's rule (smallest index first) picks every pivot, so each check
terminates.  An infeasible check names the bounds of one violated tableau
row, whose conjunction is infeasible by Farkas' lemma, and explains it as a
*leaf*: positive integer multipliers ``y_l`` over the literals
``a_l . n >= 1`` that set those bounds, with ``sum(y_l * a_l) = 0``.  No
``n`` meets them all, since it would give
``0 = sum(y_l * a_l . n) >= sum(y_l) > 0``.

Two facts keep :class:`~fractions.Fraction` out of the module:

* Every bound is a unit fraction of known sign.  A literal with
  ``coeffs = g * form`` bounds ``form . n`` by ``1/g``: from below by
  ``1/g > 0`` when ``g > 0``, from above by ``-1/|g| < 0`` when ``g < 0``.
  A bound is stored as the pair ``(+1 or -1, |g|)``; of two bounds of one
  sign the one with the smaller ``|g|`` is tighter, and a lower and an upper
  bound on one variable clash at once, since ``1/g > 0 > -1/h``.
* Every nonbasic value is 0 or a bound.  A nonbasic variable starts at 0
  and only ever moves onto a bound: when a bound it violates is asserted,
  or when it leaves the basis at the bound its row violated.  So each
  tableau column holds such a pair, its nonbasic variable's value, and
  ``n`` is the integer inverse applied to them,
  ``n_i = sum(A[i][p] * s_p / g_p) / det``; basic variables hold none.
  Each round of a check computes ``n`` once over one common denominator,
  as integers, and reads each bounded basic value as its form times that
  point, instead of carrying values from step to step; moving a nonbasic
  variable is one assignment and a pivot updates the inverse alone.

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

A "no" comes with the search's own refutation, a tree of those leaves.  A
level collects one child per branch it tries: the leaf of the branch's
conflict, or the subtree of a deeper level that jumped back to it.  An
exhausted level becomes the node ``(level, children)``, which its jump
hands to the branch it returns to, and the level whose conflicts name no
lower level is the root.  A leaf only names literals of the levels that
its conflict set records, so a backjump leaves the skipped levels out of
the path and each leaf names only branches chosen on its own path.  At
any ``n`` satisfying the CNF, the argmax argument picks at every node a
branch that ``n`` satisfies; following those picks ends at a leaf whose
literals ``n`` all satisfies, which no ``n`` does.  So the tree refutes
the system, and :mod:`subtrop.refutation` checks it in one walk.

The model is the simplex assignment of ``n`` there: every nonbasic
variable sits at 0 or at the value of a bound asserted during the search,
and basic variables follow from the tableau.  It is read as integers over
one common denominator, ``nums / common``, and checked by direct
substitution against every form of the chosen branches.  The answer is
its smallest positive integer multiple, ``nums // g`` with
``g = gcd(common, *nums)``.

Feasibility over the rationals and over the reals coincide for these
conditions, so a rational "no" is a real "no".  Integer solutions come
from clearing denominators, never from integer programming: multiplying a
model by any positive integer preserves every ``coeffs . n >= delta >= 1``.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from operator import mul

from .core import SubtropError


class SolverDefect(SubtropError):
    """Internal soundness check failed; indicates a bug, never a valid outcome."""


# A value or bound ``(s, g)`` is the number ``s/g``, with ``g > 0`` and ``s`` in
# {-1, 0, 1}; every nonbasic value and every bound has this form.
ZERO = (0, 1)

# A conflict is ``(levels, leaf)``: the decision levels of the bounds involved, and a
# leaf, the tuple of ``(multiplier, coeffs)`` pairs over the literals that set them.
Conflict = tuple[set[int], tuple[tuple[int, tuple[int, ...]], ...]]


def _within(point: tuple[int, int], bound: tuple[int, int]) -> bool:
    """Whether ``point`` satisfies ``bound``: lower if its sign is +1, upper if -1.

    ``s/g >= 1/b`` and ``s/g <= -1/b`` both hold exactly when ``s`` is the
    bound's sign and ``g <= b``.
    """
    return point[0] == bound[0] and point[1] <= bound[1]


class _Simplex:
    """Tableau, nonbasic assignment and leveled bounds of the incremental simplex.

    Variables ``0 .. num_vars-1`` are the entries of ``n``; slacks follow in
    creation order.  ``forms[var]`` is a unit vector for an entry of ``n``
    and the primitive form of a slack.  There are always ``num_vars``
    nonbasic variables; ``nonbasic[p]`` is the one in column ``p`` and
    ``column`` inverts that.  With ``M`` the matrix of the nonbasic forms,
    row ``p`` that of ``nonbasic[p]``, ``M . n`` is the vector ``N`` of
    nonbasic values.  The tableau is the integer matrix ``A``, one list
    ``inverse[i]`` per entry of ``n``, with ``A = det * M^-1`` and
    ``det = |det M| > 0``: ``n = A . N / det``, and a variable's row is its
    form times ``A``, over ``det``.

    Lower bounds are positive and upper bounds negative (see the module
    docstring), so a variable holding both is infeasible, and each variable
    holds at most one bound.  ``bound[var]`` is None or the one record
    ``(pair, level, source)``: the pair ``(1, g)`` for ``1/g`` or ``(-1, g)``
    for ``-1/g``, asserted at decision level ``level`` by the literal
    ``source``.  The trail holds ``(var, the record it replaced)`` for each
    assertion, so :meth:`backtrack` restores older bounds exactly; the
    variables on the trail are those with a bound.

    ``at[p]`` is the value of ``nonbasic[p]``: ``(0, 1)`` or a bound once
    asserted on that variable.  A basic variable has no stored value;
    :meth:`check` computes it when it reads it.
    """

    def __init__(self, num_vars: int):
        self.num_vars = num_vars
        self.forms: list[tuple[int, ...]] = [
            tuple(int(i == j) for i in range(num_vars)) for j in range(num_vars)
        ]
        self.at: list[tuple[int, int]] = [ZERO] * num_vars
        self.bound: list[tuple | None] = [None] * num_vars  # (pair, level, source)
        self.nonbasic = list(range(num_vars))
        self.column = {j: j for j in range(num_vars)}
        self.inverse: list[list[int]] = [list(form) for form in self.forms]
        self.det = 1
        self.trail: list[tuple] = []  # (var, the record it replaced)
        self._variables = {form: j for j, form in enumerate(self.forms)}  # form -> variable
        self._literals: dict[tuple[int, ...], tuple[int, tuple[int, int]] | None] = {}

    def _literal(self, coeffs: tuple[int, ...]) -> tuple[int, tuple[int, int]] | None:
        """``coeffs . n >= 1`` as (variable, bound); None if all zero.

        With ``coeffs = g * form``, ``form`` primitive and its first nonzero
        entry positive, the literal bounds ``form . n`` by ``1/g``: from
        below, ``(1, g)``, when ``g > 0`` and from above, ``(-1, -g)``, when
        ``g < 0``.  A unit form is a variable of ``n`` itself; any other form
        is a slack, new ones basic and without bounds.
        """
        if coeffs in self._literals:
            return self._literals[coeffs]
        lead = next(filter(None, coeffs), 0)
        found = None
        if lead:
            g = math.gcd(*coeffs) if lead > 0 else -math.gcd(*coeffs)
            form = tuple(a // g for a in coeffs)
            var = self._variables.get(form)
            if var is None:
                var = self._variables[form] = len(self.forms)
                self.forms.append(form)
                self.bound.append(None)
            found = (var, (1, g) if g > 0 else (-1, -g))
        self._literals[coeffs] = found
        return found

    def assert_literal(self, coeffs: tuple[int, ...], level: int) -> Conflict | None:
        """Assert ``coeffs . n >= 1`` at ``level``; the conflict, or None.

        Only a clash with a bound of the opposite sign is found here;
        :meth:`check` finds the rest.  Bounds ``1/g`` and ``-1/h`` on one
        form come from literals ``g * form`` and ``-h * form``, which sum to
        0 with the multipliers ``h`` and ``g``.  The all-zero literal is a
        conflict by itself, with the multiplier 1.
        """
        literal = self._literal(coeffs)
        if literal is None:
            return {level}, ((1, coeffs),)
        var, bound = literal
        old = self.bound[var]
        if old is not None:
            pair, old_level, old_source = old
            if _within(pair, bound):
                return None
            if pair[0] != bound[0]:
                return {old_level, level}, ((bound[1], old_source), (pair[1], coeffs))
        self.trail.append((var, old))
        self.bound[var] = (bound, level, coeffs)
        p = self.column.get(var)
        if p is not None and not _within(self.at[p], bound):
            self.at[p] = bound
        return None

    def backtrack(self, level: int):
        """Retract every bound asserted at ``level`` or above; every value stays."""
        trail, bounds = self.trail, self.bound
        # the trail is a stack, so its top entry's variable holds the record it set
        while trail and bounds[trail[-1][0]][1] >= level:
            var, old = trail.pop()
            bounds[var] = old

    def _pivot(self, basic: int, p: int, target: tuple[int, int], row: list[int]):
        """Swap ``basic``, of tableau row ``row / det``, with the nonbasic of column ``p``.

        ``basic`` leaves at ``target``.  Solving ``det * basic = row . N`` for
        column ``p``'s variable and substituting it into ``n = A . N / det``
        keeps column ``p`` of ``A`` and turns every other column ``q`` into
        ``(row[p] * A_q - row[q] * A_p) / det``, over the new ``det = row[p]``.
        By Sylvester's identity the division is exact; the sign of ``row[p]``
        is folded into ``A`` so that ``det`` stays positive.
        """
        det = self.det
        sign = 1 if row[p] > 0 else -1
        new_det = sign * row[p]
        if sign < 0:
            row = [-c for c in row]
        inverse = self.inverse
        for i, coords in enumerate(inverse):
            b = coords[p]
            coords = [(new_det * a - c * b) // det for a, c in zip(coords, row)]
            coords[p] = sign * b
            inverse[i] = coords
        self.det = new_det
        entering = self.nonbasic[p]
        self.at[p] = target
        self.nonbasic[p] = basic
        del self.column[entering]
        self.column[basic] = p

    def _point(self) -> tuple[int, list[int]]:
        """``(common, x)``: ``n`` is ``x / (det * common)``, each nonbasic at its value."""
        common = math.lcm(*(g for _, g in self.at))
        columns = [s * (common // g) for s, g in self.at]
        return common, [sum(map(mul, coords, columns)) for coords in self.inverse]

    def check(self) -> Conflict | None:
        """Restore every bound by Bland-rule pivoting; the conflict, or None.

        On conflict, the levels are those of the bounds in the violated
        row: the basic variable's violated bound and, for each nonbasic
        variable of the row, the bound that blocks it.  The row, made
        primitive, says ``den * x_b = sum(c_p * x_p)`` of the variables'
        forms, and a bound ``(s, g)`` comes from the literal
        ``s * g * form``.  Signed by the basic bound, the row sums those
        literals to 0 with the multipliers ``den / g_b`` and ``|c_p| / g_p``,
        all positive because each ``x_p`` is blocked at the bound of sign
        ``-sign(s_b * c_p)``; times ``L``, the lcm of the ``g``, they are
        integers.
        """
        at, bounds, nonbasic, column, forms = (
            self.at, self.bound, self.nonbasic, self.column, self.forms
        )
        bounded = sorted({entry[0] for entry in self.trail})
        while True:
            common, point = self._point()
            scale = self.det * common
            for basic in bounded:
                if basic in column:
                    continue
                # basic = form . point / scale violates s/g when s * (form . point) * g < scale
                s, g = bound = bounds[basic][0]
                if s * sum(map(mul, forms[basic], point)) * g < scale:
                    break
            else:
                return None
            row = [sum(map(mul, forms[basic], a)) for a in zip(*self.inverse)]
            # a nonbasic variable must move by sign(s * c) to move basic toward its
            # bound; it is blocked when it sits at a bound of the opposite sign
            free = [
                p for p, (c, var, value) in enumerate(zip(row, nonbasic, at))
                if c and not (s * c * value[0] < 0 and bounds[var] and bounds[var][0] == value)
            ]
            if not free:
                return self._explain(basic, row)
            self._pivot(basic, min(free, key=nonbasic.__getitem__), bound, row)

    def _explain(self, basic: int, row: list[int]) -> Conflict:
        """The conflict of ``basic``'s violated row ``row / det``, every column blocked.

        The row is first made primitive, so that the multipliers do not
        depend on the scale ``det`` that the pivots left.
        """
        g = math.gcd(self.det, *row)
        terms = [(c // g, self.bound[var]) for c, var in zip(row, self.nonbasic) if c]
        (_, h), level, source = self.bound[basic]
        lcm = math.lcm(h, *(record[0][1] for _, record in terms))
        leaf = ((self.det // g * lcm // h, source),) + tuple(
            (abs(c) * lcm // record[0][1], record[2]) for c, record in terms
        )
        return {level} | {record[1] for _, record in terms}, leaf

    def model(self) -> tuple[int, list[int]]:
        """``(common, nums)``: variable j of ``n`` has value ``nums[j] / common``."""
        common, point = self._point()
        return self.det * common, point


def solve_dnf(
    num_vars: int, rows: Sequence[Sequence[Sequence[tuple[int, ...]]]]
) -> tuple[tuple[int, ...], None] | tuple[None, tuple]:
    """``(n, None)`` for the first feasible choice of one branch per row, else ``(None, tree)``.

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
    at a bound asserted during the search.  ``n`` is the primitive integer
    vector, the model times the least common multiple of its denominators,
    so it satisfies every chosen ``coeffs . n >= 1`` too.

    When no choice is feasible, ``tree`` is the search's refutation (see
    the module docstring): a node ``(level, children)`` with one child per
    branch of ``rows[level]``, each child a node or a leaf of
    ``(multiplier, coeffs)`` pairs.  A row without branches is the node
    ``(level, ())``.
    """
    for level, branches in enumerate(rows):
        if not branches:
            return None, (level, ())
    engine = _Simplex(num_vars)
    depth = len(rows)
    choice = [0] * (depth + 1)
    # level -> the lower levels its branches conflict with, and each branch's tree
    conflicts: dict[int, tuple[set[int], list[tuple]]] = {}
    level = 0
    while level < depth:
        branches = rows[level]
        if choice[level] < len(branches):
            engine.backtrack(level)  # retracts the level's previous branch, if any
            conflict = None
            for coeffs in branches[choice[level]]:
                conflict = engine.assert_literal(coeffs, level)
                if conflict is not None:
                    break
            else:
                conflict = engine.check()
            if conflict is None:
                level += 1
                choice[level] = 0
                conflicts.pop(level, None)
                continue
            culprits, tree = conflict
        else:
            culprits, trees = conflicts.pop(level)
            tree = (level, tuple(trees))
            if not culprits:
                return None, tree
            level = max(culprits)
            engine.backtrack(level)
        culprits.discard(level)
        lower, trees = conflicts.setdefault(level, (set(), []))
        lower.update(culprits)
        trees.append(tree)
        choice[level] += 1
    common, nums = engine.model()
    for branches, pick in zip(rows, choice):
        for coeffs in branches[pick]:
            if sum(map(mul, coeffs, nums)) < common:
                raise SolverDefect(f"model {nums} over {common} fails {coeffs} . n >= 1")
    g = math.gcd(common, *nums)
    return tuple(x // g for x in nums), None
