"""Independent checks of both answers: a SAT vector and an UNSAT refutation tree.

A SAT vector ``n`` passes :func:`certifies` when, in every row with
negative monomials, the highest positive monomial by ``e_j . n`` stands at
least 1 above the highest negative one: ``n`` then meets that monomial's
branch, defined below.

The rows that matter are those with negative monomials, in index order;
``level`` i names the i-th of them.  Some ``n`` satisfies the dominance
condition exactly when it satisfies, in every such row, the *branch* of
some positive monomial ``j``: ``(e_j - e_k) . n >= 1`` for each negative
``k``.  A refutation is a tree over these choices.  A node
``(level, children)`` has one child per positive monomial of its row, in
increasing order.  A leaf is a nonempty tuple of ``(y, a)`` pairs: positive
ints ``y`` and literals ``a . n >= 1``, each ``a`` a form of a branch chosen
on the leaf's path, with ``sum(y * a) = 0``.  No ``n`` meets a leaf's
literals, since they would give ``0 >= sum(y) > 0``.  Any ``n`` that
satisfies the condition would meet every literal on some path: at each
node, its row's positive monomial with the largest ``e_j . n`` has a
branch that ``n`` satisfies.  So a tree that passes :func:`refutes` proves
that no ``n`` exists.

Both checks read only the sign and exponent matrices, in exact
arithmetic, and share no code with the search (:mod:`subtrop.lra`), the
reduction (:mod:`subtrop.condition`) or the brute-force oracle, so a
defect there cannot hide itself from them.  :func:`refutes` builds each
branch's set of forms once per call, then visits each node and leaf once,
with an explicit stack, and carries the set of forms chosen on the path
to each.
"""

from __future__ import annotations


def certifies(system, n) -> bool:
    """True when ``n`` satisfies the dominance condition of ``system``, in O(terms + v*d) steps.

    A row without negative monomials passes, and a row with negative but no
    positive monomials fails.  Exact for ``int`` and ``Fraction`` entries; a vector of the
    wrong length raises :class:`ValueError`.
    """
    if len(n) != system.e.cols:
        raise ValueError(f"expected a vector of length {system.e.cols}, got {len(n)}")
    heights = [sum(a * x for a, x in zip(exps, n)) for exps in system.e.entries]
    for terms in system.s.entries:
        negative = [heights[k] for k, sign in terms if sign < 0]
        positive = [heights[j] for j, sign in terms if sign > 0]
        if negative and (not positive or max(positive) < max(negative) + 1):
            return False
    return True


def refutes(system, tree) -> bool:
    """True when ``tree`` refutes the dominance condition of ``system``.

    Any other ``tree`` gives False, whatever its shape: a node must be a
    pair ``(int, tuple)``, a leaf a tuple of pairs, and a literal a tuple of
    ints.
    """
    exponents = system.e.entries
    rows = []  # per row with negative monomials, each positive monomial's branch as a set
    for terms in system.s.entries:
        negative = [exponents[k] for k, sign in terms if sign < 0]
        if negative:
            rows.append([
                frozenset(tuple(a - b for a, b in zip(exponents[j], e_k)) for e_k in negative)
                for j, sign in terms if sign > 0
            ])
    stack = [(tree, frozenset())]  # a subtree and the literals chosen on its path
    while stack:
        item, chosen = stack.pop()
        if not isinstance(item, tuple) or not item:
            return False
        if isinstance(item[0], int):  # a node
            if len(item) != 2 or not isinstance(item[1], tuple):
                return False
            level, children = item
            if not 0 <= level < len(rows) or len(children) != len(rows[level]):
                return False
            for branch, child in zip(rows[level], children):
                stack.append((child, chosen | branch))
            continue
        total = [0] * system.d
        for pair in item:
            if not isinstance(pair, tuple) or len(pair) != 2:
                return False
            y, coeffs = pair
            if type(y) is not int or y <= 0 or not isinstance(coeffs, tuple):
                return False
            if not all(type(a) is int for a in coeffs) or coeffs not in chosen:
                return False
            total = [t + y * a for t, a in zip(total, coeffs)]
        if any(total):
            return False
    return True
