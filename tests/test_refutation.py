import ast
import math
from pathlib import Path

import subtrop.refutation
from subtrop import decide_system, parse_system
from subtrop.condition import build_cnf
from subtrop.lra import solve_dnf
from subtrop.oracle import exhaustive_decide
from subtrop.refutation import refutes

from conftest import DATA, load, pin_batch


def is_leaf(tree) -> bool:
    return not isinstance(tree[0], int)


def subtrees(tree):
    """``(path, subtree)`` for every subtree, a path being the child indices from the root."""
    found, stack = [], [((), tree)]
    while stack:
        path, item = stack.pop()
        found.append((path, item))
        if not is_leaf(item):
            stack.extend((path + (i,), child) for i, child in enumerate(item[1]))
    return found


def replaced(tree, path, new):
    """``tree`` with the subtree at ``path`` replaced by ``new``."""
    if not path:
        return new
    level, children = tree
    i = path[0]
    return level, children[:i] + (replaced(children[i], path[1:], new),) + children[i + 1:]


class TestSearchRefutations:
    """The search's UNSAT answers carry trees that the independent checker accepts."""

    def test_unsat_iff_refuted_iff_the_oracle_finds_no_selection(self):
        # every data file but the wall and the pinned batch; the oracle runs where it
        # enumerates at most 100 selections of at most 10 clauses, as each selection's
        # Fourier-Motzkin pass can take seconds beyond that
        oracle_runs = oracle_unsat = unsat = 0
        names = sorted(p.name for p in DATA.glob("*.spp") if p.name != "wall_8_20_8_1.spp")
        for system in [load(name) for name in names] + pin_batch():
            decision = decide_system(system)
            if decision.zero_row is not None:
                assert decision.refutation is None
                continue
            refuted = decision.refutation is not None and refutes(system, decision.refutation)
            assert refuted == (decision.status == "unsat")
            unsat += refuted
            condition = build_cnf(system)
            clauses = [len(clause.literals) for clause in condition.clauses]
            if len(clauses) <= 10 and math.prod(clauses) <= 100:
                oracle_runs += 1
                oracle_unsat += refuted
                assert exhaustive_decide(condition) == (not refuted)
        assert unsat > 70  # 77 of the 300 batch systems and 4 data files
        print(oracle_runs, oracle_unsat, unsat)
        assert oracle_runs > 250

    def test_wall_template(self):
        # about a second of search; its tree has 1473 leaves and checks in a walk
        system = load("wall_8_20_8_1.spp")
        decision = decide_system(system)
        assert refutes(system, decision.refutation)
        assert sum(is_leaf(item) for _, item in subtrees(decision.refutation)) == 1473

    def test_row_without_positive_monomial_is_a_node_without_children(self):
        # levels count only the rows with negative monomials, so h is level 1
        lone = parse_system("vars x\npoly f = -a*x\n")
        assert decide_system(lone).refutation == (0, ())
        assert refutes(lone, (0, ()))
        assert not exhaustive_decide(build_cnf(lone))
        system = parse_system("vars x y\npoly f = a*x - b*y\npoly g = c*y\npoly h = -d*x*y\n")
        assert decide_system(system).refutation == (1, ())
        assert refutes(system, (1, ()))
        assert not refutes(system, (0, ()))

    def test_all_zero_form_is_a_leaf_of_one_literal(self):
        assert solve_dnf(1, [[[(0,)]]]) == (None, (0, (((1, (0,)),),)))


class TestRejection:
    """The checker rejects every tree that breaks one of its rules."""

    def refutation(self, name="search_head_8.spp"):
        system = load(name)
        tree = decide_system(system).refutation
        assert refutes(system, tree)
        return system, tree

    def test_dropped_or_extra_child(self):
        system, tree = self.refutation()
        nodes = [(path, item) for path, item in subtrees(tree) if not is_leaf(item)]
        assert len(nodes) > 5
        for path, (level, children) in nodes:
            for changed in (children[:-1], children + children[:1]):
                assert not refutes(system, replaced(tree, path, (level, changed))), path

    def test_multiplier_bumped_zeroed_or_negated(self):
        system, tree = self.refutation()
        leaves = [(path, item) for path, item in subtrees(tree) if is_leaf(item)]
        assert len(leaves) == 32
        for path, ((y, coeffs), *rest) in leaves:
            for bad in (y + 1, 0, -y):
                assert not refutes(system, replaced(tree, path, ((bad, coeffs), *rest))), path
            # scaling every multiplier of a leaf keeps it a refutation, and scaling
            # them by 0 keeps the sum at 0 but refutes nothing
            doubled = tuple((2 * y, coeffs) for y, coeffs in ((y, coeffs), *rest))
            assert refutes(system, replaced(tree, path, doubled))
            zeroed = tuple((0, coeffs) for _, coeffs in doubled)
            assert not refutes(system, replaced(tree, path, zeroed)), path

    def test_empty_leaf(self):
        system, tree = self.refutation()
        for path, item in subtrees(tree):
            if is_leaf(item):
                assert not refutes(system, replaced(tree, path, ())), path

    def test_literal_of_a_sibling_branch(self):
        # swapping two children keeps every leaf's sum at 0, but a leaf then names a
        # form of the branch it left, which is not on its new path
        system, tree = self.refutation("example3.spp")
        level, (first, second) = tree
        assert not refutes(system, (level, (second, first)))
        inner, (a, b) = first
        assert is_leaf(a) and is_leaf(b)
        assert not refutes(system, replaced(tree, (0,), (inner, (b, a))))
        assert refutes(system, replaced(tree, (0,), (inner, (a, b))))

    def test_level_out_of_range(self):
        system, (level, children) = self.refutation("example3.spp")
        for bad in (-1, 2, 3):
            assert not refutes(system, (bad, children)), bad
        assert not refutes(system, None)
        # a node of one entry or with non-tuple children, a literal that is a list,
        # and a pair of three entries are rejected, not errors, anywhere in the tree
        tree = (level, children)
        for bad in [(0,), (0, 5), ((1, [1, 0]),), ((1, (1, 0), 7),)]:
            for path, _ in subtrees(tree):
                assert not refutes(system, replaced(tree, path, bad)), (bad, path)
        # level -1 must not read as the last row, whose node (1, ()) checks
        system = parse_system("vars x y\npoly f = a*x - b*y\npoly g = -d*x*y\n")
        assert refutes(system, (1, ()))
        assert not refutes(system, (-1, ()))


def test_checker_imports_nothing_of_the_search():
    # the check is independent only if it shares no code with what it checks
    tree = ast.parse(Path(subtrop.refutation.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
            imported.update(
                "." * node.level + alias.name for alias in node.names if not node.module
            )
    assert imported == {"__future__"}
    for module in ("lra", "condition", "oracle"):
        assert not any(name.endswith(module) for name in imported)
