import random
from fractions import Fraction

import pytest

from subtrop import instantiate, parse_system
from subtrop.condition import _TOKENS_KEPT, build_cnf, build_dnf, dominance_rows, write_cnf
from subtrop.refutation import certifies

from conftest import DATA, load, reference_explain_json
from gensys import random_bindings, random_signed_system


class TestBuildCnf:
    def test_example2_clause_structure(self):
        system = load("example2.spp")
        cond = build_cnf(system)
        assert cond.num_vars == 2
        assert [(c.row, c.neg) for c in cond.clauses] == [(0, 0), (0, 2), (1, 4)]
        assert [[l.pos for l in c.literals] for c in cond.clauses] == [[1, 3], [1, 3], [0, 1, 2]]
        first = cond.clauses[0].literals[0]
        assert (first.row, first.pos, first.neg) == (0, 1, 0)
        assert first.coeffs == (-3, 1)

    def test_example2_paper_vector_satisfies_each_clause(self):
        cond = build_cnf(load("example2.spp"))
        n = (-12, -11)
        assert cond.satisfied_by(n)
        by_tag = {(l.row, l.pos, l.neg): l.value_at(n) for c in cond.clauses for l in c.literals}
        assert by_tag[(0, 1, 0)] == 25
        assert by_tag[(0, 3, 2)] == 2
        assert by_tag[(1, 2, 4)] == 9

    def test_intro_g_two_unit_clauses(self):
        cond = build_cnf(load("intro_g.spp"))
        assert len(cond.clauses) == 2
        assert [len(c.literals) for c in cond.clauses] == [1, 1]
        assert {c.literals[0].coeffs for c in cond.clauses} == {(-1,), (1,)}

    def test_all_positive_system_has_no_clauses(self):
        cond = build_cnf(parse_system("vars x y\npoly f = x + y + 1\n"))
        assert cond.clauses == ()
        assert cond.satisfied_by((0, 0))

    def test_negative_only_row_gives_empty_clause(self):
        cond = build_cnf(parse_system("vars x\npoly f = -2*x\n"))
        assert len(cond.clauses) == 1
        assert cond.clauses[0].literals == ()
        assert not cond.satisfied_by((0,))

    def test_zero_row_contributes_no_clauses(self):
        cond = build_cnf(load("zero_row.spp"))
        assert cond.clauses == ()

    def test_clause_and_literal_counts(self):
        rng = random.Random(11)
        for _ in range(60):
            system = random_signed_system(rng, parametric=True, ensure_positive=False)
            cond = build_cnf(system)
            rows = system.s.entries
            assert len(cond.clauses) == sum(x < 0 for row in rows for _, x in row)
            for clause in cond.clauses:
                row = dict(rows[clause.row])
                assert row[clause.neg] < 0
                assert [l.pos for l in clause.literals] == [j for j, x in row.items() if x > 0]

    def test_condition_ignores_coefficient_values(self):
        rng = random.Random(12)
        for _ in range(30):
            system = random_signed_system(rng, parametric=True)
            one = instantiate(system, random_bindings(rng, system))
            two = instantiate(system, random_bindings(rng, system))
            assert build_cnf(one) == build_cnf(two) == build_cnf(system)

    def test_debug_text_format(self):
        cond = build_cnf(load("example2.spp"))
        lines = cond.to_debug_text().splitlines()
        assert lines[0] == "clause 0 0: [1: -3 1] [3: -5 2]"
        assert lines[2] == "clause 1 4: [0: 5 -3] [1: 2 -2] [2: 2 -3]"


# 12 rows of 60 terms over 6 variables, perfbench/corpus.py's
# frontend_text(random.Random("explain-pin:12x60"), 12, 60); kept apart from
# tests/data/*.spp, which the pinned search digests read in full
FRONTEND = "explain/frontend_12x60.spp"


def writer_systems():
    """Seeded systems of both kinds, d = 1..8, exponents to 30 and rows of up to 60 terms.

    Their rows have from 0 to over 20 positive monomials, so a row's flat
    list of literals has every length from empty to wide, and the rows of
    one system differ in length.
    """
    for parametric in (True, False):
        rng = random.Random(f"write-cnf:{parametric}")
        for _ in range(40):
            yield random_signed_system(
                rng, max_rows=5, max_monomials=60, max_vars=8, max_exp=30,
                parametric=parametric, ensure_positive=False,
            )


def on_the_run(system) -> list[bool]:
    """Per coordinate, whether :func:`write_cnf` slices its tokens from one run.

    The run of coordinate c holds the ``2E + 1`` tokens of ``-E`` to ``E``,
    for E the largest exponent of c; it is made when they number at most
    ``_TOKENS_KEPT`` and the literals of the call.
    """
    literals = sum(len(positive) * len(negative) for _, positive, negative in dominance_rows(system))
    return [2 * max(e) + 1 <= min(_TOKENS_KEPT, literals) for e in zip(*system.e.entries)]


def written(system, as_json: bool) -> list[str]:
    """The strings that :func:`write_cnf` passes to ``write``, in order."""
    parts: list[str] = []
    write_cnf(system, parts.append, as_json)
    return parts


class TestWriteCnf:
    """The writer passes build_cnf's text and JSON to any callable, with no CLI."""

    def assert_bytes_equal_the_cnf_objects(self, system):
        cond = build_cnf(system)
        assert "".join(written(system, False)) == (
            cond.to_debug_text() + "\n" if cond.clauses else ""
        )
        assert "".join(written(system, True)) == reference_explain_json(cond)

    @pytest.mark.parametrize(
        "name",
        [path.name for path in sorted(DATA.glob("*.spp"))]
        + [FRONTEND, None, "one-x-value", "empty-first", "same-x-values", "mixed-widths",
           "one-positive-on-the-run", "spread"],
    )
    def test_bytes_equal_the_cnf_objects(self, name):
        texts = {
            # row 1 has negative monomials and no positive one, an empty clause
            None: "vars x y\npoly f = a*x - b*y\npoly g = -c*x\n",
            # both positive monomials have x-exponent 1, so the x column gathers
            # every literal's token from one distinct value
            "one-x-value": "vars x y\npoly f = a*x*y + b*x*y^3 - c*y^2 - d*x^2\n",
            # the empty clause comes first, so in JSON the separator after its
            # "literals": [] opens row 1's first clause
            "empty-first": "vars x y\npoly g = -c*x\npoly f = a*x - b*y\n",
            # row 1's positive monomials take row 0's distinct exponents in another
            # order, and its negatives take x-exponents that row 0's take and a
            # y-exponent that row 0's do not, so a column left over from row 0
            # would show
            "same-x-values": (
                "vars x y\npoly f = a*x*y + b*x^3 + c*x*y^2 - d*x^2 - e*y^3 - h*x^3*y\n"
                "poly g = p*x^3*y^2 + q*x + r*x^3*y - u*x^2*y^2 - w*y^2\n"
            ),
            # x-exponents to 3 and y-exponents near 10^5: the row takes its x
            # tokens from the run and its y tokens from the distinct values
            "mixed-widths": (
                "vars x y\npoly f = a*x^3*y^100000 + b*x*y^99999 + c*x^2*y^100001 + e*y^100002"
                " - g*x*y^100000 - h*x^3*y^99998 - p*y^100003 - q*x^2*y^99999\n"
            ),
            # row 0 has one positive monomial, and both coordinates have a run
            "one-positive-on-the-run": (
                "vars x y\npoly f = a*x^2*y - b*x - c*y^2 - d\n"
                "poly g = p*x + q*y + r*x*y - s - w*x^2*y^2\n"
            ),
            # x-exponents to 70,000, off the run: row f has 70 distinct positive
            # values and 70 needed ones, and row g one positive monomial
            "spread": (
                "vars x\npoly f = " + " + ".join(f"a{j}*x^{1000 * j}" for j in range(1, 71))
                + "".join(f" - b{k}*x^{k}" for k in range(1, 71))
                + "\npoly g = c*x^70000 - d*x^5\n"
            ),
        }
        system = parse_system(texts[name]) if name in texts else load(name)
        clauses = build_cnf(system).clauses
        if name is None:
            assert clauses[-1].literals == ()
        if name == "one-x-value":
            (row,) = system.s.entries
            assert [system.e.entries[j][0] for j, sign in row if sign > 0] == [1, 1]
        if name == "empty-first":
            assert clauses[0].literals == () and clauses[1].literals
        if name == "same-x-values":
            (positive_0, negative_0), (positive_1, negative_1) = (
                [[system.e.entries[j] for j, sign in row if sign * side > 0] for side in (1, -1)]
                for row in system.s.entries
            )
            assert not set(negative_0) & set(negative_1)
            for c, shared in enumerate((True, False)):
                values_0, values_1 = [e[c] for e in positive_0], [e[c] for e in positive_1]
                assert set(values_0) == set(values_1) and values_0 != values_1
                assert ({e[c] for e in negative_1} <= {e[c] for e in negative_0}) == shared
        if name == "mixed-widths":
            assert on_the_run(system) == [True, False]
            assert max(e[0] for e in system.e.entries) == 3
            assert min(e[1] for e in system.e.entries) > 99_000
        if name == "one-positive-on-the-run":
            assert on_the_run(system) == [True, True]
            assert [len(positive) for _, positive, _ in dominance_rows(system)] == [1, 3]
        if name == "spread":
            assert on_the_run(system) == [False]
            (_, positive_f, negative_f), (_, positive_g, _) = dominance_rows(system)
            for side in (positive_f, negative_f):
                assert len({system.e.entries[j][0] for j in side}) == len(side) == 70
            assert len(positive_g) == 1
        self.assert_bytes_equal_the_cnf_objects(system)

    def test_bytes_equal_the_cnf_objects_on_seeded_systems(self):
        # a wrong stride or a slot left over from another clause or row shows here
        shapes = set()
        for system in writer_systems():
            kind = type(system.c).__name__
            runs = on_the_run(system)
            for row in system.s.entries:
                if any(sign < 0 for _, sign in row):
                    positive = [j for j, sign in row if sign > 0]
                    wide = len(positive) >= 20
                    shapes.add((kind, "positive", "wide" if wide else min(len(positive), 2)))
                    values = list(zip(*(system.e.entries[j] for j in positive)))
                    # a coordinate on which two or more positive monomials all agree
                    # repeats one token down the whole column
                    if len(positive) > 1 and any(len(set(v)) == 1 for v in values):
                        shapes.add(("positives agree on a coordinate",))
                    # off the run, two positive monomials that share a value read one
                    # distinct value's cells, so there are fewer cells than monomials
                    if any(len(set(v)) < len(v) for v, run in zip(values, runs) if not run):
                        shapes.add((kind, "off the run, positives share a value"))
            shapes.update((kind, "run", run) for run in runs)
            shapes.add((kind, "d", system.d))
            shapes.add((kind, "exponent > 10", max(map(max, system.e.entries)) > 10))
            self.assert_bytes_equal_the_cnf_objects(system)
        assert shapes >= {
            (kind, *shape)
            for kind in ("ParametricCoefficients", "ConcreteCoefficients")
            for shape in [("positive", 0), ("positive", 1), ("positive", "wide"),
                          ("exponent > 10", True), ("run", True), ("run", False),
                          ("off the run, positives share a value",),
                          *(("d", d) for d in range(1, 9))]
        } | {("positives agree on a coordinate",)}

    @pytest.mark.parametrize("name, rows", [
        ("wall_8_20_8_1.spp", 8), (FRONTEND, 12),
    ])
    def test_one_write_per_row_with_negative_monomials(self, name, rows):
        # the output is streamed: one string per clause-bearing row, and for JSON
        # its opening and closing, so no string holds the whole output
        system = load(name)
        assert sum(any(sign < 0 for _, sign in row) for row in system.s.entries) == rows
        text = written(system, False)
        assert len(text) == rows
        for i, part in enumerate(text):
            assert {line.split(":")[0].split()[1] for line in part.splitlines()} == {str(i)}
        parts = written(system, True)
        assert len(parts) == rows + 2
        assert parts[0] == f'{{"num_vars": {system.d}, "clauses": [' and parts[-1] == "]}\n"
        for i, part in enumerate(parts[1:-1]):
            assert part.startswith(f'{", " if i else ""}{{"row": {i}, '), i


class TestBuildDnfOneRow:
    """``build_dnf`` on one-row systems."""

    def test_intro_f_two_branches(self):
        # positive monomials 0 and 2, negative monomial 1
        (branches,) = build_dnf(load("intro_f.spp"))
        assert branches == (((1,),), ((-1,),))

    def test_intro_g_single_infeasible_branch(self):
        (branches,) = build_dnf(load("intro_g.spp"))
        assert len(branches) == 1
        assert sorted(branches[0]) == [(-1,), (1,)]

    def test_positive_monomial_without_negatives(self):
        # a row without negative monomials needs no choice, so it is left out
        assert build_dnf(parse_system("vars x\npoly f = 3*x^2\n")) == ()


class TestBuildDnf:
    def test_example2_one_row_of_branches_per_row(self):
        rows = build_dnf(load("example2.spp"))
        assert [len(row) for row in rows] == [2, 3]
        exps = load("example2.spp").e.entries
        # row 0: positive monomial 1 over negative monomials 0 and 2
        assert rows[0][0] == tuple(tuple(a - b for a, b in zip(exps[1], exps[k])) for k in (0, 2))
        assert rows[0][0][0] == (-3, 1)

    def test_same_literals_as_the_cnf(self):
        rng = random.Random(13)
        for _ in range(60):
            system = random_signed_system(rng, parametric=True, ensure_positive=False)
            cond = build_cnf(system)
            rows = build_dnf(system)
            # branch j of row i holds the literals of pos j in row i's clauses, in neg order
            from_cnf = []
            for i in sorted({clause.row for clause in cond.clauses}):
                clauses = [clause for clause in cond.clauses if clause.row == i]
                from_cnf.append(tuple(
                    tuple(lit.coeffs for clause in clauses for lit in clause.literals if lit.pos == j)
                    for j in (lit.pos for lit in clauses[0].literals)
                ))
            assert rows == tuple(from_cnf)

    def test_rows_without_negatives_are_left_out(self):
        system = parse_system("vars x\npoly f = x + 1\npoly g = x - 2\n")
        rows = build_dnf(system)
        assert len(rows) == 1
        # row 1, x - 2: positive monomial 0 (x) over negative monomial 1 (the constant)
        assert rows == ((((1,),),),)

    def test_negative_only_row_has_no_branch(self):
        assert build_dnf(parse_system("vars x\npoly f = -2*x\n")) == ((),)

    def test_single_row_case_matches(self):
        # intro_f is c2*x^2 - c1*x + c0: positive monomials 0 and 2, negative 1
        assert build_dnf(load("intro_f.spp")) == ((((1,),), ((-1,),)),)


class TestCertifies:
    def test_agrees_with_the_cnf(self):
        rng = random.Random(14)
        seen = {True: 0, False: 0}
        for index in range(2000):
            system = random_signed_system(
                rng, parametric=index % 4 < 2, ensure_positive=index % 2 == 0
            )
            cond = build_cnf(system)
            for _ in range(3):
                if rng.random() < 0.5:
                    n = tuple(rng.randint(-6, 6) for _ in range(system.d))
                else:
                    n = tuple(
                        Fraction(rng.randint(-12, 12), rng.randint(1, 5)) for _ in range(system.d)
                    )
                answer = certifies(system, n)
                assert answer == cond.satisfied_by(n)
                seen[answer] += 1
        assert min(seen.values()) >= 1000

    def test_zero_row_passes(self):
        # a zero row has no negative monomial; decide_system rejects it on its own
        assert certifies(load("zero_row.spp"), (0,))
        assert certifies(load("zero_row.spp"), (-3,))

    def test_negative_only_row_fails(self):
        system = parse_system("vars x\npoly f = -2*x\n")
        assert not any(certifies(system, (k,)) for k in range(-5, 6))

    def test_positive_only_row_passes(self):
        system = parse_system("vars x y\npoly f = x + y + 1\n")
        assert certifies(system, (0, 0))
        assert certifies(system, (Fraction(-7, 3), 5))

    def test_strict_margin_of_one(self):
        # intro_f is c2*x^2 - c1*x + c0: n = 1 puts x^2 at 2 >= 1 + 1, n = 1/2 at 1 < 1/2 + 1
        system = load("intro_f.spp")
        assert certifies(system, (1,))
        assert not certifies(system, (Fraction(1, 2),))
        assert certifies(system, (-1,))
        assert not certifies(system, (0,))

    def test_rejects_a_vector_of_the_wrong_length(self):
        with pytest.raises(ValueError, match="length 2"):
            certifies(load("example2.spp"), (1,))
