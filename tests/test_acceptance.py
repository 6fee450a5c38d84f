"""End-to-end acceptance checks.

One test per criterion; each prints a PASS line when its assertions hold
(run with ``pytest -s tests/test_acceptance.py`` to see them).  Random
checks are seeded, so runs are reproducible.
"""

import random
import time
from fractions import Fraction
from itertools import product

import pytest

from subtrop import (
    decide_system,
    instantiate,
    parse_system,
    print_system,
    symbolic_t,
    uniform_bound,
    verify_witness,
)
from subtrop.condition import build_cnf, build_dnf
from subtrop.lra import solve_dnf
from subtrop.oracle import exhaustive_decide
from subtrop.refutation import certifies

from conftest import expand, load, read_data, solve_condition, t_of
from gensys import random_bindings, random_condition, random_signed_system

GOLDEN_FILES = [
    "sec2.spp",
    "example2.spp",
    "example3.spp",
    "intro_f.spp",
    "intro_g.spp",
    "intro_f_ones.spp",
    "zero_row.spp",
]


class Stopwatch:
    def __init__(self, budget_seconds: float):
        self.budget = budget_seconds
        self.start = time.monotonic()

    def check(self):
        elapsed = time.monotonic() - self.start
        assert elapsed < self.budget, f"took {elapsed:.2f}s, budget {self.budget}s"


def report(number: int, text: str):
    print(f"ACCEPTANCE {number} PASS: {text}")


@pytest.fixture(scope="module")
def sat_instances():
    """100 random parametric systems that decide SAT, with their decisions."""
    rng = random.Random(20250809)
    instances = []
    attempts = 0
    while len(instances) < 100:
        attempts += 1
        assert attempts < 5000, "random generator failed to produce enough SAT systems"
        system = random_signed_system(
            rng, max_rows=3, max_monomials=6, max_vars=3, max_exp=5, parametric=True
        )
        decision = decide_system(system)
        if decision.status == "sat":
            instances.append((system, decision))
    return instances


def test_criterion_1_golden_sat_example2():
    clock = Stopwatch(1.0)
    system = load("example2.spp")
    decision = decide_system(system)
    assert decision.status == "sat"
    condition = build_cnf(system)
    assert condition.satisfied_by(decision.n)

    paper_n = (-12, -11)
    assert condition.satisfied_by(paper_n)
    values = {
        (lit.row, lit.pos, lit.neg): lit.value_at(paper_n)
        for clause in condition.clauses
        for lit in clause.literals
    }
    assert values[(0, 1, 0)] == 25
    assert values[(0, 3, 2)] == 2
    assert values[(1, 2, 4)] == 9
    assert all(any(lit.value_at(paper_n) >= 1 for lit in cl.literals) for cl in condition.clauses)

    witness = symbolic_t(system, paper_n)
    assert [(k, j) for k, j, _ in expand(witness.rows)] == [
        ("c11", "c12"),
        ("c11", "c15"),
        ("c13", "c12"),
        ("c13", "c15"),
        ("c24", "c21"),
        ("c24", "c22"),
        ("c24", "c23"),
    ]
    clock.check()
    report(1, "golden SAT: decision, certifying vector, literal values 25/2/9, 7-term t")


def test_criterion_2_golden_unsat_example3():
    clock = Stopwatch(1.0)
    system = load("example3.spp")
    decision = decide_system(system)
    assert decision.status == "unsat"
    condition = build_cnf(system)
    assert exhaustive_decide(condition) is False
    assert not any(certifies(system, p) for p in product(range(-20, 21), repeat=system.d))
    clock.check()
    report(2, "golden UNSAT: solver, exhaustive search and a scan of [-20, 20]^d all say no")


def test_criterion_3_intro_pair():
    clock = Stopwatch(1.0)
    f = load("intro_f.spp")
    decision = decide_system(f)
    assert decision.status == "sat"
    assert decision.n == (1,)

    concrete = instantiate(f, {"c2": Fraction(1), "c1": Fraction(1), "c0": Fraction(1)})
    report_f = verify_witness(concrete, decision.n, Fraction(3))
    assert report_f.t_value == 3
    assert report_f.point == (Fraction(3),)
    assert report_f.values == (Fraction(7),)

    assert decide_system(load("intro_g.spp")).status == "unsat"
    clock.check()
    report(3, "intro pair: f SAT with t = 3 and f(3) = 7 exactly, g UNSAT")


def test_criterion_4_witness_property(sat_instances):
    clock = Stopwatch(60.0)
    rng = random.Random(404)
    checks = 0
    for system, decision in sat_instances:
        for _ in range(10):
            concrete = instantiate(system, random_bindings(rng, system))
            t_value = t_of(concrete)
            for r in (t_value, t_value + 1, 2 * t_value):
                outcome = verify_witness(concrete, decision.n, r)
                assert all(value > 0 for value in outcome.values)
                checks += 1
    assert checks == 100 * 10 * 3
    clock.check()
    report(4, f"witness property: {checks} exact checks at r in {{t, t+1, 2t}}, no failures")


def test_criterion_5_oracle_equivalence():
    clock = Stopwatch(60.0)
    rng = random.Random(505)
    disagreements = 0
    for _ in range(200):
        condition = random_condition(rng, max_vars=3, max_clauses=6, max_literals=4, max_exp=5)
        if exhaustive_decide(condition) != (solve_condition(condition) is not None):
            disagreements += 1
    assert disagreements == 0
    clock.check()
    report(5, "oracle equivalence: 200 random conditions, 0 disagreements")


def test_criterion_6_dnf_cnf_agreement():
    clock = Stopwatch(60.0)
    rng = random.Random(606)
    for _ in range(200):
        system = random_signed_system(rng, max_rows=1, parametric=True, ensure_positive=False)
        dnf_sat = solve_dnf(system.d, build_dnf(system))[0] is not None
        assert dnf_sat == exhaustive_decide(build_cnf(system))
    clock.check()
    report(6, "single-row branch search matches the CNF oracle on 200 random systems")


def test_criterion_7_scaling_invariance(sat_instances):
    clock = Stopwatch(60.0)
    rng = random.Random(707)
    for system, decision in sat_instances:
        condition = build_cnf(system)
        n, _ = solve_dnf(system.d, build_dnf(system))
        assert condition.satisfied_by(n)
        for _ in range(5):
            delta = rng.randint(1, 100)
            assert condition.satisfied_by(tuple(delta * x for x in n))
    clock.check()
    report(7, "integer scaling: n and 5 random positive multiples certify every SAT instance")


def test_criterion_8_bound_dominance():
    clock = Stopwatch(60.0)
    rng = random.Random(808)
    sat_seen = 0
    for _ in range(100):
        system = random_signed_system(rng, parametric=False, integer_coeffs=True)
        bound = uniform_bound(system)
        assert bound >= t_of(system)
        decision = decide_system(system)
        if decision.status == "sat":
            sat_seen += 1
            assert all(value > 0 for value in verify_witness(system, decision.n, bound).values)
    assert sat_seen > 0
    clock.check()
    report(8, f"uniform bound dominates t on 100 systems and verifies all {sat_seen} SAT ones")


def test_criterion_9_coefficient_independence():
    clock = Stopwatch(60.0)
    rng = random.Random(909)
    for _ in range(50):
        template = random_signed_system(rng, parametric=True, ensure_positive=False)
        one = instantiate(template, random_bindings(rng, template))
        two = instantiate(template, random_bindings(rng, template))
        cond_one, cond_two = build_cnf(one), build_cnf(two)
        assert cond_one == cond_two
        dec_one, dec_two = decide_system(one), decide_system(two)
        assert dec_one.status == dec_two.status
        assert dec_one.n == dec_two.n
    clock.check()
    report(9, "decisions and conditions depend only on signs and exponents (50 pairs)")


def test_criterion_10_parser_round_trip():
    clock = Stopwatch(60.0)
    for name in GOLDEN_FILES:
        first = parse_system(read_data(name))
        assert parse_system(print_system(first)) == first
    rng = random.Random(1010)
    for _ in range(100):
        raw = random_signed_system(rng, parametric=rng.random() < 0.5, ensure_positive=False)
        first = parse_system(print_system(raw))
        assert parse_system(print_system(first)) == first
    clock.check()
    report(10, "parse-print-parse is parse on all golden files and 100 random systems")
