import json
import random
import signal
from fractions import Fraction
from pathlib import Path

import pytest

from subtrop import SignedSystem, lra, parse_system
from subtrop.condition import LinearCondition
from subtrop.core import ConcreteCoefficients, ExponentMatrix, SignMatrix
from subtrop.lra import solve_dnf

from gensys import random_signed_system

DATA = Path(__file__).parent / "data"


def read_data(name: str) -> str:
    return (DATA / name).read_text(encoding="utf-8")


def load(name: str):
    return parse_system(read_data(name))


@pytest.fixture
def data_dir() -> Path:
    return DATA


# Over 20 times the slowest test; a search that stops terminating fails here.
TIME_LIMIT_S = 60


@pytest.fixture(autouse=True)
def time_limit():
    """Fail each test that runs past ``TIME_LIMIT_S`` instead of letting it stall the suite.

    The limit is an interval timer on SIGALRM, so it is not set where the
    platform has no such signal.
    """
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        pytest.fail(f"test ran past {TIME_LIMIT_S} s", pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def dense_signs(system) -> tuple[tuple[int, ...], ...]:
    """The u x v sign matrix of ``system``, with 0 at every column a row has no term at."""
    rows = [dict(row) for row in system.s.entries]
    return tuple(tuple(row.get(j, 0) for j in range(system.v)) for row in rows)


def rebuild(system):
    """``system`` built again through the validating constructors of its values."""
    return SignedSystem(
        SignMatrix(system.s.entries, system.s.cols),
        ExponentMatrix(system.e.entries, system.e.cols),
        type(system.c)(*system.c._fields()),
        system.var_names,
    )


def assert_constructors_agree(system):
    """``system`` equals its :func:`rebuild` and stores what the constructors store.

    That is tuples of tuples of ints, and ``str`` names or ``Fraction``
    values; equality alone would let a list or an int ``1`` through.
    """
    assert rebuild(system) == system
    coefficients = system.c.names if system.is_parametric else system.c.values
    assert type(system.var_names) is tuple and {type(x) for x in system.var_names} == {str}
    for rows in (system.s.entries, system.e.entries, coefficients):
        assert type(rows) is tuple and {type(row) for row in rows} <= {tuple}
    assert {type(term) for row in system.s.entries for term in row} <= {tuple}
    assert {type(x) for row in system.s.entries for term in row for x in term} <= {int}
    assert {type(x) for row in system.e.entries for x in row} <= {int}
    assert {type(x) for row in coefficients for x in row} <= {
        str if system.is_parametric else Fraction}
    assert type(system.s.cols) is int and type(system.e.cols) is int


def coefficients_by_column(system, i: int) -> dict:
    """Row ``i``'s coefficients, names or values, keyed by the column of their term."""
    row = system.c.names[i] if system.is_parametric else system.c.values[i]
    return dict(zip([j for j, _ in system.s.entries[i]], row))


def sign_row_terms(system):
    """The paper's pairwise terms of t, read from the sign rows and the naming rule.

    One ``(numerator name, denominator name, row, pos, neg)`` per same-row
    sign pair, row-major, then negative k, then positive j.
    """
    terms = []
    for i, row in enumerate(system.s.entries):
        if system.is_parametric:
            names = coefficients_by_column(system, i)
        else:
            names = {j: f"c_{i + 1}_{j + 1}" for j, _ in row}
        positive = [j for j, sign in row if sign > 0]
        negative = [k for k, sign in row if sign < 0]
        terms += [(names[k], names[j], i, j, k) for k in negative for j in positive]
    return terms


def reference_explain_json(condition) -> str:
    """``explain --format json`` stdout, encoded as one object with list coefficients."""
    obj = {
        "num_vars": condition.num_vars,
        "clauses": [
            {
                "row": clause.row,
                "neg": clause.neg,
                "literals": [
                    {"pos": lit.pos, "coeffs": list(lit.coeffs)} for lit in clause.literals
                ],
            }
            for clause in condition.clauses
        ],
    }
    return json.dumps(obj) + "\n"


def t_of(system) -> Fraction:
    """The paper's t of a concrete system, summed pairwise: 1 + sum of c_neg / c_pos."""
    values = [coefficients_by_column(system, i) for i in range(system.u)]
    return Fraction(1) + sum(values[i][k] / values[i][j] for *_, i, j, k in sign_row_terms(system))


def expand(witness_rows):
    """``(neg name, pos name, row)`` for each pair that the per-row form multiplies out to."""
    return [(k, j, i) for i, neg, pos in witness_rows for k in neg for j in pos]


def pin_batch():
    """300 seeded systems for the model digest, with up to 8 monomials in 4 variables."""
    rng = random.Random(13)
    return [
        random_signed_system(rng, max_rows=4, max_monomials=8, max_vars=4, max_exp=6)
        for _ in range(300)
    ]


def solve_condition(condition: LinearCondition):
    """``solve_dnf``'s vector on the CNF itself: a row per clause, a one-form branch per literal."""
    rows = [[(lit.coeffs,) for lit in c.literals] for c in condition.clauses]
    return solve_dnf(condition.num_vars, rows)[0]


def solve_rows(num_vars: int, rows):
    """``solve_dnf``'s vector on one row with one branch that asserts every ``coeffs . n >= 1``."""
    return solve_dnf(num_vars, ((tuple(map(tuple, rows)),),))[0]


def exact(solve, *args):
    """The model behind ``solve(*args)`` as Fractions, or None when it finds none.

    ``solve`` is :func:`~subtrop.lra.solve_dnf` or a helper that calls it
    once.  The model is recorded from ``_Simplex.model()``, the
    ``(common, nums)`` pair that ``solve_dnf`` turns into its integer
    vector.
    """
    recorded = []
    model = lra._Simplex.model

    def recording(engine):
        common, nums = model(engine)
        recorded.append(tuple(Fraction(x, common) for x in nums))
        return common, nums

    lra._Simplex.model = recording
    try:
        solve(*args)
    finally:
        lra._Simplex.model = model
    return recorded[-1] if recorded else None
