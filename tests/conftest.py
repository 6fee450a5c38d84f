from fractions import Fraction
from pathlib import Path

import pytest

from subtrop import lra, parse_system
from subtrop.condition import LinearCondition
from subtrop.lra import solve_dnf

DATA = Path(__file__).parent / "data"


def read_data(name: str) -> str:
    return (DATA / name).read_text(encoding="utf-8")


def load(name: str):
    return parse_system(read_data(name))


@pytest.fixture
def data_dir() -> Path:
    return DATA


def solve_condition(condition: LinearCondition):
    """``solve_dnf`` on the CNF itself: a row per clause, a one-form branch per literal."""
    rows = [[(lit.coeffs,) for lit in c.literals] for c in condition.clauses]
    return solve_dnf(condition.num_vars, rows)


def solve_rows(num_vars: int, rows):
    """``solve_dnf`` on one row with one branch that asserts every ``coeffs . n >= 1``."""
    return solve_dnf(num_vars, ((tuple(map(tuple, rows)),),))


def exact(solve, *args):
    """The model behind ``solve(*args)`` as Fractions, or None when it returns None.

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
        n = solve(*args)
    finally:
        lra._Simplex.model = model
    return None if n is None else recorded[-1]
