from pathlib import Path

import pytest

from subtrop import parse_system
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
