import random

from gensys import random_exponent_rows, random_signed_system


def test_exponent_rows_capped_at_box_size():
    # only 7 distinct exponents fit in [0, 6]^1; asking for 10 must not loop forever
    rows = random_exponent_rows(random.Random(0), 10, 1, 6)
    assert sorted(rows) == [(e,) for e in range(7)]


def test_signed_system_follows_capped_exponent_rows():
    # one variable with exponents in [0, 4] leaves room for 5 monomials, fewer
    # than the 7 that may be drawn; the sign matrix must match the exponent rows
    rng = random.Random(0)
    widths = set()
    for _ in range(40):
        system = random_signed_system(rng, max_monomials=7, max_vars=1, max_exp=4)
        assert system.v == len(system.e.entries) <= 5
        widths.add(system.v)
    assert 5 in widths
