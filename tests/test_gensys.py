import random

from gensys import random_exponent_rows


def test_exponent_rows_capped_at_box_size():
    # only 7 distinct exponents fit in [0, 6]^1; asking for 10 must not loop forever
    rows = random_exponent_rows(random.Random(0), 10, 1, 6)
    assert sorted(rows) == [(e,) for e in range(7)]

