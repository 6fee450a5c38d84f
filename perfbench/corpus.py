"""Seeded corpus generator for the benchmark's three workloads.

A workload's stream instance is a pure function of ``(workload, seed,
index)``, its head is the same for every seed, and how many stream
instances a run takes depends only on ``--seconds`` and ``--trace``
(:func:`stream_length`): the same arguments give the same calls.
Each instance carries the CLI calls to run on it, a per-call time limit, the
reason it is in the corpus and a reference answer.  Reference answers come
only from the independent brute-force oracle (:mod:`subtrop.oracle`), run
here on the instance or on a subsystem whose clauses it contains; anything
the oracle cannot afford is recorded as ``unknown`` and its SAT verdicts are
still checked against their certificate at run time.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

MAX_EXP = 10

# The oracle enumerates every selection of one literal per clause and runs
# Fourier-Motzkin without deduplication on each, whose row count can square
# with every variable eliminated: at 4 variables one selection can take
# minutes and gigabytes.  References are computed only within both limits.
REFERENCE_SELECTIONS = 400
REFERENCE_MAX_VARS = 2

# Each workload has a head, a fixed list that every run measures, and a
# stream drawn from the run's seed that fills the rest of the run.
# The random templates sit in the head.  Their cost is heavy-tailed: most
# decide in milliseconds, many never do, and which ones do cannot be told
# from their shape.  A fresh draw of them per seed moved the share decided
# by 10-20 % and the decided calls per second by over 20 % from seed to
# seed, so the head is drawn once, from HEAD_SEED, as a fixed corpus: a
# change in how many templates decide is then a change in the code.  The
# streams hold instance families whose cost varies little from one seed to
# the next, so that time-based metrics stay steady.
HEAD_SEED = 7

# Stream instances a run takes per second of --seconds.  At --seconds 28
# and the seed's speed, a run measured 26-32 s of calls, head included.  The
# count does not follow the host's speed, so two runs with the same
# arguments make the same calls and count the same attempts and failures.
STREAM_PER_S = {"search": 7.7, "certify": 34.0, "frontend": 1.5}

# Per-call time limits in nominal seconds; run.py scales them with host
# speed (calibration.py).  A call that reaches its limit is undecided.
# Long rows get room to reach the interpreter's recursion limit, so that
# defect shows as a crash, not a timeout.  A call that fails close to its
# limit would fail in one run and time out in the next, and one that decides
# close to it would move decided_frac, so each limit sits in a gap of the
# calls' times.  Run in-process without a limit, the search templates take
# at most 0.24 s or at least 1.1 s; at a limit of 0.25 s, two of them
# decided in some runs only.  Certify's failing calls take at most 0.07 s or
# at least 0.49 s; at 0.1 s, a refusal that took 0.08 s in the worker, which
# runs calls about 20 % slower, became a timeout in some runs.  No call of
# the certify stream fails.  Its calls have a heavy tail,
# from --check evaluating large witnesses without a size bound: at 0.16 s,
# a third of its time went to the calls at the limit, and how many of those
# a seed drew spread its decided calls per second by 0.13.  A lower limit
# caps what each of them costs.
SEARCH_LIMIT_S = 0.5
LONG_ROW_LIMIT_S = 30.0
CERTIFY_LIMIT_S = 0.16
CERTIFY_STREAM_LIMIT_S = 0.08
FRONTEND_LIMIT_S = 60.0

# verify --max-bits: witnesses whose point needs more bits are refused.
VERIFY_MAX_BITS = 32768

# Search head: single-variable rows c*x^2000 - sum_{k<=K} c_k x^k (one
# clause per k, each with one literal, so the search descends K levels),
# then ROADMAP stress templates from (3,10,4) to (5,14,6) and planted-UNSAT
# templates, SEARCH_ROUNDS times over.
LONG_ROWS_SAT = (100, 300, 1200)
LONG_ROWS_UNSAT = (200,)
SEARCH_ROUND = (
    ("stress", (3, 10, 4)),
    ("stress", (3, 10, 4)),
    ("stress", (4, 12, 5)),
    ("stress", (5, 14, 6)),
    ("planted-unsat", (3, 10, 4)),
    ("planted-unsat", (4, 12, 5)),
)
SEARCH_ROUNDS = 10
# Search stream: long rows with K cycling through this range, exponents seeded.
STREAM_K = range(40, 80)

# Certify head: random templates whose selection counts straddle the
# oracle's 10^6 limit, one-row systems among them, CERTIFY_ROUNDS times over.
CERTIFY_ROUND = ((3, 10, 3), (4, 10, 3), (1, 16, 3), (1, 10, 2), (2, 8, 2))
CERTIFY_ROUNDS = 15
# Certify stream: two-variable templates of fixed shape (rows, positive
# terms per row, negative terms per row), small enough for an oracle reference.
# They run decide --check only.  Their verify calls refused or crashed on
# about one template in ten, those with large witnesses, so how many calls
# failed followed the seed; the head keeps verify and every defect it shows.
CERTIFY_SHAPES = ((1, 3, 3), (2, 2, 2), (1, 4, 3), (2, 3, 2))

# Frontend: (rows, terms per row) over 6 variables.  The 50 x 200 file
# (about 0.4 MB, v near 10k) is the head.  Stream files step through a grid
# of 5-20 rows by 40-100 terms, so their sizes, and the times of their
# calls, spread evenly instead of clumping into a few tiers.
FRONTEND_HEAD = ((50, 200),)
FRONTEND_ROWS = range(5, 21)
FRONTEND_TERMS = range(40, 101)
FRONTEND_VARS = 6


@dataclass
class Instance:
    """One corpus entry: an ``.spp`` system, its coefficient values and its calls."""

    ident: str
    workload: str
    kind: str
    tier: str
    why: str
    spp: str
    coeffs: str
    calls: list[list[str]]
    limit_s: float
    reference: str = "unknown"  # "sat" | "unsat" | "unknown"
    reference_source: str | None = None
    expected: dict = field(default_factory=dict)
    head: bool = False

    def manifest_entry(self) -> dict:
        return {
            "id": self.ident,
            "workload": self.workload,
            "kind": self.kind,
            "tier": self.tier,
            "why": self.why,
            "reference": self.reference,
            "reference_source": self.reference_source,
            "limit_s": self.limit_s,
            "calls": self.calls,
            "expected": self.expected,
        }


def exponent_rows(rng: random.Random, v: int, d: int, max_exp: int = MAX_EXP):
    """Distinct exponent vectors in ``[0, max_exp]^d``; ``v`` is capped at ``(max_exp+1)^d``."""
    v = min(v, (max_exp + 1) ** d)
    rows: list[tuple[int, ...]] = []
    seen = set()
    while len(rows) < v:
        row = tuple(rng.randint(0, max_exp) for _ in range(d))
        if row not in seen:
            seen.add(row)
            rows.append(row)
    return rows


def sign_rows(rng: random.Random, u: int, v: int):
    """Signs uniform in {-1, 0, +1} with one +1 forced per row."""
    rows = []
    for _ in range(u):
        row = [rng.choice((-1, 0, 1)) for _ in range(v)]
        row[rng.randrange(v)] = 1
        rows.append(row)
    return rows


def _monomial(exps) -> str:
    return "*".join(f"x{k + 1}^{e}" if e > 1 else f"x{k + 1}" for k, e in enumerate(exps) if e)


def render(d: int, exps, signs) -> str:
    """``.spp`` text; coefficient ``c<i>_<j>`` sits at row i, monomial j (1-based)."""
    lines = ["vars " + " ".join(f"x{k + 1}" for k in range(d))]
    for i, row in enumerate(signs):
        terms = []
        for j, sign in enumerate(row):
            if sign == 0:
                continue
            mono = _monomial(exps[j])
            body = f"c{i + 1}_{j + 1}" + (f"*{mono}" if mono else "")
            terms.append(("- " if sign < 0 else "+ ") + body)
        lines.append(f"poly f{i + 1} = " + " ".join(terms))
    return "\n".join(lines) + "\n"


def coefficient_values(rng: random.Random, signs) -> str:
    """Seeded positive rationals p/q, p and q in [1, 10], one per coefficient name."""
    lines = []
    for i, row in enumerate(signs):
        for j, sign in enumerate(row):
            if sign != 0:
                lines.append(f"c{i + 1}_{j + 1} = {rng.randint(1, 10)}/{rng.randint(1, 10)}")
    return "\n".join(lines) + "\n"


def selections(signs) -> int:
    """Number of one-literal-per-clause selections: prod over rows of pos^neg."""
    total = 1
    for row in signs:
        total *= sum(1 for s in row if s > 0) ** sum(1 for s in row if s < 0)
    return total


def clause_counts(signs) -> dict:
    """Clauses and literals ``build_cnf`` must produce for these sign rows."""
    clauses = literals = 0
    for row in signs:
        pos = sum(1 for s in row if s > 0)
        neg = sum(1 for s in row if s < 0)
        clauses += neg
        literals += pos * neg
    return {"clauses": clauses, "literals": literals}


def affordable(signs, d: int) -> bool:
    return d <= REFERENCE_MAX_VARS and selections(signs) <= REFERENCE_SELECTIONS


def oracle_answer(text: str) -> str:
    """Brute-force verdict on ``.spp`` text; call only when :func:`affordable` holds."""
    from subtrop.condition import build_cnf
    from subtrop.oracle import exhaustive_decide
    from subtrop.parser import parse_system

    return "sat" if exhaustive_decide(build_cnf(parse_system(text))) else "unsat"


def _rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def _tier_name(tier) -> str:
    return "x".join(str(x) for x in tier)


# -- search ---------------------------------------------------------------


def long_row_text(k: int, unsat: bool, rng: random.Random | None = None):
    """``c*x^2000 - sum_j c_j x^{e_j}`` with k negative terms, plus ``- d*x^2001`` if unsat.

    Without ``rng`` the exponents are 1..k; with it, k distinct seeded values
    below 2000.  Either way the search descends one level per negative term.
    """
    low = sorted(rng.sample(range(2000), k)) if rng else range(1, k + 1)
    exps = [(2000,)] + [(e,) for e in low] + ([(2001,)] if unsat else [])
    signs = [[1] + [-1] * (len(exps) - 1)]
    return render(1, exps, signs), signs


def _long_row(ident: str, k: int, unsat: bool, rng, limit_s: float, head: bool) -> Instance:
    text, signs = long_row_text(k, unsat, rng)
    kind = "long-row-unsat" if unsat else "long-row"
    why = f"one variable, {k} negative terms: the search descends {k} levels" + (
        " and backtracks all of them" if unsat else ""
    )
    return Instance(
        ident=ident,
        workload="search",
        kind=kind,
        tier=f"K{k}" if head else "K40-79",
        why=why,
        spp=text,
        coeffs="",
        calls=[["decide", "--format", "json"]],
        limit_s=limit_s,
        reference=oracle_answer(text),
        reference_source="oracle",
        head=head,
    )


def _planted_unsat(rng: random.Random, u: int, v: int, d: int):
    """A random template whose last two rows contradict each other.

    Rows ``m_a - m_b`` and ``m_b - m_a`` need ``(a-b).n >= 1`` and
    ``(b-a).n >= 1`` at once.  They come last, so a depth-first search must
    exhaust every feasible selection of the earlier rows first.
    """
    exps = exponent_rows(rng, v, d)
    signs = sign_rows(rng, u - 2, len(exps))
    a, b = rng.sample(range(len(exps)), 2)
    for plus, minus in ((a, b), (b, a)):
        row = [0] * len(exps)
        row[plus], row[minus] = 1, -1
        signs.append(row)
    return exps, signs, render(d, exps, signs[-2:])


def _search_template(index: int) -> Instance:
    rng = _rng("search-head", HEAD_SEED, index)
    kind, (u, v, d) = SEARCH_ROUND[index % len(SEARCH_ROUND)]
    if kind == "planted-unsat":
        exps, signs, contradiction = _planted_unsat(rng, u, v, d)
        why = "two contradictory last rows: UNSAT after a full backtrack"
        reference, source = oracle_answer(contradiction), "oracle on the two planted rows"
    else:
        exps = exponent_rows(rng, v, d)
        signs = sign_rows(rng, u, len(exps))
        why = "ROADMAP stress template"
        reference, source = "unknown", None
    text = render(d, exps, signs)
    if reference == "unknown" and affordable(signs, d):
        reference, source = oracle_answer(text), "oracle"
    return Instance(
        ident=f"search-head-{index}",
        workload="search",
        kind=kind,
        tier=_tier_name((u, v, d)),
        why=why,
        spp=text,
        coeffs=coefficient_values(rng, signs),
        calls=[["decide", "--format", "json"]],
        limit_s=SEARCH_LIMIT_S,
        reference=reference,
        reference_source=source,
        expected={"selections": selections(signs)},
        head=True,
    )


def _search_head() -> list[Instance]:
    rows = [(k, False) for k in LONG_ROWS_SAT] + [(k, True) for k in LONG_ROWS_UNSAT]
    out = [
        _long_row(f"search-{'long-row-unsat' if unsat else 'long-row'}-{k}", k, unsat, None,
                  LONG_ROW_LIMIT_S, head=True)
        for k, unsat in rows
    ]
    out += [_search_template(i) for i in range(SEARCH_ROUNDS * len(SEARCH_ROUND))]
    return out


def search_instance(seed: int, index: int) -> Instance:
    k = STREAM_K[(index // 2) % len(STREAM_K)]
    rng = _rng("search", seed, index)
    return _long_row(f"search-{index}", k, index % 2 == 1, rng, LONG_ROW_LIMIT_S, head=False)


# -- certify --------------------------------------------------------------


def _certify(ident: str, rng: random.Random, d: int, exps, signs, kind: str, head: bool):
    text = render(d, exps, signs)
    count = selections(signs)
    reference, source = "unknown", None
    if affordable(signs, d):
        reference, source = oracle_answer(text), "oracle"
    side = "above" if count > 10**6 else "below"
    calls = [["decide", "--check", "--seed", str(rng.randrange(10**6)), "--format", "json"]]
    if head:
        calls.append(
            ["verify", "--coeffs", "{coeffs}", "--max-bits", str(VERIFY_MAX_BITS), "--format", "json"]
        )
    return Instance(
        ident=ident,
        workload="certify",
        kind=kind,
        tier=_tier_name((len(signs), len(exps), d)),
        why=f"{count} selections, {side} the oracle's 10^6 limit",
        spp=text,
        coeffs=coefficient_values(rng, signs),
        calls=calls,
        limit_s=CERTIFY_LIMIT_S if head else CERTIFY_STREAM_LIMIT_S,
        reference=reference,
        reference_source=source,
        expected={"selections": count},
        head=head,
    )


def _certify_head() -> list[Instance]:
    out = []
    for index in range(CERTIFY_ROUNDS * len(CERTIFY_ROUND)):
        rng = _rng("certify-head", HEAD_SEED, index)
        u, v, d = CERTIFY_ROUND[index % len(CERTIFY_ROUND)]
        exps = exponent_rows(rng, v, d)
        signs = sign_rows(rng, u, len(exps))
        kind = "one-row" if u == 1 else "small"
        out.append(_certify(f"certify-head-{index}", rng, d, exps, signs, kind, head=True))
    return out


def certify_instance(seed: int, index: int) -> Instance:
    """A two-variable template with a fixed number of positive and negative terms per row."""
    rng = _rng("certify", seed, index)
    u, pos, neg = CERTIFY_SHAPES[index % len(CERTIFY_SHAPES)]
    width = pos + neg
    exps = exponent_rows(rng, u * width, 2)
    signs = []
    for i in range(u):
        pattern = [1] * pos + [-1] * neg
        rng.shuffle(pattern)
        row = [0] * len(exps)
        row[i * width:(i + 1) * width] = pattern
        signs.append(row)
    return _certify(f"certify-{index}", rng, 2, exps, signs, f"shape-{pos}+{neg}", head=False)


# -- frontend -------------------------------------------------------------


def frontend_text(rng: random.Random, rows: int, terms: int):
    """``rows`` polynomials of ``terms`` distinct monomials each, signs +-1, one +1 forced."""
    space = (MAX_EXP + 1) ** FRONTEND_VARS
    index: dict[tuple[int, ...], int] = {}
    exps: list[tuple[int, ...]] = []
    row_cols = []
    for _ in range(rows):
        cols: list[int] = []
        chosen = set()
        while len(cols) < min(terms, space):
            mono = tuple(rng.randint(0, MAX_EXP) for _ in range(FRONTEND_VARS))
            if mono in chosen:
                continue
            chosen.add(mono)
            if mono not in index:
                index[mono] = len(exps)
                exps.append(mono)
            cols.append(index[mono])
        row_cols.append(cols)
    signs = []
    for cols in row_cols:
        row = [0] * len(exps)
        for j in cols:
            row[j] = rng.choice((-1, 1))
        row[rng.choice(cols)] = 1
        signs.append(row)
    return render(FRONTEND_VARS, exps, signs), signs


def _frontend(seed: int, index: int, shape, head: bool) -> Instance:
    rng = _rng("frontend-head" if head else "frontend", seed, index)
    text, signs = frontend_text(rng, *shape)
    expected = clause_counts(signs)
    expected["bytes"] = len(text)
    return Instance(
        ident=f"frontend-{'head-' if head else ''}{index}",
        workload="frontend",
        kind="large" if head else "grid",
        tier=_tier_name(shape) if head else "5-20x40-100",
        why=f"{shape[0]} rows x {shape[1]} terms, {len(text)} bytes: parse and CNF only",
        spp=text,
        coeffs="",
        calls=[["explain", "--format", "text"], ["explain", "--format", "json"]],
        limit_s=FRONTEND_LIMIT_S,
        reference="n/a",
        reference_source="generator clause and literal counts",
        expected=expected,
        head=head,
    )


def frontend_instance(seed: int, index: int) -> Instance:
    rows = FRONTEND_ROWS[(7 * index) % len(FRONTEND_ROWS)]
    terms = FRONTEND_TERMS[(13 * index) % len(FRONTEND_TERMS)]
    return _frontend(seed, index, (rows, terms), head=False)


# -- entry point ----------------------------------------------------------

WORKLOADS = ("search", "certify", "frontend")


def head(workload: str) -> list[Instance]:
    """The fixed instances every run of the workload measures, before the seeded stream."""
    if workload == "search":
        return _search_head()
    if workload == "certify":
        return _certify_head()
    return [_frontend(HEAD_SEED, i, shape, head=True) for i, shape in enumerate(FRONTEND_HEAD)]


def stream_length(workload: str, seconds: float, trace: bool) -> int:
    """Stream instances a run takes; a traced run, which makes every call twice, takes half."""
    return max(1, round(STREAM_PER_S[workload] * seconds / (2 if trace else 1)))


def stream(workload: str, seed: int, index: int) -> Instance:
    """Instance ``index`` of the workload's seeded stream."""
    make = {"search": search_instance, "certify": certify_instance, "frontend": frontend_instance}
    return make[workload](seed, index)
