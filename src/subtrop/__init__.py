"""Positive solvability of sign-patterned polynomial inequality systems.

Given polynomials whose monomials and coefficient signs are fixed while
the coefficient magnitudes stay free positive parameters, this package
decides whether the strict system ``f(x) > 0`` has a positive solution for
every choice of coefficients, and in the positive case constructs one
explicitly: a point ``x = t^n`` whose base t is a simple rational function
of the coefficients and whose integer exponent vector n is found by exact
linear reasoning.  All arithmetic is exact.
"""

from .condition import (
    Clause,
    DnfBranch,
    LinearCondition,
    LinearLiteral,
    MultiRowError,
    build_cnf,
    build_dnf_single,
)
from .core import (
    ConcreteCoefficients,
    ExponentMatrix,
    ExponentSolution,
    ParametricCoefficients,
    Rational,
    SignedSystem,
    SignMatrix,
    SubtropError,
    row_supports,
    zero_sign_rows,
)
from .lra import (
    ConjunctionSystem,
    RationalModel,
    SolverDefect,
    scale_to_integer,
    shrink_model,
    solve_cnf,
    solve_conjunction,
)
from .oracle import (
    BoxTooLarge,
    GridSpec,
    NotFoundWithin,
    TooManySelections,
    exhaustive_decide,
    grid_search,
)
from .parser import ParseError, parse_system, print_system
from .pipeline import Decision, decide_system
from .witness import (
    NonIntegerCoefficient,
    NonPositivePoint,
    PreconditionViolated,
    RatioTerm,
    SizeLimitExceeded,
    SymbolicWitness,
    UnboundCoefficient,
    UncertifiedExponent,
    VerificationReport,
    WitnessFailure,
    evaluate_system_at,
    evaluate_t,
    instantiate,
    ratio_terms,
    symbolic_t,
    uniform_bound,
    verify_witness,
)

__version__ = "0.1.0"

__all__ = [
    "BoxTooLarge",
    "Clause",
    "ConcreteCoefficients",
    "ConjunctionSystem",
    "Decision",
    "DnfBranch",
    "ExponentMatrix",
    "ExponentSolution",
    "GridSpec",
    "LinearCondition",
    "LinearLiteral",
    "MultiRowError",
    "NonIntegerCoefficient",
    "NonPositivePoint",
    "NotFoundWithin",
    "ParametricCoefficients",
    "ParseError",
    "PreconditionViolated",
    "Rational",
    "RationalModel",
    "RatioTerm",
    "SignMatrix",
    "SignedSystem",
    "SizeLimitExceeded",
    "SolverDefect",
    "SubtropError",
    "SymbolicWitness",
    "TooManySelections",
    "UnboundCoefficient",
    "UncertifiedExponent",
    "VerificationReport",
    "WitnessFailure",
    "build_cnf",
    "build_dnf_single",
    "decide_system",
    "evaluate_system_at",
    "evaluate_t",
    "exhaustive_decide",
    "grid_search",
    "instantiate",
    "parse_system",
    "print_system",
    "ratio_terms",
    "row_supports",
    "scale_to_integer",
    "shrink_model",
    "solve_cnf",
    "solve_conjunction",
    "symbolic_t",
    "uniform_bound",
    "verify_witness",
    "zero_sign_rows",
]
