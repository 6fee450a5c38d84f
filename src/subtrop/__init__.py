"""Positive solvability of sign-patterned polynomial inequality systems.

Given polynomials whose monomials and coefficient signs are fixed while
the coefficient magnitudes stay free positive parameters, this package
decides whether the strict system ``f(x) > 0`` has a positive solution for
every choice of coefficients, and in the positive case constructs one
explicitly: a point ``x = t^n`` whose base t is a simple rational function
of the coefficients and whose integer exponent vector n is found by exact
linear reasoning.  All arithmetic is exact.

The namespace holds the pipeline API: parsing, deciding, the witness and
its verification, and the types and exceptions these use.  An exponent
vector is a plain ``tuple[int, ...]``, and so is the search's answer.  The
matrix, CNF, search and oracle helpers are imported from their own modules.
"""

from .core import SignedSystem, SubtropError
from .lra import SolverDefect
from .parser import ParseError, parse_system, print_system
from .pipeline import Decision, decide_system
from .witness import (
    NonIntegerCoefficient,
    PreconditionViolated,
    SizeLimitExceeded,
    SymbolicWitness,
    UnboundCoefficient,
    UncertifiedExponent,
    VerificationReport,
    WitnessFailure,
    instantiate,
    symbolic_t,
    uniform_bound,
    verify_witness,
)

__version__ = "0.1.0"

__all__ = [
    "Decision",
    "NonIntegerCoefficient",
    "ParseError",
    "PreconditionViolated",
    "SignedSystem",
    "SizeLimitExceeded",
    "SolverDefect",
    "SubtropError",
    "SymbolicWitness",
    "UnboundCoefficient",
    "UncertifiedExponent",
    "VerificationReport",
    "WitnessFailure",
    "decide_system",
    "instantiate",
    "parse_system",
    "print_system",
    "symbolic_t",
    "uniform_bound",
    "verify_witness",
]
