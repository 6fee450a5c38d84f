"""Command-line front end: decide, witness, verify and explain.

Exit codes: 0 sat/ok, 1 unsat, 2 usage or input error, 3 a failed
``decide --check`` (a SAT vector that fails its condition, or disagreement
with a brute-force cross-check), 4 solver defect: a witness failure, a
failed internal check or any other unexpected exception, so that a crash
is never read as unsat.  Reports go to stdout, diagnostics to stderr.
JSON output is byte-stable: the same input and flags always produce the
same bytes.  The decision pipeline itself is :mod:`subtrop.pipeline`.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

from .condition import build_cnf, certifies
from .core import ExponentSolution, SignedSystem
from .lra import SolverDefect
from .oracle import TooManySelections, exhaustive_decide
from .parser import ParseError, parse_system
from .pipeline import Decision, decide_system, parse_coefficient_bindings
from .witness import (
    NonIntegerCoefficient,
    NonPositivePoint,
    PreconditionViolated,
    SizeLimitExceeded,
    UnboundCoefficient,
    VerificationReport,
    WitnessFailure,
    evaluate_t,
    instantiate,
    symbolic_t,
    uniform_bound,
    verify_witness,
)


def _load_system(path: str) -> SignedSystem:
    return parse_system(Path(path).read_text(encoding="utf-8"))


def _format_vector(values) -> str:
    return "(" + ", ".join(str(v) for v in values) + ")"


def _print_decision(decision: Decision, fmt: str):
    if fmt == "json":
        if decision.zero_row is not None:
            obj = {"status": "unsat", "reason": "zero-row", "row": decision.zero_row}
        elif decision.status == "sat":
            obj = {"status": "sat", "n": list(decision.n.n)}
        else:
            obj = {"status": "unsat"}
        print(json.dumps(obj))
    elif decision.status == "sat":
        print("SAT")
        print(f"n = {_format_vector(decision.n.n)}")
    else:
        print("UNSAT")
        if decision.zero_row is not None:
            print(f"identically zero polynomial in row {decision.zero_row}")


def _sample_bindings(system: SignedSystem, rng: random.Random) -> dict[str, Fraction]:
    names = [name for row in system.c.names for name in row if name is not None]
    return {name: Fraction(rng.randint(1, 10), rng.randint(1, 10)) for name in names}


def _run_checks(system: SignedSystem, decision: Decision, seed: int) -> int:
    """Cross-check a decision; 0 when every check holds, 3 on a disagreement.

    A SAT answer is checked against its certificate: the integer vector
    must certify the system (:func:`~subtrop.condition.certifies`), which
    proves that some selection is feasible, so the exhaustive enumeration
    would agree.  For a parametric template the witness is then verified
    exactly at 3 coefficient samples drawn from ``seed``; a failure raises
    :class:`~subtrop.witness.WitnessFailure`.  An UNSAT answer has no
    certificate: the CNF is built and re-decided by the exhaustive oracle,
    which shares no code with the search.
    """
    if decision.status == "unsat":
        if exhaustive_decide(build_cnf(system)):
            print("check failed: exhaustive selection search disagrees", file=sys.stderr)
            return 3
        return 0
    if not certifies(system, decision.n.n):
        print("check failed: the vector does not satisfy the linear condition", file=sys.stderr)
        return 3
    if system.is_parametric:
        rng = random.Random(seed)
        for _ in range(3):
            concrete = instantiate(system, _sample_bindings(system, rng))
            t_value = evaluate_t(symbolic_t(concrete, decision.n), concrete.c)
            verify_witness(concrete, decision.n, t_value)
    return 0


def cmd_decide(args) -> int:
    system = _load_system(args.input)
    decision = decide_system(system, shrink=args.shrink)
    if args.check and decision.zero_row is None:
        code = _run_checks(system, decision, args.seed)
        if code:
            return code
    _print_decision(decision, args.format)
    return 0 if decision.status == "sat" else 1


def cmd_witness(args) -> int:
    system = _load_system(args.input)
    decision = decide_system(system, shrink=args.shrink)
    if decision.status == "unsat":
        _print_decision(decision, args.format)
        print("no witness: the system has no positive solution scheme", file=sys.stderr)
        return 1
    witness = symbolic_t(system, decision.n)
    if args.format == "json":
        print(json.dumps(witness.to_json_dict()))
    else:
        print(witness.to_display_text())
    return 0


def _print_report(report: VerificationReport, n: ExponentSolution, fmt: str):
    """Print the exact values, however many digits they have.

    CPython (3.10.7 and later) refuses to convert an int of more than 4300
    digits to text by default; the limit is lifted here and restored
    afterwards.
    """
    if not hasattr(sys, "set_int_max_str_digits"):
        return _print_exact_report(report, n, fmt)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        _print_exact_report(report, n, fmt)
    finally:
        sys.set_int_max_str_digits(limit)


def _print_exact_report(report: VerificationReport, n: ExponentSolution, fmt: str):
    if fmt == "json":
        obj = {
            "status": "ok",
            "t": str(report.t_value),
            "r": str(report.r_value),
            "n": list(n.n),
            "point": [str(x) for x in report.point],
            "values": [str(x) for x in report.values],
        }
        print(json.dumps(obj))
    else:
        print(f"t = {report.t_value}")
        print(f"r = {report.r_value}")
        print(f"n = {_format_vector(n.n)}")
        print(f"point = {_format_vector(report.point)}")
        for i, value in enumerate(report.values):
            print(f"f{i + 1} = {value}")
        print("ok")


def cmd_verify(args) -> int:
    system = _load_system(args.input)
    if system.is_parametric:
        if not args.coeffs:
            print("error: parametric input needs --coeffs <file>", file=sys.stderr)
            return 2
        bindings = parse_coefficient_bindings(Path(args.coeffs).read_text(encoding="utf-8"))
        system = instantiate(system, bindings)
    elif args.coeffs:
        print("note: input is concrete, ignoring --coeffs", file=sys.stderr)
    decision = decide_system(system, shrink=args.shrink)
    if decision.status == "unsat":
        _print_decision(decision, args.format)
        return 1
    if args.use_uniform_bound:
        r = uniform_bound(system)
    else:
        r = evaluate_t(symbolic_t(system, decision.n), system.c)
    report = verify_witness(system, decision.n, r, max_bits=args.max_bits)
    _print_report(report, decision.n, args.format)
    return 0


def cmd_explain(args) -> int:
    system = _load_system(args.input)
    condition = build_cnf(system)
    if args.format == "json":
        # One clause at a time, so the literal dicts of only one clause are alive; the
        # bytes equal json.dumps of the whole {"num_vars", "clauses"} object.
        clauses = ", ".join(
            json.dumps(
                {
                    "row": clause.row,
                    "neg": clause.neg,
                    "literals": [{"pos": lit.pos, "coeffs": lit.coeffs} for lit in clause.literals],
                }
            )
            for clause in condition.clauses
        )
        print(f'{{"num_vars": {condition.num_vars}, "clauses": [{clauses}]}}')
    else:
        text = condition.to_debug_text()
        if text:
            print(text)
    return 0


def _build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subtrop",
        description=(
            "Decide whether a polynomial system with a fixed sign pattern has a "
            "positive solution for every choice of positive coefficients, and "
            "construct an exact witness when it does."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("input", help="input system (.spp file)")
        p.add_argument("--format", choices=("text", "json"), default="text")

    p_decide = sub.add_parser("decide", help="report SAT with an integer vector, or UNSAT")
    common(p_decide)
    p_decide.add_argument("--check", action="store_true", help="cross-check with brute force")
    p_decide.add_argument("--seed", type=int, default=0, help="seed for --check sampling")
    p_decide.add_argument("--shrink", action="store_true", help="shrink the vector toward 0")
    p_decide.set_defaults(func=cmd_decide)

    p_witness = sub.add_parser("witness", help="print the symbolic witness t and t^n")
    common(p_witness)
    p_witness.add_argument("--shrink", action="store_true", help="shrink the vector toward 0")
    p_witness.set_defaults(func=cmd_witness)

    p_verify = sub.add_parser("verify", help="evaluate the witness exactly and check f > 0")
    common(p_verify)
    p_verify.add_argument("--coeffs", help="coefficient values file (parametric input)")
    p_verify.add_argument(
        "--use-uniform-bound",
        action="store_true",
        help="use 1 + v * (sum of negative integer coefficients) instead of t",
    )
    p_verify.add_argument("--max-bits", type=int, help="abort if evaluation exceeds this size")
    p_verify.add_argument("--shrink", action="store_true", help="shrink the vector toward 0")
    p_verify.set_defaults(func=cmd_verify)

    p_explain = sub.add_parser("explain", help="print the linear condition with provenance")
    common(p_explain)
    p_explain.set_defaults(func=cmd_explain)
    return parser


def main(argv=None) -> int:
    args = _build_arg_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (
        UnboundCoefficient,
        NonIntegerCoefficient,
        NonPositivePoint,
        PreconditionViolated,
        SizeLimitExceeded,
        TooManySelections,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except WitnessFailure as exc:
        print(f"witness failure (solver defect): {exc}", file=sys.stderr)
        return 4
    except SolverDefect as exc:
        print(f"solver defect: {exc}", file=sys.stderr)
        return 4
    except Exception as exc:
        message = str(exc).replace("\n", " ")
        print(f"internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
