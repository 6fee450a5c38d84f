"""Command-line front end: decide, witness, verify and explain.

Grammar: ``subtrop COMMAND INPUT [OPTIONS]``, options before or after
INPUT, as listed in ``_USAGE``.  An option's value follows it as the next
argument or after ``=`` (``--max-bits 64`` or ``--max-bits=64``;
``--max-bits -3`` gives the value -3, which ``_LEAST`` then refuses).
Options are spelled in full, with no abbreviations, and ``--`` ends them,
so ``-- -x.spp`` names an INPUT that starts with ``-``.
``-h`` or ``--help`` prints the usage and a summary to stdout; :func:`main`
returns 0.
Any other argument outside the grammar is a usage error: the usage and
``subtrop: error: <reason>`` go to stderr and :func:`main` returns 2.
Arguments are read from one table, ``_COMMANDS``, by a short loop: building
:mod:`argparse` parsers cost more than deciding a small system.

Exit codes: 0 sat/ok, 1 unsat, 2 usage or input error (an ``OSError``, or
any :class:`~subtrop.core.SubtropError` but the two defects below), 3 a
failed ``decide --check`` (a SAT vector that fails its condition, or
disagreement with a brute-force cross-check), 4 solver defect: a witness
failure (:class:`~subtrop.witness.WitnessFailure`), a failed internal check
(:class:`~subtrop.lra.SolverDefect`) or any other unexpected exception, so
that a crash is never read as unsat.  Reports go to stdout, diagnostics to
stderr.  JSON output is byte-stable: the same input and flags always
produce the same bytes.  The decision pipeline itself is
:mod:`subtrop.pipeline`.
"""

from __future__ import annotations

import json
import sys
from itertools import cycle
from operator import sub
from types import SimpleNamespace

from .condition import build_cnf, certifies, dominance_rows
from .core import SignedSystem, SubtropError
from .lra import SolverDefect
from .oracle import exhaustive_decide
from .parser import parse_system
from .pipeline import Decision, decide_system, parse_coefficient_bindings
from .witness import (
    VerificationReport,
    WitnessFailure,
    instantiate,
    symbolic_t,
    uniform_bound,
    verify_witness,
)


class _InputError(SubtropError):
    """An input file that cannot be read as text."""


def _read(path: str) -> str:
    """The text of the UTF-8 file at ``path``; other bytes raise :class:`_InputError`.

    The bytes are decoded whole, with no newline translation: the parsers
    split lines with ``str.splitlines``, which ends a line at ``\\r\\n``,
    ``\\r`` or ``\\n`` alike.  Reading in binary mode is cheaper on a first
    call than building a text wrapper.
    """
    with open(path, "rb") as file:
        data = file.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise _InputError(f"{path} is not UTF-8 text: {exc}") from None


def _load_system(path: str) -> SignedSystem:
    return parse_system(_read(path))


def _format_vector(values) -> str:
    return "(" + ", ".join(str(v) for v in values) + ")"


def _print_decision(decision: Decision, fmt: str):
    if fmt == "json":
        # the bytes json.dumps gives for these three shapes, which hold only
        # fixed keys and ints, written without building the objects
        if decision.zero_row is not None:
            text = f'{{"status": "unsat", "reason": "zero-row", "row": {decision.zero_row}}}'
        elif decision.status == "sat":
            text = f'{{"status": "sat", "n": [{", ".join(map(str, decision.n))}]}}'
        else:
            text = '{"status": "unsat"}'
        sys.stdout.write(text + "\n")
    elif decision.status == "sat":
        print("SAT")
        print(f"n = {_format_vector(decision.n)}")
    else:
        print("UNSAT")
        if decision.zero_row is not None:
            print(f"identically zero polynomial in row {decision.zero_row}")


def _run_checks(system: SignedSystem, decision: Decision) -> int:
    """Cross-check a decision; 0 when every check holds, 3 on a disagreement.

    A SAT vector ``n`` must certify the system
    (:func:`~subtrop.condition.certifies`), and that alone proves
    ``f(r^n) > 0`` for all positive coefficients and all ``r >= t``, so
    nothing is sampled or evaluated.  In a row with negative monomials
    ``N``, let ``j*`` be the positive monomial with the largest
    ``e_j . n = m``; then every ``k`` in ``N`` has ``e_k . n <= m - 1``, and
    as ``r >= 1``, ``f_i(r^n) >= r^(m - 1) (c_j* r - sum_{k in N} c_k)``.
    The bracket is positive because
    ``t = 1 + sum_i (sum_{k in N_i} c_k)(sum_{j in P_i} 1/c_j)`` is at least
    ``1 + sum_{k in N} c_k / c_j*``.  A row without negative monomials is a
    sum of positive terms.  ``verify`` checks the witness arithmetic.  An
    UNSAT answer has no certificate: the CNF is built and re-decided by the
    exhaustive oracle, which shares no code with the search.
    """
    if decision.status == "unsat":
        if exhaustive_decide(build_cnf(system)):
            print("check failed: exhaustive selection search disagrees", file=sys.stderr)
            return 3
        return 0
    if not certifies(system, decision.n):
        print("check failed: the vector does not satisfy the linear condition", file=sys.stderr)
        return 3
    return 0


def cmd_decide(args) -> int:
    system = _load_system(args.input)
    decision = decide_system(system)
    if args.check and decision.zero_row is None:
        code = _run_checks(system, decision)
        if code:
            return code
    _print_decision(decision, args.format)
    return 0 if decision.status == "sat" else 1


def cmd_witness(args) -> int:
    system = _load_system(args.input)
    decision = decide_system(system)
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


def _print_report(report: VerificationReport, n: tuple[int, ...], fmt: str):
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


def _print_exact_report(report: VerificationReport, n: tuple[int, ...], fmt: str):
    if fmt == "json":
        obj = {
            "status": "ok",
            "t": str(report.t_value),
            "r": str(report.r_value),
            "n": list(n),
            "point": [str(x) for x in report.point],
            "values": [str(x) for x in report.values],
        }
        print(json.dumps(obj))
    else:
        print(f"t = {report.t_value}")
        print(f"r = {report.r_value}")
        print(f"n = {_format_vector(n)}")
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
        bindings = parse_coefficient_bindings(_read(args.coeffs))
        system = instantiate(system, bindings)
    elif args.coeffs:
        print("note: input is concrete, ignoring --coeffs", file=sys.stderr)
    decision = decide_system(system)
    if decision.status == "unsat":
        _print_decision(decision, args.format)
        return 1
    r = uniform_bound(system) if args.use_uniform_bound else None
    report = verify_witness(system, decision.n, r, max_bits=args.max_bits)
    _print_report(report, decision.n, args.format)
    return 0


def cmd_explain(args) -> int:
    """Print the CNF of :func:`~subtrop.condition.build_cnf` row by row, without building it.

    The text equals ``build_cnf(system).to_debug_text()`` and the JSON equals
    ``json.dumps`` of ``{"num_vars", "clauses"}``.  The rows come from
    :func:`~subtrop.condition.dominance_rows`.  Each row makes one ``%``
    template for its clauses, with the row's positive indices written in and
    ``d`` integer fields per literal, and flattens its positive exponent
    vectors into one list.  A clause is then one ``%`` over ``k`` and that
    list minus ``e_k``, computed in C, so no literal becomes an object or a
    format call of its own.  Each row's clauses are written as soon as they
    are made, so the whole output is never held at once.
    """
    system = _load_system(args.input)
    d, exponents = system.d, system.e.entries
    write = sys.stdout.write  # looked up per call, so that redirect_stdout applies
    as_json = args.format == "json"
    if as_json:
        write(f'{{"num_vars": {d}, "clauses": [')
        fields, between = ", ".join(["%d"] * d), ", "
    else:
        fields, between = " ".join(["%d"] * d), ""
    sep = ""
    for i, positive, negative in dominance_rows(system):
        if as_json:
            literals = ", ".join([f'{{"pos": {j}, "coeffs": [{fields}]}}' for j in positive])
            clause = f'{{"row": {i}, "neg": %d, "literals": [{literals}]}}'
        else:
            clause = f"clause {i} %d:" + "".join([f" [{j}: {fields}]" for j in positive]) + "\n"
        flat = [x for j in positive for x in exponents[j]]
        clauses = [clause % (k, *map(sub, flat, cycle(exponents[k]))) for k in negative]
        write(sep + between.join(clauses))
        sep = between
    if as_json:
        write("]}\n")
    return 0


_FORMATS = ("text", "json")

# Each command's handler and options.  An option maps to its value's type (int or
# str), to the tuple of values it accepts, or to None for a switch, which takes no
# value and is False unless given.
_COMMANDS = {
    # --seed is parsed and validated but has no effect, since --check draws no samples;
    # callers that pass it keep working.
    "decide": (cmd_decide, {"--format": _FORMATS, "--check": None, "--seed": int}),
    "witness": (cmd_witness, {"--format": _FORMATS}),
    "verify": (
        cmd_verify,
        {"--format": _FORMATS, "--coeffs": str, "--use-uniform-bound": None, "--max-bits": int},
    ),
    "explain": (cmd_explain, {"--format": _FORMATS}),
}
# Values of the valued options that are not given; the others default to None.
_DEFAULTS = {"format": "text"}
# The least value of the int options that have one: a size limit below 1 bit
# would refuse every point.
_LEAST = {"--max-bits": 1}

_USAGE = """\
usage: subtrop decide  INPUT [--format {text,json}] [--check] [--seed N]
       subtrop witness INPUT [--format {text,json}]
       subtrop verify  INPUT [--format {text,json}] [--coeffs FILE] [--use-uniform-bound]
                             [--max-bits N]
       subtrop explain INPUT [--format {text,json}]
       subtrop -h | --help
"""

_HELP = (
    _USAGE
    + """
Decide whether a polynomial system with a fixed sign pattern has a positive
solution for every choice of positive coefficients, and construct an exact
witness when it does.  INPUT is a system in the .spp format.

commands:
  decide    report SAT with an integer vector, or UNSAT
  witness   print the symbolic witness t and t^n
  verify    evaluate the witness exactly and check f > 0
  explain   print the linear condition with provenance

options:
  --format {text,json}  output format (default: text)
  --check               cross-check the answer (decide)
  --seed N              accepted and ignored; --check draws no samples (decide)
  --coeffs FILE         coefficient values file for parametric input (verify)
  --use-uniform-bound   use 1 + v * (sum of negative integer coefficients)
                        instead of t (verify)
  --max-bits N          abort if evaluation exceeds N bits, N >= 1 (verify)

An option's value follows it as the next argument or after '=' (--max-bits=64).
Options are spelled in full, and '--' ends them.
"""
)


class _UsageError(Exception):
    """Command-line arguments that do not follow the grammar in ``_USAGE``."""


def _dest(flag: str) -> str:
    """The attribute of ``args`` that holds an option: ``--max-bits`` -> ``max_bits``."""
    return flag[2:].replace("-", "_")


def _is_integer(arg: str) -> bool:
    """Whether ``arg`` is an optional ``-`` and one or more ASCII digits.

    This is what an int option's value may be, as in .spp files and values
    files; int() would also take other decimal digits, spaces and
    underscores.  The only ASCII characters that ``str.isdigit`` accepts
    are 0-9.
    """
    digits = arg[1:] if arg.startswith("-") else arg
    return digits.isascii() and digits.isdigit()


def _is_option(arg: str) -> bool:
    """Whether an argument reads as an option; '-' and negative integers do not."""
    return arg.startswith("-") and arg != "-" and not _is_integer(arg)


def _parse_args(argv: list[str]):
    """The handler and its arguments, or None when help was asked for.

    Raises :class:`_UsageError` for arguments outside the grammar.
    """
    if not argv:
        raise _UsageError("a command is required")
    if argv[0] in ("-h", "--help"):
        return None
    if argv[0] not in _COMMANDS:
        raise _UsageError(f"unknown command {argv[0]!r} (choose from {', '.join(_COMMANDS)})")
    handler, options = _COMMANDS[argv[0]]
    values = {
        _dest(flag): False if kind is None else _DEFAULTS.get(_dest(flag))
        for flag, kind in options.items()
    }
    inputs = []
    rest = iter(argv[1:])
    for arg in rest:
        if arg == "--":
            inputs.extend(rest)
            break
        if not _is_option(arg):
            inputs.append(arg)
            continue
        if arg in ("-h", "--help"):
            return None
        flag, eq, value = arg.partition("=")
        if flag not in options:
            raise _UsageError(f"unknown option {flag!r} for {argv[0]}")
        kind = options[flag]
        if kind is None:
            if eq:
                raise _UsageError(f"option {flag} takes no value")
            values[_dest(flag)] = True
            continue
        if not eq:
            value = next(rest, None)
            if value is None or _is_option(value):
                raise _UsageError(f"option {flag} needs a value")
        if isinstance(kind, tuple):
            if value not in kind:
                raise _UsageError(
                    f"option {flag}: invalid choice {value!r} (choose from {', '.join(kind)})"
                )
        elif kind is int:
            if not _is_integer(value):
                raise _UsageError(f"option {flag}: invalid integer {value!r}")
            value = int(value)
            if value < _LEAST.get(flag, value):
                raise _UsageError(f"option {flag}: must be at least {_LEAST[flag]}, got {value}")
        values[_dest(flag)] = value
    if len(inputs) != 1:
        raise _UsageError(f"{argv[0]} needs one INPUT, got {len(inputs)}")
    return handler, SimpleNamespace(input=inputs[0], **values)


def main(argv=None) -> int:
    try:
        parsed = _parse_args(sys.argv[1:] if argv is None else argv)
    except _UsageError as exc:
        print(f"{_USAGE}subtrop: error: {exc}", file=sys.stderr)
        return 2
    if parsed is None:
        print(_HELP, end="")
        return 0
    handler, args = parsed
    try:
        return handler(args)
    except WitnessFailure as exc:
        print(f"witness failure (solver defect): {exc}", file=sys.stderr)
        return 4
    except SolverDefect as exc:
        print(f"solver defect: {exc}", file=sys.stderr)
        return 4
    except (SubtropError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        message = str(exc).replace("\n", " ")
        print(f"internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
