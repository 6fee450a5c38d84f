import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from subtrop import ParseError, parse_system, print_system
from subtrop.cli import main
from subtrop.condition import build_cnf, build_dnf
from subtrop.lra import solve_dnf
from subtrop.parser import parse_coefficient_bindings
from subtrop.pipeline import decide_system

from conftest import DATA, dense_signs, load, reference_explain_json
from gensys import (
    long_row_text,
    random_exponent_rows,
    random_sign_rows,
    random_signed_system,
    template_system,
)


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def unlimited_digits(fn, *args):
    """``fn(*args)`` with CPython's int-to-text digit limit lifted, as ``main`` runs a command."""
    if not hasattr(sys, "set_int_max_str_digits"):
        return fn(*args)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return fn(*args)
    finally:
        sys.set_int_max_str_digits(limit)


class TestDecide:
    def test_example2_sat_json(self, capsys):
        code, out, _ = run(capsys, "decide", DATA / "example2.spp", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "sat"
        assert build_cnf(load("example2.spp")).satisfied_by(tuple(payload["n"]))

    def test_example3_unsat_json(self, capsys):
        code, out, _ = run(capsys, "decide", DATA / "example3.spp", "--format", "json")
        assert code == 1
        assert json.loads(out) == {"status": "unsat"}

    def test_zero_row_reports_reason(self, capsys):
        code, out, _ = run(capsys, "decide", DATA / "zero_row.spp", "--format", "json")
        assert code == 1
        assert out == '{"status": "unsat", "reason": "zero-row", "row": 0}\n'

    def test_json_bytes_equal_json_dumps(self, capsys, tmp_path):
        # the decision JSON is written as a string, not by json.dumps; it must be
        # json.dumps' bytes for every shape, with and without --check
        paths = [p for p in sorted(DATA.glob("*.spp")) if p.name != "wall_8_20_8_1.spp"]
        for seed in range(6):
            system = random_signed_system(random.Random(seed), parametric=seed % 2 == 0)
            paths.append(tmp_path / f"random_{seed}.spp")
            paths[-1].write_text(print_system(system), encoding="utf-8")
        paths.append(tmp_path / "zero_row_2.spp")
        paths[-1].write_text("vars x\npoly f = 2*x - 1\npoly g = 3\npoly h = x - x\n")
        shapes = set()
        for path in paths:
            decision = decide_system(parse_system(path.read_text()))
            if decision.zero_row is not None:
                obj = {"status": "unsat", "reason": "zero-row", "row": decision.zero_row}
            elif decision.status == "sat":
                obj = {"status": "sat", "n": list(decision.n)}
            else:
                obj = {"status": "unsat"}
            shapes.add(tuple(obj))
            expected = (0 if decision.status == "sat" else 1, json.dumps(obj) + "\n", "")
            assert run(capsys, "decide", path, "--format", "json") == expected, path.name
            checked = run(capsys, "decide", path, "--format", "json", "--check")
            assert checked == expected, path.name
        assert len(shapes) == 3

    def test_zero_row_text_diagnostic(self, capsys):
        code, out, _ = run(capsys, "decide", DATA / "zero_row.spp")
        assert code == 1
        assert "identically zero polynomial in row 0" in out

    def test_text_output(self, capsys):
        code, out, _ = run(capsys, "decide", DATA / "example2.spp")
        assert code == 0
        assert out.splitlines()[0] == "SAT"
        assert out.splitlines()[1].startswith("n = (")

    def test_check_agrees_on_golden_inputs(self, capsys):
        for name, expected in [("example2.spp", 0), ("example3.spp", 1),
                               ("intro_f.spp", 0), ("intro_g.spp", 1)]:
            code, _, err = run(capsys, "decide", DATA / name, "--check")
            assert code == expected, err

    def test_check_seed_changes_nothing_visible(self, capsys):
        a = run(capsys, "decide", DATA / "example2.spp", "--check", "--seed", "1")
        b = run(capsys, "decide", DATA / "example2.spp", "--check", "--seed", "99")
        assert a == b

    def test_check_seed_is_ignored(self, capsys):
        for path in sorted(DATA.glob("*.spp")):
            if path.name == "wall_8_20_8_1.spp":
                continue  # a 1 s search per call; CI decides it once
            for fmt in ("text", "json"):
                plain = run(capsys, "decide", path, "--check", "--format", fmt)
                seeded = run(capsys, "decide", path, "--check", "--seed", "7", "--format", fmt)
                assert seeded == plain, path.name

    def test_shrink_gives_smaller_vector(self, capsys, tmp_path):
        code, out, _ = run(capsys, "decide", DATA / "example2.spp", "--format", "json")
        assert code == 0
        n = tuple(json.loads(out)["n"])
        assert n == (-5, -4)
        assert build_cnf(load("example2.spp")).satisfied_by(n)
        # the solver's vector for this input is not minimal, so decide shrinks it
        text = "vars x y\npoly f1 = a*y^3 + b*x - c*x^2*y^3\npoly f2 = -d*y^3 + e*x*y^3\n"
        system = parse_system(text)
        decision = decide_system(system)
        assert solve_dnf(system.d, build_dnf(system)) == ((3, -2), None)
        assert decision.n == (1, -1)
        path = tmp_path / "loose.spp"
        path.write_text(text)
        code, out, _ = run(capsys, "decide", path, "--format", "json")
        assert code == 0
        n = tuple(json.loads(out)["n"])
        assert n == (1, -1)
        assert build_cnf(parse_system(text)).satisfied_by(n)

    def test_parse_error_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.spp"
        bad.write_text("vars x\npoly f = ^\n")
        code, out, err = run(capsys, "decide", bad)
        assert code == 2
        assert out == ""
        assert "line 2" in err

    def test_non_ascii_digit_exits_2_on_every_command(self, capsys, tmp_path):
        # str.isdigit accepts a superscript two, int() does not; int() accepts an
        # Arabic-Indic three and a fullwidth three.  Each must be a parse error.
        bad = tmp_path / "bad.spp"
        for text, column, char in [
            ("vars x\npoly f = a*x^\u00b2\n", 14, "\u00b2"),
            ("vars x\npoly f = a*x^\u0663\n", 14, "\u0663"),
            ("vars x\npoly f = \uff13*x\n", 10, "\uff13"),
        ]:
            bad.write_text(text, encoding="utf-8")
            for command in ("decide", "witness", "verify", "explain"):
                code, out, err = run(capsys, command, bad)
                assert code == 2
                assert out == ""
                assert err == f"error: line 2, column {column}: unexpected character '{char}'\n"

    def test_number_of_more_than_4300_digits_exits_2(self, capsys, tmp_path):
        # int() refuses such a digit string, which once surfaced as exit 4
        digits = "9" * 5000
        bad = tmp_path / "bad.spp"
        bad.write_text(f"vars x\npoly f = x^{digits} - 1\n")
        for command in ("decide", "witness", "verify", "explain"):
            code, out, err = run(capsys, command, bad)
            assert (code, out) == (2, "")
            assert err == "error: line 2, column 12: number has more than 4300 digits\n"
        values = tmp_path / "bad.coeffs"
        values.write_text(f"c11 = 1\nc12 = {digits}\n")
        code, out, err = run(capsys, "verify", DATA / "example2.spp", "--coeffs", values)
        assert (code, out) == (2, "")
        assert err == (
            "error: line 2, column 1: value for 'c12' has a number of more than 4300 digits\n"
        )
        for option in ("--seed", "--max-bits"):
            code, out, err = run(capsys, "decide" if option == "--seed" else "verify",
                                 EXAMPLE2, f"{option}={digits}")
            assert (code, out) == (2, "")
            assert err.endswith(f"subtrop: error: option {option}: integer has more than "
                                "4300 digits\n")

    def test_explain_prints_exponent_sums_beyond_the_digit_limit(self, capsys, tmp_path):
        # each exponent has 4300 digits; their sum, and so a coefficient, has 4301
        nines = "9" * 4300
        path = tmp_path / "sum.spp"
        path.write_text(f"vars x\npoly f = x^{nines}*x^{nines} - x\n")
        coeff = f"1{'9' * 4299}7"  # 2 (10^4300 - 1) - 1
        code, out, err = run(capsys, "explain", path)
        assert (code, out, err) == (0, f"clause 0 1: [0: {coeff}]\n", "")
        code, out, err = run(capsys, "explain", path, "--format", "json")
        assert (code, err) == (0, "")
        assert out == (
            '{"num_vars": 1, "clauses": [{"row": 0, "neg": 1, "literals": '
            f'[{{"pos": 0, "coeffs": [{coeff}]}}]}}]}}\n'
        )

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "decide", tmp_path / "nope.spp")
        assert code == 2
        assert err

    def test_unreadable_files_exit_2(self, capsys, tmp_path, monkeypatch):
        # paths relative to the working directory, so that each message is pinned whole
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bad.spp").write_bytes(b"vars x\npoly f = c1*x - c2\xff\n")
        (tmp_path / "bad.coeffs").write_bytes(b"c1 = 1\nc2 = 2\xfe\n")
        (tmp_path / "ok.spp").write_text("vars x\npoly f = c1*x - c2\n")
        (tmp_path / "folder").mkdir()
        decode = "'utf-8' codec can't decode byte"
        for argv, err in [
            (
                ["decide", "bad.spp"],
                f"error: bad.spp is not UTF-8 text: {decode} 0xff in position 25: "
                "invalid start byte\n",
            ),
            (
                ["verify", "ok.spp", "--coeffs", "bad.coeffs"],
                f"error: bad.coeffs is not UTF-8 text: {decode} 0xfe in position 13: "
                "invalid start byte\n",
            ),
            (["decide", "nope.spp"], "error: [Errno 2] No such file or directory: 'nope.spp'\n"),
            (["decide", "folder"], "error: [Errno 21] Is a directory: 'folder'\n"),
            (
                ["verify", "ok.spp", "--coeffs", "nope.coeffs"],
                "error: [Errno 2] No such file or directory: 'nope.coeffs'\n",
            ),
        ]:
            assert run(capsys, *argv) == (2, "", err), argv

    def test_json_is_byte_stable(self, capsys):
        first = run(capsys, "decide", DATA / "example2.spp", "--format", "json")
        second = run(capsys, "decide", DATA / "example2.spp", "--format", "json")
        assert first == second

    def test_json_is_byte_stable_across_processes(self):
        import subprocess
        import sys

        def once(command):
            return subprocess.run(
                [sys.executable, "-m", "subtrop.cli", command,
                 str(DATA / "example2.spp"), "--format", "json"],
                capture_output=True,
            ).stdout

        assert once("decide") == once("decide")
        assert once("witness") == once("witness")

    def test_module_entry_point_warns_nothing(self):
        # the package must not import subtrop.cli, or runpy warns before running it
        import os
        import subprocess

        src = str(Path(__file__).resolve().parent.parent / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-W", "error", "-m", "subtrop.cli", "decide",
             str(DATA / "example2.spp")],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
        )
        assert result.returncode == 0
        assert result.stderr == ""
        assert result.stdout.splitlines()[0] == "SAT"


EXAMPLE2 = str(DATA / "example2.spp")
SAT_JSON = '{"status": "sat", "n": [-5, -4]}'
USAGE = "usage: subtrop decide "


# argv -> exit code, and the start of stdout or of the error line on stderr
GRAMMAR = [
    ([], 2, "subtrop: error: a command is required"),
    (["bogus", EXAMPLE2], 2, "subtrop: error: unknown command 'bogus'"),
    (["decide"], 2, "subtrop: error: decide needs one INPUT, got 0"),
    (["decide", EXAMPLE2, EXAMPLE2], 2, "subtrop: error: decide needs one INPUT, got 2"),
    (["decide", EXAMPLE2, "--bogus"], 2, "subtrop: error: unknown option '--bogus'"),
    (["explain", EXAMPLE2, "--check"], 2, "subtrop: error: unknown option '--check'"),
    (["decide", EXAMPLE2, "--form", "json"], 2, "subtrop: error: unknown option '--form'"),
    (["decide", EXAMPLE2, "--check=1"], 2, "subtrop: error: option --check takes no value"),
    (["decide", EXAMPLE2, "--seed"], 2, "subtrop: error: option --seed needs a value"),
    (["decide", EXAMPLE2, "--format", "--check"], 2,
     "subtrop: error: option --format needs a value"),
    (["decide", EXAMPLE2, "--format", "xml"], 2,
     "subtrop: error: option --format: invalid choice 'xml'"),
    (["decide", EXAMPLE2, "--seed", "x"], 2, "subtrop: error: option --seed: invalid integer"),
    (["verify", EXAMPLE2, "--max-bits", "x"], 2,
     "subtrop: error: option --max-bits: invalid integer"),
    (["decide", EXAMPLE2, "--check", "--seed", "\u0663"], 2,
     "subtrop: error: option --seed: invalid integer"),
    (["decide", EXAMPLE2, "--check", "--seed", "1_000"], 2,
     "subtrop: error: option --seed: invalid integer"),
    (["verify", EXAMPLE2, "--max-bits", " 7"], 2,
     "subtrop: error: option --max-bits: invalid integer"),
    (["verify", EXAMPLE2, "--max-bits", "0"], 2,
     "subtrop: error: option --max-bits: must be at least 1, got 0"),
    (["verify", EXAMPLE2, "--max-bits=-5"], 2,
     "subtrop: error: option --max-bits: must be at least 1, got -5"),
    (["decide", EXAMPLE2, "--shrink"], 2, "subtrop: error: unknown option '--shrink'"),
    (["witness", EXAMPLE2, "--shrink"], 2, "subtrop: error: unknown option '--shrink'"),
    (["verify", EXAMPLE2, "--shrink"], 2, "subtrop: error: unknown option '--shrink'"),
    (["decide", "-ex2.spp"], 2, "subtrop: error: unknown option '-ex2.spp'"),
    (["decide", EXAMPLE2, "--format", "json"], 0, SAT_JSON),
    (["decide", "--format", "json", EXAMPLE2], 0, SAT_JSON),
    (["decide", EXAMPLE2, "--format=json", "--check", "--seed=3"], 0, SAT_JSON),
    (["decide", EXAMPLE2, "--format", "json", "--check", "--seed", "-3"], 0, SAT_JSON),
    (["decide", "--format", "json", "--", "-ex2.spp"], 0, SAT_JSON),
    (["verify", EXAMPLE2, "--coeffs=" + str(DATA / "example2_ones.coeffs"),
      "--max-bits", "1000", "--format=json"], 0, '{"status": "ok"'),
    (["-h"], 0, USAGE),
    (["--help"], 0, USAGE),
    (["decide", EXAMPLE2, "-h"], 0, USAGE),
]


class TestGrammar:
    @pytest.mark.parametrize("argv, code, expected", GRAMMAR, ids=[
        " ".join(argv).replace(str(DATA) + "/", "") or "no-args" for argv, _, _ in GRAMMAR
    ])
    def test_argv(self, capsys, tmp_path, monkeypatch, argv, code, expected):
        (tmp_path / "-ex2.spp").write_text((DATA / "example2.spp").read_text())
        monkeypatch.chdir(tmp_path)
        got, out, err = run(capsys, *argv)
        assert got == code, err
        if code == 2:
            assert out == ""
            assert err.startswith(USAGE)
            assert err.splitlines()[-1].startswith(expected)
        else:
            assert err == ""
            assert out.startswith(expected)

    def test_inline_and_separate_values_agree(self, capsys):
        for inline, separate in [("--seed=3", ["--seed", "3"]), ("--format=json", ["--format", "json"])]:
            a = run(capsys, "decide", EXAMPLE2, "--check", inline)
            b = run(capsys, "decide", EXAMPLE2, "--check", *separate)
            assert a == b
            assert a[0] == 0

    def test_usage_lists_every_option(self):
        import subtrop.cli as cli

        for command, (_, options) in cli._COMMANDS.items():
            assert f"subtrop {command} " in cli._USAGE
            for flag in options:
                assert flag in cli._USAGE and flag in cli._HELP

    def test_cold_start_imports_no_argparse(self):
        # pytest itself imports argparse, so only a fresh interpreter can tell
        import os
        import subprocess

        src = str(Path(__file__).resolve().parent.parent / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        script = (
            "import sys\n"
            "from subtrop.cli import main\n"
            f"code = main(['decide', {EXAMPLE2!r}, '--format', 'json'])\n"
            "print(code, sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
        )
        assert result.stderr == ""
        assert result.stdout.splitlines() == [SAT_JSON, "0 []"]


class TestWitness:
    def test_example2_json_shape(self, capsys):
        code, out, _ = run(capsys, "witness", DATA / "example2.spp", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["t"]["one"] == 1
        assert payload["t"]["rows"] == [
            {"row": 0, "neg": ["c11", "c13"], "pos": ["c12", "c15"]},
            {"row": 1, "neg": ["c24"], "pos": ["c21", "c22", "c23"]},
        ]
        assert build_cnf(load("example2.spp")).satisfied_by(tuple(payload["n"]))

    def test_intro_f_display_text(self, capsys):
        code, out, _ = run(capsys, "witness", DATA / "intro_f.spp")
        assert code == 0
        assert out == "t = 1 + (c1)*(1/c2 + 1/c0); z = (t^1)\n"

    def test_all_positive_witness_is_one(self, capsys, tmp_path):
        path = tmp_path / "pos.spp"
        path.write_text("vars x y\npoly f = a*x + b*y^2\n")
        code, out, _ = run(capsys, "witness", path)
        assert code == 0
        assert out == "t = 1; z = (t^0, t^0)\n"

    def test_unsat_input_exits_1(self, capsys):
        code, out, err = run(capsys, "witness", DATA / "intro_g.spp", "--format", "json")
        assert code == 1
        assert json.loads(out) == {"status": "unsat"}
        assert "no witness" in err


class TestVerify:
    def test_concrete_intro(self, capsys):
        code, out, _ = run(capsys, "verify", DATA / "intro_f_ones.spp")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "t = 3"
        assert lines[1] == "r = 3"
        assert lines[2] == "n = (1)"
        assert lines[3] == "point = (3)"
        assert lines[4] == "f1 = 7"
        assert lines[-1] == "ok"

    def test_parametric_with_coefficient_file(self, capsys):
        code, out, _ = run(
            capsys, "verify", DATA / "example2.spp",
            "--coeffs", DATA / "example2_ones.coeffs", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "ok"
        assert payload["t"] == "8"
        assert payload["r"] == "8"
        assert all(Fraction(v) > 0 for v in payload["values"])

    def test_parametric_needs_coeffs(self, capsys):
        code, _, err = run(capsys, "verify", DATA / "example2.spp")
        assert code == 2
        assert "--coeffs" in err

    def test_missing_binding_exits_2(self, capsys, tmp_path):
        partial = tmp_path / "partial.coeffs"
        partial.write_text("c2 = 1\nc1 = 1\n")
        code, _, err = run(capsys, "verify", DATA / "intro_f.spp", "--coeffs", partial)
        assert code == 2
        assert "c0" in err

    def test_uniform_bound_flag(self, capsys):
        code, out, _ = run(
            capsys, "verify", DATA / "intro_f_ones.spp", "--use-uniform-bound"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "t = 3"
        assert lines[1] == "r = 4"  # 1 + 3 * 1
        assert lines[-1] == "ok"

    def test_uniform_bound_needs_integer_coefficients(self, capsys, tmp_path):
        path = tmp_path / "frac.spp"
        path.write_text("vars x\npoly f = 1/2*x^2 - x + 2\n")
        code, _, err = run(capsys, "verify", path, "--use-uniform-bound")
        assert code == 2
        assert "integer" in err

    def test_unsat_input_exits_1(self, capsys):
        code, out, _ = run(capsys, "verify", DATA / "intro_g.spp",
                           "--coeffs", DATA / "intro_ones.coeffs")
        assert code == 1

    def test_shrunk_witness_fits_max_bits(self, capsys):
        # the unshrunk vector (15, 64, -86) of this benchmark template needs more
        # than 32768 bits at these values; the shrunk vector (0, 0, -1) does not
        code, out, err = run(
            capsys, "verify", DATA / "certify_head_42.spp",
            "--coeffs", DATA / "certify_head_42.coeffs", "--max-bits", "32768", "--format", "json",
        )
        assert code == 0, err
        payload = json.loads(out)
        assert payload["status"] == "ok"
        assert payload["n"] == [0, 0, -1]

    def test_max_bits_guard(self, capsys, tmp_path):
        path = tmp_path / "big.spp"
        path.write_text("vars x\npoly f = 100*x^5 - 99*x + 1\n")
        code, _, err = run(capsys, "verify", path, "--max-bits", "16")
        assert code == 2
        assert "bits" in err
        code, out, _ = run(capsys, "verify", path, "--max-bits", "100000")
        assert code == 0


    def test_point_beyond_int_text_limit(self, capsys, tmp_path):
        # r = t = 10^3000 + 2 and n = (2, 1): the first coordinate has 6001 digits,
        # more than CPython converts to text by default
        big = 10**3000
        path = tmp_path / "huge.spp"
        path.write_text(f"vars x y\npoly f1 = x - {big}*y\npoly f2 = y - 1\n")
        limit = sys.get_int_max_str_digits()
        code, out, err = run(capsys, "verify", path, "--format", "json")
        assert code == 0, err
        assert sys.get_int_max_str_digits() == limit
        payload = json.loads(out)
        assert payload["n"] == [2, 1]
        code, text, err = run(capsys, "verify", path)
        assert code == 0, err
        sys.set_int_max_str_digits(0)
        try:
            r = big + 2
            assert payload["point"] == [str(r**2), str(r)]
            assert payload["values"] == [str(r**2 - big * r), str(r - 1)]
            assert f"point = ({r**2}, {r})" in text.splitlines()
        finally:
            sys.set_int_max_str_digits(limit)
        assert len(payload["point"][0]) > 4300

    def test_vector_beyond_int_text_limit(self, capsys, tmp_path):
        # the search gives n = (10^4300, 1), whose first entry has 4301 digits
        path = tmp_path / "huge_n.spp"
        path.write_text(f"vars x y\npoly f = a*x - b*y^{'9' * 4300}\npoly g = c*y - d\n")
        n = "1" + "0" * 4300
        limit = sys.get_int_max_str_digits()
        t = "t = 1 + (b)*(1/a) + (d)*(1/c)"
        rows = '[{"row": 0, "neg": ["b"], "pos": ["a"]}, {"row": 1, "neg": ["d"], "pos": ["c"]}]'
        t_json = f'{{"one": 1, "rows": {rows}}}'
        for argv, expected in [
            (["decide"], f"SAT\nn = ({n}, 1)\n"),
            (["decide", "--check"], f"SAT\nn = ({n}, 1)\n"),
            (["decide", "--format", "json"], f'{{"status": "sat", "n": [{n}, 1]}}\n'),
            (["decide", "--check", "--format", "json"], f'{{"status": "sat", "n": [{n}, 1]}}\n'),
            (["witness"], f"{t}; z = (t^{n}, t^1)\n"),
            (["witness", "--format", "json"], f'{{"t": {t_json}, "n": [{n}, 1]}}\n'),
        ]:
            assert run(capsys, argv[0], path, *argv[1:]) == (0, expected, ""), argv
            assert sys.get_int_max_str_digits() == limit, argv
        # verify's evaluation of r^n has no bound of its own, so only a size limit is run
        coeffs = tmp_path / "ones.coeffs"
        coeffs.write_text("a = 1\nb = 1\nc = 1\nd = 1\n")
        assert run(capsys, "verify", path, "--coeffs", coeffs, "--max-bits", "64") == (
            2, "", "error: a coordinate of r^n would exceed 64 bits\n"
        )
        assert sys.get_int_max_str_digits() == limit
        code, _, err = run(capsys, "decide", tmp_path / "missing.spp")
        assert code == 2 and err.startswith("error: ")
        assert sys.get_int_max_str_digits() == limit


class TestWitnessCalls:
    """``verify`` computes t once, from the rows, and ``decide --check`` not at all.

    Each command checks the pipeline's vector with ``certifies`` once.
    """

    @pytest.fixture
    def calls(self, monkeypatch):
        import subtrop.cli as cli
        import subtrop.witness as witness

        counts = {"symbolic_t": 0, "_t_from_rows": 0, "certifies": 0}
        for name in counts:
            original = getattr(witness, name)

            def counted(*args, _name=name, _original=original):
                counts[_name] += 1
                return _original(*args)

            for module in (cli, witness):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted)
        return counts

    def test_check_computes_no_t(self, capsys, calls):
        # certifies alone proves f(r^n) > 0 for every coefficient choice
        code, _, err = run(capsys, "decide", DATA / "example2.spp", "--check")
        assert code == 0, err
        assert calls == {"symbolic_t": 0, "_t_from_rows": 0, "certifies": 1}

    def test_check_evaluates_nothing_for_large_n(self, capsys, monkeypatch):
        # max|n| is 52,294 here: an exact evaluation of f(t^n) runs for over 15 s
        import subtrop.witness as witness

        evaluations = []
        monkeypatch.setattr(witness, "_row_values", lambda *args: evaluations.append(args))
        path = DATA / "search_head_3.spp"
        plain = run(capsys, "decide", path, "--format", "json")
        checked = run(capsys, "decide", path, "--check", "--format", "json")
        n = [-11558, -10047, 11455, -52294, -23700, 14366]
        assert plain == (0, json.dumps({"status": "sat", "n": n}) + "\n", "")
        assert checked == plain
        assert evaluations == []

    def test_verify_builds_one_witness(self, capsys, calls):
        code, _, err = run(
            capsys, "verify", DATA / "example2.spp", "--coeffs", DATA / "example2_ones.coeffs"
        )
        assert code == 0, err
        assert calls == {"symbolic_t": 0, "_t_from_rows": 1, "certifies": 1}

    def test_witness_certifies_once(self, capsys, calls):
        code, _, err = run(capsys, "witness", DATA / "example2.spp")
        assert code == 0, err
        assert calls == {"symbolic_t": 1, "_t_from_rows": 0, "certifies": 1}


class TestLongRows:
    """One variable, one single-literal clause per negative term."""

    @pytest.mark.parametrize("k, unsat, expected", [
        (1200, False, {"status": "sat", "n": [1]}),
        (200, True, {"status": "unsat"}),
    ])
    def test_long_row(self, capsys, tmp_path, k, unsat, expected):
        text = long_row_text(k, unsat=unsat)
        decision = decide_system(parse_system(text))
        assert decision.status == expected["status"]
        path = tmp_path / "long.spp"
        path.write_text(text)
        code, out, err = run(capsys, "decide", path, "--format", "json")
        assert code == (1 if unsat else 0), err
        assert json.loads(out) == expected


class TestExplain:
    def test_example2_debug_text(self, capsys):
        code, out, _ = run(capsys, "explain", DATA / "example2.spp")
        assert code == 0
        assert out == (
            "clause 0 0: [1: -3 1] [3: -5 2]\n"
            "clause 0 2: [1: 0 1] [3: -2 2]\n"
            "clause 1 4: [0: 5 -3] [1: 2 -2] [2: 2 -3]\n"
        )

    def test_json_shape(self, capsys):
        code, out, _ = run(capsys, "explain", DATA / "intro_g.spp", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["num_vars"] == 1
        assert payload["clauses"] == [
            {"row": 0, "neg": 0, "literals": [{"pos": 1, "coeffs": [-1]}]},
            {"row": 0, "neg": 2, "literals": [{"pos": 1, "coeffs": [1]}]},
        ]

    def test_zero_row_prints_no_clause(self, capsys):
        # explain prints only the linear condition; decide reports the zero row
        path = DATA / "zero_row.spp"
        assert run(capsys, "explain", path) == (0, "", "")
        assert run(capsys, "explain", path, "--format", "json") == (
            0, '{"num_vars": 1, "clauses": []}\n', ""
        )
        assert run(capsys, "decide", path)[:2] == (
            1, "UNSAT\nidentically zero polynomial in row 0\n"
        )


def explain_inputs(tmp_path):
    """Every golden file, seeded random systems with many clauses, and one with no clause."""
    paths = sorted(DATA.glob("*.spp"))
    for seed, parametric in [(0, True), (11, True), (9, False)]:
        system = random_signed_system(
            random.Random(seed), max_rows=6, max_monomials=14, max_vars=4, max_exp=6,
            parametric=parametric,
        )
        path = tmp_path / f"random_{seed}.spp"
        path.write_text(print_system(system), encoding="utf-8")
        paths.append(path)
    extra = {
        "no_clause": "vars x y\npoly f = a*x + b*y\npoly g = c*x*y\n",
        # row 1 has negative monomials and no positive one: two empty clauses
        "empty_clause": "vars x y\npoly f = a*x - b*y\npoly g = -c*x - d*x*y\n",
        # a constant monomial on both sides of the dominance forms
        "constant": "vars x y\npoly f = 2 - x*y + 3*x^2\npoly g = y - 1/2\n",
    }
    for name, text in extra.items():
        path = tmp_path / f"{name}.spp"
        path.write_text(text, encoding="utf-8")
        paths.append(path)
    return paths


def wide_explain_systems():
    """Seeded templates with d = 1..8 and wide rows, which ``explain_inputs`` lacks.

    Each has 40 monomials, the first of them constant, and rows of every
    kind: one with 24 positive and 12 negative monomials, the constant
    negative among them, one with no positive monomial, one with no
    negative monomial, and 3 random rows.
    """
    v = 40
    for d in range(1, 9):
        rng = random.Random(f"explain-wide:{d}")
        exps = [e for e in random_exponent_rows(rng, v + 1, d, 40) if any(e)][: v - 1]
        wide = [1] * 24 + [-1] * 11 + [0] * (v - 36)
        rng.shuffle(wide)
        wide = [-1, *wide]
        no_positive = [rng.choice((-1, 0)) for _ in range(v - 1)] + [-1]
        no_negative = [rng.choice((0, 1)) for _ in range(v - 1)] + [1]
        randoms = random_sign_rows(rng, 3, v, ensure_positive=False)
        signs = (wide, no_positive, no_negative, *randoms)
        yield template_system(signs, ((0,) * d, *exps))


def explain_pipe_file(tmp_path) -> Path:
    """A seeded 20 x 100 template whose ``explain`` output is far larger than a pipe holds."""
    rng = random.Random("explain-pipe")
    exps = random_exponent_rows(rng, 100, 6, 9)
    path = tmp_path / "pipe.spp"
    signs = random_sign_rows(rng, 20, 100, ensure_positive=True)
    path.write_text(print_system(template_system(signs, exps)))
    return path


def explain_process(path, fmt):
    """``python -m subtrop.cli explain`` with its stdout and stderr on pipes."""
    import os
    import subprocess

    src = str(Path(__file__).resolve().parent.parent / "src")
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.Popen(
        [sys.executable, "-m", "subtrop.cli", "explain", str(path), "--format", fmt],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )


class TestExplainBytes:
    """``explain`` output is pinned byte for byte, not only as parsed JSON."""

    def test_inputs_cover_rows_clauses_and_none(self, tmp_path):
        systems = [parse_system(p.read_text()) for p in explain_inputs(tmp_path)]
        conditions = [build_cnf(system) for system in systems]
        assert max(len(c.clauses) for c in conditions) >= 18
        assert max(len({cl.row for cl in c.clauses}) for c in conditions) >= 4
        assert any(not c.clauses for c in conditions)
        assert any(not cl.literals for c in conditions for cl in c.clauses)
        assert any(not any(exps) for system in systems for exps in system.e.entries)

    def test_json_bytes_equal_whole_object_dump(self, capsys, tmp_path):
        for path in explain_inputs(tmp_path):
            condition = build_cnf(parse_system(path.read_text()))
            code, out, err = run(capsys, "explain", path, "--format", "json")
            assert (code, err) == (0, ""), path.name
            assert out == reference_explain_json(condition), path.name

    def test_text_bytes_equal_debug_text(self, capsys, tmp_path):
        for path in explain_inputs(tmp_path):
            condition = build_cnf(parse_system(path.read_text()))
            code, out, err = run(capsys, "explain", path)
            assert (code, err) == (0, ""), path.name
            expected = condition.to_debug_text() + "\n" if condition.clauses else ""
            assert out == expected, path.name


    def test_empty_clause_bytes(self, capsys, tmp_path):
        path = tmp_path / "empty.spp"
        path.write_text("vars x\npoly f = -a*x\n", encoding="utf-8")
        assert run(capsys, "explain", path) == (0, "clause 0 0:\n", "")
        assert run(capsys, "explain", path, "--format", "json") == (
            0,
            '{"num_vars": 1, "clauses": [{"row": 0, "neg": 0, "literals": []}]}\n',
            "",
        )

    def test_wide_rows_and_every_d(self, capsys, tmp_path):
        path = tmp_path / "wide.spp"
        seen_d = set()
        for system in wide_explain_systems():
            path.write_text(print_system(system), encoding="utf-8")
            parsed = parse_system(path.read_text())
            signs = dense_signs(parsed)
            assert max(row.count(1) for row in signs) >= 20
            assert any(-1 in row and 1 not in row for row in signs)
            assert any(1 in row and -1 not in row for row in signs)
            assert not any(parsed.e.entries[0])  # the wide row's first monomial
            seen_d.add(parsed.d)
            condition = build_cnf(parsed)
            text = condition.to_debug_text() + "\n"
            assert run(capsys, "explain", path) == (0, text, ""), parsed.d
            assert run(capsys, "explain", path, "--format", "json") == (
                0, reference_explain_json(condition), ""
            ), parsed.d
        assert seen_d == set(range(1, 9))

    def test_explain_builds_no_cnf_objects(self, capsys, tmp_path, monkeypatch):
        import subtrop.condition as condition

        paths = explain_inputs(tmp_path)
        expected = {
            (path, fmt): run(capsys, "explain", path, "--format", fmt)
            for path in paths
            for fmt in ("text", "json")
        }

        def refuse(*args, **kwargs):
            raise AssertionError("explain built a CNF object")

        monkeypatch.setattr(condition, "build_cnf", refuse)
        monkeypatch.setattr(condition, "LinearLiteral", refuse)
        monkeypatch.setattr(condition, "Clause", refuse)
        for (path, fmt), before in expected.items():
            assert before[0] == 0, path.name
            assert run(capsys, "explain", path, "--format", fmt) == before, path.name

    def assert_explain_bytes(self, capsys, path):
        """Both formats of ``explain path`` equal the CNF objects' text and JSON dump."""
        condition = build_cnf(parse_system(path.read_text()))
        text = unlimited_digits(condition.to_debug_text) + "\n" if condition.clauses else ""
        assert run(capsys, "explain", path) == (0, text, "")
        assert run(capsys, "explain", path, "--format", "json") == (
            0, unlimited_digits(reference_explain_json, condition), ""
        )

    def test_frontend_shaped_rows_share_columns(self, capsys, tmp_path):
        # as perfbench's frontend draws them: 6 variables, exponents 0-10 and rows of
        # 40-100 terms, so that a row's negative monomials repeat coordinate values
        rng = random.Random("explain-frontend")
        exps = random_exponent_rows(rng, 400, 6, 10)
        signs = []
        for _ in range(6):
            row = [0] * len(exps)
            for j in rng.sample(range(len(exps)), rng.randint(40, 100)):
                row[j] = rng.choice((-1, 1))
            row[row.index(-1)] = 1
            signs.append(row)
        path = tmp_path / "frontend.spp"
        path.write_text(print_system(template_system(signs, exps)))
        system = parse_system(path.read_text())
        for i, row in enumerate(system.s.entries):
            negative = [k for k, s in row if s < 0]
            assert len(row) >= 40
            columns = {(c, a) for k in negative for c, a in enumerate(system.e.entries[k])}
            assert len(negative) * system.d >= 2 * len(columns), i
        self.assert_explain_bytes(capsys, path)

    def test_repeated_coordinate_beyond_the_digit_limit(self, capsys, tmp_path):
        # x^N*x^N has 4301 digits in its first coordinate, shared by three negative
        # monomials and one positive one, so one column holds 4301-digit differences
        # and another the differences to 2N of the other positive monomials
        n = "9" * 4300
        big = f"x^{n}*x^{n}"
        path = tmp_path / "big.spp"
        path.write_text(
            f"vars x y\npoly f = a*x*y + b*{big}*y^5 + c*y^2 - d*{big}*y - e*{big}"
            f" - g*{big}*y^3 - h*x^3\npoly g = k*{big} - m*{big}*y\n"
        )
        self.assert_explain_bytes(capsys, path)
        limit = sys.get_int_max_str_digits()
        assert run(capsys, "explain", path)[1].count(f" -{'1' + '9' * 4299}7") == 3
        assert sys.get_int_max_str_digits() == limit

    def test_one_process_explains_a_then_b_then_a(self, capsys, tmp_path):
        a, b = tmp_path / "a.spp", tmp_path / "b.spp"
        a.write_text("vars x y\npoly f = a*x^2*y + b*y^3 - c*x*y - d*x^2\n")
        b.write_text("vars x y z\npoly f = a*x^7 + b*z - c*x^2*y - d*y^9*z\n")
        for fmt in ("text", "json"):
            first = run(capsys, "explain", a, "--format", fmt)
            other = run(capsys, "explain", b, "--format", fmt)
            assert run(capsys, "explain", a, "--format", fmt) == first != other
            assert first[0] == other[0] == 0

    def test_token_tables_are_cleared_past_their_bound(self, capsys, tmp_path, monkeypatch):
        # row f has 70 x 70 distinct exponent differences, more than a token table
        # keeps; row g is written after the tables were cleared
        import subtrop.condition as condition

        positive = " + ".join(f"a{j}*x^{1000 * j}" for j in range(1, 71))
        negative = "".join(f" - b{k}*x^{k}" for k in range(1, 71))
        path = tmp_path / "spread.spp"
        path.write_text(f"vars x\npoly f = {positive}{negative}\npoly g = c*x^70000 - d*x^5\n")
        cleared = []

        def clear(table):
            cleared.append(len(table))
            dict.clear(table)

        monkeypatch.setattr(condition._Memo, "clear", clear)
        self.assert_explain_bytes(capsys, path)
        assert cleared == [70 * 70, 70 * 70]
        assert condition._TOKENS_KEPT < 70 * 70


class TestExplainPipe:
    """``explain`` writes row by row to a real stdout, as in a shell pipeline."""

    def test_pipe_bytes_equal_capsys_bytes(self, capsys, tmp_path):
        path = explain_pipe_file(tmp_path)
        for fmt in ("text", "json"):
            proc = explain_process(path, fmt)
            out, err = proc.communicate(timeout=120)
            code, expected, expected_err = run(capsys, "explain", path, "--format", fmt)
            assert (proc.returncode, err) == (code, expected_err.encode()) == (0, b"")
            assert out == expected.encode(), fmt
            # the closed-reader test below needs more output than a pipe buffers
            assert len(out) > 256 * 1024

    def test_closed_reader_exits_2_without_traceback(self, tmp_path):
        path = explain_pipe_file(tmp_path)
        for fmt in ("text", "json"):
            proc = explain_process(path, fmt)
            assert len(proc.stdout.read(100)) == 100
            proc.stdout.close()
            err = proc.stderr.read()
            proc.stderr.close()
            assert proc.wait(timeout=120) == 2
            assert err == b"error: [Errno 32] Broken pipe\n", fmt


class TestDefectExitCodes:
    def test_failed_refutation_exits_3(self, capsys, monkeypatch):
        # an UNSAT answer is checked against its refutation; example3's tree without
        # its last child, or no tree at all, fails that check
        import subtrop.cli as cli
        from subtrop.pipeline import Decision

        path = DATA / "example3.spp"
        level, children = decide_system(load("example3.spp")).refutation
        assert run(capsys, "decide", path, "--check") == (1, "UNSAT\n", "")
        for tree in ((level, children[:-1]), None):
            decision = Decision("unsat", None, None, tree)
            monkeypatch.setattr(cli, "decide_system", lambda system: decision)
            code, out, err = run(capsys, "decide", path, "--check")
            assert (code, out) == (3, "")
            assert err == "check failed: the refutation does not refute the system\n"

    def test_sat_vector_failing_its_condition_exits_3(self, capsys, monkeypatch):
        # a SAT answer is checked against its certificate, not by enumeration
        import subtrop.cli as cli
        from subtrop.pipeline import Decision

        def bogus(system):
            return Decision("sat", (0, 0), None, None)

        def explode(system, tree):
            raise AssertionError("no refutation is checked on a SAT answer")

        monkeypatch.setattr(cli, "decide_system", bogus)
        monkeypatch.setattr(cli, "refutes", explode)
        code, out, err = run(capsys, "decide", DATA / "example2.spp", "--check")
        assert code == 3
        assert out == ""
        assert "does not satisfy the linear condition" in err

    def test_reduction_defect_fails_the_sat_check(self, capsys, monkeypatch):
        # with the reduction's walk missing each system's last row, the search and
        # shrink's own check both pass a vector that fails that row; the SAT check
        # reads the matrices itself, so --check still catches it
        import subtrop.condition as condition

        walk = condition.dominance_rows
        monkeypatch.setattr(condition, "dominance_rows", lambda system: list(walk(system))[:-1])
        for name, wrong in [
            ("example2.spp", "[0, 1]"),
            ("certify_head_42.spp", "[0, 0, 0]"),
            ("search_head_3.spp", "[0, -3, 6, 0, 0, 3]"),
        ]:
            path = DATA / name
            assert run(capsys, "decide", path, "--format", "json") == (
                0, f'{{"status": "sat", "n": {wrong}}}\n', ""
            )
            assert run(capsys, "decide", path, "--check", "--format", "json") == (
                3, "", "check failed: the vector does not satisfy the linear condition\n"
            )

    def test_reduction_defect_in_witness_and_verify_exits_4(self, capsys, monkeypatch, tmp_path):
        # the same defect under witness and verify: the pipeline's own vector is a
        # solver defect, exit 4 with nothing on stdout, and never an input error
        import subtrop.condition as condition

        walk = condition.dominance_rows
        monkeypatch.setattr(condition, "dominance_rows", lambda system: list(walk(system))[:-1])
        ones = tmp_path / "search_head_3_ones.coeffs"
        names = load("search_head_3.spp").c.names
        ones.write_text("".join(f"{name} = 1\n" for row in names for name in row if name))
        for name, wrong, coeffs in [
            ("example2.spp", "(0, 1)", DATA / "example2_ones.coeffs"),
            ("certify_head_42.spp", "(0, 0, 0)", DATA / "certify_head_42.coeffs"),
            ("search_head_3.spp", "(0, -3, 6, 0, 0, 3)", ones),
        ]:
            path = DATA / name
            expected = f"solver defect: {wrong} does not satisfy the dominance condition\n"
            for fmt in ("text", "json"):
                assert run(capsys, "witness", path, "--format", fmt) == (4, "", expected)
                assert run(
                    capsys, "verify", path, "--coeffs", coeffs, "--format", fmt
                ) == (4, "", expected)

    def test_witness_failure_exits_4(self, capsys, monkeypatch):
        import subtrop.cli as cli
        from subtrop import WitnessFailure

        def boom(*args, **kwargs):
            raise WitnessFailure("forced for the test")

        monkeypatch.setattr(cli, "verify_witness", boom)
        code, _, err = run(
            capsys, "verify", DATA / "example2.spp", "--coeffs", DATA / "example2_ones.coeffs"
        )
        assert code == 4
        assert "witness failure" in err

    def test_exit_code_follows_exception_class(self, capsys, monkeypatch):
        # the three defects exit 4 with their own line; every other SubtropError is an
        # input error and exits 2 with an "error: " line
        import subtrop.cli as cli
        import subtrop.oracle  # noqa: F401  (defines TooManySelections)
        from subtrop import (
            ParseError, SolverDefect, SubtropError, UncertifiedExponent, WitnessFailure,
        )

        def subclasses(cls):
            for sub in cls.__subclasses__():
                yield sub
                yield from subclasses(sub)

        defects = {
            WitnessFailure: "witness failure (solver defect): ",
            SolverDefect: "solver defect: ",
            UncertifiedExponent: "solver defect: ",
        }
        classes = set(subclasses(SubtropError))
        assert sorted(cls.__name__ for cls in classes - set(defects)) == [
            "NonIntegerCoefficient", "ParseError", "PreconditionViolated",
            "SizeLimitExceeded", "TooManySelections", "UnboundCoefficient", "_InputError",
        ]
        assert set(defects) <= classes
        for cls in classes:
            exc = cls("forced", 1, 1) if cls is ParseError else cls("forced for the test")

            def fail(system, exc=exc):
                raise exc

            monkeypatch.setattr(cli, "decide_system", fail)
            code, out, err = run(capsys, "decide", DATA / "example2.spp")
            assert out == ""
            expected = (4, defects[cls]) if cls in defects else (2, "error: ")
            assert (code, err) == (expected[0], f"{expected[1]}{exc}\n"), cls

    def test_unexpected_exception_exits_4(self, capsys, monkeypatch):
        import subtrop.pipeline as pipeline

        def crash(num_vars, rows):
            raise RuntimeError("forced\nfor the test")

        monkeypatch.setattr(pipeline, "solve_dnf", crash)
        code, out, err = run(capsys, "decide", DATA / "example2.spp", "--format", "json")
        assert code == 4
        assert out == ""
        assert err == "internal error: RuntimeError: forced for the test\n"

    def test_interrupt_is_not_swallowed(self, capsys, monkeypatch):
        import subtrop.pipeline as pipeline

        def interrupt(num_vars, rows):
            raise KeyboardInterrupt

        monkeypatch.setattr(pipeline, "solve_dnf", interrupt)
        with pytest.raises(KeyboardInterrupt):
            main(["decide", str(DATA / "example2.spp")])

    def test_verify_zero_row_exits_1(self, capsys):
        code, out, _ = run(capsys, "verify", DATA / "zero_row.spp", "--format", "json")
        assert code == 1
        assert json.loads(out)["reason"] == "zero-row"

    def test_check_skips_refutation_on_zero_rows(self, capsys, monkeypatch):
        # a zero row is its own reason, and the search, which gives refutations, never runs
        import subtrop.cli as cli

        def explode(system, tree):
            raise AssertionError("no refutation is checked for zero-row systems")

        monkeypatch.setattr(cli, "refutes", explode)
        code, out, _ = run(capsys, "decide", DATA / "zero_row.spp", "--check")
        assert code == 1
        assert "identically zero" in out


class TestLineEndings:
    """Input files are decoded with no newline translation: ``\\r\\n`` and ``\\r`` end a line."""

    @pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_same_system_and_bytes(self, capsys, tmp_path, newline):
        import subtrop.cli as cli

        bad = "vars x\n# a comment\npoly f = a*x^\n"
        for name, text in [
            *((p.name, p.read_text()) for p in sorted(DATA.glob("*.spp"))), ("bad.spp", bad)
        ]:
            assert "\r" not in text
            lf, other = tmp_path / f"lf_{name}", tmp_path / f"other_{name}"
            lf.write_bytes(text.encode())
            other.write_bytes(text.replace("\n", newline).encode())
            if name != "bad.spp":
                assert parse_system(cli._read(str(other))) == parse_system(cli._read(str(lf))), name
            for argv in (["decide"], ["decide", "--format", "json"],
                         ["explain"], ["explain", "--format", "json"]):
                if argv[0] == "decide" and name == "wall_8_20_8_1.spp":
                    continue  # a 1 s search per call; CI decides it once
                expected = run(capsys, argv[0], lf, *argv[1:])
                assert run(capsys, argv[0], other, *argv[1:]) == expected, (name, argv)
            if name == "bad.spp":
                assert expected == (2, "", "error: line 3, column 14: expected an exponent\n")

    @pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_same_bindings_and_bytes(self, capsys, tmp_path, newline):
        import subtrop.cli as cli

        for spp, coeffs in [("example2.spp", "example2_ones.coeffs"),
                            ("certify_head_42.spp", "certify_head_42.coeffs")]:
            text = (DATA / coeffs).read_text()
            assert "\r" not in text and text.count("\n") > 3
            lf, other = tmp_path / f"lf_{coeffs}", tmp_path / f"other_{coeffs}"
            lf.write_bytes(text.encode())
            other.write_bytes(text.replace("\n", newline).encode())
            bindings = parse_coefficient_bindings(cli._read(str(lf)))
            assert parse_coefficient_bindings(cli._read(str(other))) == bindings
            assert len(bindings) >= 3
            argv = ["verify", DATA / spp, "--format", "json"]
            assert run(capsys, *argv, "--coeffs", other) == run(capsys, *argv, "--coeffs", lf)
        # a bad line keeps its number
        other = tmp_path / "bad.coeffs"
        other.write_bytes(newline.join(["# values", "a = 1", "b = x", ""]).encode())
        with pytest.raises(ParseError, match="line 3"):
            parse_coefficient_bindings(cli._read(str(other)))


class TestCoefficientBindings:
    def test_parses_integers_and_fractions(self):
        text = "# unit values\na = 1\nb = 7/2\n\nc=4\n"
        assert parse_coefficient_bindings(text) == {
            "a": Fraction(1),
            "b": Fraction(7, 2),
            "c": Fraction(4),
        }

    def test_rejects_bad_lines(self):
        for text in ["a 1\n", "a = \n", "a = x\n", "a = 1/0\n", "a = 0\n", "a = 1\na = 2\n",
                     "a = \u0663\n", "a = \uff13\n", "a = 1_000\n", "a = 1/\u0663\n", "a = +3\n",
                     "a = \u00b2\n"]:
            with pytest.raises(ParseError):
                parse_coefficient_bindings(text)

    def test_rejects_names_no_coefficient_can_have(self):
        # a name must be an identifier, as a coefficient name in an .spp file is
        for name in ["c 2", "2c", "a-b", "c.1", "x^2", "\u00e9"]:
            with pytest.raises(ParseError) as caught:
                parse_coefficient_bindings(f"c1 = 1\n{name} = 3\n")
            assert str(caught.value) == f"line 2, column 1: invalid coefficient name {name!r}"
        assert parse_coefficient_bindings("_c9 = 1\nc_2 = 3\n") == {"_c9": 1, "c_2": 3}

    def test_verify_names_the_bad_binding_line(self, capsys, tmp_path):
        values = tmp_path / "values.coeffs"
        values.write_text("c1 = 1\nc 2 = 3\n")
        code, out, err = run(capsys, "verify", DATA / "intro_f.spp", "--coeffs", values)
        assert (code, out) == (2, "")
        assert err == "error: line 2, column 1: invalid coefficient name 'c 2'\n"


class TestDecideSystem:
    def test_single_row_dnf_matches_cnf_on_goldens(self, capsys):
        # --check checks one-row UNSAT answers by their refutation and SAT vectors by certifies
        for name in ["intro_f.spp", "intro_g.spp", "intro_f_ones.spp"]:
            code, _, err = run(capsys, "decide", DATA / name, "--check")
            assert code in (0, 1)
            assert err == ""

    def test_decision_carries_certifying_vector(self):
        system = load("example2.spp")
        decision = decide_system(system)
        assert decision.status == "sat"
        condition = build_cnf(system)
        assert condition.satisfied_by(decision.n)
        assert condition.satisfied_by(solve_dnf(system.d, build_dnf(system))[0])

    def test_model_failing_the_cnf_is_a_solver_defect(self, monkeypatch):
        import subtrop.pipeline as pipeline
        from subtrop import SolverDefect

        monkeypatch.setattr(pipeline, "solve_dnf", lambda num_vars, rows: ((0, 0), None))
        with pytest.raises(SolverDefect):
            decide_system(load("example2.spp"))
