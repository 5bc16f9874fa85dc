"""Exit codes and output formats of the command-line front end.

main() is driven in process.  Convention: exit 0 when every case
passes, 1 when some suite reports failures, 2 for unusable arguments
or expressions.  argparse rejects bad flag values by raising
SystemExit(2); errors detected later return 2; both paths appear here.
"""

import hashlib
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import svpsido
from svpsido import suites
from svpsido.cli import _build_parser, main
from svpsido.halfint import h
from svpsido.ring import GaussRat
from svpsido.textio import _FUNCTIONS


# the number of arguments each calculator function takes
ARITY = {"theta": 1, "theta_inv": 1, "tshift": 1, "trace": 1, "dpart": 1, "bracket": 2, "mul": 2}


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_prints_the_canonical_form(self, capsys):
        code, out, _ = run_cli(["eval", "theta(xi*d_xi)"], capsys)
        assert code == 0
        assert out.strip() == "1/2*r*d_r | exact"

    def test_terminating_product_stays_exact(self, capsys):
        code, out, _ = run_cli(["eval", "mul(d_r^-1, r)"], capsys)
        assert code == 0
        assert out.strip() == "r*d_r^-1 - d_r^-2 | exact"

    def test_floor_flag_narrows_the_window(self, capsys):
        code, out, _ = run_cli(["eval", "mul(d_r^-1, r^-1)", "--floor", "-2"], capsys)
        assert code == 0
        assert out.strip() == "r^-1*d_r^-1 + r^-2*d_r^-2 | floor=-2"

    def test_syntax_errors_exit_2(self, capsys):
        code, out, err = run_cli(["eval", "theta("], capsys)
        assert code == 2 and out == ""
        assert err.startswith("svpsido:")

    @pytest.mark.parametrize("expr", ["3/0*xi", "xi^3/0"])
    def test_zero_denominator_literal_exits_2(self, capsys, expr):
        code, out, err = run_cli(["eval", expr], capsys)
        assert code == 2 and out == ""
        assert err == "svpsido: zero denominator in the literal '3/0'\n"

    def test_trailing_whitespace_is_accepted(self, capsys):
        code, out, _ = run_cli(["eval", "xi "], capsys)
        assert code == 0 and out == "xi | exact\n"

    def test_algebra_mixing_exits_2(self, capsys):
        code, _, err = run_cli(["eval", "xi + r"], capsys)
        assert code == 2 and "mixes" in err

    def test_bad_floor_value_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "xi", "--floor", "best-effort"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("floor", ["-1_6", "-7_0/2"])
    def test_a_floor_with_underscores_is_a_usage_error(self, capsys, floor):
        # int() would read '-1_6' as -16; the calculator's grammar refuses '1_0'
        with pytest.raises(SystemExit) as exc:
            main(["eval", "xi", f"--floor={floor}"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1].endswith(
            f"not a half-integer floor: {floor!r}")

    def test_a_floor_in_other_decimal_digits_is_read(self, capsys):
        # the denominator is read as the numerator is, in any decimal digits
        code, out, _ = run_cli(["eval", "xi", "--floor=-\u0667/\u0662"], capsys)
        assert code == 0 and out == "xi | exact\n"

    def test_floor_below_the_deepest_exits_2(self, capsys):
        code, out, err = run_cli(["eval", "mul(d_r^-1, r^-1)", "--floor", "-2000"], capsys)
        assert code == 2 and out == ""
        assert err.startswith("svpsido:") and err.count("\n") == 1

    def test_deepest_floor_is_accepted(self, capsys):
        code, out, _ = run_cli(["eval", "mul(d_r^-1, r^-1)", "--floor", "-16"], capsys)
        assert code == 0 and out.strip().endswith("| floor=-16")

    def test_unprintable_result_exits_2(self, capsys):
        # 2^20000 has more digits than Python will convert to text
        code, out, err = run_cli(["eval", "2^20000*xi"], capsys)
        assert code == 2 and out == ""
        assert err.startswith("svpsido:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["theta(xi^2000)"],
            ["theta(xi^-1200)", "--floor", "-2"],
            ["theta_inv(r^-1200)", "--floor", "-2"],
            ["theta_inv(r^-64*d_r^16)", "--floor", "-16"],
        ],
    )
    def test_oversized_generator_images_exit_2_quickly(self, capsys, argv):
        start = time.monotonic()
        code, out, err = run_cli(["eval", *argv], capsys)
        assert time.monotonic() - start < 10
        assert code == 2 and out == ""
        assert err.startswith("svpsido:") and err.count("\n") == 1

    @pytest.mark.parametrize("depth", [300, 3000])
    def test_deep_nesting_exits_2_with_one_line(self, capsys, depth):
        code, out, err = run_cli(["eval", "(" * depth + "xi" + ")" * depth], capsys)
        assert code == 2 and out == ""
        assert err == "svpsido: expression nests too deeply\n"

    @pytest.mark.parametrize(
        "expr, shown",
        [
            ("t^100000000", "t^100000000 | exact"),
            ("r^-100000000", "r^-100000000 | exact"),
            ("(2*t)^100", "1267650600228229401496703205376*t^100 | exact"),
        ],
    )
    def test_large_exponents_of_a_monomial_return_quickly(self, capsys, expr, shown):
        start = time.monotonic()
        code, out, _ = run_cli(["eval", expr], capsys)
        assert time.monotonic() - start < 10
        assert code == 0 and out.strip() == shown

    @pytest.mark.parametrize(
        "expr", ["(2*t)^100000000", "(1/2)^-100000000*xi", "(3/5+4/5*i)^20000", "M*r^-2*(2*r)^-100000"]
    )
    def test_unprintable_coefficient_powers_exit_2_quickly(self, capsys, expr):
        # refused before the power is taken, in words a calculator user can act on
        start = time.monotonic()
        code, out, err = run_cli(["eval", expr], capsys)
        assert time.monotonic() - start < 2
        assert code == 2 and out == ""
        assert err.startswith("svpsido: the coefficient of this power") and err.count("\n") == 1

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="no limit")
    def test_powers_at_the_digit_limit_still_print(self, capsys):
        limit = sys.get_int_max_str_digits()
        k = int(limit / math.log10(2))
        while len(str(2**k)) > limit:
            k -= 1
        for expr in (f"2^{k}*xi", f"(1/2)^{k}*t", f"(1/2+1/2*i)^{2 * k}"):
            code, out, _ = run_cli(["eval", expr], capsys)
            assert code == 0 and out.strip().endswith("| exact"), expr
        code, _, err = run_cli(["eval", f"2^{k + 1}*xi"], capsys)
        assert code == 2 and err.startswith("svpsido: the coefficient of this power")

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="no limit")
    def test_unprintable_products_exit_2_in_package_words(self, capsys):
        # each factor prints, the product does not; the check runs at printing
        start = time.monotonic()
        code, out, err = run_cli(["eval", "2^14000*2^14000*xi"], capsys)
        assert time.monotonic() - start < 2
        assert code == 2 and out == ""
        assert err.startswith("svpsido:") and err.count("\n") == 1
        assert "set_int_max_str_digits" not in err

    @pytest.mark.parametrize("expr", ["(xi+1)^65", "(xi+1)^100000", "(t+d_xi)^2000"])
    def test_large_exponents_of_a_sum_exit_2_quickly(self, capsys, expr):
        start = time.monotonic()
        code, out, err = run_cli(["eval", expr], capsys)
        assert time.monotonic() - start < 2
        assert code == 2 and out == ""
        assert err.startswith("svpsido:") and err.count("\n") == 1

    def test_the_largest_power_of_a_sum_evaluates(self, capsys):
        code, out, _ = run_cli(["eval", "(xi+d_xi)^64"], capsys)
        assert code == 0
        assert out.startswith("d_xi^64 + 64*xi*d_xi^63 + ") and out.strip().endswith("| exact")

    @pytest.mark.parametrize("floor", ["-2", "-4", "-6"])
    def test_shift_of_an_inverse_momentum_power_exits_2(self, capsys, floor):
        # its series would be cut at a floor-dependent x-degree no floor records
        code, out, err = run_cli(["eval", "tshift(xi^-1)", "--floor", floor], capsys)
        assert code == 2 and out == ""
        assert err.startswith("svpsido:") and err.count("\n") == 1

    @pytest.mark.parametrize("floor", ["-2", "-6"])
    def test_shift_of_nonnegative_momentum_powers_stays_exact(self, capsys, floor):
        code, out, _ = run_cli(["eval", "tshift(xi^2*d_xi + 3*xi)", "--floor", floor], capsys)
        assert code == 0
        shifted = "(xi^2 + i*M^-1*t*xi - 1/4*M^-2*t^2)*d_xi + 3*xi + 3/2*i*M^-1*t"
        assert out.strip() == shifted + " | exact"

    @pytest.mark.parametrize("expr", ["tshift(xi^65)", "tshift(xi^100000)"])
    def test_shift_of_a_momentum_power_above_the_bound_exits_2_quickly(self, capsys, expr):
        # xi^q shifts into a power of a sum, bounded as (xi+1)^q is
        start = time.monotonic()
        code, out, err = run_cli(["eval", expr], capsys)
        assert time.monotonic() - start < 2
        assert code == 2 and out == ""
        assert err == "svpsido: tshift takes momentum powers up to 64\n"

    def test_shift_of_the_largest_momentum_power_prints_as_before(self, capsys):
        # sha256 of the output pinned from before the bound
        code, out, _ = run_cli(["eval", "tshift(xi^64)"], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "d33bbe6e1494676c34d34dcc2c52763be3d1731cfb59f818c7206ca2eddeb449")

    @pytest.mark.parametrize("name, given", [
        (name, given) for name, count in ARITY.items() for given in (count + 1, count - 1) if given])
    def test_a_function_given_the_wrong_number_of_arguments_exits_2(self, capsys, name, given):
        # a call used to raise TypeError out of the parser, with a traceback
        assert set(ARITY) == set(_FUNCTIONS)
        count = ARITY[name]
        code, out, err = run_cli(["eval", f"{name}({','.join(['xi'] * given)})"], capsys)
        assert code == 2 and out == ""
        plural = "s" if count > 1 else ""
        assert err == f"svpsido: {name} takes {count} argument{plural}, not {given}\n"

    @pytest.mark.parametrize("expr", ["xi^1/2", "t^1/2", "M^-1/2", "(xi+d_xi)^1/2", "(2*d_xi)^3/2"])
    def test_half_exponents_of_anything_but_a_derivative_exit_2(self, capsys, expr):
        code, out, err = run_cli(["eval", expr], capsys)
        assert code == 2 and out == ""
        assert err == "svpsido: only a pure derivative takes a half-integer exponent\n"

    @pytest.mark.parametrize("expr", ["((2 + M)*t)^-1", "(xi+d_xi)^-1", "(xi*d_xi)^-2"])
    def test_negative_powers_of_a_sum_or_product_exit_2(self, capsys, expr):
        code, out, err = run_cli(["eval", expr], capsys)
        assert code == 2 and out == ""
        assert err == (
            "svpsido: only a monomial function or a pure derivative takes a negative exponent\n"
        )

    @pytest.mark.parametrize("expr", ["0^-1", "0^-2*xi", "(xi - xi)^-1"])
    def test_a_negative_power_of_zero_exits_2(self, capsys, expr):
        code, out, err = run_cli(["eval", expr], capsys)
        assert code == 2 and out == ""
        assert err == "svpsido: zero has no negative power\n"

    @pytest.mark.parametrize(
        "argv, shown",
        [
            (["-t"], "-t | exact"),
            (["-1/2*xi", "--floor", "-3"], "-1/2*xi | exact"),
            (["--floor", "-7/2", "-M*t*d_xi^1/2"], "-M*t*d_xi^1/2 | exact"),
            (["-d_r^-1", "--floor=-2"], "-d_r^-1 | exact"),
            (["--", "-t"], "-t | exact"),
            (["-i"], "-i | exact"),
        ],
    )
    def test_an_expression_may_start_with_a_minus_sign(self, capsys, argv, shown):
        # every printed body evaluates to itself, "-t" among them
        code, out, _ = run_cli(["eval", *argv], capsys)
        assert code == 0 and out == f"{shown}\n"

    @pytest.mark.parametrize("flag", ["-h", "--help"])
    def test_help_is_still_a_flag(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main(["eval", flag])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: svpsido eval [-h] [--floor FLOOR] EXPR")

    def test_fractional_negative_flag_values_parse(self, capsys):
        # argparse must accept "-7/2" as a value, not read it as a flag
        code, out, _ = run_cli(["eval", "xi", "--floor", "-7/2"], capsys)
        assert code == 0 and out.strip() == "xi | exact"


def test_cli_suite_names_are_the_suites_in_order():
    # the command line keeps a copy so that it need not import the suites
    from svpsido import cli, suites

    assert cli.SUITE_NAMES == suites.SUITE_NAMES


VERIFIER_MODULES = (
    "svpsido.suites",
    "svpsido.svalgebra",
    "svpsido.kacmoody",
    "svpsido.poisson",
    "svpsido.cocycles",
    "svpsido.diffop2",
    "svpsido.svaction",
)


@pytest.mark.parametrize(
    "module, unloaded",
    [
        ("svpsido.cli", (*VERIFIER_MODULES, "multiprocessing", "dataclasses")),
        ("svpsido.suites", ("multiprocessing", "dataclasses")),
    ],
)
def test_imports_in_a_fresh_interpreter_leave_the_heavy_modules_unloaded(module, unloaded):
    # only a cold process shows what an import pulls in: this one has loaded everything
    script = f"import sys, {module}\nprint(' '.join(m for m in {unloaded!r} if m in sys.modules))"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(svpsido.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=60, env=env
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "\n"


@pytest.mark.parametrize(
    "argv", [["eval", "xi"], ["verify", "--suite", "lemma33", "--threads", "1"]]
)
def test_a_closed_stdout_exits_1_without_a_traceback(argv):
    # the reader of the pipe is gone before the command starts
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(svpsido.__file__)))
    try:
        done = subprocess.run(
            [sys.executable, "-m", "svpsido.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, timeout=60, env=env,
        )
    finally:
        os.close(write_end)
    assert done.returncode == 1
    assert done.stderr == b""


class TestVerify:
    def test_passing_suite_text_report(self, capsys):
        code, out, _ = run_cli(["verify", "--suite", "lemma33"], capsys)
        assert code == 0
        assert "suite lemma33: 41/41 passed" in out
        assert out.rstrip().endswith("overall: PASS")

    def test_json_report_schema(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--suite", "lemma33", "--report", "json"], capsys
        )
        assert code == 0
        reports = json.loads(out)
        assert [r["suite"] for r in reports] == ["lemma33"]
        assert set(reports[0]) == {"suite", "cases", "passed", "failures", "millis"}

    def test_repeated_suites_run_once_in_order(self, capsys):
        code, out, _ = run_cli(
            [
                "verify",
                "--suite", "timeshift",
                "--suite", "lemma33",
                "--suite", "timeshift",
                "--report", "json",
            ],
            capsys,
        )
        assert code == 0
        assert [r["suite"] for r in json.loads(out)] == ["timeshift", "lemma33"]

    def test_wrong_central_charge_fails_the_negative_control(self, capsys):
        # the free-family rows depend on the charge; c = 1 must be caught
        code, out, _ = run_cli(
            [
                "verify",
                "--suite", "theorem61",
                "--c", "1",
                "--range", "2",
                "--report", "json",
                "--normalize-mass",
            ],
            capsys,
        )
        assert code == 1
        rep = json.loads(out)[0]
        assert rep["passed"] < rep["cases"]
        assert rep["failures"]
        assert set(rep["failures"][0]) == {"inputs", "lhs", "rhs"}
        assert rep["failures"][0]["inputs"].startswith("free family match")
        # with the mass normalized away, no symbolic M survives in the report
        assert all(
            "M" not in f["lhs"] and "M" not in f["rhs"] for f in rep["failures"]
        )

    def test_unknown_suite_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "lemma27"])
        assert exc.value.code == 2

    def test_exact_floor_is_a_usage_error(self, capsys):
        # suites need a finite window, so "exact" is rejected at parse time
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "lemma26", "--floor", "exact"])
        assert exc.value.code == 2

    def test_out_of_bounds_range_exits_2(self, capsys):
        code, _, err = run_cli(["verify", "--suite", "lemma33", "--range", "12"], capsys)
        assert code == 2 and "index range" in err

    def test_floor_below_the_deepest_exits_2(self, capsys):
        code, out, err = run_cli(["verify", "--suite", "lemma33", "--floor", "-2001/2"], capsys)
        assert code == 2 and out == ""
        assert err.startswith("svpsido:") and err.count("\n") == 1

    def test_zero_threads_exits_2(self, capsys):
        code, _, err = run_cli(["verify", "--suite", "lemma33", "--threads", "0"], capsys)
        assert code == 2 and "thread" in err

    def test_a_thread_count_above_the_bound_exits_2_before_any_fork(self, capsys, monkeypatch):
        def no_fork():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", no_fork)
        code, out, err = run_cli(["verify", "--suite", "lemma33", "--threads", "65"], capsys)
        assert code == 2 and out == ""
        assert err == "svpsido: thread count out of bounds (want 1 <= n <= 64)\n"

    def test_nu_scan_prints_the_weight_table(self, capsys):
        code, out, _ = run_cli(["verify", "--suite", "nu-scan"], capsys)
        assert code == 0
        assert "nu -> mu" in out
        for row in ("-1 -> -1", "-1/2 -> -1/2", "0 -> 0", "1/2 -> 1/2", "1 -> 1"):
            assert row in out

    def test_a_gaussian_deformation_reaches_the_scan(self, capsys):
        argv = ["verify", "--suite", "theta", "--suite", "nu-scan", "--range", "1", "--nu", "2-i"]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        assert "(2 - i) -> " in out

    @pytest.mark.parametrize("nu, row", [("i", "i -> i"), ("2-i", "(2 - i) -> (2 - i)")])
    def test_a_gaussian_deformation_fits_the_weight_nu(self, capsys, nu, row):
        code, out, _ = run_cli(["verify", "--suite", "nu-scan", "--nu", nu], capsys)
        assert code == 0
        assert row in [line.strip() for line in out.splitlines()]
        assert "NO-FIT" not in out

    @pytest.mark.parametrize("text, value", [
        ("i", (0, 1)), ("-3/4*i", (0, Fraction(-3, 4))), ("2-i", (2, -1)),
        ("1/2+3/4*i", (Fraction(1, 2), Fraction(3, 4))), ("-1/3", (Fraction(-1, 3), 0)),
        ("-i", (0, -1)), ("-1-i", (-1, -1)),
    ])
    def test_deformations_parse_as_gaussian_rationals(self, text, value):
        args = _build_parser().parse_args(["verify", "--nu", text])
        assert args.nu == GaussRat(*value)

    @pytest.mark.parametrize("text", ["2+3", "*i", "1/0*i", "i2"])
    def test_malformed_deformations_exit_2(self, text):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "theta", f"--nu={text}"])
        assert exc.value.code == 2

    def test_dual_weight_widens_the_representation_suites(self, capsys):
        argv = ["verify", "--suite", "dpi-rep", "--suite", "dsigma-rep", "--report", "json"]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        assert [r["cases"] for r in json.loads(out)] == [570, 1149]
        code, out, _ = run_cli(argv + ["--mu", "3/7"], capsys)
        assert code == 0
        assert [r["cases"] for r in json.loads(out)] == [760, 1529]

    @pytest.mark.parametrize("argv, cfg", [
        ([], {}),
        (["--floor", "-9/2", "--range", "4", "--c", "1/3", "--nu", "2-i", "--mu", "3/7",
          "--normalize-mass", "--random", "5", "--seed", "7", "--threads", "2"],
         dict(floor=h("-9/2"), index_range=4, c=GaussRat(Fraction(1, 3)), nu=GaussRat(2, -1),
              mu=Fraction(3, 7), normalize_mass=True, random_cases=5, seed=7, threads=2)),
    ])
    def test_each_option_lands_in_its_config_field(self, capsys, monkeypatch, argv, cfg):
        seen = []
        monkeypatch.setattr(suites, "run_suites", lambda names, config: seen.append(config) or [])
        code, _, _ = run_cli(["verify", *argv], capsys)
        assert code == 0
        assert seen == [suites.VerifyConfig(**cfg)]

    def test_reports_are_stable_across_runs(self, capsys):
        import re

        argv = ["verify", "--suite", "lemma26", "--report", "json"]
        _, one, _ = run_cli(argv, capsys)
        _, two, _ = run_cli(argv, capsys)
        scrub = lambda s: re.sub(r'"millis": \d+', '"millis": 0', s)
        assert scrub(one) == scrub(two)
