import hashlib
import json
import math
import os
import re
import subprocess
import sys
import time

import mpmath
import pytest

from quintiq import composite
from quintiq.cli import _build_parser, main
from quintiq.experiments import SKIP_MARKER, experiment1, experiment2
from quintiq.scalars import DOUBLE, mp_context

import corpus as corpus_mod
from support import (
    PAPER_EXP1_CUBIC,
    PAPER_EXP1_QUINTIC,
    PAPER_EXP2_CUBIC,
    PAPER_EXP2_QUINTIC,
)

EXPECTED_EXP1_DOUBLE_CSV = (
    "epsilon,n_quintic,n_cubic\n"
    "1e-1,1,1\n"
    "1e-2,1,1\n"
    "1e-3,1,1\n"
    "1e-4,1,2\n"
    "1e-5,2,3\n"
    "1e-6,2,5\n"
    "1e-7,3,9\n"
    "1e-8,4,16\n"
    "1e-9,6,28\n"
    "1e-10,9,50\n"
    "1e-11,13,89\n"
    "1e-12,19,158\n"
    "1e-13,27,280\n"
    f"1e-14,{SKIP_MARKER},{SKIP_MARKER}\n"
    f"1e-15,{SKIP_MARKER},{SKIP_MARKER}\n"
    f"1e-16,{SKIP_MARKER},{SKIP_MARKER}\n"
)


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    env.pop("QUINTIQ_PRECISION", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "quintiq", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


class TestExperimentTables:
    def test_experiment1_dd_matches_paper(self, exp1_dd):
        rows, _elapsed = exp1_dd
        assert [r.n_quintic for r in rows] == PAPER_EXP1_QUINTIC
        assert [r.n_cubic for r in rows] == PAPER_EXP1_CUBIC
        assert [r.label for r in rows] == [f"1e-{k}" for k in range(1, 17)]

    def test_experiment2_dd_matches_paper(self, exp2_dd):
        rows, _elapsed = exp2_dd
        assert [r.n_quintic for r in rows] == PAPER_EXP2_QUINTIC
        assert [r.n_cubic for r in rows] == PAPER_EXP2_CUBIC

    def test_experiment1_double_skips_undecidable_rows(self):
        rows = experiment1(DOUBLE)
        assert [r.n_quintic for r in rows[:13]] == PAPER_EXP1_QUINTIC[:13]
        assert [r.n_cubic for r in rows[:13]] == PAPER_EXP1_CUBIC[:13]
        for r in rows[13:]:
            assert r.n_quintic is None and r.n_cubic is None

    def test_experiment2_double_matches_paper(self):
        rows = experiment2(DOUBLE)
        assert [r.n_quintic for r in rows] == PAPER_EXP2_QUINTIC
        assert [r.n_cubic for r in rows] == PAPER_EXP2_CUBIC

    def test_the_tables_run_their_integrands_as_bound_tapes(self, monkeypatch):
        # an opaque integrand would be called through call_integrand
        calls = []
        monkeypatch.setattr(
            composite, "call_integrand", lambda f, x, k=None: calls.append(x) or f(x)
        )
        assert [r.n_cubic for r in experiment1(DOUBLE)[:13]] == PAPER_EXP1_CUBIC[:13]
        assert [r.n_cubic for r in experiment2(DOUBLE)] == PAPER_EXP2_CUBIC
        assert calls == []

    def test_experiment_tables_mp40_match_paper(self):
        ctx = mp_context(40)
        rows1 = experiment1(ctx)
        assert [r.n_quintic for r in rows1] == PAPER_EXP1_QUINTIC
        assert [r.n_cubic for r in rows1] == PAPER_EXP1_CUBIC
        rows2 = experiment2(ctx)
        assert [r.n_quintic for r in rows2] == PAPER_EXP2_QUINTIC
        assert [r.n_cubic for r in rows2] == PAPER_EXP2_CUBIC


class TestCliIntegrate:
    def test_json_output_schema_and_values(self):
        r = run_cli(
            "integrate", "--fn", "1/x", "--a", "1", "--b", "2",
            "--eps", "1e-8", "--output", "json",
        )
        assert r.returncode == 0, r.stderr
        payload = json.loads(r.stdout)
        assert set(payload) == {
            "method", "value", "n_final", "gap_final", "epsilon",
            "evaluations", "history", "precision", "config",
        }
        assert payload["method"] == "quintic"
        assert payload["n_final"] == 4
        assert payload["precision"] == "double"
        assert isinstance(payload["value"], str)
        assert abs(float(payload["value"]) - math.log(2)) <= 1e-8
        assert payload["history"][0][0] == 1
        assert payload["config"]["fn"] == "1/x"

    def test_human_output(self):
        r = run_cli("integrate", "--fn", "exp(x)", "--a", "0", "--b", "1", "--eps", "1e-8")
        assert r.returncode == 0
        assert "n           2" in r.stdout
        assert "method      quintic" in r.stdout

    def test_cubic_method(self):
        r = run_cli(
            "integrate", "--fn", "exp(x)", "--a", "0", "--b", "1",
            "--eps", "1e-8", "--method", "cubic", "--output", "json",
        )
        payload = json.loads(r.stdout)
        assert payload["method"] == "cubic"
        assert payload["n_final"] == 12

    def test_trivial_polynomial(self):
        r = run_cli(
            "integrate", "--fn", "x^3", "--a", "0", "--b", "1",
            "--eps", "1e-12", "--output", "json",
        )
        payload = json.loads(r.stdout)
        assert payload["n_final"] == 1
        assert abs(float(payload["value"]) - 0.25) < 1e-12

    def test_doubling_strategy_flag(self):
        r = run_cli(
            "integrate", "--fn", "1/x", "--a", "1", "--b", "2",
            "--eps", "1e-8", "--strategy", "doubling", "--output", "json",
        )
        assert json.loads(r.stdout)["n_final"] == 4

    @pytest.mark.parametrize("precision", ["double", "dd"])
    def test_integrate_leaves_mpmath_unimported(self, precision):
        code = (
            "import sys\n"
            "from quintiq.cli import main\n"
            "main(['integrate', '--fn', '1/x', '--a', '1', '--b', '2',"
            f" '--precision', '{precision}'])\n"
            "sys.exit('mpmath' in sys.modules and 'mpmath was imported')\n"
        )
        r = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=300
        )
        assert (r.returncode, r.stderr) == (0, "")

    def test_dd_precision_flag_value_digits(self):
        r = run_cli(
            "integrate", "--fn", "1/x", "--a", "1", "--b", "2",
            "--eps", "1e-12", "--precision", "dd", "--output", "json",
        )
        payload = json.loads(r.stdout)
        assert payload["precision"] == "dd"
        assert payload["n_final"] == 19
        # dd value is a 30+ digit decimal within 1e-12 of ln 2
        digits = payload["value"].replace(".", "").lstrip("-0")
        assert len(digits) >= 28

    def test_env_var_precision_default_and_flag_override(self):
        r = run_cli(
            "integrate", "--fn", "1/x", "--a", "1", "--b", "2",
            "--eps", "1e-8", "--output", "json",
            env_extra={"QUINTIQ_PRECISION": "dd"},
        )
        assert json.loads(r.stdout)["precision"] == "dd"
        r = run_cli(
            "integrate", "--fn", "1/x", "--a", "1", "--b", "2",
            "--eps", "1e-8", "--output", "json", "--precision", "mp:20",
            env_extra={"QUINTIQ_PRECISION": "dd"},
        )
        assert json.loads(r.stdout)["precision"] == "mp:20"

    def test_verify_convexity_annotation(self):
        r = run_cli(
            "integrate", "--fn", "exp(x)", "--a", "0", "--b", "1",
            "--eps", "1e-6", "--verify-convexity", "--output", "json",
        )
        payload = json.loads(r.stdout)
        assert payload["convexity"]["verdict"] == "consistent-with-convex"

    @pytest.mark.parametrize("precision", ["double", "dd"])
    def test_interval_where_k_times_the_width_overflows(self, precision, capsys):
        # (n - 1)(b - a) is beyond the double range for n > 15; the answer is ln 3.5
        code = main([
            "integrate", "--fn", "1/x", "--a", "5e306", "--b", "1.75e307", "--eps", "1e-14",
            "--strategy", "doubling", "--precision", precision, "--output", "json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert abs(mpmath.mpf(payload["value"]) - mpmath.log(3.5)) <= 1e-14

    def test_csv_output(self):
        r = run_cli(
            "integrate", "--fn", "1/x", "--a", "1", "--b", "2",
            "--eps", "1e-8", "--output", "csv",
        )
        lines = r.stdout.splitlines()
        assert lines[0] == "value,n_final,gap_final,epsilon,evaluations,method,precision"
        cells = lines[1].split(",")
        assert cells[1] == "4" and cells[5] == "quintic"


class TestCliExitCodes:
    def test_parse_error_is_1(self):
        r = run_cli("integrate", "--fn", "1+(", "--a", "1", "--b", "2")
        assert r.returncode == 1
        assert "error" in r.stderr

    def test_unknown_identifier_is_1(self):
        r = run_cli("integrate", "--fn", "sin(x)", "--a", "1", "--b", "2")
        assert r.returncode == 1
        assert "sin" in r.stderr

    def test_domain_error_is_2(self):
        r = run_cli("integrate", "--fn", "ln(x-5)", "--a", "1", "--b", "2")
        assert r.returncode == 2

    @pytest.mark.parametrize("precision", ["double", "dd", "mp:40"])
    def test_an_operand_that_0_times_y_consumes_still_raises(self, precision, capsys):
        code = main(["integrate", "--fn", "0*ln(x)+x", "--a", "-1", "--b", "1",
                     "--precision", precision])
        assert code == 2
        assert "ln of a non-positive argument" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["integrate", "check"])
    @pytest.mark.parametrize(
        "fn",
        # 200 nested parentheses overflow the parser's recursion; a sum of
        # 1,000 terms parses in a loop, and binding its deep tree recurses
        ["(" * 200 + "x" + ")" * 200, "+".join(["x"] * 1000)],
        ids=["parentheses", "long-sum"],
    )
    def test_too_deeply_nested_expression_is_1_without_traceback(self, command, fn, capsys):
        code = main([command, f"--fn={fn}", "--a", "1", "--b", "2"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err == "error: the expression is nested too deeply\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "fn", ["(" * 150 + "x" + ")" * 150, "+".join(["x"] * 800)], ids=["parentheses", "long-sum"]
    )
    def test_nesting_within_the_limits_is_0(self, fn):
        r = run_cli("integrate", f"--fn={fn}", "--a", "1", "--b", "2")
        assert (r.returncode, r.stderr) == (0, "")

    @pytest.mark.parametrize("precision", ["double", "dd"])
    @pytest.mark.parametrize(
        "fn, value",
        # an operand that 0*y consumes still binds its constants
        [("1e400*x", "1e+400"), ("x+1e999999", "1e+999999"), ("0*(x+1e400)", "1e+400")],
    )
    def test_out_of_range_constant_is_2_and_named(self, fn, value, precision, capsys):
        code = main(["integrate", f"--fn={fn}", "--a", "1", "--b", "2", "--precision", precision])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: the constant {value} is out of range in {precision} precision\n"
        )

    def test_check_grid_below_one_is_2_and_names_the_grid(self, capsys):
        code = main(["check", "--fn=1/x", "--a", "1", "--b", "2", "--grid", "0"])
        assert code == 2
        assert capsys.readouterr().err == "error: grid must be >= 1, got 0\n"

    def test_constant_beyond_the_double_range_integrates_in_mp(self, capsys):
        code = main(["integrate", "--fn=1e400*x", "--a", "1", "--b", "2", "--precision", "mp:40"])
        assert code == 0
        assert "value       1.5e+400\n" in capsys.readouterr().out

    @pytest.mark.parametrize("precision", ["double", "dd"])
    def test_negative_power_of_an_underflowing_base_is_power_overflow(self, precision):
        r = run_cli(
            "integrate", "--fn", "x^-2", "--a", "1e-200", "--b", "1", "--precision", precision
        )
        assert r.returncode == 2
        assert r.stderr == (
            "error: integrand evaluation failed at x = 1e-200 in subinterval 1: "
            "power overflow (at x = 1e-200)\n"
        )

    @pytest.mark.parametrize("precision", ["dd", "mp:40"])
    def test_integrand_error_prints_the_abscissa_as_a_number(self, precision):
        r = run_cli(
            "integrate", "--fn", "1/(x-1e-200)", "--a", "1e-200", "--b", "1",
            "--precision", precision,
        )
        assert r.returncode == 2
        assert r.stderr == (
            "error: integrand evaluation failed at x = 1e-200 in subinterval 1: "
            "division by zero (at x = 1e-200)\n"
        )

    @pytest.mark.parametrize("strategy", ["linear", "doubling"])
    @pytest.mark.parametrize("precision", ["double", "dd"])
    def test_non_finite_gap_is_2_at_the_first_probe(self, precision, strategy, capsys):
        # x*x overflows on the whole interval; the default --n-max is 10**6
        t0 = time.perf_counter()
        code = main([
            "integrate", "--fn", "x*x", "--a", "1e200", "--b", "2e200",
            "--precision", precision, "--strategy", strategy,
        ])
        elapsed = time.perf_counter() - t0
        assert code == 2
        assert capsys.readouterr().err == (
            "error: gap |L_n - G_n| is nan at n = 1; "
            "the integrand or the rule sums overflow at this precision\n"
        )
        assert elapsed < 1.0

    @pytest.mark.parametrize("precision", ["double", "dd", "mp:40"])
    def test_plus_of_an_overflow_nan_is_a_non_finite_gap(self, precision, capsys):
        # x*1e300*1e300 overflows in double and dd, so plus() sees inf - inf
        code = main([
            "integrate", "--fn", "plus(x*1e300*1e300 - x*1e300*1e300)^7 + 1/x",
            "--a", "1", "--b", "2", "--strategy", "doubling", "--precision", precision,
        ])
        captured = capsys.readouterr()
        if precision == "mp:40":  # no overflow: plus(0) = 0 and the answer is ln 2
            assert code == 0 and "value       0.69314717508939608" in captured.out
            return
        assert code == 2
        assert captured.err == (
            "error: gap |L_n - G_n| is nan at n = 1; "
            "the integrand or the rule sums overflow at this precision\n"
        )

    @pytest.mark.parametrize("fn", ["exp", "ln"])
    @pytest.mark.parametrize("precision", ["double", "dd"])
    def test_exp_and_ln_of_an_overflow_nan_are_a_non_finite_gap(self, fn, precision, capsys):
        # inf - inf is nan in double and dd; exp and ln pass it on
        code = main([
            "integrate", "--fn", f"{fn}(x*1e300*1e300 - x*1e300*1e300)",
            "--a", "1", "--b", "2", "--precision", precision,
        ])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: gap |L_n - G_n| is nan at n = 1; "
            "the integrand or the rule sums overflow at this precision\n"
        )

    def test_mp_gap_beyond_the_double_range_prints_finite(self, capsys):
        # x*x is finite in mp:40, and the gap at n = 1 is 4.12e559
        code = main([
            "integrate", "--fn", "x*x", "--a", "1e200", "--b", "2e200",
            "--precision", "mp:40", "--strategy", "doubling", "--n-max", "1",
        ])
        assert code == 3
        assert capsys.readouterr().err == (
            "error: no n <= 1 reached gap <= 4*eps (eps = 1e-08); "
            "best gap 4.11872e+559 at n = 1\n"
        )

    @pytest.mark.parametrize("precision", ["double", "dd"])
    def test_overflowing_power_is_2(self, precision, capsys):
        code = main([
            "integrate", "--fn", "x^2", "--a", "1e200", "--b", "2e200", "--precision", precision,
        ])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: integrand evaluation failed at x = 1e+200 in subinterval 1: "
            "power overflow (at x = 1e+200)\n"
        )

    def test_invalid_interval_is_2(self):
        r = run_cli("integrate", "--fn", "1/x", "--a", "2", "--b", "1")
        assert r.returncode == 2
        assert "a < b" in r.stderr

    @pytest.mark.parametrize(
        "extra", [["--a", "1e400", "--b", "2"], ["--a", "1", "--b", "2", "--eps", "1e400"]]
    )
    def test_overflowing_number_is_2(self, extra):
        # 1e400 overflows a double while being converted
        r = run_cli("integrate", "--fn", "1/x", *extra)
        assert r.returncode == 2
        assert r.stderr.startswith("error: ")
        assert len(r.stderr.splitlines()) == 1

    def test_budget_exceeded_is_3(self):
        r = run_cli(
            "integrate", "--fn", "1/x", "--a", "1", "--b", "2",
            "--eps", "1e-10", "--n-max", "3",
        )
        assert r.returncode == 3
        assert "best gap" in r.stderr

    def test_budget_exceeded_below_double_range_is_3(self):
        # 4 eps underflows a double; the search must still exit on the budget
        r = run_cli(
            "integrate", "--fn", "1/x", "--a", "1", "--b", "2", "--eps", "1e-400",
            "--precision", "mp:500", "--strategy", "doubling", "--n-max", "5",
        )
        assert r.returncode == 3
        assert r.stderr.startswith("error: no n <= 5 reached gap <= 4*eps")
        assert "at n = 5" in r.stderr

    @pytest.mark.parametrize("precision, eps", [("dd", "1e-300"), ("mp:500", "1e-400")])
    def test_budget_message_prints_short_decimals(self, precision, eps):
        r = run_cli(
            "integrate", "--fn", "1/x", "--a", "1", "--b", "2", "--eps", eps,
            "--precision", precision, "--strategy", "doubling", "--n-max", "50",
        )
        assert r.returncode == 3
        m = re.fullmatch(
            r"error: no n <= 50 reached gap <= 4\*eps \(eps = (\S+)\); "
            r"best gap (\S+) at n = 50\n",
            r.stderr,
        )
        assert m is not None, r.stderr
        assert m.group(1) == eps
        gap = m.group(2)
        # about 6 significant digits, no class name
        assert len(gap) <= 12
        assert float(gap) == pytest.approx(8.745e-15, rel=1e-3)

    def test_budget_message_prints_an_mp_gap_beyond_decimals_exponent(self, capsys):
        # the gap's decimal exponent has 400 digits
        code = main([
            "integrate", "--fn", "x^(1e400+1/2)", "--a", "1", "--b", "2",
            "--precision", "mp:40", "--n-max", "3",
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith(
            "error: no n <= 3 reached gap <= 4*eps (eps = 1e-08); "
            "best gap 1.27934e+30102999566398119521373889472449302676819085"
        )
        assert err.endswith(" at n = 3\n")

    @pytest.mark.parametrize(
        "eps, cause",
        [
            ("1e400", "integer division result too large for a float"),
            ("nan", "nan"),
            ("1e-400", "not positive in double precision"),
        ],
    )
    def test_invalid_eps_names_the_option(self, eps, cause):
        r = run_cli("integrate", "--fn", "1/x", "--a", "1", "--b", "2", f"--eps={eps}")
        assert r.returncode == 2
        assert r.stderr.startswith(f"error: invalid tolerance --eps={eps}: ")
        assert cause in r.stderr
        assert len(r.stderr.splitlines()) == 1

    @pytest.mark.parametrize(
        "args, code, line",
        [
            (("--fn", "x+1e9999999"), 1,
             "error: the exponent of 1e9999999 has more than 6 digits (at bytes 2..11)"),
            (("--fn", "x", "--eps", "1e-9999999"), 2,
             "error: invalid tolerance --eps=1e-9999999: "
             "the exponent of 1e-9999999 has more than 6 digits"),
            (("--fn", "x", "--a", "-1e9999999"), 2,
             "error: invalid interval endpoint: "
             "the exponent of -1e9999999 has more than 6 digits"),
            (("--fn", "x", "--b", "1e+0012345678"), 2,
             "error: invalid interval endpoint: "
             "the exponent of 1e+0012345678 has more than 6 digits"),
        ],
        ids=["fn", "eps", "a", "b"],
    )
    def test_a_seven_digit_exponent_is_refused_at_once(self, args, code, line, capsys):
        argv = {"--a": "1", "--b": "2"}
        argv.update(zip(args[::2], args[1::2]))
        start = time.perf_counter()
        got = main(["integrate", *(f"{k}={v}" for k, v in argv.items())])
        assert time.perf_counter() - start < 1.0
        assert (got, capsys.readouterr().err) == (code, line + "\n")

    @pytest.mark.parametrize("unbuffered", [True, False])
    def test_closed_stdout_is_141_without_traceback(self, unbuffered):
        env = dict(os.environ)
        env.pop("QUINTIQ_PRECISION", None)
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader is gone before the first write
        try:
            r = subprocess.run(
                [sys.executable, "-m", "quintiq", "experiment1", "--precision", "double"],
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
                env=env,
                timeout=300,
            )
        finally:
            os.close(write_end)
        assert r.returncode == 141
        assert r.stderr == ""

    def test_success_is_0(self):
        r = run_cli("integrate", "--fn", "1/x", "--a", "1", "--b", "2", "--eps", "1e-4")
        assert r.returncode == 0


class TestCliCheck:
    def test_check_convex_json(self):
        r = run_cli(
            "check", "--fn", "exp(x)", "--a", "0", "--b", "1", "--output", "json"
        )
        assert r.returncode == 0
        payload = json.loads(r.stdout)
        assert payload["sampled"]["verdict"] == "consistent-with-convex"
        assert payload["sixth_derivative"]["verdict"] == "consistent-with-convex"
        assert payload["sixth_derivative"]["min_divided_difference"] == pytest.approx(1.0)

    def test_check_human(self):
        r = run_cli("check", "--fn=-exp(x)", "--a", "0", "--b", "1")
        assert r.returncode == 0
        assert "consistent-with-concave" in r.stdout

    def test_check_symbolic_unavailable(self):
        # plus(x)^3 runs out of differentiability before order six
        r = run_cli(
            "check", "--fn", "plus(x)^3", "--a", "-1", "--b", "1", "--output", "json"
        )
        assert r.returncode == 0
        payload = json.loads(r.stdout)
        assert payload["sixth_derivative"] is None
        assert "differentiable" in payload["sixth_derivative_note"]

    def test_check_custom_order(self):
        r = run_cli(
            "check", "--fn", "x^2", "--a", "-1", "--b", "1",
            "--order", "1", "--output", "json",
        )
        payload = json.loads(r.stdout)
        assert payload["sampled"]["order"] == 1
        assert payload["sampled"]["verdict"] == "consistent-with-convex"
        assert payload["sixth_derivative"] is None


    @pytest.mark.parametrize("a, b", [("0", "1e-300"), ("1e300", "1.0000001e300")])
    def test_beyond_the_roundoff_range_is_indeterminate(self, a, b, capsys):
        # the tolerance's gap**5 underflows on the first interval and
        # overflows on the second
        code = main(["check", "--fn", "x", "--a", a, "--b", b, "--output", "json"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["sampled"]["verdict"] == "indeterminate"

    def test_witnesses_of_a_narrow_interval_print_in_full(self, capsys):
        # rounded to 6 decimals every point of a tuple would print as 0.0
        argv = ["check", "--fn", "x", "--a", "0", "--b", "1e-300"]
        assert main(argv) == 0
        human = capsys.readouterr().out.splitlines()
        assert main([*argv, "--output", "json"]) == 0
        sampled = json.loads(capsys.readouterr().out)["sampled"]
        assert human[1] == f"  min 0 at {tuple(sampled['witness'])!r}"
        assert human[2] == f"  max 0 at {tuple(sampled['max_witness'])!r}"
        assert human[1].startswith("  min 0 at (0.0, 9.523809523809524e-303, ")

    def test_verify_convexity_beyond_the_roundoff_range_keeps_the_integral(self, capsys):
        code = main([
            "integrate", "--fn", "x", "--a", "0", "--b", "1e-300", "--verify-convexity",
            "--output", "json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_final"] == 1
        assert payload["convexity"]["verdict"] == "indeterminate"

    def test_interval_too_narrow_to_sample_is_2(self, capsys):
        code = main(["check", "--fn", "x", "--a", "1e-320", "--b", "2e-320"])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: the interval [1e-320, 2e-320] is too narrow to sample "
            "7 distinct points in double\n"
        )


class TestCliExperiments:
    def test_experiment1_csv_golden_double(self):
        r = run_cli("experiment1", "--precision", "double", "--output", "csv")
        assert r.returncode == 0
        assert r.stdout == EXPECTED_EXP1_DOUBLE_CSV
        assert "\r" not in r.stdout

    def test_experiment1_csv_byte_stable(self):
        r1 = run_cli("experiment1", "--precision", "double", "--output", "csv")
        r2 = run_cli("experiment1", "--precision", "double", "--output", "csv")
        assert r1.stdout == r2.stdout

    def test_experiment2_csv_header_and_rows_double(self):
        r = run_cli("experiment2", "--precision", "double", "--output", "csv")
        lines = r.stdout.splitlines()
        assert lines[0] == "b,n_quintic,n_cubic"
        assert lines[1] == "1,2,12"
        assert lines[10] == "10,93,1244"

    def test_experiment_json(self):
        r = run_cli("experiment1", "--precision", "double", "--output", "json")
        payload = json.loads(r.stdout)
        assert payload["precision"] == "double"
        assert payload["rows"][7] == {"epsilon": "1e-8", "n_quintic": 4, "n_cubic": 16}
        assert payload["rows"][15]["n_quintic"] is None

    def test_experiment_human_table(self):
        r = run_cli("experiment1", "--precision", "double")
        assert "epsilon" in r.stdout.splitlines()[0]
        assert any("1e-8" in line and "4" in line for line in r.stdout.splitlines())


# Exact stdout of requests whose text involves no libm call, or only
# integers: every byte of the human and csv layouts is pinned.
GOLDEN_STDOUT = {
    ("integrate", "--fn", "1/x", "--a", "1", "--b", "2"): (
        "method      quintic\n"
        "precision   double\n"
        "value       0.6931471750893962\n"
        "n           4\n"
        "gap         3.070839271757109e-08\n"
        "epsilon     1e-8\n"
        "evaluations 64\n"
    ),
    ("integrate", "--fn", "1/x", "--a", "1", "--b", "2", "--output", "csv"): (
        "value,n_final,gap_final,epsilon,evaluations,method,precision\n"
        "0.6931471750893962,4,3.070839271757109e-08,1e-8,64,quintic,double\n"
    ),
    ("check", "--fn", "1/x", "--a", "1", "--b", "2"): (
        "sampled order-5 divided differences (200 tuples): consistent-with-convex\n"
        "  min 0.00864581 at (1.942857, 1.952381, 1.961905, 1.971429, 1.980952, 1.990476, 2.0)\n"
        "  max 0.822017 at (1.0, 1.009524, 1.019048, 1.028571, 1.038095, 1.047619, 1.057143)\n"
        "sixth derivative on a 1025-point grid: consistent-with-convex\n"
        "  min 5.625 at x = 2, max 720 at x = 1\n"
    ),
    ("check", "--fn", "1/x", "--a", "1", "--b", "2", "--output", "csv"): (
        "check,order,samples,verdict,min,max\n"
        "sampled,5,200,consistent-with-convex,0.008645806304743662,0.8220167773087553\n"
        "sixth-derivative,5,1025,consistent-with-convex,5.625,720.0\n"
    ),
    ("check", "--fn", "plus(x)^3", "--a", "-1", "--b", "1"): (
        "sampled order-5 divided differences (200 tuples): violated\n"
        "  min -552.686 at (-0.066667, -0.047619, -0.028571, -0.009524, 0.009524, 0.028571, 0.047619)\n"
        "  max 527.563 at (-0.085714, -0.066667, -0.047619, -0.028571, -0.009524, 0.009524, 0.028571)\n"
        "sixth derivative: unavailable "
        "(plus(...)^1 is not differentiable (integer exponent >= 2 required))\n"
    ),
    ("experiment1", "--precision", "double"): (
        "epsilon  n_quintic  n_cubic\n"
        "1e-1             1        1\n"
        "1e-2             1        1\n"
        "1e-3             1        1\n"
        "1e-4             1        2\n"
        "1e-5             2        3\n"
        "1e-6             2        5\n"
        "1e-7             3        9\n"
        "1e-8             4       16\n"
        "1e-9             6       28\n"
        "1e-10            9       50\n"
        "1e-11           13       89\n"
        "1e-12           19      158\n"
        "1e-13           27      280\n"
        f"1e-14    {SKIP_MARKER}  {SKIP_MARKER}\n"
        f"1e-15    {SKIP_MARKER}  {SKIP_MARKER}\n"
        f"1e-16    {SKIP_MARKER}  {SKIP_MARKER}\n"
    ),
    ("experiment2", "--precision", "double"): (
        "b   n_quintic  n_cubic\n"
        "1           2       12\n"
        "2           5       33\n"
        "3           9       64\n"
        "4          14      111\n"
        "5          21      178\n"
        "6          29      275\n"
        "7          40      412\n"
        "8          54      604\n"
        "9          71      872\n"
        "10         93     1244\n"
    ),
}


@pytest.mark.parametrize("argv", list(GOLDEN_STDOUT), ids=" ".join)
def test_cli_stdout_is_golden(argv, capsys, monkeypatch):
    monkeypatch.delenv("QUINTIQ_PRECISION", raising=False)
    assert main(list(argv)) == 0
    captured = capsys.readouterr()
    assert captured.out == GOLDEN_STDOUT[argv]
    assert captured.err == ""


def test_check_json_of_the_corpus_is_pinned(capsys, monkeypatch):
    # sha256 over check --output json of every corpus function in each backend
    monkeypatch.delenv("QUINTIQ_PRECISION", raising=False)
    h = hashlib.sha256()
    for precision in ("double", "dd", "mp:30"):
        for fn in corpus_mod.CORPUS:
            assert main([
                "check", f"--fn={fn.text}", f"--a={fn.a}", f"--b={fn.b}",
                "--precision", precision, "--output", "json",
            ]) == 0
            h.update(capsys.readouterr().out.encode())
    assert h.hexdigest() == "db9b1db73f9841d44a37636568b84f2131b52b9db2739bec0cd76f7d4c8a56d0"


def test_one_process_answers_as_fresh_interpreters(capsys, monkeypatch):
    # the argument parser is built once per process and reused by each request
    monkeypatch.delenv("QUINTIQ_PRECISION", raising=False)
    monkeypatch.setenv("COLUMNS", "80")  # the usage text wraps at the terminal width
    fn = ["--fn", "1/x", "--a", "1", "--b", "2"]
    requests = [
        ["integrate", *fn, "--verify-convexity"],
        ["integrate", *fn],
        ["integrate", "--fn", "1/x", "--a", "1"],  # a usage error: --b is missing
        ["check", *fn, "--grid", "8"],
        ["check", *fn],
    ]
    for argv in requests:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        fresh = run_cli(*argv)
        assert (captured.out, captured.err, code) == (fresh.stdout, fresh.stderr, fresh.returncode)
    assert _build_parser() is _build_parser()
