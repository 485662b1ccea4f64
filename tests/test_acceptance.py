"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  The experiment fixtures are session-scoped, so their wall time is
measured on the actual dd computation, once.
"""
import math
import random
from contextlib import contextmanager
from fractions import Fraction

import pytest

from quintiq.adaptive import SearchStrategy, integrate_adaptive
from quintiq.composite import composite_pair, min_n_for_bound
from quintiq.expr import differentiate, evaluate, parse
from quintiq.rules import Interval, RuleId
from quintiq.scalars import DOUBLE, DOUBLE_DOUBLE

import corpus as corpus_mod
from support import (
    EXP_MINUS_1,
    PAPER_EXP1_CUBIC,
    PAPER_EXP1_QUINTIC,
    PAPER_EXP2_CUBIC,
    PAPER_EXP2_QUINTIC,
    apply_rule,
    blend_q,
    exact_integral_poly,
)

DD = DOUBLE_DOUBLE
DOUBLING = SearchStrategy.DOUBLING_BISECT


@contextmanager
def criterion(num: int, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} FAIL - {description}")
        raise
    print(f"ACCEPTANCE {num:02d} PASS - {description}")


def test_criterion_1_experiment1_quintic(exp1_dd):
    rows, elapsed = exp1_dd
    with criterion(1, f"experiment 1 quintic table, 16/16 exact ({elapsed:.1f}s)"):
        assert [r.label for r in rows] == [f"1e-{k}" for k in range(1, 17)]
        assert [r.n_quintic for r in rows] == PAPER_EXP1_QUINTIC
        assert elapsed < 10.0


def test_criterion_2_experiment1_cubic_baseline(exp1_dd):
    rows, _elapsed = exp1_dd
    with criterion(2, "experiment 1 cubic baseline table, 16/16 exact"):
        assert [r.n_cubic for r in rows] == PAPER_EXP1_CUBIC


def test_criterion_3_experiment2(exp2_dd):
    rows, elapsed = exp2_dd
    with criterion(3, f"experiment 2 table, 10/10 rows both methods ({elapsed:.1f}s)"):
        assert [r.label for r in rows] == [str(b) for b in range(1, 11)]
        assert [r.n_quintic for r in rows] == PAPER_EXP2_QUINTIC
        assert [r.n_cubic for r in rows] == PAPER_EXP2_CUBIC
        assert elapsed < 10.0


def _guarantee_cases():
    one = DD.const(1)
    cases = [("1/x on [1,2]", lambda x: one / x, "1", "2", DD.const(corpus_mod.CORPUS[0].integral))]
    for b in range(1, 11):
        cases.append((f"exp on [0,{b}]", DD.exp, "0", str(b), DD.const(EXP_MINUS_1[b])))
    for fn in (corpus_mod.CORPUS[6], corpus_mod.CORPUS[7]):  # the plus-power pair
        cases.append(
            (fn.name, corpus_mod.integrand(fn, DD), fn.a, fn.b, DD.const(fn.integral))
        )
    for fn in (corpus_mod.CORPUS[3], corpus_mod.CORPUS[11]):  # x^6, x^8
        cases.append(
            (fn.name, corpus_mod.integrand(fn, DD), fn.a, fn.b, DD.const(fn.integral))
        )
    quintic = corpus_mod.integrand(corpus_mod.CORPUS[5], DD)  # x^7 on [0,2]
    cases.append(("x^7 on [0,2]", quintic, "0", "2", DD.const(Fraction(32))))
    return cases


def test_criterion_4_error_guarantee_dd():
    checked = 0
    with criterion(4, "dd guarantee |value - integral| <= eps down to 1e-12"):
        for name, f, a, b, ref in _guarantee_cases():
            iv = Interval(DD.const(a), DD.const(b))
            for k in range(1, 13):
                eps = Fraction(1, 10**k)
                result = integrate_adaptive(f, iv, eps, DOUBLING, ctx=DD)
                assert abs(result.value - ref) <= DD.const(eps), (name, k)
                checked += 1
        assert checked == 16 * 12
    print(f"    ({checked} integrations checked)")


def test_criterion_5_counterexample_pair():
    with criterion(5, "blend counterexample pair straddles its integrals"):
        iv = Interval(DD.const(-1), DD.const(1))
        f = corpus_mod.integrand(corpus_mod.CORPUS[6], DD)  # plus(x-0.6)^7
        g = corpus_mod.integrand(corpus_mod.CORPUS[7], DD)  # plus(x-0.7)^7
        q_f = blend_q(
            apply_rule(RuleId.GAUSS3, f, iv, DD), apply_rule(RuleId.LOBATTO4, f, iv, DD)
        )
        q_g = blend_q(
            apply_rule(RuleId.GAUSS3, g, iv, DD), apply_rule(RuleId.LOBATTO4, g, iv, DD)
        )
        # two displayed significant figures
        assert abs(float(q_f) - 7.0e-5) <= 0.05e-5
        assert abs(float(q_g) - 9.1e-6) <= 0.05e-6
        int_f = DD.const(Fraction(32, 390625))  # 8.192e-5
        int_g = DD.const(Fraction(6561, 800000000))  # 8.20125e-6
        assert int_f > q_f  # integral of f exceeds its blend
        assert int_g < q_g  # integral of g falls below its blend


def test_criterion_6_theorem_property_suite():
    with criterion(6, "12-function corpus, n = 1..32: quarter-gap bound and sandwich"):
        assert len(corpus_mod.CORPUS) == 12
        violations = 0
        for fn in corpus_mod.CORPUS:
            f = corpus_mod.integrand(fn, DD)
            iv = corpus_mod.interval(fn, DD)
            ref = corpus_mod.integral_ref(fn, DD)
            scale = max(1.0, abs(float(ref)))
            slack = DD.const(repr(1e-25 * scale))
            for n in range(1, 33):
                pair = composite_pair(f, iv, n, DD)
                gap = abs(pair.l_n - pair.g_n)
                if not abs(ref - pair.q_n) <= gap / 4 + slack:
                    violations += 1
                if fn.side > 0:
                    assert pair.g_n <= ref + slack, (fn.name, n)
                    assert ref <= (pair.g_n + pair.l_n) / 2 + slack, (fn.name, n)
        assert violations == 0


def test_criterion_7_polynomial_exactness():
    rng = random.Random(20240601)

    def random_case(max_degree):
        # reject ill-conditioned cases: relative error is meaningless when
        # the integral nearly cancels against the term magnitudes
        while True:
            degree = rng.randint(0, max_degree)
            coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(degree + 1)]
            a = Fraction(rng.randint(-32, 24), 8)
            b = a + Fraction(rng.randint(2, 48), 8)
            exact = exact_integral_poly(coeffs, a, b)
            peak = max(abs(a), abs(b))
            magnitude = sum(abs(c) * peak**j for j, c in enumerate(coeffs)) * (b - a)
            if magnitude > 0 and abs(exact) >= magnitude / 50:
                return coeffs, a, b, exact

    def poly(coeffs):
        cs = [float(c) for c in coeffs]

        def f(x):
            total = 0.0
            for c in reversed(cs):
                total = total * x + c
            return total

        return f

    with criterion(7, "1000 random polynomials: quintic rules to 1e-13, cubic rules to degree 3"):
        for _ in range(1000):
            coeffs, a, b, exact = random_case(5)
            iv = Interval(float(a), float(b))
            f = poly(coeffs)
            for rule_id in (RuleId.GAUSS3, RuleId.LOBATTO4):
                rel = abs(apply_rule(rule_id, f, iv) - float(exact)) / abs(float(exact))
                assert rel <= 1e-13, (rule_id, coeffs, a, b)
        for _ in range(1000):
            coeffs, a, b, exact = random_case(3)
            iv = Interval(float(a), float(b))
            f = poly(coeffs)
            for rule_id in (RuleId.SIMPSON, RuleId.CHEBYSHEV3):
                rel = abs(apply_rule(rule_id, f, iv) - float(exact)) / abs(float(exact))
                assert rel <= 1e-13, (rule_id, coeffs, a, b)
        # constructed degree-4 witness: both cubic-order rules miss x^4 badly
        iv = Interval(-1.0, 1.0)
        quartic = lambda x: x**4
        assert abs(apply_rule(RuleId.CHEBYSHEV3, quartic, iv) - 0.4) > 0.01
        assert abs(apply_rule(RuleId.SIMPSON, quartic, iv) - 0.4) > 0.01


def test_criterion_8_convergence_order():
    with criterion(8, "empirical order on exp over [0,2] between n=4 and n=8 in [5.5, 6.5]"):
        integral = float(EXP_MINUS_1[2])
        iv = Interval(0.0, 2.0)
        pair4 = composite_pair(DOUBLE.exp, iv, 4)
        pair8 = composite_pair(DOUBLE.exp, iv, 8)
        for attr in ("g_n", "l_n"):
            e4 = abs(getattr(pair4, attr) - integral)
            e8 = abs(getattr(pair8, attr) - integral)
            order = math.log2(e4 / e8)
            assert 5.5 <= order <= 6.5, (attr, order)


def test_criterion_9_apriori_vs_adaptive():
    with criterion(9, "a-priori bound demands n=6 where the adaptive run stops at n=4"):
        n_bound = min_n_for_bound(RuleId.GAUSS3, Interval(1.0, 2.0), 720.0, "1e-8")
        one = DOUBLE.const(1)
        result = integrate_adaptive(lambda x: one / x, Interval(1.0, 2.0), "1e-8")
        assert n_bound == 6
        assert result.n_final == 4
        assert result.n_final < n_bound


def test_criterion_10_parser_and_derivative_suite():
    with criterion(10, "grammar precedence, symbolic sixth derivative, finite differences"):
        assert evaluate(parse("1+2*3^2"), 0.0) == 19.0
        assert evaluate(parse("-2^2"), 0.0) == -4.0
        assert evaluate(parse("2^3^2"), 0.0) == 512.0
        assert evaluate(parse("-x^2"), 3.0) == -9.0

        d6 = parse("1/x")
        for _ in range(6):
            d6 = differentiate(d6)
        assert evaluate(d6, 1.0) == pytest.approx(720.0, rel=1e-12)

        rng = random.Random(77)
        for fn in corpus_mod.CORPUS:
            node = parse(fn.text)
            d = differentiate(node)
            a, b = float(Fraction(fn.a)), float(Fraction(fn.b))
            margin = 0.05 * (b - a)
            checked = 0
            while checked < 20:
                xv = rng.uniform(a + margin, b - margin)
                if fn.kink is not None and abs(xv - fn.kink) < 0.05:
                    continue
                h = 1e-5 * max(1.0, abs(xv))
                fd = (evaluate(node, xv + h) - evaluate(node, xv - h)) / (2 * h)
                assert evaluate(d, xv) == pytest.approx(fd, rel=1e-6, abs=1e-7), fn.name
                checked += 1
