import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quintiq.rules import (
    IntegrandError,
    Interval,
    RuleId,
    rule_table,
)
from quintiq.scalars import DOUBLE, DOUBLE_DOUBLE, MPFloatContext, mp_context

import corpus as corpus_mod
from support import (
    G_1X_12,
    L_1X_12,
    apply_rule,
    blend_q,
    dd_to_mpf,
    exact_integral_poly,
    exact_rule_poly,
    rel_err,
)

ALL_RULES = list(RuleId)
CONTEXTS = [DOUBLE, DOUBLE_DOUBLE, mp_context(40)]


def _poly_integrand(coeffs, ctx):
    cs = [ctx.const(c) for c in coeffs]

    def f(x):
        total = ctx.const(0)
        for c in reversed(cs):
            total = total * x + c
        return total

    return f


class TestRuleTables:
    @pytest.mark.parametrize("ctx", CONTEXTS, ids=lambda c: c.name)
    @pytest.mark.parametrize("rule_id", ALL_RULES)
    def test_weights_sum_to_two(self, rule_id, ctx):
        points = rule_table(rule_id, ctx)
        total = None
        for _, w in points:
            total = w if total is None else total + w
        assert abs(float(total - 2)) <= 4 * ctx.eps

    @pytest.mark.parametrize("ctx", CONTEXTS, ids=lambda c: c.name)
    @pytest.mark.parametrize("rule_id", ALL_RULES)
    def test_nodes_ascending_and_symmetric(self, rule_id, ctx):
        points = rule_table(rule_id, ctx)
        nodes = [n for n, _ in points]
        weights = [w for _, w in points]
        for i in range(len(nodes) - 1):
            assert nodes[i] < nodes[i + 1]
        for i in range(len(nodes)):
            assert nodes[i] == -nodes[len(nodes) - 1 - i]
            assert weights[i] == weights[len(weights) - 1 - i]

    def test_gauss3_canonical_values(self):
        points = rule_table(RuleId.GAUSS3)
        assert points[1] == (0.0, pytest.approx(8 / 9, rel=1e-16))
        assert points[0][0] == pytest.approx(-math.sqrt(3 / 5), rel=1e-15)
        assert points[0][1] == pytest.approx(5 / 9, rel=1e-16)

    def test_lobatto4_canonical_values(self):
        points = rule_table(RuleId.LOBATTO4)
        assert points[0][0] == -1.0 and points[-1][0] == 1.0
        assert points[0][1] == pytest.approx(1 / 6, rel=1e-16)
        assert points[1][0] == pytest.approx(-1 / math.sqrt(5), rel=1e-15)
        assert points[1][1] == pytest.approx(5 / 6, rel=1e-16)

    def test_chebyshev3_canonical_values(self):
        points = rule_table(RuleId.CHEBYSHEV3)
        assert [w for _, w in points] == [pytest.approx(2 / 3, rel=1e-16)] * 3
        assert points[0][0] == pytest.approx(-math.sqrt(2) / 2, rel=1e-15)
        assert points[1][0] == 0.0

    def test_simpson_canonical_values(self):
        points = rule_table(RuleId.SIMPSON)
        assert [float(n) for n, _ in points] == [-1.0, 0.0, 1.0]
        assert points[1][1] == pytest.approx(4 / 3, rel=1e-16)

    def test_nodes_derived_in_context_precision(self):
        # dd nodes must carry ~31 digits, not a double-rounded literal
        node = rule_table(RuleId.GAUSS3, DOUBLE_DOUBLE)[2][0]
        ref = mpmath.sqrt(mpmath.mpf(3) / 5)
        assert abs(dd_to_mpf(node) - ref) < mpmath.mpf("1e-31")
        assert node.lo != 0.0

    def test_tables_follow_context_precision(self):
        # short-lived contexts of alternating precision can reuse one id();
        # each must still get nodes built at its own precision
        for _ in range(8):
            for digits in (20, 60):
                node = rule_table(RuleId.GAUSS3, MPFloatContext(digits))[0][0]
                with mpmath.workdps(80):
                    err = abs(mpmath.mpf(node) + mpmath.sqrt(mpmath.mpf(3) / 5))
                    assert err < mpmath.mpf(10) ** (2 - digits)


class TestInterval:
    def test_validation(self):
        Interval(1.0, 2.0)
        with pytest.raises(ValueError):
            Interval(2.0, 1.0)
        with pytest.raises(ValueError):
            Interval(1.0, 1.0)
        with pytest.raises(ValueError):
            Interval(0.0, math.inf)

    def test_scalar_endpoints(self):
        iv = Interval(DOUBLE_DOUBLE.const("0.1"), DOUBLE_DOUBLE.const("0.3"))
        assert float(iv.a) == pytest.approx(0.1)


class TestApplyRule:
    @pytest.mark.parametrize("rule_id", ALL_RULES)
    def test_constant_one_integrates_to_length(self, rule_id):
        one = lambda x: 1.0
        v = apply_rule(rule_id, one, Interval(0.0, 1.0))
        assert v == pytest.approx(1.0, rel=4e-16)
        v = apply_rule(rule_id, one, Interval(-2.5, 7.5))
        assert v == pytest.approx(10.0, rel=4e-16)

    def test_reciprocal_values_are_exactly_rational(self):
        # for f = 1/x on [1,2] the symmetric node pairs rationalize
        inv = lambda x: 1.0 / x
        g = apply_rule(RuleId.GAUSS3, inv, Interval(1.0, 2.0))
        l = apply_rule(RuleId.LOBATTO4, inv, Interval(1.0, 2.0))
        assert rel_err(g, G_1X_12) < 4e-16
        assert rel_err(l, L_1X_12) < 4e-16
        assert g < math.log(2) < l  # the sandwich at n = 1

    def test_reciprocal_values_dd(self):
        one = DOUBLE_DOUBLE.const(1)
        inv = lambda x: one / x
        iv = Interval(DOUBLE_DOUBLE.const(1), DOUBLE_DOUBLE.const(2))
        g = apply_rule(RuleId.GAUSS3, inv, iv, DOUBLE_DOUBLE)
        l = apply_rule(RuleId.LOBATTO4, inv, iv, DOUBLE_DOUBLE)
        assert abs(dd_to_mpf(g) - mpmath.mpf(131) / 189) < mpmath.mpf("1e-30")
        assert abs(dd_to_mpf(l) - mpmath.mpf(61) / 88) < mpmath.mpf("1e-30")

    def test_x6_values(self):
        f = lambda x: x**6
        iv = Interval(-1.0, 1.0)
        assert rel_err(apply_rule(RuleId.GAUSS3, f, iv), Fraction(6, 25)) < 1e-15
        assert rel_err(apply_rule(RuleId.LOBATTO4, f, iv), Fraction(26, 75)) < 1e-15

    @pytest.mark.parametrize("degree", range(6))
    def test_degree5_exactness_gauss_lobatto(self, degree):
        rng = random.Random(degree)
        for _ in range(25):
            coeffs = [Fraction(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(degree + 1)]
            a = Fraction(rng.randint(-40, 20), 8)
            b = a + Fraction(rng.randint(1, 40), 8)
            exact = exact_integral_poly(coeffs, a, b)
            f = _poly_integrand(coeffs, DOUBLE)
            iv = Interval(float(a), float(b))
            for rule_id in (RuleId.GAUSS3, RuleId.LOBATTO4):
                v = apply_rule(rule_id, f, iv)
                scale = max(abs(float(exact)), 1.0)
                assert abs(v - float(exact)) <= 8 * DOUBLE.eps * scale * 4

    @pytest.mark.parametrize("degree", range(4))
    def test_degree3_exactness_simpson_chebyshev(self, degree):
        rng = random.Random(100 + degree)
        for _ in range(25):
            coeffs = [Fraction(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(degree + 1)]
            a = Fraction(rng.randint(-40, 20), 8)
            b = a + Fraction(rng.randint(1, 40), 8)
            exact = exact_integral_poly(coeffs, a, b)
            f = _poly_integrand(coeffs, DOUBLE)
            iv = Interval(float(a), float(b))
            for rule_id in (RuleId.SIMPSON, RuleId.CHEBYSHEV3):
                v = apply_rule(rule_id, f, iv)
                scale = max(abs(float(exact)), 1.0)
                assert abs(v - float(exact)) <= 8 * DOUBLE.eps * scale * 4

    def test_degree4_failure_witnesses(self):
        f = lambda x: x**4
        iv = Interval(-1.0, 1.0)
        # exact integral is 2/5; the cubic-order rules miss it badly
        assert apply_rule(RuleId.CHEBYSHEV3, f, iv) == pytest.approx(1 / 3, rel=1e-14)
        assert apply_rule(RuleId.SIMPSON, f, iv) == pytest.approx(2 / 3, rel=1e-14)
        assert rel_err(apply_rule(RuleId.GAUSS3, f, iv), Fraction(2, 5)) < 1e-15
        assert rel_err(apply_rule(RuleId.LOBATTO4, f, iv), Fraction(2, 5)) < 1e-15

    def test_exactness_against_oracle_table(self):
        # spot-check the independent Fraction oracle against apply_rule
        coeffs = [Fraction(1), Fraction(-2), Fraction(0), Fraction(5), Fraction(1, 3)]
        a, b = Fraction(-1, 2), Fraction(7, 4)
        f = _poly_integrand(coeffs, DOUBLE)
        for rule_id, name in [
            (RuleId.GAUSS3, "gauss3"),
            (RuleId.LOBATTO4, "lobatto4"),
            (RuleId.SIMPSON, "simpson"),
            (RuleId.CHEBYSHEV3, "chebyshev3"),
        ]:
            got = apply_rule(rule_id, f, Interval(float(a), float(b)))
            want = exact_rule_poly(name, coeffs, a, b)
            assert rel_err(got, want) < 1e-14

    def test_integrand_error_carries_abscissa(self):
        def bad(x):
            if x >= 2.0:
                raise ValueError("boom")
            return x

        with pytest.raises(IntegrandError) as exc_info:
            apply_rule(RuleId.LOBATTO4, bad, Interval(1.0, 2.0))
        assert exc_info.value.abscissa == 2.0


class TestAffineInvariance:
    @pytest.mark.parametrize(
        "a,b", [(1.0, 2.0), (0.0, 3.0), (-1.0, 1.0), (0.5, 2.5), (-4.0, -2.0)]
    )
    @pytest.mark.parametrize("rule_id", ALL_RULES)
    def test_friendly_intervals_all_rules(self, rule_id, a, b):
        f = lambda x: 1.0 / (x + 5.0)
        h = (b - a) / 2
        m = (a + b) / 2
        g = lambda t: f(m + h * t)
        direct = apply_rule(rule_id, f, Interval(a, b))
        pulled = h * apply_rule(rule_id, g, Interval(-1.0, 1.0))
        assert abs(direct - pulled) <= 4 * DOUBLE.eps * abs(direct)

    @given(
        st.floats(min_value=-50.0, max_value=50.0),
        st.floats(min_value=0.01, max_value=60.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_open_rules_any_interval_exact(self, a, width):
        b = a + width
        f = lambda x: math.exp(x / 25.0)
        h = (b - a) / 2
        m = (a + b) / 2
        g = lambda t: f(m + h * t)
        for rule_id in (RuleId.GAUSS3, RuleId.CHEBYSHEV3):
            direct = apply_rule(rule_id, f, Interval(a, b))
            pulled = h * apply_rule(rule_id, g, Interval(-1.0, 1.0))
            assert direct == pulled  # identical abscissae, identical sums


class TestSandwichAndBlend:
    def test_blend_q_trivial_and_arithmetic(self):
        assert blend_q(0.0, 0.0) == 0.0
        assert blend_q(0.24, float(Fraction(26, 75))) == pytest.approx(
            float(Fraction(4, 15)), rel=1e-15
        )
        x = DOUBLE_DOUBLE.const("0.24")
        y = DOUBLE_DOUBLE.const(Fraction(26, 75))
        assert abs(float(blend_q(x, y) - DOUBLE_DOUBLE.const(Fraction(4, 15)))) < 1e-30

    @pytest.mark.parametrize("fn", corpus_mod.CONVEX_CORPUS, ids=lambda f: f.name)
    def test_sandwich_and_quarter_gap_on_subintervals(self, fn):
        f = corpus_mod.integrand(fn, DOUBLE)
        a, b = float(Fraction(fn.a)), float(Fraction(fn.b))
        pieces = 4
        for k in range(pieces):
            lo = a + k * (b - a) / pieces
            hi = a + (k + 1) * (b - a) / pieces
            integral = float(corpus_mod.subinterval_integral(fn, lo, hi))
            g = apply_rule(RuleId.GAUSS3, f, Interval(lo, hi))
            l = apply_rule(RuleId.LOBATTO4, f, Interval(lo, hi))
            q = blend_q(g, l)
            slack = 32 * DOUBLE.eps * max(abs(g), abs(l), 1e-6)
            assert g - slack <= integral <= (g + l) / 2 + slack, (fn.name, lo, hi)
            assert abs(integral - q) <= (l - g) / 4 + slack, (fn.name, lo, hi)

    def test_no_fixed_relation_between_integral_and_blend(self):
        iv = Interval(-1.0, 1.0)
        f = corpus_mod.integrand(corpus_mod.CORPUS[6], DOUBLE)  # plus(x-0.6)^7
        g = corpus_mod.integrand(corpus_mod.CORPUS[7], DOUBLE)  # plus(x-0.7)^7
        q_f = blend_q(
            apply_rule(RuleId.GAUSS3, f, iv), apply_rule(RuleId.LOBATTO4, f, iv)
        )
        q_g = blend_q(
            apply_rule(RuleId.GAUSS3, g, iv), apply_rule(RuleId.LOBATTO4, g, iv)
        )
        assert float(Fraction(32, 390625)) > q_f  # integral above the blend
        assert float(Fraction(6561, 800000000)) < q_g  # integral below the blend
        assert q_f == pytest.approx(7.0e-5, abs=0.05e-5)
        assert q_g == pytest.approx(9.1e-6, abs=0.05e-6)
