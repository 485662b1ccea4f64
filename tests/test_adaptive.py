import logging
import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quintiq.adaptive import (
    BudgetExceeded,
    GapProbe,
    Method,
    NonFiniteGap,
    SearchStrategy,
    integrate_adaptive,
    integrate_adaptive_cubic,
    _search_doubling,
)
from quintiq.composite import CUBIC_PAIR, QUINTIC_PAIR
from quintiq.expr import as_integrand, parse
from quintiq.rules import Interval
from quintiq.scalars import DOUBLE, DOUBLE_DOUBLE, mp_context

import corpus as corpus_mod
from support import GAP_1X_N1, GAP_1X_N4, REFERENCE_DPS, convex_integrands, dd_to_mpf

LINEAR = SearchStrategy.LINEAR_MINIMAL
DOUBLING = SearchStrategy.DOUBLING_BISECT

logger = logging.getLogger(__name__)


def _inv(ctx):
    one = ctx.const(1)
    return lambda x: one / x


class TestPaperRows:
    def test_reciprocal_eps_1e8_needs_four(self):
        r = integrate_adaptive(_inv(DOUBLE), Interval(1.0, 2.0), "1e-8")
        assert r.n_final == 4
        assert abs(r.value - math.log(2)) <= 1e-8
        assert r.method is Method.QUINTIC

    def test_reciprocal_eps_1e1_needs_one(self):
        r = integrate_adaptive(_inv(DOUBLE), Interval(1.0, 2.0), "1e-1")
        assert r.n_final == 1

    def test_exp_to_ten_needs_93(self):
        r = integrate_adaptive(DOUBLE.exp, Interval(0.0, 10.0), "1e-8")
        assert r.n_final == 93
        assert abs(r.value - (math.exp(10.0) - 1.0)) <= 1e-8 * 1.01

    def test_cubic_reciprocal_eps_1e8_needs_16(self):
        r = integrate_adaptive_cubic(_inv(DOUBLE), Interval(1.0, 2.0), "1e-8")
        assert r.n_final == 16
        assert r.method is Method.CUBIC
        assert abs(r.value - math.log(2)) <= 1e-8

    def test_cubic_exp_to_one_needs_12(self):
        r = integrate_adaptive_cubic(DOUBLE.exp, Interval(0.0, 1.0), "1e-8")
        assert r.n_final == 12
        assert abs(r.value - (math.exp(1.0) - 1.0)) <= 1e-8


class TestTrivialPolynomials:
    def test_degree5_polynomial_stops_at_one(self):
        f = lambda x: ((x - 1.0) * x + 0.5) * x**3
        r = integrate_adaptive(f, Interval(0.0, 3.0), "1e-12")
        assert r.n_final == 1
        assert float(r.gap_final) <= 64 * DOUBLE.eps * 3**6

    def test_degree3_polynomial_cubic_stops_at_one(self):
        f = lambda x: x**3 - 2.0 * x
        r = integrate_adaptive_cubic(f, Interval(0.0, 1.0), "1e-12")
        assert r.n_final == 1

    def test_quartic_not_trivial_for_cubic(self):
        r = integrate_adaptive_cubic(lambda x: x**4, Interval(-1.0, 1.0), "1e-6")
        assert r.n_final > 1


class TestStoppingGap:
    def test_n1_reciprocal_gap(self):
        gap = GapProbe(_inv(DOUBLE), Interval(1.0, 2.0)).gap(1)
        assert gap == pytest.approx(float(GAP_1X_N1), rel=1e-12)

    def test_n1_reciprocal_gap_dd(self):
        iv = Interval(DOUBLE_DOUBLE.const(1), DOUBLE_DOUBLE.const(2))
        gap = GapProbe(_inv(DOUBLE_DOUBLE), iv, DOUBLE_DOUBLE).gap(1)
        assert abs(dd_to_mpf(gap) - mpmath.mpf(1) / 16632) < mpmath.mpf("1e-30")

    def test_degree5_gap_is_roundoff(self):
        gap = GapProbe(lambda x: x**5, Interval(0.0, 3.0)).gap(7)
        assert abs(gap) <= 64 * DOUBLE.eps * 3**5

    def test_n4_gap_brackets_paper_rows(self):
        gap = GapProbe(_inv(DOUBLE), Interval(1.0, 2.0)).gap(4)
        assert 4e-9 < gap <= 4e-8
        assert gap == pytest.approx(float(GAP_1X_N4), rel=1e-10)


class TestResultInvariants:
    @pytest.mark.parametrize("eps", ["1e-4", "1e-7"])
    @pytest.mark.parametrize("fn", corpus_mod.CORPUS, ids=lambda f: f.name)
    def test_linear_history_and_minimality(self, fn, eps):
        f = corpus_mod.integrand(fn, DOUBLE)
        iv = corpus_mod.interval(fn, DOUBLE)
        r = integrate_adaptive(f, iv, eps)
        threshold = 4 * float(Fraction(eps))
        assert [n for n, _ in r.history] == list(range(1, r.n_final + 1))
        for n, gap in r.history[:-1]:
            assert float(gap) > threshold
        assert float(r.gap_final) <= threshold
        assert r.history[-1][0] == r.n_final
        assert float(r.gap_final) <= 4 * float(r.epsilon)
        assert abs(float(r.value) - float(corpus_mod.integral_ref(fn, DOUBLE))) <= float(
            Fraction(eps)
        )

    def test_evaluation_count_linear(self):
        r = integrate_adaptive(_inv(DOUBLE), Interval(1.0, 2.0), "1e-8")
        assert r.evaluations == sum(6 * n + 1 for n in range(1, 5))

    def test_value_equals_blend_at_final_n(self):
        from quintiq.composite import composite_pair

        f = corpus_mod.integrand(corpus_mod.CORPUS[0], DOUBLE)
        iv = corpus_mod.interval(corpus_mod.CORPUS[0], DOUBLE)
        r = integrate_adaptive(f, iv, "1e-6")
        pair = composite_pair(f, iv, r.n_final)
        assert r.value == pair.q_n
        assert r.gap_final == abs(pair.l_n - pair.g_n)

    def test_eps_accepts_fraction_and_float(self):
        f = _inv(DOUBLE)
        iv = Interval(1.0, 2.0)
        assert integrate_adaptive(f, iv, Fraction(1, 10**8)).n_final == 4
        assert integrate_adaptive(f, iv, 1e-8).n_final == 4

    def test_rejects_nonpositive_eps(self):
        with pytest.raises(ValueError):
            integrate_adaptive(_inv(DOUBLE), Interval(1.0, 2.0), "0")
        with pytest.raises(ValueError):
            integrate_adaptive(_inv(DOUBLE), Interval(1.0, 2.0), -1e-8)


class TestStrategies:
    @pytest.mark.parametrize("eps", ["1e-6", "1e-10"])
    @pytest.mark.parametrize("fn", corpus_mod.CORPUS, ids=lambda f: f.name)
    def test_doubling_agrees_with_linear_under_monotone_gaps(self, fn, eps):
        f = corpus_mod.integrand(fn, DOUBLE)
        iv = corpus_mod.interval(fn, DOUBLE)
        lin = integrate_adaptive(f, iv, eps, LINEAR)
        dbl = integrate_adaptive(f, iv, eps, DOUBLING)
        gaps = [float(g) for _, g in lin.history]
        monotone = all(gaps[i] >= gaps[i + 1] for i in range(len(gaps) - 1))
        if monotone:
            assert dbl.n_final == lin.n_final, fn.name
        elif dbl.n_final != lin.n_final:
            logger.warning(
                "non-monotone gaps: %s eps=%s linear=%d doubling=%d",
                fn.name, eps, lin.n_final, dbl.n_final,
            )
        assert dbl.history[-1][0] == dbl.n_final
        assert float(dbl.gap_final) <= 4 * float(Fraction(eps))
        # fewer or equal probes in the doubling search at tight tolerances
        if lin.n_final >= 16:
            assert len(dbl.history) < len(lin.history)

    def test_doubling_n1(self):
        r = integrate_adaptive(_inv(DOUBLE), Interval(1.0, 2.0), "1e-1", DOUBLING)
        assert r.n_final == 1
        assert [n for n, _ in r.history] == [1]

    @given(
        fn=st.sampled_from(corpus_mod.CORPUS),
        ctx=st.sampled_from([DOUBLE, DOUBLE_DOUBLE]),
        runner=st.sampled_from([integrate_adaptive, integrate_adaptive_cubic]),
        eps=st.floats(min_value=1e-10, max_value=1e-2),
        n_max=st.integers(min_value=1, max_value=40),
    )
    @settings(max_examples=120, deadline=None)
    def test_doubling_is_minimal_and_agrees_with_linear(self, fn, ctx, runner, eps, n_max):
        f = corpus_mod.integrand(fn, ctx)
        iv = corpus_mod.interval(fn, ctx)
        try:
            lin = runner(f, iv, eps, LINEAR, n_max, ctx)
        except BudgetExceeded:
            with pytest.raises(BudgetExceeded):
                runner(f, iv, eps, DOUBLING, n_max, ctx)
            return
        dbl = runner(f, iv, eps, DOUBLING, n_max, ctx)
        gaps = dict(dbl.history)
        threshold = 4 * ctx.const(eps)
        n = dbl.n_final
        assert gaps[n] <= threshold
        assert n == 1 or gaps[n - 1] > threshold
        assert dbl.history[-1] == (n, dbl.gap_final)
        lin_gaps = [g for _, g in lin.history]
        if all(a >= b for a, b in zip(lin_gaps, lin_gaps[1:])):
            assert n == lin.n_final


class _StubProbe:
    """A GapProbe stand-in whose gap sequence is a plain function of n."""

    def __init__(self, gap, rule_pair=QUINTIC_PAIR):
        self.gap = gap
        self.rule_pair = rule_pair


class TestSearchSafeguards:
    """Gap sequences that defeat the n^-6 model: the probe count must stay
    within a small multiple of bisection's (about 2 log2 n_max)."""

    N_MAX = 10**6

    @pytest.mark.parametrize("k", [1, 2, 17, 12345, 999_999, 10**6])
    @pytest.mark.parametrize(
        "shape",
        [
            lambda k: lambda n: 1e300 if n < k else 0.0,  # model overshoots
            lambda k: lambda n: 1.000001 if n < k else 0.0,  # model creeps by one
            lambda k: lambda n: (k / n) ** 0.05,  # far slower than n^-6
        ],
        ids=["cliff", "plateau", "slow"],
    )
    def test_adversarial_gaps_keep_bisection_cost(self, shape, k):
        n, history = _search_doubling(_StubProbe(shape(k)), 1.0, self.N_MAX, 1)
        assert n == k
        assert history[-1][0] == k
        assert len(history) <= 3 * self.N_MAX.bit_length()

    @pytest.mark.parametrize("k", [2, 17, 12345])
    def test_cliff_never_probes_above_twice_the_answer(self, k):
        # the first gap predicts n ~ 1e50; the ladder doubles n instead of
        # jumping to n_max
        def gap(n):
            return 1e300 if n < k else 0.0

        n, history = _search_doubling(_StubProbe(gap), 1.0, self.N_MAX, 1)
        assert n == k
        assert max(m for m, _ in history) <= 2 * k

    @given(
        rule_pair=st.sampled_from([QUINTIC_PAIR, CUBIC_PAIR]),
        q=st.one_of(st.sampled_from([4.0, 6.0]), st.floats(min_value=0.5, max_value=12.0)),
        c=st.floats(min_value=1e-6, max_value=1e6),
        d=st.floats(min_value=0.0, max_value=100.0),
        log_answer=st.floats(min_value=0.0, max_value=5.0),
        n_max=st.integers(min_value=1, max_value=10**6),
    )
    @settings(max_examples=200, deadline=None)
    def test_gap_laws_reach_the_first_passing_n(self, rule_pair, q, c, d, log_answer, n_max):
        # non-increasing gaps C n^-q (1 + D n^-2), with q equal to the pair's
        # order or not, and thresholds whose answer n* goes up to 10^5
        def gap(n):
            return c * n**-q * (1 + d * n**-2)

        threshold = gap(10**log_answer)
        first = next((m for m in range(1, n_max + 1) if gap(m) <= threshold), None)
        probe = _StubProbe(gap, rule_pair)
        if first is None:
            with pytest.raises(BudgetExceeded):
                _search_doubling(probe, threshold, n_max, threshold / 4)
            return
        n, history = _search_doubling(probe, threshold, n_max, threshold / 4)
        assert n == first
        assert len(history) <= 3 * n_max.bit_length()


def _pass_calls(rule_pair, n):
    """Integrand calls of one composite pass at n."""
    return (6 if rule_pair is QUINTIC_PAIR else 4) * n + 1


class TestSearchCost:
    """The doubling search certifies its answer for little more than the
    two passes that any proof of minimality needs, at n and n - 1."""

    IV = Interval(DOUBLE_DOUBLE.const(1), DOUBLE_DOUBLE.const(2))

    def test_cubic_reciprocal_1e16_dd(self):
        r = integrate_adaptive_cubic(
            _inv(DOUBLE_DOUBLE), self.IV, "1e-16", DOUBLING, ctx=DOUBLE_DOUBLE
        )
        assert r.n_final == 1572
        assert r.evaluations <= 2.25 * _pass_calls(CUBIC_PAIR, r.n_final)

    def test_quintic_reciprocal_1e16_dd(self):
        r = integrate_adaptive(_inv(DOUBLE_DOUBLE), self.IV, "1e-16", DOUBLING, ctx=DOUBLE_DOUBLE)
        assert r.n_final == 84
        assert r.evaluations <= 2.25 * _pass_calls(QUINTIC_PAIR, r.n_final)

    def test_cubic_exp_to_ten_1e8_dd(self):
        # the last row of Experiment 2
        ctx = DOUBLE_DOUBLE
        iv = Interval(ctx.const(0), ctx.const(10))
        r = integrate_adaptive_cubic(ctx.exp, iv, "1e-8", DOUBLING, ctx=ctx)
        assert r.n_final == 1244
        assert r.evaluations <= 2.25 * _pass_calls(CUBIC_PAIR, r.n_final)


class TestDominance:
    @pytest.mark.parametrize("fn", corpus_mod.CORPUS, ids=lambda f: f.name)
    def test_quintic_never_needs_more_subdivisions(self, fn):
        f = corpus_mod.integrand(fn, DOUBLE)
        iv = corpus_mod.interval(fn, DOUBLE)
        quintic = integrate_adaptive(f, iv, "1e-6")
        cubic = integrate_adaptive_cubic(f, iv, "1e-6")
        assert quintic.n_final <= cubic.n_final, fn.name


class TestBudget:
    def test_linear_budget_exceeded(self):
        with pytest.raises(BudgetExceeded) as exc_info:
            integrate_adaptive(_inv(DOUBLE), Interval(1.0, 2.0), "1e-10", LINEAR, n_max=3)
        err = exc_info.value
        assert err.n_max == 3
        assert err.best_n == 3
        assert float(err.best_gap) > 4e-10
        # reports the best (smallest) gap achieved
        assert float(err.best_gap) == pytest.approx(
            float(GapProbe(_inv(DOUBLE), Interval(1.0, 2.0)).gap(3)), rel=1e-12
        )

    def test_doubling_budget_exceeded(self):
        with pytest.raises(BudgetExceeded):
            integrate_adaptive(
                _inv(DOUBLE), Interval(1.0, 2.0), "1e-10", DOUBLING, n_max=3
            )

    def test_budget_keeps_scalars_and_prints_short_decimals(self):
        with pytest.raises(BudgetExceeded) as exc_info:
            integrate_adaptive(
                _inv(DOUBLE_DOUBLE), Interval(1.0, 2.0), "1e-300", DOUBLING, n_max=3,
                ctx=DOUBLE_DOUBLE,
            )
        err = exc_info.value
        assert err.epsilon == DOUBLE_DOUBLE.const("1e-300")
        assert isinstance(err.best_gap, type(err.epsilon))
        gap = float(err.best_gap)
        assert str(err) == (
            f"no n <= 3 reached gap <= 4*eps (eps = 1e-300); best gap {gap:.6g} at n = 3"
        )

    def test_budget_not_hit_when_exact(self):
        r = integrate_adaptive(lambda x: x, Interval(0.0, 1.0), "1e-12", LINEAR, n_max=1)
        assert r.n_final == 1


class TestNonFiniteGap:
    def test_overflowing_integrand_fails_at_the_first_probe(self):
        # x*x overflows to inf on the whole interval, so every gap is nan;
        # the CLI tests cover both strategies and backends
        ctx = DOUBLE_DOUBLE
        iv = Interval(ctx.const("1e200"), ctx.const("2e200"))
        with pytest.raises(NonFiniteGap) as exc_info:
            integrate_adaptive(lambda x: x * x, iv, "1e-8", DOUBLING, ctx=ctx)
        assert exc_info.value.n == 1
        assert isinstance(exc_info.value, ArithmeticError)

    def test_finite_gap_beyond_the_double_range_is_kept(self):
        ctx = mp_context(40)
        big = ctx.const("1e400")
        probe = GapProbe(lambda x: big / x, Interval(ctx.const(1), ctx.const(2)), ctx)
        gap = probe.gap(1)
        assert float(gap) == math.inf  # but finite in mp:40
        assert abs(gap - big / 16632) <= big * ctx.const("1e-35")


# The promise on a generated family of 5-convex and 5-concave integrands with
# exact integrals: every exit-0 answer is within eps.  Each backend draws eps
# where n stays in the hundreds; an answer that the budget refuses is not
# exit 0.  double is not among the legs: its computed gap can read 0 among
# rounding noise, so until its answers are certified one can miss eps.
_PROMISE_LEGS = {
    "dd": (DOUBLE_DOUBLE, ["1e-10", "1e-13", "1e-16"]),
    "mp:40": (mp_context(40), ["1e-10", "1e-12", "1e-14"]),
}


@pytest.mark.parametrize("precision", sorted(_PROMISE_LEGS))
@given(case=convex_integrands(), data=st.data())
@settings(max_examples=10, deadline=None)
def test_every_exit_0_answer_of_the_family_is_within_eps(precision, case, data):
    ctx, tolerances = _PROMISE_LEGS[precision]
    eps = data.draw(st.sampled_from(tolerances), label="eps")
    text, a, b, integral, _side = case
    f = as_integrand(parse(text), ctx)
    try:
        r = integrate_adaptive(f, Interval(ctx.const(a), ctx.const(b)), eps, DOUBLING, 500, ctx)
    except BudgetExceeded:
        return
    with mpmath.workdps(REFERENCE_DPS):
        value = dd_to_mpf(r.value) if ctx is DOUBLE_DOUBLE else mpmath.mpf(r.value)
        assert abs(value - integral) <= mpmath.mpf(eps), (text, a, b, r.n_final)
