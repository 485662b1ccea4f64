import math
import struct
import time
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from quintiq.composite import (
    CUBIC_PAIR,
    QUINTIC_PAIR,
    apriori_bound,
    composite_pair,
    min_n_for_bound,
    partition_points,
)
from quintiq.convexity import estimate_m6
from quintiq.expr import DomainError, as_integrand, parse, to_text
from quintiq.rules import IntegrandError, Interval, RuleId, rule_table
from quintiq.scalars import (
    DOUBLE, DOUBLE_DOUBLE, DoubleDouble, _scale_down, mp_context, short_decimal,
)

import corpus as corpus_mod
from support import (
    EXP_MINUS_1,
    G_1X_12,
    GAP_1X_N3,
    GAP_1X_N4,
    L_1X_12,
    Q_1X_12,
    _pair_ops,
    apply_rule,
    composite_rule,
    reference_partition,
    dd_to_mpf,
    expression_trees,
    reduced_reference_eval,
    rel_err,
)


def _inv(ctx):
    one = ctx.const(1)
    return lambda x: one / x


def _bits(v) -> bytes:
    # bit patterns, so that -0.0 and nan compare as themselves
    if isinstance(v, DoubleDouble):
        return struct.pack("<dd", v.hi, v.lo)
    if isinstance(v, float):
        return struct.pack("<d", v)
    return repr(getattr(v, "_mpf_", v)).encode()  # mpmath's exact (sign, mantissa, exp, bits)


class TestPartition:
    def test_endpoints_exact(self):
        iv = Interval(0.1, 0.9)
        xs = partition_points(iv, 7)
        assert xs[0] == 0.1 and xs[-1] == 0.9
        assert len(xs) == 8

    def test_uniform_spacing(self):
        xs = partition_points(Interval(1.0, 2.0), 4)
        assert xs == [1.0, 1.25, 1.5, 1.75, 2.0]

    def test_n_one(self):
        assert partition_points(Interval(-3.0, 5.0), 1) == [-3.0, 5.0]

    @pytest.mark.parametrize("ctx", [DOUBLE, DOUBLE_DOUBLE], ids=["double", "dd"])
    def test_points_stay_finite_where_k_times_the_width_overflows(self, ctx):
        a, b, n = 5e306, 1.75e307, 31
        xs = partition_points(Interval(ctx.const(a), ctx.const(b)), n, ctx)
        width = ctx.const(b) - ctx.const(a)
        assert math.isfinite(float(14 * width)) and math.isinf(float(15 * width))
        for k, x in enumerate(xs):
            exact = Fraction(a) + k * (Fraction(b) - Fraction(a)) / n
            got = x.as_fraction() if isinstance(x, DoubleDouble) else Fraction(x)
            assert abs(got - exact) <= exact * Fraction(1, 2**50), k
            if 0 < k < 15:
                # a finite k * (b - a) keeps the point's bits
                assert _bits(x) == _bits(ctx.const(a) + (k * width) / n), k


class TestCompositeRule:
    def test_degree5_exact_per_subinterval(self):
        f = lambda x: x**5
        v = composite_rule(RuleId.GAUSS3, f, Interval(0.0, 1.0), 7)
        assert abs(v - 1 / 6) <= 8 * DOUBLE.eps

    def test_n1_is_simple_rule(self):
        iv = Interval(1.0, 2.0)
        f = _inv(DOUBLE)
        assert composite_rule(RuleId.GAUSS3, f, iv, 1) == apply_rule(RuleId.GAUSS3, f, iv)

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            composite_pair(_inv(DOUBLE), Interval(1.0, 2.0), 0)
        with pytest.raises(ValueError):
            composite_rule(RuleId.GAUSS3, _inv(DOUBLE), Interval(1.0, 2.0), 0)

    def test_error_carries_subinterval_index(self):
        def bad(x):
            if x >= 1.5:
                raise ValueError("pole")
            return 1.0

        dd_iv = Interval(DOUBLE_DOUBLE.const(1), DOUBLE_DOUBLE.const(2))
        for run in (
            lambda: composite_pair(bad, Interval(1.0, 2.0), 2),
            lambda: composite_pair(bad, dd_iv, 2, DOUBLE_DOUBLE),
            lambda: composite_pair(bad, dd_iv, 2, DOUBLE_DOUBLE, CUBIC_PAIR),
            lambda: composite_rule(RuleId.LOBATTO4, bad, Interval(1.0, 2.0), 2),
        ):
            with pytest.raises(IntegrandError) as exc_info:
                run()
            assert exc_info.value.subinterval == 1
            assert exc_info.value.abscissa == 1.5

    def test_paper_gap_row_n4(self):
        # at eps = 1e-8 the criterion first holds at n = 4
        iv = Interval(1.0, 2.0)
        f = _inv(DOUBLE)
        gap4 = composite_rule(RuleId.LOBATTO4, f, iv, 4) - composite_rule(
            RuleId.GAUSS3, f, iv, 4
        )
        gap3 = composite_rule(RuleId.LOBATTO4, f, iv, 3) - composite_rule(
            RuleId.GAUSS3, f, iv, 3
        )
        assert gap4 <= 4e-8 < gap3
        assert gap4 == pytest.approx(float(GAP_1X_N4), rel=1e-10)
        assert gap3 == pytest.approx(float(GAP_1X_N3), rel=1e-10)


class TestCompositePair:
    def test_n1_reciprocal_triple_is_rational(self):
        pair = composite_pair(_inv(DOUBLE), Interval(1.0, 2.0), 1)
        assert rel_err(pair.g_n, G_1X_12) < 4e-16
        assert rel_err(pair.l_n, L_1X_12) < 4e-16
        assert rel_err(pair.q_n, Q_1X_12) < 4e-16
        # the blended value sits within a quarter gap of ln 2
        assert abs(pair.q_n - math.log(2)) <= (pair.l_n - pair.g_n) / 4

    def test_n1_reciprocal_triple_dd(self):
        iv = Interval(DOUBLE_DOUBLE.const(1), DOUBLE_DOUBLE.const(2))
        pair = composite_pair(_inv(DOUBLE_DOUBLE), iv, 1, DOUBLE_DOUBLE)
        assert abs(dd_to_mpf(pair.g_n) - mpmath.mpf(131) / 189) < mpmath.mpf("1e-30")
        assert abs(dd_to_mpf(pair.l_n) - mpmath.mpf(61) / 88) < mpmath.mpf("1e-30")
        assert abs(dd_to_mpf(pair.q_n) - mpmath.mpf(15371) / 22176) < mpmath.mpf("1e-30")
        gap = pair.l_n - pair.g_n
        assert abs(dd_to_mpf(gap) - mpmath.mpf(1) / 16632) < mpmath.mpf("1e-30")

    def test_degree5_polynomial_collapses(self):
        f = lambda x: x**5 - 3.0 * x**2 + 0.5
        exact = float(Fraction(1, 6) - 1 + Fraction(1, 2))
        pair = composite_pair(f, Interval(0.0, 1.0), 3)
        for v in (pair.g_n, pair.l_n, pair.q_n):
            assert v == pytest.approx(exact, abs=1e-15)

    def test_x6_triple(self):
        pair = composite_pair(lambda x: x**6, Interval(-1.0, 1.0), 1)
        assert rel_err(pair.g_n, Fraction(6, 25)) < 1e-15
        assert rel_err(pair.l_n, Fraction(26, 75)) < 1e-15
        assert rel_err(pair.q_n, Fraction(4, 15)) < 1e-15

    @pytest.mark.parametrize("n", [1, 3, 7])
    @pytest.mark.parametrize("fn", corpus_mod.CORPUS[:6], ids=lambda f: f.name)
    def test_sharing_matches_composite_rule_bitwise(self, fn, n):
        f = corpus_mod.integrand(fn, DOUBLE)
        iv = corpus_mod.interval(fn, DOUBLE)
        pair = composite_pair(f, iv, n)
        assert _bits(pair.g_n) == _bits(composite_rule(RuleId.GAUSS3, f, iv, n))
        assert _bits(pair.l_n) == _bits(composite_rule(RuleId.LOBATTO4, f, iv, n))
        cpair = composite_pair(f, iv, n, DOUBLE, CUBIC_PAIR)
        assert _bits(cpair.g_n) == _bits(composite_rule(RuleId.CHEBYSHEV3, f, iv, n))
        assert _bits(cpair.l_n) == _bits(composite_rule(RuleId.SIMPSON, f, iv, n))

    @pytest.mark.parametrize("n", [1, 2, 5, 16])
    def test_evaluation_counts(self, n):
        calls = []
        for ctx in (DOUBLE, DOUBLE_DOUBLE):
            iv = Interval(ctx.const(1), ctx.const(2))
            one = ctx.const(1)

            def f(x):
                calls.append(x)
                return one / x

            calls.clear()
            assert composite_pair(f, iv, n, ctx).evaluation_count == 6 * n + 1 == len(calls)
            calls.clear()
            cpair = composite_pair(f, iv, n, ctx, CUBIC_PAIR)
            # Chebyshev's middle node and Simpson's midpoint are one abscissa
            assert cpair.evaluation_count == 4 * n + 1 == len(calls)

    @pytest.mark.parametrize("fn", corpus_mod.CORPUS, ids=lambda f: f.name)
    def test_blend_per_subinterval_equals_blend_of_totals(self, fn):
        f = corpus_mod.integrand(fn, DOUBLE)
        iv = corpus_mod.interval(fn, DOUBLE)
        pair = composite_pair(f, iv, 9)
        blended_totals = (3 * pair.g_n + pair.l_n) / 4
        scale = max(abs(pair.q_n), 1e-300)
        assert abs(pair.q_n - blended_totals) <= 2 * DOUBLE.eps * scale


# -- the double-double pass on float words against the operator path -------


@st.composite
def dd_intervals(draw):
    """[a, b] in dd: negative or positive, magnitudes from 1e-250 to near
    the overflow threshold, widths from 2**-40 to 8 times the magnitude."""
    scale = draw(st.sampled_from([1.0, 1e-3, 1e5, 1e250, 1e-250, 1e307]))
    a_hi = draw(st.floats(-4.0, 4.0)) * scale
    a = DoubleDouble(a_hi, draw(st.floats(-0.5, 0.5)) * math.ulp(a_hi))
    width = draw(st.floats(2.0**-40, 8.0)) * scale
    b = a + DoubleDouble(width, draw(st.floats(-0.5, 0.5)) * math.ulp(width))
    assume(a < b)
    return Interval(a, b)


def _dd_iv(a: float, b: float) -> Interval:
    return Interval(DoubleDouble(a), DoubleDouble(b))


def _words(his):
    """(hi, lo) with hi drawn from his and a tail within half an ulp of it."""
    return his.flatmap(lambda hi: st.floats(-0.5, 0.5).map(lambda r: (hi, r * math.ulp(hi))))


_dd_words = _words(st.floats(allow_nan=False)).map(lambda w: DoubleDouble(*w))
# what an integrand may return: dd values, drawn as their words, floats of
# any kind, and ints that convert exactly
integrand_values = st.one_of(_words(st.floats()), st.floats(), st.integers(-(2**53), 2**53))


@st.composite
def dd_integrands(draw):
    """A drawn integrand spec: its kind, a value table, and a raise modulus
    (0 never raises; otherwise f raises where its abscissa hashes to 0)."""
    kind = draw(st.sampled_from(["table", "square", "reciprocal"]))
    table = draw(st.lists(integrand_values, min_size=1, max_size=8))
    raise_mod = draw(st.one_of(st.just(0), st.integers(1, 400)))
    return kind, tuple(table), raise_mod


def _make_integrand(spec, calls, ctx=DOUBLE_DOUBLE):
    """f of a drawn spec; a drawn word pair is returned as ctx's scalar of
    that DoubleDouble value."""
    kind, table, raise_mod = spec
    one = ctx.const(1)

    def f(x):
        bits = _bits(x)
        calls.append(bits)
        key = int.from_bytes(bits, "little")  # hash(nan) is not repeatable
        if raise_mod and key % raise_mod == 0:
            raise ValueError("drawn pole")
        if kind == "square":
            return x * x
        if kind == "reciprocal":
            return one / x  # raises at x = 0
        value = table[key % len(table)]
        return ctx.const(DoubleDouble(*value)) if isinstance(value, tuple) else value

    return f


def _outcome(run):
    try:
        values = run()
    except IntegrandError as exc:
        return "raised", type(exc.cause), _bits(exc.abscissa), exc.subinterval
    return "returned", [_bits(v) for v in values]


class TestDoubleDoubleKernel:
    @given(
        st.sampled_from([QUINTIC_PAIR, CUBIC_PAIR]),
        st.integers(1, 64),
        dd_intervals(),
        dd_integrands(),
    )
    @settings(max_examples=150, deadline=None)
    @example(QUINTIC_PAIR, 84, _dd_iv(1.0, 2.0), ("reciprocal", (0,), 0))
    @example(CUBIC_PAIR, 1572, _dd_iv(1.0, 2.0), ("reciprocal", (0,), 0))
    @example(QUINTIC_PAIR, 1572, _dd_iv(-1e250, 3e250), ("square", (0,), 0))
    @example(QUINTIC_PAIR, 5, _dd_iv(-1.0, 1.0), ("reciprocal", (0,), 0))  # f(0) raises
    @example(CUBIC_PAIR, 3, _dd_iv(1e250, 2e250), ("square", (0,), 0))
    # b - a overflows, so h is inf and the abscissae overflow too
    @example(QUINTIC_PAIR, 3, _dd_iv(-1.7e308, 1.7e308), ("square", (0,), 0))
    @example(CUBIC_PAIR, 2, _dd_iv(-1.7e308, 1.7e308), ("table", (1,), 0))
    # k * (b - a) overflows from k = 15 on, so those points divide first
    @example(QUINTIC_PAIR, 31, _dd_iv(5e306, 1.75e307), ("reciprocal", (0,), 0))
    @example(QUINTIC_PAIR, 4, _dd_iv(-1.0, 1.0), ("table", (-0.0, (-0.0, -0.0)), 0))
    @example(
        QUINTIC_PAIR, 7, _dd_iv(1.0, 1.0 + 2.0**-40),
        ("table", ((1e308, 0.0), -0.0, math.inf, 3, (5e-324, 0.0), (math.nan, 0.0)), 0),
    )
    def test_kernel_matches_the_operator_path_bitwise(self, rule_pair, n, iv, spec):
        ctx = DOUBLE_DOUBLE
        open_points = rule_table(rule_pair[0], ctx)
        closed_points = rule_table(rule_pair[1], ctx)
        kernel_calls, ops_calls = [], []
        f_kernel = _make_integrand(spec, kernel_calls)
        f_ops = _make_integrand(spec, ops_calls)

        def kernel():
            pair = composite_pair(f_kernel, iv, n, ctx, rule_pair)
            return pair.g_n, pair.l_n, pair.q_n

        got = _outcome(kernel)
        want = _outcome(lambda: _pair_ops(f_ops, iv, n, ctx, open_points, closed_points))
        assert got == want
        # the same abscissae in the same order, one call each: no replay
        assert kernel_calls == ops_calls

    @pytest.mark.parametrize(
        "value",
        [Fraction(1, 3), True, 2**53 + 1, 10**400, mpmath.mpf(2), "text", None],
        ids=["fraction", "bool", "int-beyond-2**53", "int-beyond-float", "mpf", "str", "none"],
    )
    def test_other_return_types_get_the_operator_path_result(self, value):
        ctx = DOUBLE_DOUBLE
        iv = Interval(ctx.const(1), ctx.const(2))
        calls = []

        def f(x):
            calls.append(x)
            return value

        points = rule_table(QUINTIC_PAIR[0], ctx), rule_table(QUINTIC_PAIR[1], ctx)
        try:
            want = _pair_ops(f, iv, 3, ctx, *points)
        except Exception as exc:  # the operators' own error, whatever it is
            with pytest.raises(type(exc)):
                composite_pair(f, iv, 3, ctx)
            return
        calls.clear()
        got = composite_pair(f, iv, 3, ctx)
        assert [_bits(v) for v in (got.g_n, got.l_n, got.q_n)] == [_bits(v) for v in want]
        # one call per abscissa: the pass runs once, as evaluation_count says
        assert len(calls) == got.evaluation_count

    @pytest.mark.parametrize("rule_pair", [QUINTIC_PAIR, CUBIC_PAIR], ids=["quintic", "cubic"])
    @pytest.mark.parametrize(
        "value",
        [Fraction(1, 3), True, 2**53 + 1, 10**400, mpmath.mpf(2), "text", None],
        ids=["fraction", "bool", "int-beyond-2**53", "int-beyond-float", "mpf", "str", "none"],
    )
    def test_opaque_integrands_are_called_as_the_operator_path_calls_them(
        self, value, rule_pair
    ):
        ctx = DOUBLE_DOUBLE
        iv = Interval(ctx.const(1), ctx.const(2))
        points = rule_table(rule_pair[0], ctx), rule_table(rule_pair[1], ctx)
        one = ctx.const(1)
        want = []
        _pair_ops(lambda x: want.append(_bits(x)) or one, iv, 3, ctx, *points)
        calls = []

        def f(x):
            calls.append(_bits(x))
            return value

        try:
            composite_pair(f, iv, 3, ctx, rule_pair)
        except Exception:  # the operators' own error for this value
            pass
        # every abscissa once, in the operator path's order, before any sum
        assert calls == want
        assert len(calls) == composite_pair(lambda x: one, iv, 3, ctx, rule_pair).evaluation_count

    @given(
        st.one_of(_dd_words, st.builds(DoubleDouble, st.floats(), st.floats())),
        st.one_of(_dd_words, st.builds(DoubleDouble, st.floats(), st.floats())),
        st.sampled_from(["+", "-", "*", "raw"]),
        st.sampled_from([2.0, 4.0]),
    )
    @settings(max_examples=400)
    @example(DoubleDouble(1.0, 5e-324), DoubleDouble(0.0), "+", 2.0)  # subnormal tails
    @example(DoubleDouble(1.0, -5e-324), DoubleDouble(0.0), "raw", 2.0)
    @example(DoubleDouble(-1.4e-317), DoubleDouble(0.0), "+", 4.0)  # subnormal hi
    @example(DoubleDouble(-0.0, -0.0), DoubleDouble(-0.0, -0.0), "+", 2.0)
    @example(DoubleDouble(1.5e308), DoubleDouble(1.5e308), "+", 2.0)  # (inf, -inf)
    @example(DoubleDouble(math.inf, 3.0), DoubleDouble(0.0), "raw", 2.0)
    @example(DoubleDouble(1.7e308, 1e291), DoubleDouble(0.0), "raw", 4.0)
    @example(  # a tail of half an ulp, so hi + lo rounds away from hi
        DoubleDouble(-7.26781746264949e190, -7.914572847139345e174), DoubleDouble(0.0), "raw", 2.0
    )
    def test_scaling_by_a_half_or_quarter_is_the_division_bitwise(self, x, y, op, d):
        z = {"+": x + y, "-": x - y, "*": x * y, "raw": x}[op]
        assert _bits(DoubleDouble(*_scale_down(z.hi, z.lo, d, 1.0 / d))) == _bits(z / d)


# -- the dd pass of a bound tape against the per-call operator path ---------


def _pair_outcome(run):
    """A pass's value bits, or its IntegrandError: the cause's type and
    text, the abscissa's bits and the subinterval."""
    try:
        values = run()
    except IntegrandError as exc:
        cause = exc.cause
        return "raised", type(cause), str(cause), _bits(exc.abscissa), exc.subinterval
    return "returned", [_bits(v) for v in values]


def _tape_and_reference_outcomes(tree, iv, n, rule_pair, ctx=DOUBLE_DOUBLE):
    """The outcome of composite_pair on the tape of tree, and of _pair_ops
    calling a recursive operator evaluator once per abscissa."""
    f = as_integrand(tree, ctx)
    assert hasattr(f, "vector")
    # the tape folds literal subtrees as parse does, and applies the identities
    folded = parse(to_text(tree))
    points = rule_table(rule_pair[0], ctx), rule_table(rule_pair[1], ctx)

    def tape():
        pair = composite_pair(f, iv, n, ctx, rule_pair)
        return pair.g_n, pair.l_n, pair.q_n

    def reference():
        return _pair_ops(lambda x: reduced_reference_eval(folded, x, ctx), iv, n, ctx, *points)

    return _pair_outcome(tape), _pair_outcome(reference)


_TAPE_INTERVALS = [("-1", "1"), ("0", "2"), ("1", "2"), ("0", "1"), ("-4", "4"), ("0.5", "3")]


def _dd_interval(a: str, b: str, ctx=DOUBLE_DOUBLE) -> Interval:
    return Interval(ctx.const(a), ctx.const(b))


class TestBatchedTapePass:
    @given(
        st.one_of(st.sampled_from([fn.text for fn in corpus_mod.CORPUS]).map(parse),
                  expression_trees()),
        st.sampled_from(_TAPE_INTERVALS),
        st.sampled_from([QUINTIC_PAIR, CUBIC_PAIR]),
        st.integers(1, 40),
    )
    @settings(max_examples=120, deadline=None)
    # division by zero at x = 0, a partition point for even n, a node for odd n
    @example(parse("1/x"), ("-1", "1"), QUINTIC_PAIR, 4)
    @example(parse("1/x"), ("-1", "1"), CUBIC_PAIR, 5)
    @example(parse("ln(x)"), ("0", "1"), QUINTIC_PAIR, 3)
    @example(parse("x^-0.5"), ("0", "2"), QUINTIC_PAIR, 2)
    @example(parse("(x-1)^0.5"), ("0", "2"), CUBIC_PAIR, 2)
    @example(parse("exp(x)"), ("700", "720"), QUINTIC_PAIR, 6)  # overflows past 709
    @example(parse("x^-2"), ("1e-200", "1"), QUINTIC_PAIR, 2)  # 1e-200^2 underflows
    # over the batch of partition points the division by x - 1 fails first,
    # at x = 1; in pass order ln fails earlier, at x = -1
    @example(parse("1/(x-1) + ln(x)"), ("-1", "1"), QUINTIC_PAIR, 3)
    # several node blocks, after two tape runs over the 301 partition points
    @example(parse("plus(x-0.6)^7"), ("-1", "1"), CUBIC_PAIR, 300)
    @example(parse("1/(3-x)"), ("-1", "1"), QUINTIC_PAIR, 300)
    def test_batched_pass_matches_the_per_call_operator_path_bitwise(
        self, tree, ends, rule_pair, n
    ):
        got, want = _tape_and_reference_outcomes(tree, _dd_interval(*ends), n, rule_pair)
        assert got == want

    @pytest.mark.parametrize("rule_pair", [QUINTIC_PAIR, CUBIC_PAIR], ids=["quintic", "cubic"])
    def test_a_pole_at_a_node_of_a_later_batch_is_raised_there(self, rule_pair):
        ctx = DOUBLE_DOUBLE
        iv = _dd_interval("0", "2")
        n, k = 300, 280
        seen = []
        one = ctx.const(1)
        points = rule_table(rule_pair[0], ctx), rule_table(rule_pair[1], ctx)
        _pair_ops(lambda x: seen.append(x) or one, iv, n, ctx, *points)
        # the first node of subinterval k, after the n + 1 partition points
        per = (len(seen) - (n + 1)) // n
        pole = seen[n + 1 + (k - 1) * per]
        tree = parse(f"1/(x - {pole.as_fraction()})")
        got, want = _tape_and_reference_outcomes(tree, iv, n, rule_pair)
        assert got == want
        assert got[1:] == (DomainError, f"division by zero (at x = {short_decimal(pole)})",
                           _bits(pole), k)


# -- the one pass in double and mp against the operator path ---------------

_SCALAR_CONTEXTS = {"double": DOUBLE, "mp:30": mp_context(30)}
_ALL_CONTEXTS = {**_SCALAR_CONTEXTS, "dd": DOUBLE_DOUBLE}


@pytest.mark.parametrize("precision", sorted(_ALL_CONTEXTS))
@pytest.mark.parametrize("rule_pair", [QUINTIC_PAIR, CUBIC_PAIR], ids=["quintic", "cubic"])
def test_a_pole_at_a_partition_point_past_the_first_run_is_raised_there(precision, rule_pair):
    # x_300 of [0, 1] at n = 400 is 0.75: the tape's second run over the
    # 401 partition points fails
    ctx = _ALL_CONTEXTS[precision]
    iv = _dd_interval("0", "1", ctx)
    got, want = _tape_and_reference_outcomes(parse("1/(x-0.75)"), iv, 400, rule_pair, ctx)
    assert got == want
    pole = ctx.const("0.75")
    assert got[1:] == (DomainError, "division by zero (at x = 0.75)", _bits(pole), 300)


@pytest.mark.parametrize("precision", sorted(_ALL_CONTEXTS))
@pytest.mark.parametrize("rule_pair", [QUINTIC_PAIR, CUBIC_PAIR], ids=["quintic", "cubic"])
def test_a_pole_at_a_node_of_a_late_block_is_raised_there(precision, rule_pair):
    # 299.5 is the midpoint of subinterval 300 of [0, 512] at n = 512, a node
    # of both pairs, in block 6 of the quintic pass (51 subintervals a block)
    # and block 4 of the cubic pass (85 a block)
    ctx = _ALL_CONTEXTS[precision]
    iv = _dd_interval("0", "512", ctx)
    got, want = _tape_and_reference_outcomes(parse("1/(x-299.5)"), iv, 512, rule_pair, ctx)
    assert got == want
    pole = ctx.const("299.5")
    assert got[1:] == (DomainError, "division by zero (at x = 299.5)", _bits(pole), 300)


def _in(ctx, iv: Interval) -> Interval:
    return Interval(ctx.const(iv.a), ctx.const(iv.b))


@pytest.mark.parametrize("precision", sorted(_SCALAR_CONTEXTS))
class TestOnePassInDoubleAndMp:
    @given(
        st.one_of(st.sampled_from([fn.text for fn in corpus_mod.CORPUS]).map(parse),
                  expression_trees()),
        st.sampled_from(_TAPE_INTERVALS),
        st.sampled_from([QUINTIC_PAIR, CUBIC_PAIR]),
        st.one_of(st.integers(1, 40), st.just(300)),
    )
    @settings(max_examples=60, deadline=None)
    @example(parse("1/x"), ("-1", "1"), QUINTIC_PAIR, 4)
    @example(parse("1/x"), ("-1", "1"), CUBIC_PAIR, 5)
    @example(parse("ln(x)"), ("0", "1"), QUINTIC_PAIR, 3)
    @example(parse("x^-0.5"), ("0", "2"), QUINTIC_PAIR, 2)
    @example(parse("(x-1)^0.5"), ("0", "2"), CUBIC_PAIR, 2)
    @example(parse("exp(x)"), ("700", "720"), QUINTIC_PAIR, 6)
    @example(parse("x^-2"), ("1e-200", "1"), QUINTIC_PAIR, 2)
    @example(parse("1/(x-1) + ln(x)"), ("-1", "1"), QUINTIC_PAIR, 3)
    # several node blocks
    @example(parse("plus(x-0.6)^7"), ("-1", "1"), CUBIC_PAIR, 300)
    @example(parse("1/(3-x)"), ("-1", "1"), QUINTIC_PAIR, 300)
    def test_tape_pass_matches_the_per_call_operator_path_bitwise(
        self, precision, tree, ends, rule_pair, n
    ):
        ctx = _SCALAR_CONTEXTS[precision]
        iv = _dd_interval(*ends, ctx)
        got, want = _tape_and_reference_outcomes(tree, iv, n, rule_pair, ctx)
        assert got == want

    @given(
        st.sampled_from([QUINTIC_PAIR, CUBIC_PAIR]),
        st.one_of(st.integers(1, 40), st.just(300)),
        dd_intervals(),
        dd_integrands(),
    )
    @settings(max_examples=100, deadline=None)
    @example(QUINTIC_PAIR, 5, _dd_iv(-1.0, 1.0), ("reciprocal", (0,), 0))  # f(0) raises
    @example(CUBIC_PAIR, 300, _dd_iv(1.0, 2.0), ("reciprocal", (0,), 0))
    @example(QUINTIC_PAIR, 3, _dd_iv(-1.7e308, 1.7e308), ("square", (0,), 0))
    @example(CUBIC_PAIR, 2, _dd_iv(-1.7e308, 1.7e308), ("table", (1,), 0))
    @example(QUINTIC_PAIR, 31, _dd_iv(5e306, 1.75e307), ("reciprocal", (0,), 0))
    @example(QUINTIC_PAIR, 4, _dd_iv(-1.0, 1.0), ("table", (-0.0, (-0.0, -0.0)), 0))
    @example(
        QUINTIC_PAIR, 7, _dd_iv(1.0, 1.0 + 2.0**-40),
        ("table", ((1e308, 0.0), -0.0, math.inf, 3, (5e-324, 0.0), (math.nan, 0.0)), 0),
    )
    def test_opaque_pass_matches_the_operator_path_bitwise(
        self, precision, rule_pair, n, iv, spec
    ):
        ctx = _SCALAR_CONTEXTS[precision]
        iv = _in(ctx, iv)
        points = rule_table(rule_pair[0], ctx), rule_table(rule_pair[1], ctx)
        pass_calls, ops_calls = [], []
        f_pass = _make_integrand(spec, pass_calls, ctx)
        f_ops = _make_integrand(spec, ops_calls, ctx)

        def one_pass():
            pair = composite_pair(f_pass, iv, n, ctx, rule_pair)
            return pair.g_n, pair.l_n, pair.q_n

        got = _pair_outcome(one_pass)
        assert got == _pair_outcome(lambda: _pair_ops(f_ops, iv, n, ctx, *points))
        # the same abscissae in the same order, one call each
        assert pass_calls == ops_calls

    @pytest.mark.parametrize("rule_pair", [QUINTIC_PAIR, CUBIC_PAIR], ids=["quintic", "cubic"])
    @pytest.mark.parametrize(
        "value",
        [Fraction(1, 3), True, 2**53 + 1, 10**400, mpmath.mpf(2), "text", None],
        ids=["fraction", "bool", "int-beyond-2**53", "int-beyond-float", "mpf", "str", "none"],
    )
    def test_other_return_types_get_the_operator_path_result(self, precision, value, rule_pair):
        ctx = _SCALAR_CONTEXTS[precision]
        iv = Interval(ctx.const(1), ctx.const(2))
        points = rule_table(rule_pair[0], ctx), rule_table(rule_pair[1], ctx)
        one = ctx.const(1)
        want_calls = []
        _pair_ops(lambda x: want_calls.append(_bits(x)) or one, iv, 3, ctx, *points)
        calls = []

        def f(x):
            calls.append(_bits(x))
            return value

        try:
            want = _pair_ops(f, iv, 3, ctx, *points)
        except Exception as exc:  # the operators' own error, whatever it is
            calls.clear()
            with pytest.raises(type(exc)):
                composite_pair(f, iv, 3, ctx, rule_pair)
        else:
            calls.clear()
            got = composite_pair(f, iv, 3, ctx, rule_pair)
            assert [_bits(v) for v in (got.g_n, got.l_n, got.q_n)] == [_bits(v) for v in want]
        # every abscissa once, in the operator path's order, before any sum
        assert calls == want_calls


@pytest.mark.parametrize("precision", sorted(_ALL_CONTEXTS))
@given(dd_intervals(), st.integers(1, 400))
@settings(max_examples=60, deadline=None)
# k * (b - a) overflows from k = 15 on, so those points divide first
@example(_dd_iv(5e306, 1.75e307), 31)
@example(_dd_iv(-1.7e308, 1.7e308), 3)  # b - a overflows
def test_partition_points_match_the_operator_loop_bitwise(precision, iv, n):
    ctx = _ALL_CONTEXTS[precision]
    iv = _in(ctx, iv)
    got = partition_points(iv, n, ctx)
    assert [_bits(x) for x in got] == [_bits(x) for x in reference_partition(iv, n, ctx)]


@pytest.mark.parametrize("precision", sorted(_ALL_CONTEXTS))
@pytest.mark.parametrize("n", [0, -2])
def test_partition_points_refuse_fewer_than_one_subinterval(precision, n):
    ctx = _ALL_CONTEXTS[precision]
    iv = Interval(ctx.const(1), ctx.const(2))
    with pytest.raises(ValueError, match=f"subdivision count must be >= 1, got {n}"):
        partition_points(iv, n, ctx)


@pytest.mark.parametrize("precision", sorted(_ALL_CONTEXTS))
@given(dd_intervals(), st.integers(1, 40), st.sampled_from([QUINTIC_PAIR, CUBIC_PAIR]))
@settings(max_examples=40, deadline=None)
@example(_dd_iv(1.0, 2.0), 3, CUBIC_PAIR)
def test_an_opaque_integrand_is_called_once_per_distinct_abscissa(precision, iv, n, rule_pair):
    ctx = _ALL_CONTEXTS[precision]
    iv = _in(ctx, iv)
    one = ctx.const(1)
    calls = []
    pair = composite_pair(lambda x: calls.append(_bits(x)) or one, iv, n, ctx, rule_pair)
    # the open rule's nodes, then the closed rule's interior ones not among them
    nodes = []
    for t, _w in (*rule_table(rule_pair[0], ctx), *rule_table(rule_pair[1], ctx)[1:-1]):
        if _bits(t) not in [_bits(u) for u in nodes]:
            nodes.append(t)
    xs = reference_partition(iv, n, ctx)
    want = [_bits(x) for x in xs]
    for k in range(1, n + 1):
        h = (xs[k] - xs[k - 1]) / 2
        m = (xs[k - 1] + xs[k]) / 2
        want += [_bits(m + h * t) for t in nodes]
    assert calls == want
    assert len(calls) == pair.evaluation_count == (len(nodes) + 1) * n + 1
    assert len(nodes) == {QUINTIC_PAIR: 5, CUBIC_PAIR: 3}[rule_pair]


class TestTheoremAndConvergence:
    @pytest.mark.parametrize("fn", corpus_mod.CORPUS, ids=lambda f: f.name)
    def test_quarter_gap_error_bound(self, fn):
        f = corpus_mod.integrand(fn, DOUBLE)
        iv = corpus_mod.interval(fn, DOUBLE)
        integral = float(corpus_mod.integral_ref(fn, DOUBLE))
        for n in (1, 2, 3, 4, 8, 16, 32):
            pair = composite_pair(f, iv, n)
            gap = abs(pair.l_n - pair.g_n)
            slack = 64 * DOUBLE.eps * max(1.0, abs(integral))
            assert abs(integral - pair.q_n) <= gap / 4 + slack, (fn.name, n)

    @pytest.mark.parametrize("fn", corpus_mod.CORPUS, ids=lambda f: f.name)
    def test_gap_vanishes_by_n32(self, fn):
        f = corpus_mod.integrand(fn, DOUBLE)
        iv = corpus_mod.interval(fn, DOUBLE)
        p1 = composite_pair(f, iv, 1)
        p32 = composite_pair(f, iv, 32)
        gap1 = abs(p1.l_n - p1.g_n)
        gap32 = abs(p32.l_n - p32.g_n)
        floor = 128 * DOUBLE.eps * max(abs(float(p1.g_n)), 1.0)
        assert gap32 <= max(gap1 / 1e4, floor), fn.name

    def test_observed_sixth_order_on_exp(self):
        f = corpus_mod.integrand(corpus_mod.CORPUS[1], DOUBLE)
        integral = float(EXP_MINUS_1[2])
        iv = Interval(0.0, 2.0)
        f = DOUBLE.exp
        for rule_id in (RuleId.GAUSS3, RuleId.LOBATTO4):
            errors = {
                n: abs(composite_rule(rule_id, f, iv, n) - integral) for n in (1, 2, 4, 8, 16)
            }
            for n in (1, 2, 4, 8):
                order = math.log2(errors[n] / errors[2 * n])
                assert 5.5 <= order <= 6.5, (rule_id, n, order)


class TestAprioriBounds:
    def test_gauss_example_value(self):
        got = apriori_bound(RuleId.GAUSS3, Interval(1.0, 2.0), 1, 720.0)
        assert got == pytest.approx(720 / 2016000, rel=1e-15)
        # the true error is far below the bound
        f = _inv(DOUBLE)
        err = abs(composite_rule(RuleId.GAUSS3, f, Interval(1.0, 2.0), 1) - math.log(2))
        assert err < got

    def test_zero_m6(self):
        assert apriori_bound(RuleId.LOBATTO4, Interval(0.0, 5.0), 3, 0.0) == 0.0

    def test_direct_formula(self):
        got = apriori_bound(RuleId.GAUSS3, Interval(0.0, 1.0), 2, 1.0)
        assert got == pytest.approx(1 / (2016000 * 64), rel=1e-15)

    def test_rejects_unsupported_rules(self):
        with pytest.raises(ValueError):
            apriori_bound(RuleId.SIMPSON, Interval(0.0, 1.0), 1, 1.0)
        with pytest.raises(ValueError):
            apriori_bound(RuleId.CHEBYSHEV3, Interval(0.0, 1.0), 1, 1.0)

    def test_rejects_negative_m6(self):
        with pytest.raises(ValueError):
            apriori_bound(RuleId.GAUSS3, Interval(0.0, 1.0), 1, -1.0)

    @pytest.mark.parametrize("m6", [math.nan, math.inf], ids=["nan", "inf"])
    def test_rejects_a_non_finite_m6(self, m6):
        with pytest.raises(ValueError, match="must be finite and nonnegative"):
            apriori_bound(RuleId.GAUSS3, Interval(0.0, 1.0), 1, m6)

    def test_checks_the_rule_before_m6(self):
        with pytest.raises(ValueError, match="no sixth-order bound"):
            apriori_bound(RuleId.SIMPSON, Interval(0.0, 1.0), 1, -1.0)

    @pytest.mark.parametrize(
        "fn", [f for f in corpus_mod.CORPUS if f.m6 is not None], ids=lambda f: f.name
    )
    def test_bound_consistency_on_corpus(self, fn):
        f = corpus_mod.integrand(fn, DOUBLE)
        iv = corpus_mod.interval(fn, DOUBLE)
        integral = float(corpus_mod.integral_ref(fn, DOUBLE))
        for n in (1, 2, 4):
            slack = 32 * DOUBLE.eps * max(1.0, abs(integral))
            err_g = abs(composite_rule(RuleId.GAUSS3, f, iv, n) - integral)
            err_l = abs(composite_rule(RuleId.LOBATTO4, f, iv, n) - integral)
            assert err_g <= apriori_bound(RuleId.GAUSS3, iv, n, fn.m6) + slack, (fn.name, n)
            assert err_l <= apriori_bound(RuleId.LOBATTO4, iv, n, fn.m6) + slack, (fn.name, n)


def _min_n_by_exhaustion(denom: int, width: Fraction, m6: Fraction, eps: Fraction) -> int:
    n = 1
    while m6 * width**7 / (denom * Fraction(n) ** 6) > eps:
        n += 1
    return n


class TestMinN:
    def test_paper_adjacent_example(self):
        got = min_n_for_bound(RuleId.GAUSS3, Interval(1.0, 2.0), 720.0, 1e-8)
        assert got == 6
        assert got == _min_n_by_exhaustion(2016000, Fraction(1), Fraction(720), Fraction(1, 10**8))

    def test_loose_tolerance_gives_one(self):
        assert min_n_for_bound(RuleId.GAUSS3, Interval(1.0, 2.0), 720.0, 1.0) == 1

    def test_lobatto_closed_form(self):
        got = min_n_for_bound(RuleId.LOBATTO4, Interval(1.0, 2.0), 720.0, 1e-8)
        assert got == _min_n_by_exhaustion(1512000, Fraction(1), Fraction(720), Fraction(1, 10**8))
        assert got == 7

    def test_zero_m6(self):
        assert min_n_for_bound(RuleId.GAUSS3, Interval(1.0, 2.0), 0.0, 1e-12) == 1

    def test_wide_interval(self):
        got = min_n_for_bound(RuleId.GAUSS3, Interval(0.0, 10.0), 1.0, 1e-6)
        assert got == _min_n_by_exhaustion(2016000, Fraction(10), Fraction(1), Fraction(1, 10**6))

    def test_rejects_bad_eps(self):
        with pytest.raises(ValueError):
            min_n_for_bound(RuleId.GAUSS3, Interval(1.0, 2.0), 720.0, 0.0)

    @pytest.mark.parametrize(
        "m6, eps", [(720.0, 1e-300), (1e200, 1e-8)], ids=["tiny-eps", "huge-m6"]
    )
    @pytest.mark.parametrize("ctx", [DOUBLE, DOUBLE_DOUBLE, mp_context(40)], ids=lambda c: c.name)
    def test_huge_n_is_where_the_bound_first_meets_eps(self, m6, eps, ctx):
        iv = Interval(1.0, 2.0)
        n = min_n_for_bound(RuleId.GAUSS3, iv, m6, eps, ctx)
        eps_s = ctx.const(eps)
        assert n > 10**30
        assert apriori_bound(RuleId.GAUSS3, iv, n, m6, ctx) <= eps_s
        assert apriori_bound(RuleId.GAUSS3, iv, n - 1, m6, ctx) > eps_s

    @pytest.mark.parametrize(
        "iv, eps, ctx",
        [
            (Interval(1.0, 2.0), 5e-324, DOUBLE),
            (Interval(1.0, 2.0), "1e-320", DOUBLE_DOUBLE),
            (Interval(0.0, 1e50), 1e-8, DOUBLE),
        ],
        ids=["subnormal-eps-double", "subnormal-eps-dd", "wide-interval-double"],
    )
    def test_an_overflowing_bound_is_a_value_error_naming_the_precision(self, iv, eps, ctx):
        with pytest.raises(ValueError, match=f"overflows {ctx.name} precision"):
            min_n_for_bound(RuleId.GAUSS3, iv, 720.0, eps, ctx)

    def test_a_666_digit_n_in_mp_is_found_in_under_a_second(self):
        ctx, iv, eps = mp_context(40), Interval(1.0, 2.0), "1e-3999"
        start = time.perf_counter()
        n = min_n_for_bound(RuleId.GAUSS3, iv, 720.0, eps, ctx)
        assert time.perf_counter() - start < 1.0
        bound, before = (apriori_bound(RuleId.GAUSS3, iv, k, 720.0, ctx) for k in (n, n - 1))
        assert bound <= ctx.const(eps) < before

    @pytest.mark.parametrize("m6", [-1, math.inf, math.nan], ids=["negative", "inf", "nan"])
    def test_rejects_a_bad_m6(self, m6):
        with pytest.raises(ValueError, match="must be finite and nonnegative"):
            min_n_for_bound(RuleId.GAUSS3, Interval(1.0, 2.0), m6, 1e-8)

    def test_rejects_a_rule_without_a_bound_even_for_zero_m6(self):
        with pytest.raises(ValueError, match="no sixth-order bound"):
            min_n_for_bound(RuleId.SIMPSON, Interval(1.0, 2.0), 0.0, 1e-8)


class TestM6Estimate:
    def test_reciprocal(self):
        est = estimate_m6(parse("1/x"), Interval(1.0, 2.0))
        assert est.value == pytest.approx(720.0, rel=1e-9)
        assert est.sample_points == 1025

    def test_exponential(self):
        est = estimate_m6(parse("exp(x)"), Interval(0.0, 2.0))
        assert est.value == pytest.approx(math.exp(2.0), rel=1e-12)

    @pytest.mark.parametrize("sample_points", [1, 0])
    def test_rejects_fewer_than_two_sample_points_by_name(self, sample_points):
        with pytest.raises(ValueError, match=f"^sample_points must be >= 2, got {sample_points}$"):
            estimate_m6(parse("1/x"), Interval(1.0, 2.0), sample_points=sample_points)
