import hashlib
import math
import operator
import random
import struct
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quintiq.expr import DomainError, Pow, Variable, as_integrand, parse
from quintiq.scalars import (
    DOUBLE,
    DOUBLE_DOUBLE,
    DoubleDouble,
    MPFloatContext,
    _add_words,
    dd_exp,
    dd_ln,
    dd_sqrt,
    mp_context,
    parse_precision,
    short_decimal,
)

from support import dd_to_mpf, ref_add, ref_div, ref_mul, ref_sub, reference_pow

mpmath.mp.dps = 50

# Magnitudes where products/quotients stay far from the subnormal range, the
# usual operating contract of double-double arithmetic.
finite = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-1e100, max_value=1e100
).filter(lambda x: x == 0.0 or abs(x) >= 1e-100)
nonzero = finite.filter(lambda x: abs(x) >= 1e-100)


@given(finite, finite)
def test_dd_add_matches_mpmath(a, b):
    r = DoubleDouble(a) + DoubleDouble(b)
    ref = mpmath.mpf(a) + mpmath.mpf(b)
    assert abs(dd_to_mpf(r) - ref) <= abs(ref) * mpmath.mpf(2) ** -100


@given(finite, finite)
def test_dd_mul_matches_mpmath(a, b):
    r = DoubleDouble(a) * DoubleDouble(b)
    ref = mpmath.mpf(a) * mpmath.mpf(b)
    assert abs(dd_to_mpf(r) - ref) <= abs(ref) * mpmath.mpf(2) ** -100


@given(finite, nonzero)
def test_dd_div_matches_mpmath(a, b):
    r = DoubleDouble(a) / DoubleDouble(b)
    ref = mpmath.mpf(a) / mpmath.mpf(b)
    assert abs(dd_to_mpf(r) - ref) <= abs(ref) * mpmath.mpf(2) ** -100


@given(finite, finite)
def test_dd_normalization_invariant(a, b):
    r = DoubleDouble(a) + DoubleDouble(b)
    if r.hi != 0.0 and math.isfinite(r.hi):
        assert abs(r.lo) <= math.ulp(abs(r.hi))


@st.composite
def dd_values(draw):
    """A double-double with any hi but nan, and a tail within half an ulp
    of it."""
    hi = draw(st.floats(allow_nan=False))
    return DoubleDouble(hi, draw(st.floats(-0.5, 0.5)) * math.ulp(hi))


plain_operands = st.one_of(
    st.integers(-(2**53), 2**53),
    st.floats(),
    st.integers(2**53, 2**120).flatmap(lambda n: st.sampled_from([n, -n])),
)
DD_OPS = {
    "+": (operator.add, ref_add),
    "-": (operator.sub, ref_sub),
    "*": (operator.mul, ref_mul),
    "/": (operator.truediv, ref_div),
}


def _bits(hi, lo):
    # bit patterns, so that -0.0 and nan compare as themselves
    return struct.pack("<dd", hi, lo)


@given(
    dd_values(),
    st.one_of(dd_values(), plain_operands),
    st.booleans(),
    st.sampled_from(sorted(DD_OPS)),
)
@settings(max_examples=500)
@example(DoubleDouble(1e300), DoubleDouble(1e10), False, "*")  # product overflows
@example(DoubleDouble(-1e200), DoubleDouble(3e150, 1e134), False, "*")
@example(DoubleDouble(1e-5), DoubleDouble(1e-310), False, "/")  # beyond the split range
@example(DoubleDouble(2.0, 1e-16), DoubleDouble(1e300), False, "/")
@example(DoubleDouble(2.0, 1e-16), DoubleDouble(-1e300), False, "/")
@example(DoubleDouble(1e300, 3e283), DoubleDouble(-1e300), True, "/")
@example(DoubleDouble(0.1, 0.0), DoubleDouble(3.0, -0.0), False, "/")  # zero tails
@example(DoubleDouble(-0.0, 0.0), DoubleDouble(0.0, -0.0), False, "+")
@example(DoubleDouble(-0.0, -0.0), DoubleDouble(3.0, -0.0), False, "/")
@example(DoubleDouble(1e-300, 1e-317), DoubleDouble(3e-301, -2e-318), False, "-")  # subnormal tails
@example(DoubleDouble(1e-300, 1e-317), DoubleDouble(7.0, 1e-16), False, "/")
@example(DoubleDouble(1.0), DoubleDouble(0.0), False, "/")  # division by zero
@example(DoubleDouble(1.0), 0, False, "/")
@example(DoubleDouble(1e308), DoubleDouble(1e308), False, "+")  # sums that overflow
@example(DoubleDouble(-1e308), DoubleDouble(1e308), False, "-")
@example(DoubleDouble(1.5), 2**53 + 1, True, "-")  # an int beyond 2**53
@example(DoubleDouble(1.0), math.nan, False, "*")  # a nan float gives nan
@example(DoubleDouble(2.0, 1e-16), math.nan, True, "+")
def test_dd_operators_match_the_eft_reference_bitwise(x, other, flip, op):
    apply, ref = DD_OPS[op]
    a, b = (other, x) if flip else (x, other)
    try:
        want_hi, want_lo = ref(a, b)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            apply(a, b)
        return
    got = apply(a, b)
    if op in "+-" and want_lo != want_lo:
        # the one intended difference: a sum whose tail is nan (it
        # overflowed, or an operand is nan) keeps the plain double sum, as a
        # product does
        ahi, bhi = DoubleDouble._coerce(a).hi, DoubleDouble._coerce(b).hi
        want_hi, want_lo = ahi + (bhi if op == "+" else -bhi), 0.0
    assert _bits(got.hi, got.lo) == _bits(want_hi, want_lo)


@given(dd_values(), dd_values())
@settings(max_examples=300)
@example(DoubleDouble(math.inf), DoubleDouble(-math.inf))
@example(DoubleDouble(1e308), DoubleDouble(1e308))
def test_word_helpers_match_the_operators_bitwise(x, y):
    r = x + y
    assert _bits(*_add_words(x.hi, x.lo, y.hi, y.lo)) == _bits(r.hi, r.lo)


# sha256 of the (hi, lo) bits of dd_exp, dd_sqrt and dd_ln on the points
# below, frozen from the helper-based operators
TRANSCENDENTAL_DIGEST = "925a0d6656aaf59e7aca9264b25aea303ae6b9b292a86db08c4d45b351e76381"


def test_dd_transcendentals_keep_their_bits():
    h = hashlib.sha256()
    for k in range(200):
        x = DOUBLE_DOUBLE.const(Fraction((k - 100) ** 3, 4000))  # [-250, 242]
        y = DOUBLE_DOUBLE.const(Fraction(3 * k + 1, 7) * Fraction(10) ** (2 * k - 200))
        for r in (dd_exp(x), dd_sqrt(y), dd_ln(y)):
            h.update(_bits(r.hi, r.lo))
    assert h.hexdigest() == TRANSCENDENTAL_DIGEST


def test_dd_sum_overflow_through_the_expression_layer():
    node = parse("x^2 + x^2")
    r = as_integrand(node, DOUBLE_DOUBLE)(DoubleDouble(1.3e154))
    assert float(r) == as_integrand(node, DOUBLE)(1.3e154) == math.inf


@given(st.fractions())
@settings(max_examples=200)
def test_dd_from_fraction_two_stage_rounding(fr):
    if abs(fr) > Fraction(10) ** 300 or (fr != 0 and abs(fr) < Fraction(1, 10**300)):
        return
    x = DoubleDouble.from_fraction(fr)
    err = abs(x.as_fraction() - fr)
    if fr != 0:
        assert err <= abs(fr) * Fraction(1, 2**104)


@pytest.mark.parametrize(
    "text",
    ["0.1", "1e-16", "0.6", "3.14159265358979", "-2.5e3", "123456789.123456789"],
)
def test_dd_const_string_exactness(text):
    x = DOUBLE_DOUBLE.const(text)
    ref = mpmath.mpf(Fraction(text).numerator) / mpmath.mpf(Fraction(text).denominator)
    assert abs(dd_to_mpf(x) - ref) <= abs(ref) * mpmath.mpf(2) ** -104


@pytest.mark.parametrize("v", [0.001, 0.3466, -0.3466, 1.0, 2.0, 10.0, -10.0, 100.0, 700.0])
def test_dd_exp_accuracy(v):
    x = DOUBLE_DOUBLE.const(repr(v))
    ref = mpmath.exp(dd_to_mpf(x))
    assert abs(dd_to_mpf(dd_exp(x)) - ref) <= ref * mpmath.mpf("1e-29")


def test_dd_exp_near_underflow_keeps_double_accuracy():
    # the low word turns subnormal below ~1e-270, so only ~16 digits survive
    x = DoubleDouble(-700.0)
    ref = mpmath.exp(mpmath.mpf(-700))
    assert abs(dd_to_mpf(dd_exp(x)) - ref) <= ref * mpmath.mpf("1e-15")


@pytest.mark.parametrize("v", [1e-6, 0.1, 0.5, 1.0, 2.0, 10.0, 1e8])
def test_dd_ln_accuracy(v):
    x = DOUBLE_DOUBLE.const(repr(v))
    ref = mpmath.log(dd_to_mpf(x))
    tol = max(abs(ref), mpmath.mpf(1)) * mpmath.mpf("1e-29")
    assert abs(dd_to_mpf(dd_ln(x)) - ref) <= tol


def test_dd_ln_below_the_exp_range_keeps_dd_accuracy():
    # below e^-709 the Newton step's exp(-ln x) would overflow
    rng = random.Random(7)
    tiny = [5e-324, 1e-323, 3e-320, 1e-310, 1.2e-308, 1.2160e-308]
    tiny += [10 ** rng.uniform(-323.3, -307.916) for _ in range(200)]
    for v in tiny:
        ref = mpmath.log(mpmath.mpf(v))
        assert abs(dd_to_mpf(dd_ln(DoubleDouble(v))) - ref) <= abs(ref) * DOUBLE_DOUBLE.eps, v


def test_dd_ln_keeps_dd_accuracy_up_to_1e_minus_300():
    # above e^-709 the Newton step's product x * exp(-ln x) would lose its
    # cross terms below the subnormal range
    rng = random.Random(11)
    lo, hi = math.log(5e-324), math.log(1e-300)
    with mpmath.workdps(60):
        for _ in range(3000):
            v = math.exp(rng.uniform(lo, hi))
            ref = mpmath.log(mpmath.mpf(v))
            assert abs((dd_to_mpf(dd_ln(DoubleDouble(v))) - ref) / ref) <= 1e-31, v


@pytest.mark.parametrize("v", [2, 3, 5, 15, 0.5, 1e10, 1e-10])
def test_dd_sqrt_accuracy(v):
    x = DOUBLE_DOUBLE.const(repr(float(v)))
    ref = mpmath.sqrt(dd_to_mpf(x))
    assert abs(dd_to_mpf(dd_sqrt(x)) - ref) <= ref * mpmath.mpf("1e-30")


def test_dd_exp_ln_round_trip():
    for v in ["0.25", "1", "7.5", "42"]:
        x = DOUBLE_DOUBLE.const(v)
        back = dd_ln(dd_exp(x))
        assert abs(dd_to_mpf(back) - dd_to_mpf(x)) < mpmath.mpf("1e-28")


def test_dd_exp_overflow_and_underflow():
    with pytest.raises(OverflowError):
        dd_exp(DoubleDouble(710.0))
    assert float(dd_exp(DoubleDouble(-720.0))) == pytest.approx(0.0, abs=1e-300)


def test_dd_exp_and_ln_of_nan_are_nan():
    # as math.exp and math.log of a nan: no ValueError from the reduction
    for value in (dd_exp(DoubleDouble(math.nan)), dd_ln(DoubleDouble(math.nan))):
        assert math.isnan(value.hi)


def test_dd_domain_errors():
    with pytest.raises(ValueError):
        dd_ln(DoubleDouble(0.0))
    with pytest.raises(ValueError):
        dd_ln(DoubleDouble(-1.0))
    with pytest.raises(ValueError):
        dd_sqrt(DoubleDouble(-4.0))
    with pytest.raises(ZeroDivisionError):
        DoubleDouble(1.0) / DoubleDouble(0.0)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_dd_overflow_is_infinite_not_nan(sign):
    inf = sign * math.inf
    for r in (
        DoubleDouble(sign * 1e308) + DoubleDouble(sign * 1e308),
        DoubleDouble(sign * 1e308) - DoubleDouble(-sign * 1e308),
        DoubleDouble(sign * 1e300) / DoubleDouble(1e-10),
        DoubleDouble(1e300) / DoubleDouble(sign * 1e-10),
        DoubleDouble(sign * 1e300) * DoubleDouble(1e10),
        DoubleDouble(1e300) * DoubleDouble(sign * 1e10),
    ):
        assert (r.hi, r.lo) == (inf, 0.0)


def test_dd_quotient_beyond_split_range_keeps_the_double_quotient():
    # 1e305 is finite, but splitting it for the Newton correction overflows
    r = DoubleDouble(1e-5) / DoubleDouble(1e-310)
    assert (r.hi, r.lo) == (1e-5 / 1e-310, 0.0)


@pytest.mark.parametrize("x", [1e-310, -1e-310, 5e-324])
def test_dd_reciprocal_integrand_overflows_like_double(x):
    node = parse("1/x")
    r = as_integrand(node, DOUBLE_DOUBLE)(DoubleDouble(x))
    assert float(r) == as_integrand(node, DOUBLE)(x) == math.copysign(math.inf, x)


def test_dd_pow_int():
    x = DOUBLE_DOUBLE.const("1.37")
    ref = dd_to_mpf(x) ** 7
    assert abs(dd_to_mpf(x**7) - ref) <= ref * mpmath.mpf("1e-29")
    inv = x**-3
    assert abs(dd_to_mpf(inv) - dd_to_mpf(x) ** -3) <= abs(dd_to_mpf(inv)) * mpmath.mpf("1e-29")
    assert float(x**0) == 1.0


def test_dd_positive_power_overflows_like_double():
    with pytest.raises(OverflowError):
        1e200**2
    for base in (1e200, -1e200):
        with pytest.raises(OverflowError):
            DoubleDouble(base) ** 2
    # the result is in range; only the last, unused squaring overflows
    r = DoubleDouble(1e100) ** 3
    assert math.isfinite(r.hi) and r.hi == 1e100**3
    # a negative power whose positive power overflows underflows to zero
    assert 1e200**-2 == 0.0
    r = DoubleDouble(1e200) ** -2
    assert (r.hi, r.lo) == (0.0, 0.0)


def _pow_outcome(power):
    """The bits of a power's result, or the type of the error it raised."""
    try:
        r = power()
    except (OverflowError, ZeroDivisionError) as exc:
        return type(exc)
    return _bits(r.hi, r.lo)


# the tape's DomainError text for each error of the scalar power
_POW_DOMAIN_TEXT = {
    OverflowError: "power overflow",
    ZeroDivisionError: "zero raised to a negative power",
}


@given(
    st.one_of(dd_values(), st.sampled_from([math.nan, math.inf, -math.inf]).map(DoubleDouble)),
    st.integers(-12, 12),
)
@settings(max_examples=500)
@example(DoubleDouble(1e200), 2)  # the power overflows
@example(DoubleDouble(1e-200), -2)  # the positive power underflows
@example(DoubleDouble(0.0), -1)
@example(DoubleDouble(-0.0), 3)
@example(DoubleDouble(math.nan), 2)
@example(DoubleDouble(math.nan), -2)
@example(DoubleDouble(math.inf), 3)
@example(DoubleDouble(math.inf), -3)
@example(DoubleDouble(-math.inf), 3)
@example(DoubleDouble(-math.inf), -2)
@example(DoubleDouble(1.5, 1e-17), True)
@example(DoubleDouble(0.0, -0.0), 1)  # x ** 1 is x, as the tape's x^1 is
@example(DoubleDouble(2.0**1000, 2.0**940), 3)  # the first product keeps its low word
# hi + lo rounds to inf: the overflow's message prints the leading word
@example(DoubleDouble(1.7976931348623157e308, 9.9792015476736e291), 2)
def test_dd_power_kernel_tape_and_reference_agree_bitwise(x, n):
    want = _pow_outcome(lambda: reference_pow(x, n))
    assert _pow_outcome(lambda: x**n) == want
    if isinstance(n, bool):
        return  # a tape's exponent is never a bool
    f = as_integrand(Pow(Variable(), Fraction(n)), DOUBLE_DOUBLE)
    try:
        got = _pow_outcome(lambda: f(x))
    except DomainError as exc:
        assert exc.message == _POW_DOMAIN_TEXT.get(want)
    else:
        assert got == want


def test_dd_negative_power_of_an_underflowing_base_overflows_like_double():
    with pytest.raises(OverflowError):
        1e-200**-2
    with pytest.raises(OverflowError):
        DoubleDouble(1e-200) ** -2
    with pytest.raises(ZeroDivisionError):
        DoubleDouble(0.0) ** -2


def test_dd_arithmetic_with_a_nan_float_is_nan():
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        for a, b in ((DoubleDouble(1.5), math.nan), (math.nan, DoubleDouble(1.5))):
            assert math.isnan(op(a, b).hi)


def test_dd_comparisons():
    a = DOUBLE_DOUBLE.const("0.1")
    b = DOUBLE_DOUBLE.const("0.2")
    assert a < b and b > a and a != b and a <= a and a >= a and a == a
    assert DoubleDouble(1.0) == 1
    assert DoubleDouble(1.0, 1e-20) > 1
    assert DoubleDouble(1.0, -1e-20) < 1
    # mixed int/float arithmetic coerces
    assert float(3 * a + 1) == pytest.approx(1.3)
    assert float((1 - a) / 2) == pytest.approx(0.45)


@pytest.mark.parametrize(
    "other", [0, 0.0, -math.inf, math.nan, DoubleDouble(0.0), DoubleDouble(1.0, 1e-20),
              DoubleDouble(math.nan)],
)
def test_dd_ordered_comparisons_with_nan_are_false(other):
    # as for float: a nan leading word is unordered, and unequal even to itself
    for nan in (DoubleDouble(math.nan), DoubleDouble(math.nan, math.nan)):
        for a, b in ((nan, other), (other, nan)):
            assert not (a < b or a <= b or a > b or a >= b or a == b)
            assert a != b


@pytest.mark.parametrize("v", [1.0, 0.5, 2**53 + 1, math.inf, -math.inf])
def test_dd_hash_agrees_with_equality(v):
    x = DOUBLE_DOUBLE.const(v)
    assert x == v
    assert hash(x) == hash(v)


def test_dd_hash_of_nan_does_not_raise():
    assert DoubleDouble(1.0) in {DoubleDouble(math.nan), DoubleDouble(1.0)}


def test_dd_abs_and_neg():
    a = DOUBLE_DOUBLE.const("-2.5")
    assert abs(a) == DOUBLE_DOUBLE.const("2.5")
    assert -a == DOUBLE_DOUBLE.const("2.5")
    assert abs(DoubleDouble(0.0)) == 0


def test_dd_to_decimal_round_trips():
    for text in ["0.1", "2", "-0.6", "1e-20"]:
        x = DOUBLE_DOUBLE.const(text)
        back = DOUBLE_DOUBLE.const(DOUBLE_DOUBLE.to_decimal(x))
        assert abs(dd_to_mpf(back) - dd_to_mpf(x)) <= abs(dd_to_mpf(x)) * mpmath.mpf("1e-31")


@pytest.mark.parametrize(
    "text, want", [("1e400", "1e+400"), ("-1e400", "-1e+400"), ("4.12e559", "4.12e+559")]
)
def test_short_decimal_prints_mp_values_beyond_the_double_range(text, want):
    x = mp_context(40).const(text)
    assert float(x) in (math.inf, -math.inf)
    assert short_decimal(x) == want


def test_short_decimal_keeps_real_infinities():
    mp_inf = mp_context(40).const(math.inf)
    for sign, values in (("", [math.inf, DoubleDouble(math.inf), mp_inf]),
                         ("-", [-math.inf, DoubleDouble(-math.inf), -mp_inf])):
        for v in values:
            assert short_decimal(v) == sign + "inf"


def test_double_context_basics():
    assert DOUBLE.const("0.5") == 0.5
    assert DOUBLE.const(Fraction(1, 3)) == 1 / 3
    assert DOUBLE.const(2) == 2.0
    assert DOUBLE.sqrt(9.0) == 3.0
    assert DOUBLE.to_decimal(0.1) == "0.1"
    with pytest.raises(ValueError):
        DOUBLE.ln(0.0)


def test_mp_context_independent_precisions():
    c40 = mp_context(40)
    c20 = mp_context(20)
    x40 = c40.const(1) / c40.const(3)
    x20 = c20.const(1) / c20.const(3)
    with mpmath.workdps(50):
        assert abs(mpmath.mpf(x40) - mpmath.mpf(1) / 3) < mpmath.mpf("1e-39")
    assert c40.to_decimal(x40) != c20.to_decimal(x20)
    assert len(c40.to_decimal(x40)) > len(c20.to_decimal(x20))
    assert c40.eps < 1e-39
    assert mp_context(40) is c40  # cached


def test_mp_context_exact_decimal_constants():
    c = mp_context(40)
    x = c.const("0.1")
    assert abs(x - c.const(1) / c.const(10)) == 0


def test_mp_context_minimum_digits():
    with pytest.raises(ValueError):
        MPFloatContext(8)


@pytest.mark.parametrize(
    "spec,expected",
    [
        ("double", "double"),
        ("dd", "dd"),
        ("mp", "mp:50"),
        ("mp:40", "mp:40"),
        ("  DD ", "dd"),
    ],
)
def test_parse_precision(spec, expected):
    assert parse_precision(spec).name == expected


@pytest.mark.parametrize("bad", ["single", "mp:abc", "mp:2", "quad"])
def test_parse_precision_rejects(bad):
    with pytest.raises(ValueError):
        parse_precision(bad)
