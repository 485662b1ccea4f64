import gc
import hashlib
import math
import random
import re
import time
import weakref
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quintiq.expr import (
    Add,
    Constant,
    Div,
    DomainError,
    Exp,
    ExprSyntaxError,
    Mul,
    Neg,
    NotDifferentiable,
    Plus,
    Pow,
    Sub,
    UnknownIdentifierError,
    Variable,
    _CHUNK,
    _LN,
    _NEG,
    _bind,
    _compile,
    _Compiler,
    _mk,
    as_integrand,
    differentiate,
    evaluate,
    parse,
    to_text,
)
from quintiq.composite import partition_points
from quintiq.rules import Interval
from quintiq.scalars import DOUBLE, DOUBLE_DOUBLE, DoubleContext, DoubleDouble, mp_context

import corpus as corpus_mod
from support import (
    REFERENCE_CONSTRUCTORS,
    expression_trees,
    reduced_reference_eval,
    reduced_value,
    reference_differentiate,
    reference_eval,
    reference_to_text,
)

X = Variable()


class TestParsing:
    def test_division_tree(self):
        assert parse("1/x") == Div(Constant(Fraction(1)), X)

    def test_plus_power_tree(self):
        expected = Pow(Plus(Sub(X, Constant(Fraction(3, 5)))), Fraction(7))
        assert parse("plus(x-0.6)^7") == expected

    def test_decimal_literals_are_exact_fractions(self):
        assert parse("0.6") == Constant(Fraction(3, 5))
        assert parse("1e-3") == Constant(Fraction(1, 1000))
        assert parse(".5") == Constant(Fraction(1, 2))
        assert parse("2.5E-1") == Constant(Fraction(1, 4))

    @pytest.mark.parametrize(
        "text, span", [("x+1e9999999", (2, 11)), ("2*1E-00012345678*x", (2, 16))]
    )
    def test_a_seven_digit_exponent_is_a_syntax_error_at_once(self, text, span):
        # its exact value would be a number of millions of digits
        start = time.perf_counter()
        with pytest.raises(ExprSyntaxError) as exc_info:
            parse(text)
        assert time.perf_counter() - start < 1.0
        assert (exc_info.value.span.start, exc_info.value.span.end) == span
        assert "has more than 6 digits" in exc_info.value.message

    def test_a_six_digit_exponent_still_parses(self):
        assert parse("1e-000100") == Constant(Fraction(1, 10**100))
        assert parse("x*1e99999") == Mul(X, Constant(Fraction(10**99999)))

    def test_constant_folding_is_exact(self):
        assert parse("1+2") == Constant(Fraction(3))
        assert parse("2^3^2") == Constant(Fraction(512))  # right-associative
        assert parse("0.1+0.2") == Constant(Fraction(3, 10))
        assert parse("plus(2-5)") == Constant(Fraction(0))
        assert parse("-(3*4)") == Constant(Fraction(-12))

    def test_division_by_zero_not_folded(self):
        node = parse("1/0")
        assert isinstance(node, Div)
        with pytest.raises(DomainError):
            evaluate(node, 1.0)

    def test_unary_minus_binds_looser_than_power(self):
        assert parse("-x^2") == Neg(Pow(X, Fraction(2)))

    def test_unary_minus_in_products(self):
        assert parse("-x*2") == Mul(Neg(X), Constant(Fraction(2)))

    def test_whitespace_insignificant(self):
        assert parse(" 1 + 2\t*x ") == Add(Constant(Fraction(1)), Mul(Constant(Fraction(2)), X))

    def test_nested_functions(self):
        assert parse("exp(ln(x))") is not None
        assert parse("plus(plus(x))") is not None

    @pytest.mark.parametrize(
        "text",
        ["1+", "(x", "x+()", "*x", "x^", "1..2", "exp x", "exp", ""],
    )
    def test_syntax_errors(self, text):
        with pytest.raises(ExprSyntaxError):
            parse(text)

    def test_unknown_identifier(self):
        with pytest.raises(UnknownIdentifierError) as exc_info:
            parse("1+foo(x)")
        assert exc_info.value.name == "foo"
        assert exc_info.value.span.start == 2
        assert exc_info.value.span.end == 5

    def test_unexpected_character_span(self):
        with pytest.raises(ExprSyntaxError) as exc_info:
            parse("1+&x")
        assert exc_info.value.span.start == 2

    def test_trailing_input_rejected(self):
        with pytest.raises(ExprSyntaxError):
            parse("x 1")

    def test_non_constant_exponent_rejected(self):
        with pytest.raises(ExprSyntaxError):
            parse("x^x")
        with pytest.raises(ExprSyntaxError):
            parse("2^(x+1)")

    @pytest.mark.parametrize(
        "text, message, start, end",
        [
            ("x^x", "exponent must be a constant", 2, 3),
            ("x^-x", "exponent must be a constant", 2, 4),
            ("x^exp(x)", "exponent must be a constant", 2, 8),
            # a parenthesized exponent is reported with its parentheses
            ("2^(x+1)", "exponent must be a constant", 2, 7),
            ("x^(x)", "exponent must be a constant", 2, 5),
            ("2^((x))", "exponent must be a constant", 2, 7),
            ("1+&x", "unexpected character '&'", 2, 3),
            ("1+foo(x)", "unknown identifier 'foo'", 2, 5),
            ("(x", "expected ')' but found end of input", 2, 2),
            ("x 1", "unexpected trailing input '1'", 2, 3),
            ("1+", "expected a number, 'x', '(' or a function but found end of input", 2, 2),
        ],
    )
    def test_syntax_error_byte_ranges(self, text, message, start, end):
        with pytest.raises(ExprSyntaxError) as exc_info:
            parse(text)
        err = exc_info.value
        assert (err.message, err.span.start, err.span.end) == (message, start, end)
        assert str(err) == f"{message} (at bytes {start}..{end})"

    def test_nodes_carry_no_positions(self):
        assert Variable() == Variable()
        assert parse(" x") == parse("x") == Variable()

    def test_constant_exponent_expressions_fold(self):
        assert parse("x^(1+1)") == Pow(X, Fraction(2))
        assert parse("x^-7") == Pow(X, Fraction(-7))


class TestEvaluation:
    def test_precedence_values(self):
        assert evaluate(parse("1+2*3^2"), 0.0) == 19.0
        assert evaluate(parse("-2^2"), 0.0) == -4.0
        assert evaluate(parse("2^3^2"), 0.0) == 512.0
        assert evaluate(parse("-x^2"), 3.0) == -9.0
        assert evaluate(parse("2^-2"), 0.0) == 0.25

    def test_plus_power_examples(self):
        node = parse("plus(x-0.6)^7")
        assert evaluate(node, 0.5) == 0.0
        assert evaluate(node, 1.0) == pytest.approx(0.0016384, rel=1e-15)
        assert evaluate(node, 0.6) == 0.0

    def test_plus_power_exact_in_dd(self):
        node = parse("plus(x-0.6)^7")
        v = evaluate(node, 1, DOUBLE_DOUBLE)
        ref = DOUBLE_DOUBLE.const("0.0016384")
        assert abs(float(v - ref)) <= 1e-32

    def test_exp_and_ln(self):
        assert evaluate(parse("exp(x)"), 0.0) == 1.0
        assert evaluate(parse("ln(x)"), 1.0) == 0.0
        assert evaluate(parse("exp(x)"), 2.0) == pytest.approx(math.exp(2.0), rel=1e-15)

    def test_fractional_power(self):
        assert evaluate(parse("x^0.5"), 4.0) == pytest.approx(2.0, rel=1e-15)

    def test_domain_errors_carry_abscissa(self):
        with pytest.raises(DomainError) as exc_info:
            evaluate(parse("1/x"), 0.0)
        assert exc_info.value.abscissa == 0.0
        with pytest.raises(DomainError):
            evaluate(parse("ln(x)"), -1.0)
        with pytest.raises(DomainError):
            evaluate(parse("ln(x-5)"), 1.5)
        with pytest.raises(DomainError):
            evaluate(parse("x^0.5"), -2.0)
        with pytest.raises(DomainError):
            evaluate(parse("x^-2"), 0.0)

    @pytest.mark.parametrize("ctx", [DOUBLE, DOUBLE_DOUBLE, mp_context(30)],
                             ids=["double", "dd", "mp:30"])
    def test_plus_of_nan_is_nan(self, ctx):
        value = as_integrand(parse("plus(x)"), ctx)(ctx.const(math.nan))
        assert value != value
        assert _bits(as_integrand(parse("plus(x)"), ctx)(ctx.const(-0.0))) == _bits(ctx.const(0))

    def test_vector_runs_the_tape_over_a_list(self):
        f = as_integrand(parse("plus(x-0.6)^7 + 1/x"), DOUBLE_DOUBLE)
        xs = [DOUBLE_DOUBLE.const(v) for v in ("-1", "0.3", "0.7", "2", "1e-300")]
        hs, ls = f.vector(([x.hi for x in xs], [x.lo for x in xs]))
        assert [(h.hex(), lo.hex()) for h, lo in zip(hs, ls)] == [_bits(f(x)) for x in xs]
        nan = f.vector(([math.nan], [0.0]))
        assert nan[0][0] != nan[0][0]

    def test_vector_raises_the_first_failure_in_list_order(self):
        # over the whole list the division fails first, at x = 1; alone, the
        # abscissa -1 fails earlier in the list, at ln
        f = as_integrand(parse("1/(x-1) + ln(x)"), DOUBLE_DOUBLE)
        with pytest.raises(DomainError) as exc_info:
            f.vector(([0.5, -1.0, 1.0], [0.0, 0.0, 0.0]))
        assert exc_info.value.message == "ln of a non-positive argument"
        assert _bits(exc_info.value.abscissa) == _bits(DoubleDouble(-1.0))

    def test_evaluation_agrees_across_contexts(self):
        texts = ["1/x", "exp(x)", "plus(x-0.6)^7", "x^3-2*x+0.25"]
        c40 = mp_context(40)
        for text in texts:
            node = parse(text)
            for xv in ("0.3", "0.9", "1.7"):
                d = evaluate(node, DOUBLE.const(xv), DOUBLE)
                dd = float(evaluate(node, DOUBLE_DOUBLE.const(xv), DOUBLE_DOUBLE))
                mp = float(evaluate(node, c40.const(xv), c40))
                assert dd == pytest.approx(d, rel=4e-15, abs=1e-18), (text, xv)
                assert mp == pytest.approx(d, rel=4e-15, abs=1e-18), (text, xv)


class TestDifferentiation:
    def test_exp_derivative(self):
        d = differentiate(parse("exp(x)"))
        for xv in (0.0, 1.0, -2.0):
            assert evaluate(d, xv) == pytest.approx(math.exp(xv), rel=1e-14)

    def test_sixth_derivative_of_reciprocal_at_one(self):
        node = parse("1/x")
        for _ in range(6):
            node = differentiate(node)
        assert evaluate(node, 1.0) == pytest.approx(720.0, rel=1e-12)
        assert evaluate(node, 2.0) == pytest.approx(720.0 / 2.0**7, rel=1e-12)

    def test_plus_power_sixth_derivative(self):
        node = parse("plus(x-0.6)^7")
        for _ in range(6):
            node = differentiate(node)
        # equals 5040*plus(x-0.6) as a function, continuous across the kink
        for xv in (-1.0, 0.0, 0.5999, 0.6, 0.8, 1.0):
            expected = 5040.0 * max(xv - 0.6, 0.0)
            assert evaluate(node, xv) == pytest.approx(expected, rel=1e-12, abs=1e-9)

    def test_seventh_derivative_of_plus_power_raises(self):
        node = parse("plus(x-0.6)^7")
        for _ in range(6):
            node = differentiate(node)
        with pytest.raises(NotDifferentiable):
            differentiate(node)

    def test_bare_plus_not_differentiable(self):
        with pytest.raises(NotDifferentiable):
            differentiate(parse("plus(x)"))
        with pytest.raises(NotDifferentiable):
            differentiate(parse("plus(x)^1"))

    def test_non_integer_exponent_not_differentiable(self):
        with pytest.raises(NotDifferentiable):
            differentiate(parse("x^0.5"))
        with pytest.raises(NotDifferentiable):
            differentiate(parse("x^(3/5)"))

    def test_negative_integer_power_rule(self):
        d = differentiate(parse("x^-7"))
        assert evaluate(d, 1.3) == pytest.approx(-7.0 * 1.3**-8, rel=1e-13)

    def test_finite_difference_agreement_on_corpus(self):
        rng = random.Random(7)
        for fn in corpus_mod.CORPUS:
            node = parse(fn.text)
            d = differentiate(node)
            a, b = float(Fraction(fn.a)), float(Fraction(fn.b))
            margin = 0.05 * (b - a)
            checked = 0
            while checked < 50:
                xv = rng.uniform(a + margin, b - margin)
                if fn.kink is not None and abs(xv - fn.kink) < 0.05:
                    continue
                h = 1e-5 * max(1.0, abs(xv))
                fd = (evaluate(node, xv + h) - evaluate(node, xv - h)) / (2 * h)
                dv = evaluate(d, xv)
                assert dv == pytest.approx(fd, rel=1e-6, abs=1e-7), (fn.name, xv)
                checked += 1


class TestRoundTrip:
    @pytest.mark.parametrize("fn", corpus_mod.CORPUS, ids=lambda f: f.name)
    def test_corpus_round_trip(self, fn):
        node = parse(fn.text)
        again = parse(to_text(node))
        assert again == node
        rng = random.Random(13)
        a, b = float(Fraction(fn.a)), float(Fraction(fn.b))
        for _ in range(100):
            xv = rng.uniform(a, b)
            try:
                v1 = evaluate(node, xv)
            except DomainError:
                continue
            assert evaluate(again, xv) == v1

    def test_derivative_round_trip(self):
        node = parse("1/x")
        for _ in range(3):
            node = differentiate(node)
        assert parse(to_text(node)) == node


@given(expression_trees())
@settings(max_examples=150, deadline=None)
# exp(-81): rounding (1/9)^-2 in floats instead of folding it exactly would
# be amplified 81-fold by exp
@example(Exp(Neg(Pow(Constant(Fraction(1, 9)), Fraction(-2)))))
def test_random_tree_round_trip(node):
    # printing then reparsing folds literal subtrees the direct constructors
    # left unfolded; evaluate folds them the same way, so values agree bitwise
    text = to_text(node)
    again = parse(text)
    for xv in (0.37, -1.25, 2.0):
        try:
            expected = evaluate(node, xv)
        except (DomainError, OverflowError):
            continue
        if not math.isfinite(expected):
            continue
        assert evaluate(again, xv) == expected


def _literals(node):
    """The values of the tree's Constant nodes."""
    if isinstance(node, Constant):
        return {node.value}
    kids = [getattr(node, a) for a in ("left", "right", "child", "base") if hasattr(node, a)]
    return set().union(*map(_literals, kids))


def _constants_bound(node):
    """The exact values of the constant registers compiling the tree binds."""
    compiler = _Compiler(DOUBLE)
    compiler.walk(node)
    return {c.value for c in compiler.exact.values()}


def _reduced_constants(node):
    """The exact value of each subtree that reduces to a constant under the
    identities and exact folding."""
    kids = [getattr(node, a) for a in ("left", "right", "child", "base") if hasattr(node, a)]
    value = reduced_value(node)
    return set().union({value} if value is not None else set(), *map(_reduced_constants, kids))


def test_fold_matches_parse_and_keeps_folded_trees():
    raw = Add(Variable(), Mul(Constant(Fraction(1, 3)), Pow(Constant(Fraction(2)), Fraction(-2))))
    parsed_raw = parse(to_text(raw))
    assert parsed_raw == Add(Variable(), Constant(Fraction(1, 12)))
    # the compiler folds the literal subtree to the constant parse gives
    compiler = _Compiler(DOUBLE_DOUBLE)
    out = compiler.walk(raw)
    [(_op, dst, a, b)] = compiler.tape
    assert (dst, a, compiler.exact[b]) == (out, 0, Constant(Fraction(1, 12)))
    for xv in ("0.37", "-1.25", "2"):
        x = DOUBLE_DOUBLE.const(xv)
        assert _bits(as_integrand(raw, DOUBLE_DOUBLE)(x)) == _bits(
            as_integrand(parsed_raw, DOUBLE_DOUBLE)(x)
        )
    # trees from parse and differentiate have nothing left to fold
    parsed = parse("exp(-x^2) / (1 + x) + ln(x)")
    assert _constants_bound(parsed) == _literals(parsed)
    d2 = differentiate(differentiate(parsed))
    # the identities of a literal 0 or 1 operand leave literal-only subtrees
    # in a derivative, which fold: each bound constant is a literal of the
    # tree, or the fold of a literal-only subtree after the identities
    assert _literals(d2) <= _constants_bound(d2) == _reduced_constants(d2)
    # unfoldable literal subtrees are compiled as they are and fail at evaluation
    zero_div = Div(Constant(Fraction(1)), Constant(Fraction(0)))
    assert len(_compile(zero_div, DOUBLE)[1]) == 1
    with pytest.raises(DomainError):
        evaluate(zero_div, 0.5)


# --------------------------------------------------------------------------
# The compiled tape against a plain recursive evaluator


def _bits(value):
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, DoubleDouble):
        return value.hi.hex(), value.lo.hex()
    return value._mpf_  # mpmath's exact (sign, mantissa, exponent, bits)


def _outcome(evaluate_at, x):
    """The value's bits, or what was raised: DomainErrors by message and
    abscissa, anything else by type and text."""
    try:
        return _bits(evaluate_at(x))
    except DomainError as exc:
        return "DomainError", exc.message, _bits(exc.abscissa)
    except (ArithmeticError, ValueError) as exc:
        return type(exc).__name__, str(exc)


_CONTEXTS = {"double": DOUBLE, "dd": DOUBLE_DOUBLE, "mp:30": mp_context(30)}


@given(
    expression_trees(),
    st.sampled_from(sorted(_CONTEXTS)),
    st.lists(
        st.one_of(st.sampled_from([0.0, 1.0, -1.0]), st.floats(min_value=-4, max_value=4)),
        min_size=1,
        max_size=4,
    ),
)
@settings(max_examples=150, deadline=None)
# shared structure: both divisions by (x - 1) share one slot, and ln(x - 2)
# must still raise before 1/(x - 1) does at x = 1
@example(parse("ln(x-2) + 1/(x-1) - 1/(x-1)"), "double", [1.0, 3.0])
@example(parse("x^0.5 + plus(x)^(3/2) - (x-1)^-0.5"), "dd", [0.0, 1.0, 2.0])
# three unary operations on one operand: each needs its own slot
@example(parse("exp(x) - -x*ln(x)"), "mp:30", [0.5, 2.0])
# plus(-0.0) is the bound +0.0, not the operand -0.0
@example(parse("plus(-x)"), "double", [0.0])
# the identities: x*0 is the bound +0.0 at x = -1, 0 - x is -x, 0 times an
# infinite product is 0, and x^0 + 1/10 folds to the literal 11/10
@example(parse("x*0 + (0-x)"), "double", [-1.0, 0.0])
@example(parse("0*(((exp(exp(x))^3)^3)*((exp(exp(x))^3)^3))"), "dd", [4.0])
@example(parse("(x^0+1/10)*3"), "double", [2.0])
def test_tape_matches_recursive_reference_bitwise(node, precision, abscissae):
    ctx = _CONTEXTS[precision]
    f = as_integrand(node, ctx)
    # reading the printed tree back folds its literal subtrees as parse
    # does; the reference applies the identities of a literal 0 or 1 operand
    folded = parse(to_text(node))
    for xv in abscissae:
        x = ctx.const(xv)
        expected = _outcome(lambda x: reduced_reference_eval(folded, x, ctx), x)
        assert _outcome(f, x) == expected
        assert _outcome(lambda x: evaluate(node, x, ctx), x) == expected


def _tree_size(root):
    """(nodes counted as a tree, distinct node objects)."""
    sizes = {}

    def size(node):
        key = id(node)
        if key not in sizes:
            kids = [getattr(node, a) for a in ("left", "right", "child", "base") if hasattr(node, a)]
            sizes[key] = 1 + sum(size(k) for k in kids)
        return sizes[key]

    return size(root), len(sizes)


def test_sixth_derivative_of_reciprocal_compiles_small():
    d6 = parse("1/x")
    for _ in range(6):
        d6 = differentiate(d6)
    # the tree itself is not simplified; differentiate shares the derivative
    # of each shared subtree, and the evaluation plan shares equal subtrees
    assert _tree_size(d6) == (36961, 1530)
    init, _tape, _out = _compile(d6, DOUBLE)
    assert len(init) <= 400
    for ctx in (DOUBLE, DOUBLE_DOUBLE, mp_context(30)):
        f = as_integrand(d6, ctx)
        for xv in ("1", "1.5", "2"):
            x = ctx.const(xv)
            assert _bits(f(x)) == _bits(reference_eval(d6, x, ctx)), (ctx.name, xv)


# --------------------------------------------------------------------------
# The identities of a literal 0 or 1 operand


def _unreduced(monkeypatch):
    """Compile without the identities from here on, as the tape did
    before them."""
    monkeypatch.setattr(_Compiler, "identity", lambda self, kind, a, b: None)


def _sixth(text):
    node = parse(text)
    for _ in range(6):
        node = differentiate(node)
    return node


@pytest.mark.parametrize("text", ["0*ln(x)", "ln(x)*0"])
def test_zero_times_y_is_the_bound_zero(text):
    init, tape, out = _compile(parse(text), DOUBLE)
    assert [ins[0] for ins in tape] == [_LN]  # y still runs
    assert init[out] == 0.0


@pytest.mark.parametrize(
    "text", ["1*ln(x)", "ln(x)*1", "ln(x)/1", "0+ln(x)", "ln(x)+0", "ln(x)-0", "ln(x)^1"]
)
def test_identities_that_leave_the_operand(text):
    init, tape, out = _compile(parse(text), DOUBLE)
    [(op, dst, _a, _b)] = tape
    assert (op, dst) == (_LN, out)


def test_zero_minus_y_is_minus_y():
    _init, tape, out = _compile(parse("0-ln(x)"), DOUBLE)
    [(op1, dst1, _a1, _b1), (op2, dst2, a2, _b2)] = tape
    assert (op1, op2, a2, dst2) == (_LN, _NEG, dst1, out)
    # and a literal y folds: 0 - 3 binds -3
    init, tape, out = _compile(Sub(Constant(Fraction(0)), Constant(Fraction(3))), DOUBLE)
    assert (tape, init[out]) == ((), -3.0)


def test_y_to_the_zero_is_the_bound_one():
    init, tape, out = _compile(parse("ln(x)^0"), DOUBLE)
    assert [ins[0] for ins in tape] == [_LN]
    assert init[out] == 1.0


@pytest.mark.parametrize("precision", sorted(_CONTEXTS))
@pytest.mark.parametrize(
    "text, at, message",
    [
        ("0*ln(x)", -1.0, "ln of a non-positive argument"),
        ("ln(x)^0", -1.0, "ln of a non-positive argument"),
        ("ln(x)*0 + 1*ln(x)", 0.0, "ln of a non-positive argument"),
        ("0*(1/x)", 0.0, "division by zero"),
        ("(x^-2)^1 - 0", 0.0, "zero raised to a negative power"),
    ],
)
def test_an_operand_an_identity_consumes_still_raises(precision, text, at, message):
    ctx = _CONTEXTS[precision]
    x = ctx.const(at)
    assert _outcome(as_integrand(parse(text), ctx), x) == ("DomainError", message, _bits(x))


# Where a value differs from the unreduced tape's: each case, with the value
# of both tapes pinned.


def test_zero_times_an_infinite_operand_is_zero_not_nan(monkeypatch):
    node = parse("0*(x*x)")
    for ctx in (DOUBLE, DOUBLE_DOUBLE):
        x = ctx.const(1e200)
        assert as_integrand(node, ctx)(x) == 0
        assert math.isnan(float(reference_eval(node, x, ctx)))
    _unreduced(monkeypatch)
    assert math.isnan(as_integrand(node, DOUBLE)(1e200))


@pytest.mark.parametrize(
    "text, at, reduced, unreduced",
    [("x*0", -1.0, 0.0, -0.0), ("x+0", -0.0, -0.0, 0.0), ("0-x", 0.0, -0.0, 0.0)],
)
def test_a_zero_result_may_change_sign(monkeypatch, text, at, reduced, unreduced):
    node = parse(text)
    assert as_integrand(node, DOUBLE)(at).hex() == reduced.hex()
    assert reference_eval(node, at, DOUBLE).hex() == unreduced.hex()
    _unreduced(monkeypatch)
    assert as_integrand(node, DOUBLE)(at).hex() == unreduced.hex()


def test_a_dd_value_above_2_996_times_one_keeps_its_low_word(monkeypatch):
    # the split product of __mul__ overflows there, so x * 1 drops the low word
    x = DoubleDouble(2.0**1000, 2.0**940)
    node = parse("x*1")
    assert _bits(as_integrand(node, DOUBLE_DOUBLE)(x)) == _bits(x)
    assert _bits(reference_eval(node, x, DOUBLE_DOUBLE)) == _bits(DoubleDouble(2.0**1000))
    _unreduced(monkeypatch)
    assert _bits(as_integrand(node, DOUBLE_DOUBLE)(x)) == _bits(DoubleDouble(2.0**1000))


def test_an_identity_can_leave_a_literal_subtree_that_folds_exactly(monkeypatch):
    # x^0 + 1/10 is the literal 11/10, so (x^0 + 1/10)*3 binds 33/10; the
    # unreduced tape rounds the sum and the product
    node = parse("(x^0+1/10)*3")
    init, tape, out = _compile(node, DOUBLE)
    assert (tape, init[out]) == ((), 3.3)
    assert reference_eval(node, 2.0, DOUBLE) == 3.3000000000000003
    _unreduced(monkeypatch)
    assert as_integrand(node, DOUBLE)(2.0) == 3.3000000000000003


@pytest.mark.parametrize("text, length", [("1/x", 91), ("ln(x)", 52), ("exp(x)", 1)])
def test_sixth_derivative_tape_lengths(text, length):
    assert len(_compile(_sixth(text), DOUBLE)[1]) == length


def test_a_run_fills_only_the_constants_it_reads():
    # 6 of the 9 constants of the 1/x sixth-derivative tape are literals of
    # operands an identity consumed, so no instruction reads them
    filled = []

    class Counting(DoubleContext):
        lists = DOUBLE.lists._replace(
            fill=lambda c, u: filled.append(c) or DOUBLE.lists.fill(c, u)
        )

    d6 = _sixth("1/x")
    assert sum(c is not None for c in _compile(d6, DOUBLE)[0]) == 9
    f = as_integrand(d6, Counting())
    assert f(1.5) == as_integrand(d6, DOUBLE)(1.5)
    assert len(filled) == 3
    f.values([1.5] * (_CHUNK + 1))  # two runs
    assert len(filled) == 3 + 2 * 3


@pytest.mark.parametrize("text, unread", [("x^7", 5), ("x^8-9/5*x^6", 6)])
def test_a_result_that_nothing_reads_is_dropped_as_it_is_written(text, unread):
    init, tape, out = _compile(_sixth(text), DOUBLE)
    steps, _consts = _bind(tape, init, out, DOUBLE)
    assert sum(dst in dead for _kernel, dst, _a, _b, dead, _op in steps) == unread
    assert not any(out in dead for *_rest, dead, _op in steps)


@pytest.mark.parametrize("precision", sorted(_CONTEXTS))
def test_a_bound_tape_is_freed_without_the_cycle_collector(precision):
    ctx = _CONTEXTS[precision]
    f = as_integrand(parse("1/x + ln(x)"), ctx)
    assert f.values([ctx.const(2)]) == [f(ctx.const(2))]
    ref = weakref.ref(f)
    enabled = gc.isenabled()
    gc.disable()
    try:
        del f
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("precision", sorted(_CONTEXTS))
def test_order_zero_tapes_are_untouched(monkeypatch, precision):
    # the corpus integrands and the tables' 1/x and exp(x) run the
    # instructions they ran before the identities
    ctx = _CONTEXTS[precision]
    texts = [fn.text for fn in corpus_mod.CORPUS] + ["1/x", "exp(x)"]

    def tapes():
        return [_pin_record((tuple(init), tape, out))
                for init, tape, out in (_compile(parse(text), ctx) for text in texts)]

    reduced = tapes()
    _unreduced(monkeypatch)
    assert tapes() == reduced


_CORPUS_BY_NAME = {fn.name: fn for fn in corpus_mod.CORPUS}
_D6_GRIDS = {}


def _d6_grid_values(name, precision):
    """The sixth derivative of a corpus integrand, the 1025-point grid over
    its interval, and the values of the bound tape there."""
    key = name, precision
    if key not in _D6_GRIDS:
        fn, ctx = _CORPUS_BY_NAME[name], _CONTEXTS[precision]
        d6 = _sixth(fn.text)
        xs = partition_points(Interval(ctx.const(fn.a), ctx.const(fn.b)), 1024, ctx)
        _D6_GRIDS[key] = d6, xs, as_integrand(d6, ctx).values(xs)
    return _D6_GRIDS[key]


@given(
    st.sampled_from(sorted(_CORPUS_BY_NAME)),
    st.sampled_from(sorted(_CONTEXTS)),
    st.lists(st.integers(min_value=0, max_value=1024), min_size=1, max_size=2),
)
@settings(max_examples=15, deadline=None)
@example("inv_x", "double", [0, 512, 1024])
@example("inv_x", "dd", [1, 1023])
@example("ln", "mp:30", [0, 1024])
def test_the_reduced_sixth_derivative_grid_matches_the_unreduced_tree_bitwise(
    name, precision, picks
):
    # the unreduced tree's plain recursive value, wherever it is finite and
    # nonzero, is the reduced tape's bit for bit, but for the sign of a dd's
    # zero low word: -720 may be (-720.0, 0.0) where it was (-720.0, -0.0)
    ctx = _CONTEXTS[precision]
    d6, xs, values = _d6_grid_values(name, precision)

    def bits(v):
        return _bits(DoubleDouble(v.hi, v.lo + 0.0) if isinstance(v, DoubleDouble) else v)

    for i in picks:
        want = reference_eval(d6, xs[i], ctx)
        if want != 0 and want - want == 0:
            assert bits(values[i]) == bits(want), (name, precision, i)


# --------------------------------------------------------------------------
# The list runner against calls at one abscissa


def _list_outcome(values):
    """The bits of each of values(), or what it raised, as `_outcome`
    reports it."""
    try:
        return [_bits(v) for v in values()]
    except DomainError as exc:
        return "DomainError", exc.message, _bits(exc.abscissa)
    except (ArithmeticError, ValueError) as exc:
        return type(exc).__name__, str(exc)


_LENGTHS = [1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 1025]
_CORPUS_TREES = [parse(fn.text) for fn in corpus_mod.CORPUS]


@given(
    st.one_of(st.sampled_from(_CORPUS_TREES), expression_trees()),
    st.sampled_from(sorted(_CONTEXTS)),
    st.sampled_from(_LENGTHS),
    st.sampled_from([0.02, 0.5]),
    st.integers(min_value=0, max_value=2**32),
)
@settings(max_examples=60, deadline=None)
# a pole at the one abscissa of the second chunk: the first chunk's run
# succeeds, the second's fails
@example(parse("1/(x-1)"), "double", _CHUNK + 1, 0.02, 565)
# the abscissae 0, 2, -0.222: plus(-0.0) is the bound +0.0
@example(parse("plus(-x)"), "double", 3, 0.5, 1)
def test_values_match_calls_bitwise(node, precision, length, special, seed):
    ctx = _CONTEXTS[precision]
    rng = random.Random(seed)
    xs = [
        rng.choice([0.0, 1.0, -1.0, 2.0]) if rng.random() < special else rng.uniform(-4, 4)
        for _ in range(length)
    ]
    f = as_integrand(node, ctx)
    xs = [ctx.const(x) for x in xs]
    assert _list_outcome(lambda: f.values(xs)) == _list_outcome(lambda: [f(x) for x in xs])


@given(
    st.one_of(st.sampled_from(_CORPUS_TREES), expression_trees()),
    st.sampled_from(sorted(_CONTEXTS)),
    st.sampled_from([0, *_LENGTHS]),
    st.sampled_from([0.02, 0.5]),
    st.integers(min_value=0, max_value=2**32),
)
@settings(max_examples=60, deadline=None)
@example(parse("1/(x-1)"), "dd", _CHUNK + 1, 0.02, 565)
@example(parse("ln(x) + 1/(x-1)"), "mp:30", 3, 0.5, 1)
def test_the_one_runner_matches_the_recursive_reference_bitwise(
    node, precision, length, special, seed
):
    # f(x), values(xs) and the vector entry are runs of one runner; each
    # agrees with a plain recursive evaluation of the tree read back, with
    # the identities
    ctx = _CONTEXTS[precision]
    rng = random.Random(seed)
    xs = [
        ctx.const(rng.choice([0.0, 1.0, -1.0, 2.0]) if rng.random() < special
                  else rng.uniform(-4, 4))
        for _ in range(length)
    ]
    f = as_integrand(node, ctx)
    lists = ctx.lists
    folded = parse(to_text(node))
    want = _list_outcome(lambda: [reduced_reference_eval(folded, x, ctx) for x in xs])
    assert _list_outcome(lambda: [f(x) for x in xs]) == want
    assert _list_outcome(lambda: f.values(xs)) == want
    assert _list_outcome(lambda: lists.scalars(f.vector(lists.vector(xs)))) == want
    if length == 0:
        assert f.values(xs) == []


@pytest.mark.parametrize("precision", sorted(_CONTEXTS))
@pytest.mark.parametrize(
    "text, a, b, message, at",
    [
        ("1/x", "-1", "1", "division by zero", 0.0),
        ("ln(x)", "0", "1", "ln of a non-positive argument", 0.0),
        # dd's exp overflows above 709, double's above 709.78; mp's never
        ("exp(x)", "700", "720", "exp overflow",
         {"dd": 709.00390625, "double": 709.78515625, "mp:30": None}),
        ("x^-2", "-1", "1", "zero raised to a negative power", 0.0),
    ],
)
def test_values_on_a_failing_grid_raise_the_first_failure(precision, text, a, b, message, at):
    ctx = _CONTEXTS[precision]
    f = as_integrand(parse(text), ctx)
    xs = partition_points(Interval(ctx.const(a), ctx.const(b)), 1024, ctx)
    outcome = _list_outcome(lambda: f.values(xs))
    assert outcome == _list_outcome(lambda: [f(x) for x in xs])
    if isinstance(at, dict):
        at = at[precision]
    if at is not None:
        assert outcome == ("DomainError", message, _bits(ctx.const(at)))


@pytest.mark.parametrize("precision", sorted(_CONTEXTS))
@pytest.mark.parametrize(
    "first, second", [(0, 5), (3, 5), (10, _CHUNK + 6), (_CHUNK, _CHUNK + 1)]
)
def test_values_raise_for_the_first_abscissa_not_the_first_instruction(precision, first, second):
    # ln(x) runs before the division; x = 1 fails at the division, earlier
    # in the list than x = -1, which fails at ln
    ctx = _CONTEXTS[precision]
    f = as_integrand(parse("ln(x) + 1/(x-1)"), ctx)
    xs = [ctx.const(0.5)] * (2 * _CHUNK)
    xs[first] = ctx.const(1.0)
    xs[second] = ctx.const(-1.0)
    outcome = _list_outcome(lambda: f.values(xs))
    assert outcome == ("DomainError", "division by zero", _bits(ctx.const(1.0)))
    assert outcome == _list_outcome(lambda: [f(x) for x in xs])


@pytest.mark.parametrize("precision", sorted(_CONTEXTS))
@pytest.mark.parametrize(
    "text, at, message, mp_holds",
    [
        ("1/x", 0.0, "division by zero", False),
        ("x^-2", 0.0, "zero raised to a negative power", False),
        ("x^-2", 1e-200, "power overflow", True),
        ("ln(x)", 0.0, "ln of a non-positive argument", False),
        ("ln(x)", -1.0, "ln of a non-positive argument", False),
        ("exp(x)", 720.0, "exp overflow", True),
        ("x^(1/2)", -1.0, "fractional power of a negative base", False),
        ("x^(-1/2)", 0.0, "zero raised to a negative power", False),
        ("x^(3/2)", 1e300, "power overflow", True),
    ],
)
def test_each_domain_error_at_its_boundary(precision, text, at, message, mp_holds):
    # one entry of the domain-error table each, alone and after a good
    # abscissa in one run; mp's exponent range holds the overflowing values
    ctx = _CONTEXTS[precision]
    f = as_integrand(parse(text), ctx)
    x = ctx.const(at)
    alone = _outcome(f, x)
    in_a_run = _list_outcome(lambda: f.values([ctx.const(1.0), x]))
    if precision == "mp:30" and mp_holds:
        assert in_a_run == [_outcome(f, ctx.const(1.0)), alone]
        assert mpmath.isfinite(f(x))
    else:
        assert alone == in_a_run == ("DomainError", message, _bits(x))


def test_a_dd_divisor_with_a_zero_leading_word_is_a_domain_error():
    # the division kernel decides: a zero leading word is a zero divisor,
    # whatever the trailing word of a pair that is not normalized
    f = as_integrand(parse("1/x"), DOUBLE_DOUBLE)
    x = DoubleDouble(0.0, 1e-300)
    assert _outcome(f, x) == ("DomainError", "division by zero", _bits(x))


# --------------------------------------------------------------------------
# Memoized differentiation against the plain recursion


@given(
    st.one_of(st.sampled_from(_CORPUS_TREES), expression_trees()),
    st.integers(min_value=1, max_value=6),
)
@settings(max_examples=80, deadline=None)
@example(parse("1/x"), 6)
@example(parse("plus(x-0.6)^7"), 6)
def test_differentiate_builds_the_recursive_tree(node, order):
    got = want = node
    for _ in range(order):
        try:
            want = reference_differentiate(want)
        except NotDifferentiable as exc:
            with pytest.raises(NotDifferentiable, match=re.escape(str(exc))):
                differentiate(got)
            return
        got = differentiate(got)
        assert got == want
        assert _tree_size(got)[0] == _tree_size(want)[0]
        if _tree_size(want)[0] > 20_000:  # the plain recursion grows too slow
            return


# --------------------------------------------------------------------------
# Printed text and compiled tapes, pinned


# Edge expressions for signs, exponents and parentheses that the printer
# and the folding must keep as they are.
_PIN_EDGES = [
    "--x", "x--x", "(-x)^2", "-x^2", "2^-3*x", "(x^(-1/2))^3", "x-(1-x)-(2+x)",
    "3*(2/x)-x/(2-x)", "-(x*x)/-(1+x)", "plus(1-x)^3*exp(-x)", "ln(1+x^2)",
    "1/(1-1)+x", "(0.1*x+1/3)^-2",
]


def _pin_record(v):
    """A register value, immediate or operand as plain data."""
    if v is None or isinstance(v, int):
        return v
    if isinstance(v, tuple):
        return tuple(_pin_record(e) for e in v)
    return _bits(v)


def _printed_and_compiled() -> str:
    """sha256 over to_text and _compile output for the corpus and the edge
    expressions, at derivative orders 0-6, in double, dd and mp:30."""
    h = hashlib.sha256()
    for text in [fn.text for fn in corpus_mod.CORPUS] + _PIN_EDGES:
        node = parse(text)
        for order in range(7):
            if order:
                try:
                    node = differentiate(node)
                except NotDifferentiable as exc:
                    h.update(f"{text} {order} NotDifferentiable: {exc}\n".encode())
                    break
            h.update(f"{text} {order} {to_text(node)}\n".encode())
            for name in sorted(_CONTEXTS):
                init, tape, out = _compile(node, _CONTEXTS[name])
                record = (_pin_record(tuple(init)), _pin_record(tape), out)
                h.update(f"{name} {record!r}\n".encode())
    return h.hexdigest()


def test_printed_text_and_tapes_are_pinned():
    # the identities of a literal 0 or 1 operand moved the tapes of orders
    # 1-6; no order-0 tape moved (test_order_zero_tapes_are_untouched)
    assert _printed_and_compiled() == (
        "fbca94b0f33115df6cd74e1ecc7918b0d31c8757583ed6998bac6d4a73ab4446"
    )


# --------------------------------------------------------------------------
# The operators declared on the node classes against one constructor and
# one printer branch per operator

_LITERALS = st.sampled_from(
    [Fraction(0), Fraction(-3), Fraction(1, 3), Fraction(-7, 2), Fraction(5)]
).map(Constant)


@given(
    st.sampled_from(sorted(REFERENCE_CONSTRUCTORS, key=lambda kind: kind.__name__)),
    st.one_of(_LITERALS, expression_trees()),
    st.one_of(_LITERALS, expression_trees()),
)
@settings(max_examples=300, deadline=None)
@example(Div, Constant(Fraction(1)), Constant(Fraction(0)))
@example(Div, Constant(Fraction(0)), Constant(Fraction(0)))
@example(Plus, Constant(Fraction(-1, 2)), X)
@example(Plus, Constant(Fraction(0)), X)
@example(Exp, Constant(Fraction(0)), X)
def test_mk_folds_as_the_reference_constructors(kind, a, b):
    reference = REFERENCE_CONSTRUCTORS[kind]
    if kind in (Add, Sub, Mul, Div):
        got, want = _mk(kind, a, b), reference(a, b)
    else:
        got, want = _mk(kind, a), reference(a)
    # repr tells a Fraction value from an int one
    assert (got, repr(got)) == (want, repr(want))


@given(expression_trees())
@settings(max_examples=300, deadline=None)
@example(Neg(Neg(Sub(X, Neg(X)))))
@example(Pow(Neg(Pow(X, Fraction(-1, 2))), Fraction(3)))
@example(Div(Mul(X, Div(X, X)), Sub(X, Add(X, X))))
def test_to_text_matches_the_reference_printer(node):
    assert to_text(node) == reference_to_text(node)
