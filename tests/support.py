"""Shared test oracles, reference implementations and frozen values.

The oracles are independent of the package's quadrature path: the exact
polynomial oracle works in Fraction arithmetic from the rules' algebraic
definitions (symmetric node pairs have rational squared offsets, so even
powers rationalize), and transcendental references are mpmath at 50 digits
or frozen decimal strings derived from it.  The references -- one simple
rule per subinterval, double-double operators composed from Dekker's
error-free transformations, a power by binary powering through those
operators, a recursive evaluator (and one that applies the tape's
identities of a literal 0 or 1 operand), a recursive differentiation, one
folding constructor per operator and a printer with its own precedences --
are the plain forms that the package's fused composite pass, written-out
operators, power kernel and tapes must reproduce bit for bit, whose trees
its memoized differentiation must build, and which its one constructor
`_mk` and its `to_text` must match.  The two checkers' own report loops, with their
verdict function, are the references for the one report builder.  A
generated family of 5-convex and 5-concave integrands with exact integrals
is the reference for the promise that an exit-0 answer is within eps.
"""
from __future__ import annotations

import math
import struct
from fractions import Fraction

import mpmath
from hypothesis import strategies as st

from quintiq.convexity import ConvexityReport, Verdict
from quintiq.expr import (
    _ONE, _ZERO, Add, Constant, Div, DomainError, Exp, Ln, Mul, Neg, NotDifferentiable,
    Plus, Pow, Sub, Variable,
)
from quintiq.rules import IntegrandError, Interval, call_integrand, rule_table
from quintiq.scalars import DOUBLE, DoubleDouble

mpmath.mp.dps = 50

# Paper benchmark tables: subdivisions for 1/x on [1,2] at eps = 1e-1..1e-16
PAPER_EXP1_QUINTIC = [1, 1, 1, 1, 2, 2, 3, 4, 6, 9, 13, 19, 27, 39, 57, 84]
PAPER_EXP1_CUBIC = [1, 1, 1, 2, 3, 5, 9, 16, 28, 50, 89, 158, 280, 498, 884, 1572]
# and for exp on [0,b], b = 1..10, at eps = 1e-8
PAPER_EXP2_QUINTIC = [2, 5, 9, 14, 21, 29, 40, 54, 71, 93]
PAPER_EXP2_CUBIC = [12, 33, 64, 111, 178, 275, 412, 604, 872, 1244]

# High-precision constants, frozen from a 50-digit mpmath evaluation
LN2 = "0.693147180559945309417232121458176568075500134"
TWO_LN2_MINUS_1 = "0.386294361119890618834464242916353136151000269"
EXP_MINUS_1 = {
    1: "1.71828182845904523536028747135266249775724709",
    2: "6.38905609893065022723042746057500781318031557",
    3: "19.0855369231876677409285296545817178969879078",
    4: "53.598150033144239078110261202860878402790737",
    5: "147.413159102576603421115580040552279623487668",
    6: "402.428793492735122608387180543388279605899897",
    7: "1095.63315842845859926372023828812143244221913",
    8: "2979.95798704172827474359209945288867375596794",
    9: "8102.08392757538400770999668943275996501147609",
    10: "22025.4657948067165169579006452842443663535126",
}
# |L_n - G_n| for 1/x on [1,2]
GAP_1X_N4 = "3.07083929218582231948549218077e-8"
GAP_1X_N3 = "1.62768657819609346448394818459e-7"

# For f = 1/x on [1,2] the symmetric node pairs rationalize, so the simple
# rule values are exact rationals.
G_1X_12 = Fraction(131, 189)
L_1X_12 = Fraction(61, 88)
Q_1X_12 = Fraction(15371, 22176)
GAP_1X_N1 = Fraction(1, 16632)  # = L - G

# Canonical rule data for the exact polynomial oracle: symmetric pairs are
# (squared node offset, weight); "middle" is the weight at t = 0.
_RULE_DATA = {
    "gauss3": {"pairs": [(Fraction(3, 5), Fraction(5, 9))], "middle": Fraction(8, 9)},
    "lobatto4": {
        "pairs": [(Fraction(1), Fraction(1, 6)), (Fraction(1, 5), Fraction(5, 6))],
        "middle": None,
    },
    "simpson": {"pairs": [(Fraction(1), Fraction(1, 3))], "middle": Fraction(4, 3)},
    "chebyshev3": {"pairs": [(Fraction(1, 2), Fraction(2, 3))], "middle": Fraction(2, 3)},
}


def _pair_power_sum(m: Fraction, s2: Fraction, k: int) -> Fraction:
    """(m+s)^k + (m-s)^k where s^2 = s2; odd powers of s cancel."""
    total = Fraction(0)
    for j in range(0, k + 1, 2):
        total += 2 * math.comb(k, j) * m ** (k - j) * s2 ** (j // 2)
    return total


def exact_rule_poly(rule_name: str, coeffs, a: Fraction, b: Fraction) -> Fraction:
    """Exact simple-rule value for sum_k coeffs[k] x^k over [a, b]."""
    a, b = Fraction(a), Fraction(b)
    h = (b - a) / 2
    m = (a + b) / 2
    data = _RULE_DATA[rule_name]
    total = Fraction(0)
    for k, c in enumerate(coeffs):
        if c == 0:
            continue
        c = Fraction(c)
        node_sum = Fraction(0)
        for s2, w in data["pairs"]:
            node_sum += w * _pair_power_sum(m, h * h * s2, k)
        if data["middle"] is not None:
            node_sum += data["middle"] * m**k
        total += c * node_sum
    return h * total


def exact_integral_poly(coeffs, a: Fraction, b: Fraction) -> Fraction:
    a, b = Fraction(a), Fraction(b)
    return sum(
        Fraction(c) * (b ** (k + 1) - a ** (k + 1)) / (k + 1)
        for k, c in enumerate(coeffs)
        if c != 0
    )


def mp_simple_rule(rule_name: str, f, a, b):
    """The paper-form simple rules, written directly in mpmath."""
    a, b = mpmath.mpf(a), mpmath.mpf(b)
    h = (b - a) / 2
    m = (a + b) / 2
    if rule_name == "gauss3":
        r = mpmath.sqrt(15) / 5
        return (b - a) / 18 * (5 * f(m - h * r) + 8 * f(m) + 5 * f(m + h * r))
    if rule_name == "lobatto4":
        r = mpmath.sqrt(5) / 5
        return (b - a) / 12 * (f(a) + 5 * f(m - h * r) + 5 * f(m + h * r) + f(b))
    if rule_name == "simpson":
        return (b - a) / 6 * (f(a) + 4 * f(m) + f(b))
    if rule_name == "chebyshev3":
        r = mpmath.sqrt(2) / 2
        return (b - a) / 3 * (f(m - h * r) + f(m) + f(m + h * r))
    raise ValueError(rule_name)


def dd_to_mpf(x):
    return mpmath.mpf(x.hi) + mpmath.mpf(x.lo)


def rel_err(value, reference) -> float:
    v = float(value)
    r = float(reference)
    if r == 0.0:
        return abs(v)
    return abs(v - r) / abs(r)


# Reference double-double operators: the composition of Dekker's error-free
# transformations that DoubleDouble's written-out operators must reproduce
# bit for bit.  Each takes two operands, at least one a DoubleDouble, coerces
# them as the operators do, and returns the result as a (hi, lo) pair.
_SPLITTER = 134217729.0  # 2**27 + 1


def two_sum(a: float, b: float) -> tuple[float, float]:
    """Knuth two-sum: s + e == a + b exactly."""
    s = a + b
    t = s - a
    return s, (a - (s - t)) + (b - t)


def quick_two_sum(a: float, b: float) -> tuple[float, float]:
    """Dekker fast two-sum; requires |a| >= |b| or a == 0."""
    s = a + b
    return s, b - (s - a)


def two_prod(a: float, b: float) -> tuple[float, float]:
    """Dekker product: p + e == a * b exactly."""
    p = a * b
    ah = _SPLITTER * a
    ah = ah - (ah - a)
    al = a - ah
    bh = _SPLITTER * b
    bh = bh - (bh - b)
    bl = b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def ref_add(x, y) -> tuple[float, float]:
    x, y = DoubleDouble._coerce(x), DoubleDouble._coerce(y)
    s, e = two_sum(x.hi, y.hi)
    t, f = two_sum(x.lo, y.lo)
    e += t
    s, e = quick_two_sum(s, e)
    e += f
    return quick_two_sum(s, e)


def ref_sub(x, y) -> tuple[float, float]:
    y = DoubleDouble._coerce(y)
    return ref_add(x, DoubleDouble(-y.hi, -y.lo))


def ref_mul(x, y) -> tuple[float, float]:
    x, y = DoubleDouble._coerce(x), DoubleDouble._coerce(y)
    p, e = two_prod(x.hi, y.hi)
    e += x.hi * y.lo + x.lo * y.hi
    hi, lo = quick_two_sum(p, e)
    if lo != lo:
        return p, 0.0
    return hi, lo


def ref_div(x, y) -> tuple[float, float]:
    x, y = DoubleDouble._coerce(x), DoubleDouble._coerce(y)
    if y.hi == 0.0:
        raise ZeroDivisionError("double-double division by zero")
    q1 = x.hi / y.hi
    r = DoubleDouble(*ref_sub(x, DoubleDouble(*ref_mul(y, DoubleDouble(q1)))))
    q2 = r.hi / y.hi
    r = DoubleDouble(*ref_sub(r, DoubleDouble(*ref_mul(y, DoubleDouble(q2)))))
    q3 = r.hi / y.hi
    s, e = quick_two_sum(q1, q2)
    e += q3
    hi, lo = quick_two_sum(s, e)
    if lo != lo:
        return q1, 0.0
    return hi, lo


def reference_pow(base, n: int):
    """base ** n for an int n.  For a DoubleDouble, binary powering through
    its operators -- the plain form that the power kernel must reproduce
    bitwise -- from the first power it needs, not from 1.0 -- raising
    OverflowError where float ** would overflow; any other scalar uses its
    own **."""
    if not isinstance(base, DoubleDouble):
        return base**n
    if n == 0:
        return DoubleDouble(1.0)
    result = None
    square = base
    k = abs(n)
    while k:
        if k & 1:
            result = square if result is None else result * square
        square = square * square  # the last squaring is unused and may overflow
        k >>= 1
    if n < 0:
        if result.hi == 0.0 and base.hi != 0.0:
            # the positive power underflowed, so its reciprocal overflows
            raise OverflowError("double-double power overflow")
        return DoubleDouble(1.0) / result
    if math.isinf(result.hi) and math.isfinite(base.hi):
        raise OverflowError("double-double power overflow")
    return result


# Reference rules: each simple rule applied on its own, the composite rule as
# their left-to-right sum, and the pair of composite rules of a plain pass
# that calls f as it goes, all through the context's scalar operators; the
# list kernels of composite_pair must match them bitwise.


def reference_partition(iv: Interval, n: int, ctx=DOUBLE) -> list:
    """n+1 points: x_k = a + (k*(b-a))/n, or a + k*((b-a)/n) where k*(b-a)
    is not finite; x_0 = a and x_n = b."""
    a, b = ctx.const(iv.a), ctx.const(iv.b)
    width = b - a
    xs = [a]
    for k in range(1, n):
        kw = k * width
        xs.append(a + kw / n if kw - kw == 0 else a + k * (width / n))
    xs.append(b)
    return xs


def apply_rule(rule_id, f, iv: Interval, ctx=DOUBLE):
    """((b-a)/2) * sum of w_k f(m + h*t_k), summed left to right.

    Nodes at t = -1 / +1 map to the endpoints a / b exactly, so composite
    rules can share endpoint evaluations without changing any value.
    """
    a, b = ctx.const(iv.a), ctx.const(iv.b)
    h = (b - a) / 2
    m = (a + b) / 2
    total = None
    for node, weight in rule_table(rule_id, ctx):
        if node == -1:
            x = a
        elif node == 1:
            x = b
        else:
            x = m + h * node
        term = weight * call_integrand(f, x)
        total = term if total is None else total + term
    return h * total


def composite_rule(rule_id, f, iv: Interval, n: int, ctx=DOUBLE):
    """Sum of the simple rule over the n-piece uniform partition."""
    if n < 1:
        raise ValueError(f"subdivision count must be >= 1, got {n}")
    xs = reference_partition(iv, n, ctx)
    total = None
    for k in range(1, n + 1):
        try:
            piece = apply_rule(rule_id, f, Interval(xs[k - 1], xs[k]), ctx)
        except IntegrandError as exc:
            raise IntegrandError(exc.abscissa, exc.cause, k) from exc.cause
        total = piece if total is None else total + piece
    return total


def blend_q(g_value, l_value):
    """The blended rule value (3 G + L) / 4."""
    return (3 * g_value + l_value) / 4


def _node_key(t):
    """A rule node's bit pattern, so that -0.0 and 0.0 are distinct nodes."""
    if isinstance(t, DoubleDouble):
        return struct.pack("<dd", t.hi, t.lo)
    if isinstance(t, float):
        return struct.pack("<d", t)
    return t._mpf_


def _pair_ops(f, iv, n, ctx, open_points, closed_points) -> tuple:
    """(g_n, l_n, q_n) of a pass through the context's scalar operators,
    calling f at every partition point, then at the nodes of each
    subinterval as its sums first need them: a closed-rule node with the
    bits of an open-rule node takes that node's value."""
    w_first = closed_points[0][1]
    w_last = closed_points[-1][1]
    closed_interior = closed_points[1:-1]

    xs = reference_partition(iv, n, ctx)
    end_values = [call_integrand(f, x, max(k, 1)) for k, x in enumerate(xs)]

    g_total = l_total = q_total = None
    for k in range(1, n + 1):
        a_k, b_k = xs[k - 1], xs[k]
        h = (b_k - a_k) / 2
        m = (a_k + b_k) / 2
        node_values = {}

        def value(node):
            key = _node_key(node)
            if key not in node_values:
                node_values[key] = call_integrand(f, m + h * node, k)
            return node_values[key]

        g_sum = None
        for node, weight in open_points:
            term = weight * value(node)
            g_sum = term if g_sum is None else g_sum + term
        g_k = h * g_sum

        l_sum = w_first * end_values[k - 1]
        for node, weight in closed_interior:
            l_sum = l_sum + weight * value(node)
        l_sum = l_sum + w_last * end_values[k]
        l_k = h * l_sum

        q_k = blend_q(g_k, l_k)
        g_total = g_k if g_total is None else g_total + g_k
        l_total = l_k if l_total is None else l_total + l_k
        q_total = q_k if q_total is None else q_total + q_k
    return g_total, l_total, q_total


# Random expression trees, and a plain recursive evaluator that the compiled
# tapes must match bit for bit.


def _leaf():
    return st.one_of(
        st.just(Variable()),
        st.integers(min_value=-9, max_value=9).map(lambda n: Constant(Fraction(n))),
        st.tuples(
            st.integers(min_value=-20, max_value=20), st.integers(min_value=1, max_value=9)
        ).map(lambda t: Constant(Fraction(t[0], t[1]))),
    )


def expression_trees():
    """Random expression trees, built with the node constructors, unfolded."""
    return st.recursive(
        _leaf(),
        lambda children: st.one_of(
            st.tuples(children, children).map(lambda t: Add(t[0], t[1])),
            st.tuples(children, children).map(lambda t: Sub(t[0], t[1])),
            st.tuples(children, children).map(lambda t: Mul(t[0], t[1])),
            st.tuples(children, children).map(lambda t: Div(t[0], t[1])),
            children.map(Neg),
            children.map(Plus),
            children.map(Exp),
            children.map(lambda c: Ln(Add(Pow(c, Fraction(2)), Constant(Fraction(1))))),
            children.map(lambda c: Pow(c, Fraction(3))),
            children.map(lambda c: Pow(c, Fraction(-2))),
        ),
        max_leaves=12,
    )


def reference_eval(node, x, ctx):
    """Un-memoized recursive evaluation with explicit domain checks, whose
    errors the tape's kernels and its table of domain errors must raise."""
    if isinstance(node, Constant):
        return ctx.const(node.value)
    if isinstance(node, Variable):
        return x
    return _apply(node, [reference_eval(kid, x, ctx) for kid in _operands(node)], x, ctx)


def _operands(node) -> tuple:
    if isinstance(node, (Add, Sub, Mul, Div)):
        return node.left, node.right
    if isinstance(node, Pow):
        return (node.base,)
    return (node.child,)


def _apply(node, operands: list, x, ctx):
    """node's own operation on the values of its operands."""
    if isinstance(node, (Add, Sub, Mul, Div)):
        left, right = operands
        if isinstance(node, Add):
            return left + right
        if isinstance(node, Sub):
            return left - right
        if isinstance(node, Mul):
            return left * right
        if right == 0:
            raise DomainError("division by zero", x)
        return left / right
    [v] = operands
    if isinstance(node, Pow):
        k = node.exponent
        if k.denominator == 1:
            if k < 0 and v == 0:
                raise DomainError("zero raised to a negative power", x)
            try:
                return reference_pow(v, int(k))
            except OverflowError:
                raise DomainError("power overflow", x) from None
        if v == 0:
            if k > 0:
                return ctx.const(0)
            raise DomainError("zero raised to a negative power", x)
        if v < 0:
            raise DomainError("fractional power of a negative base", x)
        try:
            return ctx.exp(ctx.const(k) * ctx.ln(v))
        except OverflowError:
            raise DomainError("power overflow", x) from None
    if isinstance(node, Neg):
        return -v
    if isinstance(node, Exp):
        try:
            return ctx.exp(v)
        except OverflowError:
            raise DomainError("exp overflow", x) from None
    if isinstance(node, Ln):
        if v <= 0:
            raise DomainError("ln of a non-positive argument", x)
        return ctx.ln(v)
    return ctx.const(0) if v <= 0 else v  # Plus: nan passes through


# The tape's identities of a literal 0 or 1 operand, in plain recursive form:
# 0*y = y*0 = 0, 1*y = y*1 = y/1 = y, 0+y = y+0 = y-0 = y, 0-y = -y,
# y^0 = 1 and y^1 = y, where an operand is a literal when it reduces to a
# constant.  Every operand is still evaluated, so its domain errors raise.


def _identity(node, literals: list):
    """What an identity makes of node, given the reduced values of its
    operands (None where one is not a constant): a `Constant`, "left",
    "right", "-right" (0 - y), or None where no identity applies."""
    if isinstance(node, Pow):
        k = node.exponent
        return Constant(Fraction(1)) if k == 0 else "left" if k == 1 else None
    if not isinstance(node, (Add, Sub, Mul, Div)):
        return None
    l, r = literals
    if isinstance(node, Mul):
        if l == 0 or r == 0:
            return Constant(Fraction(0))
        if l == 1:
            return "right"
        if r == 1:
            return "left"
    elif isinstance(node, Add):
        if l == 0:
            return "right"
        if r == 0:
            return "left"
    elif isinstance(node, Sub):
        if r == 0:
            return "left"
        if l == 0:
            return "-right"
    elif r == 1:
        return "left"
    return None


def reduced_value(node):
    """The exact value of node if it reduces to a constant -- a literal, an
    identity's constant, or the exact fold of operands that reduce to
    constants -- else None."""
    if isinstance(node, Constant):
        return node.value
    if isinstance(node, Variable):
        return None
    literals = [reduced_value(kid) for kid in _operands(node)]
    outcome = _identity(node, literals)
    if isinstance(outcome, Constant):
        return outcome.value
    if outcome == "left":
        return literals[0]
    if outcome == "right":
        return literals[1]
    if outcome == "-right":
        return None if literals[1] is None else -literals[1]
    if None in literals:
        return None
    if isinstance(node, Pow):
        folded = _mk_pow(Constant(literals[0]), node.exponent)
    else:
        folded = REFERENCE_CONSTRUCTORS[type(node)](*map(Constant, literals))
    return folded.value if isinstance(folded, Constant) else None


def reduced_reference_eval(node, x, ctx):
    """reference_eval with the identities: each operand is evaluated, left
    first, then node is its constant if it reduces to one, the operand an
    identity leaves, or its own operation."""
    if isinstance(node, (Constant, Variable)):
        return reference_eval(node, x, ctx)
    kids = _operands(node)
    values = [reduced_reference_eval(kid, x, ctx) for kid in kids]
    exact = reduced_value(node)
    if exact is not None:
        return ctx.const(exact)
    outcome = _identity(node, [reduced_value(kid) for kid in kids])
    if outcome == "left":
        return values[0]
    if outcome == "right":
        return values[1]
    if outcome == "-right":
        return -values[1]
    return _apply(node, values, x, ctx)


# One folding constructor per operator and a printer with a precedence
# function: the plain forms that the package's single `_mk` and the
# `to_text` reading each node class's ``symbol``, ``name`` and ``prec`` must
# reproduce.


def _mk_neg(c):
    if isinstance(c, Constant):
        return Constant(-c.value)
    return Neg(c)


def _mk_add(l, r):
    if isinstance(l, Constant) and isinstance(r, Constant):
        return Constant(l.value + r.value)
    return Add(l, r)


def _mk_sub(l, r):
    if isinstance(l, Constant) and isinstance(r, Constant):
        return Constant(l.value - r.value)
    return Sub(l, r)


def _mk_mul(l, r):
    if isinstance(l, Constant) and isinstance(r, Constant):
        return Constant(l.value * r.value)
    return Mul(l, r)


def _mk_div(l, r):
    if isinstance(l, Constant) and isinstance(r, Constant) and r.value != 0:
        return Constant(l.value / r.value)
    return Div(l, r)


def _mk_pow(base, exponent: Fraction):
    if (
        isinstance(base, Constant)
        and exponent.denominator == 1
        and abs(exponent.numerator) <= 512
        and not (base.value == 0 and exponent < 0)
    ):
        return Constant(base.value ** int(exponent))
    return Pow(base, exponent)


def _mk_plus(c):
    if isinstance(c, Constant):
        return Constant(max(c.value, Fraction(0)))
    return Plus(c)


#: The reference constructor of each kind that `_mk` builds.
REFERENCE_CONSTRUCTORS = {
    Add: _mk_add, Sub: _mk_sub, Mul: _mk_mul, Div: _mk_div, Neg: _mk_neg, Plus: _mk_plus,
    Exp: Exp, Ln: Ln,
}

_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _prec(node) -> int:
    if isinstance(node, (Add, Sub)):
        return _PREC_ADD
    if isinstance(node, (Mul, Div)):
        return _PREC_MUL
    if isinstance(node, Neg):
        return _PREC_NEG
    if isinstance(node, Pow):
        return _PREC_POW
    return _PREC_ATOM


def _const_text(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator) if value >= 0 else f"({value.numerator})"
    return f"({value.numerator}/{value.denominator})"


def reference_to_text(node) -> str:
    if isinstance(node, Constant):
        return _const_text(node.value)
    if isinstance(node, Variable):
        return "x"
    if isinstance(node, (Add, Sub)):
        op = "+" if isinstance(node, Add) else "-"
        return f"{_wrap(node.left, _PREC_ADD)}{op}{_wrap(node.right, _PREC_ADD + 1)}"
    if isinstance(node, (Mul, Div)):
        op = "*" if isinstance(node, Mul) else "/"
        return f"{_wrap(node.left, _PREC_MUL)}{op}{_wrap(node.right, _PREC_MUL + 1)}"
    if isinstance(node, Neg):
        return "-" + _wrap(node.child, _PREC_NEG)
    if isinstance(node, Pow):
        return f"{_wrap(node.base, _PREC_ATOM)}^{_const_text(node.exponent)}"
    if isinstance(node, Exp):
        return f"exp({reference_to_text(node.child)})"
    if isinstance(node, Ln):
        return f"ln({reference_to_text(node.child)})"
    if isinstance(node, Plus):
        return f"plus({reference_to_text(node.child)})"
    raise TypeError(f"not an expression node: {node!r}")


def _wrap(node, min_prec: int) -> str:
    text = reference_to_text(node)
    return f"({text})" if _prec(node) < min_prec else text


# The plain recursive differentiation that the memoized `differentiate` must
# reproduce: equal trees, built without sharing derivatives of shared nodes.


def reference_differentiate(node):
    if isinstance(node, Constant):
        return _ZERO
    if isinstance(node, Variable):
        return _ONE
    if isinstance(node, Add):
        return _mk_add(reference_differentiate(node.left), reference_differentiate(node.right))
    if isinstance(node, Sub):
        return _mk_sub(reference_differentiate(node.left), reference_differentiate(node.right))
    if isinstance(node, Neg):
        return _mk_neg(reference_differentiate(node.child))
    if isinstance(node, Mul):
        return _mk_add(
            _mk_mul(reference_differentiate(node.left), node.right),
            _mk_mul(node.left, reference_differentiate(node.right)),
        )
    if isinstance(node, Div):
        num = _mk_sub(
            _mk_mul(reference_differentiate(node.left), node.right),
            _mk_mul(node.left, reference_differentiate(node.right)),
        )
        return _mk_div(num, _mk_pow(node.right, Fraction(2)))
    if isinstance(node, Pow):
        k = node.exponent
        if k.denominator != 1:
            raise NotDifferentiable(f"non-integer exponent {k} is not differentiable")
        n = int(k)
        if n == 0:
            return _ZERO
        if isinstance(node.base, Plus):
            if n < 2:
                raise NotDifferentiable(
                    f"plus(...)^{n} is not differentiable (integer exponent >= 2 required)"
                )
            inner = reference_differentiate(node.base.child)
        else:
            inner = reference_differentiate(node.base)
        return _mk_mul(
            Constant(Fraction(n)), _mk_mul(_mk_pow(node.base, Fraction(n - 1)), inner)
        )
    if isinstance(node, Exp):
        return _mk_mul(Exp(node.child), reference_differentiate(node.child))
    if isinstance(node, Ln):
        return _mk_div(reference_differentiate(node.child), node.child)
    if isinstance(node, Plus):
        raise NotDifferentiable(
            "plus(...) is differentiable only inside an integer power >= 2"
        )
    raise TypeError(f"not an expression node: {node!r}")


# The report loops of the two checkers, `check_n_convexity` over its
# (divided difference, tolerance, tuple) entries and `sixth_derivative_sign`
# over its (value, abscissa) grid with one tolerance, and their verdict
# function: the references for the one report builder `_report`.


def _classify(saw_negative: bool, saw_positive: bool) -> Verdict:
    if saw_negative and saw_positive:
        return Verdict.VIOLATED
    if saw_positive:
        return Verdict.CONSISTENT_WITH_CONVEX
    if saw_negative:
        return Verdict.CONSISTENT_WITH_CONCAVE
    return Verdict.INDETERMINATE


def reference_sampled_report(order: int, entries) -> ConvexityReport:
    saw_negative = saw_positive = False
    min_dd = max_dd = None
    min_witness = max_witness = ()
    for top, tol, pts in entries:
        if top < -tol:
            saw_negative = True
        elif top > tol:
            saw_positive = True
        if min_dd is None or top < min_dd:
            min_dd, min_witness = top, pts
        if max_dd is None or top > max_dd:
            max_dd, max_witness = top, pts
    return ConvexityReport(
        order=order,
        samples_tested=len(entries),
        min_divided_difference=min_dd,
        witness=min_witness,
        max_divided_difference=max_dd,
        max_witness=max_witness,
        verdict=_classify(saw_negative, saw_positive),
    )


def reference_grid_report(values, tol) -> ConvexityReport:
    saw_negative = any(v < -tol for v, _ in values)
    saw_positive = any(v > tol for v, _ in values)
    min_v, min_x = min(values, key=lambda t: t[0])
    max_v, max_x = max(values, key=lambda t: t[0])
    return ConvexityReport(
        order=5,
        samples_tested=len(values),
        min_divided_difference=min_v,
        witness=(min_x,),
        max_divided_difference=max_v,
        max_witness=(max_x,),
        verdict=_classify(saw_negative, saw_positive),
    )


# A generated family of 5-convex and 5-concave integrands, each with an exact
# reference.  A sixth derivative >= 0 survives positive combinations and the
# addition of a polynomial of degree <= 5, so a positive combination of atoms
# whose sixth derivative is >= 0 on [a, b], plus such a polynomial, is
# 5-convex there, and its negation is 5-concave.  Every atom keeps the sign
# of each even-order derivative up to its order parameter ((x-s)^k needs an
# even k >= order, plus(x-s)^k a k >= order + 1), so the family serves any
# even order.  Each atom has a closed-form antiderivative, so the reference
# is exact, evaluated in mpmath at 80 digits.

REFERENCE_DPS = 80
_ENDS = [Fraction(-1), Fraction(0), Fraction(1, 4), Fraction(1)]
_WIDTHS = [Fraction(1, 2), Fraction(1), Fraction(2)]
_POLE_GAPS = [Fraction(1, 2), Fraction(1), Fraction(2)]


def _mpq(q: Fraction):
    return mpmath.mpf(q.numerator) / q.denominator


def _quarters(lo: int, hi: int):
    return st.integers(lo, hi).map(lambda i: Fraction(i, 4))


def _atoms(a: Fraction, b: Fraction, order: int):
    """(text, antiderivative) of atoms whose even derivatives up to order
    are >= 0 on [a, b]; the antiderivative takes and returns mpf."""

    def power(s, k):
        return f"(x-({s}))^{k}", lambda x: (x - _mpq(s)) ** (k + 1) / (k + 1)

    def truncated(s, k):
        return f"plus(x-({s}))^{k}", lambda x: max(x - _mpq(s), 0) ** (k + 1) / (k + 1)

    return st.one_of(
        _quarters(-8, 8).filter(bool).map(
            lambda c: (f"exp(({c})*x)", lambda x: mpmath.exp(_mpq(c) * x) / _mpq(c))
        ),
        st.builds(power, _quarters(-8, 16), st.sampled_from([order, order + 2])),
        st.builds(
            truncated,
            st.integers(1, 7).map(lambda i: a + (b - a) * Fraction(i, 8)),
            st.sampled_from([order + 1, order + 3]),
        ),
        st.sampled_from(_POLE_GAPS).map(
            lambda d: (f"1/(({b + d})-x)", lambda x: -mpmath.ln(_mpq(b + d) - x))
        ),
        st.sampled_from(_POLE_GAPS).map(
            lambda d: (f"1/(x-({a - d}))", lambda x: mpmath.ln(x - _mpq(a - d)))
        ),
        st.sampled_from(_POLE_GAPS).map(
            lambda d: (
                f"-ln(x-({a - d}))",
                lambda x: -((x - _mpq(a - d)) * (mpmath.ln(x - _mpq(a - d)) - 1)),
            )
        ),
    )


@st.composite
def convex_integrands(draw, order: int = 6):
    """(text, a, b, integral, side): a positive combination of one to three
    atoms plus a polynomial of degree < order, negated half the time, on
    [a, b]; integral is its exact integral as an mpf of `REFERENCE_DPS`
    digits, and side the sign (1 or -1) of its derivative of that order."""
    a = draw(st.sampled_from(_ENDS))
    b = a + draw(st.sampled_from(_WIDTHS))
    terms = draw(st.lists(st.tuples(_quarters(1, 8), _atoms(a, b, order)), min_size=1, max_size=3))
    poly = draw(st.lists(_quarters(-8, 8), max_size=order))
    negate = draw(st.booleans())
    text = " + ".join(
        [f"({m})*({atom})" for m, (atom, _F) in terms]
        + [f"({c})*x^{j}" for j, c in enumerate(poly) if c]
    )
    with mpmath.workdps(REFERENCE_DPS):
        lo, hi = _mpq(a), _mpq(b)
        integral = sum(_mpq(m) * (F(hi) - F(lo)) for m, (_atom, F) in terms)
        integral += sum(_mpq(c) * (hi ** (j + 1) - lo ** (j + 1)) / (j + 1) for j, c in enumerate(poly))
        if negate:
            return f"-({text})", a, b, -integral, -1
    return text, a, b, integral, 1
