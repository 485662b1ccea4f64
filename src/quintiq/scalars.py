"""Scalar precision backends: hardware doubles, double-double, and mpmath.

Every numeric routine in this package is generic over a *precision context*.
A context knows how to build scalars from exact inputs (ints, Fractions,
decimal strings) and provides the few transcendentals the integrand corpus
needs (sqrt, exp, ln).  Scalars themselves are ordinary numbers supporting
``+ - * / ** abs < ==`` so the quadrature code never branches on the mode.

Available contexts:

* ``DOUBLE``        -- Python floats (binary64).
* ``DOUBLE_DOUBLE`` -- unevaluated sums of two doubles, ~31 significant
  decimal digits, built on error-free transformations.
* ``mp_context(d)`` -- mpmath with ``d`` decimal digits; each instance owns a
  private mpmath context, so concurrent use of different precisions is safe.

Each context also has one private set of list kernels, ``ctx.lists``, over
vectors of its own kind: a list of scalars in ``double`` and ``mp``, the
pair of lists of (hi, lo) float words in ``dd``.  The expression tape and
the composite pass are each written once against them; in ``dd`` the
composite pass of an integrand that is not a bound tape runs on the
operators' kernels over ``DoubleDouble`` scalars.  This module is the only
one with double-double word arithmetic.  An int or float becomes a
``DoubleDouble`` only in ``DoubleDouble._coerce``, and a zero divisor is
caught only in ``_div_words``, which every dd division runs.
"""
from __future__ import annotations

import math
import operator
from decimal import Decimal, InvalidOperation, Overflow, localcontext
from fractions import Fraction
from math import ldexp
from typing import Callable, NamedTuple

_SPLITTER = 134217729.0  # 2**27 + 1; Dekker split constant, exact in binary64


def _quick_two_sum(a: float, b: float) -> tuple[float, float]:
    """Dekker fast two-sum; requires |a| >= |b| or a == 0."""
    s = a + b
    return s, b - (s - a)


def _split(x: float) -> tuple[float, float]:
    """Dekker's halves of x, as DoubleDouble.__mul__ computes them."""
    c = _SPLITTER * x
    h = c - (c - x)
    return h, x - h


def _add_words(ahi: float, alo: float, bhi: float, blo: float) -> tuple[float, float]:
    """DoubleDouble(ahi, alo) + DoubleDouble(bhi, blo) as words."""
    s = ahi + bhi
    v = s - ahi
    e = (ahi - (s - v)) + (bhi - v)
    t = alo + blo
    v = t - alo
    f = (alo - (t - v)) + (blo - v)
    e += t
    u = s + e
    e = e - (u - s)
    e += f
    hi = u + e
    lo = e - (hi - u)
    if lo != lo:
        # a nan tail: the sum overflowed; keep the plain sum
        return s, 0.0
    return hi, lo


def _sub_words(ahi: float, alo: float, bhi: float, blo: float) -> tuple[float, float]:
    """DoubleDouble(ahi, alo) - DoubleDouble(bhi, blo): the sum with -b."""
    return _add_words(ahi, alo, -bhi, -blo)


def _mul_words(a: float, alo: float, b: float, blo: float) -> tuple[float, float]:
    """DoubleDouble(a, alo) * DoubleDouble(b, blo) as words: the two-product
    of the leading words, then the cross terms."""
    p = a * b
    c = _SPLITTER * a
    ah = c - (c - a)
    al = a - ah
    c = _SPLITTER * b
    bh = c - (c - b)
    bl = b - bh
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    e += a * blo + alo * b
    hi = p + e
    lo = e - (hi - p)
    if lo != lo:
        # a nan tail: the product overflowed, or a factor beyond ~1e300
        # overflowed its Dekker split; keep the plain product
        return p, 0.0
    return hi, lo


def _div_words(ahi: float, alo: float, d: float, dlo: float) -> tuple[float, float]:
    """DoubleDouble(ahi, alo) / DoubleDouble(d, dlo) as words; raises
    ZeroDivisionError for d == 0, the one zero check of every dd division."""
    if d == 0.0:
        raise ZeroDivisionError("double-double division by zero")
    # long division with two Newton corrections: q1 = ahi/d, then
    # r = dividend - divisor*q1, q2 = r.hi/d, r -= divisor*q2, q3 = r.hi/d.
    # The divisor is split once for both products.  Each product keeps the
    # plain-product fallback of __mul__ and its cross term with the zero
    # tail of q, d * 0.0, computed once as dz.
    dh, dl = _split(d)
    dz = d * 0.0
    q1 = ahi / d
    # p = divisor * q1
    p = d * q1
    c = _SPLITTER * q1
    bh = c - (c - q1)
    bl = q1 - bh
    e = ((dh * bh - p) + dh * bl + dl * bh) + dl * bl
    e += dz + dlo * q1
    phi = p + e
    plo = e - (phi - p)
    if plo != plo:
        phi = p
        plo = 0.0
    # r = dividend - p
    bhi = -phi
    blo = -plo
    s = ahi + bhi
    v = s - ahi
    e = (ahi - (s - v)) + (bhi - v)
    t = alo + blo
    v = t - alo
    f = (alo - (t - v)) + (blo - v)
    e += t
    u = s + e
    e = e - (u - s)
    e += f
    rhi = u + e
    rlo = e - (rhi - u)
    q2 = rhi / d
    # p = divisor * q2
    p = d * q2
    c = _SPLITTER * q2
    bh = c - (c - q2)
    bl = q2 - bh
    e = ((dh * bh - p) + dh * bl + dl * bh) + dl * bl
    e += dz + dlo * q2
    phi = p + e
    plo = e - (phi - p)
    if plo != plo:
        phi = p
        plo = 0.0
    # r -= p; only its leading word is used
    bhi = -phi
    blo = -plo
    s = rhi + bhi
    v = s - rhi
    e = (rhi - (s - v)) + (bhi - v)
    t = rlo + blo
    v = t - rlo
    f = (rlo - (t - v)) + (blo - v)
    e += t
    u = s + e
    e = e - (u - s)
    e += f
    q3 = (u + e) / d
    s = q1 + q2
    e = q2 - (s - q1)
    e += q3
    hi = s + e
    lo = e - (hi - s)
    if lo != lo:
        # a nan tail: the quotient overflowed, or one beyond ~1e300 made the
        # corrections nan; keep the plain quotient
        return q1, 0.0
    return hi, lo


def _arithmetic(words):
    """The DoubleDouble operator whose result is words(self, other), for
    other coerced by ``_coerce``."""

    def operate(self, other):
        if type(other) is not DoubleDouble:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return DoubleDouble(*words(self.hi, self.lo, other.hi, other.lo))

    return operate


def _swapped(words):
    """words with its operands exchanged, for a reflected operator."""
    return lambda ahi, alo, bhi, blo: words(bhi, blo, ahi, alo)


def _comparison(test):
    """The DoubleDouble comparison test(self.hi, self.lo, o.hi, o.lo), for o
    the other operand coerced by ``_coerce``."""

    def compare(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return test(self.hi, self.lo, o.hi, o.lo)

    return compare


class DoubleDouble:
    """Normalized hi + lo pair with |lo| <= 0.5 ulp(hi); ~106-bit significand.

    Standard double-double operating range: components must stay normal, so
    full accuracy holds for magnitudes roughly within [1e-270, 1e300];
    beyond that the low word degrades gracefully toward double precision,
    and a sum, product or quotient that overflows is +-inf, as in double.

    ``+ - * /`` run straight-line code on plain floats, with no intermediate
    DoubleDouble, in ``_add_words``, ``_sub_words``, ``_mul_words`` and
    ``_div_words``, which alone raises on a zero divisor.  Each one performs
    the float operations of its textbook composition of Dekker's error-free
    transformations (two-sum, fast two-sum, split two-product) in the same
    order, so its result is bitwise equal to that composition's, which the
    tests keep as the reference.  ``**`` is the list kernel ``_pow_lists``
    on one element.  An int or float operand, on either side, becomes a
    DoubleDouble in ``_coerce`` alone, as does every int and float that
    ``DOUBLE_DOUBLE.const`` converts.
    """

    __slots__ = ("hi", "lo")

    def __init__(self, hi: float, lo: float = 0.0):
        self.hi = hi
        self.lo = lo

    # -- construction --------------------------------------------------

    @staticmethod
    def from_fraction(fr: Fraction) -> "DoubleDouble":
        # two-stage rounding keeps the conversion exact to the last dd bit
        hi = fr.numerator / fr.denominator
        rem = fr - Fraction(hi)
        lo = rem.numerator / rem.denominator
        s, e = _quick_two_sum(hi, lo)
        return DoubleDouble(s, e)

    def as_fraction(self) -> Fraction:
        return Fraction(self.hi) + Fraction(self.lo)

    @staticmethod
    def _coerce(other):
        """other as a DoubleDouble, exactly, or NotImplemented for a type
        other than DoubleDouble, float and int."""
        if isinstance(other, DoubleDouble):
            return other
        if isinstance(other, float):  # converts exactly, nan included
            return DoubleDouble(other)
        if isinstance(other, int):
            f = float(other)
            if f != other:  # int too large for exact float conversion
                return DoubleDouble.from_fraction(Fraction(other))
            return DoubleDouble(f)
        return NotImplemented

    # -- arithmetic -----------------------------------------------------
    # a reflected + or * keeps self first, as the forward operator does

    __add__ = __radd__ = _arithmetic(_add_words)
    __sub__ = _arithmetic(_sub_words)
    __rsub__ = _arithmetic(_swapped(_sub_words))
    __mul__ = __rmul__ = _arithmetic(_mul_words)
    __truediv__ = _arithmetic(_div_words)
    __rtruediv__ = _arithmetic(_swapped(_div_words))

    def __neg__(self):
        return DoubleDouble(-self.hi, -self.lo)

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        (hi,), (lo,) = _pow_lists(([self.hi], [self.lo]), n)
        return DoubleDouble(hi, lo)

    def __abs__(self):
        return DoubleDouble(-self.hi, -self.lo) if self.hi < 0.0 else self

    # -- comparisons (valid because of the normalization invariant) -----
    # (hi, lo) ordered lexicographically; every ordered comparison with a
    # nan word is False, as it is for float

    __eq__ = _comparison(lambda hi, lo, ohi, olo: hi == ohi and lo == olo)
    __lt__ = _comparison(lambda hi, lo, ohi, olo: hi < ohi or (hi == ohi and lo < olo))
    __le__ = _comparison(lambda hi, lo, ohi, olo: hi < ohi or (hi == ohi and lo <= olo))
    __gt__ = _comparison(lambda hi, lo, ohi, olo: hi > ohi or (hi == ohi and lo > olo))
    __ge__ = _comparison(lambda hi, lo, ohi, olo: hi > ohi or (hi == ohi and lo >= olo))

    def __hash__(self):
        if not math.isfinite(self.hi):
            # inf or nan has no Fraction; it equals the float hi, if anything
            return hash(self.hi)
        # equal to an int or float exactly when the Fraction is, so hash that
        return hash(self.as_fraction())

    def __float__(self):
        return self.hi + self.lo

    def __repr__(self):
        return f"DoubleDouble({self.hi!r}, {self.lo!r})"


# -- list kernels: one context's operations over vectors ---------------------
#
# Each context has one kernel set over its own vectors, ``ctx.lists``.  The
# expression tape runs on the first group of kernels and the composite pass
# on the second, so both are written once for every context.  Per element
# each kernel performs the operations of the scalar code it stands in for,
# in the same order, so each result is bitwise equal to that code's.  The
# dd word kernels take only words that a dd tape produced.


class _ListKernels(NamedTuple):
    """One context's kernels; ``u`` and ``v`` are vectors of its own kind."""

    vector: Callable  # (scalars) -> the vector of them
    scalars: Callable  # (u) -> its elements as a list of scalars
    fill: Callable  # (c, u) -> a vector of the scalar c, as long as u
    chunks: Callable  # (fn, u, m) -> fn of each m elements of u in turn, joined
    # the tape: each raises where the scalar operation raises
    add: Callable  # (u, v) -> u + v, element by element
    sub: Callable  # (u, v) -> u - v
    mul: Callable  # (u, v) -> u * v
    div: Callable  # (u, v) -> u / v
    neg: Callable  # (u) -> -u
    pow: Callable  # (u, n) -> u ** n for an int n
    plus: Callable  # (u, zero) -> zero where u <= 0, else u
    map: Callable  # (fn, u) -> fn of each element, a scalar function
    # the composite pass (see composite.composite_pair)
    partition: Callable  # (a, b, n) -> x_0..x_n of [a, b]
    rule: Callable  # (open points, closed points) -> (nodes, weights)
    abscissae: Callable  # (xs, k0, k1, nodes) -> (h, m + h*t), see `_abscissae`
    sums: Callable  # (h, ys, ends, k0, weights, totals) -> totals


_INF = math.inf

# double and mp: a vector is a list of scalars, and each kernel applies the
# scalar operators


def _partition(a, b, n: int) -> list:
    """x_k = a + (k*(b-a))/n, or a + k*((b-a)/n) where k*(b-a) is not
    finite; x_0 = a and x_n = b exactly."""
    width = b - a
    xs = [a]
    for k in range(1, n):
        kw = k * width
        xs.append(a + kw / n if kw - kw == 0 else a + k * (width / n))
    xs.append(b)
    return xs


def _exact(v):
    """The exact representation of a scalar of any context, for telling
    rule nodes apart: unlike ``==``, it keeps -0.0 and 0.0 distinct."""
    if type(v) is DoubleDouble:
        return v.hi.hex(), v.lo.hex()
    if type(v) is float:
        return v.hex()
    return v._mpf_


def _rule(open_points, closed_points) -> tuple:
    """(nodes, (open steps, closed steps)) of a rule pair.

    nodes holds the nodes t of the open rule, then those interior nodes of
    the closed rule that are not already among them (by `_exact`): the
    order in which a subinterval's abscissae are evaluated, each once.  A
    subinterval's values are f at its left partition point, at its nodes
    in that order and at its right partition point; each rule's steps are
    (i, w) per point, in the rule's order, where i is the position of the
    point's value among them.
    """
    nodes = [t for t, _w in open_points]
    seen = [_exact(t) for t in nodes]
    closed_steps = [(0, closed_points[0][1])]
    for t, w in closed_points[1:-1]:
        key = _exact(t)
        if key not in seen:
            seen.append(key)
            nodes.append(t)
        closed_steps.append((seen.index(key) + 1, w))
    closed_steps.append((len(nodes) + 1, closed_points[-1][1]))
    open_steps = [(i, w) for i, (_t, w) in enumerate(open_points, 1)]
    return nodes, (open_steps, closed_steps)


def _abscissae(xs, k0: int, k1: int, nodes) -> tuple[list, list]:
    """h = (b_k - a_k)/2 of the subintervals k0 <= k < k1, [a_k, b_k] =
    [xs[k-1], xs[k]], and the abscissae m + h*t of their nodes, m = (a_k +
    b_k)/2, subinterval by subinterval."""
    hs = []
    out = []
    for k in range(k0, k1):
        a_k = xs[k - 1]
        b_k = xs[k]
        h = (b_k - a_k) / 2
        m = (a_k + b_k) / 2
        hs.append(h)
        out += [m + h * t for t in nodes]
    return hs, out


def _rows(hs, ys, ends, k0: int) -> zip:
    """The values of the subintervals k0, k0+1, ... of hs, one tuple per
    subinterval in the order `_rule`'s positions name: f at its left
    partition point, at its nodes, then at its right partition point.

    ys holds f at the abscissae of those subintervals, as `_abscissae`
    orders them, and ends f at every partition point.
    """
    k1 = k0 + len(hs)
    return zip(ends[k0 - 1 : k1 - 1], *[iter(ys)] * (len(ys) // len(hs)), ends[k0:k1])


def _sums(hs, ys, ends, k0: int, weights, totals) -> tuple:
    """The running totals (g, l, q), None before the first subinterval,
    after the subintervals k0, k0+1, ... of hs, whose values `_rows` reads
    from ys and ends.

    Each rule's value on a subinterval is h times its weighted sum, taken
    left to right over its steps, and q is (3g + l)/4.
    """
    open_steps, closed_steps = weights
    for h, row in zip(hs, _rows(hs, ys, ends, k0)):
        for steps in (open_steps, closed_steps):
            s = None
            for i, w in steps:
                term = w * row[i]
                s = term if s is None else s + term
            if steps is open_steps:
                g_k = h * s
            else:
                l_k = h * s
        q_k = (3 * g_k + l_k) / 4
        if totals is None:
            totals = g_k, l_k, q_k
        else:
            g_total, l_total, q_total = totals
            totals = g_total + g_k, l_total + l_k, q_total + q_k
    return totals


_SCALAR_LISTS = _ListKernels(
    vector=lambda xs: xs,
    scalars=lambda u: u,
    fill=lambda c, u: [c] * len(u),
    chunks=lambda fn, u, m: [y for i in range(0, len(u), m) for y in fn(u[i : i + m])],
    add=lambda u, v: list(map(operator.add, u, v)),
    sub=lambda u, v: list(map(operator.sub, u, v)),
    mul=lambda u, v: list(map(operator.mul, u, v)),
    div=lambda u, v: list(map(operator.truediv, u, v)),
    neg=lambda u: list(map(operator.neg, u)),
    pow=lambda u, n: [t**n for t in u],
    plus=lambda u, zero: [zero if t <= 0 else t for t in u],
    map=lambda fn, u: list(map(fn, u)),
    partition=_partition,
    rule=_rule,
    abscissae=_abscissae,
    sums=_sums,
)


# double-double: a vector is the pair (his, los) of the elements' float
# words.  Each kernel performs the float operations of the DoubleDouble
# operators it stands in for (named in its comments, self first), through
# the word operations or written out in locals where they run once per
# element in a hot loop, so each result is bitwise equal to theirs; a
# Dekker split that several products share is computed once.


def _lift(words, u, v) -> tuple[list, list]:
    """The word operation words of each pair of elements."""
    hs, ls = [], []
    for hi, lo in map(words, *u, *v):
        hs.append(hi)
        ls.append(lo)
    return hs, ls


def _add_lists(u, v) -> tuple[list, list]:
    """DoubleDouble.__add__ of each pair of elements."""
    return _lift(_add_words, u, v)


def _neg_lists(u) -> tuple[list, list]:
    hs, ls = u
    return [-h for h in hs], [-lo for lo in ls]


def _sub_lists(u, v) -> tuple[list, list]:
    """__sub__ adds the negated words."""
    return _add_lists(u, _neg_lists(v))


def _mul_lists(u, v) -> tuple[list, list]:
    """DoubleDouble.__mul__ of each pair of elements."""
    hs = []
    ls = []
    put_hi = hs.append
    put_lo = ls.append
    for a, alo, b, blo in zip(*u, *v):
        p = a * b
        c = _SPLITTER * a
        a_h = c - (c - a)
        a_l = a - a_h
        c = _SPLITTER * b
        b_h = c - (c - b)
        b_l = b - b_h
        e = ((a_h * b_h - p) + a_h * b_l + a_l * b_h) + a_l * b_l
        e += a * blo + alo * b
        hi = p + e
        lo = e - (hi - p)
        if lo != lo:
            hi = p
            lo = 0.0
        put_hi(hi)
        put_lo(lo)
    return hs, ls


def _div_lists(u, v) -> tuple[list, list]:
    """DoubleDouble.__truediv__ of each pair of elements; `_div_words`
    raises ZeroDivisionError at the first zero divisor."""
    return _lift(_div_words, u, v)


def _pow_lists(u, n: int) -> tuple[list, list]:
    """Each element ** n for an int n, which is DoubleDouble.__pow__: binary
    powering with the products of __mul__, starting from the first power
    it needs rather than from 1.0, so ``v ** 1`` is v; then for a negative
    n the reciprocal of __truediv__.  A power out of range raises
    OverflowError, as float ** does; zero to a negative power raises
    ZeroDivisionError.

    The loop over the exponent's bits runs once for the whole vector, and
    skips the last squaring, whose value would never be read.
    """
    hs = u[0]
    m = len(hs)
    r = None
    base = u
    k = abs(n)
    while k:
        if k & 1:
            r = base if r is None else _mul_lists(r, base)
        k >>= 1
        if k:
            base = _mul_lists(base, base)
    if r is None:
        return [1.0] * m, [0.0] * m
    rh = r[0]
    if n < 0:
        if 0.0 in rh:
            for h, t in zip(hs, rh):
                if t == 0.0 and h != 0.0:
                    raise OverflowError("double-double power overflow")
        return _div_lists(([1.0] * m, [0.0] * m), r)
    if _INF in rh or -_INF in rh:
        for h, t in zip(hs, rh):
            if math.isinf(t) and math.isfinite(h):
                raise OverflowError("double-double power overflow")
    return r


def _plus_lists(u, zero) -> tuple[list, list]:
    """zero where the element is <= 0, else the element, nan included."""
    zh = zero.hi
    zl = zero.lo
    ph = []
    pl = []
    for h, lo in zip(*u):
        if h < 0.0 or (h == 0.0 and lo <= 0.0):
            ph.append(zh)
            pl.append(zl)
        else:
            ph.append(h)
            pl.append(lo)
    return ph, pl


def _map_lists(fn, u) -> tuple[list, list]:
    """fn(DoubleDouble(hi, lo)), a DoubleDouble, of each element."""
    values = [fn(DoubleDouble(h, lo)) for h, lo in zip(*u)]
    return [v.hi for v in values], [v.lo for v in values]


def _dd_chunks(fn, u, m: int) -> tuple[list, list]:
    hs, ls = [], []
    for i in range(0, len(u[0]), m):
        h, lo = fn((u[0][i : i + m], u[1][i : i + m]))
        hs += h
        ls += lo
    return hs, ls


def _scale_down(hi: float, lo: float, d: float, r: float) -> tuple[float, float]:
    """DoubleDouble(hi, lo) / d for d = 2 or 4, with r = 1/d.

    When both words scale exactly and the pair is finite and normalized,
    the division's corrections vanish and it returns the scaled words, with
    zeros made positive; otherwise the division runs in full.
    """
    qh = hi * r
    ql = lo * r
    if qh * d == hi and ql * d == lo and hi + lo == hi and hi - hi == 0.0:
        return qh + 0.0, ql + 0.0
    return _div_words(hi, lo, d, 0.0)


def _dd_partition(a, b, n: int) -> tuple[list, list]:
    """_partition on words: a + (k * width) / n where k * width is finite."""
    width = b - a
    whi = width.hi
    wlo = width.lo
    nf = float(n)
    ahi = a.hi
    alo = a.lo
    xh = [ahi]
    xl = [alo]
    for k in range(1, n):
        # k * width, that is width.__mul__(float(k))
        hi, lo = _mul_words(whi, wlo, float(k), 0.0)
        if hi - hi == 0.0:
            # a + (k * width) / n
            hi, lo = _add_words(ahi, alo, *_div_words(hi, lo, nf, 0.0))
        else:
            # k * width is not finite: a + k * (width / n)
            x = a + k * (width / n)
            hi = x.hi
            lo = x.lo
        xh.append(hi)
        xl.append(lo)
    xh.append(b.hi)
    xl.append(b.lo)
    return xh, xl


def _dd_rule(open_points, closed_points) -> tuple:
    """_rule with each node and weight v as (v.hi, v.lo) and the Dekker
    split of v.hi."""

    def words(v):
        return v.hi, v.lo, *_split(v.hi)

    nodes, steps = _rule(open_points, closed_points)
    return [words(t) for t in nodes], tuple([(i, *words(w)) for i, w in s] for s in steps)


def _dd_abscissae(xs, k0: int, k1: int, nodes) -> tuple[list, tuple]:
    """_abscissae on words; each h is kept as (hi, lo) with its split."""
    xh, xl = xs
    hs = []
    vh = []
    vl = []
    put_hi = vh.append
    put_lo = vl.append
    for k in range(k0, k1):
        ahi = xh[k - 1]
        alo = xl[k - 1]
        bhi = xh[k]
        blo = xl[k]
        # h = (b_k - a_k) / 2, as __sub__ adds the negated words
        hhi, hlo = _scale_down(*_add_words(bhi, blo, -ahi, -alo), 2.0, 0.5)
        hh, hl = _split(hhi)
        hs.append((hhi, hlo, hh, hl))
        # m = (a_k + b_k) / 2
        mhi, mlo = _scale_down(*_add_words(ahi, alo, bhi, blo), 2.0, 0.5)
        for t_hi, t_lo, t_h, t_l in nodes:
            # h.__mul__(t)
            p = hhi * t_hi
            e = ((hh * t_h - p) + hh * t_l + hl * t_h) + hl * t_l
            e += hhi * t_lo + hlo * t_hi
            bhi = p + e
            blo = e - (bhi - p)
            if blo != blo:
                bhi = p
                blo = 0.0
            # m.__add__(h * t)
            s = mhi + bhi
            v = s - mhi
            e = (mhi - (s - v)) + (bhi - v)
            t = mlo + blo
            v = t - mlo
            ft = (mlo - (t - v)) + (blo - v)
            e += t
            u = s + e
            e = e - (u - s)
            e += ft
            hi = u + e
            lo = e - (hi - u)
            if lo != lo:
                hi = s
                lo = 0.0
            put_hi(hi)
            put_lo(lo)
    return hs, (vh, vl)


def _dd_sums(hs, ys, ends, k0: int, weights, totals) -> tuple:
    """_sums on words, over the rows of the hi words and of the lo words."""
    open_steps, closed_steps = weights
    rows_hi = _rows(hs, ys[0], ends[0], k0)
    rows_lo = _rows(hs, ys[1], ends[1], k0)
    first = totals is None
    if not first:
        gt, lt, qt = totals
        gt_hi, gt_lo, lt_hi, lt_lo, qt_hi, qt_lo = gt.hi, gt.lo, lt.hi, lt.lo, qt.hi, qt.lo
    for (hhi, hlo, hh, hl), row_hi, row_lo in zip(hs, rows_hi, rows_lo):
        for steps in (open_steps, closed_steps):
            shi = None
            for i, w_hi, w_lo, w_h, w_l in steps:
                yhi = row_hi[i]
                ylo = row_lo[i]
                # w.__mul__(y)
                p = w_hi * yhi
                c = _SPLITTER * yhi
                bh = c - (c - yhi)
                bl = yhi - bh
                e = ((w_h * bh - p) + w_h * bl + w_l * bh) + w_l * bl
                e += w_hi * ylo + w_lo * yhi
                bhi = p + e
                blo = e - (bhi - p)
                if blo != blo:
                    bhi = p
                    blo = 0.0
                if shi is None:
                    shi = bhi
                    slo = blo
                    continue
                # sum.__add__(w * y)
                s = shi + bhi
                v = s - shi
                e = (shi - (s - v)) + (bhi - v)
                t = slo + blo
                v = t - slo
                ft = (slo - (t - v)) + (blo - v)
                e += t
                u = s + e
                e = e - (u - s)
                e += ft
                shi = u + e
                slo = e - (shi - u)
                if slo != slo:
                    shi = s
                    slo = 0.0
            # h.__mul__(sum): g_k after the open rule, l_k after the closed
            p = hhi * shi
            c = _SPLITTER * shi
            bh = c - (c - shi)
            bl = shi - bh
            e = ((hh * bh - p) + hh * bl + hl * bh) + hl * bl
            e += hhi * slo + hlo * shi
            r_hi = p + e
            r_lo = e - (r_hi - p)
            if r_lo != r_lo:
                r_hi = p
                r_lo = 0.0
            if steps is open_steps:
                g_hi = r_hi
                g_lo = r_lo
        # (3 * g_k + l_k) / 4, with l_k in (r_hi, r_lo): g_k.__mul__(3) first
        p = g_hi * 3.0
        c = _SPLITTER * g_hi
        bh = c - (c - g_hi)
        bl = g_hi - bh
        e = ((bh * 3.0 - p) + bh * 0.0 + bl * 3.0) + bl * 0.0  # 3.0 splits as (3.0, 0.0)
        e += g_hi * 0.0 + g_lo * 3.0
        hi = p + e
        lo = e - (hi - p)
        if lo != lo:
            hi = p
            lo = 0.0
        q_hi, q_lo = _scale_down(*_add_words(hi, lo, r_hi, r_lo), 4.0, 0.25)
        if first:
            gt_hi, gt_lo, lt_hi, lt_lo, qt_hi, qt_lo = g_hi, g_lo, r_hi, r_lo, q_hi, q_lo
            first = False
            continue
        # totals.__add__(subinterval value), for g, l and q
        gt_hi, gt_lo = _add_words(gt_hi, gt_lo, g_hi, g_lo)
        lt_hi, lt_lo = _add_words(lt_hi, lt_lo, r_hi, r_lo)
        qt_hi, qt_lo = _add_words(qt_hi, qt_lo, q_hi, q_lo)
    return (
        DoubleDouble(gt_hi, gt_lo),
        DoubleDouble(lt_hi, lt_lo),
        DoubleDouble(qt_hi, qt_lo),
    )


_DD_LISTS = _ListKernels(
    vector=lambda xs: ([x.hi for x in xs], [x.lo for x in xs]),
    scalars=lambda u: list(map(DoubleDouble, *u)),
    fill=lambda c, u: ([c.hi] * len(u[0]), [c.lo] * len(u[0])),
    chunks=_dd_chunks,
    add=_add_lists,
    sub=_sub_lists,
    mul=_mul_lists,
    div=_div_lists,
    neg=_neg_lists,
    pow=_pow_lists,
    plus=_plus_lists,
    map=_map_lists,
    partition=_dd_partition,
    rule=_dd_rule,
    abscissae=_dd_abscissae,
    sums=_dd_sums,
)


_DD_LN2 = DoubleDouble.from_fraction(
    Fraction("0.69314718055994530941723212145817656807550013436026")
)
# Dekker halves of ln2's leading double, for the exact k*ln2 product
_LN2_H, _LN2_L = _split(_DD_LN2.hi)
# 1/j! for the exp kernel, exact to dd precision, highest degree first
_EXP_COEF = [
    DoubleDouble.from_fraction(Fraction(1, math.factorial(j)))
    for j in range(10, -1, -1)
]
_EXP_COEF_FLAT = [(c.hi, c.lo) for c in _EXP_COEF]


def dd_sqrt(x: DoubleDouble) -> DoubleDouble:
    if x.hi < 0.0:
        raise ValueError("square root of a negative double-double")
    if x.hi == 0.0:
        return DoubleDouble(0.0)
    a0 = math.sqrt(x.hi)
    d = x - DoubleDouble(a0) * DoubleDouble(a0)
    corr = d.hi / (2.0 * a0)
    hi, lo = _quick_two_sum(a0, corr)
    return DoubleDouble(hi, lo)


def dd_exp(x: DoubleDouble) -> DoubleDouble:
    # exp(x) = 2^k exp(r), r = x - k ln2, |r| <= ln2/2; r is then scaled by
    # 2^-8 so a degree-10 Taylor kernel reaches dd accuracy, and the result
    # is squared back eight times.  Hot path, so the double-double steps are
    # written out on plain floats instead of DoubleDouble operators.
    rhi = x.hi
    rlo = x.lo
    if rhi > 709.0:
        raise OverflowError("double-double exp overflow")
    if not rhi >= -709.0:  # nan too: round() below cannot take it
        return DoubleDouble(math.exp(rhi))
    k = round(rhi * 1.4426950408889634)
    if k:
        kf = float(k)
        # r = x - k*ln2: exact product k*ln2_hi via the split halves, then a
        # two_sum subtraction; k*ln2_lo only touches the tail
        p = kf * _DD_LN2.hi
        c = _SPLITTER * kf
        ah = c - (c - kf)
        al = kf - ah
        pe = ((ah * _LN2_H - p) + ah * _LN2_L + al * _LN2_H) + al * _LN2_L
        s = rhi - p
        t = s - rhi
        e = (rhi - (s - t)) + (-p - t)
        e += rlo - (pe + kf * _DD_LN2.lo)
        rhi = s + e
        rlo = e - (rhi - s)
    rhi *= 0.00390625  # 2**-8
    rlo *= 0.00390625
    c = _SPLITTER * rhi
    bh = c - (c - rhi)
    bl = rhi - bh
    shi, slo = _EXP_COEF_FLAT[0]
    for chi, clo in _EXP_COEF_FLAT[1:]:
        # s = s*r + c, double-double throughout
        p = shi * rhi
        c = _SPLITTER * shi
        ah = c - (c - shi)
        al = shi - ah
        e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
        e += shi * rlo + slo * rhi
        shi = p + e
        slo = e - (shi - p)
        s = shi + chi
        t = s - shi
        e = (shi - (s - t)) + (chi - t)
        e += slo + clo
        shi = s + e
        slo = e - (shi - s)
    for _ in range(8):
        p = shi * shi
        c = _SPLITTER * shi
        ah = c - (c - shi)
        al = shi - ah
        e = ((ah * ah - p) + 2.0 * (ah * al)) + al * al
        e += 2.0 * (shi * slo)
        shi = p + e
        slo = e - (shi - p)
    return DoubleDouble(ldexp(shi, k), ldexp(slo, k))


def dd_ln(x: DoubleDouble) -> DoubleDouble:
    if x.hi <= 0.0:
        raise ValueError("logarithm of a non-positive double-double")
    y0 = math.log(x.hi)
    if y0 < -660.0:
        # exp(-y0) would overflow below e^-709, and above it the Newton
        # step's product x * exp(-y0) loses its cross terms below the
        # subnormal range: ln(x) = ln(x * 2^k) - k*ln2, with x * 2^k in
        # [0.5, 1) and the scaling exact
        k = -math.frexp(x.hi)[1]
        return dd_ln(DoubleDouble(ldexp(x.hi, k), ldexp(x.lo, k))) - k * _DD_LN2
    # one Newton step on exp(y) = x; the double seed leaves O(eps^2) error
    e = dd_exp(DoubleDouble(-y0))
    return DoubleDouble(y0) + x * e - 1


#: Most digits a decimal exponent in number text may have.  The exact value
#: of 1e9999999 is a ten-million-digit integer, which takes seconds to build,
#: and each further digit multiplies that.
_EXPONENT_DIGITS = 6


def exact_fraction(v) -> Fraction:
    """Fraction(v) of an int, a Fraction or number text; raises ValueError
    for text whose decimal exponent has more than `_EXPONENT_DIGITS` digits,
    before building its value."""
    if isinstance(v, str):
        exponent = v.lower().partition("e")[2]
        digits = exponent.strip().lstrip("+-").replace("_", "").lstrip("0")
        if len(digits) > _EXPONENT_DIGITS:
            raise ValueError(
                f"the exponent of {v.strip()} has more than {_EXPONENT_DIGITS} digits"
            )
    return Fraction(v)


class DoubleContext:
    """Hardware binary64 arithmetic."""

    name = "double"
    eps = 2.220446049250313e-16
    lists = _SCALAR_LISTS

    def const(self, v) -> float:
        if isinstance(v, float):
            return v
        if isinstance(v, int):
            return float(v)
        if isinstance(v, (str, Fraction)):
            fr = exact_fraction(v)
            return fr.numerator / fr.denominator
        if isinstance(v, DoubleDouble):
            return float(v)
        raise TypeError(f"cannot convert {type(v).__name__} to double")

    sqrt = staticmethod(math.sqrt)
    exp = staticmethod(math.exp)

    def ln(self, x):
        if x <= 0.0:
            raise ValueError("logarithm of a non-positive value")
        return math.log(x)

    def to_decimal(self, x) -> str:
        return repr(float(x))

    def __repr__(self):
        return "DoubleContext()"


class DoubleDoubleContext:
    """Double-double arithmetic (~31 significant decimal digits)."""

    name = "dd"
    eps = 4.930380657631324e-32  # 2**-104
    lists = _DD_LISTS

    def const(self, v) -> DoubleDouble:
        if isinstance(v, (str, Fraction)):
            return DoubleDouble.from_fraction(exact_fraction(v))
        x = DoubleDouble._coerce(v)
        if x is NotImplemented:
            raise TypeError(f"cannot convert {type(v).__name__} to double-double")
        return x

    sqrt = staticmethod(dd_sqrt)
    exp = staticmethod(dd_exp)
    ln = staticmethod(dd_ln)

    def to_decimal(self, x) -> str:
        with localcontext() as dctx:
            dctx.prec = 32
            fr = x.as_fraction()
            d = Decimal(fr.numerator) / Decimal(fr.denominator)
        return str(d)

    def __repr__(self):
        return "DoubleDoubleContext()"


class MPFloatContext:
    """mpmath arbitrary precision with a fixed decimal digit count."""

    lists = _SCALAR_LISTS

    def __init__(self, digits: int):
        from mpmath.ctx_mp import MPContext

        if digits < 16:
            raise ValueError("mp precision requires at least 16 digits")
        self.digits = digits
        self._mp = MPContext()
        self._mp.dps = digits
        self.name = f"mp:{digits}"
        self.eps = float(self._mp.eps)
        self.sqrt = self._mp.sqrt
        self.exp = self._mp.exp

    def const(self, v):
        mp = self._mp
        if isinstance(v, mp.mpf):
            return v
        if isinstance(v, (int, float)):
            return mp.mpf(v)
        if isinstance(v, (str, Fraction)):
            fr = exact_fraction(v)
            return mp.mpf(fr.numerator) / mp.mpf(fr.denominator)
        if isinstance(v, DoubleDouble):
            return mp.mpf(v.hi) + mp.mpf(v.lo)
        raise TypeError(f"cannot convert {type(v).__name__} to mp float")

    def ln(self, x):
        if x <= 0:
            raise ValueError("logarithm of a non-positive value")
        return self._mp.log(x)

    def to_decimal(self, x) -> str:
        return self._mp.nstr(x, self.digits)

    def __repr__(self):
        return f"MPFloatContext({self.digits})"


DOUBLE = DoubleContext()
DOUBLE_DOUBLE = DoubleDoubleContext()


def short_decimal(value) -> str:
    """A scalar of any context to about 6 significant digits, for messages."""
    f = float(value)
    if math.isinf(f) and type(value) is DoubleDouble:
        f = value.hi  # hi + lo can round to inf at the top of the range
    if (f == 0.0 and value != 0) or (math.isinf(f) and value - value == 0):
        # a finite mp value beyond the double range: its str keeps the exponent
        try:
            return f"{Decimal(str(value)).normalize():.6g}"
        except (InvalidOperation, Overflow):
            # an exponent beyond Decimal's
            return value.context.nstr(value, 6)
    return f"{f:.6g}"

_MP_CACHE: dict[int, MPFloatContext] = {}

DEFAULT_MP_DIGITS = 50


def mp_context(digits: int = DEFAULT_MP_DIGITS) -> MPFloatContext:
    if digits not in _MP_CACHE:
        _MP_CACHE[digits] = MPFloatContext(digits)
    return _MP_CACHE[digits]


def parse_precision(spec: str) -> object:
    """Resolve a precision name: ``double``, ``dd``, ``mp`` or ``mp:<digits>``."""
    s = spec.strip().lower()
    if s == "double":
        return DOUBLE
    if s == "dd":
        return DOUBLE_DOUBLE
    if s == "mp":
        return mp_context()
    if s.startswith("mp:"):
        try:
            digits = int(s[3:])
        except ValueError:
            raise ValueError(f"invalid mp digit count in precision spec {spec!r}")
        return mp_context(digits)
    raise ValueError(f"unknown precision {spec!r} (expected double, dd, mp or mp:<digits>)")
