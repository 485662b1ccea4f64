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
"""
from __future__ import annotations

import math
from decimal import Decimal, localcontext
from fractions import Fraction
from math import ldexp

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
        return s, 0.0
    return hi, lo


def _div_words(ahi: float, alo: float, d: float, dlo: float) -> tuple[float, float]:
    """DoubleDouble(ahi, alo) / DoubleDouble(d, dlo) as words, for d nonzero:
    the arithmetic of __truediv__, which checks d and wraps the result."""
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


class DoubleDouble:
    """Normalized hi + lo pair with |lo| <= 0.5 ulp(hi); ~106-bit significand.

    Standard double-double operating range: components must stay normal, so
    full accuracy holds for magnitudes roughly within [1e-270, 1e300];
    beyond that the low word degrades gracefully toward double precision,
    and a sum, product or quotient that overflows is +-inf, as in double.

    ``+ - *`` are written out as straight-line code on plain floats, with no
    helper calls and no intermediate DoubleDouble; ``/`` runs the same kind
    of code in ``_div_words``.  Each one performs the float operations of its
    textbook composition of Dekker's error-free transformations (two-sum,
    fast two-sum, split two-product) in the same order, so its result is
    bitwise equal to that composition's, which the tests keep as the
    reference.
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

    # -- arithmetic -----------------------------------------------------

    @staticmethod
    def _coerce(other):
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

    def __add__(self, other):
        if type(other) is DoubleDouble:
            bhi = other.hi
            blo = other.lo
        else:
            o = self._coerce(other)
            if o is NotImplemented:
                return NotImplemented
            bhi = o.hi
            blo = o.lo
        ahi = self.hi
        alo = self.lo
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
            return DoubleDouble(s, 0.0)
        return DoubleDouble(hi, lo)

    __radd__ = __add__

    def __neg__(self):
        return DoubleDouble(-self.hi, -self.lo)

    def __sub__(self, other):
        if type(other) is DoubleDouble:
            bhi = -other.hi
            blo = -other.lo
        else:
            o = self._coerce(other)
            if o is NotImplemented:
                return NotImplemented
            bhi = -o.hi
            blo = -o.lo
        ahi = self.hi
        alo = self.lo
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
            return DoubleDouble(s, 0.0)
        return DoubleDouble(hi, lo)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o.__sub__(self)

    def __mul__(self, other):
        if type(other) is not DoubleDouble:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a = self.hi
        b = other.hi
        # two-product of the leading words, then the cross terms
        p = a * b
        c = _SPLITTER * a
        ah = c - (c - a)
        al = a - ah
        c = _SPLITTER * b
        bh = c - (c - b)
        bl = b - bh
        e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
        e += a * other.lo + self.lo * b
        hi = p + e
        lo = e - (hi - p)
        if lo != lo:
            # a nan tail: the product overflowed, or a factor beyond ~1e300
            # overflowed its Dekker split; keep the plain product
            return DoubleDouble(p, 0.0)
        return DoubleDouble(hi, lo)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not DoubleDouble:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if other.hi == 0.0:
            raise ZeroDivisionError("double-double division by zero")
        return DoubleDouble(*_div_words(self.hi, self.lo, other.hi, other.lo))

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o.__truediv__(self)

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        result = DoubleDouble(1.0)
        base = self
        k = abs(n)
        while k:
            if k & 1:
                result = result * base
            base = base * base  # the last squaring is unused and may overflow
            k >>= 1
        # a power out of range raises, as float ** does
        if n < 0:
            if result.hi == 0.0 and self.hi != 0.0:
                # the positive power underflowed, so its reciprocal overflows
                raise OverflowError("double-double power overflow")
            return DoubleDouble(1.0) / result
        if math.isinf(result.hi) and math.isfinite(self.hi):
            raise OverflowError("double-double power overflow")
        return result

    def __abs__(self):
        return DoubleDouble(-self.hi, -self.lo) if self.hi < 0.0 else self

    # -- comparisons (valid because of the normalization invariant) -----
    # (hi, lo) ordered lexicographically; every ordered comparison with a
    # nan word is False, as it is for float

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.hi == o.hi and self.lo == o.lo

    def __lt__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.hi < o.hi or (self.hi == o.hi and self.lo < o.lo)

    def __le__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.hi < o.hi or (self.hi == o.hi and self.lo <= o.lo)

    def __gt__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.hi > o.hi or (self.hi == o.hi and self.lo > o.lo)

    def __ge__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.hi > o.hi or (self.hi == o.hi and self.lo >= o.lo)

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


# -- list kernels: one operator over lists of words --------------------------
#
# Each takes the (hi, lo) words of its operands as parallel lists and
# returns the words of the results as two new lists.  Per element it
# performs the float operations of the DoubleDouble operator it stands in
# for, in the same order, so each result is bitwise equal to that
# operator's.  The expression tape runs on them in double-double.

_INF = math.inf


def _add_lists(ah, al, bh, bl) -> tuple[list, list]:
    """DoubleDouble(ah[i], al[i]) + DoubleDouble(bh[i], bl[i]), as words."""
    hs = []
    ls = []
    put_hi = hs.append
    put_lo = ls.append
    for ahi, alo, bhi, blo in zip(ah, al, bh, bl):
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
            hi = s
            lo = 0.0
        put_hi(hi)
        put_lo(lo)
    return hs, ls


def _neg_lists(hs, ls) -> tuple[list, list]:
    """-DoubleDouble(hs[i], ls[i]), as words."""
    return [-h for h in hs], [-lo for lo in ls]


def _sub_lists(ah, al, bh, bl) -> tuple[list, list]:
    """DoubleDouble(ah[i], al[i]) - DoubleDouble(bh[i], bl[i]), as words:
    __sub__ adds the negated words."""
    return _add_lists(ah, al, *_neg_lists(bh, bl))


def _mul_lists(ah, al, bh, bl) -> tuple[list, list]:
    """DoubleDouble(ah[i], al[i]) * DoubleDouble(bh[i], bl[i]), as words."""
    hs = []
    ls = []
    put_hi = hs.append
    put_lo = ls.append
    for a, alo, b, blo in zip(ah, al, bh, bl):
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


def _div_lists(ah, al, bh, bl) -> tuple[list, list]:
    """DoubleDouble(ah[i], al[i]) / DoubleDouble(bh[i], bl[i]), as words;
    raises ZeroDivisionError where __truediv__ does."""
    hs = []
    ls = []
    for ahi, alo, d, dlo in zip(ah, al, bh, bl):
        if d == 0.0:
            raise ZeroDivisionError("double-double division by zero")
        hi, lo = _div_words(ahi, alo, d, dlo)
        hs.append(hi)
        ls.append(lo)
    return hs, ls


def _pow_lists(hs, ls, n: int) -> tuple[list, list]:
    """DoubleDouble(hs[i], ls[i]) ** n for an int n, as words; raises
    OverflowError where __pow__ does.

    The loop over the exponent's bits runs once for the whole list, with
    the products, squarings and reciprocal of __pow__ from DoubleDouble(1.0)
    on; only __pow__'s last squaring, whose value is never read, is left out.
    """
    m = len(hs)
    rh = [1.0] * m
    rl = [0.0] * m
    bh = hs
    bl = ls
    k = abs(n)
    while k:
        if k & 1:
            rh, rl = _mul_lists(rh, rl, bh, bl)
        k >>= 1
        if k:
            bh, bl = _mul_lists(bh, bl, bh, bl)
    if n < 0:
        if 0.0 in rh:
            for h, r in zip(hs, rh):
                if r == 0.0 and h != 0.0:
                    raise OverflowError("double-double power overflow")
        return _div_lists([1.0] * m, [0.0] * m, rh, rl)
    if _INF in rh or -_INF in rh:
        for h, r in zip(hs, rh):
            if math.isinf(r) and math.isfinite(h):
                raise OverflowError("double-double power overflow")
    return rh, rl


def _plus_lists(hs, ls) -> tuple[list, list]:
    """The zero DoubleDouble(0.0) where DoubleDouble(hs[i], ls[i]) <= 0, and
    the element itself elsewhere, nan included, as words."""
    ph = []
    pl = []
    for h, lo in zip(hs, ls):
        if h < 0.0 or (h == 0.0 and lo <= 0.0):
            ph.append(0.0)
            pl.append(0.0)
        else:
            ph.append(h)
            pl.append(lo)
    return ph, pl


def _zero_in_lists(hs, ls) -> bool:
    """Whether some DoubleDouble(hs[i], ls[i]) == 0."""
    return 0.0 in hs and any(h == 0.0 and lo == 0.0 for h, lo in zip(hs, ls))


def _map_lists(fn, hs, ls) -> tuple[list, list]:
    """fn(DoubleDouble(hs[i], ls[i])), a DoubleDouble, as words."""
    values = [fn(DoubleDouble(h, lo)) for h, lo in zip(hs, ls)]
    return [v.hi for v in values], [v.lo for v in values]


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
    # one Newton step on exp(y) = x; the double seed leaves O(eps^2) error
    e = dd_exp(DoubleDouble(-y0))
    return DoubleDouble(y0) + x * e - 1


class DoubleContext:
    """Hardware binary64 arithmetic."""

    name = "double"
    eps = 2.220446049250313e-16

    def const(self, v) -> float:
        if isinstance(v, float):
            return v
        if isinstance(v, int):
            return float(v)
        if isinstance(v, (str, Fraction)):
            fr = Fraction(v)
            return fr.numerator / fr.denominator
        if isinstance(v, DoubleDouble):
            return float(v)
        raise TypeError(f"cannot convert {type(v).__name__} to double")

    def sqrt(self, x):
        return math.sqrt(x)

    def exp(self, x):
        return math.exp(x)

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

    def const(self, v) -> DoubleDouble:
        if isinstance(v, DoubleDouble):
            return v
        if isinstance(v, float):
            return DoubleDouble(v)
        if isinstance(v, (int, str, Fraction)):
            fr = Fraction(v)
            if fr.denominator == 1 and abs(fr.numerator) < 2**53:
                return DoubleDouble(float(fr.numerator))
            return DoubleDouble.from_fraction(fr)
        raise TypeError(f"cannot convert {type(v).__name__} to double-double")

    def sqrt(self, x):
        return dd_sqrt(x)

    def exp(self, x):
        return dd_exp(x)

    def ln(self, x):
        return dd_ln(x)

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

    def __init__(self, digits: int):
        from mpmath.ctx_mp import MPContext

        if digits < 16:
            raise ValueError("mp precision requires at least 16 digits")
        self.digits = digits
        self._mp = MPContext()
        self._mp.dps = digits
        self.name = f"mp:{digits}"
        self.eps = float(self._mp.eps)

    def const(self, v):
        mp = self._mp
        if isinstance(v, mp.mpf):
            return v
        if isinstance(v, (int, float)):
            return mp.mpf(v)
        if isinstance(v, (str, Fraction)):
            fr = Fraction(v)
            return mp.mpf(fr.numerator) / mp.mpf(fr.denominator)
        if isinstance(v, DoubleDouble):
            return mp.mpf(v.hi) + mp.mpf(v.lo)
        raise TypeError(f"cannot convert {type(v).__name__} to mp float")

    def sqrt(self, x):
        return self._mp.sqrt(x)

    def exp(self, x):
        return self._mp.exp(x)

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
    if (f == 0.0 and value != 0) or (math.isinf(f) and value - value == 0):
        # a finite mp value beyond the double range: its str keeps the exponent
        return f"{Decimal(str(value)).normalize():.6g}"
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
