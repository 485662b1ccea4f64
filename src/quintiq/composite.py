"""Uniform composite rules and their a-priori sixth-order error bounds.

A composite rule splits [a, b] into n equal subintervals with partition
points computed as a + k*(b-a)/n, or a + k*((b-a)/n) where k*(b-a)
overflows (no cumulative stepping, and the last point is pinned to b),
applies a simple rule on each piece and sums left to right.
``composite_pair`` runs an interior-node rule and an endpoint-including rule
in one pass, computing each shared endpoint value once.

The pass has one implementation per kind of context.  ``_pair_ops``
computes it through the context's scalar operators and serves ``double``
and ``mp``.  ``_pair_dd`` serves ``dd``: it runs the same pass on the
(hi, lo) float words of each value, with the word operations of
``scalars``, in three phases per block of subintervals: the abscissae's
words, the integrand's values at them, then the sums.  An integrand bound
by ``as_integrand`` is evaluated by its tape's ``dd_words`` entry, once
over many abscissae and without a DoubleDouble per call; any other
integrand is called once per abscissa through ``call_integrand``, in the
order of ``_pair_ops``.  The
pass performs the float operations of each DoubleDouble operator it stands
in for in the same order, so every ``CompositePair`` and every
``IntegrandError`` is equal to the operator path's, which the tests keep as
its oracle.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, repeat

from .rules import Integrand, Interval, RuleId, blend_q, call_integrand, rule_table
from .scalars import _SPLITTER, DOUBLE, DoubleDouble, DoubleDoubleContext
from .scalars import _add_words, _div_words, _split

#: (interior-node rule, endpoint-including rule) pairs driving the two
#: adaptive methods.
QUINTIC_PAIR = (RuleId.GAUSS3, RuleId.LOBATTO4)
CUBIC_PAIR = (RuleId.CHEBYSHEV3, RuleId.SIMPSON)
#: Order p of each pair's stopping gap, |L_n - G_n| ~ C n^-p as n grows.
GAP_ORDER = {QUINTIC_PAIR: 6, CUBIC_PAIR: 4}


@dataclass(frozen=True)
class CompositePair:
    """Fused composite values: g_n (interior rule), l_n (endpoint rule),
    q_n = per-subinterval (3g+l)/4 summed, and the integrand call count."""

    g_n: object
    l_n: object
    q_n: object
    n: int
    evaluation_count: int


def partition_points(iv: Interval, n: int, ctx=DOUBLE) -> list:
    """n+1 equally spaced points; x_0 = a and x_n = b exactly.

    x_k is a + (k*(b-a))/n, or a + k*((b-a)/n) where k*(b-a) is not finite.
    """
    a, b = ctx.const(iv.a), ctx.const(iv.b)
    width = b - a
    xs = [a]
    for k in range(1, n):
        kw = k * width
        xs.append(a + kw / n if kw - kw == 0 else a + k * (width / n))
    xs.append(b)
    return xs


def composite_pair(
    f: Integrand, iv: Interval, n: int, ctx=DOUBLE, rule_pair=QUINTIC_PAIR
) -> CompositePair:
    """Evaluate both composite rules of a pair with shared endpoints.

    Partition-point values feed both adjacent subintervals of the
    endpoint-including rule, so the pair costs 6n+1 calls for Gauss/Lobatto
    (3n interior + 2n interior + n+1 endpoints) and 5n+1 for
    Chebyshev/Simpson.  Each rule's value sums its simple rule over the
    subintervals left to right.
    """
    if n < 1:
        raise ValueError(f"subdivision count must be >= 1, got {n}")
    open_points = rule_table(rule_pair[0], ctx)
    closed_points = rule_table(rule_pair[1], ctx)
    if isinstance(ctx, DoubleDoubleContext):
        sums = _pair_dd(f, iv, n, ctx, open_points, closed_points)
    else:
        sums = _pair_ops(f, iv, n, ctx, open_points, closed_points)
    count = (len(open_points) + len(closed_points) - 1) * n + 1
    return CompositePair(*sums, n, count)


def _pair_ops(f, iv, n, ctx, open_points, closed_points) -> tuple:
    """(g_n, l_n, q_n) through the context's scalar operators."""
    w_first = closed_points[0][1]
    w_last = closed_points[-1][1]
    closed_interior = closed_points[1:-1]

    xs = partition_points(iv, n, ctx)
    end_values = [call_integrand(f, x, max(k, 1)) for k, x in enumerate(xs)]

    g_total = l_total = q_total = None
    for k in range(1, n + 1):
        a_k, b_k = xs[k - 1], xs[k]
        h = (b_k - a_k) / 2
        m = (a_k + b_k) / 2

        g_sum = None
        for node, weight in open_points:
            term = weight * call_integrand(f, m + h * node, k)
            g_sum = term if g_sum is None else g_sum + term
        g_k = h * g_sum

        l_sum = w_first * end_values[k - 1]
        for node, weight in closed_interior:
            l_sum = l_sum + weight * call_integrand(f, m + h * node, k)
        l_sum = l_sum + w_last * end_values[k]
        l_k = h * l_sum

        q_k = blend_q(g_k, l_k)
        g_total = g_k if g_total is None else g_total + g_k
        l_total = l_k if l_total is None else l_total + l_k
        q_total = q_k if q_total is None else q_total + q_k
    return g_total, l_total, q_total


# -- the double-double pass on plain float words ----------------------------
#
# _pair_dd is _pair_ops for a double-double context with every DoubleDouble
# operator performed on (hi, lo) float words: written out in locals where it
# runs once per node, and through the word operations of scalars where it
# runs once per subinterval.  Each performs the float operations of the
# operator it stands in for (named in its comment, self first) in the same
# order, so each result is bitwise equal; a Dekker split of a value that
# several products share is computed once.  An integrand value that is not a
# DoubleDouble gets its product with the weight from the operator itself.


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


def _rule_steps(open_points, closed_points) -> tuple:
    """(nodes, open steps, closed steps) of a rule pair.

    nodes holds (t_hi, t_lo, t_h, t_l) for each node t of the open rule,
    then each interior node of the closed rule: the order in which a
    subinterval's abscissae are evaluated.  Each rule's steps are (end,
    w_hi, w_lo, w_h, w_l) per point: end is -1 for a node, else the offset
    from the subinterval's left partition point of an endpoint.  (t_h, t_l)
    and (w_h, w_l) are Dekker splits.
    """

    def words(v):
        return v.hi, v.lo, *_split(v.hi)

    interior = closed_points[1:-1]
    nodes = tuple(words(t) for t, _w in (*open_points, *interior))
    open_steps = tuple((-1, *words(w)) for _t, w in open_points)
    closed_steps = (
        (0, *words(closed_points[0][1])),
        *((-1, *words(w)) for _t, w in interior),
        (1, *words(closed_points[-1][1])),
    )
    return nodes, open_steps, closed_steps


#: Abscissae that one run of a tape's ``dd_words`` entry evaluates at most,
#: which bounds the word lists a run holds whatever n is.
_BATCH = 256


def _values(f, dd_words, xh, xl, ks, per: int) -> tuple[list, list]:
    """(hi words, lo words) of f at the abscissae DoubleDouble(xh[j], xl[j]),
    which lie in subintervals ks, per abscissae to each.

    With a batch entry ``dd_words`` (a dd-bound tape's), runs of it evaluate
    `_BATCH` abscissae at a time.  If one raises, or without the entry, f is
    called per abscissa through `call_integrand`, in list order, which
    raises the first failure as the `IntegrandError` of its subinterval.  A
    value that is not a DoubleDouble is kept as its own hi word, with None
    for its lo word.
    """
    if dd_words is not None:
        try:
            yh = []
            yl = []
            for i in range(0, len(xh), _BATCH):
                hs, ls = dd_words(xh[i : i + _BATCH], xl[i : i + _BATCH])
                yh += hs
                yl += ls
            return yh, yl
        except (ArithmeticError, ValueError):
            pass
    subintervals = ks if per == 1 else chain.from_iterable(repeat(k, per) for k in ks)
    yh = []
    yl = []
    put_hi = yh.append
    put_lo = yl.append
    for hi, lo, k in zip(xh, xl, subintervals):
        y = call_integrand(f, DoubleDouble(hi, lo), k)
        if type(y) is DoubleDouble:
            put_hi(y.hi)
            put_lo(y.lo)
        else:
            put_hi(y)
            put_lo(None)
    return yh, yl


def _pair_dd(f, iv, n, ctx, open_points, closed_points):
    """_pair_ops for a double-double context, on float words.

    It computes the partition and evaluates f at its n+1 points, then runs
    through the subintervals in blocks of at most `_BATCH` nodes.  For each
    block it computes the abscissae of the nodes and the values of f at
    them, then adds the block's subintervals to the sums, so the lists it
    holds beyond the partition's stay within a block.  f is called at the
    abscissae of _pair_ops, in its order, unless its ``dd_words`` entry
    evaluates them (see `_values`).
    """
    a = ctx.const(iv.a)
    b = ctx.const(iv.b)
    width = b - a
    whi = width.hi
    wlo = width.lo
    wh, wl = _split(whi)
    wz = whi * 0.0
    nf = float(n)
    ahi = a.hi
    alo = a.lo
    xh = [ahi]
    xl = [alo]
    for k in range(1, n):
        # k * width, that is width.__mul__(float(k))
        kf = float(k)
        p = whi * kf
        c = _SPLITTER * kf
        bh = c - (c - kf)
        bl = kf - bh
        e = ((wh * bh - p) + wh * bl + wl * bh) + wl * bl
        e += wz + wlo * kf
        hi = p + e
        lo = e - (hi - p)
        if lo != lo:
            hi = p
            lo = 0.0
        if hi - hi == 0.0:
            # a + (k * width) / n
            hi, lo = _add_words(ahi, alo, *_div_words(hi, lo, nf, 0.0))
        else:
            # k * width is not finite: a + k * (width / n), as partition_points
            x = a + k * (width / n)
            hi = x.hi
            lo = x.lo
        xh.append(hi)
        xl.append(lo)
    xh.append(b.hi)
    xl.append(b.lo)
    dd_words = getattr(f, "dd_words", None)
    eh, el = _values(f, dd_words, xh, xl, chain((1,), range(1, n + 1)), 1)

    nodes, open_steps, closed_steps = _rule_steps(open_points, closed_points)
    block_len = _BATCH // len(nodes)
    for k0 in range(1, n + 1, block_len):
        block = range(k0, min(k0 + block_len, n + 1))
        # the abscissae m + h * t of the block's nodes, and each h with its
        # split; an integrand with dd_words is evaluated at all of them
        # afterwards, any other is called at each as it is computed
        hs = []
        vh = []
        vl = []
        put_hi = vh.append
        put_lo = vl.append
        for k in block:
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
                if dd_words is not None:
                    put_hi(hi)
                    put_lo(lo)
                    continue
                y = call_integrand(f, DoubleDouble(hi, lo), k)
                if type(y) is DoubleDouble:
                    put_hi(y.hi)
                    put_lo(y.lo)
                else:
                    put_hi(y)
                    put_lo(None)
        if dd_words is not None:
            vh, vl = _values(f, dd_words, vh, vl, block, len(nodes))
        next_value = zip(vh, vl).__next__

        for k, (hhi, hlo, hh, hl) in zip(block, hs):
            for steps in (open_steps, closed_steps):
                shi = None
                for end, w_hi, w_lo, w_h, w_l in steps:
                    if end < 0:
                        yhi, ylo = next_value()
                    else:
                        i = k - 1 + end
                        yhi = eh[i]
                        ylo = el[i]
                    if ylo is not None:
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
                    else:
                        # any other value: the operator coerces it, or raises
                        y = DoubleDouble(w_hi, w_lo) * yhi
                        bhi = y.hi
                        blo = y.lo
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
            l_hi = r_hi
            l_lo = r_lo

            # blend_q: g_k.__mul__(3), .__add__(l_k), then / 4
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
            q_hi, q_lo = _scale_down(*_add_words(hi, lo, l_hi, l_lo), 4.0, 0.25)

            if k == 1:
                gt_hi, gt_lo, lt_hi, lt_lo, qt_hi, qt_lo = g_hi, g_lo, l_hi, l_lo, q_hi, q_lo
                continue
            # g_total.__add__(g_k), then the same for l and q
            gt_hi, gt_lo = _add_words(gt_hi, gt_lo, g_hi, g_lo)
            lt_hi, lt_lo = _add_words(lt_hi, lt_lo, l_hi, l_lo)
            qt_hi, qt_lo = _add_words(qt_hi, qt_lo, q_hi, q_lo)
    return (
        DoubleDouble(gt_hi, gt_lo),
        DoubleDouble(lt_hi, lt_lo),
        DoubleDouble(qt_hi, qt_lo),
    )


_BOUND_DENOMINATOR = {RuleId.GAUSS3: 2016000, RuleId.LOBATTO4: 1512000}


def apriori_bound(rule_id: RuleId, iv: Interval, n: int, m6, ctx=DOUBLE):
    """Worst-case composite error (b-a)^7 / (D n^6) * m6 with D = 2016000
    for the Gauss rule and 1512000 for the Lobatto rule; m6 bounds the sixth
    derivative's sup-norm."""
    denom = _BOUND_DENOMINATOR.get(rule_id)
    if denom is None:
        raise ValueError(f"no sixth-order bound for {rule_id}; use GAUSS3 or LOBATTO4")
    if n < 1:
        raise ValueError(f"subdivision count must be >= 1, got {n}")
    m6_s = ctx.const(m6)
    if m6_s < 0:
        raise ValueError(f"derivative bound must be nonnegative, got {m6}")
    width = ctx.const(iv.b) - ctx.const(iv.a)
    return width**7 / (denom * n**6) * m6_s


def min_n_for_bound(rule_id: RuleId, iv: Interval, m6, eps, ctx=DOUBLE) -> int:
    """Smallest n whose a-priori bound is <= eps (sixth root, then adjust)."""
    eps_s = ctx.const(eps)
    if not eps_s > 0:
        raise ValueError(f"tolerance must be positive, got {eps}")
    if ctx.const(m6) == 0:
        return 1
    width = float(ctx.const(iv.b) - ctx.const(iv.a))
    denom = _BOUND_DENOMINATOR.get(rule_id)
    if denom is None:
        raise ValueError(f"no sixth-order bound for {rule_id}; use GAUSS3 or LOBATTO4")
    ratio = width**7 * float(ctx.const(m6)) / (denom * float(eps_s))
    n = max(1, math.ceil(ratio ** (1 / 6)))
    while n > 1 and apriori_bound(rule_id, iv, n - 1, m6, ctx) <= eps_s:
        n -= 1
    while apriori_bound(rule_id, iv, n, m6, ctx) > eps_s:
        n += 1
    return n
