"""Uniform composite rules and their a-priori sixth-order error bounds.

A composite rule splits [a, b] into n equal subintervals with partition
points computed as a + k*(b-a)/n, or a + k*((b-a)/n) where k*(b-a)
overflows (no cumulative stepping, and the last point is pinned to b),
applies a simple rule on each piece and sums left to right.
``composite_pair`` runs an interior-node rule and an endpoint-including rule
in one pass, evaluating f once at each distinct abscissa: a shared endpoint
or a node both rules place at the same t (the midpoint of the
Chebyshev/Simpson pair).

The pass is written once, against a set of list kernels (``scalars``): it
builds the partition and evaluates f there, then runs through the
subintervals in blocks of at most ``expr._CHUNK`` (256) abscissae, in three
phases per block: the abscissae, f at them, then the running sums.
``_evaluation`` decides how f is evaluated, here and in ``check_n_convexity``:
a tape bound by ``as_integrand`` to the pass's context runs each block as one
vector on ``ctx.lists``.  Any other integrand is called once per abscissa
through ``call_integrand``, and so, in place, is a block whose tape run
raises: the first failure in pass order raises its ``IntegrandError``.  The
kernels perform the scalar operators' operations in the order of a pass that
calls f as it goes, so every ``CompositePair`` and ``IntegrandError`` equals
that plain pass's, which the tests keep as the oracle.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, repeat

from .expr import _CHUNK
from .rules import Integrand, Interval, RuleId, call_integrand, rule_table
from .scalars import _SCALAR_LISTS, DOUBLE

#: (interior-node rule, endpoint-including rule) pairs driving the two
#: adaptive methods.
QUINTIC_PAIR = (RuleId.GAUSS3, RuleId.LOBATTO4)
CUBIC_PAIR = (RuleId.CHEBYSHEV3, RuleId.SIMPSON)
#: Order p of each pair's stopping gap, |L_n - G_n| ~ C n^-p as n grows.
GAP_ORDER = {QUINTIC_PAIR: 6, CUBIC_PAIR: 4}

# (rule pair, context name, kernel set) -> the pair's nodes and weights in
# the form that kernel set takes
_RULES: dict = {}


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
    if n < 1:
        raise ValueError(f"subdivision count must be >= 1, got {n}")
    lists = ctx.lists
    return lists.scalars(lists.partition(ctx.const(iv.a), ctx.const(iv.b), n))


def composite_pair(
    f: Integrand, iv: Interval, n: int, ctx=DOUBLE, rule_pair=QUINTIC_PAIR
) -> CompositePair:
    """Evaluate both composite rules of a pair, each abscissa once.

    Partition-point values feed both adjacent subintervals of the
    endpoint-including rule, and a node of both rules feeds both sums, so
    the pair costs (d + 1)n + 1 calls for d distinct nodes per subinterval:
    6n+1 for Gauss/Lobatto (3n interior + 2n interior + n+1 endpoints) and
    4n+1 for Chebyshev/Simpson, whose midpoint both rules share.  Each
    rule's value sums its simple rule over the subintervals left to right.

    f is evaluated at every partition point first, then at the distinct
    nodes of each subinterval in turn, the open rule's before the closed
    rule's other interior ones; within a block every abscissa is evaluated
    before any sum.  The first failure in that order raises IntegrandError
    with its abscissa and subinterval, whether or not f is a bound tape.
    """
    if n < 1:
        raise ValueError(f"subdivision count must be >= 1, got {n}")
    lists, evaluate = _evaluation(f, ctx)
    key = (rule_pair, ctx.name, lists)
    rule = _RULES.get(key)
    if rule is None:
        points = rule_table(rule_pair[0], ctx), rule_table(rule_pair[1], ctx)
        rule = _RULES[key] = lists.rule(*points)
    nodes, weights = rule
    per = len(nodes)

    xs = lists.partition(ctx.const(iv.a), ctx.const(iv.b), n)
    ends = evaluate(xs, chain((1,), range(1, n + 1)))
    totals = None
    block = _CHUNK // per
    for k0 in range(1, n + 1, block):
        k1 = min(k0 + block, n + 1)
        hs, abscissae = lists.abscissae(xs, k0, k1, nodes)
        ks = chain.from_iterable(repeat(k, per) for k in range(k0, k1))
        totals = lists.sums(hs, evaluate(abscissae, ks), ends, k0, weights, totals)
    return CompositePair(*totals, n, (per + 1) * n + 1)


def _evaluation(f: Integrand, ctx) -> tuple:
    """(lists, evaluate): the kernel set f's values take in ctx, and
    evaluate(xs, ks), f at the vector xs as a vector, where ks names each
    abscissa's subinterval.  A tape bound to ctx runs on ``ctx.lists``; any
    other f, and a tape run that raises, is called once per abscissa."""

    def calls(xs, ks):
        return list(map(call_integrand, repeat(f), xs, ks))

    def tape(xs, ks):
        try:
            return f.vector(xs)
        except (ArithmeticError, ValueError):
            return ctx.lists.vector(calls(ctx.lists.scalars(xs), ks))

    if getattr(f, "ctx", None) is ctx and hasattr(f, "vector"):
        return ctx.lists, tape
    return _SCALAR_LISTS, calls


_BOUND_DENOMINATOR = {RuleId.GAUSS3: 2016000, RuleId.LOBATTO4: 1512000}


def apriori_bound(rule_id: RuleId, iv: Interval, n: int, m6, ctx=DOUBLE):
    """Worst-case composite error (b-a)^7 / (D n^6) * m6 with D = 2016000
    for the Gauss rule and 1512000 for the Lobatto rule; m6 bounds the sixth
    derivative's sup-norm.  Raises ValueError for any other rule, then for an
    m6 that is negative, infinite or NaN, then for a bound beyond ctx's range."""
    denom = _BOUND_DENOMINATOR.get(rule_id)
    if denom is None:
        raise ValueError(f"no sixth-order bound for {rule_id}; use GAUSS3 or LOBATTO4")
    if n < 1:
        raise ValueError(f"subdivision count must be >= 1, got {n}")
    m6_s = ctx.const(m6)
    if not 0 <= m6_s < math.inf:
        raise ValueError(f"derivative bound must be finite and nonnegative, got {m6}")
    width = ctx.const(iv.b) - ctx.const(iv.a)
    try:
        bottom = denom * ctx.const(n) ** 6
        if bottom < math.inf:
            return width**7 / bottom * m6_s
    except OverflowError:
        pass
    raise ValueError(f"the a-priori bound overflows {ctx.name} precision")


def min_n_for_bound(rule_id: RuleId, iv: Interval, m6, eps, ctx=DOUBLE) -> int:
    """Smallest n whose a-priori bound is <= eps, found by bisection.

    n doubles from 1 until the bound is <= eps, then the last step is
    bisected: about 2 log2(n) evaluations of `apriori_bound`, whose errors
    it raises.  The n returned has bound(n) <= eps < bound(n - 1).
    """
    eps_s = ctx.const(eps)
    if not eps_s > 0:
        raise ValueError(f"tolerance must be positive, got {eps}")

    def meets(n):
        return apriori_bound(rule_id, iv, n, m6, ctx) <= eps_s

    low, high = 0, 1  # the bound at low, unless low is 0, exceeds eps
    while not meets(high):
        low, high = high, 2 * high
    while high - low > 1:
        mid = (low + high) // 2
        if meets(mid):
            high = mid
        else:
            low = mid
    return high
