"""Uniform composite rules and their a-priori sixth-order error bounds.

A composite rule splits [a, b] into n equal subintervals with partition
points computed as a + k*(b-a)/n (no cumulative stepping, and the last
point is pinned to b), applies a simple rule on each piece and sums left to
right.  ``composite_pair`` runs an interior-node rule and an
endpoint-including rule in one pass, computing each shared endpoint value
once.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .rules import Integrand, Interval, RuleId, blend_q, call_integrand, rule_table
from .scalars import DOUBLE

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
    """n+1 equally spaced points; x_0 = a and x_n = b exactly."""
    a, b = ctx.const(iv.a), ctx.const(iv.b)
    width = b - a
    return [a] + [a + (k * width) / n for k in range(1, n)] + [b]


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
    open_id, closed_id = rule_pair
    open_points = rule_table(open_id, ctx)
    closed_points = rule_table(closed_id, ctx)
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

    count = (len(open_points) + len(closed_points) - 1) * n + 1
    return CompositePair(g_total, l_total, q_total, n, count)


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
