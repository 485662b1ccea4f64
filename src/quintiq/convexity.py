"""Divided differences and sampled higher-order convexity evidence.

A function is n-convex when every divided difference over n+2 points is
nonnegative; for C^(n+1) functions a nonnegative (n+1)-th derivative is
sufficient.  Sampling can only ever produce evidence, not proof, so the
checkers report *consistency* verdicts: a clean sign pattern, a violation
of both signs, or indeterminate when everything drowns in roundoff.

Divided differences amplify roundoff by the inverse point gap raised to the
order, so all zero-tests use a scale-aware tolerance
64 * eps * max|f| / gap^order and random tuples enforce a minimum gap.
Where gap^order underflows the tolerance is unbounded, so no tuple decides
and the verdict is indeterminate; where it overflows the tolerance is 0.

Both checkers hand one (value, tolerance, witness) entry per tuple or grid
point to one report builder, `_report`, which decides the verdict.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from enum import Enum
from operator import itemgetter

from . import expr as expr_mod
from .composite import _evaluation, partition_points
from .rules import Integrand, Interval
from .scalars import DOUBLE


class Verdict(Enum):
    CONSISTENT_WITH_CONVEX = "consistent-with-convex"
    CONSISTENT_WITH_CONCAVE = "consistent-with-concave"
    VIOLATED = "violated"
    INDETERMINATE = "indeterminate"


def divided_difference(points, values):
    """[x_0, ..., x_m; f] via the triangular recursion."""
    if len(points) != len(values):
        raise ValueError(
            f"points and values must have equal length, got {len(points)} and {len(values)}"
        )
    if len(points) == 0:
        raise ValueError("at least one point is required")
    for i in range(len(points) - 1):
        if not points[i] < points[i + 1]:
            raise ValueError(
                f"points must be strictly increasing, got {points[i]} before {points[i + 1]} "
                f"(repeated nodes are out of scope)"
            )
    current = list(values)
    m = len(points) - 1
    for j in range(1, m + 1):
        current = [
            (current[i + 1] - current[i]) / (points[i + j] - points[i])
            for i in range(m + 1 - j)
        ]
    return current[0]


@dataclass(frozen=True)
class ConvexityReport:
    order: int
    samples_tested: int
    min_divided_difference: float
    witness: tuple  # point tuple attaining the minimum
    max_divided_difference: float
    max_witness: tuple
    verdict: Verdict


#: The verdict on (a value below its -tolerance, a value above its tolerance).
_VERDICTS = {
    (True, True): Verdict.VIOLATED,
    (False, True): Verdict.CONSISTENT_WITH_CONVEX,
    (True, False): Verdict.CONSISTENT_WITH_CONCAVE,
    (False, False): Verdict.INDETERMINATE,
}


def _report(order: int, entries: list) -> ConvexityReport:
    """The report on (value, tolerance, witness) entries: the first least
    and the first greatest value with their witnesses (a nan first value is
    both), and the verdict from the values beyond their tolerances."""
    low, _, witness = min(entries, key=itemgetter(0))
    high, _, max_witness = max(entries, key=itemgetter(0))
    negative = any(v < -tol for v, tol, _ in entries)
    positive = any(v > tol for v, tol, _ in entries)
    verdict = _VERDICTS[negative, positive]
    return ConvexityReport(order, len(entries), low, witness, high, max_witness, verdict)


def check_n_convexity(
    f: Integrand,
    iv: Interval,
    order: int,
    samples: int,
    seed: int,
    ctx=DOUBLE,
) -> ConvexityReport:
    """Sample order+1 divided differences over point tuples in [a, b].

    Tuples are a deterministic blend: half sliding windows from an
    equispaced grid, half seeded random tuples with an enforced minimum gap
    of (b-a) * 1e-3 / samples.  f is evaluated at all their points as a
    composite pass evaluates it (`composite._evaluation`), and the first
    failure in order raises its `IntegrandError` with no subinterval.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    a, b = float(iv.a), float(iv.b)
    m = order + 2  # points per tuple
    tuples = _window_tuples(a, b, m, samples // 2)
    tuples += _random_tuples(a, b, m, samples - len(tuples), seed, (b - a) * 1e-3 / samples)
    if any(not pts[i] < pts[i + 1] for pts in tuples for i in range(m - 1)):
        raise ValueError(
            f"the interval [{a!r}, {b!r}] is too narrow to sample {m} distinct points in double"
        )

    abscissae = [ctx.const(p) for pts in tuples for p in pts]
    lists, evaluate = _evaluation(f, ctx)
    values = lists.scalars(evaluate(lists.vector(abscissae), [None] * len(abscissae)))
    entries = []
    for j, pts in enumerate(tuples):
        xs = abscissae[j * m : (j + 1) * m]
        vals = values[j * m : (j + 1) * m]
        top = float(divided_difference(xs, vals))
        min_gap = min(pts[i + 1] - pts[i] for i in range(m - 1))
        scale = max(abs(float(v)) for v in vals)
        try:
            power = min_gap**order
        except OverflowError:
            power = math.inf
        tol = 64.0 * ctx.eps * scale / power if power else math.inf
        entries.append((top, tol, pts))
    return _report(order, entries)


def _window_tuples(a: float, b: float, m: int, count: int) -> list:
    if count < 1:
        return []
    grid_len = count + m - 1
    step = (b - a) / (grid_len - 1)
    grid = [a + i * step for i in range(grid_len - 1)] + [b]
    return [tuple(grid[i : i + m]) for i in range(count)]


def _random_tuples(a, b, m, count, seed, min_gap) -> list:
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        for _attempt in range(100):
            pts = sorted(rng.uniform(a, b) for _ in range(m))
            if all(pts[i + 1] - pts[i] >= min_gap for i in range(m - 1)):
                out.append(tuple(pts))
                break
        else:
            # conditioning fallback: evenly spread tuple at a random offset
            span = (m - 1) * max(min_gap, (b - a) / (4 * m))
            lo = rng.uniform(a, b - span)
            out.append(tuple(lo + i * span / (m - 1) for i in range(m)))
    return out


def _d6_grid(f_expr, iv: Interval, grid: int, ctx) -> list:
    """(f^(6)(x), x) as floats at x = a, a + i*(b-a)/grid for 0 < i < grid, and b,
    from the bound derivative's ``values`` entry over the grid."""
    if grid < 1:
        raise ValueError(f"grid must be >= 1, got {grid}")
    d6 = f_expr
    for _ in range(6):
        d6 = expr_mod.differentiate(d6)
    xs = partition_points(iv, grid, ctx)
    values = expr_mod.as_integrand(d6, ctx).values(xs)
    return [(float(v), float(x)) for v, x in zip(values, xs)]


def sixth_derivative_sign(f_expr, iv: Interval, grid: int, ctx=DOUBLE) -> ConvexityReport:
    """Sign pattern of the symbolic sixth derivative on an equispaced grid.

    A constant sign certifies (up to sampling) 5-convexity or 5-concavity;
    raises NotDifferentiable if the expression cannot be differentiated six
    times and propagates evaluation domain errors.
    """
    values = _d6_grid(f_expr, iv, grid, ctx)
    tol = 64.0 * ctx.eps * max(abs(v) for v, _ in values)
    return _report(5, [(v, tol, (x,)) for v, x in values])


@dataclass(frozen=True)
class M6Estimate:
    """Sampled estimate of the sixth derivative's sup-norm.

    Heuristic by construction: a finite grid can miss the maximum, so this
    must not be fed into correctness-critical bounds without a margin.
    """

    value: float
    sample_points: int


def estimate_m6(f_expr, iv: Interval, ctx=DOUBLE, sample_points: int = 1025) -> M6Estimate:
    """Estimate sup |f''''''| by sampling the symbolic sixth derivative."""
    if sample_points < 2:
        raise ValueError(f"sample_points must be >= 2, got {sample_points}")
    values = _d6_grid(f_expr, iv, sample_points - 1, ctx)
    return M6Estimate(max(abs(v) for v, _ in values), sample_points)
