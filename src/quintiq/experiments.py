"""Reproduction of the two benchmark tables.

Experiment 1: subdivisions needed for the integral of 1/x over [1, 2] at
tolerances 1e-1 .. 1e-16, for the quintic (Gauss/Lobatto) method and the
cubic (Chebyshev/Simpson) baseline.  Experiment 2: the same comparison for
exp over [0, b], b = 1..10, at a fixed tolerance of 1e-8.  Each experiment
binds its integrand's expression to the context once, as ``integrate --fn``
does, so every composite pass evaluates it as a tape over whole blocks of
abscissae.

Rows whose threshold 4*eps sits below the decidability floor of the active
precision are *skipped*, not computed: near the roundoff floor the measured
gap is noise and any reported n would be wrong.  Hardware doubles cannot
decide Experiment 1 below roughly 4e-13; the double-double default decides
all sixteen rows.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .adaptive import N_MAX, GapProbe, _search_doubling
from .composite import CUBIC_PAIR, QUINTIC_PAIR
from .expr import as_integrand, parse
from .rules import Interval
from .scalars import DOUBLE_DOUBLE

#: CSV cell emitted in place of n for rows the precision cannot decide.
SKIP_MARKER = "requires-extended-precision"


@dataclass(frozen=True)
class ExperimentRow:
    label: str  # tolerance (experiment 1) or right endpoint b (experiment 2)
    n_quintic: Optional[int]  # None when the row was skipped
    n_cubic: Optional[int]


def _decidability_floor(scale: float, ctx) -> float:
    """Smallest gap threshold the context can resolve against roundoff."""
    return 1024.0 * ctx.eps * max(1.0, abs(scale))


def _row(label: str, quintic: GapProbe, cubic: GapProbe, eps: Fraction, ctx) -> ExperimentRow:
    """Both minimal n at eps, or a skipped row when 4 eps sits below the floor."""
    if 4 * float(eps) < _decidability_floor(float(quintic.pair(1).q_n), ctx):
        return ExperimentRow(label, None, None)
    eps_s = ctx.const(eps)
    n_quintic, _ = _search_doubling(quintic, 4 * eps_s, N_MAX, eps_s)
    n_cubic, _ = _search_doubling(cubic, 4 * eps_s, N_MAX, eps_s)
    return ExperimentRow(label, n_quintic, n_cubic)


def experiment1(ctx=DOUBLE_DOUBLE) -> list[ExperimentRow]:
    """Tolerance sweep 1e-1 .. 1e-16 for the integral of 1/x over [1, 2]."""
    f = as_integrand(parse("1/x"), ctx)
    iv = Interval(ctx.const(1), ctx.const(2))
    # one probe pair for every row, so tighter rows reuse the memoized passes
    quintic = GapProbe(f, iv, ctx, QUINTIC_PAIR)
    cubic = GapProbe(f, iv, ctx, CUBIC_PAIR)
    return [_row(f"1e-{k}", quintic, cubic, Fraction(1, 10**k), ctx) for k in range(1, 17)]


def experiment2(ctx=DOUBLE_DOUBLE) -> list[ExperimentRow]:
    """Interval sweep [0, b], b = 1..10, for exp at a fixed eps = 1e-8."""
    eps = Fraction(1, 10**8)
    f = as_integrand(parse("exp(x)"), ctx)
    rows = []
    for b in range(1, 11):
        iv = Interval(ctx.const(0), ctx.const(b))
        quintic = GapProbe(f, iv, ctx, QUINTIC_PAIR)
        cubic = GapProbe(f, iv, ctx, CUBIC_PAIR)
        rows.append(_row(str(b), quintic, cubic, eps, ctx))
    return rows
