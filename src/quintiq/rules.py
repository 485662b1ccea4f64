"""Simple quadrature rules on an arbitrary interval.

Four rules, all stored in canonical form on [-1, 1] (nodes ascending,
weights summing to 2) and applied through the affine map
x = (a+b)/2 + (b-a)/2 * t:

* ``GAUSS3``     -- three-point Gauss-Legendre, exact through degree 5
* ``LOBATTO4``   -- four-point Gauss-Lobatto, exact through degree 5
* ``SIMPSON``    -- endpoints + midpoint, exact through degree 3
* ``CHEBYSHEV3`` -- three equal-weight nodes, exact through degree 3

Node coordinates are derived from their radical forms (sqrt 15, sqrt 5,
sqrt 2) inside the active precision context, so extended-precision runs get
full-precision tables rather than double-rounded literals.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable

from .scalars import DOUBLE, short_decimal

#: Evaluation contract for integrands: a pure callable from one scalar of
#: the active precision to another; re-entrant and free of shared state.
Integrand = Callable[[object], object]


class RuleId(Enum):
    GAUSS3 = "gauss3"
    LOBATTO4 = "lobatto4"
    SIMPSON = "simpson"
    CHEBYSHEV3 = "chebyshev3"


@dataclass(frozen=True)
class Interval:
    """Validated integration interval [a, b] with a < b, both finite."""

    a: object
    b: object

    def __post_init__(self):
        af, bf = float(self.a), float(self.b)
        if not (math.isfinite(af) and math.isfinite(bf)):
            raise ValueError(f"interval endpoints must be finite, got [{af}, {bf}]")
        if not self.a < self.b:
            raise ValueError(f"interval requires a < b, got [{af}, {bf}]")


class IntegrandError(Exception):
    """An integrand failed to evaluate; carries the offending abscissa."""

    def __init__(self, abscissa, cause: BaseException, subinterval: int | None = None):
        where = f" in subinterval {subinterval}" if subinterval is not None else ""
        super().__init__(
            f"integrand evaluation failed at x = {short_decimal(abscissa)}{where}: {cause}"
        )
        self.abscissa = abscissa
        self.subinterval = subinterval
        self.cause = cause


def rule_table(rule_id: RuleId, ctx=DOUBLE) -> tuple:
    """Canonical ((node, weight), ...) of the rule on [-1, 1], nodes
    ascending, built in the context's precision."""
    c = ctx.const
    if rule_id is RuleId.GAUSS3:
        r = ctx.sqrt(c(15)) / 5  # sqrt(3/5)
        w_out, w_mid = c(Fraction(5, 9)), c(Fraction(8, 9))
        return ((-r, w_out), (c(0), w_mid), (r, w_out))
    if rule_id is RuleId.LOBATTO4:
        r = ctx.sqrt(c(5)) / 5  # 1/sqrt(5)
        w_end, w_in = c(Fraction(1, 6)), c(Fraction(5, 6))
        return ((c(-1), w_end), (-r, w_in), (r, w_in), (c(1), w_end))
    if rule_id is RuleId.SIMPSON:
        w_end, w_mid = c(Fraction(1, 3)), c(Fraction(4, 3))
        return ((c(-1), w_end), (c(0), w_mid), (c(1), w_end))
    if rule_id is RuleId.CHEBYSHEV3:
        r = ctx.sqrt(c(2)) / 2
        w = c(Fraction(2, 3))
        return ((-r, w), (c(0), w), (r, w))
    raise ValueError(f"unsupported rule {rule_id!r}")


def call_integrand(f: Integrand, x, subinterval: int | None = None):
    """Evaluate f(x), wrapping failures with the offending abscissa."""
    try:
        return f(x)
    except IntegrandError:
        raise
    except (ArithmeticError, ValueError) as exc:
        raise IntegrandError(x, exc, subinterval) from exc
