"""Adaptive quadrature for higher-order convex integrands.

The quintic method blends three-point Gauss and four-point Lobatto rules as
Q = (3G + L)/4 and stops refining a uniform composite rule once
|L_n - G_n| <= 4 eps, which bounds the error of Q_n by eps for 5-convex or
5-concave C^6 integrands.  A Chebyshev/Simpson analogue for 3-convex
integrands is included as the comparison baseline, along with divided
difference convexity checks, an expression language for integrands, and
double/double-double/mpmath precision backends.
"""
from .adaptive import (
    AdaptiveResult,
    BudgetExceeded,
    GapProbe,
    Method,
    NonFiniteGap,
    SearchStrategy,
    integrate_adaptive,
    integrate_adaptive_cubic,
)
from .composite import (
    CUBIC_PAIR,
    QUINTIC_PAIR,
    CompositePair,
    apriori_bound,
    composite_pair,
    min_n_for_bound,
    partition_points,
)
from .convexity import (
    ConvexityReport,
    M6Estimate,
    Verdict,
    check_n_convexity,
    divided_difference,
    estimate_m6,
    sixth_derivative_sign,
)
from .experiments import SKIP_MARKER, ExperimentRow, experiment1, experiment2
from .expr import (
    DomainError,
    ExprSyntaxError,
    NotDifferentiable,
    SourceSpan,
    UnknownIdentifierError,
    as_integrand,
    differentiate,
    evaluate,
    parse,
    to_text,
)
from .rules import (
    Integrand,
    IntegrandError,
    Interval,
    RuleId,
    rule_table,
)
from .scalars import (
    DOUBLE,
    DOUBLE_DOUBLE,
    DoubleDouble,
    mp_context,
    parse_precision,
)

__version__ = "0.1.0"

__all__ = [
    "AdaptiveResult",
    "BudgetExceeded",
    "CompositePair",
    "ConvexityReport",
    "CUBIC_PAIR",
    "DomainError",
    "DOUBLE",
    "DOUBLE_DOUBLE",
    "DoubleDouble",
    "ExperimentRow",
    "ExprSyntaxError",
    "GapProbe",
    "Integrand",
    "IntegrandError",
    "Interval",
    "M6Estimate",
    "Method",
    "NonFiniteGap",
    "NotDifferentiable",
    "QUINTIC_PAIR",
    "RuleId",
    "SearchStrategy",
    "SKIP_MARKER",
    "SourceSpan",
    "UnknownIdentifierError",
    "Verdict",
    "apriori_bound",
    "as_integrand",
    "check_n_convexity",
    "composite_pair",
    "differentiate",
    "divided_difference",
    "estimate_m6",
    "evaluate",
    "experiment1",
    "experiment2",
    "integrate_adaptive",
    "integrate_adaptive_cubic",
    "min_n_for_bound",
    "mp_context",
    "parse",
    "parse_precision",
    "partition_points",
    "rule_table",
    "sixth_derivative_sign",
    "to_text",
]
