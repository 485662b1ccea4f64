"""Adaptive integration driven by the two-rule gap stopping criterion.

For a 5-convex or 5-concave integrand of class C^6 the blended composite
value Q_n = (3 G_n + L_n)/4 satisfies |integral - Q_n| <= |L_n - G_n|/4, so
the search stops at the first n with |L_n - G_n| <= 4 eps and returns Q_n
with a guaranteed error of at most eps.  The same machinery drives the
lower-order Chebyshev/Simpson method for 3-convex integrands, stopping on
|S_n - C_n| <= 4 eps.

Two searches find that n.  ``linear`` tries n = 1, 2, 3, ... and is minimal
unconditionally.  ``doubling`` brackets the crossing and predicts each next
probe from the gap law |L_n - G_n| ~ C n^-6 (n^-4 for the cubic pair); it
returns the same minimal n whenever the gap sequence is non-increasing, with
a small fraction of the composite passes.  Small n are pre-asymptotic, so
while the law predicts an n at least ``_LADDER`` times the current one the
search only doubles n: those passes cost about 1/8 of the answer's, and the
prediction from the last of them usually lands on the answer or one below
it, so the search ends after about two full passes.

The error guarantee is conditional on the convexity hypothesis; it is the
caller's responsibility (see ``quintiq.convexity`` for sampled evidence).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .composite import CUBIC_PAIR, GAP_ORDER, QUINTIC_PAIR, CompositePair, composite_pair
from .rules import Integrand, Interval
from .scalars import DOUBLE, short_decimal


#: The search budget: the largest n a search probes unless given another.
N_MAX = 10**6


class Method(Enum):
    QUINTIC = "quintic"  # Gauss-3 / Lobatto-4, for 5-convex or 5-concave f
    CUBIC = "cubic"  # Chebyshev-3 / Simpson, for 3-convex or 3-concave f


class SearchStrategy(Enum):
    #: n = 1, 2, 3, ... -- returns the smallest admissible n unconditionally
    LINEAR_MINIMAL = "linear"
    #: order-guided bracketing: each probe predicted from the n^-p gap law,
    #: safeguarded by bisection; minimal n whenever the gap sequence is
    #: non-increasing, and far fewer evaluations
    DOUBLING_BISECT = "doubling"


@dataclass(frozen=True)
class AdaptiveResult:
    value: object  # Q_n at the final n
    n_final: int
    gap_final: object  # |L_n - G_n| at the final n
    epsilon: object
    evaluations: int
    history: tuple  # ((n, gap), ...) in the order the search probed
    method: Method


class BudgetExceeded(Exception):
    """No n <= n_max satisfied the stopping criterion."""

    def __init__(self, n_max: int, epsilon, best_n: int, best_gap):
        super().__init__(
            f"no n <= {n_max} reached gap <= 4*eps (eps = {short_decimal(epsilon)}); "
            f"best gap {short_decimal(best_gap)} at n = {best_n}"
        )
        self.n_max = n_max
        self.epsilon = epsilon
        self.best_n = best_n
        self.best_gap = best_gap


class NonFiniteGap(ArithmeticError):
    """The gap |L_n - G_n| is NaN or infinite, so no search can compare it
    with the threshold: the integrand or the rule sums overflowed."""

    def __init__(self, n: int, gap):
        super().__init__(
            f"gap |L_n - G_n| is {short_decimal(gap)} at n = {n}; "
            "the integrand or the rule sums overflow at this precision"
        )
        self.n = n
        self.gap = gap


class GapProbe:
    """Memoized composite-pair evaluator; counts fresh integrand calls."""

    def __init__(self, f: Integrand, iv: Interval, ctx=DOUBLE, rule_pair=QUINTIC_PAIR):
        self.f = f
        self.iv = iv
        self.ctx = ctx
        self.rule_pair = rule_pair
        self.evaluations = 0
        self._cache: dict[int, CompositePair] = {}

    def pair(self, n: int) -> CompositePair:
        hit = self._cache.get(n)
        if hit is None:
            hit = composite_pair(self.f, self.iv, n, self.ctx, self.rule_pair)
            self._cache[n] = hit
            self.evaluations += hit.evaluation_count
        return hit

    def gap(self, n: int):
        p = self.pair(n)
        gap = abs(p.l_n - p.g_n)
        # gap - gap is 0 exactly when gap is finite in the context's own
        # arithmetic; float() would turn a finite mp gap of 1e400 into inf
        if not gap - gap == 0:
            raise NonFiniteGap(n, gap)
        return gap


def _best(history):
    return min(history, key=lambda item: item[1])


def _search_linear(probe: GapProbe, threshold, n_max: int, epsilon):
    history = []
    for n in range(1, n_max + 1):
        gap = probe.gap(n)
        history.append((n, gap))
        if gap <= threshold:
            return n, history
    best_n, best_gap = _best(history)
    raise BudgetExceeded(n_max, epsilon, best_n, best_gap)


#: Largest gap/threshold ratio a prediction uses; an overflowing or NaN ratio
#: is clamped to it so that the predicted n stays a finite integer.
_RATIO_CAP = 1e300

#: Before any probe has passed, a prediction at least this many times the
#: current n is not trusted: the next probe doubles n instead.
_LADDER = 32


def _predict(n: int, gap, threshold, order: int) -> int:
    """Smallest m with C m^-order <= threshold, for C fitted to gap at n.

    The ratio is divided in the context's own arithmetic: a threshold below
    the double range would underflow if it were converted to a float first.
    """
    ratio = float(gap / threshold)
    if not ratio < _RATIO_CAP:
        ratio = _RATIO_CAP
    return math.ceil(n * ratio ** (1 / order))


def _search_doubling(probe: GapProbe, threshold, n_max: int, epsilon):
    """Order-guided bracketing for the smallest n with gap(n) <= threshold.

    Keeps gap(lo) > threshold >= gap(hi), lo = 0 standing for "no failing
    probe yet", and stops when hi - lo == 1.  Each next probe is predicted
    from the last one by the gap law C n^-p, clamped into (lo, hi) and to
    n_max.  Until a probe passes, a prediction of _LADDER times n or more
    is not trusted and the next probe is 2n.  This ladder never lands
    above twice the answer, and where the law holds its passes together
    cost about 1/8 of the answer's.  Two safeguards, in the style of
    Brent's zero finder, bound the probe count by a small multiple of
    bisection's whatever the gaps do: a bracketed step that did not halve
    the bracket is followed by a midpoint step, and once four probes off
    the ladder have failed with no passing probe yet, every further probe
    at least doubles n.  The result is the minimal n whenever the gap
    sequence is non-increasing.
    """
    order = GAP_ORDER[probe.rule_pair]
    history = []
    lo, hi = 0, None
    n, width = 1, None  # width: the bracket when the current probe was chosen
    # failed probes off the ladder while none has passed
    misses = 0
    while True:
        gap = probe.gap(n)
        history.append((n, gap))
        if gap <= threshold:
            hi = n
        else:
            lo = n
        guess = _predict(n, gap, threshold, order)
        if hi is None:
            if n >= n_max:
                best_n, best_gap = _best(history)
                raise BudgetExceeded(n_max, epsilon, best_n, best_gap)
            if guess >= _LADDER * n:
                n = min(2 * n, n_max)
                continue
            misses += 1
            if misses >= 4:
                guess = max(guess, 2 * n)
            n = min(max(guess, n + 1), n_max)
            continue
        if hi - lo == 1:
            break
        if width is not None and hi - lo > (width + 1) // 2:
            n = (lo + hi) // 2
        else:
            n = min(max(guess, lo + 1), hi - 1)
        width = hi - lo
    if history[-1][0] != hi:
        history.append((hi, probe.gap(hi)))
    return hi, history


_SEARCHES = {
    SearchStrategy.LINEAR_MINIMAL: _search_linear,
    SearchStrategy.DOUBLING_BISECT: _search_doubling,
}


def _run(f, iv, eps, strategy, n_max, ctx, rule_pair, method) -> AdaptiveResult:
    eps_s = ctx.const(eps)
    if not eps_s > 0:
        raise ValueError(f"tolerance must be positive, got {eps}")
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    threshold = 4 * eps_s
    probe = GapProbe(f, iv, ctx, rule_pair)
    n_final, history = _SEARCHES[strategy](probe, threshold, n_max, eps_s)
    final = probe.pair(n_final)
    return AdaptiveResult(
        value=final.q_n,
        n_final=n_final,
        gap_final=abs(final.l_n - final.g_n),
        epsilon=eps_s,
        evaluations=probe.evaluations,
        history=tuple(history),
        method=method,
    )


def integrate_adaptive(
    f: Integrand,
    iv: Interval,
    eps,
    strategy: SearchStrategy = SearchStrategy.LINEAR_MINIMAL,
    n_max: int = N_MAX,
    ctx=DOUBLE,
) -> AdaptiveResult:
    """Adaptive Gauss/Lobatto integration of a 5-convex or 5-concave f.

    Starts at n = 1 and searches for n with |L_n - G_n| <= 4 eps; the
    returned value is Q_n, within eps of the integral whenever the
    convexity precondition holds.  Raises BudgetExceeded past n_max.
    """
    return _run(f, iv, eps, strategy, n_max, ctx, QUINTIC_PAIR, Method.QUINTIC)


def integrate_adaptive_cubic(
    f: Integrand,
    iv: Interval,
    eps,
    strategy: SearchStrategy = SearchStrategy.LINEAR_MINIMAL,
    n_max: int = N_MAX,
    ctx=DOUBLE,
) -> AdaptiveResult:
    """Chebyshev/Simpson analogue of ``integrate_adaptive`` for 3-convex or
    3-concave integrands: stops on |S_n - C_n| <= 4 eps, returns (3C+S)/4."""
    return _run(f, iv, eps, strategy, n_max, ctx, CUBIC_PAIR, Method.CUBIC)
