import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quintiq.composite import partition_points
from quintiq.convexity import (
    Verdict,
    _d6_grid,
    _report,
    check_n_convexity,
    divided_difference,
    sixth_derivative_sign,
)
from quintiq.expr import DomainError, as_integrand, differentiate, parse
from quintiq.rules import IntegrandError, Interval
from quintiq.scalars import DOUBLE, DOUBLE_DOUBLE, mp_context

import corpus as corpus_mod
from support import convex_integrands, reference_grid_report, reference_sampled_report


class TestDividedDifference:
    def test_slope(self):
        assert divided_difference([0.0, 1.0], [0.0, 1.0]) == 1.0

    def test_single_point_is_value(self):
        assert divided_difference([2.0], [5.0]) == 5.0

    def test_cubic_leading_coefficient(self):
        pts = [0.0, 1.0, 2.0, 3.0]
        assert divided_difference(pts, [p**3 for p in pts]) == pytest.approx(1.0, rel=1e-14)

    def test_order_exceeding_degree_vanishes(self):
        pts = [0.0, 1.0, 2.0, 3.0]
        assert divided_difference(pts, [p**2 for p in pts]) == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("m", range(1, 9))
    def test_monomial_leading_difference_is_one(self, m):
        # over m+1 points the order-m difference of x^m equals 1
        rng = random.Random(m)
        for _ in range(20):
            pts = sorted(rng.uniform(-3.0, 3.0) for _ in range(m + 1))
            if min(b - a for a, b in zip(pts, pts[1:])) < 1e-2:
                continue
            top = divided_difference(pts, [p**m for p in pts])
            assert top == pytest.approx(1.0, rel=1e-8), pts

    def test_rejects_unsorted_and_repeated(self):
        with pytest.raises(ValueError):
            divided_difference([1.0, 0.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            divided_difference([1.0, 1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            divided_difference([1.0, 2.0], [1.0])
        with pytest.raises(ValueError):
            divided_difference([], [])

    def test_table_structure(self):
        pts = [0.0, 0.5, 1.5, 2.0]
        vals = [p**3 - p for p in pts]
        # row 0 of the triangle is the values themselves
        assert [divided_difference([p], [v]) for p, v in zip(pts, vals)] == vals
        # recursion identity for the first order-1 entry
        assert divided_difference(pts[:2], vals[:2]) == (vals[1] - vals[0]) / (pts[1] - pts[0])
        assert divided_difference(pts, vals) == pytest.approx(1.0, rel=1e-12)

    def test_table_works_in_dd(self):
        pts = [DOUBLE_DOUBLE.const(t) for t in ("0", "1", "2", "3")]
        vals = [p**3 for p in pts]
        top = divided_difference(pts, vals)
        assert abs(float(top - 1)) < 1e-30


class TestCheckNConvexity:
    def test_x6_is_5_convex(self):
        report = check_n_convexity(lambda x: x**6, Interval(-1.0, 1.0), 5, 200, seed=1)
        assert report.verdict is Verdict.CONSISTENT_WITH_CONVEX
        assert report.samples_tested == 200
        assert report.min_divided_difference >= 0.0
        assert len(report.witness) == 7

    def test_plus_power_is_5_convex(self):
        f = corpus_mod.integrand(corpus_mod.CORPUS[6], DOUBLE)
        report = check_n_convexity(f, Interval(-1.0, 1.0), 5, 200, seed=1)
        assert report.verdict is Verdict.CONSISTENT_WITH_CONVEX

    def test_negated_exp_is_5_concave(self):
        report = check_n_convexity(
            lambda x: -math.exp(x), Interval(0.0, 1.0), 5, 200, seed=1
        )
        assert report.verdict is Verdict.CONSISTENT_WITH_CONCAVE

    def test_polynomial_below_order_is_indeterminate(self):
        # x^5 has identically zero order-6 divided differences
        report = check_n_convexity(lambda x: x**5, Interval(-1.0, 1.0), 5, 100, seed=3)
        assert report.verdict is Verdict.INDETERMINATE

    def test_sign_change_detected(self):
        # x^7 is not 5-convex across the origin: seventh derivative flips sign
        report = check_n_convexity(lambda x: x**7, Interval(-1.0, 1.0), 5, 200, seed=1)
        assert report.verdict is Verdict.VIOLATED
        assert report.min_divided_difference < 0 < report.max_divided_difference

    def test_ordinary_convexity_order_one(self):
        report = check_n_convexity(lambda x: x * x, Interval(-2.0, 2.0), 1, 100, seed=5)
        assert report.verdict is Verdict.CONSISTENT_WITH_CONVEX
        assert len(report.witness) == 3

    def test_deterministic_given_seed(self):
        f = lambda x: x**6
        r1 = check_n_convexity(f, Interval(-1.0, 1.0), 5, 60, seed=42)
        r2 = check_n_convexity(f, Interval(-1.0, 1.0), 5, 60, seed=42)
        assert r1 == r2

    def test_antisymmetry_under_negation(self):
        f = corpus_mod.integrand(corpus_mod.CORPUS[0], DOUBLE)
        neg = lambda x: -f(x)
        r_pos = check_n_convexity(f, Interval(1.0, 2.0), 5, 120, seed=9)
        r_neg = check_n_convexity(neg, Interval(1.0, 2.0), 5, 120, seed=9)
        assert r_pos.verdict is Verdict.CONSISTENT_WITH_CONVEX
        assert r_neg.verdict is Verdict.CONSISTENT_WITH_CONCAVE
        assert r_neg.min_divided_difference == pytest.approx(
            -r_pos.max_divided_difference, rel=1e-12
        )
        assert r_neg.witness == r_pos.max_witness

    @pytest.mark.parametrize("fn", corpus_mod.CONVEX_CORPUS, ids=lambda f: f.name)
    def test_never_violated_on_certified_corpus(self, fn):
        f = corpus_mod.integrand(fn, DOUBLE)
        iv = corpus_mod.interval(fn, DOUBLE)
        report = check_n_convexity(f, iv, 5, 200, seed=1)
        assert report.verdict is not Verdict.VIOLATED, fn.name

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            check_n_convexity(lambda x: x, Interval(0.0, 1.0), 0, 10, seed=1)
        with pytest.raises(ValueError):
            check_n_convexity(lambda x: x, Interval(0.0, 1.0), 5, 0, seed=1)


class TestSixthDerivativeSign:
    def test_reciprocal_minimum_at_right_endpoint(self):
        report = sixth_derivative_sign(parse("1/x"), Interval(1.0, 2.0), 1024)
        assert report.verdict is Verdict.CONSISTENT_WITH_CONVEX
        assert report.samples_tested == 1025
        assert report.min_divided_difference == pytest.approx(720 / 2**7, rel=1e-9)
        assert report.witness[0] == pytest.approx(2.0)
        assert report.max_divided_difference == pytest.approx(720.0, rel=1e-9)

    def test_exp_minimum_at_left_endpoint(self):
        report = sixth_derivative_sign(parse("exp(x)"), Interval(0.0, 1.0), 1024)
        assert report.verdict is Verdict.CONSISTENT_WITH_CONVEX
        assert report.min_divided_difference == pytest.approx(1.0, rel=1e-12)
        assert report.witness[0] == 0.0

    def test_x5_indeterminate(self):
        report = sixth_derivative_sign(parse("x^5"), Interval(-1.0, 1.0), 1024)
        assert report.verdict is Verdict.INDETERMINATE
        assert report.min_divided_difference == 0.0 == report.max_divided_difference

    def test_ln_is_concave_side(self):
        report = sixth_derivative_sign(parse("ln(x)"), Interval(1.0, 2.0), 256)
        assert report.verdict is Verdict.CONSISTENT_WITH_CONCAVE
        assert report.max_divided_difference <= 0.0

    def test_x7_violated(self):
        report = sixth_derivative_sign(parse("x^7"), Interval(-1.0, 1.0), 128)
        assert report.verdict is Verdict.VIOLATED

    def test_domain_error_propagates(self):
        with pytest.raises(DomainError):
            sixth_derivative_sign(parse("ln(x)"), Interval(-1.0, 1.0), 16)

    def test_plus_power_grid(self):
        report = sixth_derivative_sign(parse("plus(x-0.6)^7"), Interval(-1.0, 1.0), 512)
        assert report.verdict is Verdict.CONSISTENT_WITH_CONVEX
        assert report.max_divided_difference == pytest.approx(5040 * 0.4, rel=1e-9)

    @given(convex_integrands())
    @settings(max_examples=8, deadline=None)
    def test_the_generated_family_has_its_side(self, case):
        text, a, b, _integral, side = case
        report = sixth_derivative_sign(parse(text), Interval(float(a), float(b)), 64)
        want = Verdict.CONSISTENT_WITH_CONVEX if side > 0 else Verdict.CONSISTENT_WITH_CONCAVE
        assert report.verdict is want, text


# --------------------------------------------------------------------------
# One run of the bound tape's values entry against calls per point

_CONTEXTS = {"double": DOUBLE, "dd": DOUBLE_DOUBLE, "mp:30": mp_context(30)}


@pytest.mark.parametrize("precision", sorted(_CONTEXTS))
@pytest.mark.parametrize(
    "text, a, b, grid",
    [("1/x", "1", "2", 1024), ("ln(x)", "1", "2", 200), ("plus(x-0.6)^7", "-1", "1", 200)],
)
def test_d6_grid_equals_the_calls_per_point(precision, text, a, b, grid):
    ctx = _CONTEXTS[precision]
    iv = Interval(ctx.const(a), ctx.const(b))
    f6 = parse(text)
    for _ in range(6):
        f6 = differentiate(f6)
    f6 = as_integrand(f6, ctx)
    want = [(float(f6(x)), float(x)) for x in partition_points(iv, grid, ctx)]
    assert [(v.hex(), x.hex()) for v, x in _d6_grid(parse(text), iv, grid, ctx)] == [
        (v.hex(), x.hex()) for v, x in want
    ]


@pytest.mark.parametrize("precision", sorted(_CONTEXTS))
@pytest.mark.parametrize(
    "text, a, b", [("1/x", "1", "2"), ("-exp(x)", "0", "1"), ("x^7", "-1", "1")]
)
def test_sampled_check_on_a_tape_equals_the_plain_callable(precision, text, a, b):
    ctx = _CONTEXTS[precision]
    iv = Interval(ctx.const(a), ctx.const(b))
    f = as_integrand(parse(text), ctx)
    assert check_n_convexity(f, iv, 5, 100, 3, ctx) == check_n_convexity(
        lambda x: f(x), iv, 5, 100, 3, ctx
    )


@pytest.mark.parametrize("precision", sorted(_CONTEXTS))
def test_sampled_check_on_a_tape_raises_the_plain_callables_error(precision):
    ctx = _CONTEXTS[precision]
    iv = Interval(ctx.const(-1), ctx.const(1))
    f = as_integrand(parse("1/x"), ctx)
    errors = []
    for g in (f, lambda x: f(x)):
        with pytest.raises(IntegrandError) as exc_info:
            # 59 windows on a grid of step 2/64: the 33rd point is 0
            check_n_convexity(g, iv, 5, 118, 1, ctx)
        errors.append((str(exc_info.value), type(exc_info.value.cause), exc_info.value.abscissa))
    assert errors[0] == errors[1]
    assert "division by zero (at x = 0)" in errors[0][0]


# --------------------------------------------------------------------------
# The one report builder against the two checkers' own loops

_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-300, -1e-300, math.inf, -math.inf, math.nan]),
    st.floats(allow_nan=True, allow_infinity=True),
)
_TOLERANCES = st.one_of(
    st.sampled_from([0.0, math.inf, math.nan, 1.0]), st.floats(min_value=0.0, allow_infinity=True)
)


@given(st.lists(st.tuples(_VALUES, _TOLERANCES), min_size=1, max_size=12), st.integers(1, 7))
@settings(max_examples=300, deadline=None)
# ties: the first least and the first greatest are the witnesses
@example([(1.0, 0.0), (-1.0, 0.0), (-1.0, 0.0), (1.0, 0.0)], 5)
# a nan first value is both extremes; later ones are never picked
@example([(math.nan, 0.0), (-math.inf, 0.0), (math.inf, 0.0), (math.nan, 0.0)], 5)
@example([(2.0, math.inf), (-2.0, math.inf)], 3)
def test_report_matches_the_sampled_checkers_loop(pairs, order):
    # distinct witnesses show which entry each extreme came from
    entries = [(v, tol, (float(i), float(i) + 1.0)) for i, (v, tol) in enumerate(pairs)]
    assert repr(_report(order, entries)) == repr(reference_sampled_report(order, entries))


@given(st.lists(_VALUES, min_size=1, max_size=12), _TOLERANCES)
@settings(max_examples=300, deadline=None)
@example([0.0, -0.0, 0.0], 0.0)
@example([math.nan, 1.0, -1.0], 0.0)
@example([1.0, -1.0, 5.0], math.inf)
def test_report_matches_the_grid_checkers_body(values, tol):
    grid = [(v, float(i)) for i, v in enumerate(values)]
    got = _report(5, [(v, tol, (x,)) for v, x in grid])
    assert repr(got) == repr(reference_grid_report(grid, tol))
