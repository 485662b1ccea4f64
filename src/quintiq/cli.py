"""Command-line front end.

Subcommands:

* ``integrate``   -- one adaptive integration of an expression
* ``check``       -- convexity evidence for an expression on an interval
* ``experiment1`` -- the 1/x tolerance-sweep table
* ``experiment2`` -- the exp interval-sweep table

Exit codes: 0 success, 1 expression parse error or an expression nested
too deeply, 2 invalid values or a domain error during evaluation, 3
iteration budget exceeded, 141 stdout closed by its reader (the code a
shell reports for a command killed by SIGPIPE).  The default precision is
``double`` for integrate/check and ``dd`` for the experiment commands; the
QUINTIQ_PRECISION environment variable overrides either and the
--precision flag wins over both.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import asdict

from . import expr as expr_mod
from .adaptive import (
    N_MAX,
    AdaptiveResult,
    BudgetExceeded,
    SearchStrategy,
    integrate_adaptive,
    integrate_adaptive_cubic,
)
from .convexity import ConvexityReport, check_n_convexity, sixth_derivative_sign
from .experiments import SKIP_MARKER, ExperimentRow, experiment1, experiment2
from .expr import ExprSyntaxError, NotDifferentiable
from .rules import IntegrandError, Interval
from .scalars import parse_precision

EXIT_OK = 0
EXIT_PARSE_ERROR = 1
EXIT_DOMAIN_ERROR = 2
EXIT_BUDGET_EXCEEDED = 3
EXIT_BROKEN_PIPE = 141


@functools.cache  # built on the first request, then shared by every later one
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quintiq",
        description="Adaptive Gauss/Lobatto quadrature for 5-convex integrands.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_fn_args(p):
        p.add_argument("--fn", required=True, help="integrand expression, e.g. '1/x'")
        p.add_argument("--a", required=True, help="left endpoint")
        p.add_argument("--b", required=True, help="right endpoint")

    def add_common(p):
        p.add_argument("--precision", default=None, help="double, dd, or mp[:digits]")
        p.add_argument("--output", choices=("human", "json", "csv"), default="human")

    p_int = sub.add_parser("integrate", help="adaptively integrate an expression")
    add_fn_args(p_int)
    p_int.add_argument("--eps", default="1e-8", help="target accuracy (default 1e-8)")
    p_int.add_argument("--method", choices=("quintic", "cubic"), default="quintic")
    p_int.add_argument("--strategy", choices=("linear", "doubling"), default="linear")
    p_int.add_argument("--n-max", type=int, default=N_MAX, dest="n_max")
    p_int.add_argument(
        "--verify-convexity",
        action="store_true",
        help="annotate the result with sampled convexity evidence",
    )
    add_common(p_int)

    p_chk = sub.add_parser("check", help="sampled convexity evidence for an expression")
    add_fn_args(p_chk)
    p_chk.add_argument("--order", type=int, default=5)
    p_chk.add_argument("--samples", type=int, default=200)
    p_chk.add_argument("--seed", type=int, default=1)
    p_chk.add_argument("--grid", type=int, default=1024)
    add_common(p_chk)

    for name, blurb in (
        ("experiment1", "subdivision counts for 1/x on [1,2], eps = 1e-1..1e-16"),
        ("experiment2", "subdivision counts for exp on [0,b], b = 1..10, eps = 1e-8"),
    ):
        p_exp = sub.add_parser(name, help=blurb)
        add_common(p_exp)
    return parser


def _resolve_precision(flag_value: str | None, command: str):
    spec = flag_value or os.environ.get("QUINTIQ_PRECISION")
    if spec is None:
        spec = "dd" if command.startswith("experiment") else "double"
    return parse_precision(spec), spec


def _parse_interval(ctx, a_text: str, b_text: str) -> Interval:
    try:
        a = ctx.const(a_text)
        b = ctx.const(b_text)
    except (ValueError, ArithmeticError) as exc:
        raise ValueError(f"invalid interval endpoint: {exc}") from exc
    return Interval(a, b)


def _parse_eps(ctx, text: str):
    try:
        eps = ctx.const(text)
        if not eps > 0:  # also a positive value that underflows the context
            raise ValueError(f"not positive in {ctx.name} precision")
    except (ValueError, ArithmeticError) as exc:
        raise ValueError(f"invalid tolerance --eps={text}: {exc}") from exc
    return eps


def _config(args, precision: str) -> dict:
    """The request's settings as echoed in the JSON ``config`` block."""
    config = {"command": args.command, "fn": args.fn, "a": args.a, "b": args.b}
    if args.command == "integrate":
        config.update(eps=args.eps, method=args.method, strategy=args.strategy, n_max=args.n_max)
    config.update(precision=precision, output=args.output)
    return config


def _result_payload(result: AdaptiveResult, ctx, precision: str, args) -> dict:
    return {
        "method": result.method.value,
        "value": ctx.to_decimal(result.value),
        "n_final": result.n_final,
        "gap_final": ctx.to_decimal(result.gap_final),
        "epsilon": args.eps,
        "evaluations": result.evaluations,
        "history": [[n, ctx.to_decimal(gap)] for n, gap in result.history],
        "precision": precision,
        "config": _config(args, precision),
    }


def _report_payload(report: ConvexityReport) -> dict:
    """The report's fields, in order, with the verdict's value."""
    return {**asdict(report), "verdict": report.verdict.value}


def _emit(output: str, payload: dict, csv_lines: list, human_lines: list) -> int:
    """Write a command's result to stdout: the payload as JSON, or the csv
    or human lines, each ended by a newline."""
    out = sys.stdout
    if output == "json":
        json.dump(payload, out, indent=2)
        out.write("\n")
    else:
        out.writelines(f"{line}\n" for line in (csv_lines if output == "csv" else human_lines))
    return EXIT_OK


def _cmd_integrate(args) -> int:
    ctx, precision = _resolve_precision(args.precision, "integrate")
    tree = expr_mod.parse(args.fn)
    iv = _parse_interval(ctx, args.a, args.b)
    eps = _parse_eps(ctx, args.eps)
    f = expr_mod.as_integrand(tree, ctx)
    runner = integrate_adaptive if args.method == "quintic" else integrate_adaptive_cubic
    result = runner(f, iv, eps, SearchStrategy(args.strategy), args.n_max, ctx)

    payload = _result_payload(result, ctx, precision, args)
    human = [
        f"method      {payload['method']}",
        f"precision   {precision}",
        f"value       {payload['value']}",
        f"n           {payload['n_final']}",
        f"gap         {payload['gap_final']}",
        f"epsilon     {payload['epsilon']}",
        f"evaluations {payload['evaluations']}",
    ]
    if args.verify_convexity:
        order = 5 if args.method == "quintic" else 3
        report = check_n_convexity(f, iv, order, samples=200, seed=1, ctx=ctx)
        c = payload["convexity"] = _report_payload(report)
        human.append(f"convexity   {c['verdict']} (order {c['order']}, {c['samples_tested']} samples)")
        if report.verdict.value == "violated":
            print(
                f"warning: sampled order-{order} divided differences change sign; "
                "the error guarantee does not apply",
                file=sys.stderr,
            )
    csv = [
        "value,n_final,gap_final,epsilon,evaluations,method,precision",
        f"{payload['value']},{payload['n_final']},{payload['gap_final']},"
        f"{payload['epsilon']},{payload['evaluations']},{payload['method']},{precision}",
    ]
    return _emit(args.output, payload, csv, human)


def _points_text(points) -> str:
    """A witness tuple rounded to 6 decimals, or in full where rounding
    would make two of its distinct points equal."""
    rounded = tuple(round(p, 6) for p in points)
    return str(rounded if len(set(rounded)) == len(set(points)) else tuple(points))


def _cmd_check(args) -> int:
    ctx, precision = _resolve_precision(args.precision, "check")
    tree = expr_mod.parse(args.fn)
    iv = _parse_interval(ctx, args.a, args.b)
    f = expr_mod.as_integrand(tree, ctx)
    sampled = check_n_convexity(f, iv, args.order, args.samples, args.seed, ctx=ctx)
    derivative = None
    derivative_note = None
    if args.order == 5:
        try:
            derivative = sixth_derivative_sign(tree, iv, args.grid, ctx=ctx)
        except NotDifferentiable as exc:
            derivative_note = str(exc)

    s = _report_payload(sampled)
    d = _report_payload(derivative) if derivative else None
    payload = {
        "sampled": s,
        "sixth_derivative": d,
        "precision": precision,
        "config": _config(args, precision),
    }
    if derivative_note:
        payload["sixth_derivative_note"] = derivative_note

    csv = ["check,order,samples,verdict,min,max"]
    human = [
        f"sampled order-{s['order']} divided differences ({s['samples_tested']} tuples): "
        f"{s['verdict']}",
        f"  min {s['min_divided_difference']:.6g} at {_points_text(s['witness'])}",
        f"  max {s['max_divided_difference']:.6g} at {_points_text(s['max_witness'])}",
    ]
    for name, r in (("sampled", s), ("sixth-derivative", d)):
        if r is not None:
            csv.append(
                f"{name},{r['order']},{r['samples_tested']},{r['verdict']},"
                f"{r['min_divided_difference']!r},{r['max_divided_difference']!r}"
            )
    if d is not None:
        human += [
            f"sixth derivative on a {d['samples_tested']}-point grid: {d['verdict']}",
            f"  min {d['min_divided_difference']:.6g} at x = {d['witness'][0]:.6g}, "
            f"max {d['max_divided_difference']:.6g} at x = {d['max_witness'][0]:.6g}",
        ]
    elif derivative_note:
        human.append(f"sixth derivative: unavailable ({derivative_note})")
    return _emit(args.output, payload, csv, human)


def _render_experiment(rows: list[ExperimentRow], first_column: str, args, precision: str) -> int:
    def cell(n):
        return SKIP_MARKER if n is None else str(n)

    payload = {
        "precision": precision,
        "rows": [
            {first_column: r.label, "n_quintic": r.n_quintic, "n_cubic": r.n_cubic}
            for r in rows
        ],
    }
    csv = [f"{first_column},n_quintic,n_cubic"]
    csv += [f"{r.label},{cell(r.n_quintic)},{cell(r.n_cubic)}" for r in rows]
    width = max(len(first_column), max(len(r.label) for r in rows))
    human = [f"{first_column:<{width}}  n_quintic  n_cubic"]
    human += [f"{r.label:<{width}}  {cell(r.n_quintic):>9}  {cell(r.n_cubic):>7}" for r in rows]
    return _emit(args.output, payload, csv, human)


def _cmd_experiment(args, which: int) -> int:
    ctx, precision = _resolve_precision(args.precision, f"experiment{which}")
    if which == 1:
        return _render_experiment(experiment1(ctx), "epsilon", args, precision)
    return _render_experiment(experiment2(ctx), "b", args, precision)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "integrate":
            code = _cmd_integrate(args)
        elif args.command == "check":
            code = _cmd_check(args)
        elif args.command == "experiment1":
            code = _cmd_experiment(args, 1)
        else:
            code = _cmd_experiment(args, 2)
        # a reader that has gone away surfaces here, not at interpreter exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # point stdout at devnull so that the exit-time flush stays silent
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except ExprSyntaxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    except RecursionError:
        # parsing, binding and differentiating recurse once per nesting level
        print("error: the expression is nested too deeply", file=sys.stderr)
        return EXIT_PARSE_ERROR
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET_EXCEEDED
    except (ArithmeticError, IntegrandError, ValueError, NotDifferentiable) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN_ERROR


if __name__ == "__main__":
    sys.exit(main())
