"""The three benchmark workloads: their requests and their oracles.

Every request is a quintiq CLI argv, run in-process through
``quintiq.cli.main``.  Every oracle is independent of quintiq's quadrature
path: the paper's tables are frozen here, integral references come from
mpmath antiderivatives at 50 digits, and convexity sides are known
analytically.

A pass is one shuffled round of a workload's requests.  Runs are made of
whole passes, so every request kind appears equally often and the latency
percentiles land on the same request kinds from run to run.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Callable, Optional

import mpmath

# Paper table 1: subdivisions for 1/x on [1, 2] at eps = 1e-1 .. 1e-16.
PAPER_E1_QUINTIC = [1, 1, 1, 1, 2, 2, 3, 4, 6, 9, 13, 19, 27, 39, 57, 84]
PAPER_E1_CUBIC = [1, 1, 1, 2, 3, 5, 9, 16, 28, 50, 89, 158, 280, 498, 884, 1572]
# Paper table 2: subdivisions for exp on [0, b], b = 1 .. 10, at eps = 1e-8.
PAPER_E2_QUINTIC = [2, 5, 9, 14, 21, 29, 40, 54, 71, 93]
PAPER_E2_CUBIC = [12, 33, 64, 111, 178, 275, 412, 604, 872, 1244]


def _table_csv(first_column, labels, quintic, cubic) -> str:
    lines = [f"{first_column},n_quintic,n_cubic"]
    lines += [f"{lab},{q},{c}" for lab, q, c in zip(labels, quintic, cubic)]
    return "\n".join(lines) + "\n"


EXPECTED_E1_CSV = _table_csv(
    "epsilon", [f"1e-{k}" for k in range(1, 17)], PAPER_E1_QUINTIC, PAPER_E1_CUBIC
)
EXPECTED_E2_CSV = _table_csv(
    "b", [str(b) for b in range(1, 11)], PAPER_E2_QUINTIC, PAPER_E2_CUBIC
)


@dataclass(frozen=True)
class CorpusFn:
    text: str
    a: str
    b: str
    antiderivative: Callable  # mpf -> mpf


def _pp_antideriv(c: str, sign: int = 1):
    def F(x):
        c_mp = mpmath.mpf(c)
        return sign * (x - c_mp) ** 8 / 8 if x > c_mp else mpmath.mpf(0)

    return F


# The 12-function 5-convex / 5-concave corpus of the test suite, frozen here
# so that the workload cannot drift when the tests change.
CORPUS = [
    CorpusFn("1/x", "1", "2", mpmath.log),
    CorpusFn("exp(x)", "0", "1", mpmath.exp),
    CorpusFn("-exp(x)", "0", "1", lambda x: -mpmath.exp(x)),
    CorpusFn("x^6", "-1", "1", lambda x: x**7 / 7),
    CorpusFn("-x^6", "-1", "1", lambda x: -(x**7) / 7),
    CorpusFn("x^7", "0", "2", lambda x: x**8 / 8),
    CorpusFn("plus(x-0.6)^7", "-1", "1", _pp_antideriv("0.6")),
    CorpusFn("plus(x-0.7)^7", "-1", "1", _pp_antideriv("0.7")),
    CorpusFn("-plus(x-0.6)^7", "-1", "1", _pp_antideriv("0.6", -1)),
    CorpusFn("ln(x)", "1", "2", lambda x: x * mpmath.log(x) - x),
    CorpusFn("1/(3-x)", "-1", "1", lambda x: -mpmath.log(3 - x)),
    CorpusFn("x^8", "0", "1", lambda x: x**9 / 9),
]

# (precision, eps, strategy); the first is the CLI default configuration.
SLICES = [
    ("double", "1e-8", "linear"),
    ("dd", "1e-8", "linear"),
    ("dd", "1e-12", "linear"),
    ("dd", "1e-12", "doubling"),
    ("mp:40", "1e-12", "doubling"),
]

# Minimal n per corpus function.  Every slice must agree with these, which
# also makes n_final agree across slices for each function and eps.
EXPECTED_N = {
    "1e-8": [4, 2, 2, 12, 12, 17, 10, 9, 10, 3, 4, 8],
    "1e-12": [19, 9, 9, 55, 55, 76, 45, 41, 45, 14, 19, 36],
}

# (expression, a, b, verdict both checks must give)
CHECK_CASES = [
    ("1/x", "1", "2", "consistent-with-convex"),
    ("ln(x)", "1", "2", "consistent-with-concave"),
    ("exp(x)", "0", "1", "consistent-with-convex"),
]


@dataclass(frozen=True)
class Request:
    label: str  # request kind; equal labels do equal work
    argv: tuple
    oracle: Callable[[str], Optional[str]]  # stdout -> failure reason or None


def _table_oracle(expected: str):
    def oracle(out: str) -> Optional[str]:
        if out == expected:
            return None
        got, want = out.splitlines(), expected.splitlines()
        for i, (g, w) in enumerate(zip(got, want)):
            if g != w:
                return f"line {i + 1}: got {g!r}, paper has {w!r}"
        return f"got {len(got)} lines, paper table has {len(want)}"

    return oracle


def _reference(fn: CorpusFn):
    with mpmath.workdps(50):
        return fn.antiderivative(mpmath.mpf(fn.b)) - fn.antiderivative(mpmath.mpf(fn.a))


def _integrate_oracle(fn: CorpusFn, eps: str, n_expected: int):
    ref = _reference(fn)

    def oracle(out: str) -> Optional[str]:
        payload = json.loads(out)
        if payload["n_final"] != n_expected:
            return f"n_final {payload['n_final']}, expected {n_expected}"
        with mpmath.workdps(50):
            err = abs(mpmath.mpf(payload["value"]) - ref)
            if err > mpmath.mpf(eps):
                return f"|value - ref| = {mpmath.nstr(err, 5)} > eps {eps}"
        return None

    return oracle


def _check_oracle(verdict: str):
    def oracle(out: str) -> Optional[str]:
        payload = json.loads(out)
        got = (payload["sampled"]["verdict"], (payload["sixth_derivative"] or {}).get("verdict"))
        if got != (verdict, verdict):
            return f"verdicts {got}, expected {verdict}"
        return None

    return oracle


@dataclass(frozen=True)
class Workload:
    name: str
    make_pass: Callable[[random.Random], list]  # seeded rng -> ordered requests
    warmup: list  # untimed requests that fill lazy caches
    # Fixed rather than derived from the sample count, so that a faster
    # program (more passes) is not read at a higher, slower percentile.
    tail_percentile: float


def _shuffled(requests: list):
    def make_pass(rng: random.Random) -> list:
        order = list(requests)
        rng.shuffle(order)
        return order

    return make_pass


def _tables(reduced: bool) -> Workload:
    requests = [
        Request(
            "experiment1",
            ("experiment1", "--precision", "dd", "--output", "csv"),
            _table_oracle(EXPECTED_E1_CSV),
        )
    ]
    if not reduced:
        requests.append(
            Request(
                "experiment2",
                ("experiment2", "--precision", "dd", "--output", "csv"),
                _table_oracle(EXPECTED_E2_CSV),
            )
        )
    warmup = [_integrate_request(CORPUS[0], "dd", "1e-1", "linear", 1)]
    return Workload("tables", _shuffled(requests), warmup, 100.0)


def _integrate_request(fn: CorpusFn, precision: str, eps: str, strategy: str, n_expected: int):
    argv = (
        "integrate", f"--fn={fn.text}", f"--a={fn.a}", f"--b={fn.b}", f"--eps={eps}",
        f"--precision={precision}", f"--strategy={strategy}", "--output", "json",
    )
    label = f"{fn.text} {precision} {eps} {strategy}"
    return Request(label, argv, _integrate_oracle(fn, eps, n_expected))


def _integrate_corpus(reduced: bool) -> Workload:
    indices = range(2) if reduced else range(len(CORPUS))
    requests = [
        _integrate_request(CORPUS[i], precision, eps, strategy, EXPECTED_N[eps][i])
        for precision, eps, strategy in SLICES
        for i in indices
    ]
    warmup = [
        _integrate_request(CORPUS[0], precision, "1e-1", strategy, 1)
        for precision, _eps, strategy in SLICES
    ]
    return Workload("integrate_corpus", _shuffled(requests), warmup, 95.0)


def _check_request(fn, a, b, verdict, seed, grid=None) -> Request:
    argv = (
        "check", f"--fn={fn}", f"--a={a}", f"--b={b}", "--precision", "double",
        "--seed", str(seed), "--output", "json",
    )
    if grid is not None:
        argv += ("--grid", str(grid))
    return Request(fn, argv, _check_oracle(verdict))


def _check_corpus(reduced: bool) -> Workload:
    cases = CHECK_CASES[1:] if reduced else CHECK_CASES

    def make_pass(rng: random.Random) -> list:
        # a fresh check --seed for every request of every pass
        order = [_check_request(*case, rng.randint(1, 10**6)) for case in cases]
        rng.shuffle(order)
        return order

    warmup = [_check_request("exp(x)", "0", "1", "consistent-with-convex", 1, grid=8)]
    return Workload("check_corpus", make_pass, warmup, 100.0)


def build(name: str, reduced: bool = False) -> Workload:
    """The named workload; ``reduced`` keeps a fast subset for the self-check."""
    if name == "tables":
        return _tables(reduced)
    if name == "integrate_corpus":
        return _integrate_corpus(reduced)
    if name == "check_corpus":
        return _check_corpus(reduced)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("tables", "integrate_corpus", "check_corpus")
