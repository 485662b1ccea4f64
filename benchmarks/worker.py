"""Runs one workload in this process as a single closed-loop client.

Started by ``run.py`` with quintiq's ``src`` on PYTHONPATH and one JSON
argument: {"workload", "seed", "seconds", "trace", "reduced"}.  Each request
calls ``quintiq.cli.main(argv)`` with stdout and stderr captured and starts
only after the previous one returned.  Outputs are checked against the
workload's oracles after the timed loop, so checking costs no request time.
Prints one JSON object on stdout.
"""
from __future__ import annotations

import contextlib
import io
import json
import random
import resource
import sys
import time
from pathlib import Path

import workloads
from tracer import Tracer

_clock = time.perf_counter


def percentile(values, p: float) -> float:
    """Linearly interpolated p-th percentile; p = 100 is the maximum."""
    xs = sorted(values)
    rank = (len(xs) - 1) * p / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (rank - lo)


def call(cli, argv):
    """One request: (seconds, exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = _clock()
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a traceback is a failed request, not a dead run
            code = -1
            err.write(f"{type(exc).__name__}: {exc}")
        dt = _clock() - t0
    return dt, code, out.getvalue(), err.getvalue()


def failure(request, code, out, err):
    """Why a request's answer is wrong, or None."""
    if code != 0:
        return f"{request.label}: exit {code}: {err.strip()[:200]}"
    try:
        reason = request.oracle(out)
    except (ValueError, KeyError, TypeError) as exc:
        reason = f"unreadable output ({type(exc).__name__}: {exc})"
    return f"{request.label}: {reason}" if reason else None


def run_passes(cli, workload, rng, seconds: float, max_passes=None, tracer=None):
    """The whole number of passes (at least one) whose time is nearest to
    ``seconds``: a run stops once another pass of average length would end
    further past ``seconds`` than stopping now falls short of it."""
    samples = []
    passes = 0
    t0 = _clock()
    while True:
        for request in workload.make_pass(rng):
            if tracer is not None:
                tracer.label = request.label
            samples.append((request, *call(cli, request.argv)))
        passes += 1
        elapsed = _clock() - t0
        if elapsed * (1 + 0.5 / passes) >= seconds or (max_passes and passes >= max_passes):
            break
    return samples, _clock() - t0, passes


def summarize(samples, wall: float, passes: int, tail_percentile: float) -> dict:
    failures = [f for f in (failure(r, c, o, e) for r, _dt, c, o, e in samples) if f]
    lat_ms = [1e3 * dt for _r, dt, *_ in samples]
    tail = percentile(lat_ms, tail_percentile)
    per_kind: dict[str, list] = {}
    for request, dt, *_ in samples:
        per_kind.setdefault(request.label, []).append(dt)
    return {
        "attempted": len(samples),
        "failed": len(failures),
        "failures": failures[:10],
        "passes": passes,
        "wall_s": wall,
        "ops_per_s": len(samples) / wall,
        "p50_ms": percentile(lat_ms, 50),
        "tail_ms": tail,
        "tail_percentile": tail_percentile,
        "beyond_tail": sum(1 for x in lat_ms if x > tail),
        "per_request": {
            label: {"samples": len(v), "median_ms": 1e3 * percentile(v, 50)}
            for label, v in sorted(per_kind.items())
        },
    }


def main() -> int:
    cfg = json.loads(sys.argv[1])
    import quintiq
    import quintiq.cli as cli

    src = Path(cfg["src"]).resolve()
    if src not in Path(quintiq.__file__).resolve().parents:
        print(f"quintiq was imported from {quintiq.__file__}, not from {src}", file=sys.stderr)
        return 2

    workload = workloads.build(cfg["workload"], reduced=cfg["reduced"])
    rng = random.Random(cfg["seed"])
    warm = [failure(r, *call(cli, r.argv)[1:]) for r in workload.warmup]
    result = {"warmup_failures": [w for w in warm if w]}

    if not cfg["trace"]:
        samples, wall, passes = run_passes(cli, workload, rng, cfg["seconds"])
        result["untraced"] = summarize(samples, wall, passes, workload.tail_percentile)
        # ru_maxrss is in KiB on Linux
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        # untraced first for the overhead baseline, then exactly one traced
        # pass so that the layer counts repeat from run to run
        samples, wall, passes = run_passes(cli, workload, rng, cfg["seconds"] / 2)
        result["untraced"] = summarize(samples, wall, passes, workload.tail_percentile)
        tracer = Tracer()
        tracer.install()
        try:
            samples, wall, passes = run_passes(cli, workload, rng, 0.0, 1, tracer)
        finally:
            tracer.uninstall()
        result["traced"] = summarize(samples, wall, passes, workload.tail_percentile)
        result["layers"] = tracer.metrics()
        result["spans"] = tracer.spans()
        result["missing_hooks"] = tracer.missing
        result["d6_trees"] = tracer.d6_trees

    import mpmath

    result["mpmath_version"] = mpmath.__version__
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
