"""quintiq benchmark: the paper tables, corpus integrate and convexity check.

    python3 benchmarks/run.py --workload tables --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all      # every workload, one after another

Run from the repository root.  Each workload runs in a child process as a
single closed-loop client (see ``worker.py``); this process measures CLI
cold start, collects the child's figures, writes
``.bench_results/BENCH_<label>.json`` with the machine details, and prints
each metric as ``<workload> <name> <value> <unit>``.  The last line of
stdout is one JSON object: correct, attempted, failed and metrics, which are
the ``end_to_end`` metrics of BENCHMARK.json with ``--trace 0`` and the
``per_layer`` metrics with ``--trace 1``.  The traced run is separate from
the timed one and also reports how much tracing slowed requests.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("tables", "integrate_corpus", "check_corpus")

# Every run must end within 180 s; keep a margin for cold start and output.
DEADLINE_S = 170.0
COLD_STARTS = 9  # measured fresh interpreters per run; setup_s is their median
COLD_START_ARGV = ["-m", "quintiq", "integrate", "--fn=1/x", "--a=1", "--b=2", "--eps=1e-1"]


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("QUINTIQ_PRECISION", None)  # the requests pin their precision
    env["PYTHONPATH"] = str(SRC)
    return env


def cold_start_seconds(deadline: float) -> tuple[float, list, list]:
    """Median wall time of fresh ``python -m quintiq integrate`` runs.

    One unmeasured run first writes the bytecode cache, as any install has.
    """
    times, failures = [], []
    for i in range(COLD_STARTS + 1):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, *COLD_START_ARGV], cwd=ROOT, env=child_env(),
            capture_output=True, text=True, timeout=max(1.0, deadline - time.monotonic()),
        )
        dt = time.perf_counter() - t0
        if proc.returncode != 0 or "value" not in proc.stdout:
            failures.append(f"cold start: exit {proc.returncode}: {proc.stderr.strip()[:200]}")
        if i:
            times.append(dt)
    return statistics.median(times), times, failures


def run_worker(workload: str, seed: int, seconds: float, trace: bool, reduced: bool,
               deadline: float) -> dict:
    cfg = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
           "reduced": reduced, "src": str(SRC)}
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), json.dumps(cfg)],
        cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_sha():
    if not (ROOT / ".git").exists():
        return None  # an exported checkout carries no history
    proc = subprocess.run(
        ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
        capture_output=True, text=True, timeout=10,
    )
    return proc.stdout.strip() or None


def end_to_end(res: dict, setup_s: float) -> tuple[dict, dict]:
    """The end-to-end metrics of one untraced worker run, and their notes."""
    run = res["untraced"]
    metrics = {
        "ops_per_s": run["ops_per_s"],
        "op_p50_ms": run["p50_ms"],
        "op_tail_ms": run["tail_ms"],
        "peak_rss_mb": res["peak_rss_mb"],
        "setup_s": setup_s,
    }
    notes = {
        "op_p50_ms": f"of {run['attempted']} requests",
        "op_tail_ms": f"p{run['tail_percentile']:g} of {run['attempted']} requests, "
                      f"{run['beyond_tail']} beyond it",
        "setup_s": f"median of {COLD_STARTS} cold starts",
    }
    return metrics, notes


def per_layer(res: dict) -> dict:
    metrics = dict(res["layers"])
    untraced = res["untraced"]["ops_per_s"]
    traced = res["traced"]["ops_per_s"]
    metrics["trace.ops_per_s.untraced"] = untraced
    metrics["trace.ops_per_s.traced"] = traced
    metrics["trace.overhead"] = 1.0 - traced / untraced
    return metrics


def run_one(workload, args, spec) -> dict:
    """Run one workload; returns its report for the results file."""
    deadline = time.monotonic() + DEADLINE_S
    setup = None
    if not args.trace:
        setup_s, cold_times, cold_failures = cold_start_seconds(deadline)
        setup = {"setup_s": setup_s, "cold_start_s": cold_times, "failures": cold_failures}
    res = run_worker(workload, args.seed, args.seconds, bool(args.trace), args.reduced, deadline)
    if args.trace:
        metrics, notes = per_layer(res), {}
        declared = spec["per_layer"]
        runs = [res["untraced"], res["traced"]]
    else:
        metrics, notes = end_to_end(res, setup["setup_s"])
        declared = spec["end_to_end"]
        runs = [res["untraced"]]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    failures = res["warmup_failures"] + [f for r in runs for f in r["failures"]]
    if setup:
        failures += setup["failures"]
    return {
        "workload": workload,
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "failures": failures,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
        "notes": notes,
        "setup": setup,
        "worker": res,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--label", default=None, help="results file BENCH_<label>.json")
    parser.add_argument("--out-dir", default=".bench_results")
    parser.add_argument("--reduced", action="store_true",
                        help="a fast subset of each workload, for the self-check")
    args = parser.parse_args(argv)

    if not (SRC / "quintiq" / "cli.py").is_file():
        print(f"error: quintiq sources not found under {SRC}", file=sys.stderr)
        return 2
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        print(f"error: {spec_path} not found", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    reports = [run_one(w, args, spec) for w in names]

    for rep in reports:
        for name, m in rep["metrics"].items():
            note = rep["notes"].get(name)
            print(f"{rep['workload']} {name} {m['value']:.6g} {m['unit']}"
                  + (f"  ({note})" if note else ""))
        print(f"{rep['workload']} failed_ratio {rep['failed_ratio']:.6g} ratio"
              f"  ({rep['failed']} of {rep['attempted']} requests)")
        for f in rep["failures"]:
            print(f"{rep['workload']} FAILED {f}", file=sys.stderr)

    label = args.label or f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir = ROOT / args.out_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"BENCH_{label}.json").write_text(json.dumps({
        "label": label,
        "made": {
            "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            "cpu_model": cpu_model(),
            "mpmath": reports[0]["worker"]["mpmath_version"],
            "git_sha": git_sha(),
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "reduced": args.reduced,
        },
        "workloads": reports,
    }, indent=1) + "\n")

    if len(reports) == 1:
        metrics = reports[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in reports for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
