"""Fast self-check of the benchmark (about half a minute).

    python3 benchmarks/selfcheck.py

Checks that BENCHMARK.json and layers.json agree, that every oracle rejects
a corrupted answer, that one reduced pass of each workload passes its
oracles and prints every declared metric with its unit, untraced and
traced, and that run.py refuses to run without quintiq's sources.
Exits 0 when everything holds and prints each failed check otherwise.
"""
from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYERS = json.loads((HERE / "layers.json").read_text())["layers"]

# Exact per-layer counts of one reduced pass; they must repeat on every run.
REDUCED_COUNTS = {
    "tables": {"experiments.rows": 16, "experiments.skipped_rows": 0, "cli.requests": 1},
    "integrate_corpus": {"cli.requests": 10, "adaptive.searches": 10, "expr.parse.calls": 10},
    "check_corpus": {"expr.d6_nodes": 4485, "convexity.d6_grid.points": 2050,
                     "expr.differentiate.calls": 12},
}

problems: list[str] = []


def expect(ok: bool, what: str):
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        problems.append(what)


def check_spec():
    names = [w["name"] for w in SPEC["workloads"]]
    expect(tuple(names) == workloads.NAMES, f"workloads in BENCHMARK.json are {workloads.NAMES}")
    declared = [m["name"] for m in SPEC["per_layer"]]
    mapped = [m for layer in LAYERS for m in layer["metrics"]]
    expect(sorted(declared) == sorted(mapped),
           "layers.json maps every per_layer metric exactly once")
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    expect(bounds.get("setup_s") == max(bounds.values()), "setup_s has the largest bound")


def check_oracles():
    tables = workloads.build("tables")
    e1, e2 = tables.make_pass(random.Random(0))
    e1, e2 = sorted((e1, e2), key=lambda r: r.label)
    expect(e1.oracle(workloads.EXPECTED_E1_CSV) is None, "tables oracle accepts the paper table")
    bad = workloads.EXPECTED_E1_CSV.replace("1e-16,84,1572", "1e-16,84,1571")
    expect(e1.oracle(bad) is not None, "tables oracle rejects a changed cell")
    skipped = workloads.EXPECTED_E2_CSV.replace(
        "10,93,1244", "10,requires-extended-precision,requires-extended-precision")
    expect(e2.oracle(skipped) is not None, "tables oracle rejects a skipped row")

    corpus = workloads.build("integrate_corpus")
    req = next(r for r in corpus.make_pass(random.Random(0))
               if r.label == "1/x dd 1e-12 linear")
    good = {"value": "0.6931471805599453094172321214582", "n_final": 19}
    expect(req.oracle(json.dumps(good)) is None, "integrate oracle accepts ln 2 at n = 19")
    expect(req.oracle(json.dumps(dict(good, n_final=18))) is not None,
           "integrate oracle rejects another n_final")
    expect(req.oracle(json.dumps(dict(good, value="0.6931471805619453"))) is not None,
           "integrate oracle rejects a value 2e-12 off")

    check = workloads.build("check_corpus").make_pass(random.Random(0))
    req = next(r for r in check if r.label == "ln(x)")
    concave = {"verdict": "consistent-with-concave"}
    convex = {"verdict": "consistent-with-convex"}
    expect(req.oracle(json.dumps({"sampled": concave, "sixth_derivative": concave})) is None,
           "check oracle accepts ln(x) concave")
    expect(req.oracle(json.dumps({"sampled": concave, "sixth_derivative": convex})) is not None,
           "check oracle rejects a wrong sixth-derivative verdict")


def run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True, text=True,
                          timeout=180)


def check_workload(name: str):
    for trace, declared in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
        proc = run("benchmarks/run.py", "--workload", name, "--seed", "1", "--seconds", "0.1",
                   "--trace", str(trace), "--reduced", "--label", f"selfcheck-{name}-{trace}")
        what = f"{name} reduced, trace {trace}"
        if proc.returncode != 0:
            expect(False, f"{what}: exit {proc.returncode}: {proc.stderr[-500:]}")
            continue
        result = json.loads(proc.stdout.splitlines()[-1])
        expect(set(result) == {"correct", "attempted", "failed", "metrics"},
               f"{what}: last line has exactly correct, attempted, failed, metrics")
        expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
               f"{what}: every answer passes its oracle ({proc.stderr.strip()[:300]})")
        units = {k: v["unit"] for k, v in result["metrics"].items()}
        expect(units == {m["name"]: m["unit"] for m in declared},
               f"{what}: every declared metric is present with its unit")
        if trace:
            values = {k: v["value"] for k, v in result["metrics"].items()}
            for metric, want in REDUCED_COUNTS[name].items():
                expect(values.get(metric) == want, f"{what}: {metric} = {want} "
                       f"(got {values.get(metric)})")
            expect(values.get("trace.missing_hooks") == 0, f"{what}: every hook found")
        else:
            expect(all(v["value"] > 0 for v in result["metrics"].values()),
                   f"{what}: every end-to-end metric is positive")


def check_refuses_without_sources():
    bare = ROOT / ".bench_results" / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(f"{HERE.name}/run.py", "--workload", "tables", "--seed", "1",
                   "--seconds", "1", "--trace", "0", cwd=bare)
        expect(proc.returncode != 0 and not proc.stdout.strip(),
               "run.py exits non-zero, printing no result, without quintiq's sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    check_spec()
    check_oracles()
    check_refuses_without_sources()
    for name in workloads.NAMES:
        check_workload(name)
    print(f"{len(problems)} problem(s)" if problems else "benchmark self-check passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
