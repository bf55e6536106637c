"""goalshot benchmark: one workload, one seed, one run.

Usage, from the repository root:

    python3 perfbench/run.py --workload {label,fit,decide,match,all} --seed N \
        --seconds S --trace {0,1} [--size {full,tiny}]

Set-up builds the inputs in fresh child processes; the workload then runs
in this process. With --trace 0 the run measures the end-to-end metrics.
With --trace 1 it alternates untraced and traced rounds and reports the
per-layer metrics plus the tracing overhead. Every output is checked;
a failed check counts the operation as failed. The last stdout line is
the result object; a JSON report with the run environment and input mix
goes to the line before it and to .perfbench_out/. With --workload all
each workload runs in its own child process, one after another, each
printing its lines, and the last line combines their results with metric
names prefixed by the workload.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
RUN_LIMIT_S = 170  # set-up children are killed past this, inside the 180 s budget
WORKLOADS = ("label", "fit", "decide", "match")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"),
                        help="one workload, or all of them one after another")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input sizes; tiny is for the benchmark's own tests")
    return parser.parse_args(argv)


def environment(seed: int, size: dict) -> dict:
    import numpy

    def git(*args: str) -> str | None:
        # The ceiling keeps git from adopting an enclosing repository when
        # the checkout itself is not one.
        env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
        try:
            done = subprocess.run(["git", *args], cwd=ROOT, env=env, timeout=20,
                                  capture_output=True, text=True)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    sha = git("rev-parse", "HEAD")
    status = git("status", "--porcelain") if sha else None
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": sha,
        "git_dirty": bool(status) if status is not None else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": seed,
        "sizes": size,
    }


def measure(workload, ctx, state, seconds: float) -> list:
    """Untraced rounds until `seconds` have passed (at least min_rounds)."""
    rounds = []
    start = time.perf_counter()
    while (len(rounds) < ctx.size["min_rounds"] + workload.warmup_rounds
           or time.perf_counter() - start < seconds):
        rounds.append(workload.round(ctx, state))
    return rounds


def measure_traced(workload, ctx, state, seconds: float):
    """Alternate untraced and traced rounds after the warm-up;
    returns the warm-up, untraced and traced rounds and the tracers."""
    from tracing import Tracer

    warm = [workload.round(ctx, state) for _ in range(workload.warmup_rounds)]
    plain, traced, tracers = [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        plain.append(workload.round(ctx, state))
        tracer = Tracer()
        with tracer.installed():
            traced.append(workload.round(ctx, state))
        tracers.append(tracer)
    return warm, plain, traced, tracers


def run_workload(name: str, args: argparse.Namespace) -> dict:
    """Set up, measure and check one workload; prints its report lines and
    returns the result object."""
    import workloads as wl

    rss_start_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    seed = args.seed % 2**31
    size = wl.SIZES[args.size]
    workload = wl.WORKLOADS[name]
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "logs").mkdir(parents=True)
    child_env = {**os.environ,
                 "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC),
                                                             os.environ.get("PYTHONPATH")]))}
    ctx = wl.Context(seed, size, work, child_env, time.monotonic() + RUN_LIMIT_S)
    try:
        setup_dir, setup_s, import_s, errors = wl.run_setup(ctx, workload)
        state = workload.prepare(ctx, setup_dir)
        if args.trace:
            warm, plain, rounds, tracers = measure_traced(workload, ctx, state,
                                                          args.seconds)
            measured = warm + plain + rounds
        else:
            measured = measure(workload, ctx, state, args.seconds)
            rounds = measured[workload.warmup_rounds:]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(r.attempted for r in measured)
    failed = sum(r.failed for r in measured)
    for r in measured:
        errors += r.errors
    workload_metrics, mix = workload.summarize(ctx, state, rounds)
    if args.trace:
        from tracing import layer_metrics, mean_metrics, spans_document
        metrics = {"cli.import_s": (statistics.median(import_s), "s")}
        layer = mean_metrics([layer_metrics(t) for t in tracers])
        units = {m["name"]: m["unit"] for m in json.loads(
            (ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]}
        metrics.update({metric: (value, units[metric]) for metric, value in layer.items()})
        # Round times in reference units (see workloads.Gauge), so that the
        # machine's changing speed does not pose as tracing cost.
        def cost(measured):
            return statistics.median(r.seconds / statistics.median(r.ref_ns)
                                     for r in measured)
        overhead = (cost(rounds) / cost(plain) - 1.0) * 100
        metrics["trace.overhead_pct"] = (overhead, "%")
        (OUT / f"trace-{name}-seed{seed}.json").write_text(
            json.dumps(spans_document(tracers[:1])), encoding="utf-8")
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "setup_s": (statistics.median(setup_s), "s"),
            "op_ref_ratio": (workload.op_ref_ratio(rounds), "1"),
            "peak_rss_mb": (rss_kb / 1024, "MB"),
        }
        workload_metrics["op_best_ms"] = (workload.op_best_s(rounds) * 1e3, "ms")

    report = {
        "workload": name,
        "trace": args.trace,
        "environment": environment(seed, size),
        "setup_s": setup_s,
        "rss_after_imports_mb": rss_start_kb / 1024,
        "rounds": len(rounds),
        "round_seconds": [r.seconds for r in rounds],
        "workload_metrics": {k: {"value": v, "unit": u}
                             for k, (v, u) in workload_metrics.items()},
        "input_mix": mix,
        "errors": errors[:50],
    }
    (OUT / f"result-{name}-seed{seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1), encoding="utf-8")
    for metric, (value, unit) in {**workload_metrics, **metrics}.items():
        print(f"{name:>7} {metric:<44} {value!r:>24} {unit}")
    for error in errors[:10]:
        print(f"ERROR {error}")
    print(json.dumps(report))
    return {
        "correct": not errors and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {metric: {"value": value, "unit": unit}
                    for metric, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "goalshot" / "__init__.py").is_file():
        print(f"error: goalshot sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    if args.workload != "all":
        print(json.dumps(run_workload(args.workload, args)))
        return 0
    results = {}
    for name in WORKLOADS:
        # A child per workload, so that no workload's peak RSS includes another's.
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--size", args.size], capture_output=True, text=True, timeout=RUN_LIMIT_S + 10)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode:
            return done.returncode
        results[name] = json.loads(done.stdout.strip().splitlines()[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{metric}": value for name, r in results.items()
                    for metric, value in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
