"""Benchmark of ``cdmos solve``: end-to-end metrics, answer checks, and
per-layer times from a traced run.

Run from the root of a checkout (the directory holding ``src/cdmos``):

    python3 perfbench/run.py --workload box_dense --seed 0 --seconds 38 --trace 0
    python3 perfbench/run.py --workload all --seed 0        # every workload, one table
    python3 perfbench/run.py --write-manifest              # regenerate BENCHMARK.json

Each pass runs ``cdmos.cli.main(["solve", ...])`` in a fresh interpreter
(one_pass.py), one pass at a time, with one BLAS thread and
``CDMOS_THREADS`` unset.  The parent process generates the problem from the
seed (workloads.py), starts passes for about ``--seconds``, checks
every pass's report (checks.py) and prints one line per metric, then the
result as a JSON object on the last line.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics: the spans of
spans.py summed per pass, and the traced minus the untraced solve time as
``trace.overhead_s``.  Medians over passes throughout.

Scratch files go to ``.perfbench_work/`` in the checkout; the run's summary,
with its environment, is kept there as ``<workload>-seed<n>-trace<k>.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
MANIFEST = "BENCHMARK.json"
WORK_DIR = ".perfbench_work"

RUN_SECONDS = 38
BLAS_THREADS = 1
SETUP_PROBES = 6        # set-up-only interpreters per run, besides the passes
RUN_LIMIT_S = 170.0     # a run ends, passes killed, after this long

WORKLOADS = {
    "box_dense": "n=4 on [-1,1]^4, degree-4 objective, orders 2..3 (order 3: "
                 "N=210, blocks 35+4x15); the Schur-complement build and the "
                 "certificate residual dominate",
    "box_deep": "n=2, degree-6 objective, orders 3..6, 101x101 density grid; "
                "small blocks but many orders, t up to 6, extraction and the "
                "density readout",
    "cube_wide": "n=10 max-cut-like +-1 quadratic on the counting hypercube, "
                 "order 1; 11 tiny blocks, so monomial indexing and the "
                 "(t+1)^n moment product dominate",
}

END_TO_END = [
    {"name": "solve_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.05},
]


def per_layer_metrics():
    import spans
    out = []
    for name in spans.SPAN_NAMES:
        out += [{"name": f"{name}.s", "unit": "s", "better": "lower"},
                {"name": f"{name}.self_s", "unit": "s", "better": "lower"},
                {"name": f"{name}.calls", "unit": "count", "better": "lower"}]
    out += [
        {"name": "polyring.enumerate_basis.share", "unit": "ratio", "better": "lower"},
        {"name": "sdp.solve_sdp.share", "unit": "ratio", "better": "lower"},
        {"name": "sdp.iterations", "unit": "count", "better": "lower"},
        {"name": "sdp.iter_ms", "unit": "ms", "better": "lower"},
        {"name": "sdp.coeff_mb", "unit": "MB", "better": "lower"},
        {"name": "trace.solve_s", "unit": "s", "better": "lower"},
        {"name": "trace.overhead_s", "unit": "s", "better": "lower"},
        {"name": "hierarchy.certified_frac", "unit": "ratio", "better": "higher"},
        {"name": "hierarchy.rho_excess_max", "unit": "1", "better": "lower"},
    ]
    return out


def manifest(seconds: int) -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": seconds,
        "workloads": [{"name": k, "why": v} for k, v in WORKLOADS.items()],
        "end_to_end": END_TO_END,
        "per_layer": per_layer_metrics(),
    }


def median(values):
    return statistics.median(values) if values else float("nan")


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("CDMOS_THREADS", None)
    env.pop("PYTHONPATH", None)
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = str(BLAS_THREADS)
    return env


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "CDMOS_THREADS": None,
    }


class Runner:
    """Starts the fresh-interpreter passes of one run, one at a time."""

    def __init__(self, root: Path, work: Path, problem, deadline: float):
        self.src = root / "src"
        self.work = work
        self.problem = problem
        self.problem_path = work / "problem.txt"
        self.problem_path.write_text(problem.text())
        self.env = child_env()
        self.deadline = deadline
        self.count = 0

    def start(self, mode: str):
        """Run one pass; return (result dict or None, report text, density text)."""
        i = self.count
        self.count += 1
        out = self.work / f"pass{i}.json"
        report = self.work / f"report{i}.json"
        density = self.work / f"density{i}.csv"
        cmd = [sys.executable, "-s", str(HERE / "one_pass.py"), str(self.src),
               str(self.problem_path), str(out), mode]
        cmd += self.problem.cli_args(str(self.problem_path), str(report), str(density))
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=self.work,
                                  capture_output=True, text=True,
                                  timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            print(f"pass {i} ({mode}) timed out", file=sys.stderr)
            return None, None, None
        if proc.returncode != 0 or not out.exists():
            print(f"pass {i} ({mode}) exited {proc.returncode}:\n{proc.stderr[-2000:]}",
                  file=sys.stderr)
            return None, None, None
        result = json.loads(out.read_text())
        texts = [p.read_text() if p.exists() else None for p in (report, density)]
        for p in (out, report, density):
            if p.exists():
                p.unlink()
        return result, texts[0], texts[1]


def run_workload(root: Path, workload: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    import checks
    import spans
    import workloads

    problem = workloads.generate(workload, seed)
    ref_path = HERE / "reference.json"
    refs = json.loads(ref_path.read_text()) if ref_path.exists() else {}
    reference = refs.get(workload, {}).get(str(problem.variant))
    samples = problem.sample_points()
    work = root / WORK_DIR / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    t_start = time.monotonic()
    runner = Runner(root, work, problem, t_start + RUN_LIMIT_S)
    runner.start("setup")      # warm-up: bytecode and shared libraries
    measure_end = time.monotonic() + seconds

    setups = []
    for _ in range(SETUP_PROBES):
        res, _, _ = runner.start("setup")
        if res is not None:
            setups.append(res["setup_s"])

    modes = ["solve", "trace"] if trace else ["solve"]
    first = None
    verdicts = []
    solve_s = {"solve": [], "trace": []}
    rss, aggs, iterations, missing = [], [], [], set()
    n = 0
    last = 0.0
    # start a pass while at least half of one still fits in the window
    while n < len(modes) or time.monotonic() + last / 2 < measure_end:
        mode = modes[n % len(modes)]
        n += 1
        t_pass = time.monotonic()
        res, report_text, density_text = runner.start(mode)
        last = time.monotonic() - t_pass
        if res is None or report_text is None:
            verdicts.append(checks.check_report(problem, None, reference, True, samples))
            if time.monotonic() >= runner.deadline:
                break
            continue
        if first is None:
            first = (report_text, density_text)
            (work / "report.json").write_text(report_text)
        report = json.loads(report_text)
        verdicts.append(checks.check_report(
            problem, report, reference, (report_text, density_text) == first, samples))
        setups.append(res["setup_s"])
        solve_s[mode].append(res["solve_s"])
        if mode == "solve":
            rss.append(res["peak_rss_mb"])
        else:
            aggs.append(spans.aggregate(res["spans"]))
            missing.update(res["missing"])
        iterations.append(sum(r["solver"]["iterations"] for r in report["rows"]
                              if r.get("solver")))

    attempted = sum(v.attempted for v in verdicts)
    failed = sum(v.failed for v in verdicts)
    metrics = {}
    if not trace:
        metrics["solve_s"] = (median(solve_s["solve"]), "s", len(solve_s["solve"]))
        metrics["setup_s"] = (median(setups), "s", len(setups))
        metrics["peak_rss_mb"] = (median(rss), "MB", len(rss))
    else:
        k = len(aggs)
        for name in spans.SPAN_NAMES:
            if name in missing:
                continue
            for field, unit in (("s", "s"), ("self_s", "s"), ("calls", "count")):
                metrics[f"{name}.{field}"] = (
                    median([a.get(name, {}).get(field, 0) for a in aggs]), unit, k)
        traced = median(solve_s["trace"])
        for name in ("polyring.enumerate_basis", "sdp.solve_sdp"):
            if f"{name}.s" in metrics:
                metrics[f"{name}.share"] = (metrics[f"{name}.s"][0] / traced, "ratio", k)
        its = median(iterations)
        metrics["sdp.iterations"] = (its, "count", len(iterations))
        if "sdp.solve_sdp.s" in metrics and its:
            metrics["sdp.iter_ms"] = (1e3 * metrics["sdp.solve_sdp.s"][0] / its, "ms", k)
        metrics["sdp.coeff_mb"] = (problem.sdp_coeff_mb(), "MB", 1)
        metrics["trace.solve_s"] = (traced, "s", k)
        metrics["trace.overhead_s"] = (traced - median(solve_s["solve"]), "s", k)
        for name, value in checks.summarize(verdicts).items():
            metrics[name] = (value, "ratio" if name.endswith("frac") else "1",
                             len(verdicts))

    summary = {
        "workload": workload, "seed": seed, "variant": problem.variant,
        "trace": int(trace), "passes": n, "elapsed_s": time.monotonic() - t_start,
        "attempted": attempted, "failed": failed,
        "failures": [f for v in verdicts for f in v.failures],
        "solve_s_samples": solve_s, "setup_s_samples": setups,
        "metrics": {k: {"value": v, "unit": u, "samples": c}
                    for k, (v, u, c) in metrics.items()},
    }
    return summary


def print_summary(summary: dict, env: dict) -> None:
    s = summary
    print(f"{s['workload']} seed {s['seed']} (variant {s['variant']}), "
          f"trace {s['trace']}: {s['passes']} passes in {s['elapsed_s']:.1f} s")
    for name, m in s["metrics"].items():
        print(f"  {name:40s} {m['value']:14.6g} {m['unit']:6s} (n={m['samples']})")
    frac = s["failed"] / s["attempted"] if s["attempted"] else float("nan")
    print(f"  {'failed_frac':40s} {frac:14.6g} {'ratio':6s} "
          f"({s['failed']} of {s['attempted']} orders)")
    for failure in s["failures"][:20]:
        print(f"    FAILED {failure}")
    print("  env " + json.dumps(env, sort_keys=True))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", help="a workload name, or 'all'")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per run (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-manifest", action="store_true",
                    help=f"write {MANIFEST} at the checkout root and exit")
    args = ap.parse_args(argv)

    root = Path.cwd()
    if args.write_manifest:
        with open(root / MANIFEST, "w") as fh:
            json.dump(manifest(RUN_SECONDS), fh, indent=2)
            fh.write("\n")
        return 0
    if not (root / "src" / "cdmos" / "cli.py").is_file():
        print(f"error: {root} holds no src/cdmos; run from the root of a "
              "cdmos checkout", file=sys.stderr)
        return 2
    import workloads
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in workloads.GENERATORS for name in names):
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    seconds = RUN_SECONDS if args.seconds is None else args.seconds

    env = environment()
    summaries = []
    for name in names:
        summary = run_workload(root, name, args.seed, seconds, bool(args.trace))
        summary["env"] = env
        (root / WORK_DIR / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(summary, indent=1) + "\n")
        print_summary(summary, env)
        summaries.append(summary)

    if any(not math.isfinite(m["value"]) for s in summaries
           for m in s["metrics"].values()):
        print("error: no pass produced a measurement", file=sys.stderr)
        return 1
    prefix = len(summaries) > 1
    result = {
        "correct": all(s["failed"] == 0 for s in summaries),
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": {(f"{s['workload']}.{k}" if prefix else k):
                    {"value": m["value"], "unit": m["unit"]}
                    for s in summaries for k, m in s["metrics"].items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
