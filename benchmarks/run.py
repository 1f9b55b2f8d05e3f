"""The bdhit benchmark: seeded CLI workloads, checked outputs, layer traces.

usage:
  python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 benchmarks/run.py --workload all --seed N --seconds S     (table of every metric)

Run from the repository root.  For one workload it

1. generates the seeded inputs and job list (`workloads.py`) and computes
   every reference value the checks need (`checks.py`), untimed;
2. times `setup_s`: the median, over several fresh interpreters, of
   importing `bdhit.cli` and building its parser;
3. runs the jobs pass after pass for S seconds, each pass in a fresh
   interpreter (`worker.py`); with --trace 1 traced passes alternate with
   untraced ones;
4. checks every job's outputs, and that every pass wrote the same bytes;
5. prints a summary on stderr and, as the last line on stdout, one JSON
   object: {"correct", "attempted", "failed", "metrics"}.  The metrics are
   the end-to-end ones with --trace 0 and the per-layer ones with --trace 1.

`--known-failures` adds the jobs listed in NOTES.md that the program
currently gets wrong, so the baseline failure inventory can be re-measured.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import checks
import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

RUN_LIMIT_S = 170.0  # the whole run, set-up and checks included
JOB_LIMIT_S = 60.0
SETUP_SAMPLES = 7
SETUP_CODE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import contextlib, io\n"
    "import bdhit.cli\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    rc = bdhit.cli.main(['--version'])\n"
    "print(repr(time.perf_counter() - t0) if rc == 0 else 'failed')\n"
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "job_p50_s": "s",
    "job_p90_s": "s",
    "peak_rss_mb": "MB",
}


class HarnessError(Exception):
    """The benchmark itself could not run (not a failure of a job)."""


def _env():
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = SRC
    return env


def measure_setup():
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=_env(), cwd=ROOT,
                              capture_output=True, text=True, timeout=60)
        out = proc.stdout.strip()
        if proc.returncode != 0 or out == "failed":
            raise HarnessError(f"set-up probe failed: {proc.stderr.strip()[-300:]}")
        samples.append(float(out))
    return statistics.median(samples)


def run_worker(work, jobs, index, trace, deadline):
    """Pass `index` over the jobs, in a fresh worker interpreter."""
    plan = {
        "src": SRC,
        "jobs": [[j.name, list(j.argv)] for j in jobs],
        "index": index,
        "trace": trace,
        "job_limit": JOB_LIMIT_S,
        "time_left": deadline - time.monotonic() - 5.0,
    }
    plan_path = os.path.join(work, "plan.json")
    result_path = os.path.join(work, "result.json")
    with open(plan_path, "w", encoding="utf-8") as fh:
        json.dump(plan, fh)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), plan_path, result_path]
    proc = subprocess.Popen(cmd, env=_env(), cwd=work, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        _, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise HarnessError("worker ran past the run's time limit") from None
    if proc.returncode != 0:
        raise HarnessError(f"worker exited {proc.returncode}: {err.strip()[-500:]}")
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def run_passes(work, jobs, seconds, trace, deadline):
    """Passes while the next one still fits in `seconds`; at least one.

    With `trace`, untraced and traced passes alternate and at least one of
    each runs.
    """
    passes = []
    started = time.monotonic()
    while True:
        before = time.monotonic()
        p = run_worker(work, jobs, len(passes), trace and len(passes) % 2 == 1, deadline)
        passes.append(p)
        now = time.monotonic()
        if any(r["rc"] is None and "limit" in r["error"] for r in p["jobs"]):
            break
        need_traced = trace and not any(q["traced"] for q in passes)
        if not need_traced and now - started + (now - before) > seconds:
            break
    return passes


def _results(directory):
    """Output file names, manifests left out: they hold timings."""
    if not os.path.isdir(directory):
        return None
    return sorted(n for n in os.listdir(directory) if not n.endswith("_manifest.json"))


def _same_outputs(dir_a, dir_b):
    names = _results(dir_a)
    return names == _results(dir_b) and all(
        filecmp.cmp(os.path.join(dir_a, n), os.path.join(dir_b, n), shallow=False)
        for n in names or ())


def judge(work, jobs, expected, passes):
    """Failure reason (or None) for every job of every pass."""
    verdicts = []
    for p in passes:
        row = []
        for k, (job, res) in enumerate(zip(jobs, p["jobs"])):
            out = os.path.join(work, f"p{p['index']}", job.name)
            if res["error"] is not None and res["rc"] is None:
                row.append(res["error"])
            elif p["index"] == 0:
                reason = checks.check(job, res["rc"], out, expected[k])
                if reason and res["error"]:
                    reason += f" ({res['error']})"
                row.append(reason)
            elif not _same_outputs(os.path.join(work, "p0", job.name), out):
                row.append("outputs differ from the first pass")
            else:
                row.append(verdicts[0][k] if res["rc"] == passes[0]["jobs"][k]["rc"]
                           else f"exit code {res['rc']} differs from the first pass")
        verdicts.append(row)
    return verdicts


def end_to_end(setup_s, passes):
    untraced = [p for p in passes if not p["traced"]]
    # one time per job, its median over passes: a slow spell of the host
    # then moves a job's time only if it hits most of the passes
    times = [statistics.median(p["jobs"][k]["seconds"] for p in untraced)
             for k in range(len(untraced[0]["jobs"]))]
    values = {
        "setup_s": setup_s,
        "wall_s": statistics.median(p["wall"] for p in untraced),
        "job_p50_s": float(np.percentile(times, 50)),
        "job_p90_s": float(np.percentile(times, 90)),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in untraced),
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def per_layer(passes):
    traced = [p for p in passes if p["traced"]]
    per_pass = [tracer.layer_metrics([tuple(s) for s in p["spans"]], p["wall"]) for p in traced]
    values = tracer.combine(per_pass, [p["wall"] for p in traced],
                            [p["wall"] for p in passes if not p["traced"]])
    return {k: {"value": v, "unit": tracer.unit(k)} for k, v in sorted(values.items())}


def environment():
    import scipy

    threads = {k: os.environ[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                          "MKL_NUM_THREADS") if k in os.environ}
    return (f"nproc {len(os.sched_getaffinity(0))}, BLAS threads "
            f"{threads or 'default (OpenBLAS: one per core)'}, python {platform.python_version()}, "
            f"numpy {np.__version__}, scipy {scipy.__version__}")


def run_workload(name, seed, seconds, trace, known_failures=False):
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    if not os.path.isfile(os.path.join(SRC, "bdhit", "cli.py")):
        raise HarnessError(f"no bdhit sources under {SRC}: run from a repository checkout")
    work = os.path.join(WORK, f"{name}-{seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        jobs = workloads.build(name, seed, work, known_failures)
        expected = [checks.expected(j) for j in jobs]
        setup_s = measure_setup()
        passes = run_passes(work, jobs, seconds, trace, deadline - 10.0)
        verdicts = judge(work, jobs, expected, passes)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted = sum(len(row) for row in verdicts)
    failed = sum(v is not None for row in verdicts for v in row)
    metrics = per_layer(passes) if trace else end_to_end(setup_s, passes)
    report = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    untraced = [p for p in passes if not p["traced"]]
    info = {
        "workload": name,
        "passes": len(passes),
        "jobs_per_pass": len(jobs),
        "untraced": len(untraced),
        "fail_ratio": failed / attempted,
        "failures": sorted({(jobs[k].name, v) for row in verdicts for k, v in enumerate(row)
                            if v is not None}),
        "pass_walls": [round(p["wall"], 3) for p in untraced],
        "run_s": time.monotonic() - started,
    }
    return report, info


def print_summary(report, info, stream=sys.stderr):
    print(f"== {info['workload']}: {info['passes']} passes ({info['untraced']} untraced) x "
          f"{info['jobs_per_pass']} jobs, run took {info['run_s']:.1f} s", file=stream)
    print(f"   untraced pass walls (s): {info['pass_walls']}", file=stream)
    print(f"   fail_ratio {info['fail_ratio']:.4g} (ratio): "
          f"{report['failed']} of {report['attempted']} job runs failed", file=stream)
    for name, m in report["metrics"].items():
        print(f"   {name:40s} {m['value']:.6g} {m['unit']}", file=stream)
    for job, why in info["failures"]:
        print(f"   FAILED {job}: {why}", file=stream)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--known-failures", action="store_true",
                        help="also run the jobs the program currently fails (NOTES.md)")
    args = parser.parse_args(argv)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    print(environment(), file=sys.stderr)
    try:
        for name in names:
            report, info = run_workload(name, args.seed, args.seconds, args.trace,
                                        args.known_failures)
            print_summary(report, info, sys.stdout if args.workload == "all" else sys.stderr)
    except HarnessError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    if args.workload != "all":
        print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
