"""Runs one pass over a workload's jobs in this fresh interpreter.

usage: python3 worker.py PLAN.json RESULT.json

Each job calls `bdhit.cli.main(argv)` in-process, one after another (a
closed loop with a single client), writing into `p<pass>/<job>/`.  Every
pass gets its own interpreter, so nothing the program caches in memory
carries over from one pass to the next: each pass costs what a first
run costs.  In a traced pass the spans are written to RESULT.json once,
at the end.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import signal
import sys
from time import perf_counter

import tracer


class JobTimeout(BaseException):
    """Raised by the alarm; a BaseException so the CLI cannot swallow it."""


def _alarm(signum, frame):
    raise JobTimeout


def run_job(call, argv, limit):
    """(exit code or None, error text or None, seconds) for one CLI call."""
    if limit <= 0:
        return None, "not run: the run's time limit was reached", 0.0
    log = io.StringIO()
    rc, err = None, None
    start = perf_counter()
    signal.setitimer(signal.ITIMER_REAL, limit)
    try:
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            rc = call(argv)
    except JobTimeout:
        err = f"over the {limit:g} s job limit"
    except Exception as exc:  # a crash is a failed job, not a failed benchmark
        err = f"raised {type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    elapsed = perf_counter() - start
    if err is None and rc != 0:
        err = log.getvalue().strip().splitlines()[-1:] or [""]
        err = err[0][:300]
    return rc, err, elapsed


def peak_rss_mb():
    """This process's own peak resident memory.

    Not ru_maxrss: Linux carries the parent's peak across fork and exec
    into it, so it would report the orchestrator's memory.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("worker: no VmHWM in /proc/self/status")


def run_pass(index, cli_main, jobs, limit, deadline, trace):
    results = []
    t = tracer.Tracer() if trace else None
    start = perf_counter()
    with t.installed() if trace else contextlib.nullcontext():
        for k, (name, argv) in enumerate(jobs):
            argv = [*argv, "--out-dir", os.path.join(f"p{index}", name)]
            call = (lambda a, k=k: t.job(k, cli_main, a)) if trace else cli_main
            rc, err, secs = run_job(call, argv, min(limit, deadline - perf_counter()))
            results.append({"rc": rc, "error": err, "seconds": secs})
    wall = perf_counter() - start
    return {"index": index, "traced": trace, "wall": wall, "jobs": results,
            "spans": t.spans if trace else None}


def main(plan_path, result_path):
    started = perf_counter()
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    signal.signal(signal.SIGALRM, _alarm)
    import bdhit.cli

    src = os.path.realpath(plan["src"])
    if not os.path.realpath(bdhit.cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"worker: imported bdhit from {bdhit.cli.__file__}, not {src}")
    result = run_pass(plan["index"], bdhit.cli.main, plan["jobs"], plan["job_limit"],
                      started + plan["time_left"], plan["trace"])
    result["peak_rss_mb"] = peak_rss_mb()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
