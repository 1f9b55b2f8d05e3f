"""Outside-in tracing of the `bdhit` layers, for the traced pass only.

`Tracer.installed()` replaces every function listed in a layer module's
`__all__` with a timing wrapper, at every name that binds it anywhere in
the package (so `cli.finite_evaluator` and `spectral.finite_spectrum`
are both caught), and puts the originals back on exit.  Spans are kept
in memory as (label, start, end, parent, job, paths) tuples; the program
itself is not modified.

`layer_metrics` turns one pass's spans into the per-layer metrics: a
span's self time is its duration minus the durations of its direct
children (calls are sequential, so children never overlap).
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import statistics
import sys
from time import perf_counter

LAYERS = ("model", "cmatrix", "spectral", "densities", "reproduce", "htransform",
          "simulate", "oracles")

# the scalar per-t evaluators, one span per point
POINT_EVAL = frozenset(
    f"densities.{name}"
    for name in ("transition_probability", "hitting_density", "hitting_density_derivative",
                 "mixture_density", "hitting_cdf")
)

JOB_LABEL = "cli"


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._job = -1
        self._restore = []

    def _wrap(self, label, fn):
        spans, stack = self.spans, self._stack
        simulates = label == "simulate.empirical_hitting"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                # the work size: paths simulated by this call
                paths = None
                if simulates:
                    paths = int((kwargs["config"] if "config" in kwargs else args[1]).n_paths)
                spans[idx] = (label, start, end, parent, self._job, paths)

        return traced

    @contextlib.contextmanager
    def installed(self, package="bdhit"):
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == package or name.startswith(package + "."))]
        try:
            for layer in LAYERS:
                mod = sys.modules[f"{package}.{layer}"]
                for name in mod.__all__:
                    fn = getattr(mod, name)
                    if not inspect.isfunction(fn):
                        continue
                    wrapper = self._wrap(f"{layer}.{name}", fn)
                    for m in modules:
                        for attr, value in list(vars(m).items()):
                            if value is fn:
                                self._restore.append((m, attr, fn))
                                setattr(m, attr, wrapper)
            yield self
        finally:
            while self._restore:
                m, attr, fn = self._restore.pop()
                setattr(m, attr, fn)

    def job(self, job_id, call, *args):
        """Run one job as a root span labelled `cli`."""
        self._job = job_id
        try:
            return self._wrap(JOB_LABEL, call)(*args)
        finally:
            self._job = -1


def layer_metrics(spans, wall):
    """Per-layer metrics of one traced pass of `wall` seconds."""
    n = len(spans)
    child = [0.0] * n
    under = [""] * n  # "recover" / "ks" when an ancestor is one of those calls
    for i, (label, start, end, parent, _, _) in enumerate(spans):
        if parent >= 0:
            child[parent] += end - start
            p_label = spans[parent][0]
            if p_label == "reproduce.recover_initial":
                under[i] = "recover"
            elif p_label == "simulate.ks_statistic":
                under[i] = "ks"
            else:
                under[i] = under[parent]
    out = {}
    for layer in LAYERS:
        out.update({f"{layer}.self_s": 0.0, f"{layer}.calls": 0})
    out.update({
        "cli.self_s": 0.0,
        "spectral.finite_spectrum_s": 0.0,
        "spectral.eval_psi_recurrence_calls": 0,
        "densities.finite_evaluator_self_s": 0.0,
        "densities.point_eval_calls": 0,
        "reproduce.sample_calls": 0,
        "simulate.empirical_hitting_s": 0.0,
        "simulate.ks_statistic_self_s": 0.0,
        "simulate.cdf_calls": 0,
    })
    paths = 0
    for i, (label, start, end, parent, _, n_paths) in enumerate(spans):
        dur = end - start
        self_s = dur - child[i]
        layer = label.split(".", 1)[0]
        out[f"{layer}.self_s"] += self_s
        if layer != JOB_LABEL:
            out[f"{layer}.calls"] += 1
        if label == "spectral.finite_spectrum":
            out["spectral.finite_spectrum_s"] += dur
        elif label == "spectral.eval_psi_recurrence":
            out["spectral.eval_psi_recurrence_calls"] += 1
        elif label == "densities.finite_evaluator":
            out["densities.finite_evaluator_self_s"] += self_s
        elif label == "simulate.empirical_hitting":
            out["simulate.empirical_hitting_s"] += dur
            paths += n_paths
        elif label == "simulate.ks_statistic":
            out["simulate.ks_statistic_self_s"] += self_s
        if label in POINT_EVAL:
            out["densities.point_eval_calls"] += 1
            if under[i] == "recover":
                out["reproduce.sample_calls"] += 1
            elif under[i] == "ks":
                out["simulate.cdf_calls"] += 1
    hit_s = out["simulate.empirical_hitting_s"]
    out["simulate.paths_per_s"] = paths / hit_s if hit_s > 0 else 0.0
    accounted = sum(out[f"{layer}.self_s"] for layer in (*LAYERS, JOB_LABEL))
    out["trace.unaccounted_s"] = wall - accounted
    return out


def combine(per_pass, traced_walls, untraced_walls):
    """Median over traced passes, plus the tracing overhead."""
    out = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
    out["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(untraced_walls)
    return out


def unit(name):
    if name.endswith("_calls") or name.endswith(".calls"):
        return "count"
    if name.endswith("_per_s"):
        return "1/s"
    return "s"
