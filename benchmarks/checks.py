"""Checks of each job's written output against `reference`.

`expected(job)` computes what a job's check needs before any timing
starts; `check(job, rc, out_dir, exp)` returns None when the job is
right and otherwise one line saying why it failed.  A job fails when it
exits non-zero (simulate may exit 2: its own 1% KS gate does not decide),
writes a NaN, misses a tolerance, or lacks an output file.
"""

from __future__ import annotations

import json
import math
import os
from fractions import Fraction

import numpy as np

import reference

ATOM_TOL = 1e-12  # times the norm of the symmetrized generator
MASS_TOL = 1e-9  # sum_k w_k / (mu_1 theta_k) = 1
VALUE_TOL = 1e-10  # densities and transitions, times max(1, |reference|)
RECOVERY_TOL = 1e-3  # hidden nu on every state reported reliable
RATE_TOL = 1e-12  # relative, transformed rates
CROW_TOL = 1e-10  # transformed C rows, times max(1, |reference|)
MEAN_SE = 5.0  # simulated mean within this many standard errors
KS_ALPHA = 1e-4  # the benchmark's own KS level for simulate jobs
KS_AGREE = 1e-6  # the summary's KS statistic against the benchmark's own


class CheckFailed(Exception):
    pass


def _grid(t_min, t_max, count, log):
    return np.geomspace(t_min, t_max, count) if log else np.linspace(t_min, t_max, count)


def _read_csv(path, columns):
    if not os.path.exists(path):
        raise CheckFailed(f"missing {os.path.basename(path)}")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[1] != columns:
        raise CheckFailed(f"{os.path.basename(path)}: {data.shape[1]} columns")
    if not np.all(np.isfinite(data)):
        raise CheckFailed(f"{os.path.basename(path)}: NaN or inf in output")
    return data


def _read_json(path):
    if not os.path.exists(path):
        raise CheckFailed(f"missing {os.path.basename(path)}")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _within(got, want, tol, what):
    err = np.abs(np.asarray(got) - np.asarray(want)) / np.maximum(1.0, np.abs(want))
    worst = float(np.max(err)) if err.size else 0.0
    if not worst <= tol:
        raise CheckFailed(f"{what}: off by {worst:.3g} (tolerance {tol:g})")


def _series(out_dir, name, exp):
    data = _read_csv(os.path.join(out_dir, name), 2)
    t, values = exp
    if data.shape[0] != len(t):
        raise CheckFailed(f"{name}: {data.shape[0]} rows, expected {len(t)}")
    _within(data[:, 0] / t, np.ones_like(t), 1e-12, f"{name} grid")
    _within(data[:, 1], values, VALUE_TOL, name)


# ------------------------------------------------------------------ expected


def expected(job):
    p = job.params
    if job.check == "spectrum":
        lam, mu = reference.rates(p["doc"])
        if p["kappa"] is not None:
            return reference.rw_atoms(float(p["kappa"]), len(lam)), 4.0 * float(p["kappa"])
        norm = float(np.max(lam + mu) + 2.0 * np.max(np.sqrt(lam[:-1] * mu[1:]), initial=0.0))
        return reference.atoms(lam, mu), norm
    if job.check in ("density", "transition", "continuous_density"):
        t = _grid(*p["grid"])
        if job.check == "continuous_density":
            return t, reference.rw_hitting_density(float(p["kappa"]), t)
        lam, mu = reference.rates(p["doc"])
        if job.check == "transition":
            cols = reference.transition_columns(lam, mu, [p["to"]], t)
            return t, cols[:, p["from"] - 1, 0]
        if p["kappa"] is not None and p["state"] == 1 and p["grid"][1] <= 5.0 and len(lam) >= 200:
            # the walk needs N jumps to feel its truncation: at t <= 5,
            # kappa <= 3 and N >= 200 the half-line Bessel density is exact
            return t, reference.rw_hitting_density(float(p["kappa"]), t)
        return t, reference.hitting_density(lam, mu, p["nu"] or p["state"], t)
    if job.check == "cmatrix":
        doc = p["doc"]
        if p["kappa"] is not None:
            return [reference.rw_cmatrix_row(p["kappa"], i) for i in range(doc["N"] + 1)]
        return [Fraction(str(r)) for r in doc["lambda"]], [Fraction(str(r)) for r in doc["mu"]]
    if job.check == "htransform":
        n = p["n"]
        lam = np.array([p["lam"]] * (n - 1) + [0.0])
        mu = np.array([p["mu"]] * n)
        return lam, mu, reference.cmatrix_float(lam, mu, min(n, 12))
    if job.check == "simulate":
        lam, mu = reference.rates(p["doc"])
        return lam, mu, reference.mean_hitting_time(lam, mu, p["nu"])
    return None


# ------------------------------------------------------------------ checks


def _check_spectrum(job, out_dir, exp):
    data = _read_csv(os.path.join(out_dir, "spectrum.csv"), 2)
    want, norm = exp
    if data.shape[0] != len(want):
        raise CheckFailed(f"spectrum.csv: {data.shape[0]} atoms, expected {len(want)}")
    theta, w = data[:, 0], data[:, 1]
    err = float(np.max(np.abs(theta - want)))
    if not err <= ATOM_TOL * norm:
        raise CheckFailed(f"atoms: off by {err:.3g} (tolerance {ATOM_TOL * norm:.3g})")
    mu1 = float(Fraction(str(job.params["doc"]["mu"][0])))
    mass = math.fsum(w / (mu1 * theta))
    if not abs(mass - 1.0) <= MASS_TOL:
        raise CheckFailed(f"total mass {mass!r}, defect {abs(mass - 1):.3g}")


def _check_reproduce(job, out_dir, exp):
    doc = _read_json(os.path.join(out_dir, "reproduce.json"))
    nu = job.params["nu"]
    per_state = doc.get("diagnostics", {}).get("per_state")
    for j, value in zip(doc["states"], doc["recovered"]):
        if not math.isfinite(value):
            raise CheckFailed(f"recovered nu({j}) is {value!r}")
        if per_state is not None and not per_state[str(j)]["reliable"]:
            continue
        err = abs(value - nu.get(j, 0.0))
        if not err <= RECOVERY_TOL:
            raise CheckFailed(f"nu({j}) off by {err:.3g}, reported reliable")


def _read_rows(path):
    if not os.path.exists(path):
        raise CheckFailed(f"missing {os.path.basename(path)}")
    rows = []
    with open(path, encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            i, j, value = line.strip().split(",")
            i, j = int(i), int(j)
            if j == 0:
                if i != len(rows):
                    raise CheckFailed(f"{os.path.basename(path)}: row {i} out of order")
                rows.append([])
            rows[i].append(value)
    return rows


def _check_cmatrix(job, out_dir, exp):
    text = _read_rows(os.path.join(out_dir, "cmatrix.csv"))
    if any("." in v or "e" in v or "n" in v for row in text for v in row):
        raise CheckFailed("cmatrix.csv: rows are not exact")
    rows = [[Fraction(v) for v in row] for row in text]
    want_rows = int(job.argv[job.argv.index("--rows") + 1])
    if len(rows) != want_rows + 1 or any(len(r) != i + 1 for i, r in enumerate(rows)):
        raise CheckFailed(f"cmatrix.csv: shape is not rows 0..{want_rows}")
    if job.params["kappa"] is not None:
        for i, row in enumerate(rows):
            if row != exp[i][: i + 1]:
                raise CheckFailed(f"row {i} differs from the closed form")
    else:
        defect = reference.column_recursion_defect(*exp, rows)
        if defect != 0:
            raise CheckFailed(f"column recursion defect {float(defect):.3g}, not exactly 0")


def _check_htransform(job, out_dir, exp):
    lam, mu, want = exp
    doc = _read_json(os.path.join(out_dir, "htransform_spec.json"))
    got_lam = np.array([float(Fraction(str(r))) for r in doc["lambda"]])
    got_mu = np.array([float(Fraction(str(r))) for r in doc["mu"]])
    if len(got_lam) != len(lam) or len(got_mu) != len(mu) or got_lam[-1] != 0.0:
        raise CheckFailed("htransform_spec.json: wrong shape or top birth rate")
    _within(got_lam[:-1] / lam[:-1], np.ones(len(lam) - 1), RATE_TOL, "birth rates")
    _within(got_mu / mu, np.ones(len(mu)), RATE_TOL, "death rates")
    rows = _read_rows(os.path.join(out_dir, "htransform_cmatrix.csv"))
    if len(rows) != len(want):
        raise CheckFailed(f"htransform_cmatrix.csv: {len(rows)} rows, expected {len(want)}")
    got = np.array([float(Fraction(v)) for row in rows for v in row])
    ref = np.array([v for row in want for v in row])
    if got.shape != ref.shape or not np.all(np.isfinite(got)):
        raise CheckFailed("htransform_cmatrix.csv: wrong shape or NaN")
    _within(got, ref, CROW_TOL, "transformed C rows")


def ks_statistic(times, cdf):
    """sup_t |F_n(t) - F(t)| for sorted times and the CDF at those times."""
    i = np.arange(1, len(times) + 1)
    return float(max(np.max(i / len(times) - cdf), np.max(cdf - (i - 1) / len(times))))


def _check_simulate(job, out_dir, exp):
    lam, mu, mean = exp
    summary = _read_json(os.path.join(out_dir, "simulate_summary.json"))
    n = job.params["paths"]
    if summary["n_censored"] != 0 or summary["n_paths"] != n:
        raise CheckFailed(f"{summary['n_censored']} of {summary['n_paths']} paths censored")
    times = _read_csv(os.path.join(out_dir, "simulate_samples.csv"), 1)[:, 0]
    if len(times) != n or not np.all(times > 0):
        raise CheckFailed(f"simulate_samples.csv: {len(times)} times, expected {n} positive")
    # the CDF by uniformization, not the program's own KS statistic
    times = np.sort(times)
    ks = ks_statistic(times, reference.hitting_cdf(lam, mu, job.params["nu"], times))
    critical = math.sqrt(-math.log(KS_ALPHA / 2.0) / 2.0) / math.sqrt(n)
    if not ks < critical:
        raise CheckFailed(f"KS statistic {ks:.5f} not below the {KS_ALPHA:g} point {critical:.5f}")
    reported = summary["ks_statistic"]
    if reported is None or not abs(reported - ks) <= KS_AGREE:
        raise CheckFailed(f"simulate_summary.json: KS statistic {reported}, recomputed {ks!r}")
    se = float(np.std(times, ddof=1)) / math.sqrt(n)
    gap = abs(float(np.mean(times)) - mean)
    if not gap <= MEAN_SE * se:
        raise CheckFailed(f"mean hitting time off by {gap / se:.2f} standard errors")


def _check_verify(job, out_dir, exp):
    doc = _read_json(os.path.join(out_dir, "verify.json"))
    failed = [r["name"] for r in doc["results"] if not r["passed"]]
    if failed:
        raise CheckFailed(f"verify checks failed: {', '.join(failed)}")


_CHECKS = {
    "spectrum": _check_spectrum,
    "density": lambda job, out, exp: _series(out, "density.csv", exp),
    "continuous_density": lambda job, out, exp: _series(out, "density.csv", exp),
    "transition": lambda job, out, exp: _series(out, "transition.csv", exp),
    "reproduce": _check_reproduce,
    "cmatrix": _check_cmatrix,
    "htransform": _check_htransform,
    "simulate": _check_simulate,
    "verify": _check_verify,
}


def check(job, rc, out_dir, exp):
    """None when the job's outputs are right, else the reason it failed."""
    if rc != 0 and not (job.check == "simulate" and rc == 2):
        return f"exit code {rc}"
    try:
        _CHECKS[job.check](job, out_dir, exp)
    except CheckFailed as exc:
        return str(exc)
    except (OSError, ValueError, KeyError, TypeError, IndexError, ZeroDivisionError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
    return None
