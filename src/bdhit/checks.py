"""The verify battery: cross-module property checks of one chain.

Each check measures one value against a bound: a defect or a difference
against its tolerance, a KS distance against its critical value, or the
number of conditions violated against 0 (atoms ascending, CDF limits,
path replay, censored paths).  run_checks decides pass/fail in one place:
passed is value <= bound, so a NaN value fails; a skipped check has
value, bound and passed None.  A check that raises ValueError or
ArithmeticError fails alone, with value and bound NaN and detail
"raised <type>: <message>", and the battery goes on.

The two simulation checks are skipped when their expected jumps overrun
_JUMP_BUDGET; the simulate command shares that budget and the KS gate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cmatrix import build_c_matrix, verify_columns
from .densities import InitialDistribution, finite_evaluator, spectral_sum
from .htransform import rw_gamma_eigenfunctions, transformed_evaluator
from .model import apply_DpiDs, apply_Q
from .reproduce import derivative_bound_sequence, recover_initial
from .simulate import SimConfig, empirical_hitting, expected_jumps, ks_statistic, sample_path
from .spectral import orthogonality_defect, stieltjes_check

__all__ = ["CheckResult", "run_checks"]

_KS_CRIT_1PCT = 1.6276  # sqrt(-ln(0.005)/2), asymptotic 1% point
# Expected jumps one simulation may take over all its paths: about 10 s of
# the sampler at 9-11 million jumps a second (2 vCPU, 1e5 paths at N = 10
# and 30).
_JUMP_BUDGET = 1e8


@dataclass(frozen=True)
class CheckResult:
    """One check of the battery: its measured value against its bound.

    passed is value <= bound, or None when the check was skipped (value
    and bound None, the reason in detail).
    """

    name: str
    value: float | None
    bound: float | None
    passed: bool | None
    detail: str


def run_checks(spec):
    """Yield one CheckResult per check of the battery on spec, in battery order.

    The checks run one by one as the results are read.  A check that
    raises ValueError or ArithmeticError fails, with value and bound NaN
    and "raised <type>: <message>" as its detail, and the battery goes on.
    """
    for name, check in _checks(spec):
        try:
            value, bound, detail = check()
        except (ValueError, ArithmeticError) as exc:
            value, bound, detail = math.nan, math.nan, f"raised {type(exc).__name__}: {exc}"
        passed = None if value is None else bool(value <= bound)
        yield CheckResult(name, value, bound, passed, detail)


def _over_budget(spec, nu, n_paths, horizon):
    """Why simulating n_paths paths from nu would overrun _JUMP_BUDGET, or None.

    A path makes expected_jumps(spec, nu) jumps on average before it is
    absorbed, and at most horizon * max(lambda_i + mu_i) on average
    before the horizon censors it.
    """
    fastest = float(np.max(spec.lam_array() + spec.mu_array()))
    per_path = min(expected_jumps(spec, nu), horizon * fastest)
    total = n_paths * per_path
    if total <= _JUMP_BUDGET:
        return None
    return (
        f"{n_paths} paths x {per_path:.3g} expected jumps each = {total:.3g} jumps, "
        f"over the budget of {_JUMP_BUDGET:.3g}"
    )


def _ks_gate(ev, sample, nu):
    """(D, critical) for the KS test of sample against ev's hitting CDF from nu.

    D comes from one spectral_sum call over every sample time; it is None,
    and ev is not read, when paths were censored.  critical is the
    asymptotic 1% point for the sample size.
    """
    critical = _KS_CRIT_1PCT / math.sqrt(sample.n_paths)
    if sample.n_censored:
        return None, critical
    return ks_statistic(sample, lambda t: spectral_sum(ev, t, nu, transform="cdf")), critical


def _is_constant_symmetric(spec):
    kappa = spec.mu[0]
    return all(r == kappa for r in spec.mu) and all(
        r == kappa for r in spec.lam[:-1]
    )


def _checks(spec):
    """Yield (name, check) in battery order; check() gives (value, bound, detail)."""
    n = spec.n_states
    rows = min(n, 10)
    ev = finite_evaluator(spec, c_rows=rows)
    c = ev.c
    pi = c.pi
    s = c.s
    lam = spec.lam_array()
    mu = spec.mu_array()
    theta_min = float(ev.theta[0])
    horizon = 80.0 / theta_min  # of both simulations
    nu = InitialDistribution({1: 1.0})

    def balance():
        defect = max(
            abs(float(pi[i + 1]) * mu[i] - float(pi[i]) * lam[i - 1])
            for i in range(1, n)
        ) if n > 1 else 0.0
        scale = float(np.max(ev.pi * mu))
        return defect, 1e-12 * scale, f"defect {defect:g}"

    yield "speed-measure-balance", balance

    def factorization():
        # a fixed test vector from numpy alone: a seeded generator would
        # import numpy.random on the first verify job; the golden angle
        # keeps the entries spread over [-1, 1] at every length
        f = np.sin(1.0 + 2.399963229728653 * np.arange(n + 1))
        q1 = np.asarray(apply_Q(spec, f))
        q2 = np.asarray(apply_DpiDs(spec, pi, s, f))
        d = float(np.max(np.abs(q1 - q2)))
        sc = float(np.max(np.abs(q1))) + 1.0
        return d, 1e-10 * sc, f"max diff {d:g}"

    yield "generator-factorization", factorization

    def harmonic():
        qs = np.asarray(apply_Q(spec, s.array()))
        d = float(np.max(np.abs(qs[: n - 1]))) if n > 1 else 0.0
        sc = float(np.max(mu * np.abs(s.array()).max() + 1.0))
        return d, 1e-10 * sc, f"max |Qs| {d:g} on 1..{n - 1}"

    yield "scale-harmonic", harmonic

    def recursion():
        d = verify_columns(c)
        sc = float(max(abs(float(v)) for row in c.rows for v in row)) + 1.0
        return d, 1e-10 * sc, f"defect {d:g}"

    yield "cmatrix-column-recursion", recursion

    def atoms():
        # the atoms out of ascending order, and theta[0] if not positive
        violated = int(np.count_nonzero(~(np.diff(ev.theta) > 0))) + int(not ev.theta[0] > 0)
        return violated, 0, f"theta[0] {ev.theta[0]:g}"

    yield "spectrum-atoms-positive-ascending", atoms

    def orthogonality():
        m = min(rows, 6)
        d = max(
            orthogonality_defect(ev, i, j)
            for i in range(1, m + 1)
            for j in range(i, m + 1)
        )
        return d, 1e-9, f"max defect {d:g}"

    yield "eigenfunction-orthogonality", orthogonality

    def total_mass():
        # the hitting CDF at t = inf, from every state
        mass = spectral_sum(ev, (np.inf,), range(1, n + 1), transform="cdf")
        d = float(np.max(np.abs(mass - 1.0)))
        return d, 1e-9, f"max defect {d:g}"

    yield "density-total-mass", total_mass

    def cdf_limits():
        t_big = 40.0 / theta_min
        cdf_vals = spectral_sum(ev, np.linspace(0.0, t_big, 20), nu, transform="cdf")
        # F(0) not 0, F(T) not within 1e-6 of 1, and each step that falls
        violated = (
            int(not cdf_vals[0] == 0.0)
            + int(not abs(cdf_vals[-1] - 1.0) <= 1e-6)
            + int(np.count_nonzero(~(cdf_vals[1:] >= cdf_vals[:-1] - 1e-12)))
        )
        return violated, 0, f"F(0) {cdf_vals[0]:g}, F(T) {cdf_vals[-1]:.9f}"

    yield "hitting-cdf-limits", cdf_limits

    def link():
        ts = (0.3, 1.0, 2.5)
        mu1 = float(spec.mu[0])
        starts = range(1, min(3, n) + 1)
        f = spectral_sum(ev, ts, starts)
        d = float(np.max(np.abs(f - mu1 * spectral_sum(ev, ts, starts, ("state", 1)))))
        return d, 1e-12, f"max diff {d:g}"

    yield "density-transition-link", link

    def reproduction():
        k_sup = min(3, n)
        nu2 = InitialDistribution({i: 1.0 / k_sup for i in range(1, k_sup + 1)})
        report = recover_initial(ev, nu=nu2, j_max=min(4, n), mode="spectral")
        d = report.max_abs_error
        return d, 1e-9, f"max error {d:g}"

    yield "spectral-reproduction", reproduction

    def derivative_bounds():
        k_max = min(4, rows - 1)
        alpha = derivative_bound_sequence(c, k_max)
        worst = 0.0
        starts = range(1, min(n, 8) + 1)
        for k in range(k_max + 1):
            v = np.abs(spectral_sum(ev, (0.05, 0.3, 1.0, 3.0), starts, transform=k))
            worst = max(worst, float(v.max()) - float(alpha[k]) * (1 + 1e-12))
        return worst, 1e-12, f"max excess {worst:g}"

    yield "derivative-bounds", derivative_bounds

    if _is_constant_symmetric(spec):
        kappa = float(spec.mu[0])

        def stieltjes():
            ratios = [stieltjes_check(spec, th, max(n, 200)) for th in (0.5, 1.0, 4.0)]
            d = max(abs(numeric - closed) for numeric, closed in ratios)
            return d, 1e-6, f"max diff {d:g}"

        yield "stieltjes-ratio", stieltjes

        gamma = kappa / 2
        try:
            plus, _ = rw_gamma_eigenfunctions(spec.mu[0], gamma, n)
            ev2 = transformed_evaluator(ev, plus)
        except (ValueError, OverflowError) as exc:
            # the tilted chain is out of reach (its speed measure leaves float
            # range from N = 513 on the kappa = 1 walk): both of its checks
            # measure nothing and fail, and the battery goes on
            refused = f"tilted evaluator refused: {exc}"
            yield "htransform-cmatrix-commutation", lambda: (math.nan, 1e-10, refused)
            yield "htransform-density-conjugacy", lambda: (math.nan, 1e-9, refused)
        else:
            def commutation():
                c2 = ev2.c
                c2_direct = build_c_matrix(c2.spec, c.max_index, rational=False)
                d = 0.0
                for i in range(c.max_index + 1):
                    for j in range(i + 1):
                        a = float(c2.rows[i][j])
                        b = float(c2_direct.rows[i][j])
                        d = max(d, abs(a - b) / max(1.0, abs(b)))
                return d, 1e-10, f"max rel diff {d:g}"

            yield "htransform-cmatrix-commutation", commutation

            def conjugacy():
                x, t = min(2, n), 0.7
                lhs = spectral_sum(ev2, (t,), x)[0]
                # f'_x(t) = exp(-gamma t) f_x(t) / k(x)
                f = spectral_sum(ev, (t,), x)[0]
                rhs = math.exp(-float(plus.gamma) * t) * f / float(plus.k_values[x])
                d = abs(lhs - rhs) / max(abs(rhs), 1e-300)
                return d, 1e-9, f"rel diff {d:g}"

            yield "htransform-density-conjugacy", conjugacy

    def monte_carlo_ks():
        too_long = _over_budget(spec, nu, 2000, horizon)
        if too_long:
            return None, None, too_long
        config = SimConfig(n_paths=2000, t_horizon=horizon, seed=20260816, initial=nu)
        sample = empirical_hitting(spec, config)
        if sample.n_censored:
            return sample.n_censored, 0, f"{sample.n_censored} paths censored"
        ks, crit = _ks_gate(ev, sample, nu)
        return ks, crit, f"D {ks:.5f} vs critical {crit:.5f}"

    yield "monte-carlo-ks", monte_carlo_ks

    def determinism():
        too_long = _over_budget(spec, nu, 1, horizon)
        if too_long:
            return None, None, too_long
        traj_a, hit_a = sample_path(spec, 1, 99, horizon)
        traj_b, hit_b = sample_path(spec, 1, 99, horizon)
        return int(traj_a != traj_b) + int(hit_a != hit_b), 0, "replayed path"

    yield "simulation-determinism", determinism
