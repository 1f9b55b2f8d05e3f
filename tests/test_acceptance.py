"""Acceptance suite: nine contracted gates, one test and one verdict line each.

Every tolerance here is pinned; the helper chains are seeded so reruns are
bit-reproducible.  Matrix-exponential truth comes from the uniformization
oracle, closed forms from the Bessel/Chebyshev oracles.
"""

import math
from fractions import Fraction

import numpy as np

import bdhit as b
from bdhit.oracles import (
    rw_cmatrix_closed_form,
    rw_hitting_density_closed_form,
    uniformized_transition_matrix,
)
from conftest import random_chain

CHAIN_SEEDS = (1001, 1002, 1003, 1004, 1005)
BLIND_SEEDS = (2101, 2102, 2103, 2104, 2105)


def test_criterion_1_spectral_transition_vs_matrix_exponential():
    worst = 0.0
    for seed in CHAIN_SEEDS:
        spec = random_chain(seed)
        ev = b.finite_evaluator(spec)
        n = spec.n_states
        ts = (0.1, 1.0, 10.0)
        got = np.array(
            [
                [b.spectral_sum(ev, ts, i, ("state", j)) for j in range(1, n + 1)]
                for i in range(1, n + 1)
            ]
        )
        for k, t in enumerate(ts):
            want = uniformized_transition_matrix(spec, t)
            worst = max(worst, float(np.max(np.abs(got[:, :, k] - want))))
    assert worst < 1e-10
    print(f"criterion 1 PASS: spectral vs matrix-exponential, max |diff| = {worst:.3g} (< 1e-10)")


def test_criterion_2_orthogonality_finite_and_quadrature():
    worst_fin = 0.0
    for seed in CHAIN_SEEDS:
        spec = random_chain(seed)
        c = b.build_c_matrix(spec, spec.n_states)
        m = b.finite_spectrum(c)
        worst_fin = max(
            abs(b.orthogonality_defect(m, i, j))
            for i in range(1, 11)
            for j in range(i, 11)
        )
        assert worst_fin < 1e-10
    m = b.rw_evaluator(1.0, n_nodes=16, n_states=6)
    worst_rw = max(
        abs(b.orthogonality_defect(m, i, j))
        for i in range(1, 7)
        for j in range(i, 7)
    )
    assert worst_rw < 1e-12
    print(
        f"criterion 2 PASS: orthogonality defects, finite = {worst_fin:.3g} (< 1e-10), "
        f"16-node quadrature = {worst_rw:.3g} (< 1e-12)"
    )


def test_criterion_3_spectral_reproduction_of_hidden_distribution():
    spec = random_chain(CHAIN_SEEDS[0])
    ev = b.finite_evaluator(spec)
    nu = b.InitialDistribution({1: 0.3, 2: 0.5, 4: 0.2})

    rep = b.recover_initial(ev, nu=nu, j_max=5, mode="spectral")
    worst_rec = max(
        abs(r - x) for r, x in zip(rep.recovered, (0.3, 0.5, 0.0, 0.2, 0.0))
    )
    assert worst_rec < 1e-9

    worst_link = 0.0
    ts = np.linspace(0.1, 3.0, 20)
    for j in range(1, 6):
        lhs = b.spectral_sum(ev, ts, nu, ("c_row", j))
        terms = [m * b.spectral_sum(ev, ts, i, ("state", j)) for i, m in nu.items]
        rhs = np.array([math.fsum(column) for column in zip(*terms)])
        worst_link = max(worst_link, float(np.max(np.abs(lhs - rhs))))
    assert worst_link < 1e-10
    print(
        f"criterion 3 PASS: t=0 recovery max err = {worst_rec:.3g} (< 1e-9), "
        f"operator vs transition on 20-point grid = {worst_link:.3g} (< 1e-10)"
    )


def test_criterion_4_blind_numeric_reproduction():
    worst_tv = 0.0
    for seed in BLIND_SEEDS:
        spec = random_chain(seed)
        ev = b.finite_evaluator(spec)
        nu = b.InitialDistribution({1: 0.3, 2: 0.5, 4: 0.2})
        density = lambda t: b.spectral_sum(ev, t, nu)
        rep = b.recover_initial(ev, nu=nu, samples=density, j_max=4, mode="numeric")
        tv = 0.5 * sum(
            abs(r - x) for r, x in zip(rep.recovered, nu.as_vector(4))
        ) + 0.5 * abs(sum(rep.recovered) - 1.0)
        worst_tv = max(worst_tv, tv)
        assert rep.reliable
        per = rep.diagnostics["per_state"]
        assert per[4]["n_points"] == 41  # deepest window: 41 samples
        for j in rep.states:
            assert math.isfinite(per[j]["condition"])
            assert per[j]["condition"] > 0
    assert worst_tv < 1e-3
    print(
        f"criterion 4 PASS: blind recovery from 41-sample windows, "
        f"max TV = {worst_tv:.3g} (< 1e-3), conditioning reported"
    )


def test_criterion_5_symmetric_rw_closed_forms():
    for kappa in (1, 2):
        spec = b.symmetric_rw_spec(kappa, 14)
        c = b.build_c_matrix(spec, 12, rational=True)
        assert c.rows == rw_cmatrix_closed_form(kappa, 12)  # exact equality

    worst = 0.0
    for kappa in (1.0, 2.0):
        ev = b.rw_evaluator(kappa, n_nodes=256, n_states=32)
        ts = (0.25, 1.0, 4.0)
        got = b.spectral_sum(ev, ts, 1)
        for t, f in zip(ts, got):
            want = rw_hitting_density_closed_form(kappa, t)
            worst = max(worst, abs(f - want))
    assert worst < 1e-8
    print(
        f"criterion 5 PASS: recursive C == Chebyshev C exactly (i <= 12), "
        f"quadrature f_1 vs Bessel oracle max |diff| = {worst:.3g} (< 1e-8)"
    )


def test_criterion_6_asymmetric_rw_via_h_transform():
    direct_spec, ht = b.asymmetric_rw(2, 1, 200)
    tilted_spec = b.transform_rates(ht)
    worst_rates = max(
        float(np.max(np.abs(tilted_spec.lam_array() - direct_spec.lam_array()))),
        float(np.max(np.abs(tilted_spec.mu_array() - direct_spec.mu_array()))),
    )
    assert worst_rates < 1e-12

    c_tilted = b.transform_cmatrix(b.build_c_matrix(ht.base, 8), ht)
    c_direct = b.build_c_matrix(direct_spec, 8)
    worst_c = max(
        abs(c_tilted.value(i, j) - c_direct.value(i, j)) / abs(c_direct.value(i, j))
        for i in range(1, 9)
        for j in range(1, i + 1)
    )
    assert worst_c < 1e-10

    base_ev = b.finite_evaluator(ht.base, c_rows=8)
    tilted_ev = b.transformed_evaluator(base_ev, ht)
    direct_ev = b.finite_evaluator(direct_spec, c_rows=8)
    ts = np.linspace(0.1, 5.0, 25)
    worst_f = float(
        np.max(np.abs(b.spectral_sum(tilted_ev, ts, 1) - b.spectral_sum(direct_ev, ts, 1)))
    )
    assert worst_f < 1e-8
    print(
        f"criterion 6 PASS: direct vs tilted asymmetric walk, rates = {worst_rates:.3g} "
        f"(< 1e-12), C rel = {worst_c:.3g} (< 1e-10), f_1 = {worst_f:.3g} (< 1e-8)"
    )


def test_criterion_7_stieltjes_ratio_identity():
    spec = b.symmetric_rw_spec(1, 210)
    worst = 0.0
    for theta in (0.5, 1.0, 4.0):
        numeric, closed = b.stieltjes_check(spec, theta, 200)
        want = 2 * theta / (theta + math.sqrt(theta**2 + 4 * theta))
        assert closed == want
        worst = max(worst, abs(numeric - closed))
    assert worst < 1e-6
    print(
        f"criterion 7 PASS: eigenfunction ratio at depth 200 vs closed form, "
        f"max |diff| = {worst:.3g} (< 1e-6)"
    )


def test_criterion_8_monte_carlo_concordance(two_state_chain):
    ev = b.finite_evaluator(two_state_chain)
    nu = b.InitialDistribution({1: 1.0})
    n = 100_000
    cfg = b.SimConfig(n, 80.0, 42, nu)

    sample = b.empirical_hitting(two_state_chain, cfg)
    assert sample.n_censored == 0
    ks = b.ks_statistic(sample, lambda t: b.spectral_sum(ev, t, nu, transform="cdf"))
    crit = 1.6276 / math.sqrt(n)
    assert ks < crit

    t_values = (0.5, 1.0, 2.0)
    counts = b.empirical_occupancy(two_state_chain, cfg, t_values)
    worst_z = 0.0
    for j in (1, 2):
        for ti, p in enumerate(b.spectral_sum(ev, t_values, 1, ("state", j))):
            se = math.sqrt(p * (1 - p) / n)
            worst_z = max(worst_z, abs(counts[ti, j] / n - p) / se)
    assert worst_z < 4.0
    print(
        f"criterion 8 PASS: 1e5 paths, KS = {ks:.3g} (< {crit:.3g}), "
        f"occupancy max |z| = {worst_z:.2f} (< 4)"
    )


def test_criterion_9_derivative_bounds():
    alpha_rw = b.derivative_bound_sequence(
        b.finite_evaluator(b.symmetric_rw_spec(1, 8)).c, 2
    )
    assert alpha_rw == (Fraction(1), Fraction(3), Fraction(16))  # mu_1, 3, 16

    grid = b.time_grid(0.01, 5.0, 100)
    worst_ratio = 0.0
    for seed in CHAIN_SEEDS:
        spec = random_chain(seed)
        ev = b.finite_evaluator(spec)
        alpha = b.derivative_bound_sequence(ev.c, 4)
        for k, bound in enumerate(alpha):
            peak = max(
                float(np.max(np.abs(b.spectral_sum(ev, grid, i, transform=k))))
                for i in range(1, 11)
            )
            assert peak <= float(bound) * (1 + 1e-12)
            worst_ratio = max(worst_ratio, peak / float(bound))
    print(
        f"criterion 9 PASS: |d^k f_i| <= alpha_k for k <= 4, i <= 10 "
        f"(tightest peak/bound = {worst_ratio:.3f}); alpha = (mu_1, 3, 16) exactly"
    )
