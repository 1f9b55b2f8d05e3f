"""Drifted walks as exponential tilts of the symmetric walk.

A positive function k with (Q - gamma) k = 0 turns the generator of one
chain into the generator of another with rates lambda'_i = lambda_i
k(i+1)/k(i), mu'_i = mu_i k(i-1)/k(i) and spectrum shifted by gamma.
The constant-rate walk with drift is exactly such a tilt of the
symmetric walk, so all its closed forms transfer.

Run:  python3 demos/05_drifted_walk_h_transform.py
"""

import math
from fractions import Fraction

import numpy as np

import bdhit as b

# --- The exact doubling case: kappa = 1, gamma = 1/2, k(i) = 2^i. ------
n = 16
base = b.symmetric_rw_spec(1, n)
ht = b.HTransform(Fraction(1, 2), tuple(Fraction(2) ** i for i in range(n + 1)), base)
tilted = b.transform_rates(ht)
print("doubling tilt of the unit symmetric walk:")
print("  lambda' =", str(tilted.lam[0]), " mu' =", str(tilted.mu[0]))

# Tilting commutes with the C-matrix construction, exactly in rationals:
# transform the base C-matrix, or build the C-matrix of the tilted chain
# directly -- same Fractions.
via_tilt = b.transform_cmatrix(b.build_c_matrix(base, 10), ht)
direct = b.build_c_matrix(tilted, 10)
print("  transform(C_base) == C_tilted (exact):", via_tilt.rows == direct.rows)

# --- The general drifted walk lambda = 2, mu = 1 via tilting. ----------
lam, mu = 2.0, 1.0
direct_spec, ht2 = b.asymmetric_rw(lam, mu, 60)
print("\nlambda = 2, mu = 1 walk as a tilt:")
print(f"  kappa = {float(np.sqrt(lam * mu)):.12f} (geometric mean of the rates)")
print(f"  gamma = {float(ht2.gamma):.12f} (spectral gap = (sqrt(lam) - sqrt(mu))^2)")
alpha_plus, alpha_minus = b.rw_alphas(np.sqrt(lam * mu), float(ht2.gamma))
print(f"  alpha_+ = {alpha_plus:.12f}, alpha_- = {alpha_minus:.12f}, product = {alpha_plus * alpha_minus:.1f}")

drifted = b.transform_rates(ht2)
rate_err = max(
    max(abs(float(a) - float(c_)) for a, c_ in zip(drifted.lam[:-1], direct_spec.lam[:-1])),
    max(abs(float(a) - float(c_)) for a, c_ in zip(drifted.mu, direct_spec.mu)),
)
print(f"  tilted rates vs direct construction, max error: {rate_err:.3e}")

# Densities conjugate: f'_x(t) = e^{-gamma t} f_x(t) / k(x), so the
# drifted chain's hitting density comes from the symmetric one.
ev_base = b.finite_evaluator(ht2.base)
ev_drift = b.finite_evaluator(direct_spec)
print("\n  t     via conjugacy       direct drifted chain")
ts = (0.5, 2.0)
for t, f_base, got in zip(ts, b.spectral_sum(ev_base, ts, 3), b.spectral_sum(ev_drift, ts, 3)):
    via = math.exp(-float(ht2.gamma) * t) * f_base / float(ht2.k_values[3])
    print(f"  {t:3.1f}   {via:.12e}   {got:.12e}")

# The whole spectral evaluator transfers too: shift atoms by gamma,
# rescale weights and eigenfunctions by k.
ev_tilt = b.transformed_evaluator(ev_base, ht2)
ts = (0.5, 1.0, 3.0)
worst = max(
    np.max(np.abs(b.spectral_sum(ev_tilt, ts, i, ("state", j))
                  - b.spectral_sum(ev_drift, ts, i, ("state", j))))
    for i in (1, 2, 5)
    for j in (1, 2, 5)
)
print(f"\n  transformed evaluator vs direct, worst |dP|: {worst:.3e}")
print(f"  smallest atom shift: {ev_tilt.theta[0] - ev_base.theta[0]:.12f}"
      f"  (= gamma = {float(ht2.gamma):.12f})")
