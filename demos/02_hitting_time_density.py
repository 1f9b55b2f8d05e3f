"""Absorption-time densities and transition probabilities, cross-checked.

The spectral sums give P_t(i, j) and the hitting density f_i(t) in closed
form once the spectrum is known; b.spectral_sum evaluates any of them over
an array of times.  This script compares them against a
matrix-exponential oracle and integrates the density to its CDF.

Run:  python3 demos/02_hitting_time_density.py
"""

import numpy as np

import bdhit as b
from bdhit.oracles import uniformized_transition_matrix

rng = np.random.default_rng(7)
lam = list(rng.uniform(0.5, 3.0, 8))
mu = list(rng.uniform(0.5, 3.0, 8))
lam[-1] = 0.0
spec = b.ProcessSpec(tuple(lam), tuple(mu))
ev = b.finite_evaluator(spec)

# Transition probabilities against uniformization of the rate matrix.
t = 0.8
want = uniformized_transition_matrix(spec, t)
got = np.array(
    [[b.spectral_sum(ev, (t,), i, ("state", j))[0] for j in range(1, 9)] for i in range(1, 9)]
)
print(f"P_t at t = {t}: max |spectral - uniformization| =", np.max(np.abs(got - want)))

# The hitting density is the probability flux into 0: f_i(t) = mu_1 P_t(i, 1).
i = 3
ts = (0.2, 1.0, 4.0)
fs = b.spectral_sum(ev, ts, i)
fluxes = float(spec.mu[0]) * b.spectral_sum(ev, ts, i, ("state", 1))
for t, f, flux in zip(ts, fs, fluxes):
    print(f"f_{i}({t}) = {f:.10f}   mu_1 P_t({i},1) = {flux:.10f}")

# Mixtures over a starting distribution and the time grid helper.
nu = b.InitialDistribution({1: 0.25, 3: 0.5, 6: 0.25})
print("\n t      f_nu(t)       F_nu(t)")
grid = b.time_grid(0.25, 8.0, 8)
density = b.spectral_sum(ev, grid, nu)
cdf = b.spectral_sum(ev, grid, nu, transform="cdf")
for t, f, F in zip(grid, density, cdf):
    print(f"{t:5.2f}   {f:.8f}   {F:.8f}")

# The CDF climbs to 1: all mass is eventually absorbed on a finite chain.
horizon = 50.0 / float(min(ev.theta))
print("F_nu at 50 mean lifetimes:", b.spectral_sum(ev, (horizon,), nu, transform="cdf")[0])

# Derivatives of the density come termwise from the atoms.
t = 1.0
d1 = b.spectral_sum(ev, (t,), i, transform=1)[0]
h = 1e-6
below, above = b.spectral_sum(ev, (t - h, t + h), i)
fd = (above - below) / (2 * h)
print(f"\nd/dt f_{i}(1) termwise = {d1:.10f}, finite difference = {fd:.10f}")
