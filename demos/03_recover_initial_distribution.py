"""Reading the initial distribution back out of the absorption density.

The central identity: applying the row-j differential operator
sum_m C(j, m) d^(m-1)/dt^(m-1) to f_nu and scaling by pi_j yields
P_nu[X_t = j], which at t -> 0 is nu{j} itself.  Spectrally the operator
is exact; numerically it works from density samples alone.

Run:  python3 demos/03_recover_initial_distribution.py
"""

import numpy as np

import bdhit as b

rng = np.random.default_rng(12)
lam = list(rng.uniform(0.5, 3.0, 10))
mu = list(rng.uniform(0.5, 3.0, 10))
lam[-1] = 0.0
spec = b.ProcessSpec(tuple(lam), tuple(mu))
ev = b.finite_evaluator(spec)

# The distribution to hide and recover.
nu = b.InitialDistribution({1: 0.3, 2: 0.5, 4: 0.2})
print("hidden nu:", dict(nu.items))

# Spectral mode: termwise differentiation, exact up to float noise.
rep = b.recover_initial(ev, nu=nu, j_max=5, mode="spectral")
print("\nspectral recovery at t = 0:")
for j, r in zip(rep.states, rep.recovered):
    print(f"  nu{{{j}}} = {r: .12f}   (true {nu.mass(j):.1f})")
print("max error:", rep.max_abs_error)

# Blind numeric mode: the recovery sees only (t, f(t)) values near t = 0,
# fits local polynomials, and Richardson-extrapolates the operator to 0.
# The density callable gets one array of times per fitting window.
density = lambda t: b.spectral_sum(ev, t, nu)
rep = b.recover_initial(ev, nu=nu, samples=density, j_max=4, mode="numeric")
print("\nblind numeric recovery (density samples only):")
for j, r in zip(rep.states, rep.recovered):
    d = rep.diagnostics["per_state"][j]
    print(
        f"  nu{{{j}}} = {r: .8f}   window {d['n_points']} pts, "
        f"degree {d['degree']}, condition {d['condition']:.1e}"
    )
print("reliable:", rep.reliable)

# Derivative magnitudes are capped by an a-priori bound sequence computed
# from the C-matrix, which is what keeps the numeric route honest.
alpha = b.derivative_bound_sequence(ev.c, 4)
print("\nderivative bounds alpha_k:", [f"{float(a):.4g}" for a in alpha])
grid = b.time_grid(0.01, 5.0, 50)
for k in range(5):
    peak = np.max(np.abs(b.spectral_sum(ev, grid, 2, transform=k)))
    print(f"  k = {k}: sampled peak |d^k f_2| = {peak:.4g} <= {float(alpha[k]):.4g}")
