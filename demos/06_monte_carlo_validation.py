"""Monte Carlo cross-check: paths against the spectral formulas.

Simulates absorbed trajectories with a counter-based RNG (every draw a
function of seed, path and step, so each path is reproducible whatever
the batching), then compares the empirical hitting-time law against the
spectral CDF with a Kolmogorov-Smirnov test (the CDF evaluated once, over
the whole sorted sample), and checkpoint occupancy counts against the
transition probabilities with z-scores.

Run:  python3 demos/06_monte_carlo_validation.py   (~2 s)
"""

import math

import numpy as np

import bdhit as b

rng = np.random.default_rng(7)
n = 8
lam = tuple(rng.uniform(0.5, 3.0, n))
mu = tuple(rng.uniform(0.5, 3.0, n))
spec = b.ProcessSpec(lam[:-1] + (0.0,), mu)
nu = b.InitialDistribution({1: 0.25, 2: 0.5, 3: 0.25})
ev = b.finite_evaluator(spec)

# One path, fully reproducible: same seed, same trajectory.
cfg_one = b.SimConfig(1, 3000.0, 11, nu)
sample = b.empirical_hitting(spec, cfg_one)
print(f"single path absorbed at t = {sample.times[0]:.6f} "
      f"(rerun: {b.empirical_hitting(spec, cfg_one).times[0]:.6f})")

# 50k paths: the empirical hitting CDF must sit within the KS band of
# the spectral CDF.  The slowest mode here decays at rate ~0.027, so a
# horizon of ~80 mean lifetimes leaves no path unabsorbed.
cfg = b.SimConfig(50_000, 3000.0, 42, nu)
sample = b.empirical_hitting(spec, cfg)
assert sample.n_censored == 0
ks = b.ks_statistic(sample, lambda t: b.spectral_sum(ev, t, nu, transform="cdf"))
band = 1.6276 / math.sqrt(cfg.n_paths)
print(f"\n{cfg.n_paths} paths, KS statistic {ks:.5f} vs 1% band {band:.5f}: "
      f"{'PASS' if ks < band else 'FAIL'}")

# Where the mass is: empirical occupancy at checkpoints vs P_t.
t_values = (0.3, 1.0, 3.0)
occ = b.empirical_occupancy(spec, cfg, t_values)
print("\ncheckpoint occupancy (empirical vs spectral, z-scores):")
print("  t      state  empirical   expected    z")
# State 0 holds the absorbed paths, whose expected share is the CDF.
expected = {0: b.spectral_sum(ev, t_values, nu, transform="cdf")}
for j in (1, 2):
    expected[j] = sum(
        mass * b.spectral_sum(ev, t_values, i, ("state", j)) for i, mass in nu.items
    )
worst_z = 0.0
for a, t in enumerate(t_values):
    for j in (0, 1, 2):
        p = expected[j][a]
        freq = occ[a, j] / cfg.n_paths
        se = math.sqrt(p * (1 - p) / cfg.n_paths)
        z = (freq - p) / se if se > 0 else 0.0
        worst_z = max(worst_z, abs(z))
        print(f"  {t:4.1f}   {j:>5d}  {freq:.6f}   {p:.6f}   {z:+.2f}")
print(f"worst |z| = {worst_z:.2f} (expect < 4 almost surely)")

# A deliberately wrong reference fails the same KS test.
wrong = b.finite_evaluator(b.ProcessSpec(lam[:-1] + (0.0,), tuple(2 * m for m in mu)))
ks_wrong = b.ks_statistic(sample, lambda t: b.spectral_sum(wrong, t, nu, transform="cdf"))
print(f"\nsanity: against a chain with doubled death rates the KS statistic "
      f"is {ks_wrong:.3f} (rejected)")
