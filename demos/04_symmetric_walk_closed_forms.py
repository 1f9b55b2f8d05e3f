"""The constant-rate symmetric walk, where everything has a closed form.

With lambda_i = mu_i = kappa the eigenfunctions are Chebyshev polynomials
of the second kind, the spectral measure is absolutely continuous on
(0, 4 kappa), the hitting density from state 1 is a Bessel expression,
and a depth-independent ratio identity pins the Dirichlet/Neumann pair.

Run:  python3 demos/04_symmetric_walk_closed_forms.py
"""

import math

import numpy as np

import bdhit as b
from bdhit.oracles import rw_cmatrix_closed_form, rw_hitting_density_closed_form

kappa = 1

# C-matrix rows from the generic recursion vs the Chebyshev-coefficient
# closed form: identical Fractions, not merely close.
c = b.build_c_matrix(b.symmetric_rw_spec(kappa, 14), 12)
print("recursion rows == Chebyshev closed form:", c.rows == rw_cmatrix_closed_form(kappa, 12))
print("row 4 of C:", [str(v) for v in c.rows[4][1:]])

# Continuous-spectrum evaluator: midpoint quadrature of the arcsine-type
# spectral density, exact for moderate states.
ev = b.rw_evaluator(float(kappa), n_nodes=256, n_states=32)
print("\n t      quadrature f_1     Bessel oracle")
ts = (0.25, 1.0, 4.0)
for t, got in zip(ts, b.spectral_sum(ev, ts, 1)):
    want = rw_hitting_density_closed_form(kappa, t)
    print(f"{t:5.2f}   {got:.12f}   {want:.12f}")

# The quadrature is also an orthogonality statement about sin(i u).
m = b.rw_evaluator(float(kappa), n_nodes=16, n_states=6)
worst = max(abs(b.orthogonality_defect(m, i, j)) for i in range(1, 7) for j in range(i, 7))
print("\n16-node quadrature orthogonality defect:", worst)

# Deep-lattice ratio identity: the ratio of the Neumann to the Dirichlet
# solution at depth i converges to 2 kappa theta / (theta + sqrt(theta^2
# + 4 kappa theta)) with error alpha_+^(-2i); at i = 200 it is exact to
# machine precision.
big = b.symmetric_rw_spec(kappa, 210)
print("\ntheta   ratio at depth 200      closed form")
for theta in (0.5, 1.0, 4.0):
    numeric, closed = b.stieltjes_check(big, theta, 200)
    print(f"{theta:4.1f}   {numeric:.15f}   {closed:.15f}")

# Truncating the infinite lattice at N converges fast in the bulk: the
# finite-chain transition P_t(1,1) approaches the quadrature value.
print("\nN     |finite P_t(1,1) - quadrature|   (t = 4)")
target = b.spectral_sum(ev, (4.0,), 1, ("state", 1))[0]
for n in (4, 6, 8, 10, 12, 16):
    fin = b.finite_evaluator(b.symmetric_rw_spec(kappa, n), c_rows=2)
    p = b.spectral_sum(fin, (4.0,), 1, ("state", 1))[0]
    print(f"{n:3d}   {abs(p - target):.3e}")
