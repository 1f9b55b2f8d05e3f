"""A finite birth-and-death chain and its spectral decomposition.

Builds the basic objects for a small chain: speed measure, scale function,
the C-matrix of generalized zero-eigenfunctions, and the chain's spectral
representation (atoms, weights, eigenfunction table) that diagonalizes
everything downstream.

Run:  python3 demos/01_chain_and_spectrum.py
"""

import numpy as np

import bdhit as b

# An irregular 6-state chain.  State 0 absorbs; the top birth rate is 0.
spec = b.ProcessSpec(
    lam=(1.3, 0.8, 2.1, 0.6, 1.9, 0.0),
    mu=(0.9, 1.4, 0.7, 2.2, 1.1, 0.8),
)
print(f"chain with {spec.n_states} interior states")
print(f"  lambda = {spec.lam}")
print(f"  mu     = {spec.mu}")

# Speed measure (pi_1 = 1) and scale function (s(0) = 0, harmonic inside):
# the C-matrix below carries both, built from the rates together with it.
c = b.build_c_matrix(spec, spec.n_states)
pi, s = c.pi, c.s
print("\nspeed measure pi_i :", np.round(pi.array(), 4))
print("scale function s(i):", np.round([s[i] for i in range(7)], 4))

# The scale function is killed by the generator away from the boundary.
qs = b.apply_Q(spec, [s[i] for i in range(7)])
print("max |Q s| over interior states:", max(abs(v) for v in qs[:-1]))

# C-matrix: column j solves Q^j C_j = 0 with Q^(j-1) C_j = s.  Its rows are
# the theta-expansion coefficients of the Dirichlet eigenfunctions.
print("\nC-matrix (rows 0..3):")
for i in range(4):
    print(" ", np.round([float(c.value(i, j)) for j in range(1, 4)], 4))
print("column recursion defect:", b.verify_columns(c))

# The spectral representation: atoms are the decay rates of the chain; the
# weights come from the eigenfunction table psi_k(i) it also holds.
m = b.finite_spectrum(c)
print("\nspectral atoms theta_k :", np.round(m.theta, 4))
print("spectral weights w_k   :", np.round(m.weights, 4))

# The eigenfunctions are orthogonal under (w, pi); defects are float noise.
worst = max(
    abs(b.orthogonality_defect(m, i, j))
    for i in range(1, 7)
    for j in range(i, 7)
)
print("worst orthogonality defect:", worst)

# Every row of C evaluated at -theta_k reproduces the eigenfunction values,
# and the total-mass identity sum_k w_k psi_k(i) / theta_k = 1 holds.
psi1 = m.psi_at((1,))[:, 0]
total = float(np.sum(m.weights * psi1 / m.theta))
print("total-mass identity at i = 1:", total)
