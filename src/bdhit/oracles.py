"""Independent reference computations used to validate the main pipelines.

Everything here deliberately avoids the spectral machinery: transition
matrices come from a uniformized power series in the rate matrix, Bessel
values from their defining series, the constant-rate-walk C-matrix from
an explicit Chebyshev coefficient formula, and checks of a chain's atoms
from Keilson's passage-time identities, which read only the rates.
Agreement between these routes and the spectral ones is what the test
suite and the ``verify`` command certify.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

__all__ = [
    "interior_rate_matrix",
    "uniformized_transition_matrix",
    "bessel_i1",
    "rw_hitting_density_closed_form",
    "chebyshev_u_coeff",
    "rw_cmatrix_closed_form",
    "passage_identities",
]

_POISSON_TOL = 1e-16  # the Poisson weight below which uniformization stops


def interior_rate_matrix(spec):
    """Dense generator on interior states 1..N (row = source state)."""
    n = spec.n_states
    lam = spec.lam_array()
    mu = spec.mu_array()
    q = np.zeros((n, n))
    for i in range(n):
        q[i, i] = -(lam[i] + mu[i])
        if i + 1 < n:
            q[i, i + 1] = lam[i]
        if i - 1 >= 0:
            q[i, i - 1] = mu[i]
    return q


def uniformized_transition_matrix(spec, t):
    """exp(tQ) on interior states via uniformization.

    Writes Q = Lam (A - I) with A = I + Q/Lam substochastic and
    nonnegative, then sums the Poisson-weighted powers
    sum_n e^(-Lam t) (Lam t)^n / n! A^n until the Poisson weight drops
    below _POISSON_TOL past the mode.  Every term is nonnegative, so there
    is no cancellation: this is the reference route for transition
    probabilities.  t must be nonnegative and finite (NaN and inf are
    refused here, before they reach the term count).
    """
    if not 0 <= t < math.inf:
        raise ValueError(f"t: must be nonnegative and finite, got {t}")
    n = spec.n_states
    q = interior_rate_matrix(spec)
    rate = float(np.max(spec.lam_array() + spec.mu_array()))
    if rate == 0.0 or t == 0.0:
        return np.eye(n)
    a = np.eye(n) + q / rate
    x = rate * t
    n_max = int(math.ceil(x + 12.0 * math.sqrt(x + 1.0) + 25.0))
    out = np.zeros((n, n))
    power = np.eye(n)
    w = math.exp(-x)
    out += w * power
    for k in range(1, n_max + 1):
        power = power @ a
        w *= x / k
        out += w * power
        if w < _POISSON_TOL and k > x:
            break
    return out


def bessel_i1(z):
    """Modified Bessel I_1 by its ascending series (all-positive terms)."""
    z = float(z)
    half = z / 2.0
    term = half  # m = 0 term: (z/2)^1 / (0! 1!)
    acc = term
    for m in range(1, 400):
        term *= half * half / (m * (m + 1))
        acc += term
        if term < 1e-18 * acc:
            break
    return acc


def rw_hitting_density_closed_form(kappa, t):
    """Hitting density from state 1 of the symmetric walk: e^(-2kt) I_1(2kt)/t."""
    if t <= 0:
        raise ValueError(f"t: must be positive, got {t}")
    kappa = float(kappa)
    z = 2.0 * kappa * t
    return math.exp(-z) * bessel_i1(z) / t


def chebyshev_u_coeff(i, j):
    """Coefficient of x^j in the second-kind Chebyshev polynomial U_i.

    Closed parity form: zero unless i and j have equal parity, otherwise
    a signed binomial times 2^j.
    """
    if i < 0 or j < 0 or j > i or (i - j) % 2:
        return 0
    if i % 2 == 0:
        n, k = i // 2, j // 2
        return (-1) ** (n - k) * math.comb(n + k, n - k) * 2**j
    n, k = (i - 1) // 2, (j - 1) // 2
    return (-1) ** (n - k) * math.comb(n + k + 1, n - k) * 2**j


def rw_cmatrix_closed_form(kappa, max_index):
    """Exact C(i,j) rows for the symmetric walk with rate ``kappa``.

    Expands psi_theta(i) = U_{i-1}(1 + theta/(2 kappa)) / kappa in powers
    of theta:

        C(i,j) = (1 / (2^(j-1) kappa^j)) * sum_{l=j..i} binom(l-1, j-1) u(i-1, l-1)

    with u(.,.) the Chebyshev coefficients above.  Requires an exact
    ``kappa``; returns rows shaped like CMatrix.rows (column 0 included).
    """
    kap = Fraction(kappa)
    rows = [(Fraction(0),)]
    for i in range(1, max_index + 1):
        row = [Fraction(0)]
        for j in range(1, i + 1):
            total = sum(
                math.comb(l - 1, j - 1) * chebyshev_u_coeff(i - 1, l - 1) for l in range(j, i + 1)
            )
            row.append(Fraction(total) / (2 ** (j - 1) * kap**j))
        rows.append(tuple(row))
    return tuple(rows)


def passage_identities(spec, theta):
    """Two O(N) checks of a finite chain's atoms theta that read no eigenvector.

    The passage time from N to 0 is a sum of independent exponentials with
    rates theta_k (Keilson 1979; Fill 2009), so

        (a) sum_k log theta_k = sum_i log mu_i  (prod theta = det -T = prod mu),
        (b) sum_k 1/theta_k = E_N[T_0] = sum_m R_m / mu_m,
            R_m = 1 + (lambda_m / mu_{m+1}) R_{m+1},  R_N = 1.

    Returns (a)'s difference sum log theta - sum log mu and (b)'s relative
    defect |sum 1/theta - sum R/mu| / sum R/mu.  Every term of (b) is
    positive, so its float sums are accurate; where 1/theta_min dominates
    the sum, (b) checks theta_min to about its own defect.  R overflows on
    strongly upward-drifted chains (the (2, 1) walk from N = 1024).  An
    atom that is not positive and finite is refused by index (an atom that
    underflowed to 0.0 too); a missing atom is not, and shows in (a).
    """
    theta = np.asarray(theta, dtype=float)
    bad = np.flatnonzero(~((theta > 0) & (theta < math.inf)))
    if len(bad):
        k = int(bad[0])
        raise ValueError(f"theta[{k}]: must be positive and finite, got {theta[k]}")
    lam = spec.lam_array()
    mu = spec.mu_array()
    log_defect = math.fsum(np.log(theta)) - math.fsum(np.log(mu))
    r = 1.0
    terms = [r / mu[-1]]
    for m in range(len(mu) - 2, -1, -1):
        r = 1.0 + lam[m] / mu[m + 1] * r
        terms.append(r / mu[m])
    mean = math.fsum(terms)
    return log_defect, abs(math.fsum(1.0 / theta) - mean) / mean
