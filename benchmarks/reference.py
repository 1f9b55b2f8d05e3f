"""Independent reference values for checking the CLI's outputs.

Nothing here imports bdhit: every value comes from a route the program
does not use, so a wrong spectral computation cannot agree with itself.

- transition probabilities, densities and the hitting-time CDF:
  uniformization applied to a vector (a Poisson-weighted sum of
  nonnegative matrix-vector powers);
- the symmetric walk: closed-form atoms, the Bessel hitting density and
  the binomial closed form of its C-matrix;
- C-matrices of exact chains: the column recursion checked in rationals;
- spectra of general chains: LAPACK bisection (stebz) on the symmetrized
  tridiagonal;
- mean hitting times and mean jump counts: one tridiagonal solve each.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal, solve_banded
from scipy.special import gammaln, ive


def rates(spec_doc):
    """(lam, mu) float arrays from a spec document {"N", "lambda", "mu"}."""
    lam = np.array([float(Fraction(str(r))) for r in spec_doc["lambda"]])
    mu = np.array([float(Fraction(str(r))) for r in spec_doc["mu"]])
    return lam, mu


def _apply_q(lam, mu, v):
    """(Q v) on interior states for column vectors v, shape (N, m)."""
    out = -(lam + mu)[:, None] * v
    out[:-1] += lam[:-1, None] * v[1:]
    out[1:] += mu[1:, None] * v[:-1]
    return out


def _uniformized(lam, mu, v, t):
    """exp(tQ) v for column vectors v, shape (N, m), at each t: shape (len(t), N, m).

    Uniformization: with A = I + Q / L nonnegative,
    exp(tQ) v = sum_n Pois(n; L t) A^n v.
    """
    t = np.asarray(t, dtype=float)
    big = float(np.max(lam + mu))
    x_max = big * float(np.max(t))
    n_max = int(math.ceil(x_max + 12.0 * math.sqrt(x_max + 1.0) + 30.0))
    powers = np.empty((n_max + 1, *v.shape))
    powers[0] = v
    for k in range(1, n_max + 1):
        v = v + _apply_q(lam, mu, v) / big
        powers[k] = v
    ks = np.arange(n_max + 1)
    out = np.empty((len(t), *v.shape))
    for lo in range(0, len(t), 2048):
        x = big * t[lo : lo + 2048, None]
        with np.errstate(divide="ignore"):
            logw = ks * np.log(x) - x - gammaln(ks + 1.0)
        w = np.exp(np.where(x > 0, logw, np.where(ks == 0, 0.0, -np.inf)))
        out[lo : lo + 2048] = np.einsum("tk,kic->tic", w, powers)
    return out


def transition_columns(lam, mu, cols, t):
    """P_i[X_t = j] for every start i, each target j in cols, each t.

    Returns shape (len(t), N, len(cols)).
    """
    v = np.zeros((len(lam), len(cols)))
    for c, j in enumerate(cols):
        v[j - 1, c] = 1.0
    return _uniformized(lam, mu, v, t)


def _weights(n, start):
    """A start state or a {state: mass} dict as a vector over states 1..n."""
    if not isinstance(start, dict):
        start = {start: 1.0}
    weights = np.zeros(n)
    for s, m in start.items():
        weights[s - 1] = m
    return weights


def hitting_cdf(lam, mu, start, t):
    """P[T_0 <= t] = 1 - nu^T exp(tQ) 1, the survival by uniformizing the ones vector."""
    survival = _uniformized(lam, mu, np.ones((len(lam), 1)), t)[:, :, 0]
    return 1.0 - survival @ _weights(len(lam), start)


def hitting_density(lam, mu, start, t):
    """f(t) = mu_1 P[X_t = 1]; start is a state or a {state: mass} dict."""
    p1 = transition_columns(lam, mu, [1], t)[:, :, 0]
    return mu[0] * (p1 @ _weights(len(lam), start))


def rw_hitting_density(kappa, t):
    """Symmetric walk on the half-line from state 1: e^(-2kt) I_1(2kt) / t."""
    t = np.asarray(t, dtype=float)
    return ive(1, 2.0 * kappa * t) / t


def rw_atoms(kappa, n):
    """Atoms of the rate-kappa walk on 1..N: 2k(1 - cos((2m-1)pi/(2N+1)))."""
    m = np.arange(1, n + 1)
    return 2.0 * kappa * (1.0 - np.cos((2 * m - 1) * math.pi / (2 * n + 1)))


def atoms(lam, mu):
    """Negated eigenvalues of the interior generator, ascending, by bisection."""
    d = lam + mu
    e = np.sqrt(lam[:-1] * mu[1:])
    return np.sort(eigvalsh_tridiagonal(d, e, lapack_driver="stebz"))


def mean_hitting_time(lam, mu, start):
    """E_nu[T_0] from -Q m = 1 (one tridiagonal solve)."""
    n = len(lam)
    ab = np.zeros((3, n))
    ab[0, 1:] = -lam[:-1]
    ab[1] = lam + mu
    ab[2, :-1] = -mu[1:]
    m = solve_banded((1, 1), ab, np.ones(n))
    return math.fsum(mass * m[s - 1] for s, mass in start.items())


def mean_jumps(lam, mu, start):
    """Expected jumps to absorption from {state: mass}, by one tridiagonal solve."""
    n = len(lam)
    up = lam / (lam + mu)
    ab = np.zeros((3, n))
    ab[0, 1:] = -up[:-1]
    ab[1] = 1.0
    ab[2, :-1] = -(1.0 - up[1:])
    m = solve_banded((1, 1), ab, np.ones(n))
    return math.fsum(mass * m[s - 1] for s, mass in start.items())


def rw_cmatrix_row(kappa, i):
    """Row i of the walk's C-matrix, exactly: C(i, j) = binom(i+j-1, 2j-1) / kappa^j.

    From psi_theta(i) = U_{i-1}(1 + theta/(2 kappa)) / kappa and
    U_n(1 + y) = sum_k 2^k binom(n+k+1, 2k+1) y^k.
    """
    kappa = Fraction(kappa)
    return [Fraction(0)] + [
        Fraction(math.comb(i + j - 1, 2 * j - 1)) / kappa**j for j in range(1, i + 1)
    ]


def column_recursion_defect(lam, mu, rows):
    """Exact max |Q C_j - C_{j-1}| on states 1..m-1 plus |C(1,1) - 1/mu_1|.

    Zero for the C-matrix and only for it: the recursion fixes every
    entry once C(1,1) is fixed.  lam, mu and rows hold Fractions.
    """
    m = len(rows) - 1

    def c(i, j):
        return rows[i][j] if j <= i else Fraction(0)

    worst = abs(rows[1][1] - 1 / mu[0])
    for j in range(1, m + 1):
        for i in range(1, m):
            qc = mu[i - 1] * c(i - 1, j) - (lam[i - 1] + mu[i - 1]) * c(i, j) + lam[i - 1] * c(i + 1, j)
            worst = max(worst, abs(qc - c(i, j - 1)))
    return worst


def cmatrix_float(lam, mu, max_index):
    """Float C-matrix rows 0..max_index by the forward recursion in state."""
    rows = [[0.0], [0.0, 1.0 / mu[0]]]
    for i in range(1, max_index):
        prev, cur = rows[i - 1], rows[i]
        new = [0.0]
        for j in range(1, i + 2):
            a = cur[j - 1] if j - 1 < len(cur) else 0.0
            b = prev[j] if j < len(prev) else 0.0
            c = cur[j] if j < len(cur) else 0.0
            new.append((a - mu[i - 1] * b + (lam[i - 1] + mu[i - 1]) * c) / lam[i - 1])
        rows.append(new)
    return rows
