"""Doob transforms by positive eigenfunctions vanishing nowhere inside.

A function k > 0 with Q k = gamma k on the interior (k(0) = 1) turns the
chain into a new birth-and-death chain:

    lambda'_i = lambda_i k(i+1)/k(i),   mu'_i = mu_i k(i-1)/k(i),

whose semigroup is P'_t(x, y) = exp(-gamma t) (k(y)/k(x)) P_t(x, y), whose
hitting density is f'_x(t) = exp(-gamma t) f_x(t) / k(x) and whose spectral
atoms shift by gamma; transformed_evaluator carries the spectral
representation across.  The asymmetric walk (lambda != mu) arises this way
from the symmetric walk with kappa = sqrt(lambda mu) and
gamma = (sqrt(lambda) - sqrt(mu))^2, which is how its hitting density
inherits the Bessel closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cmatrix import CMatrix
from .model import ProcessSpec, _as_real, asymmetric_rw_spec, symmetric_rw_spec
from .spectral import DensityEvaluator

__all__ = [
    "HTransform",
    "rw_alphas",
    "rw_gamma_eigenfunctions",
    "transform_rates",
    "transform_cmatrix",
    "asymmetric_rw",
    "transformed_evaluator",
]


@dataclass(frozen=True)
class HTransform:
    """Eigenfunction data (gamma, k(0..N)) for a base chain; k(0) = 1.

    gamma must be a finite number >= 0 and each k(i) a finite positive
    one; both are stored as given, so exact values keep the transform
    exact.  The eigenvalue equation Q k = gamma k is validated on the
    interior states 1..N-1 at relative tolerance 1e-12 on construction;
    a state whose scale (lambda + mu + gamma) k(i) leaves float range is
    refused, naming it.
    """

    gamma: object
    k_values: tuple
    base: ProcessSpec

    def __post_init__(self):
        n = self.base.n_states
        k = self.k_values
        if len(k) != n + 1:
            raise ValueError(
                f"k_values: expected {n + 1} values k(0..{n}), got {len(k)}"
            )
        for i, v in enumerate(k):
            _as_real(v, f"k_values: k({i})", "positive")
        if float(k[0]) != 1.0:
            raise ValueError(f"k_values: k(0) must be 1, got {k[0]!r}")
        _as_real(self.gamma, "gamma", "nonnegative")
        lam = self.base.lam
        mu = self.base.mu
        g = self.gamma
        for i in range(1, n):
            try:
                resid = lam[i - 1] * k[i + 1] + mu[i - 1] * k[i - 1] - (
                    lam[i - 1] + mu[i - 1] + g
                ) * k[i]
                scale = (lam[i - 1] + mu[i - 1] + g) * k[i]
                # a nan residual, or a scale that overflowed, proves nothing and fails
                ok = abs(resid) <= 1e-12 * float(scale) < math.inf
            except OverflowError:  # an exact term beyond float range became a float
                raise ValueError(
                    f"k_values: at state {i}, the scale (lambda + mu + gamma) k({i}) "
                    "leaves float range"
                ) from None
            if not ok:
                try:
                    shown = f"{float(resid):g}"
                except OverflowError:  # an exact residual far above its scale
                    shown = "beyond float range"
                raise ValueError(
                    f"k_values: Q k = gamma k fails at state {i} "
                    f"(residual {shown} against scale {float(scale):g})"
                )

    @property
    def n_states(self):
        return self.base.n_states

    def k_array(self):
        return np.array([float(v) for v in self.k_values])


def rw_alphas(kappa, gamma):
    """Roots alpha_+- of kappa a^2 - (2 kappa + gamma) a + kappa = 0.

    These are the geometric ratios of the two positive eigenfunctions
    a^i of the constant-rate walk at eigenvalue gamma; alpha_+ alpha_- = 1.
    kappa must be a finite positive number and gamma a finite one >= 0,
    and a gamma so large against kappa that alpha_+ leaves float range is
    refused.
    """
    kappa = _as_real(kappa, "kappa", "positive")
    gamma = _as_real(gamma, "gamma", "nonnegative")
    x = 1.0 + gamma / (2.0 * kappa)
    d = math.sqrt(x * x - 1.0)
    if d == math.inf:  # x * x overflowed, where x itself may not have
        d = math.sqrt(x - 1.0) * math.sqrt(x + 1.0)
    plus = x + d
    if plus == math.inf:
        raise ValueError(
            f"gamma: {gamma} on the kappa = {kappa} walk puts alpha_+ beyond float range"
        )
    # the stable form of x - d: avoids cancellation for large gamma
    minus = 1.0 / plus
    return plus, minus


def rw_gamma_eigenfunctions(kappa, gamma, n_states):
    """Both geometric eigenfunctions k_+-(i) = alpha_+-^i on the walk.

    Returns (ht_plus, ht_minus) as transforms of the rate-kappa walk
    truncated at n_states.  gamma = 0 collapses both to the identity
    (k = 1 exactly).
    """
    base = symmetric_rw_spec(kappa, n_states)
    gamma = _as_real(gamma, "gamma", "nonnegative")
    if gamma == 0:
        ones = (1,) * (n_states + 1)
        ident = HTransform(0, ones, base)
        return ident, ident
    plus, minus = rw_alphas(kappa, gamma)
    try:
        k_plus = tuple(plus**i for i in range(n_states + 1))
    except OverflowError:
        raise ValueError(
            f"gamma: alpha_+^i at gamma = {gamma} on the kappa = {kappa} walk "
            f"leaves float range by state N = {n_states}"
        ) from None
    k_minus = tuple(minus**i for i in range(n_states + 1))
    return HTransform(gamma, k_plus, base), HTransform(gamma, k_minus, base)


def transform_rates(ht):
    """Rates of ht.base transformed by ht; exact when k and the base are exact.

    The top birth rate stays zero: the truncation boundary survives the
    transform untouched.
    """
    base = ht.base
    n = base.n_states
    k = ht.k_values
    lam = base.lam
    mu = base.mu
    new_lam = tuple(
        lam[i - 1] * k[i + 1] / k[i] if i < n else lam[n - 1]
        for i in range(1, n + 1)
    )
    new_mu = tuple(mu[i - 1] * k[i - 1] / k[i] for i in range(1, n + 1))
    return ProcessSpec(new_lam, new_mu)


def transform_cmatrix(c, ht):
    """C-matrix of the transformed chain from the base C-matrix.

    Shifting the spectral variable by gamma and dividing by k gives the
    transformed eigenfunction family; expanding (sigma + gamma)^(l-1)
    binomially produces

        C'(i, j) = (k(1)^2 / k(i)) sum_{l >= j} binom(l-1, j-1) C(i, l) gamma^(l-j).

    The k(1)^2 factor renormalizes from the base chain's unit speed at
    state 1 to the transformed chain's, so this matrix is entrywise equal
    to build_c_matrix applied to transform_rates(ht).  The transformed
    chain, its speed measure and its scale function ride along on it.
    """
    if c.spec != ht.base:
        raise ValueError("ht: eigenfunction belongs to a different base chain")
    rational = c.rational and isinstance(ht.gamma, (int, Fraction)) and all(
        isinstance(v, (int, Fraction)) for v in ht.k_values
    )
    if rational:
        gamma = Fraction(ht.gamma)
        k = [Fraction(v) for v in ht.k_values]
        conv = Fraction
    else:
        gamma = float(ht.gamma)
        k = [float(v) for v in ht.k_values]
        conv = float
    k1sq = k[1] * k[1]
    zero = conv(0)
    rows = [(zero,)]
    for i in range(1, c.max_index + 1):
        base_row = [conv(v) for v in c.rows[i]]
        row = [zero]
        for j in range(1, i + 1):
            acc = zero
            power = conv(1)
            for l in range(j, i + 1):
                acc += math.comb(l - 1, j - 1) * base_row[l] * power
                power *= gamma
            row.append(k1sq * acc / k[i])
        rows.append(tuple(row))
    return CMatrix.from_rows(tuple(rows), rational, transform_rates(ht))


def asymmetric_rw(lam, mu, n_states):
    """Asymmetric walk (constant rates lam up, mu down) plus its h-origin.

    Returns (spec, ht): spec carries the rates directly; ht is the
    transform of the symmetric kappa = sqrt(lam mu) walk by the geometric
    eigenfunction at gamma = (sqrt(lam) - sqrt(mu))^2 that reproduces
    those rates (alpha_+ when lam > mu, alpha_- when lam < mu).
    """
    spec = asymmetric_rw_spec(lam, mu, n_states)
    if lam == mu:
        ht = rw_gamma_eigenfunctions(lam, 0, n_states)[0]
        return spec, ht
    lf = _as_real(lam, "lambda")
    mf = _as_real(mu, "mu")
    kappa = math.sqrt(lf * mf)
    gamma = (math.sqrt(lf) - math.sqrt(mf)) ** 2
    ht_plus, ht_minus = rw_gamma_eigenfunctions(kappa, gamma, n_states)
    ht = ht_plus if lf > mf else ht_minus
    return spec, ht


def transformed_evaluator(ev, ht):
    """Density evaluator for the transformed chain from the base one.

    Atoms shift by gamma and eigenfunctions and weights are rescaled, so
    the result uses the same unit-speed-at-1 convention as an evaluator
    built directly from the transformed rates:

        theta' = theta + gamma,  w' = w / k(1)^2,  psi' = k(1)^2 psi / k.

    psi' needs no copy of the base chain: on states 1..N it is the
    transformed chain's own recurrence at -theta', the walk the result
    reads on demand (psi_at) like any finite evaluator.  The chain and
    its speed measure come with transform_cmatrix's result.
    """
    if ev.is_continuous:
        raise ValueError("transformed_evaluator: needs a finite-chain evaluator")
    c2 = transform_cmatrix(ev.c, ht)  # refuses an ht of another base chain
    k1 = float(ht.k_values[1])
    return DensityEvaluator(ev.theta + float(ht.gamma), ev.weights / k1**2, c2)
