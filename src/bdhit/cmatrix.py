"""The C-matrix of generalized harmonic columns and its eigenpolynomials.

Column j of C solves Q C_j = C_{j-1} with C_0 = 0 and C_1 = s (the scale
function), so C_j is a rank-j generalized kernel vector of the generator.
Row i carries polynomial coefficients: psi_theta(i) = sum_j C(i,j)
theta^(j-1) satisfies Q psi_theta = theta psi_theta with psi_theta(0) = 0
and D_s psi_theta(0) = 1.  Row j also defines the differential operator
sum_k C(j,k) d^(k-1)/dt^(k-1) used to turn hitting densities back into
occupation probabilities.

Entries grow combinatorially and the recursion alternates signs, so exact
rational arithmetic is the default whenever the chain's rates are exact;
float mode must be requested explicitly.  Exact rows are built on integers:
over the lcm L of the rate denominators, row i is a vector of integer
numerators over one denominator, and each entry becomes a Fraction once,
so the build takes no gcd per arithmetic step (the fraction-free idea of
Bareiss, 1968).
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .model import ProcessSpec, SpeedMeasure, _as_int, build_scale_function, build_speed_measure

__all__ = [
    "CMatrix",
    "build_c_matrix",
    "eval_psi_theta",
    "diff_operator_coeffs",
    "verify_columns",
]


@dataclass(frozen=True)
class CMatrix:
    """Lower-triangular entries C(i,j), 0 <= j <= i <= max_index.

    ``rows[i]`` holds (C(i,0), ..., C(i,i)); entries above the diagonal
    are identically zero and are not stored.  The originating chain and
    its speed measure ride along, and its scale function is built from
    them on first read: they are the one copy of each that downstream
    consumers (spectra, orthogonality and column checks, evaluators)
    read, so none of them takes its own.
    """

    rows: tuple
    rational: bool
    spec: ProcessSpec = field(repr=False)
    pi: SpeedMeasure = field(repr=False)

    @classmethod
    def from_rows(cls, rows, rational, spec):
        """C-matrix of these rows for spec, with spec's speed measure.

        The one place a C-matrix's pi is built; s follows from it.
        """
        return cls(rows, rational, spec, build_speed_measure(spec))

    @functools.cached_property
    def s(self):
        """The scale function of spec, built from pi on first read.

        Only the verify battery reads it, so a spectrum never builds it.
        It is no field: equality and hashing see (rows, rational, spec,
        pi), of which s is a function.
        """
        return build_scale_function(self.spec, self.pi)

    @property
    def max_index(self):
        return len(self.rows) - 1

    def value(self, i, j):
        """C(i,j) with the implicit zeros above the diagonal filled in."""
        if not (0 <= i <= self.max_index) or j < 0:
            raise IndexError(f"C({i},{j}): row out of range 0..{self.max_index}")
        if j > i:
            return Fraction(0) if self.rational else 0.0
        return self.rows[i][j]

    def as_array(self):
        """Dense float copy, shape (max_index+1, max_index+1)."""
        m = self.max_index + 1
        out = np.zeros((m, m))
        for i, row in enumerate(self.rows):
            out[i, : i + 1] = [float(v) for v in row]
        return out


def build_c_matrix(spec, max_index, rational=None):
    """Build rows 0..max_index of the C-matrix of spec by the forward recursion.

    C(i+1, j) = (C(i, j-1) - mu_i C(i-1, j) + (lambda_i + mu_i) C(i, j)) / lambda_i

    seeded by C(1,1) = s(1) = 1/mu_1, with ghost zeros in column 0 and row
    0.  The j = 1 case of the same recursion regenerates the scale
    function, so one loop fills every column.  The result carries spec's
    speed measure (CMatrix.from_rows) and builds the scale function on
    first read of its s.

    In exact mode the same recursion runs on integers: with L the lcm of
    the rate denominators, lambda_i = a_i / L and mu_i = b_i / L, and
    C(i,j) = N(i,j) L^j / E_i over the row denominator E_i = b_1 a_1 ...
    a_{i-1}, where

    N(i+1, j) = N(i, j-1) + (a_i + b_i) N(i, j) - b_i a_{i-1} N(i-1, j).

    Each entry is then one Fraction(N(i,j) L^j, E_i), equal to what the
    Fraction recursion gives.  Float mode runs the recursion as written.

    Parameters
    ----------
    max_index : last row to build, an integer (bool excluded) >= 1.  Rows
        beyond n_states need the zero top birth rate as a divisor and
        cannot exist; the build truncates there with a warning.
    rational : force exact (True) or float (False) arithmetic.  Default is
        exact when the chain's rates are exact.
    """
    max_index = _as_int(max_index, "max_index", 1)
    if rational is None:
        rational = spec.is_rational
    if rational and not spec.is_rational:
        raise ValueError("rational mode requires exact (int or Fraction) rates")
    n = spec.n_states
    if max_index > n:
        warnings.warn(
            f"C-matrix rows beyond {n} are not constructible (lambda_{n} = 0); "
            f"truncating the requested max_index {max_index} to {n}",
            stacklevel=2,
        )
        max_index = n

    rows = _rational_rows(spec, max_index) if rational else _float_rows(spec, max_index)
    return CMatrix.from_rows(rows, rational, spec)


def _rational_rows(spec, max_index):
    """Exact rows 0..max_index by the integer recursion of build_c_matrix.

    The numerators start from N(0, .) = 0 and N(1, 1) = 1 (E_1 = b_1), and
    each entry is normalized once, where Fraction arithmetic would take a
    gcd on every operation.
    """
    lam = [Fraction(x) for x in spec.lam[:max_index]]
    mu = [Fraction(x) for x in spec.mu[:max_index]]
    scale = math.lcm(*(x.denominator for x in lam + mu))
    a = [x.numerator * (scale // x.denominator) for x in lam]
    b = [x.numerator * (scale // x.denominator) for x in mu]
    powers = [scale**j for j in range(max_index + 1)]
    zero = Fraction(0)
    rows = [(zero,), (zero, Fraction(scale, b[0]))]
    prev, cur, denom = [0], [0, 1], b[0]  # N(0, .), N(1, .), E_1
    for i in range(1, max_index):
        ai, bi = a[i - 1], b[i - 1]
        back = bi * a[i - 2] if i > 1 else 0  # N(0, .) = 0 for i = 1
        prev = prev + [0, 0]
        cur = cur + [0]
        nxt = [0] + [cur[j - 1] + (ai + bi) * cur[j] - back * prev[j] for j in range(1, i + 2)]
        denom *= ai
        rows.append((zero,) + tuple(Fraction(nxt[j] * powers[j], denom) for j in range(1, i + 2)))
        prev, cur = cur, nxt
    return tuple(rows)


def _float_rows(spec, max_index):
    """Float rows 0..max_index by the forward recurrence of build_c_matrix."""
    lam = [float(x) for x in spec.lam]
    mu = [float(x) for x in spec.mu]
    rows = [(0.0,), (0.0, 1.0 / mu[0])]
    for i in range(1, max_index):
        lam_i, mu_i = lam[i - 1], mu[i - 1]
        prev = rows[i - 1] + (0.0, 0.0)
        cur = rows[i] + (0.0,)
        new = [0.0]
        for j in range(1, i + 2):
            num = cur[j - 1] - mu_i * prev[j] + (lam_i + mu_i) * cur[j]
            new.append(num / lam_i)
        rows.append(tuple(new))
    return tuple(rows)


def eval_psi_theta(c, i, theta):
    """Evaluate psi_theta(i) = sum_j C(i,j) theta^(j-1) by Horner's rule.

    Exact when both the matrix and theta are rational.  For i = 0 the
    value is 0 (the Dirichlet boundary condition).
    """
    if not (0 <= i <= c.max_index):
        raise IndexError(f"state {i}: C-matrix has rows 0..{c.max_index}")
    if i == 0:
        return Fraction(0) if c.rational else 0.0
    row = c.rows[i]
    acc = row[i]
    for j in range(i - 1, 0, -1):
        acc = acc * theta + row[j]
    return acc


def diff_operator_coeffs(c, j):
    """Coefficients (C(j,1), ..., C(j,j)); entry k multiplies d^(k-1)/dt^(k-1)."""
    if not (1 <= j <= c.max_index):
        raise IndexError(f"state {j}: C-matrix has rows 1..{c.max_index}")
    return tuple(c.rows[j][1 : j + 1])


def verify_columns(c):
    """Max defect of Q C_j = C_{j-1} over all checkable entries, Q from c.spec.

    The check runs on interior states 1..max_index-1, where applying Q to
    a stored column never reaches past the last built row.  Exact zero in
    rational mode.
    """
    m = c.max_index
    if m < 2:
        return 0.0
    spec = c.spec
    worst = 0.0
    for j in range(1, m + 1):
        col = [c.value(i, j) for i in range(m + 1)]
        for i in range(1, m):
            lam_i, mu_i = spec.lam[i - 1], spec.mu[i - 1]
            qc = mu_i * col[i - 1] - (lam_i + mu_i) * col[i] + lam_i * col[i + 1]
            worst = max(worst, abs(float(qc - c.value(i, j - 1))))
    return worst
