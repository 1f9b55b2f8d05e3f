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
float mode must be requested explicitly.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .model import (
    ProcessSpec,
    ScaleFunction,
    SpeedMeasure,
    build_scale_function,
    build_speed_measure,
)

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
    its speed measure and scale function ride along: they are the one
    copy of each that downstream consumers (spectra, orthogonality and
    column checks, evaluators) read, so none of them takes its own.
    """

    rows: tuple
    rational: bool
    spec: ProcessSpec = field(repr=False)
    pi: SpeedMeasure = field(repr=False)
    s: ScaleFunction = field(repr=False)

    @classmethod
    def from_rows(cls, rows, rational, spec):
        """C-matrix of these rows for spec, with spec's speed measure and scale function.

        The one place a C-matrix's pi and s are built.
        """
        pi = build_speed_measure(spec)
        return cls(rows, rational, spec, pi, build_scale_function(spec, pi))

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
    speed measure and scale function (CMatrix.from_rows).

    Parameters
    ----------
    max_index : last row to build.  Rows beyond n_states need the zero top
        birth rate as a divisor and cannot exist; the build truncates there
        with a warning.
    rational : force exact (True) or float (False) arithmetic.  Default is
        exact when the chain's rates are exact.
    """
    if max_index < 1:
        raise ValueError(f"max_index: must be >= 1, got {max_index}")
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

    if rational:
        lam = [Fraction(x) for x in spec.lam]
        mu = [Fraction(x) for x in spec.mu]
        zero = Fraction(0)
    else:
        lam = [float(x) for x in spec.lam]
        mu = [float(x) for x in spec.mu]
        zero = 0.0

    rows = [(zero,), (zero, (zero + 1) / mu[0])]
    for i in range(1, max_index):
        prev, cur = rows[i - 1], rows[i]

        def at(row, j):
            return row[j] if j < len(row) else zero

        new = [zero]
        for j in range(1, i + 2):
            num = at(cur, j - 1) - mu[i - 1] * at(prev, j) + (lam[i - 1] + mu[i - 1]) * at(cur, j)
            new.append(num / lam[i - 1])
        rows.append(tuple(new))
    return CMatrix.from_rows(tuple(rows), rational, spec)


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
