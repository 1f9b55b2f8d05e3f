"""Spectral representations of absorbed birth-and-death chains.

A chain's spectral representation is one DensityEvaluator: atoms theta_k,
weights w_k, the eigenfunctions psi_k(i), read per state on demand, and
the C-matrix, which carries the chain and its speed measure.  Finite
chains get it from finite_spectrum: an exact discrete spectrum from the
bidiagonal factor of the negated symmetrized generator, whose singular
values square to the atoms with high relative accuracy, however small.
They come from LAPACK's dqds routine dlasq1, which _lapack takes from
the OpenBLAS numpy links, or from scipy's bundled LAPACK if that one
lacks it.  The weights come from one pass of the psi recurrence over the
states, which keeps no psi row, so the spectrum path holds O(N) memory
and no N x N array; a read of psi, at one state or at all of them, runs
the recurrence of the evaluator's own chain again, in one pass from
state 1.  The constant-rate
symmetric walk has a closed-form continuous spectral density;
densities.rw_evaluator discretizes it by a trigonometric quadrature rule
that is exact on the eigenfunction products it is used for, into the
same DensityEvaluator.  A Stieltjes-ratio identity for the same walk
serves as an independent cross-check of the whole spectral setup.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._lapack import dlasq1
from .cmatrix import CMatrix, eval_psi_theta
from .model import _as_int, _as_real

__all__ = [
    "DensityEvaluator",
    "finite_spectrum",
    "orthogonality_defect",
    "stieltjes_check",
]


@dataclass(frozen=True)
class DensityEvaluator:
    """A chain's one spectral representation: atoms, weights, psi, C-matrix.

    theta and weights are the atoms theta_k and weights w_k of the
    spectral measure: the exact discrete spectrum of a finite chain
    (theta ascending and positive), or the nodes and weights of
    rw_evaluator's quadrature rule for the symmetric walk, whose
    closed-form eigenfunctions at the nodes psi_table holds (row i - 1
    for state i; is_continuous is whether there is a table).  psi_stream
    and psi_at read the eigenfunctions psi_k(i) = psi_{-theta_k}(i) at
    interior states: for a finite chain by the recurrence of its own
    chain at -theta, from state 1 and only as deep as the deepest state
    read, so it holds O(N) memory, not an N x N table; for the walk as
    rows of its table.  c carries the rows of the C-matrix, so the
    differential-operator coefficients are at hand, and is the one
    holder of the chain (spec) and its speed measure (pi, as floats over
    the same states as psi).
    """

    theta: np.ndarray
    weights: np.ndarray
    c: CMatrix = field(repr=False)
    psi_table: np.ndarray | None = field(default=None, repr=False)

    @property
    def spec(self):
        return self.c.spec

    @property
    def pi(self):
        return self.c.pi.array()

    @property
    def n_states(self):
        return self.c.spec.n_states

    @property
    def n_atoms(self):
        return len(self.theta)

    @property
    def is_continuous(self):
        return self.psi_table is not None

    def psi_stream(self, states):
        """Yield the row psi_k(i) over the atoms for each i of the ascending states.

        All rows come from one pass over the states, which stops at the
        last one: for a finite chain one _psi_rows walk of its chain at
        -theta.  A yielded row is read-only and is valid until the next
        one is drawn.
        """
        table = self.psi_table
        rows = enumerate(_psi_rows(self.spec, -self.theta) if table is None else table, start=1)
        for i in states:
            for state, row in rows:
                if state == i:
                    break
            yield row

    def psi_at(self, states):
        """psi_k(i) for each interior state i in states: shape (atoms, len(states)).

        Column m is psi at states[m], in any order; a state that is not
        an integer in 1..n_states is refused.
        """
        for i in states:
            _as_int(i, "state", 1, self.n_states)
        order = sorted(set(states))
        out = np.empty((len(order), self.n_atoms))
        for m, row in enumerate(self.psi_stream(order)):
            out[m] = row
        return out[np.searchsorted(order, states)].T


def _psi_rows(spec, theta):
    """Yield the rows psi_theta(i) over the thetas, state by state up to N.

    The defining three-term recurrence (the C-matrix row polynomials
    psi_theta(i) = sum_j C(i,j) theta^(j-1) in their numerically stable
    form):

        psi(0) = 0,  psi(1) = 1/mu_1,
        lambda_i psi(i+1) = (lambda_i + mu_i + theta) psi(i) - mu_i psi(i-1).

    The walk yields states 1..N, and a step is taken only when its row
    is drawn, so a caller that needs fewer states stops drawing.  Every
    row advances as one numpy vector through exactly the floating-point
    operations of the scalar recurrence for its theta alone, in the same
    order, so every value is bit-identical to that scalar run.  The walk
    works in three reused buffers: a yielded row is overwritten two steps
    later, so a caller that keeps it copies it.  This is the only
    evaluator of the recurrence.
    """
    lam = spec.lam_array()
    mu = spec.mu_array()
    prev, cur, nxt = (np.zeros(theta.size) for _ in range(3))
    cur.fill(1.0 / mu[0])
    yield cur
    diag = (lam + mu).tolist()
    lam = lam.tolist()
    mu = mu.tolist()
    for i in range(1, spec.n_states):
        np.add(diag[i - 1], theta, out=nxt)
        nxt *= cur
        np.multiply(mu[i - 1], prev, out=prev)
        nxt -= prev
        nxt /= lam[i - 1]
        prev, cur, nxt = cur, nxt, prev
        yield cur


def _check_balance(spec, pi):
    """Refuse float weights pi that do not symmetrize the interior generator.

    Conjugating Q by diag(sqrt(pi)) must give a symmetric matrix with
    off-diagonal sqrt(lambda_i mu_{i+1}); any mismatch means pi does not
    balance the rates.  Only the 2(N-1) off-diagonal entries can differ
    (the conjugation leaves the diagonal and the zeros alone), so they are
    compared directly in O(N), with no dense matrix:
    sqrt(pi_i) lambda_i / sqrt(pi_{i+1}) and sqrt(pi_{i+1}) mu_{i+1} / sqrt(pi_i)
    against sqrt(lambda_i mu_{i+1}).
    """
    lam = spec.lam_array()
    mu = spec.mu_array()
    e = np.sqrt(lam[:-1]) * np.sqrt(mu[1:])  # the product itself can leave float range
    root = np.sqrt(pi)
    upper = root[:-1] * lam[:-1] / root[1:]
    lower = root[1:] * mu[1:] / root[:-1]
    defect = max(
        np.max(np.abs(upper - e), initial=0.0), np.max(np.abs(lower - e), initial=0.0)
    )
    scale = max(np.max(lam + mu), np.max(e, initial=0.0))
    if defect > 1e-10 * scale:
        raise ValueError(
            f"pi: does not symmetrize the generator (entrywise defect {defect:g})"
        )


def _bidiagonal_singular_values(diag, sup):
    """Singular values, descending, of the upper bidiagonal (diag, sup).

    dqds computes every singular value to high relative accuracy, so an
    exponentially small one keeps its leading digits.
    """
    d = np.array(diag, dtype=float)
    e = np.zeros(len(d))
    e[: len(d) - 1] = sup
    info = dlasq1(d, e)
    if info != 0:
        raise ValueError(f"bidiagonal SVD failed (dlasq1 info = {info})")
    return d


def finite_spectrum(c):
    """Spectral representation (a DensityEvaluator) of the finite chain c.spec.

    theta_k are the negated eigenvalues of the interior generator.  Its
    Jacobi symmetrization T factors as -T = B B^T, with B upper bidiagonal
    (diagonal sqrt(mu_i), superdiagonal -sqrt(lambda_i)) formed from the
    rates without subtraction, so theta_k = sigma_k(B)^2.  The singular
    values come from dqds, which is accurate to a small multiple of the
    unit roundoff relative to each value: exponentially small atoms of
    drifted chains keep their digits, where a tridiagonal eigensolver is
    only accurate to eps * ||T|| absolutely.  The weights are

        w_k = 1 / sum_i pi_i psi_{-theta_k}(i)^2

    with psi normalized by psi(1) = 1/mu_1 = C(1,1), which removes any
    eigenvector-scaling ambiguity.  One recurrence walk over the states,
    vectorized across the atoms, adds pi_i psi_k(i)^2 to the sums state by
    state, in the order (and so with the bits) of a reduction over the
    whole (states x atoms) table, and keeps no row.  psi is recomputed
    when read, with the bits of this walk, by one walk from state 1 per
    read however many states it covers (DensityEvaluator.psi_stream,
    which spectral_sum and psi_at read through), so no N x N array is
    built.  The speed measure is c.pi.array(), the one float copy of
    c.pi; the O(N) balance check refuses one that does not symmetrize
    the rates.  The recurrence values are cross-checked
    against Horner evaluation of the rows of c on a low state, the deepest
    up to 10 whose C row is finite (the two must agree, a nan included:
    same polynomials).  A weight sum that is 0 or not finite,
    or whose reciprocal is not, is refused naming the first such atom: the
    weights scale as the rates squared, so the walk with kappa = 1e200 or
    1e-200 has none in float range, and a deep recurrence that overflows
    (random chains from N of about 500) gives sums of inf or nan.
    """
    spec = c.spec
    pia = c.pi.array()
    _check_balance(spec, pia)
    lam = spec.lam_array()
    sigma = _bidiagonal_singular_values(np.sqrt(spec.mu_array()), -np.sqrt(lam[:-1]))
    theta = np.sort(sigma * sigma)
    if theta[0] <= 0:
        raise ValueError(
            f"internal error: nonpositive spectral atom {theta[0]!r} for an absorbed chain"
        )
    total = np.zeros(theta.size)
    term = np.empty(theta.size)
    # a sum that overflows, or a psi value that does, is refused below
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for i, row in enumerate(_psi_rows(spec, -theta)):
            np.multiply(row, pia[i], out=term)
            term *= row
            total += term
        weights = 1.0 / total
    bad = np.flatnonzero(~(np.isfinite(total) & np.isfinite(weights)))
    if bad.size:
        k = int(bad[0])
        raise ValueError(
            f"weights: leave float range at atom {k} of {theta.size} "
            f"(theta = {theta[k]:g}, weight = 1/{total[k]:g})"
        )
    ev = DensityEvaluator(theta, weights, c)
    # the deepest low state whose C row is finite (exact rows always are):
    # a row holding inf or nan gives a nan Horner value, refused below
    i_chk = min(c.max_index, 10)
    while not c.rational and i_chk > 1 and not all(map(math.isfinite, c.rows[i_chk])):
        i_chk -= 1
    rec = ev.psi_at((i_chk,))[:, 0]
    for k in (0, len(theta) - 1):
        horner = float(eval_psi_theta(c, i_chk, -theta[k]))
        if not abs(horner - rec[k]) <= 1e-7 * max(1.0, abs(rec[k])):
            raise ValueError(
                "internal error: C-matrix row and recurrence disagree "
                f"at state {i_chk} (|{horner:g} - {rec[k]:g}|)"
            )
    return ev


def orthogonality_defect(ev, i, j):
    """| sum_k w_k psi_k(i) psi_k(j)  -  delta_ij / pi_j |, from ev alone.

    Reads psi at i and j and the speed measure from the evaluator itself
    (psi_at), so no table is built: for a finite chain one walk up to
    max(i, j) gives the recurrence values the weights came from (Horner
    summation of the C-matrix rows cancels catastrophically for states
    around 10; the row-vs-recurrence agreement is enforced separately in
    finite_spectrum and verify_columns), for the walk the closed form on
    the quadrature nodes, where pi_j = 1.
    """
    _as_int(i, "state i", 1, ev.n_states)
    _as_int(j, "state j", 1, ev.n_states)
    psi_i, psi_j = ev.psi_at((i, j)).T
    acc = math.fsum(ev.weights * psi_i * psi_j)
    target = 1.0 / float(ev.pi[j - 1]) if i == j else 0.0
    return abs(acc - target)


def stieltjes_check(spec, theta, i_max):
    """Ratio of Neumann to Dirichlet forward differences vs its closed form.

    For the constant-rate pattern (lambda_i = mu_i = kappa) the two
    solutions of Q u = theta u with u(0) = 0, u(1) = 1/kappa (Dirichlet
    psi) and u(0) = u(1) = 1 (Neumann phi) have forward-difference ratio

        phi+(i) / psi+(i)  ->  2 kappa theta / (theta + sqrt(theta^2 + 4 kappa theta))

    as i grows.  Both solutions blow up geometrically, so the recurrence
    renormalizes as it goes; the ratio is scale-invariant.  Only the rates
    of spec are read, to confirm the pattern and take kappa.  Returns
    (numeric_ratio_at_i_max, closed_form).
    """
    theta = _as_real(theta, "theta", "positive")
    i_max = _as_int(i_max, "i_max", 1)
    kappa = float(spec.mu[0])
    lam = spec.lam_array()
    mu = spec.mu_array()
    interior = lam[:-1]
    if interior.size and (
        np.max(np.abs(interior - kappa)) > 1e-12 * kappa
        or np.max(np.abs(mu - kappa)) > 1e-12 * kappa
    ):
        raise ValueError(
            "spec: the Stieltjes ratio check needs the constant-rate symmetric "
            "pattern lambda_i = mu_i = kappa"
        )
    # pairs (value at i, value at i+1), advanced jointly and renormalized
    psi_a, psi_b = 0.0, 1.0 / kappa
    phi_a, phi_b = 1.0, 1.0
    coef = (2.0 * kappa + theta) / kappa
    for _ in range(1, i_max + 1):
        psi_c = coef * psi_b - psi_a
        phi_c = coef * phi_b - phi_a
        scale = max(abs(psi_c), abs(phi_c))
        if scale > 1e200:
            inv = 1.0 / scale
            psi_b *= inv
            psi_c *= inv
            phi_b *= inv
            phi_c *= inv
        psi_a, psi_b = psi_b, psi_c
        phi_a, phi_b = phi_b, phi_c
    numeric = (phi_b - phi_a) / (psi_b - psi_a)
    closed = 2.0 * kappa * theta / (theta + math.sqrt(theta * theta + 4.0 * kappa * theta))
    return numeric, closed
