"""Hitting-time densities and transition probabilities via spectral sums.

Everything here reduces to sums over the spectral representation a
DensityEvaluator holds (discrete atoms for a finite chain, quadrature
nodes for the symmetric walk):

    transition:   P_i[X_t = j]   = pi_j sum_k w_k exp(-theta_k t) psi_k(i) psi_k(j)
    hitting:      f_i(t)         =      sum_k w_k exp(-theta_k t) psi_k(i)
    hitting cdf:  P_i[T_0 <= t]  =      sum_k w_k psi_k(i) (1 - exp(-theta_k t)) / theta_k

with psi_k(1) = 1/mu_1, so f_i(t) = mu_1 P_i[X_t = 1].  finite_evaluator
and rw_evaluator build the evaluator for the two cases.  Each sum is
sum_k c_k exp(-theta_k t); one builder checks the start, target and
transform and forms the coefficient rows c, and two kernels take the
exponentials (no other module does, apart from the independent oracles):

- spectral_sum, over an array of t: callers with several times pass them
  together.  It takes exp(-theta t) (expm1 for the CDF) over t-blocks of
  _BLOCK_ENTRIES = 2^17 entries (1 MiB) and reduces each row by numpy's
  pairwise sum over the atoms, so on an array a value never depends on
  the block or on the rest of the array: a one-point call gives the same
  bits as the same t inside a long array.
- _grid_sum, over the evenly spaced grid t_m = a + m h of the density and
  transition commands: with m = I w + J, exp(-theta t_m) is
  exp(-theta (a + I w h)) exp(-theta J h), so about 2 sqrt(n) exponentials
  per atom and one matrix product give all n values.  Its value at t_m is
  for a + m h, which is within rounding of the np.linspace point printed
  beside it.

Both err by order eps sum_k |c_k exp(-theta_k t)|, as any sum of rounded
terms does (Higham, Accuracy and Stability of Numerical Algorithms,
ch. 3-4), but their bits differ.
"""

from __future__ import annotations

import math

import numpy as np

from .cmatrix import build_c_matrix, diff_operator_coeffs
from .model import _as_int, _as_real, symmetric_rw_spec
from .spectral import DensityEvaluator, finite_spectrum

__all__ = [
    "InitialDistribution",
    "finite_evaluator",
    "rw_evaluator",
    "spectral_sum",
    "time_grid",
]

_BLOCK_ENTRIES = 1 << 17  # a kernel's t-by-atoms work array: 1 MiB of float64


class InitialDistribution:
    """Probability masses nu{i} on interior states i >= 1.

    States are integers >= 1; masses are real numbers in (0, 1] that sum
    to 1 within 1e-12.
    """

    __slots__ = ("items",)

    def __init__(self, weights):
        # states are read first, so sorting compares ints only
        pairs = sorted((_as_int(s, "nu state", 1), m) for s, m in dict(weights).items())
        if not pairs:
            raise ValueError("nu: needs at least one state")
        items = tuple((s, _as_real(m, f"nu: mass at state {s}", "positive")) for s, m in pairs)
        for state, mass in items:
            if mass > 1:  # before fsum meets it: 1e308 twice overflows
                raise ValueError(f"nu: mass at state {state}: must be at most 1, got {mass}")
        total = math.fsum(m for _, m in items)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"nu: masses sum to {total!r}, not 1")
        self.items = items

    @property
    def states(self):
        return tuple(s for s, _ in self.items)

    @property
    def max_state(self):
        return self.items[-1][0]

    def mass(self, i):
        for s, m in self.items:
            if s == i:
                return m
        return 0.0

    def _check_support(self, n_states, field="nu"):
        """Refuse the law unless its support lies within states 1..n_states."""
        if self.max_state > n_states:
            raise ValueError(
                f"{field}: support reaches state {self.max_state}, "
                f"chain has {n_states} interior states"
            )

    def as_vector(self, n_states):
        self._check_support(n_states)
        v = np.zeros(n_states)
        for s, m in self.items:
            v[s - 1] = m
        return v

    def __eq__(self, other):
        return isinstance(other, InitialDistribution) and self.items == other.items

    def __repr__(self):
        body = ", ".join(f"{s}: {m:g}" for s, m in self.items)
        return f"InitialDistribution({{{body}}})"


def finite_evaluator(spec, c_rows=None):
    """Full spectral setup for a finite chain: finite_spectrum of its C-matrix.

    c_rows caps how many C-matrix rows are kept (default min(N, 16); the
    rows are only needed up to the largest state one differentiates at).
    Rational C entries are kept when the rates are exact and the matrix is
    small enough for the integer sizes to stay sane.
    """
    n = spec.n_states
    rows = min(n, 16) if c_rows is None else min(_as_int(c_rows, "c_rows", 1), n)
    rational = spec.is_rational and rows <= 24
    return finite_spectrum(build_c_matrix(spec, rows, rational=rational))


def rw_evaluator(kappa, n_nodes=128, n_states=64):
    """Quadrature-backed evaluator for the symmetric walk with rate kappa.

    The walk's spectral density sqrt(theta (4 kappa - theta)) / (2 pi) on
    (0, 4 kappa) becomes (2 kappa^2 / pi) sin^2 u on (0, pi) under
    theta = 2 kappa (1 - cos u).  Its midpoint rule has nodes
    u_m = (m - 1/2) pi / n_nodes and weights (2 kappa^2 / n_nodes) sin^2 u_m,
    of total mass kappa^2, and the eigenfunctions at the nodes are
    psi_m(i) = sin(i u_m) / (kappa sin u_m).  The rule integrates the
    products sin(iu) sin(ju) exactly for i, j <= n_nodes - 1, so the
    evaluator is exact (to rounding) for states below n_nodes.  n_states
    bounds the eigenfunction table and the truncation used for the C rows,
    whose entries do not depend on the truncation level.
    """
    kappa_f = _as_real(kappa, "kappa", "positive")
    n_nodes = _as_int(n_nodes, "n_nodes", 2)
    n_states = _as_int(n_states, "n_states", 1)
    if n_states >= n_nodes:
        raise ValueError(
            f"n_states: must stay below n_nodes for the quadrature to be exact "
            f"({n_states} >= {n_nodes})"
        )
    u = (np.arange(1, n_nodes + 1) - 0.5) * math.pi / n_nodes
    sin_u = np.sin(u)
    theta = 2.0 * kappa_f * (1.0 - np.cos(u))
    weights = (2.0 * kappa_f**2 / n_nodes) * sin_u**2
    psi = np.sin(np.arange(1, n_states + 1)[:, None] * u) / (kappa_f * sin_u)
    c = build_c_matrix(symmetric_rw_spec(kappa, n_states), min(n_states, 16))
    return DensityEvaluator(theta, weights, c, psi)


def _ascending_states(ev, start):
    """The states of the sequence start, refused unless strictly ascending in 1..N."""
    states = tuple(start)
    for i in states:
        _as_int(i, "start state", 1, ev.n_states)
    for i, j in zip(states, states[1:]):
        if j <= i:
            raise ValueError(f"start: states must be strictly ascending, got {j} after {i}")
    return states


def _coefficient_rows(ev, start, target, transform):
    """Check a sum's start, target and transform, as spectral_sum takes them.

    Returns (many, count, rows): many tells whether start is a sequence
    of states, count is the number of rows, and rows yields each row's
    coefficients c_k, one row at a time.
    """
    neg_theta = -ev.theta
    nu = start if isinstance(start, InitialDistribution) else None
    many = nu is None and not isinstance(start, (int, np.integer)) and np.ndim(start) > 0
    if nu is not None:
        nu._check_support(ev.n_states)
        reads = nu.states
    elif many:
        reads = _ascending_states(ev, start)
    else:
        _as_int(start, "state", 1, ev.n_states)
        reads = (start,)
    kind = None
    if target != "absorption":
        try:
            kind, j = () if isinstance(target, str) else target
        except (TypeError, ValueError):
            raise ValueError(
                f"target: expected 'absorption' or a (kind, state) pair, got {target!r}"
            ) from None
        if kind == "state":
            j = _as_int(j, "target state", 1, ev.n_states)
        elif kind == "c_row":
            j = _as_int(j, "target state", 1)
            if j > ev.c.max_index:
                raise ValueError(
                    f"state {j}: evaluator keeps C-matrix rows up to {ev.c.max_index}"
                )
        else:
            raise ValueError(f"target: expected 'state' or 'c_row', got {kind!r}")
    if transform == "cdf":
        if ev.is_continuous:
            raise ValueError(
                "transform 'cdf': needs the discrete spectrum of a finite chain "
                "(the quadrature version loses the 1/theta tail)"
            )
    else:
        transform = _as_int(transform, "transform order", 0)
        power = neg_theta**transform
    if kind == "state":
        factor = next(ev.psi_stream((j,)))
    elif kind == "c_row":
        c_row = [float(v) for v in diff_operator_coeffs(ev.c, j)]
        factor = np.polyval(c_row[::-1], neg_theta)
    rows = ev.psi_stream(reads)
    if nu is not None:
        (_, mass), *rest = nu.items
        coef = mass * next(rows)
        for (_, mass), psi in zip(rest, rows):
            coef += mass * psi
        coef *= ev.weights
        coefs = (coef,)
    else:
        coefs = (ev.weights * psi for psi in rows)

    def finished():
        for coef in coefs:
            if kind is not None:
                coef *= factor
                coef *= ev.pi[j - 1]
            if transform == "cdf":
                coef /= neg_theta
            elif transform:
                coef *= power
            yield coef

    return many, len(reads) if many else 1, finished()


def _check_times(ev, t):
    """Refuse a negative or NaN t, and t = 0 on the continuous spectrum."""
    bad = ~(t >= 0)  # negative or NaN; +inf stays (the CDF there is the total mass)
    if bad.any():
        raise ValueError(f"t: must be nonnegative, got {t[bad][0]}")
    if ev.is_continuous and (t == 0).any():
        raise ValueError("t: the continuous-spectrum evaluator needs t > 0")


def spectral_sum(ev, t, start, target="absorption", transform=0):
    """sum_k w_k exp(-theta_k t) a_k b_k at every t of a 1-D array.

    start: a state i (a_k = psi_k(i)), a strictly ascending sequence of
    states (one such sum per state), or an InitialDistribution nu
    (a_k = sum_i nu{i} psi_k(i)).  target: "absorption" (b_k = 1, the
    density f), ("state", j) (b_k = pi_j psi_k(j), P[X_t = j]) or
    ("c_row", j) (b_k = pi_j sum_m C(j, m) (-theta_k)^(m-1), the row-j
    C-matrix operator applied to f, from the C coefficients).  transform:
    an integer order k >= 0 (a factor (-theta_k)^k, the k-th t-derivative)
    or "cdf" (-expm1(-theta_k t) / theta_k in place of exp(-theta_k t)).
    Any other start, target or transform is refused with a ValueError
    naming it.

    So f_i(t) is spectral_sum(ev, t, i), P_i[X_t = j] is
    spectral_sum(ev, t, i, ("state", j)), P_nu[T_0 <= t] is
    spectral_sum(ev, t, nu, transform="cdf") and the total mass from
    every state is spectral_sum(ev, (inf,), range(1, N + 1), transform="cdf").
    Every t must be nonnegative (NaN is refused); t = inf is allowed,
    where the CDF is the total mass.

    Returns shape (len(t),), or (len(states), len(t)) for a sequence of
    states.  psi at the start states comes from one pass
    (ev.psi_stream), so a call over every state makes one recurrence
    walk, not one per state, and holds one coefficient row at a time,
    never a states x atoms array; psi_j of a ("state", j) target is read
    first, by a pass of its own up to j.  A row's coefficients are
    formed as w psi_i, then times psi_j or the C-row polynomial, then
    pi_j, then over -theta or times (-theta)^k, and reduced by the same
    t-blocked kernel, so every row has the bits of its one-state call.
    """
    many, count, rows = _coefficient_rows(ev, start, target, transform)
    t = np.asarray(t, dtype=float)
    if t.ndim != 1:
        raise ValueError(f"t: expected a one-dimensional array, got shape {t.shape}")
    _check_times(ev, t)
    decay = np.expm1 if transform == "cdf" else np.exp
    neg_theta = -ev.theta
    out = np.empty((count, len(t)))
    step = max(1, _BLOCK_ENTRIES // len(neg_theta))
    work = np.empty((min(step, len(t)), len(neg_theta)))
    for values, coef in zip(out, rows):
        for lo in range(0, len(t), step):
            block = work[: len(t) - lo]
            np.multiply(t[lo : lo + step, None], neg_theta, out=block)
            decay(block, out=block)
            block *= coef
            np.add.reduce(block, axis=-1, out=values[lo : lo + step])
    return out if many else out[0]


def _grid_sum(ev, t_min, t_max, count, start, target="absorption"):
    """spectral_sum(ev, t, start, target) on the evenly spaced grid
    t_m = t_min + m h, m < count, h = (t_max - t_min) / (count - 1).

    start is one state or an InitialDistribution, and target as in
    spectral_sum; the order is 0.  With m = I w + J, J < w,
    exp(-theta t_m) = exp(-theta (t_min + I w h)) exp(-theta J h): the w x
    atoms tail table exp(-theta J h) is built once, each head row I is
    exp(-theta (t_min + I w h)) times the coefficients, and values[I w + J]
    come from one product of the head rows with the tail table.  So the
    count x atoms exponentials of spectral_sum fall to about
    (count / w + w) x atoms, with w = ceil(sqrt(count)) capped so the tail
    table holds at most _BLOCK_ENTRIES; head rows go _BLOCK_ENTRIES // atoms
    at a time.  The error stays in spectral_sum's class,
    eps sum_k |c_k exp(-theta_k t_m)|, but the bits are not its bits.
    """
    _, _, rows = _coefficient_rows(ev, start, target, 0)
    _check_times(ev, np.array([t_min, t_max]))
    (coef,) = rows
    neg_theta = -ev.theta
    h = (t_max - t_min) / (count - 1) if count > 1 else 0.0
    step = max(1, _BLOCK_ENTRIES // len(neg_theta))
    width = min(math.isqrt(count - 1) + 1, step)  # ceil(sqrt(count)), at least 1
    heads = -(-count // width)
    tail = np.multiply.outer(np.arange(width) * h, neg_theta)
    np.exp(tail, out=tail)
    out = np.empty(heads * width)
    work = np.empty((min(step, heads), len(neg_theta)))
    for lo in range(0, heads, step):
        block = work[: heads - lo]
        m = np.arange(lo * width, (lo + len(block)) * width, width)
        np.multiply((m * h + t_min)[:, None], neg_theta, out=block)
        np.exp(block, out=block)
        block *= coef
        np.matmul(block, tail.T, out=out[m[0] : m[-1] + width].reshape(len(block), width))
    return out[:count]


def time_grid(t_min, t_max, count, log=False):
    """Evaluation grid on [t_min, t_max], linear by default, log on request.

    Non-finite bounds are refused, and its points are strictly increasing:
    count > 1 points on equal endpoints, or on endpoints too close to give
    count distinct floats, are refused.
    """
    t_min = _as_real(t_min, "grid: t_min")
    t_max = _as_real(t_max, "grid: t_max")
    count = _as_int(count, "count", 1)
    if t_max < t_min:
        raise ValueError(f"grid: t_max {t_max} below t_min {t_min}")
    if count == 1:
        return np.array([t_min])
    if log:
        if t_min <= 0:
            raise ValueError(f"grid: log spacing needs t_min > 0, got {t_min}")
        grid = np.geomspace(t_min, t_max, count)
    else:
        grid = np.linspace(t_min, t_max, count)
    if not np.all(grid[1:] > grid[:-1]):
        raise ValueError(
            f"grid: {count} points on [{t_min}, {t_max}] are not strictly increasing"
        )
    return grid
