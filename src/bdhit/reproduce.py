"""Recovering the initial distribution from the absorption-time density.

The central identity: with coefficients taken from row j of the C-matrix,

    P_nu[X_t = j] = pi_j sum_{m=1}^{j} C(j, m) d^{m-1}/dt^{m-1} f_nu(t),

so letting t -> 0 on the right recovers nu{j}.  The derivatives can be
formed two ways: spectrally (termwise, exact for a known evaluator) or
numerically from density samples alone (local polynomial fit plus one
Richardson extrapolation step toward t = 0).  The numeric route is the
blind one: it needs nothing but (t, f(t)) pairs and the chain's rates.

Termwise, the row-j operator sum_m C(j, m) d^(m-1)/dt^(m-1) turns into
the polynomial sum_m C(j, m) (-theta)^(m-1) under the spectral integral;
spectral_sum's ("c_row", j) target takes it from the C coefficients, not
from the eigenfunction table, so its agreement with the ("state", j)
target is a genuine two-route check.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cmatrix import diff_operator_coeffs
from .densities import spectral_sum
from .model import _as_int, _as_real

__all__ = [
    "NumericApplication",
    "ReproductionReport",
    "apply_psi_dt_numeric",
    "recover_initial",
    "derivative_bound_sequence",
]

# condition number of the scaled Vandermonde fit above which a numeric
# application is flagged unreliable
_COND_THRESHOLD = 1e8


@dataclass(frozen=True)
class NumericApplication:
    """One numeric evaluation of the differential operator at a time point."""

    value: float
    condition: float
    reliable: bool
    n_points: int
    degree: int
    h: float


@dataclass(frozen=True)
class ReproductionReport:
    """Outcome of an initial-distribution recovery across states 1..j_max."""

    mode: str
    states: tuple
    recovered: tuple
    reference: tuple | None
    abs_error: tuple | None
    residual_mass: float
    reliable: bool
    diagnostics: dict

    @property
    def max_abs_error(self):
        if self.abs_error is None:
            return None
        return max(self.abs_error)

    def to_dict(self):
        out = {
            "mode": self.mode,
            "states": list(self.states),
            "recovered": list(self.recovered),
            "residual_mass": self.residual_mass,
            "reliable": self.reliable,
            "diagnostics": self.diagnostics,
        }
        if self.reference is not None:
            out["reference"] = list(self.reference)
            out["abs_error"] = list(self.abs_error)
        return out


def _as_sample_arrays(samples):
    if isinstance(samples, tuple) and len(samples) == 2:
        t = np.asarray(samples[0], dtype=float)
        f = np.asarray(samples[1], dtype=float)
    else:
        arr = np.asarray(samples, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError(
                "samples: expected a (t, f) pair of arrays or an (n, 2) array"
            )
        t, f = arr[:, 0], arr[:, 1]
    if t.shape != f.shape or t.ndim != 1:
        raise ValueError("samples: t and f must be one-dimensional and equal length")
    order = np.argsort(t)
    return t[order], f[order]


def apply_psi_dt_numeric(samples, coeffs, t_eval):
    """The row-j operator from density samples alone (no pi_j factor).

    Fits a polynomial of degree 2(j-1) to the 10j+1 sample points nearest
    t_eval by least squares on centered, h-scaled abscissas, reads the
    derivatives off the fitted coefficients, and contracts them with the
    C-row coefficients.  The reliable flag reflects the conditioning of
    the scaled Vandermonde system: it is False when the condition number
    exceeds the module constant _COND_THRESHOLD (1e8).
    """
    coeffs = [float(c) for c in coeffs]
    j = len(coeffs)
    if j < 1:
        raise ValueError("coeffs: need at least the order-zero coefficient")
    t, f = _as_sample_arrays(samples)
    t_eval = _as_real(t_eval, "t_eval")
    n_pts = 10 * j + 1
    if len(t) < n_pts:
        raise ValueError(
            f"samples: need at least {n_pts} points for j = {j}, got {len(t)}"
        )
    nearest = np.argsort(np.abs(t - t_eval), kind="stable")[:n_pts]
    nearest.sort()
    tw = t[nearest]
    fw = f[nearest]
    if not (tw[0] <= t_eval <= tw[-1]):
        raise ValueError(
            f"samples: the {n_pts}-point window [{tw[0]:g}, {tw[-1]:g}] "
            f"does not bracket t_eval = {t_eval:g}"
        )
    degree = 2 * (j - 1)
    h = float(np.max(np.abs(tw - t_eval)))
    if h == 0:
        raise ValueError("samples: window has zero spread around t_eval")
    x = (tw - t_eval) / h
    vand = np.vander(x, degree + 1, increasing=True)
    sol, _, rank, sv = np.linalg.lstsq(vand, fw, rcond=None)
    if rank < degree + 1 or sv[-1] == 0:
        condition = math.inf
    else:
        condition = float(sv[0] / sv[-1])
    value = math.fsum(
        coeffs[m] * sol[m] * math.factorial(m) / h**m for m in range(j)
    )
    return NumericApplication(
        value=value,
        condition=condition,
        reliable=condition <= _COND_THRESHOLD,
        n_points=n_pts,
        degree=degree,
        h=h,
    )


def _window_grid(density, t_center, j, window_factor):
    n = 10 * j + 1
    lo = t_center * (1.0 - window_factor)
    hi = t_center * (1.0 + window_factor)
    t = np.linspace(lo, hi, n)
    f = np.asarray(density(t), dtype=float)
    if f.shape != t.shape:
        raise ValueError(
            f"samples: the callable returned shape {f.shape} for a window of "
            f"{n} times; it must return one density value per time"
        )
    return t, f


def recover_initial(
    ev,
    nu=None,
    samples=None,
    j_max=4,
    mode="spectral",
    t0=0.005,
    window_factor=0.4,
    force=False,
):
    """Reconstruct nu{1..j_max} from the absorption density.

    mode "spectral": evaluates the operator termwise at t = 0 against the
    known spectral data (spectral_sum's ("c_row", j) target; nu required;
    this is the exactness route).

    mode "numeric": uses only density values.  samples is either a
    callable that takes a 1-D array of times and returns the density at
    each (called once per window, with that window's times: two windows,
    around t0 and t0/2, for each state, so 2 j_max calls) or pregathered
    (t, f) data covering both windows.  Each state j gets a
    degree-2(j-1) least-squares fit on 10j+1 points; the two window
    centers feed one Richardson step r(0) ~ 2 r(t0/2) - r(t0), which
    cancels the leading O(t) error of evaluating at positive time.  The
    residual is O(t0^2), so exact samples support a small default t0;
    noisy samples need a larger one (derivative noise scales like
    (t0 window_factor)^(1-j)).  A state whose fits have a condition
    number above _COND_THRESHOLD (1e8) is flagged unreliable.  When nu is
    also given it is used purely as reference for error reporting.

    States above j_max = 6 amplify sample noise through high derivatives;
    they are refused unless force=True.  In numeric mode t0 must be a
    positive finite number and window_factor lie in (0, 1); a ValueError
    naming the argument refuses anything else.
    """
    if mode not in ("spectral", "numeric"):
        raise ValueError(f"mode: expected 'spectral' or 'numeric', got {mode!r}")
    j_max = _as_int(j_max, "j_max", 1)
    if j_max > ev.n_states:
        raise ValueError(
            f"j_max {j_max}: evaluator covers states 1..{ev.n_states}"
        )
    states = tuple(range(1, j_max + 1))

    if mode == "spectral":
        if nu is None:
            raise ValueError("mode 'spectral': needs nu (the distribution to reproduce)")
        if ev.is_continuous:
            raise ValueError(
                "mode 'spectral': t = 0 evaluation needs the discrete spectrum of a finite chain"
            )
        recovered = tuple(
            float(spectral_sum(ev, (0.0,), nu, ("c_row", j))[0]) for j in states
        )
        diagnostics = {"t": 0.0}
        reliable = True
    else:
        if samples is None:
            raise ValueError("mode 'numeric': needs samples (callable or (t, f) data)")
        if j_max > 6 and not force:
            raise ValueError(
                "mode 'numeric': j_max > 6 is noise-dominated; pass force=True to try anyway"
            )
        if j_max > 6:
            warnings.warn(
                f"numeric recovery at j_max = {j_max} exceeds the reliable range (6)",
                stacklevel=2,
            )
        if ev.c.max_index < j_max:
            raise ValueError(
                f"evaluator keeps only {ev.c.max_index} C-matrix rows, need {j_max}"
            )
        t0 = _as_real(t0, "t0", "positive")
        window_factor = _as_real(window_factor, "window_factor", "positive")
        if window_factor >= 1:
            raise ValueError(f"window_factor: must lie in (0, 1), got {window_factor}")
        centers = (t0, 0.5 * t0)
        data = None if callable(samples) else _as_sample_arrays(samples)
        recovered = []
        per_state = {}
        reliable = True
        for j in states:
            coeffs = diff_operator_coeffs(ev.c, j)
            apps = []
            for tc in centers:
                if callable(samples):
                    window = _window_grid(samples, tc, j, window_factor)
                else:
                    window = data
                apps.append(
                    apply_psi_dt_numeric(window, coeffs, tc)
                )
            raw = 2.0 * apps[1].value - apps[0].value
            recovered.append(float(ev.pi[j - 1]) * raw)
            correction = abs(apps[1].value - apps[0].value)
            diverged = not math.isfinite(raw) or correction > abs(apps[1].value) + 1.0
            state_ok = all(a.reliable for a in apps) and not diverged
            reliable = reliable and state_ok
            per_state[j] = {
                "condition": max(a.condition for a in apps),
                "n_points": apps[0].n_points,
                "degree": apps[0].degree,
                "richardson_correction": correction,
                "reliable": state_ok,
            }
        recovered = tuple(recovered)
        diagnostics = {
            "t0": t0,
            "centers": list(centers),
            "window_factor": window_factor,
            "richardson_levels": 2,
            "per_state": per_state,
        }

    if nu is not None:
        reference = tuple(nu.mass(j) for j in states)
        abs_error = tuple(abs(r - m) for r, m in zip(recovered, reference))
    else:
        reference = None
        abs_error = None
    residual_mass = 1.0 - math.fsum(recovered)
    return ReproductionReport(
        mode=mode,
        states=states,
        recovered=recovered,
        reference=reference,
        abs_error=abs_error,
        residual_mass=residual_mass,
        reliable=reliable,
        diagnostics=diagnostics,
    )


def derivative_bound_sequence(c, k_max):
    """Bounds alpha_k with |d^k f_i / dt^k (t)| <= alpha_k for all i, t.

    alpha_0 = 1/C(1,1) = mu_1, and each next bound follows from solving
    the reproduction identity for the top derivative of row k+2:

        alpha_{k+1} = (1/pi_{k+2} + sum_{l=1}^{k+1} C(k+2, l) alpha_{l-1})
                      / C(k+2, k+2).

    Exact Fractions when the C-matrix is rational.
    """
    k_max = _as_int(k_max, "k_max", 0)
    if k_max >= 1 and c.max_index < k_max + 1:
        raise ValueError(
            f"c: row {k_max + 1} needed for alpha_{k_max}, matrix keeps {c.max_index}"
        )
    one = Fraction(1) if c.rational else 1.0
    alpha = [one / c.value(1, 1)]
    for k in range(k_max):
        j = k + 2
        inv_pi = one / c.pi[j]
        acc = inv_pi + sum(
            c.value(j, m) * alpha[m - 1] for m in range(1, k + 2)
        )
        alpha.append(acc / c.value(j, j))
    return tuple(alpha)
