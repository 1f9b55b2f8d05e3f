"""Finite birth-and-death chains absorbed at zero.

The state space is {0, 1, ..., N} with 0 absorbing.  A chain is described
by birth rates lambda_1..lambda_N and death rates mu_1..mu_N; the top
birth rate lambda_N is zero, so no mass escapes the truncation from
above.  This module builds the two canonical coordinates attached to such
a chain, the speed measure pi and the scale function s, and applies the
generator Q together with its factorization through the difference
operators D_pi and D_s.

Arithmetic is dual-mode: rates supplied as Python or numpy ints, rational
strings, or fractions.Fraction stay exact through every construction here,
while any float rate switches the chain to 64-bit float mode.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import count, repeat

import numpy as np

__all__ = [
    "ProcessSpec",
    "SpeedMeasure",
    "ScaleFunction",
    "build_speed_measure",
    "build_scale_function",
    "apply_Q",
    "apply_DpiDs",
    "spec_from_dict",
    "load_spec",
    "symmetric_rw_spec",
    "asymmetric_rw_spec",
]

# the least magnitude whose correctly rounded float overflows: 2^1024 - 2^970
# lies halfway between the largest float and 2^1024, and rounds up
_FLOAT_OVERFLOW = 2**1024 - 2**970


def _is_exact_number(x):
    return isinstance(x, (int, Fraction))


def _read_only_floats(values, name):
    """The values as a read-only float array; an exact value beyond float
    range, or a nonzero one whose float is 0.0, is refused as an
    OverflowError naming the first, as name[index]."""
    try:
        out = np.array([float(v) for v in values])
    except OverflowError:
        i = next(i for i, v in enumerate(values) if abs(v) >= _FLOAT_OVERFLOW)
        raise OverflowError(
            f"{name}[{i}]: beyond float range; the floating-point routes need "
            "it below 1.8e308 in magnitude (exact routes such as cmatrix still run)"
        ) from None
    # true zeros (the top birth rate) are the only entries read one by one
    lost = [i for i in np.flatnonzero(out == 0.0) if values[i] != 0]
    if lost:
        raise OverflowError(
            f"{name}[{lost[0]}]: below float range, so its float is 0.0; the "
            "floating-point routes need it at least 4.9e-324 in magnitude "
            "(exact routes such as cmatrix still run)"
        )
    out.flags.writeable = False
    return out


def _field(name, index):
    return name if index is None else f"{name}[{index}]"


# Fraction last: an isinstance test against it (an ABC) is the slow one
_NUMBER_TYPES = (float, np.floating, int, np.integer, Fraction)


def _is_number(value):
    """What counts as a number, to a rate or a real argument alike."""
    return isinstance(value, _NUMBER_TYPES) and not isinstance(value, bool)


def _rate(value, name, index=None):
    """The one reader of a rate: an int or numpy integer as int, a Fraction
    as is, a finite float (numpy floats too) as float; anything else is
    refused naming ``name`` or ``name[index]``, formatted only then."""
    if type(value) is int:  # the common exact case, with no conversion
        return value
    if isinstance(value, (float, np.floating)):
        if math.isfinite(value):
            return float(value)
        problem = f"rate must be finite, got {float(value)!r}"
    elif not _is_number(value):
        problem = f"unsupported rate type {type(value).__name__}"
    elif isinstance(value, Fraction):
        return value
    else:
        return int(value)
    raise ValueError(f"{_field(name, index)}: {problem}")


def _as_real(value, field, sign=None, inf=False):
    """The one reader of a real argument (a time, horizon, eigenvalue,
    eigenfunction value, walk rate or mass): an int, numpy integer,
    Fraction, float or numpy float as float.  Refused, naming ``field``:
    a bool or any other type, an exact value beyond float range, a value
    not ``sign`` ("positive" or "nonnegative") when one is given, NaN,
    and +-inf, save +inf when ``inf`` is true."""
    if type(value) is not float:  # the common case needs no conversion
        if not _is_number(value):
            raise ValueError(f"{field}: must be a real number, got {value!r}")
        try:
            value = float(value)
        except OverflowError:
            raise ValueError(
                f"{field}: must lie within float range (below 1.8e308 in magnitude)"
            ) from None
    # nan fails both tests below
    if sign == "positive" and not value > 0 or sign == "nonnegative" and not value >= 0:
        raise ValueError(f"{field}: must be {sign}, got {value}")
    if not (math.isfinite(value) or inf and value == math.inf):
        raise ValueError(f"{field}: must be finite, got {value}")
    return value


def _as_rate(value, name, index=None):
    """A JSON-style rate: a rational string such as "3/2" becomes a
    Fraction; any other value is left for _rate to read."""
    if not isinstance(value, str):
        return value
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"{_field(name, index)}: cannot parse rational string {value!r}") from exc


@dataclass(frozen=True)
class ProcessSpec:
    """Birth and death rates of a finite chain absorbed at state 0.

    Interior states are 1..N.  ``lam[i-1]`` is the birth rate out of state
    i and ``mu[i-1]`` the death rate into state i-1.  The top birth rate
    ``lam[N-1]`` must be zero (finite-chain boundary); all other rates are
    strictly positive and finite.  Python or numpy integers, Fractions and
    floats are accepted, and stored as int, Fraction or float.
    """

    lam: tuple
    mu: tuple

    def __post_init__(self):
        lam = tuple(map(_rate, self.lam, repeat("lambda"), count()))
        mu = tuple(map(_rate, self.mu, repeat("mu"), count()))
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "mu", mu)
        n = len(lam)
        if n < 1:
            raise ValueError("lambda: need at least one interior state")
        if len(mu) != n:
            raise ValueError(f"mu: expected length {n}, got {len(mu)}")
        for i, r in enumerate(mu):
            if r <= 0:
                raise ValueError(f"mu[{i}]: death rate must be positive, got {r}")
        for i, r in enumerate(lam[: n - 1]):
            if r <= 0:
                raise ValueError(f"lambda[{i}]: interior birth rate must be positive, got {r}")
        if lam[n - 1] != 0:
            raise ValueError(
                f"lambda[{n - 1}]: top birth rate must be 0 on a finite chain, got {lam[n - 1]}"
            )

    @property
    def n_states(self):
        """Number of interior states N."""
        return len(self.lam)

    @functools.cached_property
    def is_rational(self):
        """True when every rate is an int or Fraction (exact mode available).

        Scanned once per spec and kept out of the dataclass fields, so
        equality and hashing still read the rates alone.
        """
        return all(_is_exact_number(r) for r in self.lam) and all(
            _is_exact_number(r) for r in self.mu
        )

    def lam_array(self):
        """Birth rates as floats, converted once per spec: every call
        returns the same read-only array.  An exact rate beyond float range,
        or a positive one below it, raises OverflowError naming the first."""
        return self._lam_floats

    def mu_array(self):
        """Death rates as floats, converted once per spec: every call
        returns the same read-only array.  An exact rate beyond float range,
        or a positive one below it, raises OverflowError naming the first."""
        return self._mu_floats

    @functools.cached_property
    def _lam_floats(self):
        return _read_only_floats(self.lam, "lambda")

    @functools.cached_property
    def _mu_floats(self):
        return _read_only_floats(self.mu, "mu")

    def to_dict(self):
        """JSON-ready document; exact rates become "p/q" strings."""

        def enc(r):
            if isinstance(r, Fraction):
                return f"{r.numerator}/{r.denominator}"
            return r

        return {
            "N": self.n_states,
            "lambda": [enc(r) for r in self.lam],
            "mu": [enc(r) for r in self.mu],
        }


@dataclass(frozen=True)
class SpeedMeasure:
    """Weights pi_1..pi_N making Q symmetric; pi_1 = 1."""

    pi: tuple

    def array(self):
        """The weights as floats, converted once: every call returns the
        same read-only array.

        Raises
        ------
        OverflowError
            If an exact (rational) weight is too large for a float, or so
            small that its float is 0.0; the message names the first such
            index.
        """
        return self._floats

    @functools.cached_property
    def _floats(self):
        try:
            # int true division is correctly rounded: the bits of float(p)
            out = np.array([p.numerator / p.denominator for p in self.pi])
        except AttributeError:  # float weights have no numerator
            out = np.array(self.pi, dtype=float)
        except OverflowError:
            i = next(i for i, p in enumerate(self.pi) if abs(p) >= _FLOAT_OVERFLOW)
            raise OverflowError(
                f"speed measure overflows float range at pi[{i + 1}]; "
                "the floating-point routes need every pi_i below 1.8e308 "
                "(use fewer states)"
            ) from None
        zero = np.flatnonzero(out == 0.0)
        if zero.size:
            raise OverflowError(
                f"speed measure underflows float range at pi[{zero[0] + 1}]; "
                "the floating-point routes need every pi_i above 4.9e-324 "
                "(use fewer states)"
            )
        out.flags.writeable = False
        return out

    def __getitem__(self, i):
        """pi_i for a state i in 1..N (1-based, matching the usual subscript)."""
        if not 1 <= i <= len(self.pi):
            raise IndexError(f"pi[{i}]: state out of range 1..{len(self.pi)}")
        return self.pi[i - 1]


@dataclass(frozen=True)
class ScaleFunction:
    """Values s(0)..s(N) of the harmonic coordinate: Qs = 0, s(0) = 0."""

    s: tuple

    def array(self):
        """The values as floats, converted once: every call returns the
        same read-only array."""
        return self._floats

    @functools.cached_property
    def _floats(self):
        return _read_only_floats(self.s, "s")

    def __getitem__(self, i):
        """s(i) for a state i in 0..N."""
        if not 0 <= i < len(self.s):
            raise IndexError(f"s[{i}]: state out of range 0..{len(self.s) - 1}")
        return self.s[i]


def build_speed_measure(spec):
    """Cumulative-product weights pi_i = (lambda_1..lambda_{i-1})/(mu_2..mu_i).

    Satisfies pi_1 = 1 and the balancing condition
    pi_{i+1} mu_{i+1} = pi_i lambda_i.

    Raises
    ------
    OverflowError
        If the cumulative product leaves float range (overflows, or
        underflows to 0.0); the message names the first bad index and
        suggests rational rates instead.
    """
    if spec.is_rational:
        # one normalization per state, where p * lambda / mu takes two
        p = Fraction(1)
        out = [p]
        for lam, mu in zip(spec.lam, spec.mu[1:]):
            p = Fraction(
                p.numerator * lam.numerator * mu.denominator,
                p.denominator * lam.denominator * mu.numerator,
            )
            out.append(p)
        return SpeedMeasure(tuple(out))
    p = 1.0
    out = [p]
    for i in range(1, spec.n_states):
        p = p * spec.lam[i - 1] / spec.mu[i]
        if not math.isfinite(p):
            raise OverflowError(
                f"speed measure overflows at pi[{i + 1}]; "
                "supply rational rates (exact mode) or rescale the chain"
            )
        if p == 0.0:
            raise OverflowError(
                f"speed measure underflows to 0 at pi[{i + 1}]; "
                "supply rational rates (exact mode) or use fewer states"
            )
        out.append(p)
    return SpeedMeasure(tuple(out))


def build_scale_function(spec, pi):
    """Scale values s(0) = 0, s(1) = 1/mu_1, s(i+1) - s(i) = 1/(pi_i lambda_i)."""
    exact = spec.is_rational and all(_is_exact_number(p) for p in pi.pi)
    one = Fraction(1) if exact else 1.0
    s = [one * 0, one / spec.mu[0]]
    for i in range(1, spec.n_states):
        s.append(s[i] + one / (pi.pi[i - 1] * spec.lam[i - 1]))
    return ScaleFunction(tuple(s))


def apply_Q(spec, f):
    """Apply the generator on interior states.

    Parameters
    ----------
    f : sequence of N+1 values indexed by state 0..N.

    Returns
    -------
    list (or ndarray if the input was one) of (Qf)(i) for i = 1..N, where
    (Qf)(i) = mu_i f(i-1) - (lambda_i + mu_i) f(i) + lambda_i f(i+1)
    and the f(N+1) term is absent because lambda_N = 0.
    """
    n = spec.n_states
    if len(f) != n + 1:
        raise ValueError(f"f: expected {n + 1} entries (states 0..{n}), got {len(f)}")
    out = []
    for i in range(1, n + 1):
        lam_i = spec.lam[i - 1]
        mu_i = spec.mu[i - 1]
        v = mu_i * f[i - 1] - (lam_i + mu_i) * f[i]
        if i < n:
            v = v + lam_i * f[i + 1]
        out.append(v)
    if isinstance(f, np.ndarray):
        return np.asarray(out, dtype=float)
    return out


def apply_DpiDs(spec, pi, s, f):
    """Apply the factorized generator D_pi D_s; equals apply_Q on 1..N.

    D_s f(i) = (f(i+1) - f(i)) / (s(i+1) - s(i)) for 1 <= i <= N-1,
    D_s f(0) = mu_1 (f(1) - f(0)), and D_s f(N) = 0 because the scale gap
    above the truncation is infinite.  Then
    (D_pi g)(i) = (g(i) - g(i-1)) / pi_i.
    """
    n = spec.n_states
    if len(f) != n + 1:
        raise ValueError(f"f: expected {n + 1} entries (states 0..{n}), got {len(f)}")
    ds = [spec.mu[0] * (f[1] - f[0])]
    for i in range(1, n):
        ds.append((f[i + 1] - f[i]) / (s[i + 1] - s[i]))
    ds.append(0 * ds[0])  # zero of the working arithmetic type
    out = [(ds[i] - ds[i - 1]) / pi.pi[i - 1] for i in range(1, n + 1)]
    if isinstance(f, np.ndarray):
        return np.asarray(out, dtype=float)
    return out


def _positive_rate(value, name):
    """A walk's rate parameter read by _rate, refused unless positive."""
    value = _rate(value, name)
    if value <= 0:
        raise ValueError(f"{name}: must be positive, got {value}")
    return value


def symmetric_rw_spec(kappa, n_states):
    """Truncated symmetric random walk: lambda_i = mu_i = kappa, top rate 0."""
    kappa = _positive_rate(kappa, "kappa")
    n_states = _as_int(n_states, "N", 1)
    zero = 0 if _is_exact_number(kappa) else 0.0
    lam = (kappa,) * (n_states - 1) + (zero,)
    mu = (kappa,) * n_states
    return ProcessSpec(lam, mu)


def asymmetric_rw_spec(lam, mu, n_states):
    """Truncated constant-rate walk: birth rate lam, death rate mu."""
    lam = _positive_rate(lam, "lambda")
    mu = _positive_rate(mu, "mu")
    n_states = _as_int(n_states, "N", 1)
    zero = 0 if _is_exact_number(lam) else 0.0
    lam_seq = (lam,) * (n_states - 1) + (zero,)
    mu_seq = (mu,) * n_states
    return ProcessSpec(lam_seq, mu_seq)


def _as_int(value, field, lo=None, hi=None):
    """The one reader of an integer argument (a count, order, seed or state):
    an int or numpy integer as int, refused below lo, or outside lo..hi when
    both are given.  A bool or any other type is refused; the message names
    ``field`` and is formatted only then."""
    if type(value) is not int:  # the common case needs no conversion
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{field}: must be an integer, got {value!r}")
        value = int(value)
    if (lo is not None and value < lo) or (hi is not None and value > hi):
        if hi is None:
            raise ValueError(f"{field}: must be >= {lo}, got {value}")
        raise ValueError(f"{field} {value}: outside {lo}..{hi}")
    return value


def spec_from_dict(doc):
    """Build a ProcessSpec from one of the three accepted JSON shapes.

    Either explicit rate arrays::

        {"N": 3, "lambda": [2, 2, 0], "mu": [1, 1, 1]}

    or a named family::

        {"model": "symmetric_rw", "kappa": 1, "N": 50}
        {"model": "asymmetric_rw", "lambda": 2, "mu": 1, "N": 50}

    Rates may be JSON numbers or rational strings like "3/2".  Validation
    errors name the offending field.
    """
    if not isinstance(doc, dict):
        raise ValueError("spec: expected a JSON object")
    model = doc.get("model")
    if model == "symmetric_rw":
        missing = [k for k in ("kappa", "N") if k not in doc]
        if missing:
            raise ValueError(f"{missing[0]}: required for model symmetric_rw")
        return symmetric_rw_spec(_as_rate(doc["kappa"], "kappa"), doc["N"])
    if model == "asymmetric_rw":
        missing = [k for k in ("lambda", "mu", "N") if k not in doc]
        if missing:
            raise ValueError(f"{missing[0]}: required for model asymmetric_rw")
        return asymmetric_rw_spec(
            _as_rate(doc["lambda"], "lambda"), _as_rate(doc["mu"], "mu"), doc["N"]
        )
    if model is not None:
        raise ValueError(f"model: unknown model {model!r}")
    missing = [k for k in ("N", "lambda", "mu") if k not in doc]
    if missing:
        raise ValueError(f"{missing[0]}: required field missing from spec")
    n = _as_int(doc["N"], "N", 1)
    lam = doc["lambda"]
    mu = doc["mu"]
    if not isinstance(lam, (list, tuple)) or len(lam) != n:
        raise ValueError(f"lambda: expected an array of length N={n}")
    if not isinstance(mu, (list, tuple)) or len(mu) != n:
        raise ValueError(f"mu: expected an array of length N={n}")
    lam = map(_as_rate, lam, repeat("lambda"), count())
    mu = map(_as_rate, mu, repeat("mu"), count())
    return ProcessSpec(lam, mu)


def load_spec(path):
    """Read a ProcessSpec from a JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: invalid JSON ({exc})") from exc
    return spec_from_dict(doc)
