"""Monte Carlo paths of the absorbed chain, as an independent oracle.

Each path owns a counter-based RNG stream keyed by (seed, path index), so
results are bit-identical regardless of evaluation order or batching.
Holding times are exponential at rate lambda_i + mu_i; the jump goes up
with probability lambda_i / (lambda_i + mu_i).  Absorption times feed a
Kolmogorov-Smirnov comparison against the spectral CDF, and checkpointed
occupancy counts give empirical transition probabilities.  The KS test
evaluates its CDF once, over the whole sorted sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .densities import InitialDistribution

__all__ = [
    "SimConfig",
    "HittingSample",
    "sample_path",
    "empirical_hitting",
    "empirical_occupancy",
    "empirical_transition",
    "ks_statistic",
]

_CHUNK = 32


@dataclass(frozen=True)
class SimConfig:
    """How many paths, how long, which seed, started from which law."""

    n_paths: int
    t_horizon: float
    seed: int
    initial: InitialDistribution

    def __post_init__(self):
        if not isinstance(self.n_paths, (int, np.integer)) or self.n_paths < 1:
            raise ValueError(f"n_paths: must be a positive integer, got {self.n_paths!r}")
        if not self.t_horizon > 0:
            raise ValueError(f"t_horizon: must be positive, got {self.t_horizon!r}")
        if (
            not isinstance(self.seed, (int, np.integer))
            or isinstance(self.seed, bool)
            or not 0 <= self.seed < 2**64
        ):
            raise ValueError(f"seed: must be an integer in [0, 2^64), got {self.seed!r}")
        if not isinstance(self.initial, InitialDistribution):
            raise ValueError("initial: must be an InitialDistribution")


@dataclass(frozen=True)
class HittingSample:
    """Sorted absorption times plus how many paths outlived the horizon."""

    times: np.ndarray
    n_censored: int
    horizon: float
    n_paths: int


def _path_rng(seed, index):
    """Stream for path `index`: Philox keyed by the (seed, index) pair."""
    return np.random.Generator(np.random.Philox(key=(int(seed) << 64) + int(index)))


def _draw_start(nu, rng):
    u = rng.random()
    acc = 0.0
    state = nu.items[-1][0]
    for s, m in nu.items:
        acc += m
        if u < acc:
            state = s
            break
    return state


def _walk(lam, mu, start, rng, horizon, checkpoints=(), record=None):
    """Advance one path to absorption or the horizon.

    checkpoints must be ascending and within [0, horizon]; the returned
    list has the state occupied at each checkpoint (0 once absorbed).
    Returns (absorption time or None if censored, checkpoint states).
    """
    ncp = len(checkpoints)
    out = [0] * ncp
    ci = 0
    state = int(start)
    t = 0.0
    if record is not None and state != 0:
        record.append((0.0, state))
    if state == 0:
        return 0.0, out
    exps = None
    unis = None
    pos = _CHUNK
    while True:
        rate = lam[state - 1] + mu[state - 1]
        if pos >= _CHUNK:
            exps = rng.exponential(size=_CHUNK)
            unis = rng.random(size=_CHUNK)
            pos = 0
        t_next = t + exps[pos] / rate
        up = unis[pos] * rate < lam[state - 1]
        pos += 1
        while ci < ncp and checkpoints[ci] < t_next:
            out[ci] = state
            ci += 1
        if t_next > horizon:
            return None, out
        state = state + 1 if up else state - 1
        t = t_next
        if record is not None:
            record.append((t, state))
        if state == 0:
            # absorbed: any remaining checkpoints see state 0
            return t, out


def sample_path(spec, start, rng_state, t_horizon):
    """One trajectory from `start`: (jump list [(time, state)...], absorption time).

    rng_state is a numpy Generator, or an integer seed (then the path-0
    stream for that seed is used).  The jump list starts with (0.0, start)
    and the absorption time is None when the path outlives t_horizon.
    """
    n = spec.n_states
    if not 0 <= start <= n:
        raise ValueError(f"start: state must lie in 0..{n}, got {start}")
    if not t_horizon > 0:
        raise ValueError(f"t_horizon: must be positive, got {t_horizon!r}")
    if isinstance(rng_state, np.random.Generator):
        rng = rng_state
    else:
        rng = _path_rng(int(rng_state), 0)
    lam = tuple(float(x) for x in spec.lam)
    mu = tuple(float(x) for x in spec.mu)
    traj = []
    absorbed, _ = _walk(lam, mu, start, rng, float(t_horizon), record=traj)
    return traj, absorbed


def _check_support(spec, nu):
    if nu.max_state > spec.n_states:
        raise ValueError(
            f"initial: support reaches state {nu.max_state}, chain has "
            f"{spec.n_states} interior states"
        )


def empirical_hitting(spec, config):
    """Absorption times of config.n_paths independent paths.

    Each path draws its start from config.initial with the first uniform
    of its own stream, then walks to absorption or the horizon.
    """
    _check_support(spec, config.initial)
    lam = tuple(float(x) for x in spec.lam)
    mu = tuple(float(x) for x in spec.mu)
    horizon = float(config.t_horizon)
    times = []
    censored = 0
    for p in range(config.n_paths):
        rng = _path_rng(config.seed, p)
        start = _draw_start(config.initial, rng)
        absorbed, _ = _walk(lam, mu, start, rng, horizon)
        if absorbed is None:
            censored += 1
        else:
            times.append(absorbed)
    times = np.sort(np.asarray(times, dtype=float))
    return HittingSample(
        times=times,
        n_censored=censored,
        horizon=horizon,
        n_paths=config.n_paths,
    )


def empirical_occupancy(spec, config, t_values):
    """Counts of paths found in each state at each checkpoint time.

    Returns an integer array of shape (len(t_values), N + 1); column j
    counts paths in state j (column 0: already absorbed).  Uses the same
    per-path streams as empirical_hitting, so the two views agree path
    by path for equal (seed, n_paths).
    """
    _check_support(spec, config.initial)
    t_values = [float(t) for t in t_values]
    if any(b < a for a, b in zip(t_values, t_values[1:])):
        raise ValueError("t_values: must be ascending")
    if t_values and t_values[-1] > config.t_horizon:
        raise ValueError(
            f"t_values: checkpoint {t_values[-1]} lies beyond the horizon "
            f"{config.t_horizon}"
        )
    if t_values and t_values[0] < 0:
        raise ValueError(f"t_values: checkpoint {t_values[0]} is negative")
    lam = tuple(float(x) for x in spec.lam)
    mu = tuple(float(x) for x in spec.mu)
    horizon = float(config.t_horizon)
    counts = np.zeros((len(t_values), spec.n_states + 1), dtype=np.int64)
    for p in range(config.n_paths):
        rng = _path_rng(config.seed, p)
        start = _draw_start(config.initial, rng)
        _, states = _walk(lam, mu, start, rng, horizon, checkpoints=t_values)
        for ci, st in enumerate(states):
            counts[ci, st] += 1
    return counts


def empirical_transition(spec, config, t, j):
    """Empirical P_nu[X_t = j] with its binomial standard error."""
    if not 0 <= j <= spec.n_states:
        raise ValueError(f"j: state must lie in 0..{spec.n_states}, got {j}")
    counts = empirical_occupancy(spec, config, (float(t),))
    freq = counts[0, j] / config.n_paths
    stderr = math.sqrt(freq * (1.0 - freq) / config.n_paths)
    return float(freq), float(stderr)


def ks_statistic(sample, cdf):
    """sup_t |F_n(t) - F(t)| for a fully observed sample against a CDF.

    sample is a HittingSample (censoring refused: the empirical CDF would
    be defective) or any array of times.  cdf is called once, with the
    sorted times as a 1-D array, and must return one value per time.
    """
    if isinstance(sample, HittingSample):
        if sample.n_censored:
            raise ValueError(
                f"sample: {sample.n_censored} of {sample.n_paths} paths were "
                "censored at the horizon; raise t_horizon before a KS comparison"
            )
        x = sample.times
    else:
        x = np.sort(np.asarray(sample, dtype=float))
    n = len(x)
    if n == 0:
        raise ValueError("sample: empty")
    f_vals = np.asarray(cdf(x), dtype=float)
    if f_vals.shape != x.shape:
        raise ValueError(
            f"cdf: returned shape {f_vals.shape} for {n} sample times; "
            "it must return one value per time"
        )
    i = np.arange(1, n + 1)
    d_plus = np.max(i / n - f_vals)
    d_minus = np.max(f_vals - (i - 1) / n)
    return float(max(d_plus, d_minus))
