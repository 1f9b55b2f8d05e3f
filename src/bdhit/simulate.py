"""Monte Carlo paths of the absorbed chain, as an independent oracle.

Every random number is a pure function of (seed, path, draw block):
Philox4x64-10 (Salmon et al., "Parallel random numbers: as easy as 1, 2,
3", SC'11), written as numpy integer arithmetic, with the seed as its key
and (block, path) as its counter.  Each 64-bit word gives one 53-bit
uniform u.  Block 0 of a path gives its start state (its first uniform);
block b >= 1 gives steps 4b - 4 .. 4b - 1, word k to step 4b - 4 + k.

One uniform makes a whole jump.  From state i, with p = lambda_i /
(lambda_i + mu_i), the step goes up iff u < p.  Rescaled within its
branch, v = u / p going up and v = (u - p) / (1 - p) going down, u is
again uniform on [0, 1) and independent of the direction, so the step
holds for -log1p(-v) / (lambda_i + mu_i), with v kept at most 1 - 2^-53
so that rounding cannot reach 1.  (v has the branch's share of u's 2^53
levels: a rare branch times its steps more coarsely.)

So one walker advances every live path together as numpy arrays, and a
path's trajectory does not depend on how many paths run beside it or how
they are batched.  It keeps at most _LIVE paths live, starting the next
paths as others are absorbed or censored, and draws at most _CAP uniforms
at a time: its work arrays stay a few MB whatever the number of paths.
A block's step loop moves states only; the clock follows at the block's
end, every holding time at once and then one running sum down the block.
As the live set drains, blocks grow to _MAX_STEPS steps, so the last
long paths take a few Philox calls rather than one per short block.  Once
at most _SCALAR paths are live, a numpy step costs more than stepping
each path on its own over Python scalars, so the drain does that: each
path stops at its absorption, and a block may grow to _CAP // paths
steps.  Either loop writes the same branches, so the results do not
depend on which one ran.
Absorption times feed a Kolmogorov-Smirnov comparison against the
spectral CDF (evaluated once, over the whole sorted sample), and
checkpointed occupancy counts give empirical transition probabilities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .densities import InitialDistribution
from .model import _as_int, _as_real

__all__ = [
    "SimConfig",
    "HittingSample",
    "sample_path",
    "expected_jumps",
    "empirical_hitting",
    "empirical_occupancy",
    "empirical_transition",
    "ks_statistic",
]

_CAP = 2**14  # uniforms drawn per block, one per step: bounds every work array
_LIVE = _CAP // 8  # paths walked at once: 8 steps each per block
_MAX_STEPS = 512  # steps per block of the numpy loop once the live set drains
# live paths at or below which a block steps path by path: where the two
# loops cost the same on a 2-vCPU x86 host when no path is absorbed
_SCALAR = 32
_BELOW_ONE = 1.0 - 2.0**-53  # the largest double below 1
_SEED_MAX = 2**64 - 1  # a seed is one Philox key: an integer in 0..2^64 - 1

# Philox4x64 round multipliers and key increments, for the words (x0, x2)
# that each round multiplies and the key words (k0, k1)
_MULT = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_WEYL = np.array([[0x9E3779B97F4A7C15], [0xBB67AE8584CAA73B]], dtype=np.uint64)
_LO32 = np.uint64(0xFFFFFFFF)
_HALF = np.uint64(32)
_MULT_LO, _MULT_HI = _MULT & _LO32, _MULT >> _HALF


@dataclass(frozen=True)
class SimConfig:
    """How many paths, how long, which seed, started from which law.

    t_horizon is a positive number, or inf for no horizon.
    """

    n_paths: int
    t_horizon: float
    seed: int
    initial: InitialDistribution

    def __post_init__(self):
        _as_int(self.n_paths, "n_paths", 1)
        _as_real(self.t_horizon, "t_horizon", "positive", inf=True)
        _as_int(self.seed, "seed", 0, _SEED_MAX)
        if not isinstance(self.initial, InitialDistribution):
            raise ValueError("initial: must be an InitialDistribution")


@dataclass(frozen=True)
class HittingSample:
    """Sorted absorption times plus how many paths outlived the horizon."""

    times: np.ndarray
    n_censored: int
    horizon: float
    n_paths: int


def _philox4x64(counter, key):
    """Philox4x64-10 output words for 256-bit counters under a 128-bit key.

    counter is four broadcastable arrays of uint64 words, the lowest word
    first, and key a pair of integers in [0, 2^64).  Each round multiplies
    the words x0 and x2, so they are kept stacked, as are x1 and x3; the
    result is that pair of arrays, ((x0, x2), (x1, x3)).  For each counter
    c, (x0, x1, x2, x3) are the words np.random.Philox(key=key, counter=c - 1)
    .random_raw(4) gives (numpy steps its counter before each draw).
    """
    x0, x1, x2, x3 = np.broadcast_arrays(*(np.asarray(c, dtype=np.uint64) for c in counter))
    shape = (2,) + x0.shape
    mul = np.stack((x0, x2)).reshape(2, -1)
    xor = np.stack((x1, x3)).reshape(2, -1)
    key = np.array([[int(k)] for k in key], dtype=np.uint64)
    lo, hi, t, u = (np.empty_like(mul) for _ in range(4))
    for _ in range(10):
        # 128-bit products M * x from 32-bit halves, in place
        np.bitwise_and(mul, _LO32, out=lo)
        np.right_shift(mul, _HALF, out=hi)
        np.multiply(mul, _MULT, out=mul)  # low words
        np.multiply(lo, _MULT_LO, out=t)
        t >>= _HALF
        np.multiply(lo, _MULT_HI, out=u)
        u += t
        np.bitwise_and(u, _LO32, out=t)
        np.multiply(hi, _MULT_LO, out=lo)
        lo += t
        u >>= _HALF
        lo >>= _HALF
        hi *= _MULT_HI
        hi += u
        hi += lo  # high words
        # (x0, x1, x2, x3) <- (hi(M1 x2) ^ x1 ^ k0, lo(M1 x2), hi(M0 x0) ^ x3 ^ k1, lo(M0 x0))
        high = hi[::-1]
        high ^= xor
        high ^= key
        hi, mul, xor = xor, high, mul[::-1]
        key = key + _WEYL
    return mul.reshape(shape), xor.reshape(shape)


def _uniform(words, out=None):
    """53-bit uniforms on [0, 1): the top 53 bits of each 64-bit word."""
    return np.multiply(words >> np.uint64(11), 2.0**-53, out=out)


def _step_path(s2, u, up2, to2):
    """The branches one path takes from doubled state s2, one per uniform
    of u, up to and including the step that absorbs it: the numpy step
    loop over Python scalars, with up2 and to2 as lists."""
    branches = []
    append = branches.append
    for x in u:
        if x < up2[s2]:
            s2 += 1
        append(s2)
        s2 = to2[s2]
        if not s2:
            break
    return branches


def _walk(spec, nu, seed, n_paths, horizon):
    """Walk paths 0..n_paths-1 of `seed`, started from nu, to absorption or the horizon.

    Yields one (times, states, done) triple per block of steps, over the
    paths live in that block: times[k] and states[k] (k = 0..steps) hold
    each path's clock and state after k of the block's steps, and done
    marks the paths that finish in the block.  An absorbed path keeps
    state 0 and its absorption time.  A path censored in the block walks
    on to the block's end; its steps past the horizon are not part of its
    trajectory.
    """
    n = spec.n_states
    lam, mu = spec.lam_array(), spec.mu_array()
    p_up = np.concatenate(([0.0], lam / (lam + mu)))  # state 0 never goes up
    # the loop carries 2 s: the step from s reads p_up2[2 s], takes branch
    # 2 s (down) or 2 s + 1 (up) and goes to nxt2[branch], again doubled;
    # 0 stays
    p_up2 = np.repeat(p_up, 2)
    nxt2 = 2 * (np.repeat(np.arange(n + 1), 2) + np.tile([-1, 1], n + 1))
    nxt2[:2] = 0
    up2, to2 = p_up2.tolist(), nxt2.tolist()
    # by branch: where its uniforms start and how wide they are, and minus
    # the rate, so that log1p(-v) / -rate is the holding time with no extra
    # negation; state 0 holds for no time
    offset = np.stack((p_up, np.zeros(n + 1)), axis=1).ravel()
    width = np.stack((1.0 - p_up, p_up), axis=1).ravel()
    neg_rate = np.repeat(np.concatenate(([-np.inf], -(lam + mu))), 2)
    starts = np.array(nu.states)
    acc = np.cumsum([m for _, m in nu.items])
    key = (int(seed), 0)
    path = taken = np.empty(0, dtype=np.uint64)
    t = np.empty(0)
    s = np.empty(0, dtype=np.intp)
    # start states of the next paths to start, drawn up to _CAP paths at a
    # time: one Philox call serves many refills of the live set
    queued = np.empty(0, dtype=np.intp)
    started = blocks = 0
    while True:
        fresh = min(_LIVE - path.size, n_paths - started)
        if fresh > 0:
            if queued.size < fresh:
                first = started + queued.size
                ahead = np.arange(first, min(first + _CAP, n_paths), dtype=np.uint64)
                pick = np.zeros(ahead.size, dtype=np.intp)
                if starts.size > 1:
                    u = _uniform(_philox4x64((0, ahead, 0, 0), key)[0][0])
                    pick = np.minimum(np.searchsorted(acc, u, side="right"), starts.size - 1)
                queued = np.concatenate((queued, starts[pick]))
            path = np.concatenate((path, np.arange(started, started + fresh, dtype=np.uint64)))
            started += fresh
            taken = np.concatenate((taken, np.zeros(fresh, dtype=np.uint64)))
            t = np.concatenate((t, np.zeros(fresh)))
            s = np.concatenate((s, queued[:fresh]))
            queued = queued[fresh:]
        if not path.size:
            return
        # 8 steps a block while the live set is full, more as it drains; a
        # walk's first blocks stay short, so a short path costs little.  A
        # block of at most _SCALAR paths steps each path on its own, up to
        # its absorption, so it may take _CAP // paths steps: its Philox
        # call and clock are then its main cost
        scalar = path.size <= _SCALAR
        longest = _CAP // path.size if scalar else min(_MAX_STEPS, _CAP // path.size)
        steps = min(longest, 8 << blocks) & ~3
        blocks += 1
        block = taken // 4 + np.arange(1, steps // 4 + 1, dtype=np.uint64)[:, None]
        # Philox gives words (x0, x2) and (x1, x3) of each block; interleaved,
        # word k of block b is step 4 b - 4 + k
        u = np.empty((steps // 4, 2, 2, path.size))
        for i, words in enumerate(_philox4x64((block, path, 0, 0), key)):
            _uniform(words.transpose(1, 0, 2), out=u[:, :, i])
        u = u.reshape(steps, path.size)
        times = np.empty((steps + 1, path.size))
        states = np.empty((steps + 1, path.size), dtype=np.intp)
        branch = np.zeros((steps, path.size), dtype=np.intp)
        np.multiply(s, 2, out=states[0])
        if scalar:
            # path by path: a numpy step costs about 5 us for 1 path or for
            # _SCALAR of them, a scalar one about 0.15 us a path.  Steps
            # after absorption keep branch 0, which leads to state 0, as in
            # the numpy loop
            for j, s2 in enumerate(states[0].tolist()):
                walked = _step_path(s2, u[:, j].tolist(), up2, to2)
                branch[: len(walked), j] = walked
            nxt2.take(branch, out=states[1:])
        else:
            for k in range(steps):
                np.add(states[k], u[k] < p_up2.take(states[k]), out=branch[k])
                nxt2.take(branch[k], out=states[k + 1])
        states >>= 1
        # the clock after the loop: each step's u rescaled within its branch
        # (-v, kept above -1), every holding time at once, then one running
        # sum down the block, the same additions in the same order either
        # way: cumsum costs about 4 ns a value and an add about 2 us a row,
        # so a wide block is summed row by row
        np.subtract(offset.take(branch), u, out=u)
        np.divide(u, width.take(branch), out=u)
        np.maximum(u, -_BELOW_ONE, out=u)
        np.log1p(u, out=times[1:])
        np.divide(times[1:], neg_rate.take(branch), out=times[1:])
        times[0] = t
        if path.size >= 512:
            for k in range(steps):
                np.add(times[k], times[k + 1], out=times[k + 1])
        else:
            np.cumsum(times, axis=0, out=times)
        t, s = times[-1], states[-1]
        done = (s == 0) | (t > horizon)
        yield times, states, done
        keep = ~done
        path, taken, t, s = path[keep], taken[keep] + steps, t[keep], s[keep]


def sample_path(spec, start, seed, t_horizon):
    """One trajectory from `start`: (jump list [(time, state)...], absorption time).

    The path is path 0 of the integer seed's streams.  The jump list
    starts with (0.0, start) and the absorption time is None when the path
    outlives t_horizon, a positive number or inf.
    """
    _as_int(start, "start", 0, spec.n_states)
    horizon = _as_real(t_horizon, "t_horizon", "positive", inf=True)
    _as_int(seed, "seed", 0, _SEED_MAX)
    if start == 0:
        return [], 0.0
    blocks = list(_walk(spec, InitialDistribution({start: 1.0}), seed, 1, horizon))
    t = np.concatenate([times[1:, 0] for times, _, _ in blocks])
    s = np.concatenate([states[1:, 0] for _, states, _ in blocks])
    end = int(np.argmax((s == 0) | (t > horizon)))
    absorbed = None if t[end] > horizon else float(t[end])
    jumps = end if absorbed is None else end + 1
    traj = [(0.0, int(start))]
    traj += [(float(a), int(b)) for a, b in zip(t[:jumps], s[:jumps])]
    return traj, absorbed


def expected_jumps(spec, nu):
    """Expected number of jumps before absorption, from the initial law nu.

    Solves J_i = 1 + p_i J_{i+1} + q_i J_{i-1}, J_0 = 0, with p_i and q_i
    the up and down jump probabilities, in one O(N) backward sweep over
    the increments d_i = J_i - J_{i-1}: d_i = 1 + (lambda_i / mu_i)(1 +
    d_{i+1}) from d_N = 1 (lambda_N = 0).  Every term is positive, so
    nothing cancels; a count beyond the float range comes out inf.
    """
    nu._check_support(spec.n_states, "initial")
    lam = spec.lam_array().tolist()
    mu = spec.mu_array().tolist()
    d = [0.0] * spec.n_states
    above = 0.0
    for i in range(spec.n_states - 1, -1, -1):
        above = d[i] = 1.0 + lam[i] / mu[i] * (1.0 + above)
    jumps = list(accumulate(d))
    return sum(m * jumps[i - 1] for i, m in nu.items)


def empirical_hitting(spec, config):
    """Absorption times of config.n_paths independent paths.

    Each path draws its start from config.initial with the first uniform
    of its own stream, then walks to absorption or the horizon.
    """
    config.initial._check_support(spec.n_states, "initial")
    horizon = float(config.t_horizon)
    times = []
    censored = 0
    for walked, _, done in _walk(spec, config.initial, config.seed, config.n_paths, horizon):
        t = walked[-1, done]
        over = t > horizon
        censored += int(np.count_nonzero(over))
        times.append(t[~over])
    return HittingSample(
        times=np.sort(np.concatenate(times)),
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
    config.initial._check_support(spec.n_states, "initial")
    t_values = [_as_real(t, f"t_values[{i}]", "nonnegative") for i, t in enumerate(t_values)]
    if any(b < a for a, b in zip(t_values, t_values[1:])):
        raise ValueError("t_values: must be ascending")
    if t_values and t_values[-1] > config.t_horizon:
        raise ValueError(
            f"t_values: checkpoint {t_values[-1]} lies beyond the horizon "
            f"{config.t_horizon}"
        )
    n = spec.n_states
    counts = np.zeros((len(t_values), n + 1), dtype=np.int64)
    if not t_values:
        return counts
    horizon = float(config.t_horizon)
    for times, states, _ in _walk(spec, config.initial, config.seed, config.n_paths, horizon):
        # a path sits in states[k] over [times[k], times[k + 1])
        for c, tc in enumerate(t_values):
            inside = (times[:-1] <= tc) & (tc < times[1:])
            counts[c] += np.bincount(states[:-1][inside], minlength=n + 1)
    counts[:, 0] = config.n_paths - counts[:, 1:].sum(axis=1)
    return counts


def empirical_transition(spec, config, t, j):
    """Empirical P_nu[X_t = j] with its binomial standard error."""
    _as_int(j, "j", 0, spec.n_states)
    t = _as_real(t, "t", "nonnegative")
    counts = empirical_occupancy(spec, config, (t,))
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
