"""Path simulation: determinism, distributional checks, KS machinery."""

import math
import tracemalloc

import numpy as np
import pytest

import bdhit as b
from conftest import random_chain


def exp_cdf(rate):
    return lambda t: 1.0 - np.exp(-rate * t)


def philox_words(seed, path, block):
    """numpy's own Philox words for counter (block, path) under key seed."""
    counter = ((path << 64) + block - 1) % 2**256
    return np.random.Philox(key=seed, counter=counter).random_raw(4)


def uniform(word):
    return (int(word) >> 11) * 2.0**-53


def reference_start(nu, seed, path):
    """The path's start state: word 0 of block 0, inverted through nu's CDF."""
    x = uniform(philox_words(seed, path, 0)[0])
    acc = 0.0
    for s, m in nu.items:
        acc += m
        if x < acc:
            return s
    return nu.items[-1][0]


def reference_walk(spec, nu, seed, path, horizon, checkpoints=()):
    """One path by a scalar loop on numpy's own Philox, per the stream layout.

    Block b of the path is counter (b, path) under key seed; word 0 of
    block 0 picks the start; block b >= 1 gives steps 4b - 4 .. 4b - 1, word
    k to step 4b - 4 + k.  A step's uniform u goes up iff u < p, and
    rescaled within its branch, to v, it times the step.
    Returns (absorption time or None, checkpoint states, jump list).
    """
    lam, mu = spec.lam_array(), spec.mu_array()
    state = reference_start(nu, seed, path)
    t, step, ci = 0.0, 0, 0
    out = [0] * len(checkpoints)
    jumps = [(0.0, state)]
    while True:
        u = uniform(philox_words(seed, path, 1 + step // 4)[step % 4])
        rate = lam[state - 1] + mu[state - 1]
        p = lam[state - 1] / rate
        up = u < p
        v = min(u / p if up else (u - p) / (1.0 - p), 1.0 - 2.0**-53)
        hold = -np.log1p(-np.array([v]))[0]
        t_next = t + hold / rate
        while ci < len(checkpoints) and checkpoints[ci] < t_next:
            out[ci] = state
            ci += 1
        if t_next > horizon:
            return None, out, jumps
        state += 1 if up else -1
        t = t_next
        step += 1
        jumps.append((t, state))
        if state == 0:
            return t, out, jumps


class TestSimConfig:
    def test_validation(self):
        nu = b.InitialDistribution({1: 1.0})
        with pytest.raises(ValueError, match="n_paths"):
            b.SimConfig(0, 10.0, 1, nu)
        with pytest.raises(ValueError, match="n_paths"):
            b.SimConfig(True, 10.0, 1, nu)
        with pytest.raises(ValueError, match="t_horizon"):
            b.SimConfig(10, 0.0, 1, nu)
        with pytest.raises(ValueError, match="t_horizon: must be a real number, got True"):
            b.SimConfig(10, True, 1, nu)
        with pytest.raises(ValueError, match="seed"):
            b.SimConfig(10, 1.0, -1, nu)
        with pytest.raises(ValueError, match="seed"):
            b.SimConfig(10, 1.0, 2**64, nu)
        with pytest.raises(ValueError, match="InitialDistribution"):
            b.SimConfig(10, 1.0, 1, {1: 1.0})

    def test_horizon_read_as_a_real(self, bad_real):
        # True was a horizon of 1; "1" and None raised a bare TypeError
        with pytest.raises(ValueError, match="^t_horizon: must "):
            b.SimConfig(10, bad_real, 1, b.InitialDistribution({1: 1.0}))

    def test_infinite_horizon_accepted(self):
        # no horizon at all: the jump budget guards the run instead
        assert b.SimConfig(10, math.inf, 1, b.InitialDistribution({1: 1.0})).t_horizon == math.inf


class TestSamplePath:
    def test_deterministic_per_seed(self, two_state_chain):
        t1, a1 = b.sample_path(two_state_chain, 1, 99, 50.0)
        t2, a2 = b.sample_path(two_state_chain, 1, 99, 50.0)
        assert t1 == t2
        assert a1 == a2

    def test_trajectory_structure(self, two_state_chain):
        traj, absorbed = b.sample_path(two_state_chain, 2, 7, 500.0)
        assert traj[0] == (0.0, 2)
        times = [t for t, _ in traj]
        assert times == sorted(times)
        for (_, s0), (_, s1) in zip(traj, traj[1:]):
            assert abs(s1 - s0) == 1  # nearest-neighbour jumps only
        assert traj[-1][1] == 0
        assert absorbed == traj[-1][0]

    def test_start_at_absorbing_boundary(self, two_state_chain):
        traj, absorbed = b.sample_path(two_state_chain, 0, 3, 10.0)
        assert traj == []
        assert absorbed == 0.0

    def test_censoring_returns_none(self, two_state_chain):
        traj, absorbed = b.sample_path(two_state_chain, 2, 11, 1e-6)
        assert absorbed is None

    def test_long_path_crosses_block_boundary(self):
        # A 40-state unit-rate walk makes far more jumps than the longest
        # block of steps drawn at once, so the path spans several blocks.
        spec = b.symmetric_rw_spec(1, 40)
        traj, absorbed = b.sample_path(spec, 20, 5, 1e6)
        assert absorbed is not None
        assert len(traj) - 1 > b.simulate._MAX_STEPS

    def test_validation(self, two_state_chain):
        with pytest.raises(ValueError, match="start"):
            b.sample_path(two_state_chain, 5, 1, 1.0)
        for start in (1.5, True):
            with pytest.raises(ValueError, match="start: must be an integer"):
                b.sample_path(two_state_chain, start, 1, 1.0)
        with pytest.raises(ValueError, match="t_horizon"):
            b.sample_path(two_state_chain, 1, 1, 0.0)
        with pytest.raises(ValueError, match="t_horizon: must be a real number, got True"):
            b.sample_path(two_state_chain, 1, 3, True)
        with pytest.raises(ValueError, match="seed"):
            b.sample_path(two_state_chain, 1, np.random.default_rng(1), 1.0)

    def test_horizon_read_as_a_real(self, two_state_chain, bad_real):
        # 10**400 raised an OverflowError, "1" and None a bare TypeError
        with pytest.raises(ValueError, match="^t_horizon: must "):
            b.sample_path(two_state_chain, 1, 3, bad_real)


class TestEmpiricalHitting:
    def test_reproducible_and_sorted(self, two_state_chain):
        nu = b.InitialDistribution({1: 0.5, 2: 0.5})
        cfg = b.SimConfig(500, 100.0, 12345, nu)
        s1 = b.empirical_hitting(two_state_chain, cfg)
        s2 = b.empirical_hitting(two_state_chain, cfg)
        np.testing.assert_array_equal(s1.times, s2.times)
        assert np.all(np.diff(s1.times) >= 0)
        assert s1.n_paths == 500
        assert s1.n_censored + len(s1.times) == 500

    def test_exponential_single_state(self):
        # One interior state with death rate 3: absorption time is Exp(3).
        spec = b.ProcessSpec((0,), (3,))
        cfg = b.SimConfig(20000, 50.0, 7, b.InitialDistribution({1: 1.0}))
        sample = b.empirical_hitting(spec, cfg)
        assert sample.n_censored == 0
        mean = sample.times.mean()
        se = sample.times.std() / math.sqrt(len(sample.times))
        assert abs(mean - 1 / 3) < 4 * se
        assert b.ks_statistic(sample, exp_cdf(3.0)) < 1.6276 / math.sqrt(20000)

    def test_tiny_horizon_censors(self, two_state_chain):
        cfg = b.SimConfig(200, 1e-6, 3, b.InitialDistribution({2: 1.0}))
        sample = b.empirical_hitting(two_state_chain, cfg)
        assert sample.n_censored > 0

    def test_support_validation(self, two_state_chain):
        cfg = b.SimConfig(10, 1.0, 3, b.InitialDistribution({5: 1.0}))
        with pytest.raises(ValueError, match="support reaches state 5"):
            b.empirical_hitting(two_state_chain, cfg)


class TestFirstJumpSplit:
    def test_upward_probability(self):
        # From state 1 with lam = 2, mu = 1 the first jump is up w.p. 2/3.
        spec = b.ProcessSpec((2.0, 0.0), (1.0, 1.0))
        ups = 0
        n = 4000
        for seed in range(n):
            traj, _ = b.sample_path(spec, 1, seed, 1e9)
            ups += traj[1][1] == 2
        p_hat = ups / n
        se = math.sqrt((2 / 3) * (1 / 3) / n)
        assert abs(p_hat - 2 / 3) < 4 * se


class TestStreams:
    def test_philox_matches_numpy_raw_words(self):
        # Each counter's four words are numpy's Philox output for the same
        # key, one counter step earlier (numpy steps its counter first).
        rng = np.random.default_rng(4)
        for _ in range(20):
            key = [int(k) for k in rng.integers(0, 2**64, 2, dtype=np.uint64)]
            ctr = [int(c) for c in rng.integers(0, 2**64, 4, dtype=np.uint64)]
            value = sum(c << (64 * i) for i, c in enumerate(ctr))
            raw = np.random.Philox(
                key=key[0] + (key[1] << 64), counter=(value - 1) % 2**256
            ).random_raw(4)
            (x0, x2), (x1, x3) = b.simulate._philox4x64([[c] for c in ctr], key)
            assert [int(w[0]) for w in (x0, x1, x2, x3)] == [int(w) for w in raw]

    def test_philox_known_answer(self):
        # Random123's known answer for Philox4x64-10, zero key and counter.
        (x0, x2), (x1, x3) = b.simulate._philox4x64([[0]] * 4, (0, 0))
        assert [int(w[0]) for w in (x0, x1, x2, x3)] == [
            0x16554D9ECA36314C, 0xDB20FE9D672D0FDC, 0xD7E772CEE186176B, 0x7E68B68AEC7BA23B,
        ]

    def test_walker_follows_the_stream_layout(self):
        # The batched walker against a scalar loop over numpy's Philox:
        # the same absorption times, censoring and checkpoint states.
        spec = random_chain(76, n=6)
        nu = b.InitialDistribution({1: 0.25, 3: 0.5, 6: 0.25})
        cfg = b.SimConfig(200, 6.0, 2**63 + 5, nu)
        cps = [0.0, 0.4, 2.5, 6.0]
        ref = [reference_walk(spec, nu, cfg.seed, p, 6.0, cps) for p in range(200)]
        sample = b.empirical_hitting(spec, cfg)
        hits = sorted(hit for hit, _, _ in ref if hit is not None)
        assert 0 < sample.n_censored < 200
        assert sample.n_censored == 200 - len(hits)
        np.testing.assert_array_equal(sample.times, hits)
        counts = np.zeros((len(cps), spec.n_states + 1), dtype=np.int64)
        for _, states, _ in ref:
            for c, st in enumerate(states):
                counts[c, st] += 1
        np.testing.assert_array_equal(b.empirical_occupancy(spec, cfg, cps), counts)
        one = b.InitialDistribution({4: 1.0})
        for seed in (0, 3, 2**64 - 1):
            hit, _, jumps = reference_walk(spec, one, seed, 0, 50.0)
            assert b.sample_path(spec, 4, seed, 50.0) == (jumps, hit)

    def test_paths_do_not_depend_on_batching(self):
        # A path's stream is a function of (seed, path, step) alone: the
        # first 500 paths of a 2000-path run are the 500-path run.
        spec = random_chain(77, n=8)
        nu = b.InitialDistribution({1: 0.5, 3: 0.5})
        small = b.empirical_hitting(spec, b.SimConfig(500, 1e4, 8, nu)).times
        large = b.empirical_hitting(spec, b.SimConfig(2000, 1e4, 8, nu)).times
        assert len(small) == 500 and len(large) == 2000
        assert np.all(np.isin(small, large))

    def test_live_set_size_does_not_change_results(self, monkeypatch):
        spec = random_chain(78, n=6)
        nu = b.InitialDistribution({2: 1.0})
        cfg = b.SimConfig(300, 1e4, 21, nu)
        wide = b.empirical_hitting(spec, cfg).times
        counts = b.empirical_occupancy(spec, cfg, [0.5, 2.0])
        monkeypatch.setattr(b.simulate, "_LIVE", 7)
        monkeypatch.setattr(b.simulate, "_CAP", 64)
        np.testing.assert_array_equal(b.empirical_hitting(spec, cfg).times, wide)
        np.testing.assert_array_equal(b.empirical_occupancy(spec, cfg, [0.5, 2.0]), counts)
        # blocks that stop growing at 4 steps cut every path elsewhere
        monkeypatch.setattr(b.simulate, "_MAX_STEPS", 4)
        np.testing.assert_array_equal(b.empirical_hitting(spec, cfg).times, wide)
        np.testing.assert_array_equal(b.empirical_occupancy(spec, cfg, [0.5, 2.0]), counts)
        # Blocks of at most _SCALAR live paths step path by path, the others
        # as numpy rows: all numpy (0), the default mix and all path by path
        # (_LIVE) agree bit for bit, also where the horizon censors paths in
        # the middle of a block.
        monkeypatch.undo()

        def results():
            short = b.SimConfig(300, 20.0, 21, nu)
            cut = b.empirical_hitting(spec, short)
            return [
                b.empirical_hitting(spec, cfg).times.tolist(),
                b.empirical_occupancy(spec, cfg, [0.5, 2.0, 30.0]).tolist(),
                cut.times.tolist(),
                cut.n_censored,
                b.empirical_occupancy(spec, short, [0.5, 2.0, 19.9]).tolist(),
                b.sample_path(spec, 6, 21, 1e4),
                b.sample_path(spec, 6, 21, 8.0),
            ]

        mixed = results()
        assert 0 < mixed[3] < 300  # some paths censored, not all
        assert mixed[5][1] is not None and mixed[6][1] is None
        for scalar in (0, b.simulate._LIVE):
            monkeypatch.setattr(b.simulate, "_SCALAR", scalar)
            assert results() == mixed

    def test_largest_uniform_holds_a_finite_time(self, monkeypatch):
        # Every word all ones: u = 1 - 2^-53 goes down from p = 0.3, where
        # (u - p) / (1 - p) rounds to 1; kept below 1, v gives a finite
        # holding time, -log(2^-53) / rate.
        def all_ones(counter, key):
            shape = (2,) + np.broadcast_shapes(*(np.shape(c) for c in counter))
            words = np.full(shape, 2**64 - 1, dtype=np.uint64)
            return words, words.copy()

        monkeypatch.setattr(b.simulate, "_philox4x64", all_ones)
        spec = b.ProcessSpec((3.0, 0.0), (7.0, 1.0))
        traj, absorbed = b.sample_path(spec, 1, 0, 1e3)
        assert absorbed == pytest.approx(53 * math.log(2) / 10, rel=1e-12)
        assert traj == [(0.0, 1), (absorbed, 0)]

    def test_blocks_grow_as_the_walk_drains(self, monkeypatch):
        # One live path: each block draws twice the steps of the one
        # before, up to _CAP = 16384 (a path stepped on its own stops at
        # absorption), in one Philox call, so a path of ~1900 jumps takes 8
        # calls, not one per short block.
        calls = []
        philox = b.simulate._philox4x64

        def counted(counter, key):
            calls.append(4 * np.shape(counter[0])[0])  # one word per step
            return philox(counter, key)

        monkeypatch.setattr(b.simulate, "_philox4x64", counted)
        traj, absorbed = b.sample_path(b.symmetric_rw_spec(1, 40), 20, 5, 1e6)
        assert absorbed is not None
        assert calls == [min(8 << k, 2**14) for k in range(len(calls))]
        assert sum(calls[:-1]) < len(traj) - 1 <= sum(calls)
        assert len(calls) <= 8

    def test_memory_stays_flat(self):
        # 1e4 paths walk in a live set of at most _LIVE paths: the work
        # arrays stay well under a megabyte or two, not O(paths x steps).
        spec = random_chain(80, n=10)
        cfg = b.SimConfig(10_000, 1e4, 6, b.InitialDistribution({1: 0.5, 7: 0.5}))
        tracemalloc.start()
        try:
            sample = b.empirical_hitting(spec, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(sample.times) == 10_000
        assert peak < 4 * 2**20

    def test_start_states_survive_refills(self, monkeypatch):
        # Start states are drawn ahead, _CAP paths at a time, and handed out
        # as the live set refills; each path still starts where its own
        # stream says.  Paths join the live set in order, after the
        # survivors of the block before.
        monkeypatch.setattr(b.simulate, "_LIVE", 5)
        monkeypatch.setattr(b.simulate, "_CAP", 64)
        spec = random_chain(79, n=6)
        nu = b.InitialDistribution({1: 0.3, 2: 0.2, 5: 0.5})
        seed, n_paths = 2**40 + 3, 150
        live, begun = [], {}
        for _, states, done in b.simulate._walk(spec, nu, seed, n_paths, 1e4):
            first = len(begun)
            live += range(first, first + states.shape[1] - len(live))
            begun.update((p, int(states[0, k])) for k, p in enumerate(live) if p >= first)
            live = [p for p, d in zip(live, done) if not d]
        assert list(begun) == list(range(n_paths))
        assert begun == {p: reference_start(nu, seed, p) for p in range(n_paths)}


class TestExpectedJumps:
    def test_matches_dense_solve(self):
        spec = random_chain(79, n=12)
        lam, mu = spec.lam_array(), spec.mu_array()
        n = spec.n_states
        # (I - P) J = 1 over the interior states of the jump chain
        a = np.eye(n)
        for i in range(n):
            rate = lam[i] + mu[i]
            if i + 1 < n:
                a[i, i + 1] -= lam[i] / rate
            if i > 0:
                a[i, i - 1] -= mu[i] / rate
        want = np.linalg.solve(a, np.ones(n))
        for i in range(1, n + 1):
            got = b.expected_jumps(spec, b.InitialDistribution({i: 1.0}))
            assert got == pytest.approx(want[i - 1], rel=1e-12)
        nu = b.InitialDistribution({2: 0.25, 9: 0.75})
        assert b.expected_jumps(spec, nu) == pytest.approx(0.25 * want[1] + 0.75 * want[8])

    def test_symmetric_walk_closed_form(self):
        # From 1, with reflection at N: 2N - 1 jumps on average.
        for n in (1, 5, 40):
            spec = b.symmetric_rw_spec(1, n)
            assert b.expected_jumps(spec, b.InitialDistribution({1: 1.0})) == 2 * n - 1

    def test_drifted_walk_overflows_to_inf(self):
        spec = b.asymmetric_rw(2, 1, 1100)[0]
        assert b.expected_jumps(spec, b.InitialDistribution({1: 1.0})) == math.inf

    def test_support_validation(self, two_state_chain):
        with pytest.raises(ValueError, match="support reaches state 5"):
            b.expected_jumps(two_state_chain, b.InitialDistribution({5: 1.0}))


class TestEmpiricalOccupancy:
    def test_counts_shape_and_total(self, two_state_chain):
        nu = b.InitialDistribution({2: 1.0})
        cfg = b.SimConfig(300, 50.0, 21, nu)
        counts = b.empirical_occupancy(two_state_chain, cfg, [0.5, 1.0, 2.0])
        assert counts.shape == (3, 3)  # states 0..2
        assert counts.dtype == np.int64
        np.testing.assert_array_equal(counts.sum(axis=1), [300, 300, 300])

    def test_occupancy_matches_spectral_transition(self, two_state_chain):
        ev = b.finite_evaluator(two_state_chain)
        nu = b.InitialDistribution({1: 1.0})
        n = 20000
        cfg = b.SimConfig(n, 50.0, 2024, nu)
        counts = b.empirical_occupancy(two_state_chain, cfg, [0.7])
        for j in (1, 2):
            p = b.spectral_sum(ev, (0.7,), 1, ("state", j))[0]
            se = math.sqrt(p * (1 - p) / n)
            assert abs(counts[0, j] / n - p) < 4 * se

    def test_same_streams_as_hitting(self, two_state_chain):
        # Occupancy at a late checkpoint reproduces the hitting-time count:
        # paths absorbed before t sit in state 0.
        nu = b.InitialDistribution({2: 1.0})
        cfg = b.SimConfig(500, 100.0, 31, nu)
        sample = b.empirical_hitting(two_state_chain, cfg)
        counts = b.empirical_occupancy(two_state_chain, cfg, [5.0])
        absorbed_by_5 = int(np.searchsorted(sample.times, 5.0, side="left"))
        assert counts[0, 0] == absorbed_by_5

    def test_no_checkpoints_walks_no_path(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("paths walked for no checkpoint")

        monkeypatch.setattr(b.simulate, "_walk", refuse)
        cfg = b.SimConfig(20_000, 50.0, 5, b.InitialDistribution({1: 1.0}))
        counts = b.empirical_occupancy(b.symmetric_rw_spec(1, 10), cfg, [])
        assert counts.shape == (0, 11)
        assert counts.dtype == np.int64

    def test_checkpoint_validation(self, two_state_chain):
        cfg = b.SimConfig(10, 1.0, 3, b.InitialDistribution({1: 1.0}))
        with pytest.raises(ValueError, match="ascending"):
            b.empirical_occupancy(two_state_chain, cfg, [1.0, 0.5])
        with pytest.raises(ValueError, match="beyond the horizon"):
            b.empirical_occupancy(two_state_chain, cfg, [0.5, 2.0])
        with pytest.raises(ValueError, match=r"t_values\[0\]: must be nonnegative, got -0.5"):
            b.empirical_occupancy(two_state_chain, cfg, [-0.5, 0.7])
        # every comparison with nan is False: it must not pass as a checkpoint
        for bad, i, got in (([math.nan], 0, "nan"), ([0.2, math.nan], 1, "nan"),
                            ([-math.inf, 0.5], 0, "-inf")):
            message = rf"t_values\[{i}\]: must be nonnegative, got {got}"
            with pytest.raises(ValueError, match=message):
                b.empirical_occupancy(two_state_chain, cfg, bad)

    def test_checkpoint_read_as_a_real(self, two_state_chain, bad_real):
        # True was the checkpoint 1.0; "1" and None raised a bare TypeError
        cfg = b.SimConfig(10, 2.0, 3, b.InitialDistribution({1: 1.0}))
        with pytest.raises(ValueError, match=r"^t_values\[1\]: must "):
            b.empirical_occupancy(two_state_chain, cfg, [0.5, bad_real])


class TestEmpiricalTransition:
    def test_frequency_and_stderr(self, two_state_chain):
        nu = b.InitialDistribution({1: 1.0})
        cfg = b.SimConfig(5000, 50.0, 99, nu)
        freq, se = b.empirical_transition(two_state_chain, cfg, 0.5, 1)
        assert 0 <= freq <= 1
        assert se == pytest.approx(math.sqrt(freq * (1 - freq) / 5000))
        ev = b.finite_evaluator(two_state_chain)
        p = b.spectral_sum(ev, (0.5,), 1, ("state", 1))[0]
        assert abs(freq - p) < 4 * math.sqrt(p * (1 - p) / 5000)

    def test_state_validation(self, two_state_chain):
        cfg = b.SimConfig(10, 1.0, 3, b.InitialDistribution({1: 1.0}))
        with pytest.raises(ValueError, match="j 9: outside 0..2"):
            b.empirical_transition(two_state_chain, cfg, 0.5, 9)
        for j in (2.5, True):
            with pytest.raises(ValueError, match="j: must be an integer"):
                b.empirical_transition(two_state_chain, cfg, 0.5, j)
        with pytest.raises(ValueError, match="t: must be nonnegative, got nan"):
            b.empirical_transition(two_state_chain, cfg, math.nan, 0)

    def test_time_read_as_a_real(self, two_state_chain, bad_real):
        # True was t = 1; "1" and None raised a bare TypeError
        cfg = b.SimConfig(10, 2.0, 3, b.InitialDistribution({1: 1.0}))
        with pytest.raises(ValueError, match="^t: must "):
            b.empirical_transition(two_state_chain, cfg, bad_real, 0)


class TestKSStatistic:
    def test_exact_value_on_uniform_grid(self):
        # Points at (i - 0.5)/n against the uniform CDF: D = 0.5/n exactly.
        n = 8
        times = (np.arange(n) + 0.5) / n
        sample = b.HittingSample(times=times, n_censored=0, horizon=1.0, n_paths=n)
        assert b.ks_statistic(sample, lambda t: t) == pytest.approx(0.5 / n, abs=1e-15)

    def test_detects_wrong_distribution(self):
        spec = b.ProcessSpec((0,), (3,))
        cfg = b.SimConfig(5000, 50.0, 7, b.InitialDistribution({1: 1.0}))
        sample = b.empirical_hitting(spec, cfg)
        # Same mean, wrong shape: absorption is Exp(3), not Exp(2).
        assert b.ks_statistic(sample, exp_cdf(2.0)) > 1.6276 / math.sqrt(5000)

    def test_refuses_censored_sample(self, two_state_chain):
        cfg = b.SimConfig(100, 1e-6, 3, b.InitialDistribution({2: 1.0}))
        sample = b.empirical_hitting(two_state_chain, cfg)
        with pytest.raises(ValueError, match="raise t_horizon"):
            b.ks_statistic(sample, lambda t: t)

    def test_cdf_called_once_on_sorted_times(self):
        calls = []

        def cdf(t):
            calls.append(np.array(t))
            return t

        b.ks_statistic([0.7, 0.1, 0.4], cdf)
        assert len(calls) == 1
        np.testing.assert_array_equal(calls[0], [0.1, 0.4, 0.7])

    def test_refuses_wrong_length(self):
        with pytest.raises(ValueError, match=r"cdf: returned shape \(2,\) for 3 sample times"):
            b.ks_statistic([0.1, 0.2, 0.3], lambda t: t[:2])
        with pytest.raises(ValueError, match=r"cdf: returned shape \(\) for 3 sample times"):
            b.ks_statistic([0.1, 0.2, 0.3], lambda t: 0.5)

    def test_one_call_matches_point_by_point(self):
        # Guards simulate_summary.json: the statistic from one CDF call over
        # the sorted sample is the statistic from one-point kernel calls.
        spec = random_chain(1201)
        nu = b.InitialDistribution({1: 0.3, 4: 0.5, 7: 0.2})
        ev = b.finite_evaluator(spec)
        cfg = b.SimConfig(10_000, 80.0 / float(ev.theta[0]), 5, nu)
        sample = b.empirical_hitting(spec, cfg)
        one_call = b.ks_statistic(sample, lambda t: b.spectral_sum(ev, t, nu, transform="cdf"))
        by_point = b.ks_statistic(
            sample,
            lambda t: [b.spectral_sum(ev, (x,), nu, transform="cdf")[0] for x in t],
        )
        assert one_call == by_point

    def test_refuses_empty_sample(self):
        sample = b.HittingSample(
            times=np.array([]), n_censored=0, horizon=1.0, n_paths=0
        )
        with pytest.raises(ValueError, match="empty"):
            b.ks_statistic(sample, lambda t: t)
