"""Transition probabilities and hitting-time densities from the spectral data."""

import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg

import bdhit as b
from bdhit.densities import _grid_sum
from bdhit.oracles import interior_rate_matrix, rw_hitting_density_closed_form
from conftest import walk_table


class TestInitialDistribution:
    def test_point_mass(self):
        nu = b.InitialDistribution({3: 1})
        assert nu.states == (3,)
        assert nu.mass(3) == 1.0
        assert nu.mass(1) == 0.0
        assert nu.max_state == 3

    def test_as_vector(self):
        nu = b.InitialDistribution({1: 0.25, 4: 0.75})
        np.testing.assert_allclose(nu.as_vector(5), [0.25, 0, 0, 0.75, 0])

    def test_as_vector_too_short(self):
        nu = b.InitialDistribution({4: 1.0})
        with pytest.raises(ValueError, match="support reaches state 4"):
            nu.as_vector(3)

    def test_equality(self):
        assert b.InitialDistribution({1: 0.5, 2: 0.5}) == b.InitialDistribution(
            {2: 0.5, 1: 0.5}
        )

    def test_rejects_bad_masses(self):
        with pytest.raises(ValueError, match="must be positive"):
            b.InitialDistribution({1: 0.0, 2: 1.0})
        with pytest.raises(ValueError, match="sum to"):
            b.InitialDistribution({1: 0.4, 2: 0.4})
        with pytest.raises(ValueError, match="at least one state"):
            b.InitialDistribution({})
        with pytest.raises(ValueError, match="nu: mass at state 1: must be a real number, got True"):
            b.InitialDistribution({1: True})

    @pytest.mark.parametrize("mass", ["1", None, 1j], ids=["str", "none", "complex"])
    def test_rejects_non_numeric_mass(self, mass):
        # these raised a bare TypeError from the comparison with 0
        with pytest.raises(ValueError, match=re.escape(f"nu: mass at state 1: must be a real number, got {mass!r}")):
            b.InitialDistribution({1: mass})

    @pytest.mark.parametrize("mass, problem", [
        (math.inf, "must be finite"), (math.nan, "must be positive"),
        (1.5, "must be at most 1"), (1e308, "must be at most 1"),
    ], ids=["inf", "nan", "1.5", "1e+308"])
    def test_rejects_mass_outside_unit_interval(self, mass, problem):
        # 1e308 twice overflowed math.fsum; inf reached it as well
        with pytest.raises(ValueError, match=re.escape(f"nu: mass at state 2: {problem}, got {mass}")):
            b.InitialDistribution({1: 0.5, 2: mass})

    def test_mass_read_as_a_real(self, bad_real):
        # "1" and None raised a bare TypeError from the comparison with 0,
        # 10**400 an OverflowError from math.fsum
        with pytest.raises(ValueError, match="^nu: mass at state 2: must "):
            b.InitialDistribution({1: 0.5, 2: bad_real})

    def test_accepts_exact_and_numpy_masses(self):
        nu = b.InitialDistribution({1: Fraction(1, 4), 2: np.float64(0.25), np.int64(3): 0.5})
        assert nu.items == ((1, 0.25), (2, 0.25), (3, 0.5))

    def test_mixed_state_types_refused_naming_nu(self):
        # a str beside an int state failed inside sorted
        with pytest.raises(ValueError, match="nu state: must be an integer, got 'a'"):
            b.InitialDistribution({"a": 0.5, 1: 0.5})

    def test_rejects_bad_states(self):
        with pytest.raises(ValueError, match="nu state: must be an integer, got 1.5"):
            b.InitialDistribution({1.5: 1.0})
        with pytest.raises(ValueError, match="nu state: must be an integer, got True"):
            b.InitialDistribution({True: 1.0})
        with pytest.raises(ValueError, match="nu state: must be >= 1, got 0"):
            b.InitialDistribution({0: 1.0})


class TestFiniteEvaluator:
    def test_shape_and_flags(self, chain_factory):
        ev = b.finite_evaluator(chain_factory(51))
        assert ev.n_states == 10
        assert not ev.is_continuous
        assert ev.psi_at(range(1, 11)).shape == (10, 10)

    @pytest.mark.parametrize("c_rows", [2.5, True, 0])
    def test_c_rows_must_be_an_integer(self, chain_factory, c_rows):
        # 2.5 was truncated to 2 rows; 0 was refused naming max_index
        problem = "must be >= 1" if c_rows == 0 else "must be an integer"
        with pytest.raises(ValueError, match=f"c_rows: {problem}, got {c_rows}"):
            b.finite_evaluator(chain_factory(51), c_rows=c_rows)

    def test_psi_is_the_table_the_weights_came_from(self, chain_factory):
        spec = chain_factory(52)
        ev = b.finite_evaluator(spec)
        psi = ev.psi_at(range(1, 11))
        assert np.array_equal(psi, walk_table(spec, -ev.theta))
        weights = 1.0 / np.einsum("ki,i,ki->k", psi, ev.pi, psi)
        assert np.array_equal(ev.weights, weights)

    def test_memory_is_linear_in_the_states(self):
        # The weights come from one recurrence pass and psi is kept for 16
        # states only: no N x N table (31 MiB at N = 2000).
        spec = b.symmetric_rw_spec(1, 2000)
        tracemalloc.start()
        try:
            ev = b.finite_evaluator(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ev.n_states == 2000
        assert peak < 4 * 2**20

    def test_pi_is_the_speed_measures_one_float_copy(self, chain_factory):
        ev = b.finite_evaluator(chain_factory(52))
        assert ev.pi is ev.c.pi.array()
        assert not ev.pi.flags.writeable

    @pytest.mark.parametrize("t", [0.1, 1.0, 10.0])
    def test_transition_matches_expm(self, chain_factory, t):
        spec = chain_factory(53)
        ev = b.finite_evaluator(spec)
        want = scipy.linalg.expm(interior_rate_matrix(spec) * t)
        got = np.array(
            [
                [b.spectral_sum(ev, (t,), i, ("state", j))[0] for j in range(1, 11)]
                for i in range(1, 11)
            ]
        )
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_transition_at_zero_is_identity(self, chain_factory):
        ev = b.finite_evaluator(chain_factory(54))
        for i in (1, 4, 10):
            assert b.spectral_sum(ev, (0.0,), i, ("state", i))[0] == pytest.approx(1.0, abs=1e-12)
            assert abs(b.spectral_sum(ev, (0.0,), i, ("state", (i % 10) + 1))[0]) < 1e-12

    def test_chapman_kolmogorov(self, chain_factory):
        spec = chain_factory(55)
        ev = b.finite_evaluator(spec)
        t, u = 0.4, 0.9
        n = spec.n_states
        p = np.array(
            [
                [b.spectral_sum(ev, (t, u, t + u), i, ("state", j)) for j in range(1, n + 1)]
                for i in range(1, n + 1)
            ]
        )
        np.testing.assert_allclose(p[:, :, 0] @ p[:, :, 1], p[:, :, 2], rtol=0, atol=1e-12)

    def test_hitting_density_is_mu1_times_return(self, chain_factory):
        # f_i(t) = mu_1 P_t(i, 1): absorption happens from state 1 at rate mu_1.
        spec = chain_factory(56)
        ev = b.finite_evaluator(spec)
        mu1 = float(spec.mu[0])
        ts = (0.05, 0.7, 3.0)
        for i in (1, 3, 8):
            assert b.spectral_sum(ev, ts, i) == pytest.approx(
                mu1 * b.spectral_sum(ev, ts, i, ("state", 1)), rel=1e-12, abs=1e-15
            )

    def test_density_integrates_to_one(self, chain_factory):
        spec = chain_factory(57)
        ev = b.finite_evaluator(spec)
        mass, err = scipy.integrate.quad(lambda t: b.spectral_sum(ev, (t,), 4)[0], 0, np.inf)
        assert mass == pytest.approx(1.0, abs=1e-9)

    def test_density_nonnegative_on_grid(self, chain_factory):
        # Densities that are mathematically ~0 (far states, tiny t) come out
        # as cancellation noise, so the floor is the summation noise scale.
        ev = b.finite_evaluator(chain_factory(58))
        grid = b.time_grid(1e-4, 50.0, 60, log=True)
        for i in (1, 5, 10):
            assert np.all(b.spectral_sum(ev, grid, i) >= -1e-12)

    def test_derivative_matches_finite_difference(self, chain_factory):
        ev = b.finite_evaluator(chain_factory(59))
        t, h, i = 1.2, 1e-5, 3
        below, above = b.spectral_sum(ev, (t - h, t + h), i)
        num = (above - below) / (2 * h)
        assert b.spectral_sum(ev, (t,), i, transform=1)[0] == pytest.approx(num, rel=1e-8)

    def test_derivative_rejects_negative_order(self, chain_factory):
        ev = b.finite_evaluator(chain_factory(59))
        with pytest.raises(ValueError, match="order"):
            b.spectral_sum(ev, (1.0,), 1, transform=-1)

    def test_mixture_is_convex_combination(self, chain_factory):
        ev = b.finite_evaluator(chain_factory(60))
        nu = b.InitialDistribution({2: 0.25, 5: 0.75})
        ts = (0.2, 1.5)
        want = 0.25 * b.spectral_sum(ev, ts, 2) + 0.75 * b.spectral_sum(ev, ts, 5)
        assert b.spectral_sum(ev, ts, nu) == pytest.approx(want, rel=1e-14)

    def test_state_and_time_validation(self, chain_factory):
        ev = b.finite_evaluator(chain_factory(61))
        with pytest.raises(ValueError, match="outside 1..10"):
            b.spectral_sum(ev, (1.0,), 11)
        with pytest.raises(ValueError, match="outside 1..10"):
            b.spectral_sum(ev, (1.0,), 0, ("state", 1))
        with pytest.raises(ValueError, match="t: must be nonnegative"):
            b.spectral_sum(ev, (-0.1,), 1)
        with pytest.raises(ValueError, match="support reaches state"):
            b.spectral_sum(ev, (1.0,), b.InitialDistribution({11: 1.0}))
        two = np.int64(2)  # numpy integers are states too
        want = b.spectral_sum(ev, (1.0,), 2, ("state", 2))
        assert b.spectral_sum(ev, (1.0,), two, ("state", two)) == want


class TestHittingCdf:
    def test_limits_and_monotonicity(self, chain_factory):
        spec = chain_factory(62)
        ev = b.finite_evaluator(spec)
        nu = b.InitialDistribution({1: 0.5, 3: 0.5})
        horizon = 40.0 / float(min(ev.theta))
        at_zero, at_horizon = b.spectral_sum(ev, (0.0, horizon), nu, transform="cdf")
        assert at_zero == pytest.approx(0.0, abs=1e-13)
        assert at_horizon == pytest.approx(1.0, abs=1e-9)
        grid = b.time_grid(0.01, horizon, 40, log=True)
        vals = b.spectral_sum(ev, grid, nu, transform="cdf")
        assert np.all(vals[:-1] <= vals[1:] + 1e-12)

    def test_cdf_is_integral_of_density(self, chain_factory):
        ev = b.finite_evaluator(chain_factory(63))
        nu = b.InitialDistribution({2: 1.0})
        T = 1.7
        mass, err = scipy.integrate.quad(lambda t: b.spectral_sum(ev, (t,), nu)[0], 0, T)
        assert b.spectral_sum(ev, (T,), nu, transform="cdf")[0] == pytest.approx(mass, abs=1e-10)

    def test_continuous_spectrum_refused(self):
        ev = b.rw_evaluator(1.0, n_nodes=64, n_states=16)
        with pytest.raises(ValueError, match="loses the 1/theta tail"):
            b.spectral_sum(ev, (1.0,), b.InitialDistribution({1: 1.0}), transform="cdf")

    @pytest.mark.parametrize(
        "spec",
        [b.asymmetric_rw(2, 1, 40)[0], b.symmetric_rw_spec(1, 50)],
        ids=["drift-40", "walk-50"],
    )
    def test_small_t_is_mu1_t(self, spec):
        # F_1(t) = mu_1 t (1 + O(t)): 1 - exp(-theta t) would lose the
        # leading digits of every term at t = 1e-12.
        ev = b.finite_evaluator(spec)
        t = 1e-12
        got = b.spectral_sum(ev, (t,), b.InitialDistribution({1: 1.0}), transform="cdf")[0]
        assert abs(got / (float(spec.mu[0]) * t) - 1.0) <= 1e-10


class TestSpectralSum:
    """The one kernel behind every spectral evaluation."""

    @pytest.mark.parametrize(
        "chain, pairs",
        [
            ("walk-200", [(1, 2), (2, 1), (3, 9), (10, 40), (1, 200)]),
            ("random-20", [(1, 2), (2, 1), (4, 11), (1, 20), (20, 3)]),
        ],
    )
    def test_alternating_sums_against_mpmath(self, chain_factory, chain, pairs):
        # Off-diagonal transitions at small t: terms of both signs and
        # magnitude O(1) cancel down to p.  The reference sums the same
        # float spectral data exactly at 50 digits, so only the kernel's
        # own rounding (exp and the pairwise sum) is measured.
        mpmath = pytest.importorskip("mpmath")
        spec = b.symmetric_rw_spec(1, 200) if chain == "walk-200" else chain_factory(71, n=20)
        ev = b.finite_evaluator(spec)
        ts = np.array([0.01, 0.1, 1.0])
        mpf = mpmath.mpf
        with mpmath.workdps(50):
            for i, j in pairs:
                got = b.spectral_sum(ev, ts, i, ("state", j))
                terms = list(zip(ev.weights, ev.theta, *ev.psi_at((i, j)).T))
                for t, p in zip(ts, got):
                    want = mpf(ev.pi[j - 1]) * mpmath.fsum(
                        mpf(w) * mpmath.exp(-mpf(th) * mpf(t)) * mpf(a) * mpf(c)
                        for w, th, a, c in terms
                    )
                    assert abs(p - float(want)) <= 1e-12 * max(1.0, abs(p)), (i, j, t)

    @pytest.mark.parametrize(
        "which, start, target, transform",
        [
            ("walk", b.InitialDistribution({1: 0.2, 5: 0.5, 9: 0.3}), "absorption", 0),
            ("walk", 3, ("state", 7), 0),
            ("walk", 2, ("c_row", 4), 0),
            ("walk", 1, "absorption", 2),
            ("walk", b.InitialDistribution({2: 1.0}), "absorption", "cdf"),
            ("continuous", 1, "absorption", 0),
        ],
    )
    def test_grid_call_is_bit_identical_to_pieces(self, which, start, target, transform):
        ev = (
            b.finite_evaluator(b.symmetric_rw_spec(1, 200))
            if which == "walk"
            else b.rw_evaluator(1, n_nodes=512, n_states=64)
        )
        grid = b.time_grid(0.01, 5.0, 20000)
        whole = b.spectral_sum(ev, grid, start, target, transform)
        cuts = [1, 2, 655, 656, 1000, 7777, 19999]  # a block holds 655 rows of 200 atoms
        pieces = [b.spectral_sum(ev, p, start, target, transform) for p in np.split(grid, cuts)]
        assert np.array_equal(whole, np.concatenate(pieces))

    def test_one_point_calls_match_the_grid(self, chain_factory):
        # What keeps KS statistics and recovered masses byte-stable when a
        # caller passes its times together instead of one at a time.
        ev = b.finite_evaluator(chain_factory(72))
        nu = b.InitialDistribution({1: 0.25, 3: 0.5, 6: 0.25})
        grid = b.time_grid(0.0, 4.0, 41)
        cases = [
            (2, ("state", 5), 0),
            (4, "absorption", 0),
            (4, "absorption", 3),
            (nu, "absorption", 0),
            (nu, "absorption", "cdf"),
            (nu, ("c_row", 3), 0),
        ]
        for start, target, transform in cases:
            on_grid = b.spectral_sum(ev, grid, start, target, transform)
            points = [b.spectral_sum(ev, (t,), start, target, transform)[0] for t in grid]
            assert points == on_grid.tolist()

    def test_long_grid_memory_is_blocked(self):
        # 20 000 x 512 float64 would be 82 MB in one piece.
        ev = b.rw_evaluator(1, n_nodes=512, n_states=64)
        grid = b.time_grid(0.01, 5.0, 20000)
        tracemalloc.start()
        try:
            b.spectral_sum(ev, grid, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8e6

    def test_validation(self, chain_factory):
        ev = b.finite_evaluator(chain_factory(73))
        rw = b.rw_evaluator(1.0, n_nodes=64, n_states=8)
        with pytest.raises(ValueError, match="t: must be nonnegative, got -0.5"):
            b.spectral_sum(ev, [0.1, -0.5, 1.0], 1)
        with pytest.raises(ValueError, match="t: must be nonnegative, got nan"):
            b.spectral_sum(ev, [0.1, np.nan, 1.0], 1)
        with pytest.raises(ValueError, match="t: must be nonnegative, got nan"):
            b.spectral_sum(ev, [np.nan], b.InitialDistribution({1: 1.0}), transform="cdf")
        with pytest.raises(ValueError, match="one-dimensional"):
            b.spectral_sum(ev, [[0.1]], 1)
        with pytest.raises(ValueError, match="needs t > 0"):
            b.spectral_sum(rw, [1.0, 0.0], 1)
        with pytest.raises(ValueError, match="target state 11: outside 1..10"):
            b.spectral_sum(ev, [1.0], 1, ("state", 11))
        # c_row 0 and -1 once fell through to an IndexError
        for j in (0, -1):
            with pytest.raises(ValueError, match=f"target state: must be >= 1, got {j}"):
                b.spectral_sum(ev, [1.0], 1, ("c_row", j))
        with pytest.raises(ValueError, match="expected 'state' or 'c_row'"):
            b.spectral_sum(ev, [1.0], 1, ("row", 2))
        with pytest.raises(ValueError, match="loses the 1/theta tail"):
            b.spectral_sum(rw, [1.0], 1, transform="cdf")
        with pytest.raises(ValueError, match="transform order: must be >= 0, got -1"):
            b.spectral_sum(ev, [1.0], 1, transform=-1)
        assert b.spectral_sum(ev, [], 1).shape == (0,)
        # +inf stays allowed: verify reads the total mass as the CDF there.
        assert b.spectral_sum(ev, [np.inf], 1, transform="cdf")[0] == pytest.approx(1.0, abs=1e-12)


    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"transform": 1.5}, "transform order: must be an integer, got 1.5"),
            ({"transform": True}, "transform order: must be an integer, got True"),
            ({"transform": "CDF"}, "transform order: must be an integer, got 'CDF'"),
            ({"target": "absorb"},
             "target: expected 'absorption' or a (kind, state) pair, got 'absorb'"),
            ({"target": ("state", 2.0)}, "target state: must be an integer, got 2.0"),
            ({"start": 1.5}, "state: must be an integer, got 1.5"),
            ({"start": True}, "state: must be an integer, got True"),
        ],
        ids=["fractional-order", "bool-order", "unknown-transform", "bare-string-target",
             "float-target-state", "fractional-start", "bool-start"],
    )
    def test_refuses_malformed_argument(self, kwargs, message):
        ev = b.finite_evaluator(b.symmetric_rw_spec(1, 10))
        with pytest.raises(ValueError, match=re.escape(message)):
            b.spectral_sum(ev, (1.0, 2.0), **{"start": 1, **kwargs})


def sum_coefficients(ev, start, target):
    """c_k of f = sum_k c_k exp(-theta_k t), read off the evaluator's own data."""
    pairs = start.items if isinstance(start, b.InitialDistribution) else ((start, 1.0),)
    states, masses = zip(*pairs)
    c = ev.weights * (ev.psi_at(states) @ np.array(masses))
    if target != "absorption":
        j = target[1]
        c = c * ev.pi[j - 1] * ev.psi_at((j,))[:, 0]
    return c


def term_scale(ev, c, t):
    """sum_k |c_k exp(-theta_k t)| at every t, 500 times at a time."""
    parts = np.array_split(t, max(1, len(t) // 500))
    return np.concatenate([np.exp(np.multiply.outer(p, -ev.theta)) @ np.abs(c) for p in parts])


@pytest.fixture(scope="module")
def walk_2000():
    return b.finite_evaluator(b.symmetric_rw_spec(1, 2000))


class TestGridKernel:
    """_grid_sum: spectral_sum on an evenly spaced grid, as one matrix product."""

    @staticmethod
    def assert_matches_array_kernel(ev, t_min, t_max, count, start, target="absorption"):
        # same points as the grid kernel's t_min + m h; its error class,
        # eps sum_k |c_k exp(-theta_k t)|, with room for the atom count
        h = (t_max - t_min) / (count - 1) if count > 1 else 0.0
        t = t_min + np.arange(count) * h
        got = _grid_sum(ev, t_min, t_max, count, start, target)
        want = b.spectral_sum(ev, t, start, target)
        assert got.shape == (count,)
        scale = term_scale(ev, sum_coefficients(ev, start, target), t)
        assert np.all(np.abs(got - want) <= 1e-13 * scale)

    @pytest.mark.parametrize(
        "which, start, target",
        [
            ("walk-200", b.InitialDistribution({1: 0.2, 5: 0.5, 9: 0.3}), "absorption"),
            ("walk-200", 3, ("state", 7)),
            ("random-20", 2, ("state", 11)),
            ("continuous-512", 1, "absorption"),
            ("walk-1000", 1, "absorption"),
        ],
    )
    def test_matches_array_kernel(self, chain_factory, which, start, target):
        if which == "continuous-512":
            ev = b.rw_evaluator(1, n_nodes=512, n_states=64)
        elif which == "random-20":
            ev = b.finite_evaluator(chain_factory(79, n=20))
        else:
            ev = b.finite_evaluator(b.symmetric_rw_spec(1, int(which[5:])))
        self.assert_matches_array_kernel(ev, 0.01, 5.0, 20000, start, target)

    def test_matches_array_kernel_over_head_blocks(self, walk_2000):
        # 2000 atoms: 65-point tail rows, head rows 65 at a time, 5 blocks
        self.assert_matches_array_kernel(walk_2000, 0.0, 20.0, 20000, 1)

    @pytest.mark.parametrize("count", [1, 2, 3, 144, 13 * 12 - 1])
    def test_grid_counts(self, count):
        # a single point, a single head row, a perfect square and a
        # ragged last row (155 points: 12 head rows of 13, one short)
        ev = b.finite_evaluator(b.symmetric_rw_spec(1, 30))
        self.assert_matches_array_kernel(ev, 0.5, 3.0, count, 2, ("state", 5))

    def test_alternating_sums_against_mpmath(self):
        # the exact sum of the float spectral data at the kernel's points
        mpmath = pytest.importorskip("mpmath")
        ev = b.finite_evaluator(b.symmetric_rw_spec(1, 60))
        t_min, t_max, count = 0.0, 10.0, 1001
        h = (t_max - t_min) / (count - 1)
        for start, target in ((1, "absorption"), (3, ("state", 9))):
            got = _grid_sum(ev, t_min, t_max, count, start, target)
            c = sum_coefficients(ev, start, target)
            with mpmath.workdps(50):
                for m in (0, 1, 7, 500, 999, 1000):
                    t = mpmath.mpf(t_min) + m * mpmath.mpf(h)
                    terms = [mpmath.mpf(ck) * mpmath.exp(-mpmath.mpf(th) * t)
                             for ck, th in zip(c, ev.theta)]
                    want = mpmath.fsum(terms)
                    scale = float(mpmath.fsum(abs(x) for x in terms))
                    assert abs(got[m] - float(want)) <= 1e-13 * scale, (start, m)

    def test_memory_is_blocked(self, walk_2000):
        # the array kernel's peak is 1.4 MiB; here a 1 MiB tail table and
        # a 1 MiB head block
        _grid_sum(walk_2000, 0.0, 20.0, 200, 1)  # BLAS buffers outside the trace
        tracemalloc.start()
        try:
            _grid_sum(walk_2000, 0.0, 20.0, 20000, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 2**20

    def test_time_validation(self):
        ev = b.finite_evaluator(b.symmetric_rw_spec(1, 10))
        with pytest.raises(ValueError, match="t: must be nonnegative, got -1.0"):
            _grid_sum(ev, -1.0, 1.0, 5, 1)
        rw = b.rw_evaluator(1.0, n_nodes=64, n_states=8)
        with pytest.raises(ValueError, match="needs t > 0"):
            _grid_sum(rw, 0.0, 1.0, 5, 1)
        with pytest.raises(ValueError, match="target state 11: outside 1..10"):
            _grid_sum(ev, 0.0, 1.0, 5, 1, ("state", 11))


class TestRWEvaluator:
    def test_flags(self):
        ev = b.rw_evaluator(1.0, n_nodes=64, n_states=16)
        assert ev.is_continuous
        assert ev.n_states == 16

    @pytest.mark.parametrize("kwargs,message", [
        # n_nodes = 4.5 once gave a 5-node rule at (m - 1/2) pi / 4.5
        ({"n_nodes": 4.5, "n_states": 2}, "n_nodes: must be an integer, got 4.5"),
        ({"n_nodes": True, "n_states": 1}, "n_nodes: must be an integer, got True"),
        ({"n_nodes": 8, "n_states": 2.0}, "n_states: must be an integer, got 2.0"),
    ])
    def test_counts_must_be_integers(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            b.rw_evaluator(1, **kwargs)

    @pytest.mark.parametrize("kappa", [1.0, 2.0])
    @pytest.mark.parametrize("t", [0.25, 1.0, 4.0])
    def test_density_matches_bessel_form(self, kappa, t):
        ev = b.rw_evaluator(kappa, n_nodes=256, n_states=32)
        want = rw_hitting_density_closed_form(kappa, t)
        assert b.spectral_sum(ev, (t,), 1)[0] == pytest.approx(want, abs=1e-10)

    def test_transition_matches_truncated_chain(self):
        # Quadrature transition vs a 200-state truncation, start and end low.
        ev = b.rw_evaluator(1.0, n_nodes=256, n_states=32)
        fin = b.finite_evaluator(b.symmetric_rw_spec(1, 200), c_rows=2)
        got = b.spectral_sum(ev, (1.0,), 1, ("state", 1))[0]
        want = b.spectral_sum(fin, (1.0,), 1, ("state", 1))[0]
        assert got == pytest.approx(want, abs=1e-8)

    def test_rejects_t_zero(self):
        ev = b.rw_evaluator(1.0, n_nodes=64, n_states=8)
        with pytest.raises(ValueError, match="needs t > 0"):
            b.spectral_sum(ev, (0.0,), 1)

    def test_kappa_read_as_a_real(self, bad_real):
        # "1" and None raised a bare TypeError, 10**400 an OverflowError;
        # True was a kappa = 1 walk
        with pytest.raises(ValueError, match="^kappa: must "):
            b.rw_evaluator(bad_real, n_nodes=8, n_states=4)

    def test_node_count_must_exceed_states(self):
        with pytest.raises(ValueError, match="below n_nodes"):
            b.rw_evaluator(1.0, n_nodes=16, n_states=16)


class TestTimeGrid:
    def test_linear(self):
        np.testing.assert_allclose(b.time_grid(0.0, 1.0, 5), [0, 0.25, 0.5, 0.75, 1.0])

    def test_log(self):
        g = b.time_grid(0.01, 100.0, 5, log=True)
        np.testing.assert_allclose(g, [0.01, 0.1, 1.0, 10.0, 100.0], rtol=1e-12)

    def test_single_point(self):
        np.testing.assert_allclose(b.time_grid(2.0, 2.0, 1), [2.0])

    @pytest.mark.parametrize("count", [2.5, True])
    def test_count_must_be_an_integer(self, count):
        # 2.5 once gave 2 points
        with pytest.raises(ValueError, match=f"count: must be an integer, got {count}"):
            b.time_grid(0, 1, count)

    def test_validation(self):
        with pytest.raises(ValueError, match="count"):
            b.time_grid(0.0, 1.0, 0)
        with pytest.raises(ValueError, match="below t_min"):
            b.time_grid(2.0, 1.0, 5)
        with pytest.raises(ValueError, match="log spacing needs t_min > 0"):
            b.time_grid(0.0, 1.0, 5, log=True)

    @pytest.mark.parametrize("name", ["t_min", "t_max"])
    def test_bound_read_as_a_real(self, name, bad_real):
        # True was the bound 1.0; "1" and None raised a bare TypeError
        bounds = {"t_min": 0.0, "t_max": 2.0, name: bad_real}
        with pytest.raises(ValueError, match=f"^grid: {name}: must "):
            b.time_grid(bounds["t_min"], bounds["t_max"], 3)

    @pytest.mark.parametrize(
        "t_min, t_max, name",
        [(np.nan, 1.0, "t_min"), (0.0, np.nan, "t_max"), (0.0, np.inf, "t_max"),
         (-np.inf, 1.0, "t_min")],
    )
    def test_non_finite_bound_named(self, t_min, t_max, name):
        with pytest.raises(ValueError, match=f"grid: {name}: must be finite"):
            b.time_grid(t_min, t_max, 3)

    @pytest.mark.parametrize(
        "t_min, t_max, count, log",
        [(1.0, 1.0, 3, False), (1.0, 1.0, 3, True), (1.0, 1.0 + 4e-16, 10, False)],
        ids=["equal-endpoints", "equal-endpoints-log", "too-close-for-count"],
    )
    def test_not_strictly_increasing_refused(self, t_min, t_max, count, log):
        message = f"grid: {count} points on [{t_min}, {t_max}] are not strictly increasing"
        with pytest.raises(ValueError, match=re.escape(message)):
            b.time_grid(t_min, t_max, count, log=log)
