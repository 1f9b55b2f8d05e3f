"""Eigenfunctions, spectral measures, orthogonality, Stieltjes ratio."""

import dataclasses
import math
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

import bdhit as b
from bdhit.oracles import interior_rate_matrix
from conftest import random_chain, walk_table


def spectrum(spec):
    """finite_spectrum over float C rows up to min(N, 10), as `bdhit spectrum` builds them."""
    return b.finite_spectrum(b.build_c_matrix(spec, min(spec.n_states, 10), rational=False))


class TestPsiRecurrence:
    def test_matches_polynomial_evaluation_exactly(self, rational_chain):
        c = b.build_c_matrix(rational_chain, 4)
        thetas = (-0.7, 0.0, 1.3)
        for theta, psi in zip(thetas, walk_table(rational_chain, thetas)):
            for i in range(1, 5):
                assert psi[i - 1] == pytest.approx(
                    float(b.eval_psi_theta(c, i, theta)), rel=1e-12, abs=1e-15
                )

    def test_eigen_equation(self, chain_factory):
        spec = chain_factory(31)
        theta = -1.1
        psi = walk_table(spec, [theta])[0]
        qpsi = b.apply_Q(spec, [0.0, *psi])
        for i in range(spec.n_states - 1):
            assert qpsi[i] == pytest.approx(theta * psi[i], rel=1e-10, abs=1e-12)


def scalar_psi(spec, theta):
    """The one-theta recurrence as a plain Python loop: the reference for the walk."""
    lam = spec.lam_array()
    mu = spec.mu_array()
    out = np.empty(spec.n_states)
    out[0] = 1.0 / mu[0]
    prev = 0.0
    for i in range(1, spec.n_states):
        nxt = ((lam[i - 1] + mu[i - 1] + theta) * out[i - 1] - mu[i - 1] * prev) / lam[i - 1]
        prev = out[i - 1]
        out[i] = nxt
    return out


class TestPsiTable:
    @pytest.mark.parametrize(
        "spec",
        [
            b.symmetric_rw_spec(1, 200),
            b.asymmetric_rw(2, 1, 60)[0],
            random_chain(59, n=20),
        ],
        ids=["walk-200", "drift-2-1-60", "random-20"],
    )
    def test_rows_bit_identical_to_scalar_recurrence(self, spec):
        m = spectrum(spec)
        table = walk_table(spec, -m.theta)
        assert table.shape == (m.n_atoms, spec.n_states)
        for k, th in enumerate(m.theta):
            want = scalar_psi(spec, float(-th))
            assert np.array_equal(table[k], want)
            assert np.array_equal(walk_table(spec, [-th])[0], want)
        assert np.array_equal(m.psi_at(range(1, spec.n_states + 1)), table)


class TableReads(b.DensityEvaluator):
    """The evaluator with psi read by index from its whole walk table, not
    streamed: every other step of a spectral sum is the evaluator's own."""

    def psi_stream(self, states):
        table = walk_table(self.spec, -self.theta)
        for i in states:
            yield table[:, i - 1]


def table_twin(ev):
    return TableReads(ev.theta, ev.weights, ev.c)


def forward_eigenfunction(spec, gamma):
    """Q k = gamma k with k(0) = k(1) = 1, run forward: positive for gamma >= 0."""
    lam, mu = spec.lam_array(), spec.mu_array()
    k = [1.0, 1.0]
    for i in range(1, spec.n_states):
        k.append(((lam[i - 1] + mu[i - 1] + gamma) * k[i] - mu[i - 1] * k[i - 1]) / lam[i - 1])
    return b.HTransform(gamma, tuple(k), spec)


@pytest.mark.parametrize("c_rows", [1, 2, 16])
@pytest.mark.parametrize(
    "spec", [b.symmetric_rw_spec(1, 60), random_chain(64, n=40)], ids=["walk-60", "random-40"]
)
class TestPsiReads:
    """A finite evaluator keeps no psi row: every read walks its own chain's
    recurrence from state 1 and has the bits of a full walk table, whatever
    the number of C rows."""

    def test_reads_match_the_walk_table(self, spec, c_rows):
        ev = b.finite_evaluator(spec, c_rows=c_rows)
        table = walk_table(spec, -ev.theta)
        assert np.array_equal(ev.psi_at(range(1, spec.n_states + 1)), table)
        states = (spec.n_states, 1, c_rows + 1, spec.n_states, c_rows)
        want = table[:, [i - 1 for i in states]]
        assert np.array_equal(ev.psi_at(states), want)

    def test_states_outside_the_chain_refused(self, spec, c_rows):
        ev = b.finite_evaluator(spec, c_rows=c_rows)
        n = spec.n_states
        for bad in (0, n + 1):
            with pytest.raises(ValueError, match=f"state {bad}: outside 1..{n}"):
                ev.psi_at((1, bad))
        with pytest.raises(ValueError, match="state: must be an integer, got 2.5"):
            ev.psi_at((2.5,))

    def test_spectral_sums(self, spec, c_rows):
        # the one pass over the start states, the target's own pass and
        # the mass-weighted nu pass read the rows of the walk table
        ev = b.finite_evaluator(spec, c_rows=c_rows)
        full = table_twin(ev)
        n = spec.n_states
        ts = np.array([0.0, 0.3, 2.0, 40.0])
        for i in (1, c_rows + 1, n // 2, n):
            for j in (n, c_rows + 1):
                got = b.spectral_sum(ev, ts, i, ("state", j))
                assert np.array_equal(got, b.spectral_sum(full, ts, i, ("state", j)))
        nu = b.InitialDistribution({2: 0.25, n // 2: 0.25, n: 0.5})
        for transform in (0, 2, "cdf"):
            got = b.spectral_sum(ev, ts, nu, transform=transform)
            assert np.array_equal(got, b.spectral_sum(full, ts, nu, transform=transform))
        got = b.spectral_sum(ev, ts, nu, ("c_row", c_rows))
        assert np.array_equal(got, b.spectral_sum(full, ts, nu, ("c_row", c_rows)))
        states = (1, c_rows + 1, n // 2, n)
        got = b.spectral_sum(ev, ts, states, ("state", c_rows + 1))
        assert np.array_equal(got, b.spectral_sum(full, ts, states, ("state", c_rows + 1)))

    def test_orthogonality_defect(self, spec, c_rows):
        ev = b.finite_evaluator(spec, c_rows=c_rows)
        full = table_twin(ev)
        n = spec.n_states
        for i, j in ((1, n), (c_rows + 1, n // 2), (n, n), (n // 2, 1)):
            assert b.orthogonality_defect(ev, i, j) == b.orthogonality_defect(full, i, j)

    def test_verify_total_mass_loop(self, spec, c_rows):
        # verify's total-mass check in one call over every state, and one state at a time
        ev = b.finite_evaluator(spec, c_rows=c_rows)
        full = table_twin(ev)
        every = range(1, spec.n_states + 1)
        rows = b.spectral_sum(ev, (np.inf,), every, transform="cdf")
        assert np.array_equal(rows, b.spectral_sum(full, (np.inf,), every, transform="cdf"))
        for i in every:
            got = b.spectral_sum(ev, (np.inf,), i, transform="cdf")
            assert np.array_equal(got, b.spectral_sum(full, (np.inf,), i, transform="cdf"))

    def test_transformed_evaluator(self, spec, c_rows):
        # psi' is the tilted chain's own walk, and equals k(1)^2 psi / k to rounding
        ev = b.finite_evaluator(spec, c_rows=c_rows)
        n = spec.n_states
        every = range(1, n + 1)
        base = walk_table(spec, -ev.theta)
        for gamma in (0.25, 0.5):
            ht = forward_eigenfunction(ev.spec, gamma)
            tilted = b.transformed_evaluator(ev, ht)
            got = tilted.psi_at(every)
            assert np.array_equal(got, walk_table(tilted.spec, -tilted.theta))
            k = ht.k_array()
            want = base * (k[1] ** 2 / k[1 : n + 1])[None, :]
            scale = np.max(np.abs(got), axis=0)
            assert np.all(np.abs(got - want) <= 1e-11 * scale)
            ev, base = tilted, got


MANY_START_CHAINS = {
    "walk-60": b.symmetric_rw_spec(1, 60),
    "random-40": random_chain(64, n=40),
    "drift-2-1-40": b.asymmetric_rw(2, 1, 40)[0],
}


def counted_walks(monkeypatch):
    """A list that gets one entry per _psi_rows walk that takes a step: the
    number of rows it yields."""
    walks = []
    real = b.spectral._psi_rows

    def counted(*args):
        walks.append(0)
        for row in real(*args):
            walks[-1] += 1
            yield row

    monkeypatch.setattr(b.spectral, "_psi_rows", counted)
    return walks


class TestManyStarts:
    """spectral_sum over a sequence of start states: one row per state, all
    from one walk, each with the bits of its one-state call."""

    @pytest.mark.parametrize("transform", [0, 2, "cdf"])
    @pytest.mark.parametrize("target", ["absorption", "state-1", "state-N", "c_row"])
    @pytest.mark.parametrize("c_rows", [1, 2, 16])
    @pytest.mark.parametrize("chain", sorted(MANY_START_CHAINS))
    def test_rows_bit_identical_to_one_state_calls(self, chain, c_rows, target, transform):
        spec = MANY_START_CHAINS[chain]
        n = spec.n_states
        base = b.finite_evaluator(spec, c_rows=c_rows)
        tilted = b.transformed_evaluator(base, forward_eigenfunction(spec, 0.25))
        target = {
            "absorption": "absorption",
            "state-1": ("state", 1),
            "state-N": ("state", n),
            "c_row": ("c_row", c_rows),
        }[target]
        ts = np.array([0.0, 0.3, 2.0, 40.0])
        if transform == "cdf":
            ts = np.append(ts, np.inf)
        states = range(1, n + 1)
        for ev in (base, tilted):
            rows = b.spectral_sum(ev, ts, states, target, transform)
            assert rows.shape == (n, len(ts))
            for i, row in zip(states, rows):
                assert np.array_equal(row, b.spectral_sum(ev, ts, i, target, transform)), i

    @pytest.mark.parametrize("transform", [0, 2])
    @pytest.mark.parametrize("target", ["absorption", "state-1", "state-N", "c_row"])
    def test_walk_evaluator_rows_bit_identical_to_one_state_calls(self, target, transform):
        # the rows of the walk's closed-form table, read in one pass
        ev = b.rw_evaluator(1, 512, 64)
        n = ev.n_states
        target = {
            "absorption": "absorption",
            "state-1": ("state", 1),
            "state-N": ("state", n),
            "c_row": ("c_row", ev.c.max_index),
        }[target]
        ts = np.array([0.3, 2.0, 40.0])
        states = range(1, n + 1)
        rows = b.spectral_sum(ev, ts, states, target, transform)
        assert rows.shape == (n, len(ts))
        for i, row in zip(states, rows):
            assert np.array_equal(row, b.spectral_sum(ev, ts, i, target, transform)), i

    def test_a_subset_and_a_single_state(self):
        ev = b.finite_evaluator(MANY_START_CHAINS["random-40"], c_rows=4)
        ts = np.array([0.1, 1.0])
        states = (2, 5, 6, 39)
        rows = b.spectral_sum(ev, ts, np.array(states), ("state", 7))
        for i, row in zip(states, rows):
            assert np.array_equal(row, b.spectral_sum(ev, ts, i, ("state", 7)))
        one = b.spectral_sum(ev, ts, [5])
        assert one.shape == (1, 2)
        assert np.array_equal(one[0], b.spectral_sum(ev, ts, 5))
        assert b.spectral_sum(ev, ts, ()).shape == (0, 2)

    def test_one_walk_for_every_state(self, monkeypatch):
        n = 300
        ev = b.finite_evaluator(b.symmetric_rw_spec(1, n), c_rows=10)
        walks = counted_walks(monkeypatch)
        b.spectral_sum(ev, (0.1, 1.0, np.inf), range(1, n + 1), transform="cdf")
        assert walks == [n]  # states 1..n, once each
        walks.clear()
        b.spectral_sum(ev, (1.0,), range(1, 11))  # stops at the last state read
        assert walks == [10]
        walks.clear()
        for i in (11, 12, 13):
            b.spectral_sum(ev, (1.0,), i)
        assert walks == [11, 12, 13]

    def test_verify_total_mass_is_one_walk(self, monkeypatch):
        from bdhit.cli import _verify_battery

        spec = b.symmetric_rw_spec(1, 30)
        battery = _verify_battery(spec)
        walks = counted_walks(monkeypatch)
        for name, passed, _ in battery:
            if name == "eigenfunction-orthogonality":
                walks.clear()
            if name == "density-total-mass":
                assert passed
                break
        assert walks == [30]  # states 1..30, once each

    def test_all_states_at_n_2000_hold_o_n_memory(self):
        # an N x N coefficient or psi array would be 31 MiB
        n = 2000
        ev = b.finite_evaluator(b.symmetric_rw_spec(1, n), c_rows=10)
        tracemalloc.start()
        try:
            mass = b.spectral_sum(ev, (0.1, 1.0, 10.0, np.inf), range(1, n + 1), transform="cdf")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        assert np.max(np.abs(mass[:, -1] - 1.0)) < 1e-9

    @pytest.mark.parametrize(
        "starts, message",
        [
            ((2, 1), "strictly ascending, got 1 after 2"),
            ((1, 3, 3), "strictly ascending, got 3 after 3"),
            ((0, 1), "start state 0: outside 1..10"),
            ((1, 11), "start state 11: outside 1..10"),
            ((True, 2), "start state: must be an integer, got True"),
            ((1, 2.0), "start state: must be an integer, got 2.0"),
            (np.array([1.0, 2.0]), r"start state: must be an integer, got np.float64\(1.0\)"),
            ([[1, 2]], r"start state: must be an integer, got \[1, 2\]"),
        ],
    )
    def test_refused_starts(self, starts, message):
        ev = b.finite_evaluator(b.symmetric_rw_spec(1, 10))
        with pytest.raises(ValueError, match=message):
            b.spectral_sum(ev, (1.0,), starts)


class TestBalanceCheck:
    @pytest.mark.parametrize("index", [0, 7, 19])
    def test_one_weight_off_by_a_millionth_rejected(self, index):
        c = b.build_c_matrix(random_chain(62, n=20), 10)
        b.finite_spectrum(c)
        weights = list(c.pi.pi)
        weights[index] *= 1 + 1e-6
        wrong = dataclasses.replace(c, pi=b.SpeedMeasure(tuple(weights)))
        with pytest.raises(ValueError, match="does not symmetrize"):
            b.finite_spectrum(wrong)

    def test_no_dense_matrix_on_main_path(self, monkeypatch):
        def refuse(spec):
            raise AssertionError("dense interior rate matrix built")

        patched = []
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "bdhit" and hasattr(module, "interior_rate_matrix"):
                monkeypatch.setattr(module, "interior_rate_matrix", refuse)
                patched.append(name)
        assert "bdhit.oracles" in patched
        ev = b.finite_evaluator(b.symmetric_rw_spec(1, 500))
        assert ev.psi_at(range(1, 501)).shape == (500, 500)


class TestCRowCrossCheck:
    @pytest.mark.parametrize("n_states,max_index", [(20, 16), (6, 6)])
    def test_one_wrong_entry_refused(self, n_states, max_index):
        # finite_spectrum evaluates row min(max_index, 10) by Horner and
        # compares it with the recurrence at the smallest and largest atom.
        c = b.build_c_matrix(random_chain(63, n=n_states), max_index)
        b.finite_spectrum(c)
        i = min(max_index, 10)
        row = list(c.rows[i])
        row[1] *= 2  # C(i, 1) = s(i), the leading term near theta = 0
        rows = (*c.rows[:i], tuple(row), *c.rows[i + 1 :])
        with pytest.raises(ValueError, match="C-matrix row and recurrence disagree"):
            b.finite_spectrum(dataclasses.replace(c, rows=rows))

    def test_overflowing_rows_checked_at_the_deepest_finite_one(self, monkeypatch):
        # kappa = 1e-150: float rows 3..5 hold inf and nan, so Horner gave
        # nan there and the check passed without checking anything
        c = b.build_c_matrix(b.symmetric_rw_spec(1e-150, 5), 5)
        assert not all(map(math.isfinite, c.rows[3]))
        assert all(map(math.isfinite, c.rows[2]))
        states = []
        real = b.spectral.eval_psi_theta
        monkeypatch.setattr(
            b.spectral, "eval_psi_theta", lambda c, i, t: states.append(i) or real(c, i, t)
        )
        b.finite_spectrum(c)
        assert states == [2, 2]

    def test_nan_horner_value_refused(self, monkeypatch):
        monkeypatch.setattr(b.spectral, "eval_psi_theta", lambda c, i, t: math.nan)
        with pytest.raises(ValueError, match="C-matrix row and recurrence disagree"):
            spectrum(random_chain(63, n=6))


class TestFiniteSpectrum:
    def test_atoms_match_dense_eigenvalues(self, chain_factory):
        spec = chain_factory(37)
        m = spectrum(spec)
        dense = np.sort(-np.real(scipy.linalg.eigvals(interior_rate_matrix(spec))))
        np.testing.assert_allclose(m.theta, dense, rtol=1e-10)

    def test_atoms_positive_ascending(self, chain_factory):
        m = spectrum(chain_factory(38))
        assert m.theta[0] > 0
        assert np.all(np.diff(m.theta) > 0)
        assert np.all(m.weights > 0)
        assert m.n_atoms == 10

    def test_holds_the_c_matrix_it_was_built_from(self, chain_factory):
        c = b.build_c_matrix(chain_factory(38), 10)
        assert b.finite_spectrum(c).c is c

    def test_two_state_chain_closed_form(self, two_state_chain):
        m = spectrum(two_state_chain)
        r5 = math.sqrt(5.0)
        np.testing.assert_allclose(m.theta, [(3 - r5) / 2, (3 + r5) / 2], rtol=1e-14)
        np.testing.assert_allclose(m.weights, [(5 - r5) / 10, (5 + r5) / 10], rtol=1e-13)

    def test_single_state_weight_is_mu_squared(self):
        # One interior state, death rate mu: atom at mu with weight mu^2.
        m = spectrum(b.ProcessSpec((0,), (3,)))
        np.testing.assert_allclose(m.theta, [3.0])
        np.testing.assert_allclose(m.weights, [9.0])

    def test_total_mass_identity(self, chain_factory):
        # sum_k w_k psi_k(i) / theta_k = 1 for every interior i.
        spec = chain_factory(39)
        m = b.finite_spectrum(b.build_c_matrix(spec, spec.n_states))
        table = walk_table(spec, -m.theta)
        for i in range(1, spec.n_states + 1):
            psi_i = table[:, i - 1]
            total = math.fsum(m.weights * psi_i / m.theta)
            assert total == pytest.approx(1.0, abs=1e-11)

    @pytest.mark.parametrize("kappa", [1e200, 1e-200])
    def test_weights_beyond_float_range_refused(self, kappa):
        # the weights scale as kappa^2: inf at 1e200, 0 at 1e-200
        with pytest.raises(ValueError, match="weights: leave float range at atom 0"):
            b.finite_evaluator(b.symmetric_rw_spec(kappa, 5))

    def test_large_rates_keep_total_mass(self):
        # near the top of the range the weights allow: they reach 2e299
        spec = b.symmetric_rw_spec(1e150, 5)
        ev = b.finite_evaluator(spec)
        mass = math.fsum((ev.weights / (spec.mu[0] * ev.theta)).tolist())
        assert mass == pytest.approx(1.0, abs=1e-12)

    def test_wrong_speed_measure_rejected(self, chain_factory):
        c = b.build_c_matrix(chain_factory(40), 10)
        wrong = dataclasses.replace(c, pi=b.build_speed_measure(chain_factory(41)))
        with pytest.raises(ValueError, match="does not symmetrize"):
            b.finite_spectrum(wrong)


class TestSmallAtoms:
    """Drifted walks have exponentially small atoms (4.3e-19 at N = 60)."""

    @pytest.mark.parametrize("n_states", [40, 60])
    def test_atoms_and_mass_against_mpmath(self, n_states):
        mpmath = pytest.importorskip("mpmath")
        spec, _ = b.asymmetric_rw(2, 1, n_states)
        m = spectrum(spec)
        lam = spec.lam_array()
        mu = spec.mu_array()
        with mpmath.workdps(50):
            neg_t = mpmath.zeros(n_states, n_states)
            for i in range(n_states):
                neg_t[i, i] = mpmath.mpf(lam[i]) + mpmath.mpf(mu[i])
                if i + 1 < n_states:
                    off = mpmath.sqrt(mpmath.mpf(lam[i]) * mpmath.mpf(mu[i + 1]))
                    neg_t[i, i + 1] = neg_t[i + 1, i] = off
            want = np.array(sorted(float(x) for x in mpmath.eigsy(neg_t, eigvals_only=True)))
        assert want[0] < 1e-12
        np.testing.assert_allclose(m.theta, want, rtol=1e-10, atol=0)
        mass = math.fsum(m.weights / (mu[0] * m.theta))
        assert mass == pytest.approx(1.0, abs=1e-9)


class TestOrthogonality:
    def test_finite_chain_defect(self, chain_factory):
        c = b.build_c_matrix(chain_factory(43), 10)
        m = b.finite_spectrum(c)
        worst = max(
            abs(b.orthogonality_defect(m, i, j))
            for i in range(1, 11)
            for j in range(i, 11)
        )
        assert worst < 1e-10

    def test_defect_reads_the_evaluators_own_table(self, chain_factory, monkeypatch):
        ev = b.finite_spectrum(b.build_c_matrix(chain_factory(43), 10))
        walks = counted_walks(monkeypatch)
        # psi at 3 and 5 from one walk that stops at state 5
        assert b.orthogonality_defect(ev, 3, 5) < 1e-10
        assert walks == [5]

    def test_rw_quadrature_defect(self):
        m = b.rw_evaluator(1.0, n_nodes=16, n_states=6)
        worst = max(
            abs(b.orthogonality_defect(m, i, j))
            for i in range(1, 7)
            for j in range(i, 7)
        )
        assert worst < 1e-12

    def test_rw_quadrature_exact_up_to_node_count(self):
        # Midpoint rule integrates sin(iu) sin(ju) exactly while i + j < 2n.
        m = b.rw_evaluator(2.0, n_nodes=8, n_states=7)
        assert abs(b.orthogonality_defect(m, 7, 7)) < 1e-12

    def test_states_must_be_integers(self):
        ev = b.finite_evaluator(b.symmetric_rw_spec(1, 10))
        with pytest.raises(ValueError, match="state i: must be an integer, got 1.5"):
            b.orthogonality_defect(ev, 1.5, 1)
        with pytest.raises(ValueError, match="state j: must be an integer, got True"):
            b.orthogonality_defect(ev, 1, True)
        with pytest.raises(ValueError, match="state j 11: outside 1..10"):
            b.orthogonality_defect(ev, 1, 11)
        two = np.int64(2)
        assert b.orthogonality_defect(ev, two, two) == b.orthogonality_defect(ev, 2, 2)


class TestRWSpectrum:
    """The walk's midpoint rule, as rw_evaluator builds it."""

    def test_nodes_and_support(self):
        kappa = 1.5
        ev = b.rw_evaluator(kappa, n_nodes=32, n_states=4)
        assert ev.n_atoms == 32
        assert np.all((ev.theta > 0) & (ev.theta < 4 * kappa))
        # the rule in closed form, operation for operation
        u = (np.arange(1, 33) - 0.5) * math.pi / 32
        np.testing.assert_array_equal(ev.theta, 2.0 * kappa * (1.0 - np.cos(u)))
        np.testing.assert_array_equal(ev.weights, (2.0 * kappa**2 / 32) * np.sin(u) ** 2)
        for i in range(1, 5):
            np.testing.assert_array_equal(
                ev.psi_at((i,))[:, 0], np.sin(i * u) / (kappa * np.sin(u))
            )

    def test_total_weight_is_kappa_squared(self):
        # Integral of the spectral weight over (0, 4 kappa) equals kappa^2.
        for kappa in (1.0, 2.0):
            ev = b.rw_evaluator(kappa, n_nodes=64, n_states=1)
            assert math.fsum(ev.weights) == pytest.approx(kappa**2, rel=1e-14)

    def test_psi_values_match_recurrence(self):
        kappa = 2.0
        ev = b.rw_evaluator(kappa, n_nodes=16, n_states=5)
        want = walk_table(b.symmetric_rw_spec(kappa, 24), -ev.theta)[:, :5]
        np.testing.assert_allclose(ev.psi_at(range(1, 6)), want, rtol=1e-12, atol=1e-14)

    def test_validation(self):
        # kappa and n_nodes are refused before n_states is looked at
        with pytest.raises(ValueError, match="kappa: must be positive"):
            b.rw_evaluator(-1.0, n_nodes=8, n_states=64)
        with pytest.raises(ValueError, match="n_nodes: must be >= 2, got 1"):
            b.rw_evaluator(1.0, n_nodes=1, n_states=64)
        with pytest.raises(ValueError, match="n_states: must be >= 1, got 0"):
            b.rw_evaluator(1.0, n_nodes=8, n_states=0)
        ev = b.rw_evaluator(1.0, n_nodes=2, n_states=1)
        assert (ev.n_atoms, ev.n_states) == (2, 1)
        with pytest.raises(ValueError, match="state 0: outside 1..1"):
            b.spectral_sum(ev, (1.0,), 0)


class TestStieltjesRatio:
    CLOSED = {0.5: 0.5, 1.0: 2 / (1 + math.sqrt(5.0)), 4.0: 2 * (math.sqrt(2.0) - 1)}

    @pytest.mark.parametrize("theta", [0.5, 1.0, 4.0])
    def test_ratio_converges_to_closed_form(self, theta):
        numeric, closed = b.stieltjes_check(b.symmetric_rw_spec(1, 220), theta, 200)
        assert closed == pytest.approx(self.CLOSED[theta], rel=1e-12)
        assert abs(numeric - closed) < 1e-6

    def test_renormalization_survives_deep_recursion(self):
        # Dirichlet/Neumann solutions grow like alpha_+^i; without joint
        # rescaling the ratio would overflow long before i = 4000.
        numeric, closed = b.stieltjes_check(b.symmetric_rw_spec(1, 4010), 4.0, 4000)
        assert math.isfinite(numeric)
        assert numeric == pytest.approx(closed, rel=1e-12)

    def test_requires_constant_symmetric_pattern(self, chain_factory):
        with pytest.raises(ValueError, match="constant-rate symmetric"):
            b.stieltjes_check(chain_factory(47), 1.0, 50)

    def test_parameter_validation(self):
        spec = b.symmetric_rw_spec(1, 20)
        with pytest.raises(ValueError, match="theta"):
            b.stieltjes_check(spec, 0.0, 10)
        with pytest.raises(ValueError, match="i_max"):
            b.stieltjes_check(spec, 1.0, 0)

    @pytest.mark.parametrize("i_max", [2.5, True])
    def test_i_max_must_be_an_integer(self, i_max):
        # 2.5 once raised a raw TypeError from range()
        with pytest.raises(ValueError, match=f"i_max: must be an integer, got {i_max}"):
            b.stieltjes_check(b.symmetric_rw_spec(1, 20), 1.0, i_max)

    def test_theta_read_as_a_real(self, bad_real):
        # "1" and None raised a bare TypeError, 10**400 an OverflowError;
        # True was theta = 1
        with pytest.raises(ValueError, match="^theta: must "):
            b.stieltjes_check(b.symmetric_rw_spec(1, 20), bad_real, 5)

    def test_nan_theta_refused(self):
        # once returned (nan, nan)
        with pytest.raises(ValueError, match="theta: must be positive, got nan"):
            b.stieltjes_check(b.symmetric_rw_spec(1, 20), float("nan"), 5)

    def test_infinite_theta_refused(self):
        # once returned (nan, nan)
        with pytest.raises(ValueError, match="theta: must be finite, got inf"):
            b.stieltjes_check(b.symmetric_rw_spec(1, 20), math.inf, 10)
