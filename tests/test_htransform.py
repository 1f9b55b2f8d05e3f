"""Exponential tilting by a gamma-eigenfunction: rates, C-matrix, densities."""

import math
from fractions import Fraction

import numpy as np
import pytest

import bdhit as b


def exact_doubling_transform(n_states):
    """kappa = 1, gamma = 1/2: alpha_+ = 2 exactly, so k(i) = 2^i in Fractions."""
    base = b.symmetric_rw_spec(1, n_states)
    k = tuple(Fraction(2) ** i for i in range(n_states + 1))
    return base, b.HTransform(Fraction(1, 2), k, base)


class TestHTransformValidation:
    def test_accepts_exact_eigenfunction(self):
        base, ht = exact_doubling_transform(10)
        assert ht.n_states == 10
        assert ht.k_array()[3] == 8.0

    def test_rejects_non_eigenfunction(self):
        base = b.symmetric_rw_spec(1, 3)
        with pytest.raises(ValueError, match="fails at state 1"):
            b.HTransform(1.0, (1, 2, 3, 4), base)

    def test_rejects_wrong_length(self):
        base = b.symmetric_rw_spec(1, 3)
        with pytest.raises(ValueError, match=r"expected 4 values"):
            b.HTransform(0.5, (1, 2, 4), base)

    def test_rejects_k0_not_one(self):
        base = b.symmetric_rw_spec(1, 2)
        with pytest.raises(ValueError, match=r"k\(0\) must be 1"):
            b.HTransform(0.0, (2, 2, 2), base)

    def test_rejects_nonpositive_k(self):
        base = b.symmetric_rw_spec(1, 2)
        with pytest.raises(ValueError, match="positive and finite"):
            b.HTransform(0.0, (1, -1, 1), base)

    # every comparison with nan is False, so a nan gamma once constructed
    @pytest.mark.parametrize("gamma", [-0.5, float("nan")])
    def test_rejects_negative_gamma(self, gamma):
        base = b.symmetric_rw_spec(1, 2)
        with pytest.raises(ValueError, match=f"gamma: must be nonnegative, got {gamma}"):
            b.HTransform(gamma, (1, 1, 1), base)


class TestRWAlphas:
    def test_product_is_one(self):
        for kappa, gamma in [(1.0, 0.5), (2.0, 0.1), (math.sqrt(2), 3 - 2 * math.sqrt(2))]:
            plus, minus = b.rw_alphas(kappa, gamma)
            assert plus * minus == pytest.approx(1.0, rel=1e-15)
            assert plus >= 1 >= minus > 0

    def test_known_values(self):
        plus, minus = b.rw_alphas(1.0, 0.5)
        assert plus == pytest.approx(2.0, rel=1e-15)
        plus, minus = b.rw_alphas(math.sqrt(2), 3 - 2 * math.sqrt(2))
        assert plus == pytest.approx(math.sqrt(2), rel=1e-14)

    def test_gamma_zero_degenerate(self):
        plus, minus = b.rw_alphas(3.0, 0.0)
        assert plus == minus == 1.0

    def test_validation(self):
        with pytest.raises(ValueError, match="kappa"):
            b.rw_alphas(0.0, 1.0)
        with pytest.raises(ValueError, match="gamma"):
            b.rw_alphas(1.0, -1.0)

    @pytest.mark.parametrize("kappa,gamma,message", [
        (1.0, float("nan"), "gamma: must be nonnegative, got nan"),  # once (nan, nan)
        (float("nan"), 1.0, "kappa: must be positive, got nan"),
    ])
    def test_nan_refused(self, kappa, gamma, message):
        with pytest.raises(ValueError, match=message):
            b.rw_alphas(kappa, gamma)


class TestGammaEigenfunctions:
    def test_geometric_branches(self):
        plus, minus = b.rw_gamma_eigenfunctions(1, Fraction(1, 2), 6)
        np.testing.assert_allclose(plus.k_array(), 2.0 ** np.arange(7))
        np.testing.assert_allclose(minus.k_array(), 0.5 ** np.arange(7))

    def test_gamma_zero_is_identity(self):
        plus, minus = b.rw_gamma_eigenfunctions(2, 0, 5)
        assert plus.k_values == (1,) * 6
        assert minus.k_values == (1,) * 6
        assert plus.gamma == 0


class TestTransformRates:
    def test_exact_doubling_rates(self):
        base, ht = exact_doubling_transform(8)
        spec2 = b.transform_rates(ht)
        assert spec2.lam[:-1] == (Fraction(2),) * 7
        assert spec2.lam[-1] == 0
        assert spec2.mu == (Fraction(1, 2),) * 8

    def test_float_tilting_matches_direct_asymmetric(self):
        # Tilt the symmetric sqrt(2)-walk up to the (2, 1) walk.
        direct, ht = b.asymmetric_rw(2, 1, 40)
        tilted = b.transform_rates(ht)
        np.testing.assert_allclose(tilted.lam_array(), direct.lam_array(), rtol=1e-12)
        np.testing.assert_allclose(tilted.mu_array(), direct.mu_array(), rtol=1e-12)

    def test_downward_branch(self):
        direct, ht = b.asymmetric_rw(1, 2, 20)
        k = ht.k_array()
        assert np.all(np.diff(k) < 0)  # drift-down tilting decays
        tilted = b.transform_rates(ht)
        np.testing.assert_allclose(tilted.mu_array(), direct.mu_array(), rtol=1e-12)

    def test_equal_rates_identity(self):
        direct, ht = b.asymmetric_rw(1.5, 1.5, 10)
        assert ht.gamma == 0
        assert ht.k_values == (1,) * 11
        assert b.transform_rates(ht) == direct


class TestTransformCMatrix:
    def test_exact_commutation(self):
        # Transforming C rows commutes with rebuilding them from the
        # transformed rates, here in exact arithmetic.
        base, ht = exact_doubling_transform(16)
        c2 = b.transform_cmatrix(b.build_c_matrix(base, 10), ht)
        assert c2.rational

        direct = b.build_c_matrix(b.transform_rates(ht), 10)
        assert c2.rows == direct.rows
        assert (c2.spec, c2.pi, c2.s) == (direct.spec, direct.pi, direct.s)

    def test_float_commutation(self):
        direct_spec, ht = b.asymmetric_rw(2, 1, 30)
        c2 = b.transform_cmatrix(b.build_c_matrix(ht.base, 8), ht)
        direct = b.build_c_matrix(direct_spec, 8)
        for i in range(1, 9):
            for j in range(1, i + 1):
                assert c2.value(i, j) == pytest.approx(direct.value(i, j), rel=1e-10)


class TestDensityConjugacy:
    """f'_x(t) = exp(-gamma t) f_x(t) / k(x) and
    P'_t(x, y) = exp(-gamma t) (k(y)/k(x)) P_t(x, y), read from
    transformed_evaluator and from the drifted chain built directly."""

    def test_density_and_transition(self):
        direct_spec, ht = b.asymmetric_rw(2, 1, 60)
        base_ev = b.finite_evaluator(ht.base, c_rows=6)
        tilted_ev = b.transformed_evaluator(base_ev, ht)
        direct_ev = b.finite_evaluator(direct_spec, c_rows=6)
        ts = np.array([0.1, 0.7, 3.0])
        decay = np.exp(-float(ht.gamma) * ts)
        k = ht.k_array()
        for x in (1, 2, 5):
            want = decay * b.spectral_sum(base_ev, ts, x) / k[x]
            for ev in (tilted_ev, direct_ev):
                np.testing.assert_allclose(b.spectral_sum(ev, ts, x), want, rtol=1e-9)
        want = decay * k[4] / k[2] * b.spectral_sum(base_ev, ts, 2, ("state", 4))
        for ev in (tilted_ev, direct_ev):
            np.testing.assert_allclose(b.spectral_sum(ev, ts, 2, ("state", 4)), want, rtol=1e-9)

    def test_bessel_closed_form_through_tilting(self):
        # Tilted closed-form density for the (2, 1) walk from state 1.
        from bdhit.oracles import rw_hitting_density_closed_form

        direct_spec, ht = b.asymmetric_rw(2, 1, 200)
        tilted_ev = b.transformed_evaluator(b.finite_evaluator(ht.base, c_rows=4), ht)
        direct_ev = b.finite_evaluator(direct_spec, c_rows=4)
        kappa = math.sqrt(2.0)
        for t in (0.25, 1.0, 4.0):
            f = rw_hitting_density_closed_form(kappa, t)
            want = math.exp(-float(ht.gamma) * t) * f / float(ht.k_values[1])
            for ev in (tilted_ev, direct_ev):
                assert b.spectral_sum(ev, (t,), 1)[0] == pytest.approx(want, rel=1e-10)


class TestTransformedEvaluator:
    def test_matches_direct_evaluator(self):
        direct_spec, ht = b.asymmetric_rw(2, 1, 60)
        base_ev = b.finite_evaluator(ht.base, c_rows=8)
        tilted_ev = b.transformed_evaluator(base_ev, ht)
        direct_ev = b.finite_evaluator(direct_spec, c_rows=8)
        assert not tilted_ev.is_continuous
        ts = (0.2, 1.0, 4.0)
        for i in (1, 3, 6):
            assert b.spectral_sum(tilted_ev, ts, i) == pytest.approx(
                b.spectral_sum(direct_ev, ts, i), rel=1e-9
            )
        assert b.spectral_sum(tilted_ev, (0.8,), 2, ("state", 3))[0] == pytest.approx(
            b.spectral_sum(direct_ev, (0.8,), 2, ("state", 3))[0], rel=1e-9
        )

    def test_transformed_chain_built_once(self, monkeypatch):
        # The transformed rates come with transform_cmatrix's result.
        base, ht = exact_doubling_transform(12)
        base_ev = b.finite_evaluator(base)
        calls = []
        real = b.htransform.transform_rates
        monkeypatch.setattr(
            b.htransform, "transform_rates", lambda ht: calls.append(ht) or real(ht)
        )
        tilted_ev = b.transformed_evaluator(base_ev, ht)
        assert len(calls) == 1
        assert tilted_ev.spec == real(ht)
        assert tilted_ev.c.spec is tilted_ev.spec

    def test_one_holder_per_quantity(self):
        # pi is the transformed chain's own speed measure, read from c.
        plus, _ = b.rw_gamma_eigenfunctions(1.5, 0.3, 200)
        ev2 = b.transformed_evaluator(b.finite_evaluator(plus.base), plus)
        assert np.array_equal(ev2.pi, b.build_speed_measure(ev2.spec).array())
        assert ev2.pi is ev2.pi  # converted once

    def test_spectrum_shifts_by_gamma(self):
        base, ht = exact_doubling_transform(12)
        base_ev = b.finite_evaluator(base)
        tilted_ev = b.transformed_evaluator(base_ev, ht)
        np.testing.assert_allclose(
            tilted_ev.theta, base_ev.theta + 0.5, rtol=1e-14
        )

    def test_recovery_through_tilted_evaluator(self):
        base, ht = exact_doubling_transform(12)
        tilted_ev = b.transformed_evaluator(b.finite_evaluator(base), ht)
        nu = b.InitialDistribution({1: 0.25, 3: 0.75})
        rep = b.recover_initial(tilted_ev, nu=nu, j_max=4, mode="spectral")
        np.testing.assert_allclose(rep.recovered, [0.25, 0, 0.75, 0], atol=1e-9)

    def test_base_mismatch_rejected(self, two_state_chain):
        base, ht = exact_doubling_transform(8)
        ev = b.finite_evaluator(two_state_chain)
        with pytest.raises(ValueError, match="different base chain"):
            b.transformed_evaluator(ev, ht)

    def test_continuous_evaluator_rejected(self):
        base, ht = exact_doubling_transform(8)
        ev = b.rw_evaluator(1.0, n_nodes=32, n_states=8)
        with pytest.raises(ValueError, match="finite-chain evaluator"):
            b.transformed_evaluator(ev, ht)
