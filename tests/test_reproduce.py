"""Recovering the initial distribution, spectrally and from density samples."""

import math
from fractions import Fraction

import numpy as np
import pytest

import bdhit as b


def tv_distance(recovered, nu, n_states):
    ref = nu.as_vector(n_states)
    return 0.5 * sum(abs(r - x) for r, x in zip(recovered, ref))


class TestSpectralRoute:
    def test_operator_equals_transition_mixture(self, chain_factory):
        # Row-j operator applied termwise to the spectral sum reproduces
        # P_nu[X_t = j]; the left side is evaluated from C coefficients.
        spec = chain_factory(71)
        ev = b.finite_evaluator(spec)
        nu = b.InitialDistribution({1: 0.3, 2: 0.5, 4: 0.2})
        ts = np.linspace(0.1, 3.0, 20)
        for j in range(1, 6):
            lhs = b.spectral_sum(ev, ts, nu, ("c_row", j))
            terms = [m * b.spectral_sum(ev, ts, i, ("state", j)) for i, m in nu.items]
            rhs = [math.fsum(column) for column in zip(*terms)]
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_two_state_chain_exact(self, two_state_chain):
        ev = b.finite_evaluator(two_state_chain)
        nu = b.InitialDistribution({2: 1.0})
        assert b.spectral_sum(ev, (1.0,), nu, ("c_row", 1))[0] == pytest.approx(
            b.spectral_sum(ev, (1.0,), 2, ("state", 1))[0], abs=1e-14
        )

    def test_recovery_at_time_zero(self, chain_factory):
        ev = b.finite_evaluator(chain_factory(72))
        nu = b.InitialDistribution({1: 0.3, 2: 0.5, 4: 0.2})
        rep = b.recover_initial(ev, nu=nu, j_max=5, mode="spectral")
        assert rep.mode == "spectral"
        np.testing.assert_allclose(rep.recovered, [0.3, 0.5, 0.0, 0.2, 0.0], atol=1e-9)
        assert rep.max_abs_error < 1e-9
        assert rep.reliable

    def test_mass_complete_at_full_depth(self, chain_factory):
        # With j_max = N every unit of initial mass is accounted for at t = 0.
        ev = b.finite_evaluator(chain_factory(73))
        nu = b.InitialDistribution({3: 0.6, 7: 0.4})
        rep = b.recover_initial(ev, nu=nu, j_max=10, mode="spectral")
        assert math.fsum(rep.recovered) == pytest.approx(1.0, abs=1e-9)
        assert rep.residual_mass == pytest.approx(0.0, abs=1e-9)

    def test_report_to_dict(self, chain_factory):
        ev = b.finite_evaluator(chain_factory(74))
        rep = b.recover_initial(ev, nu=b.InitialDistribution({1: 1.0}), j_max=3)
        assert isinstance(rep, b.ReproductionReport)
        doc = rep.to_dict()
        assert doc["mode"] == "spectral"
        assert doc["states"] == [1, 2, 3]
        assert len(doc["recovered"]) == 3

    def test_needs_nu(self, chain_factory):
        ev = b.finite_evaluator(chain_factory(74))
        with pytest.raises(ValueError, match="needs nu"):
            b.recover_initial(ev, mode="spectral")

    def test_rejects_continuous_evaluator(self):
        ev = b.rw_evaluator(1.0, n_nodes=64, n_states=16)
        with pytest.raises(ValueError, match="discrete spectrum"):
            b.recover_initial(ev, nu=b.InitialDistribution({1: 1.0}), mode="spectral")

    def test_operator_needs_c_row(self, chain_factory):
        ev = b.finite_evaluator(chain_factory(74), c_rows=3)
        with pytest.raises(ValueError, match="C-matrix rows up to 3"):
            b.spectral_sum(ev, (0.5,), b.InitialDistribution({1: 1.0}), ("c_row", 4))


class TestNumericOperator:
    def test_constant_coefficient_reads_density(self, chain_factory):
        # j = 1: the operator is f -> f / mu_1.  The degree-0 fit is the
        # window mean of the 11 samples nearest t_eval.
        spec = chain_factory(75)
        ev = b.finite_evaluator(spec)
        t_grid = np.linspace(0.3, 0.7, 41)
        f = b.spectral_sum(ev, t_grid, b.InitialDistribution({1: 1.0}))
        coeffs = b.diff_operator_coeffs(ev.c, 1)
        app = b.apply_psi_dt_numeric((t_grid, f), coeffs, 0.5)
        assert app.value == pytest.approx(float(coeffs[0]) * f[15:26].mean(), rel=1e-13)
        assert app.reliable
        assert app.n_points == 11
        assert app.degree == 0

    @pytest.mark.parametrize("j,tol", [(2, 2e-3), (4, 2e-3)])
    def test_mode_agreement_on_sampled_window(self, chain_factory, j, tol):
        # Numeric route vs spectral truth at t = 0.5 from 41 samples on
        # [0.3, 0.7].  The local fit of degree 2(j-1) carries a Taylor
        # truncation floor near 5e-4 here, so the bar is 2e-3, not 1e-5.
        spec = chain_factory(76)
        ev = b.finite_evaluator(spec)
        nu = b.InitialDistribution({1: 0.3, 2: 0.5, 4: 0.2})
        t_grid = np.linspace(0.3, 0.7, 41)
        f = b.spectral_sum(ev, t_grid, nu)
        coeffs = b.diff_operator_coeffs(ev.c, j)
        app = b.apply_psi_dt_numeric((t_grid, f), coeffs, 0.5)
        want = b.spectral_sum(ev, (0.5,), nu, ("c_row", j))[0] / float(ev.pi[j - 1])
        assert app.value == pytest.approx(want, abs=tol)
        assert app.condition < 1e8

    def test_accepts_n_by_2_array(self, chain_factory):
        ev = b.finite_evaluator(chain_factory(77))
        t_grid = np.linspace(0.2, 0.8, 41)
        f = b.spectral_sum(ev, t_grid, 1)
        data = np.column_stack([t_grid, f])
        coeffs = b.diff_operator_coeffs(ev.c, 2)
        a1 = b.apply_psi_dt_numeric(data, coeffs, 0.5)
        a2 = b.apply_psi_dt_numeric((t_grid, f), coeffs, 0.5)
        assert a1.value == a2.value

    def test_window_must_bracket(self, chain_factory):
        ev = b.finite_evaluator(chain_factory(77))
        t_grid = np.linspace(1.0, 2.0, 41)
        f = b.spectral_sum(ev, t_grid, 1)
        coeffs = b.diff_operator_coeffs(ev.c, 2)
        with pytest.raises(ValueError, match="does not bracket"):
            b.apply_psi_dt_numeric((t_grid, f), coeffs, 0.5)

    def test_too_few_samples(self, chain_factory):
        ev = b.finite_evaluator(chain_factory(77))
        t_grid = np.linspace(0.4, 0.6, 15)
        f = b.spectral_sum(ev, t_grid, 1)
        coeffs = b.diff_operator_coeffs(ev.c, 3)
        with pytest.raises(ValueError, match="need at least 31 points"):
            b.apply_psi_dt_numeric((t_grid, f), coeffs, 0.5)

    def test_zero_spread_window(self):
        t_grid = np.full(11, 0.5)
        f = np.ones(11)
        with pytest.raises(ValueError, match="zero spread"):
            b.apply_psi_dt_numeric((t_grid, f), (1.0,), 0.5)

    def test_t_eval_read_as_a_real(self, bad_real):
        # None raised a bare TypeError, 10**400 an OverflowError; True was t_eval = 1
        t_grid = np.linspace(0.5, 1.5, 41)
        with pytest.raises(ValueError, match="^t_eval: must "):
            b.apply_psi_dt_numeric((t_grid, np.ones(41)), (1.0,), bad_real)

    def test_conditioning_flag(self, chain_factory, monkeypatch):
        monkeypatch.setattr(b.reproduce, "_COND_THRESHOLD", 1.0)
        ev = b.finite_evaluator(chain_factory(78))
        t_grid = np.linspace(0.3, 0.7, 41)
        f = b.spectral_sum(ev, t_grid, 1)
        coeffs = b.diff_operator_coeffs(ev.c, 3)
        app = b.apply_psi_dt_numeric((t_grid, f), coeffs, 0.5)
        assert isinstance(app, b.NumericApplication)
        assert not app.reliable
        assert app.condition > 1.0


class TestNumericRecovery:
    def test_point_mass_small_j(self, chain_factory):
        spec = chain_factory(79)
        ev = b.finite_evaluator(spec)
        nu = b.InitialDistribution({1: 1.0})
        density = lambda t: b.spectral_sum(ev, t, nu)
        rep = b.recover_initial(ev, nu=nu, samples=density, j_max=1, mode="numeric")
        assert abs(rep.recovered[0] - 1.0) < 1e-3
        assert rep.reliable

    @pytest.mark.parametrize("seed", [2101, 2102, 2103, 2104, 2105])
    def test_blind_recovery_total_variation(self, chain_factory, seed):
        # The recovery sees only density values, never the spectral data.
        spec = chain_factory(seed)
        ev = b.finite_evaluator(spec)
        nu = b.InitialDistribution({1: 0.3, 2: 0.5, 4: 0.2})
        density = lambda t: b.spectral_sum(ev, t, nu)
        rep = b.recover_initial(ev, nu=nu, samples=density, j_max=4, mode="numeric")
        assert rep.mode == "numeric"
        assert tv_distance(rep.recovered, nu, 4) < 1e-3
        assert rep.reliable
        for j in rep.states:
            diag = rep.diagnostics["per_state"][j]
            assert diag["condition"] < 1e8

    def test_recovery_from_sample_arrays(self, chain_factory):
        # Same data handed over as plain arrays instead of a callable.
        spec = chain_factory(2101)
        ev = b.finite_evaluator(spec)
        nu = b.InitialDistribution({2: 1.0})
        t0 = 0.005
        ts = np.unique(
            np.concatenate(
                [np.linspace(t0 * 0.6, t0 * 1.4, 81), np.linspace(t0 * 0.3, t0 * 0.7, 81)]
            )
        )
        f = b.spectral_sum(ev, ts, nu)
        rep = b.recover_initial(ev, samples=(ts, f), j_max=3, mode="numeric", t0=t0)
        assert tv_distance(rep.recovered, nu, 3) < 1e-3

    def test_diagnostics_structure(self, chain_factory):
        ev = b.finite_evaluator(chain_factory(80))
        nu = b.InitialDistribution({1: 1.0})
        density = lambda t: b.spectral_sum(ev, t, nu)
        rep = b.recover_initial(ev, nu=nu, samples=density, j_max=2, mode="numeric")
        d = rep.diagnostics
        assert d["richardson_levels"] == 2
        assert d["t0"] == pytest.approx(0.005)
        assert set(d["centers"]) == {0.005, 0.0025}
        for j in (1, 2):
            per = d["per_state"][j]
            assert {"condition", "n_points", "degree", "richardson_correction", "reliable"} <= set(per)

    def test_j_max_guard(self, chain_factory):
        ev = b.finite_evaluator(chain_factory(80))
        nu = b.InitialDistribution({1: 1.0})
        density = lambda t: b.spectral_sum(ev, t, nu)
        with pytest.raises(ValueError, match="noise-dominated"):
            b.recover_initial(ev, samples=density, j_max=7, mode="numeric")
        with pytest.warns(UserWarning, match="exceeds the reliable range"):
            rep = b.recover_initial(
                ev, nu=nu, samples=density, j_max=7, mode="numeric", force=True
            )
        assert len(rep.recovered) == 7

    def test_sample_callable_gets_one_array_per_window(self, chain_factory):
        ev = b.finite_evaluator(chain_factory(80))
        nu = b.InitialDistribution({1: 0.5, 2: 0.5})
        calls = []

        def density(t):
            calls.append(t)
            return b.spectral_sum(ev, t, nu)

        b.recover_initial(ev, samples=density, j_max=3, mode="numeric")
        assert [c.shape for c in calls] == [(11,), (11,), (21,), (21,), (31,), (31,)]
        assert all(isinstance(c, np.ndarray) for c in calls)

    def test_sample_callable_shape_checked(self, chain_factory):
        ev = b.finite_evaluator(chain_factory(80))
        with pytest.raises(ValueError, match=r"returned shape \(\) for a window of 11 times"):
            b.recover_initial(ev, samples=lambda t: 1.0, j_max=1, mode="numeric")
        with pytest.raises(ValueError, match=r"returned shape \(10,\)"):
            b.recover_initial(ev, samples=lambda t: np.ones(10), j_max=1, mode="numeric")

    def test_needs_samples(self, chain_factory):
        ev = b.finite_evaluator(chain_factory(80))
        with pytest.raises(ValueError, match="needs samples"):
            b.recover_initial(ev, mode="numeric")
        with pytest.raises(ValueError, match="needs samples"):
            b.recover_initial(ev, nu=b.InitialDistribution({1: 1.0}), mode="numeric")

    @pytest.mark.parametrize("j_max", [2.7, True])
    def test_j_max_must_be_an_integer(self, chain_factory, j_max):
        # 2.7 once recovered 2 states
        ev = b.finite_evaluator(chain_factory(80))
        nu = b.InitialDistribution({1: 1.0})
        with pytest.raises(ValueError, match=f"j_max: must be an integer, got {j_max}"):
            b.recover_initial(ev, nu=nu, j_max=j_max)

    def test_t0_validation(self, chain_factory):
        ev = b.finite_evaluator(chain_factory(80))
        density = lambda t: 1.0
        # nan was refused downstream, naming t; inf reached the windows as nan
        for t0, cause in ((0.0, "positive"), (math.nan, "positive"), (math.inf, "finite")):
            with pytest.raises(ValueError, match=f"t0: must be {cause}, got {t0}"):
                b.recover_initial(ev, samples=density, mode="numeric", t0=t0)
        with pytest.raises(ValueError, match="window_factor"):
            b.recover_initial(ev, samples=density, mode="numeric", window_factor=1.5)

    @pytest.mark.parametrize("name", ["t0", "window_factor"])
    def test_window_read_as_a_real(self, name, bad_real):
        # True was read as t0 = 1; "1" and None raised a bare TypeError
        ev = b.finite_evaluator(b.symmetric_rw_spec(1, 4))
        with pytest.raises(ValueError, match=f"^{name}: must "):
            b.recover_initial(ev, samples=np.ones_like, j_max=2, mode="numeric",
                              **{name: bad_real})

    def test_unknown_mode(self, chain_factory):
        ev = b.finite_evaluator(chain_factory(80))
        with pytest.raises(ValueError, match="expected 'spectral' or 'numeric'"):
            b.recover_initial(ev, nu=b.InitialDistribution({1: 1.0}), mode="exact")


class TestDerivativeBounds:
    def test_hand_values_symmetric_unit_rate(self):
        # kappa = 1: alpha_0 = mu_1 = 1, then 3, then 16, exactly.
        spec = b.symmetric_rw_spec(1, 8)
        ev = b.finite_evaluator(spec)
        alpha = b.derivative_bound_sequence(ev.c, 2)
        assert alpha == (Fraction(1), Fraction(3), Fraction(16))

    def test_alpha_zero_is_mu1(self, rational_chain):
        c = b.build_c_matrix(rational_chain, 4)
        alpha = b.derivative_bound_sequence(c, 0)
        assert alpha == (Fraction(1),)  # mu_1 = 1 for this chain

    def test_bounds_dominate_derivatives(self, chain_factory):
        spec = chain_factory(81)
        ev = b.finite_evaluator(spec)
        alpha = b.derivative_bound_sequence(ev.c, 4)
        grid = b.time_grid(0.01, 5.0, 60)
        for k, bound in enumerate(alpha):
            worst = max(
                np.max(np.abs(b.spectral_sum(ev, grid, i, transform=k)))
                for i in range(1, 11)
            )
            assert worst <= float(bound) * (1 + 1e-12)

    def test_positive_and_growing(self, chain_factory):
        ev = b.finite_evaluator(chain_factory(82))
        alpha = b.derivative_bound_sequence(ev.c, 4)
        assert all(a > 0 for a in alpha)

    def test_needs_enough_rows(self, chain_factory):
        ev = b.finite_evaluator(chain_factory(82), c_rows=3)
        with pytest.raises(ValueError, match="row 4 needed for alpha_3"):
            b.derivative_bound_sequence(ev.c, 3)

    def test_k_max_validation(self, chain_factory):
        ev = b.finite_evaluator(chain_factory(82))
        with pytest.raises(ValueError, match="k_max"):
            b.derivative_bound_sequence(ev.c, -1)

    @pytest.mark.parametrize("k_max", [1.5, True])
    def test_k_max_must_be_an_integer(self, chain_factory, k_max):
        ev = b.finite_evaluator(chain_factory(82))
        with pytest.raises(ValueError, match=f"k_max: must be an integer, got {k_max}"):
            b.derivative_bound_sequence(ev.c, k_max)
