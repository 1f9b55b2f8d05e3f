"""C-matrix recursion, column identities, polynomial evaluation."""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest

import bdhit as b
from bdhit.oracles import rw_cmatrix_closed_form


def build(spec, max_index=None, rational=None):
    return b.build_c_matrix(spec, max_index or spec.n_states, rational=rational)


def reference_rows(spec, max_index, number):
    """Rows 0..max_index by the forward recurrence in `number` arithmetic
    (Fraction or float), one operation at a time."""
    lam = [number(x) for x in spec.lam]
    mu = [number(x) for x in spec.mu]
    zero = number(0)
    rows = [(zero,), (zero, (zero + 1) / mu[0])]
    for i in range(1, max_index):
        prev, cur = rows[i - 1], rows[i]

        def at(row, j):
            return row[j] if j < len(row) else zero

        new = [zero]
        for j in range(1, i + 2):
            num = at(cur, j - 1) - mu[i - 1] * at(prev, j) + (lam[i - 1] + mu[i - 1]) * at(cur, j)
            new.append(num / lam[i - 1])
        rows.append(tuple(new))
    return tuple(rows)


def quarter_rate_chain(seed, n):
    """Exact rates k/4 with k in 2..12, top birth rate 0."""
    rng = np.random.default_rng(seed)
    lam = [Fraction(int(k), 4) for k in rng.integers(2, 13, n)]
    mu = [Fraction(int(k), 4) for k in rng.integers(2, 13, n)]
    lam[-1] = 0
    return b.ProcessSpec(lam, mu)


class TestConstruction:
    def test_seed_entries(self, rational_chain):
        c = build(rational_chain)
        assert c.value(0, 1) == 0
        assert c.value(1, 1) == Fraction(1, 1)  # 1 / mu_1

    def test_second_row_hand_values(self):
        lam1, mu1 = Fraction(3), Fraction(2)
        spec = b.ProcessSpec((lam1, 0), (mu1, Fraction(1)))
        c = build(spec)
        assert c.value(2, 1) == (lam1 + mu1) / (lam1 * mu1)
        assert c.value(2, 2) == 1 / (mu1 * lam1)

    def test_first_column_is_scale(self, rational_chain):
        # theta = 0 eigenfunction is the scale function, so C(i, 1) = s(i).
        c = b.build_c_matrix(rational_chain, 4)
        for i in range(5):
            assert c.value(i, 1) == c.s[i]

    def test_carries_the_chains_speed_measure_and_scale(self, rational_chain, chain_factory):
        # build_c_matrix is the one holder of pi and s: the same values the
        # model builders give, exact Fractions for exact rates and the same
        # bits for float rates.
        for spec in (rational_chain, chain_factory(24)):
            c = b.build_c_matrix(spec, 3)
            pi = b.build_speed_measure(spec)
            assert c.spec is spec
            assert c.pi == pi
            assert c.s == b.build_scale_function(spec, pi)
            assert all(isinstance(v, Fraction) == spec.is_rational for v in c.pi.pi)
            # s is built from the fields on first read, so a replaced pi gets its own s
            twice = b.SpeedMeasure(tuple(2 * p for p in pi.pi))
            moved = dataclasses.replace(c, pi=twice)
            assert moved.s == b.build_scale_function(spec, twice) != c.s

    def test_strictly_lower_triangular_structure(self, chain_factory):
        c = build(chain_factory(3))
        assert c.value(2, 3) == 0.0
        assert c.value(1, 7) == 0.0
        assert c.value(5, 5) > 0

    def test_value_row_out_of_range(self, two_state_chain):
        c = build(two_state_chain)
        with pytest.raises(IndexError, match="row out of range"):
            c.value(3, 1)

    def test_as_array_matches_values(self, chain_factory):
        c = build(chain_factory(4), max_index=6)
        arr = c.as_array()
        assert arr.shape == (7, 7)
        assert arr[3, 2] == float(c.value(3, 2))

    def test_rational_mode_needs_exact_rates(self, chain_factory):
        with pytest.raises(ValueError, match="rational mode requires exact"):
            build(chain_factory(5), rational=True)

    def test_max_index_validation(self, two_state_chain):
        with pytest.raises(ValueError, match="max_index"):
            b.build_c_matrix(two_state_chain, 0)

    @pytest.mark.parametrize("max_index", [2.5, "3", True])
    def test_max_index_must_be_an_integer(self, two_state_chain, max_index):
        # 2.5 and "3" once raised TypeError from a slice; True built one row
        with pytest.raises(ValueError, match="max_index: must be an integer, got"):
            b.build_c_matrix(two_state_chain, max_index)

    def test_rows_beyond_chain_warn_and_truncate(self, two_state_chain):
        # The recursion needs lambda_i > 0, so rows stop at the top state.
        with pytest.warns(UserWarning, match="not constructible"):
            c = b.build_c_matrix(two_state_chain, 4)
        assert c.max_index == 2


class TestIntegerRecurrence:
    """The exact rows come from integer numerators over one denominator per
    row; they must equal the Fraction recurrence entry for entry."""

    @staticmethod
    def check(spec, max_index, rational=None):
        c = b.build_c_matrix(spec, max_index, rational=rational)
        assert c.rational
        assert c.rows == reference_rows(spec, max_index, Fraction)
        assert all(type(v) is Fraction for row in c.rows for v in row)
        assert b.verify_columns(c) == 0

    @pytest.mark.parametrize("n", [10, 20, 30])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_quarter_rate_chains(self, n, seed):
        spec = quarter_rate_chain(1000 * n + seed, n)
        for max_index in sorted({1, 2, n // 2, n}):
            self.check(spec, max_index)

    @pytest.mark.parametrize("kappa", [1, Fraction(3, 2)])
    def test_walks(self, kappa):
        self.check(b.symmetric_rw_spec(kappa, 30), 30)

    def test_asymmetric_walk(self):
        spec, _ = b.asymmetric_rw(Fraction(5, 4), 1, 12)
        self.check(spec, 12)

    def test_unlike_denominators(self, rational_chain):
        self.check(rational_chain, 4)
        spec = b.ProcessSpec(
            (Fraction(1, 3), Fraction(2, 7), Fraction(5, 11), 0),
            (Fraction(3, 7), 2, Fraction(1, 3), Fraction(9, 11)),
        )
        self.check(spec, 4)

    def test_numpy_integer_walk_equals_int_walk(self):
        # numpy integer rates once wrapped in the integer recursion from row
        # 30 on: C(60, 1) = 1.989 against 1.4999999999592
        c = b.build_c_matrix(b.asymmetric_rw_spec(np.int64(3), np.int64(2), 60), 60)
        assert c.rows == b.build_c_matrix(b.asymmetric_rw_spec(3, 2, 60), 60).rows
        assert b.verify_columns(c) == 0.0

    def test_integer_rates_forced_rational(self):
        self.check(b.ProcessSpec((2, 3, 1, 5, 0), (1, 4, 2, 5, 3)), 5, rational=True)

    def test_float_rows_unchanged(self, chain_factory):
        for seed in (21, 22):
            spec = chain_factory(seed)
            c = b.build_c_matrix(spec, 10, rational=False)
            assert c.rows == reference_rows(spec, 10, float)


class TestAgainstClosedForm:
    @pytest.mark.parametrize("kappa", [1, 2])
    def test_symmetric_rw_rows_exact(self, kappa):
        # Recursion output equals the Chebyshev-coefficient closed form, as Fractions.
        spec = b.symmetric_rw_spec(kappa, 14)
        c = build(spec, max_index=12)
        assert c.rational
        assert c.rows == rw_cmatrix_closed_form(kappa, 12)


class TestColumnIdentity:
    def test_columns_satisfy_generator_recursion_float(self, chain_factory):
        for seed in (21, 22, 23):
            spec = chain_factory(seed)
            c = build(spec)
            assert b.verify_columns(c) < 1e-12

    def test_columns_exact_rational(self, rational_chain):
        c = build(rational_chain)
        assert b.verify_columns(c) == 0


class TestPolynomialEvaluation:
    def test_theta_zero_gives_scale(self, rational_chain):
        c = build(rational_chain)
        for i in range(1, 5):
            assert b.eval_psi_theta(c, i, 0) == c.s[i]

    def test_eigen_equation_exact(self, rational_chain):
        # Q psi_theta = theta psi_theta, checked in exact arithmetic.
        c = build(rational_chain)
        theta = Fraction(2, 3)
        psi = [Fraction(0)] + [b.eval_psi_theta(c, i, theta) for i in range(1, 5)]
        qpsi = b.apply_Q(rational_chain, psi)
        for i in range(1, 4):  # all rows except the truncation boundary
            assert qpsi[i - 1] == theta * psi[i]

    def test_eigen_equation_float(self, chain_factory):
        spec = chain_factory(29)
        c = build(spec)
        theta = -0.8
        psi = [0.0] + [b.eval_psi_theta(c, i, theta) for i in range(1, spec.n_states + 1)]
        qpsi = b.apply_Q(spec, psi)
        for i in range(1, spec.n_states):
            assert qpsi[i - 1] == pytest.approx(theta * psi[i], rel=1e-10, abs=1e-12)

    def test_state_out_of_range(self, two_state_chain):
        c = build(two_state_chain)
        with pytest.raises(IndexError, match="C-matrix has rows"):
            b.eval_psi_theta(c, 9, 1.0)


class TestOperatorCoefficients:
    def test_row_slice(self, rational_chain):
        c = build(rational_chain)
        coeffs = b.diff_operator_coeffs(c, 3)
        assert coeffs == tuple(c.value(3, m) for m in range(1, 4))

    def test_row_one_is_inverse_mu1(self, two_state_chain):
        c = build(two_state_chain)
        assert b.diff_operator_coeffs(c, 1) == (c.value(1, 1),)

    def test_rejects_row_zero(self, two_state_chain):
        c = build(two_state_chain)
        with pytest.raises(IndexError, match="C-matrix has rows 1"):
            b.diff_operator_coeffs(c, 0)
