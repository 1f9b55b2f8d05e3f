"""The reference implementations themselves, cross-checked against scipy/numpy."""

import math

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
import scipy.special
from numpy.polynomial import polynomial as P

from bdhit import ProcessSpec, asymmetric_rw_spec, symmetric_rw_spec
from bdhit.oracles import (
    bessel_i1,
    chebyshev_u_coeff,
    interior_rate_matrix,
    passage_identities,
    rw_hitting_density_closed_form,
    uniformized_transition_matrix,
)
from bdhit.spectral import _bidiagonal_singular_values
from conftest import random_chain


def test_interior_rate_matrix_rows(two_state_chain):
    q = interior_rate_matrix(two_state_chain)
    np.testing.assert_allclose(q, [[-2.0, 1.0], [1.0, -1.0]])


@pytest.mark.parametrize("seed", [101, 102])
@pytest.mark.parametrize("t", [0.1, 1.0, 10.0])
def test_uniformization_matches_expm(seed, t):
    spec = random_chain(seed)
    q = interior_rate_matrix(spec)
    got = uniformized_transition_matrix(spec, t)
    want = scipy.linalg.expm(q * t)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)


def test_uniformization_t_zero_is_identity():
    spec = random_chain(103)
    np.testing.assert_allclose(
        uniformized_transition_matrix(spec, 0.0), np.eye(spec.n_states)
    )


def test_uniformization_rejects_negative_t():
    with pytest.raises(ValueError, match="nonnegative"):
        uniformized_transition_matrix(random_chain(104), -1.0)


@pytest.mark.parametrize("t", [math.nan, math.inf])
def test_uniformization_refuses_non_finite_t_by_name(t):
    # once a bare "cannot convert float NaN to integer" and an OverflowError
    with pytest.raises(ValueError, match=f"t: must be nonnegative and finite, got {t}"):
        uniformized_transition_matrix(random_chain(104), t)


@pytest.mark.parametrize("z", [0.01, 0.5, 2.0, 8.0, 25.0])
def test_bessel_series_matches_scipy(z):
    assert bessel_i1(z) == pytest.approx(scipy.special.iv(1, z), rel=1e-13)


def test_rw_density_integrates_to_exact_cdf():
    # The antiderivative of exp(-z) I_1(z) / t (z = 2 kappa t) is
    # -exp(-z)(I_0(z) + I_1(z)), so the mass on [0, T] has a closed form.
    T = 60.0
    for kappa in (1.0, 2.0):
        mass, err = scipy.integrate.quad(
            lambda t: rw_hitting_density_closed_form(kappa, t), 0, T, limit=200
        )
        z = 2 * kappa * T
        want = 1.0 - math.exp(-z) * (scipy.special.iv(0, z) + scipy.special.iv(1, z))
        assert mass == pytest.approx(want, abs=1e-9)


def test_rw_density_rejects_nonpositive_t():
    with pytest.raises(ValueError, match="positive"):
        rw_hitting_density_closed_form(1.0, 0.0)


def test_chebyshev_coeffs_match_recurrence():
    # U_{n+1} = 2x U_n - U_{n-1}, built with numpy polynomial arithmetic.
    u_prev = P.Polynomial([1.0])
    u_cur = P.Polynomial([0.0, 2.0])
    polys = [u_prev, u_cur]
    for _ in range(12):
        u_prev, u_cur = u_cur, P.Polynomial([0.0, 2.0]) * u_cur - u_prev
        polys.append(u_cur)
    for i, poly in enumerate(polys):
        coef = poly.coef
        for j in range(i + 2):
            want = coef[j] if j < len(coef) else 0.0
            assert float(chebyshev_u_coeff(i, j)) == want


def test_chebyshev_coeffs_out_of_range_are_zero():
    assert chebyshev_u_coeff(3, 5) == 0
    assert chebyshev_u_coeff(4, 3) == 0  # parity mismatch
    assert chebyshev_u_coeff(-1, 0) == 0


def dqds_atoms(spec):
    """The atoms finite_spectrum takes: squared dqds singular values, ascending."""
    lam, mu = spec.lam_array(), spec.mu_array()
    sigma = _bidiagonal_singular_values(np.sqrt(mu), -np.sqrt(lam[:-1]))
    return np.sort(sigma * sigma)


# the (2, 1) walk stops short of N = 1024, where R_1 ~ 2^N overflows
PASSAGE_CHAINS = {
    "random3-200": lambda: random_chain(3, 200),
    "random5-200": lambda: random_chain(5, 200),
    "random3-2000": lambda: random_chain(3, 2000),
    "walk21-1000": lambda: asymmetric_rw_spec(2, 1, 1000),
    "walk12-2000": lambda: asymmetric_rw_spec(1, 2, 2000),
    "walk-2000": lambda: symmetric_rw_spec(1, 2000),
    "linear12-400": lambda: ProcessSpec((*range(1, 400), 0), tuple(range(2, 801, 2))),
}


@pytest.mark.parametrize("make", PASSAGE_CHAINS.values(), ids=PASSAGE_CHAINS.keys())
def test_passage_identities_hold_on_dqds_atoms(make):
    spec = make()
    log_defect, mean_defect = passage_identities(spec, dqds_atoms(spec))
    assert abs(log_defect) <= 1e-10
    assert mean_defect <= 1e-12


def test_passage_mean_sees_a_perturbed_smallest_atom():
    spec = random_chain(3, 200)
    theta = dqds_atoms(spec)
    theta[0] *= 1 + 1e-8
    assert passage_identities(spec, theta)[1] > 1e-12


def test_passage_product_sees_a_dropped_atom():
    spec = random_chain(5, 200)
    assert abs(passage_identities(spec, dqds_atoms(spec)[:-1])[0]) > 1e-10


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
def test_passage_identities_refuse_an_atom_not_positive_and_finite(bad):
    # a 0.0 atom is what an underflowed theta_0 reads; once a log warning and NaN
    spec = random_chain(5, 20)
    theta = dqds_atoms(spec)
    theta[3] = bad
    with pytest.raises(ValueError, match=f"theta\\[3\\]: must be positive and finite, got {bad}"):
        passage_identities(spec, theta)
    with pytest.raises(ValueError, match="theta\\[0\\]"):
        passage_identities(spec, -dqds_atoms(spec))


def test_passage_identities_on_two_states(two_state_chain):
    # atoms (3 -+ sqrt 5)/2: product 1 = mu_1 mu_2, sum 1/theta = 3 = R_1/mu_1 + R_2/mu_2
    theta = np.array([(3 - math.sqrt(5)) / 2, (3 + math.sqrt(5)) / 2])
    log_defect, mean_defect = passage_identities(two_state_chain, theta)
    assert abs(log_defect) < 1e-15 and mean_defect < 1e-15
