"""Shared fixtures: seeded random chains and small exactly solvable ones."""

import math
from fractions import Fraction

import numpy as np
import pytest

from bdhit import ProcessSpec
from bdhit.spectral import _psi_rows


def random_chain(seed, n=10, lo=0.5, hi=3.0):
    """Float chain with rates drawn uniformly from [lo, hi], top birth rate 0."""
    rng = np.random.default_rng(seed)
    lam = list(rng.uniform(lo, hi, n))
    mu = list(rng.uniform(lo, hi, n))
    lam[-1] = 0.0
    return ProcessSpec(tuple(lam), tuple(mu))


def walk_table(spec, theta):
    """psi_theta(1..N) for each theta, one row each: a whole _psi_rows walk.

    The reference table tests compare psi reads against; the walk reuses
    its buffers, so every row is copied out.
    """
    theta = np.asarray(theta, dtype=float)
    return np.array([row.copy() for row in _psi_rows(spec, theta)]).T


@pytest.fixture(
    params=[True, "1", None, math.nan, 10**400], ids=["bool", "str", "none", "nan", "1e400"]
)
def bad_real(request):
    """A value every real argument refuses: a bool, a string, None, NaN and
    an exact int beyond float range."""
    return request.param


@pytest.fixture
def chain_factory():
    return random_chain


@pytest.fixture
def two_state_chain():
    """lam = (1, 0), mu = (1, 1): atoms (3 -+ sqrt(5))/2, weights (5 -+ sqrt(5))/10."""
    return ProcessSpec((1, 0), (1, 1))


@pytest.fixture
def rational_chain():
    """Small chain with Fraction rates for exact-arithmetic paths."""
    return ProcessSpec(
        (Fraction(3, 2), Fraction(2), Fraction(1), 0),
        (Fraction(1), Fraction(1, 2), Fraction(2), Fraction(5, 4)),
    )
