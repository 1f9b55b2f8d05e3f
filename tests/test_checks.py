"""The verify battery as a library: one record per check, pass/fail decided
once as value <= bound."""

import math

import numpy as np
import pytest

import bdhit as b
from bdhit.checks import CheckResult, run_checks
from conftest import random_chain

BATTERY = [
    "speed-measure-balance", "generator-factorization", "scale-harmonic",
    "cmatrix-column-recursion", "spectrum-atoms-positive-ascending",
    "eigenfunction-orthogonality", "density-total-mass", "hitting-cdf-limits",
    "density-transition-link", "spectral-reproduction", "derivative-bounds",
    "stieltjes-ratio", "htransform-cmatrix-commutation",
    "htransform-density-conjugacy", "monte-carlo-ks", "simulation-determinism",
]

# the checks that count violated conditions, against bound 0
COUNTS = ("spectrum-atoms-positive-ascending", "hitting-cdf-limits", "simulation-determinism")


def decided_once(records):
    """True when every record's passed is exactly value <= bound, or None
    with value None when skipped."""
    return all(
        (r.passed is None and r.value is None)
        or (r.value is not None and r.passed is bool(r.value <= r.bound))
        for r in records
    )


def test_walk_gives_sixteen_records_in_battery_order():
    records = list(run_checks(b.symmetric_rw_spec(1, 12)))
    assert all(isinstance(r, CheckResult) for r in records)
    assert [r.name for r in records] == BATTERY
    assert all(r.passed is True for r in records)
    counts = {r.name: (r.value, r.bound) for r in records if r.name in COUNTS}
    assert counts == {name: (0, 0) for name in COUNTS}


@pytest.mark.parametrize(
    "make",
    [
        lambda: b.symmetric_rw_spec(1, 12),
        lambda: b.asymmetric_rw_spec(2, 1, 40),
        lambda: b.spec_from_dict({"model": "symmetric_rw", "kappa": "1/3", "N": 7}),
        lambda: random_chain(6, 6),
    ],
    ids=["walk-12", "walk21-40", "walk-third-7", "random-6"],
)
def test_passed_is_value_within_bound(make):
    records = list(run_checks(make()))
    assert decided_once(records)
    assert all(r.passed is not False for r in records)


def test_drifted_walk_skips_both_simulations():
    records = list(run_checks(b.asymmetric_rw_spec(2, 1, 40)))
    skipped = [r for r in records if r.passed is None]
    assert [r.name for r in skipped] == ["monte-carlo-ks", "simulation-determinism"]
    assert all(r.value is None and r.bound is None for r in skipped)
    assert skipped[0].detail.startswith("2000 paths x 2.2e+12 expected jumps each")


def test_large_orthogonality_defect_fails_that_check_alone(monkeypatch):
    monkeypatch.setattr(b.checks, "orthogonality_defect", lambda ev, i, j: 1e-3)
    records = list(run_checks(b.symmetric_rw_spec(1, 12)))
    failed = [r for r in records if not r.passed]
    assert failed == [
        CheckResult("eigenfunction-orthogonality", 1e-3, 1e-9, False, "max defect 0.001")
    ]
    assert decided_once(records)


def test_raising_check_measures_nan_and_fails_alone(monkeypatch):
    def raising(ev, i, j):
        raise ZeroDivisionError("float division by zero")

    monkeypatch.setattr(b.checks, "orthogonality_defect", raising)
    records = list(run_checks(b.symmetric_rw_spec(1, 6)))
    failed = [r for r in records if not r.passed]
    assert [r.name for r in failed] == ["eigenfunction-orthogonality"]
    assert math.isnan(failed[0].value) and math.isnan(failed[0].bound)
    assert failed[0].detail == "raised ZeroDivisionError: float division by zero"
    assert len(records) == 16


def test_refused_tilt_keeps_its_bounds_and_fails(monkeypatch):
    def refuse(ev, ht):
        raise OverflowError("speed measure overflows at pi[7]")

    monkeypatch.setattr(b.checks, "transformed_evaluator", refuse)
    failed = [r for r in run_checks(b.symmetric_rw_spec(1, 6)) if not r.passed]
    assert [(r.name, r.bound) for r in failed] == [
        ("htransform-cmatrix-commutation", 1e-10),
        ("htransform-density-conjugacy", 1e-9),
    ]
    assert all(math.isnan(r.value) for r in failed)
    assert {r.detail for r in failed} == {
        "tilted evaluator refused: speed measure overflows at pi[7]"
    }


def test_censored_paths_are_counted_against_zero(monkeypatch):
    def censoring(spec, config):
        return b.HittingSample(np.array([0.5, 1.0]), 3, config.t_horizon, 5)

    monkeypatch.setattr(b.checks, "empirical_hitting", censoring)
    record = next(r for r in run_checks(b.symmetric_rw_spec(1, 6)) if r.name == "monte-carlo-ks")
    assert record == CheckResult("monte-carlo-ks", 3, 0, False, "3 paths censored")


def test_ks_distance_is_measured_against_the_one_percent_point():
    record = next(r for r in run_checks(b.symmetric_rw_spec(1, 6)) if r.name == "monte-carlo-ks")
    assert record.bound == 1.6276 / math.sqrt(2000)
    assert 0 < record.value <= record.bound
    assert record.detail == f"D {record.value:.5f} vs critical {record.bound:.5f}"
