"""Recover the initial distribution of an absorbed birth-and-death chain
from its first-hitting-time density.

The pieces: chain coordinates (speed measure, scale function), the
C-matrix whose row j is a differential operator in t, spectral measures
(exact atoms for finite chains, closed-form quadrature for the symmetric
walk), density and transition evaluators, the reconstruction itself
(spectral and blind-numeric routes), Doob h-transforms connecting
symmetric and asymmetric walks, and a Monte Carlo oracle.
"""

__version__ = "0.1.0"

from .model import (
    ProcessSpec,
    SpeedMeasure,
    ScaleFunction,
    build_speed_measure,
    build_scale_function,
    apply_Q,
    apply_DpiDs,
    spec_from_dict,
    load_spec,
    symmetric_rw_spec,
    asymmetric_rw_spec,
)
from .cmatrix import (
    CMatrix,
    build_c_matrix,
    eval_psi_theta,
    diff_operator_coeffs,
    verify_columns,
)
from .spectral import (
    DiscreteSpectrum,
    RWSpectrum,
    psi_table,
    finite_spectrum,
    symmetric_rw_spectrum,
    rw_psi_values,
    orthogonality_defect,
    stieltjes_check,
)
from .densities import (
    InitialDistribution,
    DensityEvaluator,
    finite_evaluator,
    rw_evaluator,
    spectral_sum,
    time_grid,
)
from .reproduce import (
    NumericApplication,
    ReproductionReport,
    apply_psi_dt_numeric,
    recover_initial,
    derivative_bound_sequence,
)
from .htransform import (
    HTransform,
    rw_alphas,
    rw_gamma_eigenfunctions,
    transform_rates,
    transform_cmatrix,
    transform_density,
    transform_transition,
    asymmetric_rw,
    transformed_evaluator,
)
from .simulate import (
    SimConfig,
    HittingSample,
    sample_path,
    empirical_hitting,
    empirical_occupancy,
    empirical_transition,
    ks_statistic,
)

# The independent references are used by no module on the main path; load
# them with the package all the same, so `bdhit.oracles` is at hand after
# `import bdhit`.
from . import oracles

__all__ = [
    "__version__",
    # model
    "ProcessSpec",
    "SpeedMeasure",
    "ScaleFunction",
    "build_speed_measure",
    "build_scale_function",
    "apply_Q",
    "apply_DpiDs",
    "spec_from_dict",
    "load_spec",
    "symmetric_rw_spec",
    "asymmetric_rw_spec",
    # cmatrix
    "CMatrix",
    "build_c_matrix",
    "eval_psi_theta",
    "diff_operator_coeffs",
    "verify_columns",
    # spectral
    "DiscreteSpectrum",
    "RWSpectrum",
    "psi_table",
    "finite_spectrum",
    "symmetric_rw_spectrum",
    "rw_psi_values",
    "orthogonality_defect",
    "stieltjes_check",
    # densities
    "InitialDistribution",
    "DensityEvaluator",
    "finite_evaluator",
    "rw_evaluator",
    "spectral_sum",
    "time_grid",
    # reproduce
    "NumericApplication",
    "ReproductionReport",
    "apply_psi_dt_numeric",
    "recover_initial",
    "derivative_bound_sequence",
    # htransform
    "HTransform",
    "rw_alphas",
    "rw_gamma_eigenfunctions",
    "transform_rates",
    "transform_cmatrix",
    "transform_density",
    "transform_transition",
    "asymmetric_rw",
    "transformed_evaluator",
    # simulate
    "SimConfig",
    "HittingSample",
    "sample_path",
    "empirical_hitting",
    "empirical_occupancy",
    "empirical_transition",
    "ks_statistic",
]
