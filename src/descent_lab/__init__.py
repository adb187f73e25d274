"""descent-lab: double descent in ordinary linear regression.

Reproduce the test-error spike at the interpolation threshold, decompose it
into its three interacting factors (small singular values, test-set overlap
with the trailing singular modes, and training residuals), and switch each
factor off to show it is load-bearing.

Imported before numpy, the package has numpy load OpenBLAS with one thread:
every matrix here is far below the size where BLAS threads pay, and idle
OpenBLAS workers spin for about 0.1 s of CPU per process.  A thread count
the environment sets for OpenBLAS wins, and the variable is removed again
once numpy is loaded, so child processes do not inherit it.
"""

import os as _os
import sys as _sys

# OpenBLAS reads these once, when numpy loads it; the first one set wins.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

if "numpy" not in _sys.modules and not any(v in _os.environ for v in _BLAS_THREAD_VARS):
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy as _numpy
    finally:
        del _os.environ["OPENBLAS_NUM_THREADS"]

from .data import (
    Preprocessing,
    load_csv,
    make_polynomial_dataset,
    make_student_teacher,
    polynomial_target,
)
from .decomposition import (
    ErrorDecomposition,
    GroundTruth,
    ModeContribution,
    decompose_test_error,
    decompose_test_errors,
    make_ground_truth,
    smallest_nonzero_singular_value,
)
from .errors import (
    ConfigError,
    DataError,
    DecompositionMismatchError,
    DescentLabError,
    DimensionMismatchError,
    DivergenceError,
    DomainError,
    EmptySeriesError,
    EmptySpectrumError,
    IterationFailureError,
    RankDeficientError,
)
from .estimators import (
    FitResult,
    GdTrace,
    REGIME_INTERP,
    REGIME_OVER,
    REGIME_UNDER,
    default_learning_rate,
    fit_gradient_descent,
    fit_min_norm,
    fit_ols_under,
    fit_pinv,
    fit_ridge,
    regime_of,
)
from .experiments import (
    AblationKind,
    CellFailure,
    EstimatorPolicy,
    SweepConfig,
    SweepOutcome,
    SweepRecord,
    apply_ablation,
    median_series,
    parse_ablation,
    parse_estimator,
    peak_ratio,
    run_polynomial_sweep,
    run_sweep,
)
from .linalg import (
    SvdResult,
    project_onto_rowspace,
    pseudoinverse_apply,
    svd,
    truncate_svd,
)
from .svgplot import render_line_svg

__version__ = "0.1.0"

__all__ = [
    "AblationKind",
    "CellFailure",
    "ConfigError",
    "DataError",
    "DecompositionMismatchError",
    "DescentLabError",
    "DimensionMismatchError",
    "DivergenceError",
    "DomainError",
    "EmptySeriesError",
    "EmptySpectrumError",
    "ErrorDecomposition",
    "EstimatorPolicy",
    "FitResult",
    "GdTrace",
    "GroundTruth",
    "IterationFailureError",
    "ModeContribution",
    "Preprocessing",
    "RankDeficientError",
    "REGIME_INTERP",
    "REGIME_OVER",
    "REGIME_UNDER",
    "SvdResult",
    "SweepConfig",
    "SweepOutcome",
    "SweepRecord",
    "apply_ablation",
    "decompose_test_error",
    "decompose_test_errors",
    "default_learning_rate",
    "fit_gradient_descent",
    "fit_min_norm",
    "fit_ols_under",
    "fit_pinv",
    "fit_ridge",
    "load_csv",
    "make_ground_truth",
    "make_polynomial_dataset",
    "make_student_teacher",
    "median_series",
    "parse_ablation",
    "parse_estimator",
    "peak_ratio",
    "polynomial_target",
    "project_onto_rowspace",
    "pseudoinverse_apply",
    "regime_of",
    "render_line_svg",
    "run_polynomial_sweep",
    "run_sweep",
    "smallest_nonzero_singular_value",
    "svd",
    "truncate_svd",
]
