"""Stochastic linearized ADMM for non-convex composite objectives.

Solves min_x H(x) + F(Ax) where H is a finite-sum smooth loss, F a
separable sparsity penalty and A a linear operator, replacing the full
gradient in the linearized primal step with a pluggable (optionally
variance-reduced) stochastic estimate.
"""

from .diagnostics import (
    ETA_GRID,
    DiagnosticsRecord,
    ParamReport,
    StabilityConstants,
    VarianceConstants,
    descent_coefficient,
    stability_constants,
    theoretical_constants,
    validate_params,
)
from .estimators import (
    EstimatorSpec,
    GradientEstimator,
    init_estimator,
)
from .exceptions import (
    ConfigError,
    DataError,
    DiagnosticUndefinedError,
    DivergenceError,
    NoCertifiedConstantsError,
    ParameterError,
    ParseError,
    ShapeError,
    SpectralEstimationError,
)
from .libsvm import parse_libsvm
from .linops import (
    DenseMatrix,
    FiniteDifference2D,
    Identity,
    LinearOperator,
    SpectralEstimates,
    VerticalStack,
    estimate_spectral,
)
from .losses import (
    SIGMOID_CURVATURE,
    FiniteSumLoss,
    LeastSquaresComponent,
    LipschitzBound,
    SigmoidComponent,
)
from .problems import (
    Dataset,
    Problem,
    build_fused_lasso,
    build_graph,
    build_toy_reconstruction,
    generate_synthetic_quadratic,
    rectangle_phantom,
)
from .regularizers import L0, L1, Regularizer
from .solver import (
    IterationRecord,
    RunResult,
    SolverConfig,
    SolverState,
    run,
    step,
)

__version__ = "0.1.0"
