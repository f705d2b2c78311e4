"""Mini-batch quadratic models of neural-network losses: bias diagnostics,
debiased conjugate gradients, and a debiased Kronecker-factored Laplace
approximation."""

from .errors import NumericalError, ValidationError
from .linalg import (
    DenseSymMatrix,
    EigenDecomposition,
    Rng,
    kron_matvec,
    sym_eigh,
    top_k_eigenpairs,
)
from .model import Batch, KfacBlock, Mlp, MlpArchitecture, ParamVector, one_hot
from .quadratic import (
    CurvatureOperator,
    QuadraticModel,
    build_quadratic,
    directional_curvature,
    directional_slope,
    fullbatch_quadratic,
    grad_at,
    subspace_eval,
    synthetic_quadratic,
    value_at,
)
from .cg import CgConfig, CgTrace, cg_minimize, debiased_cg, newton_step
from .laplace import (
    LaplacePosterior,
    accumulate_kfac,
    build_posterior,
    debias_kfac,
    draw_noise,
    predictive,
    sample_params,
)
from .diagnostics import (
    BiasSummary,
    OverlapMatrix,
    ScanReport,
    bias_summary,
    cg_direction_scan,
    eigendirection_scan,
    overlap_matrix,
    slope_bias,
    spectral_transfer,
)
from .metrics import ProbTable, accuracy, auroc, ece, nll, predictive_entropy

__version__ = "0.1.0"
