"""Deterministic quadrature feature maps for shift-invariant kernels."""

from .bounds import counts, poly_bound, sparse_bound, subgaussian_parameter
from .errors import (
    ConfigError,
    ConstructionError,
    ConvergenceError,
    CsvParseError,
    EmbeddingUnsupportedError,
    GridSizeError,
    QuadfeatError,
)
from .featuremaps import (
    AnovaFeatureMap,
    FeatureMap,
    anova_compose,
    embed_grid_fast,
    load_feature_map,
    qmc_halton,
    rff,
    save_feature_map,
    subsampled_feature_map,
)
from .grids import (
    GridQuadrature,
    dense_grid,
    exactness_residual,
    load_grid,
    save_grid,
    sparse_grid,
    subsample_dense_grid,
    subsample_grid,
)
from .harness import (
    Dataset,
    ErrorReport,
    SweepConfig,
    error_curve,
    error_stats,
    load_csv,
    rms_error,
    sample_pairs,
    sweep,
    synthetic_mixture,
)
from .kernels import (
    AnovaKernel,
    GaussianKernel,
    anova_stats,
    eval_anova,
    eval_gaussian,
    load_anova,
    save_anova,
)
from .quad1d import (
    QuadratureRule1D,
    gauss_hermite,
    integrate_1d,
    normal_moment,
)
from .solvers import (
    BisectResult,
    NnlsSolution,
    bisect_lambda,
    construct_poly_exact,
    nnls,
    reweight,
)

__version__ = "0.1.0"
