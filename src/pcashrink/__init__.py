"""Covariance PCA from scratch, plus tools that measure what truncating
the transform does to pairwise distances: every distance shrinks (never
grows), the shrinkage is bounded by the endpoints' reconstruction
errors, and the discarded-eigenvalue sum predicts how much shrinkage to
expect. See the demos/ directory for worked examples."""

from ._version import VERSION as __version__
from .errors import (
    BadFoldsError,
    DatasetIOError,
    DatasetParseError,
    DegenerateLabelsError,
    DimMismatchError,
    EmptyDataError,
    FullRankInjectiveError,
    InsufficientPairsError,
    InsufficientRowsError,
    NoConvergenceError,
    NonFiniteError,
    NotSymmetricError,
    ToolkitError,
    TooManyPairsError,
    ZeroVarianceError,
)
from .matrix import (
    EigenPairs,
    covariance,
    jacobi_eigendecomposition,
)
from .pca import (
    PcaModel,
    discarded_eigenvalue_sum,
    fit,
    load_model,
    reconstruct,
    save_model,
    transform,
)
from .shrinkage import (
    PairTable,
    ShrinkageSummary,
    collision_witness,
    shrinkage_blocks,
    shrinkage_summaries,
)
from .experiments import (
    CorrelationSummary,
    Dataset,
    SweepResult,
    SweepRow,
    anisotropic_gaussian,
    correlate,
    knn_accuracy,
    load_csv,
    pearson,
    run_sweep,
)
from .reports import STRONG_CORRELATION

__all__ = [
    "__version__",
    "ToolkitError",
    "EmptyDataError",
    "NonFiniteError",
    "NotSymmetricError",
    "NoConvergenceError",
    "DimMismatchError",
    "FullRankInjectiveError",
    "InsufficientPairsError",
    "TooManyPairsError",
    "ZeroVarianceError",
    "InsufficientRowsError",
    "BadFoldsError",
    "DegenerateLabelsError",
    "DatasetIOError",
    "DatasetParseError",
    "EigenPairs",
    "covariance",
    "jacobi_eigendecomposition",
    "PcaModel",
    "fit",
    "transform",
    "reconstruct",
    "discarded_eigenvalue_sum",
    "save_model",
    "load_model",
    "ShrinkageSummary",
    "PairTable",
    "CorrelationSummary",
    "collision_witness",
    "shrinkage_blocks",
    "shrinkage_summaries",
    "pearson",
    "Dataset",
    "STRONG_CORRELATION",
    "SweepRow",
    "SweepResult",
    "load_csv",
    "knn_accuracy",
    "run_sweep",
    "correlate",
    "anisotropic_gaussian",
]
