"""Graphon sampling, blockmodel profile-likelihood fitting, and risk metrics."""

from .blockmodel import (
    BlockStats,
    CommunityAssignment,
    FitResult,
    OracleFit,
    bernoulli_kl,
    block_stats,
    blockmodel_log_likelihood,
    count_admissible_assignments,
    mple_exhaustive,
    mple_search,
    oracle_block_means,
    oracle_mple,
    per_edge_log_likelihood,
    profile_log_likelihood,
)
from .errors import (
    BudgetError,
    ConfigError,
    DomainError,
    GraphonFitError,
    InternalError,
    ModelError,
    SaturatedBlockError,
)
from .graphons import (
    Graphon,
    Partition,
    StepGraphon,
    balanced_partition,
    block_average_graphon,
    graphon_by_name,
    graphon_catalog,
    holder_certificate,
    partition_cdf,
    partition_quantile,
    stepfunction_error,
    stepfunction_error_bound,
)
from .harness import (
    ExperimentConfig,
    SweepResult,
    oracle_rank_assignment,
    run_sweep,
    slope_estimate,
)
from .risk import (
    GraphonEstimate,
    RiskReport,
    build_estimator,
    graphon_mse,
    kl_quadratic_bound,
    kl_taylor_check,
    normalized_kl_risk,
    oracle_risk,
)
from .sampling import (
    AdjacencyMatrix,
    EdgeProbabilityMatrix,
    LatentSample,
    edge_density,
    edge_probabilities,
    sample_adjacency,
    sample_latents,
)

__version__ = "0.1.0"
