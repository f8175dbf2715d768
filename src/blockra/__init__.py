"""Block rearrangement toolkit: variance-minimizing rearrangements of matrix
columns, dependence diagnostics, exact oracles, an MCMC search variant, and
a workflow that fits joint dependence so row sums match a target law."""

__version__ = "0.1.0"

from .algorithms import BlockRaConfig, RunResult, block_ra1, block_ra2, sample_partitions, standard_ra
from .bench import BenchCell, BenchReport, StartCensus, enumerate_starts, run_table_benchmark
from .dependence import (
    DependenceReport,
    multivariate_dependence_exact,
    multivariate_dependence_sampled,
    spearman,
)
from .gof import (
    GofVerdict,
    TargetDistribution,
    Thresholds,
    default_thresholds,
    kolmogorov_asymptotic_cdf,
    ks_distance,
    median_threshold,
    verdict,
    w2_distance,
)
from .matrix import (
    Partition,
    RearrangementMatrix,
    countermonotone_rearrange,
    rank_vector,
    read_matrix_csv,
    sample_variance,
    write_matrix_csv,
)
from .mcmc import (
    ChainTrace,
    McmcConfig,
    ObjectiveSpec,
    gumbel_sample,
    mcmc_block_ra,
    propose_permutation,
    resolve_rate,
)
from .oracle import (
    OracleResult,
    brute_force_minimum,
    haus_integer_matrix,
    haus_integer_minimum,
    make_zero_sum_normal_matrix,
)
from .targetfit import (
    FitConfig,
    FitReport,
    MarginSpec,
    SpreadResult,
    discretize_quantiles,
    extend_with_countermonotone_pairs,
    fit_sum_to_target,
    spread_dependence,
)

__all__ = [
    "__version__",
    "BlockRaConfig",
    "RunResult",
    "block_ra1",
    "block_ra2",
    "sample_partitions",
    "standard_ra",
    "BenchCell",
    "BenchReport",
    "StartCensus",
    "enumerate_starts",
    "run_table_benchmark",
    "DependenceReport",
    "multivariate_dependence_exact",
    "multivariate_dependence_sampled",
    "spearman",
    "GofVerdict",
    "TargetDistribution",
    "Thresholds",
    "default_thresholds",
    "kolmogorov_asymptotic_cdf",
    "ks_distance",
    "median_threshold",
    "verdict",
    "w2_distance",
    "ObjectiveSpec",
    "Partition",
    "RearrangementMatrix",
    "countermonotone_rearrange",
    "rank_vector",
    "read_matrix_csv",
    "sample_variance",
    "write_matrix_csv",
    "ChainTrace",
    "McmcConfig",
    "gumbel_sample",
    "mcmc_block_ra",
    "propose_permutation",
    "resolve_rate",
    "OracleResult",
    "brute_force_minimum",
    "haus_integer_matrix",
    "haus_integer_minimum",
    "make_zero_sum_normal_matrix",
    "FitConfig",
    "FitReport",
    "MarginSpec",
    "SpreadResult",
    "discretize_quantiles",
    "extend_with_countermonotone_pairs",
    "fit_sum_to_target",
    "spread_dependence",
]
