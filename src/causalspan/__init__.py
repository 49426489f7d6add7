"""Bound the possible total causal effects of covariates on a response.

From observational multivariate Gaussian data alone, a causal effect is
usually identified only up to the Markov equivalence class of DAGs that
fit the data.  This package estimates that class (PC algorithm), computes
the multiset of effects the class allows for each covariate (one value
per member DAG, or a fast local equivalent), and summarizes it, e.g. by
the minimum absolute effect, a lower bound on the covariate's influence.
"""

from .effects import (
    BootstrapScores,
    CovariateScore,
    EffectEntry,
    EffectMultiset,
    ThetaMatrix,
    bootstrap_scores,
    global_effects,
    local_effects,
    multiset_distance,
    oracle_multiplicities,
    summarize,
)
from .errors import (
    CausalSpanError,
    ConfigError,
    DegenerateDataError,
    InputError,
    InsufficientSampleError,
    NotExtendableError,
    NumericalRankError,
    ResourceCapError,
)
from .gauss import (
    CITestConfig,
    CovMatrix,
    DagFit,
    Dataset,
    beta_given_s,
    bic_score,
    correlation_matrix,
    dag_mle,
    fisher_z_dependent,
    partial_correlation,
    sample_covariance,
    structural_covariance,
)
from .graphs import (
    CpdagValidation,
    PDGraph,
    allows_directed_path,
    cpdag_from_dag,
    enumerate_dags,
    extend_to_dag,
    is_locally_valid,
    meek_closure,
    validate_cpdag,
)
from .pc import (
    PcDiagnostics,
    PcResult,
    RepairResult,
    SepsetTable,
    bic_select_alpha,
    estimate_skeleton,
    orient_v_structures,
    pc_cpdag,
    repair_cpdag,
)
from .sim import (
    SimRecord,
    SimScenario,
    WeightedDag,
    error_measures,
    generate_data,
    population_covariance,
    population_effects,
    random_weighted_dag,
    run_scenario,
    summarize_records,
    write_records_csv,
)

__version__ = "0.1.0"
