"""Semi-supervised clustering via same-cluster oracle queries.

Recover approximate cluster centroids without knowing the number of
clusters, using D2-sampling, rejection sampling to uniformity, and a
query ledger as the complexity measure.
"""

from .datasets import DatasetSpec, load, write_csv
from .geometry import CenterSet, PointSet, centroid, centroid_error, cost
from .harness import (
    ExperimentPlan,
    TrialRecord,
    check_reducibility,
    classify_study,
    run_classify_study,
    run_error_report,
    run_fixed_budget,
    run_fixed_recovery,
)
from .noisy import NoisyConfig, find_clusters, run_noisy
from .oracle import (
    BudgetExhausted,
    OracleSession,
    Representatives,
    check_cluster,
    classify,
)
from .recovery import (
    BandPartition,
    RecoveryConfig,
    RecoveryResult,
    phase1_probe,
    run_basic,
    run_basic_simplified,
    run_improved,
    run_improved_simplified,
    run_uniform,
    split_bands,
)
from .sampling import (
    FullyCovered,
    SamplerState,
    add_center,
    reference_point,
    rej_samp,
)
from .synthgen import SynthConfig, collision_groups, generate, zipf_sizes

__all__ = [
    "PointSet", "CenterSet", "cost", "centroid", "centroid_error",
    "OracleSession", "Representatives", "classify",
    "check_cluster", "BudgetExhausted",
    "SamplerState", "add_center",
    "reference_point", "rej_samp", "FullyCovered",
    "RecoveryConfig", "RecoveryResult", "BandPartition", "split_bands",
    "phase1_probe", "run_basic", "run_improved", "run_basic_simplified",
    "run_improved_simplified", "run_uniform",
    "NoisyConfig", "find_clusters", "run_noisy",
    "SynthConfig", "zipf_sizes", "collision_groups", "generate",
    "DatasetSpec", "load", "write_csv",
    "ExperimentPlan", "TrialRecord", "run_fixed_budget", "run_fixed_recovery",
    "run_error_report", "run_classify_study", "classify_study",
    "check_reducibility",
]
