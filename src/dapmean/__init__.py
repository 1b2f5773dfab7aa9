"""LDP mean estimation under general colluding poisoning attacks.

Building blocks: the piecewise perturbation mechanism, attack generators,
EM-based histogram filters that probe attacker features, the grouped
differential aggregation protocol, and a seeded experiment runner.
"""

from .attacks import (
    PoisonSpec,
    evasion_bounds,
    gen_bba,
    gen_gba,
    gen_input_manipulation,
    reduce_gba_to_bba,
)
from .bench import ExperimentConfig, gen_beta, load_csv, run_experiment
from .filters import (
    HistogramPair,
    ObservedCounts,
    TransformMatrix,
    attacker_count,
    bucket_counts,
    build_transform,
    default_tolerance,
    em,
    probe_side,
    suppression_mask,
)
from .mechanism import (
    BucketGrid,
    Budget,
    Dataset,
    normalize_dataset,
    perturbation_matrix,
    pm_perturb,
    worst_case_variance,
)
from .protocol import (
    AggregateResult,
    DapResult,
    Decision,
    GroupEstimate,
    GroupFilterInput,
    GroupPlan,
    aggregate_means,
    baseline_run,
    dap_collect,
    dap_plan,
    decide,
    group_mean_statistics,
    intra_group_mean,
    ostrich,
    run_dap,
    trimming,
)

__version__ = "0.1.0"
