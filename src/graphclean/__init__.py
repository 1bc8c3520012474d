"""graphclean: p-Laplacian graph denoising plus a two-layer GCN, end to end.

Stage 1 recovers non-negative edge weights from a poisoned graph's pair
weights by projected gradient descent on a fidelity + p-Dirichlet objective;
Stage 2 trains a from-scratch GCN on the recovered graph.  See the README for the
CLI and the experiment harness.
"""

from .attacks import PerturbationReport, heterophilic_add, perturbation_report, random_add
from .datasets import (
    BundleFormatError,
    Dataset,
    SbmParams,
    Split,
    generate_sbm,
    load_bundle,
    load_splits,
    save_bundle,
    split_nodes,
)
from .denoise import (
    DenoiseConfig,
    DenoiseDivergence,
    DenoiseResult,
    denoise,
    gradient,
    linear_coefficient,
    objective,
    pairwise_p_distances,
)
from .gcn import (
    GcnParams,
    TrainConfig,
    TrainReport,
    accuracy,
    cross_entropy,
    forward,
    normalize_adjacency,
    train,
    xavier_params,
)
from .operators import WeightVector, adjacency_from_weights, pair_count, pair_index
from .pipeline import (
    ARMS,
    AttackSpec,
    ExperimentConfig,
    ExperimentReport,
    PipelineStageError,
    run_pipeline,
    sweep,
    write_report_csv,
    write_report_json,
)
from .rng import SplitMix64, derive_seed

__version__ = "0.1.0"
