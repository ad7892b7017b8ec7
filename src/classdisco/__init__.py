"""classdisco: discover new classes in out-of-distribution data.

Embed unlabeled samples with a semi-supervised classifier, cluster the
embeddings, accept the most learnable cluster as a new class, retrain, and
measure recovery with cluster accuracy and dataset reconstruction accuracy.
"""

from .clustering import (
    Clustering,
    KMeansConfig,
    fit_with_restarts,
    kmeanspp_init,
    lloyd_fit,
)
from .dataset import (
    CsvData,
    Dataset,
    GaussianMixtureSpec,
    IdxData,
    IdxFormatError,
    SplitSpec,
    add_class,
    load_csv,
    load_idx,
    make_split,
    synth_gaussian,
)
from .engine import (
    AcceptedCluster,
    DiscoveryState,
    ExperimentConfig,
    RoundRecord,
    class_count_config,
    evaluate_state,
    run_class_count_experiment,
    run_dynamic,
    run_static,
)
from .learner import (
    AdamConfig,
    Model,
    NetworkConfig,
    TrainingDivergedError,
    embed,
    expand_outputs,
    init_model,
    load_model,
    predict_proba,
    save_model,
    train_epochs,
)
from .metrics import (
    FrozenCluster,
    OverlapMapping,
    ReconstructionReport,
    cluster_accuracy,
    dataset_reconstruction_accuracy,
    nmi,
)
from .ood import OodDetector, Partition, calibrate, max_confidences, partition
from .selection import (
    ClusterFeatures,
    LearnabilityConfig,
    SelectionPolicy,
    density_score,
    learnability_scores,
    select,
)

__version__ = "0.1.0"
