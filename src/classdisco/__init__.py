"""classdisco: discover new classes in out-of-distribution data.

Embed unlabeled samples with a semi-supervised classifier, cluster the
embeddings, accept the most learnable cluster as a new class, retrain, and
measure recovery with cluster accuracy and dataset reconstruction accuracy.

Only the names of the README's library example are exported here; import
every other name from its module (``classdisco.learner`` and so on).
"""

from .config import ExperimentConfig
from .dataset import GaussianMixtureSpec, SplitSpec
from .engine import run_dynamic

__version__ = "0.1.0"
