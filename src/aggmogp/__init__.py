"""Multi-output Gaussian processes over aggregated observations.

Observations are averages or sums of a latent function over supports
(intervals or cell sets) of a gridded domain rather than point values.
Several attributes share a small set of latent processes through
per-attribute mixing weights, and several domains share a common prior
over those weights, which is what carries knowledge across domains.
Training is variational with reparameterized weight samples; prediction
pools a Monte Carlo mixture of exact Gaussian posteriors and can refine
coarse observations onto finer partitions with calibrated variances.
"""

from . import errors
from .baselines import restrict_to_domain
from .evaluation import (
    CVResult,
    ExperimentReport,
    ExperimentSpec,
    SynthConfig,
    cv_select_L,
    mape,
    run_experiment,
    synth_generate,
)
from .geometry import (
    AVERAGE,
    SUM,
    AggregationRule,
    CellSet,
    Domain,
    GridSpec,
    Interval,
    Partition,
    Support,
    grid_block_partition,
    interval_bins,
)
from .inference import TrainConfig, TrainTrace, estimate_elbo, fit, refined_elbo
from .model import (
    AggregatedDataset,
    DatasetRecord,
    ModelState,
    assemble_C,
    init_state,
    uniform_rules,
)
from .prediction import (
    ConditionalPosterior,
    SupportPrediction,
    conditional_posterior,
    predict_grid,
    predict_supports,
)

__version__ = "0.1.0"

__all__ = [
    "AVERAGE",
    "SUM",
    "AggregatedDataset",
    "AggregationRule",
    "CVResult",
    "CellSet",
    "ConditionalPosterior",
    "DatasetRecord",
    "Domain",
    "ExperimentReport",
    "ExperimentSpec",
    "GridSpec",
    "Interval",
    "ModelState",
    "Partition",
    "Support",
    "SupportPrediction",
    "SynthConfig",
    "TrainConfig",
    "TrainTrace",
    "assemble_C",
    "conditional_posterior",
    "cv_select_L",
    "errors",
    "estimate_elbo",
    "fit",
    "grid_block_partition",
    "init_state",
    "interval_bins",
    "mape",
    "predict_grid",
    "predict_supports",
    "refined_elbo",
    "restrict_to_domain",
    "run_experiment",
    "synth_generate",
    "uniform_rules",
]
