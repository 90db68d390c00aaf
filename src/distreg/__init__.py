"""Coefficient-regularized distribution regression over two-stage samples.

Inputs are bags of points standing in for unobserved distributions. Bags are
mapped to empirical mean embeddings through a base-space kernel; an outer
kernel (PSD, indefinite, or asymmetric) acts on those embeddings; and the
regressor penalizes the coefficient vector directly, so its linear system
stays symmetric positive definite no matter the kernel. A ridge baseline,
synthetic data generation with known targets, and rate/saturation analysis
tools round out the package. The names imported below are the public API.
"""

from .analysis import (
    RateFit,
    SaturationConfig,
    SaturationReport,
    Schedule,
    ScheduleParams,
    SweepConfig,
    SweepResult,
    effective_dimension,
    fit_decay_exponent,
    rate_fit,
    run_rate_experiment,
    saturation_compare,
    schedule,
    select_lambda_holdout,
)
from .embedding import Bag, BagParams, EmbeddingKernelSpec
from .errors import (
    ConfigError,
    ContractError,
    DistRegError,
    InputError,
    NumericalError,
)
from .gram import (
    GramMatrix,
    build_cross_gram,
    build_gram,
    embed_inner,
    kernel_fingerprint,
    spectrum,
)
from .outer import OuterKernelSpec
from .solver import (
    CoefficientModel,
    FitReport,
    excess_error,
    fit_coefficient,
    fit_krr,
    predict,
)
from .synth import MetaDistributionSpec, TwoStageDataset, generate

__version__ = "0.1.0"
