"""Multi-scale adaptive teacher weighting for knowledge distillation."""

from .core import (
    ContextSpec,
    InputSpec,
    MskdError,
    Sampler,
    TaskSpec,
    TeacherBank,
    VocabularySpec,
    WeightBounds,
    World,
    entropy,
    seeded_sampler,
    softmax,
    validate_distribution,
)
from .operators import (
    ConformanceReport,
    ContextOperator,
    TaskOperator,
    TokenOperator,
    check_conformance,
    check_pareto_compat,
    clip_normalize,
)
from .composition import UnifiedWeightOperator, uniform_unified, weighted_ensemble
from .distill import (
    TrainerConfig,
    TrainTrace,
    classic_uniform_train,
    fit_convergence_rate,
    sgd_train,
    train_stack,
)
from .dynamics import (
    FixedPointTrace,
    WeightUpdateConfig,
    estimate_contraction,
    gradient_variance_ratio,
    iterate_to_fixed_point,
    perturbation_experiment,
    weight_update_T,
)
from .safety import (
    SafetyConfig,
    dual_ascent_solve,
    expected_safety,
    jensen_preservation_check,
    kkt_residuals,
    pareto_sweep,
)

__version__ = "0.1.0"
