"""Non-stationary fractal interpolation toolkit.

Constructs fractal interpolants from a germ function, a knot partition, and
per-level sequences of scaling and base functions; evaluates them by backward
RB-operator trajectories or by the truncated self-referential series; and
verifies every closed-form error, stability, sensitivity, and dependence bound
empirically.
"""

from .core import (
    DepthPolicy,
    FunctionSpec,
    Level,
    LevelSequence,
    Partition,
    ProblemConfig,
    SampledFunction,
    ValidationReport,
    build_partition,
    matched_endpoint_polynomial,
    validate_level_sequence,
)
from .engine import (
    Interpolant,
    apply_rb,
    backward_trajectory,
    eval_interpolant,
    required_depth,
    resolve_depth,
    series_eval,
    trajectory_interpolant,
)
from .ifs import PerturbationLevel, PerturbationSpec, apply_F
from .norms import NormEstimate, check_lip_hypothesis, estimate_norms, lip_seminorm, sup_norm
from .bounds import (
    BaseOperatorSpec,
    corollary_bound,
    error_bound,
    operator_lipschitz_check,
    relative_bound_check,
    sensitivity_bound,
    stability_bound,
)
from .depend import (
    base_dependence,
    partition_continuity,
    partition_dependence,
    scaling_dependence,
)
from .report import BoundReport
from . import errors

__version__ = "0.1.0"

__all__ = [
    "BaseOperatorSpec", "BoundReport",
    "DepthPolicy", "FunctionSpec", "Interpolant", "Level", "LevelSequence",
    "NormEstimate", "Partition", "PerturbationLevel", "PerturbationSpec",
    "ProblemConfig", "SampledFunction", "ValidationReport",
    "apply_F", "apply_rb", "backward_trajectory", "base_dependence",
    "build_partition", "check_lip_hypothesis",
    "corollary_bound", "error_bound", "errors", "estimate_norms",
    "eval_interpolant", "lip_seminorm", "matched_endpoint_polynomial",
    "operator_lipschitz_check", "partition_continuity", "partition_dependence",
    "relative_bound_check", "required_depth", "resolve_depth",
    "scaling_dependence", "sensitivity_bound", "series_eval",
    "stability_bound", "sup_norm", "trajectory_interpolant",
    "validate_level_sequence",
]
