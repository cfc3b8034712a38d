"""Over-the-air federated learning under imperfect CSI.

Simulates gradient aggregation over a fading multiple-access channel with
truncated channel inversion, implements the matching closed-form statistics
(aggregation-coefficient moments, weight divergence and its bound,
convex truncation-threshold optimization), and verifies every closed form
against independent Monte-Carlo oracles at desk scale.
"""

# before the submodules, which read it (the run manifest records it)
__version__ = "0.1.0"

from .specfun import erf, erfc, exp_integral_ei
from .channel import ChannelDraw, EstimationModel, draw_channel
from .aircomp import (
    AggregationOutcome,
    PowerConfig,
    aggregate,
    compensation_lambda,
    dbm_to_watts,
    preprocessing_beta,
    scaling_zeta,
)
from .analysis import (
    conditional_second_moment,
    divergence_bound,
    divergence_exact,
    divergence_exact_always_noise,
    joint_cdf_xy,
    joint_pdf_xy,
    xi_mean_offset,
    xi_variance,
)
from .optimizer import (
    ObjectiveCoefficients,
    ThresholdSolution,
    coefficients_from_system,
    derivative_h,
    objective_h,
    optimal_threshold,
    second_derivative_h,
)
from .config import SystemConfig, TrainConfig, load_config, resolve
from .fltrain import SeedDraws, TrainingTrace, evaluate, train
from .harness import SweepResult, mc_joint_distribution_check, mc_weight_divergence, mc_xi_moments, sweep_threshold

__all__ = [
    "AggregationOutcome",
    "ChannelDraw",
    "EstimationModel",
    "ObjectiveCoefficients",
    "PowerConfig",
    "SeedDraws",
    "SweepResult",
    "SystemConfig",
    "ThresholdSolution",
    "TrainConfig",
    "TrainingTrace",
    "aggregate",
    "coefficients_from_system",
    "compensation_lambda",
    "conditional_second_moment",
    "dbm_to_watts",
    "derivative_h",
    "divergence_bound",
    "divergence_exact",
    "divergence_exact_always_noise",
    "draw_channel",
    "erf",
    "erfc",
    "evaluate",
    "exp_integral_ei",
    "joint_cdf_xy",
    "joint_pdf_xy",
    "load_config",
    "mc_joint_distribution_check",
    "mc_weight_divergence",
    "mc_xi_moments",
    "objective_h",
    "optimal_threshold",
    "preprocessing_beta",
    "resolve",
    "scaling_zeta",
    "second_derivative_h",
    "sweep_threshold",
    "train",
    "xi_mean_offset",
    "xi_variance",
]
