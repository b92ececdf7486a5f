"""Numerical verification toolkit for a thin-shell rigidity interpolation inequality.

Builds thin domains around parametrized mid-surfaces, evaluates both sides
of the interpolation inequality (and its linearized Korn form) for analytic
and randomized fields, traces the localization argument patch by patch, and
fits thickness-scaling exponents over h-sweeps.
"""

from .experiments import ScalingFit, SweepConfig, fit_exponent, korn_sweep, run_sweep
from .fields import (
    FrameField,
    ansatz_displacement,
    default_ansatz_profile,
    displacement_to_deformation,
    euclidean_gradient_oracle,
    frame_gradient,
    identity_deformation,
    random_smooth_field,
    rigid_deformation,
)
from .geometry import (
    ParamSurface,
    ThicknessProfile,
    ThinDomain,
    bump_profile,
    doubling_ratio,
    embed,
    gaussian_curvature,
    make_surface,
    shell_profile,
    volume_jacobian,
)
from .inequality import (
    BalanceForm,
    InequalityReport,
    balance_form,
    equivalence_check,
    interpolation_sides,
    korn_linear_sides,
)
from .localization import partition, patch_trace, rotation_lower_bound_check, shell_to_domain_trace
from .matrixops import dist_SO3, nearest_rotation
from .norms import QuadratureGrid, build_grid, lp_norm

__version__ = "0.1.0"

__all__ = [
    "BalanceForm",
    "FrameField",
    "InequalityReport",
    "ParamSurface",
    "QuadratureGrid",
    "ScalingFit",
    "SweepConfig",
    "ThicknessProfile",
    "ThinDomain",
    "ansatz_displacement",
    "balance_form",
    "build_grid",
    "bump_profile",
    "default_ansatz_profile",
    "displacement_to_deformation",
    "dist_SO3",
    "doubling_ratio",
    "embed",
    "equivalence_check",
    "euclidean_gradient_oracle",
    "fit_exponent",
    "frame_gradient",
    "gaussian_curvature",
    "identity_deformation",
    "interpolation_sides",
    "korn_linear_sides",
    "korn_sweep",
    "lp_norm",
    "make_surface",
    "nearest_rotation",
    "partition",
    "patch_trace",
    "random_smooth_field",
    "rigid_deformation",
    "rotation_lower_bound_check",
    "run_sweep",
    "shell_profile",
    "shell_to_domain_trace",
    "volume_jacobian",
]
