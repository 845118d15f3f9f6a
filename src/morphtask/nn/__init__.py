"""Differentiable kernels and policy architectures."""

from . import autodiff
from .autodiff import NumericError, Tensor
from .policies import (
    ConfigError,
    PolicyConfig,
    PolicyParams,
    ShapeError,
    UnsupportedVariantError,
    init_params,
    parameter_count,
    policy_inputs,
)

__all__ = [
    "autodiff", "NumericError", "Tensor", "ConfigError", "PolicyConfig",
    "PolicyParams", "ShapeError", "UnsupportedVariantError", "init_params",
    "parameter_count", "policy_inputs",
]
