"""Eigenvalue-based solving of border-form algebraic systems."""

from .errors import (
    BorderEigError,
    EigenConvergenceError,
    LowerSetError,
    SchemaError,
    SizeLimitError,
    UnisolvenceError,
)
from .indexsets import (
    BorderSet,
    LowerSet,
    border,
    total_degree_set,
    validate_lower_set,
)
from .interp import system_from_nodes
from .matrices import build_family, commutation_report
from .spectral import Config, SolutionSet, criterion, eigen, solve
from .system import (
    BorderSystem,
    monomial_eval,
    parse_system,
    residual,
)

__all__ = [
    "BorderEigError",
    "BorderSet",
    "BorderSystem",
    "Config",
    "EigenConvergenceError",
    "LowerSet",
    "LowerSetError",
    "SchemaError",
    "SizeLimitError",
    "SolutionSet",
    "UnisolvenceError",
    "border",
    "build_family",
    "commutation_report",
    "criterion",
    "eigen",
    "monomial_eval",
    "parse_system",
    "residual",
    "solve",
    "system_from_nodes",
    "total_degree_set",
    "validate_lower_set",
]
