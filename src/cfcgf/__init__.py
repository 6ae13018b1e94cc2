"""Coxeter group automata for cyclically fully commutative elements and
their exact length generating functions."""

from .core import INF, CoxeterSystem, cyclic_shifts, diagram, parse_system, preset_system
from .errors import BudgetError, CfcError, InputError, InternalError

__version__ = "0.1.0"

__all__ = [
    "INF",
    "CoxeterSystem",
    "cyclic_shifts",
    "diagram",
    "parse_system",
    "preset_system",
    "BudgetError",
    "CfcError",
    "InputError",
    "InternalError",
    "__version__",
]
