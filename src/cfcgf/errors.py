"""Exception hierarchy shared by all modules.

Exit-code mapping used by the command line front end:
InputError -> 2, BudgetError -> 3 (and MemoryError), InternalError -> 4.
"""


class CfcError(Exception):
    """Base class for all package errors."""


class InputError(CfcError):
    """Malformed user input: bad matrix document, unknown preset, bad flag."""


class BudgetError(CfcError):
    """A configured resource budget (states, commutation class size) was hit."""


class InternalError(CfcError):
    """An internal invariant was violated; indicates a bug, not bad input."""
