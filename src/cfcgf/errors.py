"""Exception hierarchy shared by all modules; each class carries the exit
code the command line front end returns for it."""


class CfcError(Exception):
    """Base class for all package errors."""
    exit_code: int


class InputError(CfcError):
    """Malformed user input: bad matrix document, unknown preset, bad flag."""
    exit_code = 2


class BudgetError(CfcError):
    """A configured resource budget (states, commutation class size) was hit."""
    exit_code = 3


class InternalError(CfcError):
    """An internal invariant was violated; indicates a bug, not bad input."""
    exit_code = 4
