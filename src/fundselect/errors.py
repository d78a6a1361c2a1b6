"""Exception types shared across the package.

The CLI maps these onto process exit codes (config 2, data 3, numerical 4).
"""


class FundselectError(Exception):
    """Base class for all package errors."""


class ConfigError(FundselectError):
    """Bad user configuration: unknown option, invalid grid, missing file."""


class DataError(FundselectError):
    """Malformed or inconsistent input data (parse errors, alignment gaps)."""


class NumericalError(FundselectError):
    """A numerical routine failed beyond recovery (singular system, dead weights)."""


class FitFailedError(NumericalError):
    """No feasible grid point in the mixture fit; carries the grid trace
    (`FitDiagnostics.grid_trace`'s array)."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace if trace is not None else []
