"""Exception types shared across modules, mapped to CLI exit codes."""


class BellsimError(Exception):
    """Base class for all package errors."""


class ConfigError(BellsimError):
    """Invalid configuration, material data, grid or parameter value (exit 2)."""

    exit_code = 2


class WavelengthRangeError(ConfigError):
    """Wavelength outside a material's validity range."""


class GridTruncationError(ConfigError):
    """Frequency grid too narrow for the requested envelopes or delays."""


class DataError(BellsimError):
    """Malformed or insufficient input data (exit 3)."""

    exit_code = 3


class InsufficientDataError(DataError):
    """Fringe fit precondition violated (too few points or too short a span)."""


class InfeasibleError(BellsimError):
    """Requested preparation cannot be achieved with the given source (exit 4)."""

    exit_code = 4
