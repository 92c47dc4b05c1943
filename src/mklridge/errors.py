"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: configuration problems exit 1, data
problems exit 2, numerical failures exit 3. A command-line usage error
(a missing or unknown option, a bad option value, an unknown command)
exits 1, as a configuration problem.
"""


class MklError(Exception):
    """Base class for all package errors."""


class ConfigError(MklError):
    """Invalid configuration, parameters, or API misuse."""


class ShapeError(ConfigError):
    """Dimension mismatch between inputs."""


class DataError(MklError):
    """Unreadable or invalid input data."""


class NumericalError(MklError):
    """Factorization failure, divergence, or loss of positive semidefiniteness."""
