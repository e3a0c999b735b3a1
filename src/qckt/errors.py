"""Exception types shared across the package, and the two field checks the
config classes share.

Validation-style errors (bad flags, bad config, bad operand domains) subclass
ValueError; failures that surface mid-run (unreadable data, divergence)
subclass RuntimeError.  The CLI maps the first group to exit code 1 and the
second to exit code 2.
"""

import math


class ShapeError(ValueError):
    """Operand shapes are incompatible with the requested operation."""


class DomainError(ValueError):
    """A value is outside the operation's legal domain (e.g. response not 0/1)."""


class ConfigError(ValueError):
    """A configuration value is invalid before any compute starts."""


class DataError(RuntimeError):
    """Input data violates a structural requirement."""


class ParseError(DataError):
    """A data file could not be parsed; carries the offending line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class TrainingError(RuntimeError):
    """Optimization failed (non-finite loss or gradient)."""


class MetricError(RuntimeError):
    """A metric is undefined for the given inputs (e.g. single-class AUC)."""


def require_ints(what, minimum, **fields):
    """Raise ConfigError unless every field is an int (not a bool) >= minimum."""
    if any(type(v) is not int or v < minimum for v in fields.values()):
        got = ", ".join(f"{name}={v!r}" for name, v in fields.items())
        raise ConfigError(f"{what} must be integers >= {minimum}, got {got}")


def require_finite_nonnegative(name, value):
    """Raise ConfigError unless value is a real number (not a bool), finite and >= 0."""
    real = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not (real and math.isfinite(value) and value >= 0):
        raise ConfigError(f"{name} must be finite and >= 0, got {value!r}")
