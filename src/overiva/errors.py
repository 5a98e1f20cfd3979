"""Exception types raised across the toolkit, and check_number, the rule
for numeric fields that RunConfig, StftConfig, SceneSpec and
bench.run_benchmark's trials share.

Numerical failures carry enough context (the batch index) to point
at the offending frequency bin when they surface through the CLI.
"""

import numpy as np


def check_number(name, value, integer=False, error=ValueError):
    """value as a Python int (integer) or float, or raise error naming
    the field unless value is a Python or numpy number of that kind.

    A bool is no number here, and a string is not converted.
    """
    kinds = (int, np.integer) if integer else (int, float, np.integer, np.floating)
    if isinstance(value, bool) or not isinstance(value, kinds):
        kind = "an integer" if integer else "a real number"
        raise error(f"{name} must be {kind}, got {value!r}")
    return int(value) if integer else float(value)


class NumericalError(ArithmeticError):
    """Base class for failures of the dense linear algebra kernels."""

    def __init__(self, message, batch_index=None):
        super().__init__(message)
        self.batch_index = batch_index


class SingularMatrix(NumericalError):
    """A matrix was singular to working precision during factorization."""


class NotPositiveDefinite(NumericalError):
    """A matrix required to be positive definite was not."""


class NoConvergence(NumericalError):
    """An iterative eigenvalue routine failed to converge."""


class DegenerateBlock(NumericalError):
    """A sub-block inverted by the fast background update was singular."""


class ShapeMismatch(ValueError):
    """Array arguments had inconsistent or unsupported shapes."""


class SignalTooShort(ValueError):
    """The input signal is shorter than one analysis frame."""


class InvalidK(ValueError):
    """The requested number of target sources is not representable."""


class InvalidSpec(ValueError):
    """A scene description failed validation."""


class ZeroReference(ValueError):
    """A distortion ratio was requested against an all-zero reference."""


class TooManySources(ValueError):
    """Permutation search over source assignments would be intractable."""


class UnsupportedFormat(ValueError):
    """A WAV file uses an encoding outside PCM16 / IEEE float32."""


class CorruptFile(ValueError):
    """A file could not be parsed as RIFF/WAVE."""


class IoFailure(OSError):
    """An I/O operation failed for reasons other than file content."""
