"""Exception types raised across the toolkit.

Numerical failures carry enough context (the batch index) to point
at the offending frequency bin when they surface through the CLI.
"""


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
