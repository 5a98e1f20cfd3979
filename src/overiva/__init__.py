"""Overdetermined independent vector analysis.

Extracts K nonstationary sources from an M-channel convolutive mixture
(K < M) by demixing in the STFT domain with block coordinate descent,
modeling the excess channels as a stationary background.
"""

from .errors import (
    CorruptFile,
    DegenerateBlock,
    InvalidK,
    InvalidSpec,
    IoFailure,
    NoConvergence,
    NotPositiveDefinite,
    NumericalError,
    ShapeMismatch,
    SignalTooShort,
    SingularMatrix,
    TooManySources,
    UnsupportedFormat,
    ZeroReference,
)
from .io import AudioBuffer, read_wav, write_wav
from .model import (
    DemixingStack,
    noise_covariance,
    stationarity_residual,
    update_variances,
    weighted_covariance,
)
from .optimizer import Method, RunConfig, SeparationResult, projection_back, run
from .pipeline import separate_buffer, separate_file
from .simulate import (
    Scene,
    SceneSpec,
    load_scene,
    save_scene,
    sdr,
    sdr_set,
    synthesize,
    synth_rir,
    rtf,
)
from .stft import RankOneImage, Spectrogram, StftConfig, istft, stft

__version__ = "0.1.0"

__all__ = [
    "AudioBuffer",
    "CorruptFile",
    "DegenerateBlock",
    "DemixingStack",
    "InvalidK",
    "InvalidSpec",
    "IoFailure",
    "Method",
    "NoConvergence",
    "NotPositiveDefinite",
    "NumericalError",
    "RankOneImage",
    "RunConfig",
    "Scene",
    "SceneSpec",
    "SeparationResult",
    "ShapeMismatch",
    "SignalTooShort",
    "SingularMatrix",
    "Spectrogram",
    "StftConfig",
    "TooManySources",
    "UnsupportedFormat",
    "ZeroReference",
    "istft",
    "load_scene",
    "noise_covariance",
    "projection_back",
    "read_wav",
    "rtf",
    "run",
    "save_scene",
    "sdr",
    "sdr_set",
    "separate_buffer",
    "separate_file",
    "stationarity_residual",
    "stft",
    "synth_rir",
    "synthesize",
    "update_variances",
    "weighted_covariance",
    "write_wav",
    "__version__",
]
