"""STFT analysis and synthesis with exact overlap-add reconstruction.

Spectrograms are complex arrays of shape (n_bins, n_frames, n_channels),
written (F, T, M) throughout the package, and stored bin-major: each
bin's (T, M) block is one contiguous stretch of memory, which is what
the per-bin covariances and demixing read. Analysis and synthesis both use
a periodic square-root Hann window; the signal is zero-padded by
frame_len - hop on each end so that every original sample is covered by
enough frames for the windowed overlap-add to invert exactly (synthesis
divides by the accumulated squared window rather than assuming a constant
overlap sum, so edges and non-aligned tails reconstruct too).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ShapeMismatch, SignalTooShort


@dataclass(frozen=True)
class StftConfig:
    """Analysis/synthesis parameters.

    frame_len : power-of-two frame length in samples
    hop : frame advance in samples; must divide frame_len; defaults to
        frame_len // 4
    """

    frame_len: int = 4096
    hop: int = None

    def __post_init__(self):
        if self.hop is None:
            object.__setattr__(self, "hop", self.frame_len // 4)
        n, hop = self.frame_len, self.hop
        if n < 2 or (n & (n - 1)) != 0:
            raise ValueError(f"frame_len must be a power of two, got {n}")
        if hop < 1 or n % hop != 0:
            raise ValueError(f"hop {hop} must divide frame_len {n}")

    @property
    def n_bins(self):
        return self.frame_len // 2 + 1

    @property
    def pad(self):
        """Zero padding applied to each end of the signal."""
        return self.frame_len - self.hop


@dataclass(frozen=True)
class Spectrogram:
    """Complex STFT data of shape (n_bins, n_frames, n_channels).

    data is stored as a C-contiguous complex128 array (bin-major); other
    layouts and dtypes are copied into that form on construction.
    """

    data: np.ndarray

    def __post_init__(self):
        data = np.asarray(self.data)
        if data.ndim != 3:
            raise ShapeMismatch(
                f"spectrogram must be (F, T, M), got shape {data.shape}"
            )
        if not np.all(np.isfinite(data)):
            raise ValueError("spectrogram contains non-finite values")
        object.__setattr__(
            self, "data", np.ascontiguousarray(data, dtype=np.complex128)
        )

    @property
    def n_bins(self):
        return self.data.shape[0]

    @property
    def n_frames(self):
        return self.data.shape[1]

    @property
    def n_channels(self):
        return self.data.shape[2]


def sqrt_hann_window(frame_len):
    """Periodic square-root Hann window of the given length."""
    n = np.arange(frame_len)
    return np.sqrt(0.5 - 0.5 * np.cos(2.0 * np.pi * n / frame_len))


def _as_multichannel(signal):
    x = np.asarray(signal, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2:
        raise ShapeMismatch(f"signal must be (n,) or (n, M), got {x.shape}")
    return x


def n_frames_for(n_samples, config):
    """Number of analysis frames produced for a signal of n_samples."""
    padded = n_samples + 2 * config.pad
    return (padded - config.frame_len) // config.hop + 1


def windowed_frames(signal, config):
    """Slice the padded signal into windowed frames of shape (T, frame_len, M).

    The result is a view of a (T, M, frame_len) array, so each channel's
    frame is one contiguous row for the FFT.
    """
    x = _as_multichannel(signal)
    if x.shape[0] < config.frame_len:
        raise SignalTooShort(
            f"signal of {x.shape[0]} samples is shorter than one frame "
            f"({config.frame_len})"
        )
    pad = config.pad
    x = np.pad(x, ((pad, pad), (0, 0)))
    frames = sliding_window_view(x, config.frame_len, axis=0)[:: config.hop]
    return (frames * sqrt_hann_window(config.frame_len)).transpose(0, 2, 1)


def stft(signal, config=StftConfig()):
    """Analyze a (n_samples, n_channels) signal into a Spectrogram.

    Raises SignalTooShort when the signal does not fill one frame.
    """
    frames = windowed_frames(signal, config)
    # One copy of the (T, F, M) transform into the bin-major layout.
    return Spectrogram(
        np.ascontiguousarray(np.fft.rfft(frames, axis=1).transpose(1, 0, 2))
    )


def istft(spec, config=StftConfig(), length=None):
    """Synthesize a Spectrogram back to a (n_samples, n_channels) signal.

    Parameters
    ----------
    spec : Spectrogram or (F, T, M) complex array
    length : int, optional
        Number of samples to return. Defaults to the length the padding
        convention implies, (T - 1) * hop + frame_len - 2 * (frame_len - hop);
        longer requests are zero-extended.
    """
    data = spec.data if isinstance(spec, Spectrogram) else np.asarray(spec)
    if data.ndim != 3:
        raise ShapeMismatch(f"spectrogram must be (F, T, M), got {data.shape}")
    if data.shape[0] != config.n_bins:
        raise ShapeMismatch(
            f"spectrogram has {data.shape[0]} bins but config implies "
            f"{config.n_bins}"
        )
    n, hop = config.frame_len, config.hop
    n_frames, n_chan = data.shape[1], data.shape[2]
    win = sqrt_hann_window(n)
    # One (T, M, F) copy, so that every inverse transform reads and writes
    # a contiguous row whatever the layout of data; channel-major from here.
    frames = np.fft.irfft(
        np.ascontiguousarray(data.transpose(1, 2, 0)), n=n, axis=-1
    )
    frames *= win
    total = (n_frames - 1) * hop + n
    buf = np.zeros((n_chan, total))
    wsum = np.zeros(total)
    win2 = win**2
    for t in range(n_frames):
        buf[:, t * hop : t * hop + n] += frames[t]
        wsum[t * hop : t * hop + n] += win2
    covered = wsum > 1e-12
    buf[:, covered] /= wsum[covered]
    pad = config.pad
    default_len = total - 2 * pad
    if length is None:
        length = default_len
    out = np.zeros((length, n_chan))
    avail = min(length, total - pad)
    if avail > 0:
        out[:avail] = buf[:, pad : pad + avail].T
    return out
