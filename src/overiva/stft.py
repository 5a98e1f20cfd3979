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

Both directions work on BLOCK_FRAMES frames at a time, so no
spectrogram-sized intermediate is made. stft windows a block of frames,
transforms it along the contiguous sample axis and writes it straight
into the bin-major output. istft reads each block as (frames, channels,
bins): for an (F, T, M) view of a (T, M, F) array, the layout run()
gives its images, every inverse transform reads a contiguous row.
Blocking changes no bit of either result.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ShapeMismatch, SignalTooShort

# Frames per block of analysis and synthesis work. Results do not depend
# on it; at the default frame length a block's temporaries stay near a
# few MB.
BLOCK_FRAMES = 16


def _require_finite(data):
    """Raise ValueError naming the first non-finite entry of an (F, T, M)
    array; it is located only once the whole-array test has failed."""
    finite = np.isfinite(data)
    if not finite.all():
        f, t, c = np.unravel_index(np.argmin(finite), data.shape)
        raise ValueError(
            f"input is not finite at frequency bin {f}, frame {t}, channel {c}"
        )


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
    layouts and dtypes are copied into that form on construction. Raises
    ValueError naming the first non-finite entry.
    """

    data: np.ndarray

    def __post_init__(self):
        data = np.asarray(self.data)
        if data.ndim != 3:
            raise ShapeMismatch(
                f"spectrogram must be (F, T, M), got shape {data.shape}"
            )
        _require_finite(data)
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


def _frames(signal, config):
    """Unwindowed frames of the padded signal, a (T, M, frame_len) view."""
    x = _as_multichannel(signal)
    if x.shape[0] < config.frame_len:
        raise SignalTooShort(
            f"signal of {x.shape[0]} samples is shorter than one frame "
            f"({config.frame_len})"
        )
    pad = config.pad
    x = np.pad(x, ((pad, pad), (0, 0)))
    return sliding_window_view(x, config.frame_len, axis=0)[:: config.hop]


def windowed_frames(signal, config):
    """Slice the padded signal into windowed frames of shape (T, frame_len, M).

    The result is a view of a (T, M, frame_len) array, so each channel's
    frame is one contiguous row for the FFT.
    """
    frames = _frames(signal, config)
    return (frames * sqrt_hann_window(config.frame_len)).transpose(0, 2, 1)


def stft(signal, config=StftConfig()):
    """Analyze a (n_samples, n_channels) signal into a Spectrogram.

    Each block of BLOCK_FRAMES frames is windowed, transformed along its
    contiguous sample axis and written into the bin-major output.
    Raises SignalTooShort when the signal does not fill one frame.
    """
    frames = _frames(signal, config)
    win = sqrt_hann_window(config.frame_len)
    n_frames, n_chan = frames.shape[:2]
    data = np.empty((config.n_bins, n_frames, n_chan), dtype=np.complex128)
    for t in range(0, n_frames, BLOCK_FRAMES):
        data[:, t : t + BLOCK_FRAMES] = np.fft.rfft(
            frames[t : t + BLOCK_FRAMES] * win, axis=-1
        ).transpose(2, 0, 1)
    return Spectrogram(data)


def istft(spec, config=StftConfig(), length=None):
    """Synthesize a Spectrogram back to a (n_samples, n_channels) signal.

    Parameters
    ----------
    spec : Spectrogram or (F, T, M) complex array, T >= 1. Blocks of
        BLOCK_FRAMES frames are read as (frames, channels, bins), which is
        contiguous when spec is an (F, T, M) view of a (T, M, F) array
        (run()'s images); any other layout is gathered block by block.
    length : int >= 0, optional
        Number of samples to return. Defaults to the length the padding
        convention implies, (T - 1) * hop + frame_len - 2 * (frame_len - hop),
        or 0 when fewer than frame_len / hop - 1 frames make that
        negative; longer requests are zero-extended.
    """
    data = spec.data if isinstance(spec, Spectrogram) else np.asarray(spec)
    if data.ndim != 3:
        raise ShapeMismatch(f"spectrogram must be (F, T, M), got {data.shape}")
    if data.shape[0] != config.n_bins:
        raise ShapeMismatch(
            f"spectrogram has {data.shape[0]} bins but config implies "
            f"{config.n_bins}"
        )
    if data.shape[1] == 0:
        raise ShapeMismatch(
            f"spectrogram must have at least one frame, got shape {data.shape}"
        )
    if length is not None and length < 0:
        raise ValueError(f"length must be >= 0, got {length}")
    n, hop = config.frame_len, config.hop
    n_frames, n_chan = data.shape[1], data.shape[2]
    win = sqrt_hann_window(n)
    win2 = win**2
    total = (n_frames - 1) * hop + n
    buf = np.zeros((n_chan, total))
    wsum = np.zeros(total)
    rows = data.transpose(1, 2, 0)
    for start in range(0, n_frames, BLOCK_FRAMES):
        frames = np.fft.irfft(rows[start : start + BLOCK_FRAMES], n=n, axis=-1)
        frames *= win
        for t, frame in enumerate(frames, start):
            buf[:, t * hop : t * hop + n] += frame
            wsum[t * hop : t * hop + n] += win2
    np.divide(buf, wsum, out=buf, where=wsum > 1e-12)
    pad = config.pad
    if length is None:
        length = max(total - 2 * pad, 0)
    out = np.zeros((length, n_chan))
    avail = min(length, total - pad)
    if avail > 0:
        out[:avail] = buf[:, pad : pad + avail].T
    return out
