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

Both directions work a block of frames at a time, the frames split by
blocks(), the package's one rule for bounded loops: the fewest blocks
of nearly equal size whose (frames, M, frame_len) float64 samples fit
SCRATCH_BYTES, and one frame per block if a frame is larger. At most 4
frames of 4096 samples on 7 channels fit, 8 of 2048 on 8. So a block's
scratch is about SCRATCH_BYTES whatever the channel count and frame
length, and no spectrogram-sized or signal-sized intermediate is made.
stft copies the samples one block of frames covers into a block-sized
float64 scratch, widening float32 samples there (no float64 copy of the
signal is made), zeroing only what falls in the padding (the padded
signal is never formed), windows the block into a second reused buffer,
and has np.fft.rfft write the transform through out= straight into the
bin-major output.
istft reads each block as (frames, channels, bins): from an (F, T, M)
view of a (T, M, F) array without a copy, or, for a RankOneImage, as
the block's outputs times the mixing column, so an image that run()
returns in factored form is synthesized without ever being formed
whole. Blocking changes no bit of either result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ShapeMismatch, SignalTooShort, check_number

# Bytes one block of work may fill by default (blocks): a block of frames
# in stft and istft, and one (chunk, M, M) complex array of run()'s
# sweeps. No result depends on it. At 1 MiB each benchmark shape sweeps
# in 2 bin chunks, and run() took within 1 % of one chunk's time; at
# 512 KiB (3 or 4 chunks) it took 2-5 % more (2-core Xeon, one BLAS
# thread).
SCRATCH_BYTES = 1 << 20


def blocks(n, item_bytes, budget=None, at_least=1):
    """Consecutive, non-empty slices of range(n), the package's one rule
    for splitting a loop into scratch-bounded pieces.

    The fewest slices whose items of item_bytes bytes fit in budget
    bytes (one item per slice if an item is larger), or at_least slices
    if that is more, capped at n. Their sizes differ by at most one, the
    larger first, so the first slice is the largest and sizes a loop's
    scratch. budget=None means SCRATCH_BYTES as it is at the call.
    """
    if budget is None:
        budget = SCRATCH_BYTES
    fit = max(1, budget // max(1, item_bytes))
    count = min(n, max(at_least, -(-n // fit)))
    size, extra = divmod(n, max(count, 1))
    starts = [i * size + min(i, extra) for i in range(count + 1)]
    return [slice(a, b) for a, b in zip(starts, starts[1:])]


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

    Both are Python or numpy integers, not bools, stored as Python ints.
    """

    frame_len: int = 4096
    hop: int = None

    def __post_init__(self):
        n = check_number("frame_len", self.frame_len, integer=True)
        hop = self.hop
        hop = n // 4 if hop is None else check_number("hop", hop, integer=True)
        object.__setattr__(self, "frame_len", n)
        object.__setattr__(self, "hop", hop)
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

    @classmethod
    def _of_finite(cls, data):
        """Wrap C-contiguous complex128 (F, T, M) data already known to be
        finite, without __post_init__'s pass over it."""
        spec = object.__new__(cls)
        object.__setattr__(spec, "data", data)
        return spec

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
    """signal as (n, M), float32 kept as it is (stft widens it a block at
    a time) and any other dtype as float64; io.AudioBuffer's samples
    take the same rule."""
    x = np.asarray(signal)
    if x.dtype != np.float32:
        x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2:
        raise ShapeMismatch(f"signal must be (n,) or (n, M), got {x.shape}")
    return x


def _rfft_stays_finite(x, frame_len):
    """Whether every rfft of frame_len windowed samples of x is finite.

    Each transform value, and each partial sum an FFT forms on the way,
    has real and imaginary parts of at most frame_len * max|x|, because
    the window is at most 1; half the float64 limit leaves room for
    rounding. A NaN fails both comparisons, an infinity one of them.
    """
    limit = np.finfo(np.float64).max / (2 * frame_len)
    return float(x.min()) > -limit and float(x.max()) < limit


def n_frames_for(n_samples, config):
    """Number of analysis frames produced for a signal of n_samples."""
    padded = n_samples + 2 * config.pad
    return (padded - config.frame_len) // config.hop + 1


def _require_one_frame(n_samples, config):
    if n_samples < config.frame_len:
        raise SignalTooShort(
            f"signal of {n_samples} samples is shorter than one frame "
            f"({config.frame_len})"
        )


def stft(signal, config=StftConfig()):
    """Analyze a (n_samples, n_channels) signal into a Spectrogram.

    A float32 signal is read as it is and widened to float64 a block at
    a time, in the span a block's frames are copied into, so no float64
    copy of it is made; the spectrogram is the one of the widened
    signal, bit for bit. Any other dtype is converted to float64 first.

    Equal bit for bit to the rfft of all windowed frames at once (the
    tests' oracles.windowed_frames and stft_unblocked), taken a block of
    frames at a time: blocks() of the T frames, each frame being
    (M, frame_len) float64 samples, the largest block B frames. Frame t
    is the window times samples t * hop .. t * hop + frame_len - 1 of
    the signal zero-padded by config.pad on each end. A block's frames
    span at most (B - 1) * hop + frame_len samples of the padded signal;
    they are copied from the signal into a scratch of that length, with
    zeros where the span reaches into the padding, so the padded signal
    is never formed. Each block is windowed into one reused
    (B, M, frame_len) buffer of at most SCRATCH_BYTES, and np.fft.rfft
    writes its transform through out= into the bin-major output. Beyond
    the output, stft allocates only these two buffers and the window
    (and the float64 copy of a signal that is neither float32 nor
    float64).

    Raises SignalTooShort when the signal does not fill one frame, and
    ValueError naming the first non-finite spectrogram entry. The
    signal is checked rather than the spectrogram (four times its size
    at quarter-frame hop); only when that check fails (a non-finite
    sample, or one large enough for a transform to overflow) is the
    spectrogram searched.
    """
    x = _as_multichannel(signal)
    n_samples, n_chan = x.shape
    _require_one_frame(n_samples, config)
    frame_len, hop, pad = config.frame_len, config.hop, config.pad
    n_frames = n_frames_for(n_samples, config)
    win = sqrt_hann_window(frame_len)
    frame_blocks = blocks(n_frames, 8 * n_chan * frame_len)
    block = frame_blocks[0].stop
    span = np.empty(((block - 1) * hop + frame_len, n_chan))
    windowed = np.empty((block, n_chan, frame_len))
    data = np.empty((config.n_bins, n_frames, n_chan), dtype=np.complex128)
    for sl in frame_blocks:
        t, n_block = sl.start, sl.stop - sl.start
        # The block covers signal samples first .. last - 1, some of
        # which may lie in the padding on either side.
        first = t * hop - pad
        last = first + (n_block - 1) * hop + frame_len
        lo, hi = max(first, 0), min(last, n_samples)
        padded = span[: last - first]
        padded[: lo - first] = 0.0
        padded[lo - first : hi - first] = x[lo:hi]
        padded[hi - first :] = 0.0
        frames = sliding_window_view(padded, frame_len, axis=0)[::hop]
        np.multiply(frames, win, out=windowed[:n_block])
        np.fft.rfft(
            windowed[:n_block],
            axis=-1,
            out=data[:, sl].transpose(1, 2, 0),
        )
    if _rfft_stays_finite(x, frame_len):
        return Spectrogram._of_finite(data)
    return Spectrogram(data)


class RankOneImage(NamedTuple):
    """A spatial image in factored form, as run() returns its targets.

    At bin f and frame t the image is outputs[t, f] * mixing[:, f]: the
    output's spectrum times its mixing column (see
    optimizer.projection_back). mixing is (M, F) and outputs (T, F),
    bins innermost; the image they stand for is (F, T, M). istft takes
    one and forms it a block of frames at a time, never whole.
    """

    mixing: np.ndarray
    outputs: np.ndarray


def istft(spec, config=StftConfig(), length=None):
    """Synthesize a Spectrogram back to a (n_samples, n_channels) signal.

    Parameters
    ----------
    spec : Spectrogram, (F, T, M) complex array or RankOneImage, T >= 1.
        Blocks of frames, blocks() of the T frames with (M, frame_len)
        float64 samples each, are read as (frames, channels, bins),
        which is contiguous when spec is an (F, T, M) view of a
        (T, M, F) array (SeparationResult.images); any other layout is
        gathered block by block. A RankOneImage's block is formed as
        outputs[block, None, :] * mixing, the values the dense image
        holds.
    length : int >= 0, optional
        Number of samples to return, a Python or numpy integer
        (errors.check_number). Defaults to the length the padding
        convention implies, (T - 1) * hop + frame_len - 2 * (frame_len - hop),
        or 0 when fewer than frame_len / hop - 1 frames make that
        negative; longer requests are zero-extended.
    """
    if isinstance(spec, RankOneImage):
        mixing, outputs = np.asarray(spec.mixing), np.asarray(spec.outputs)
        if (
            mixing.ndim != 2
            or outputs.ndim != 2
            or mixing.shape[1] != outputs.shape[1]
        ):
            raise ShapeMismatch(
                f"rank-one image must be mixing (M, F) and outputs (T, F), "
                f"got {mixing.shape} and {outputs.shape}"
            )
        shape = (outputs.shape[1], outputs.shape[0], mixing.shape[0])

        def block(frames):
            return outputs[frames, None, :] * mixing

    else:
        data = spec.data if isinstance(spec, Spectrogram) else np.asarray(spec)
        if data.ndim != 3:
            raise ShapeMismatch(
                f"spectrogram must be (F, T, M), got {data.shape}"
            )
        shape = data.shape
        rows = data.transpose(1, 2, 0)

        def block(frames):
            return rows[frames]

    n_bins, n_frames, n_chan = shape
    if n_bins != config.n_bins:
        raise ShapeMismatch(
            f"spectrogram has {n_bins} bins but config implies {config.n_bins}"
        )
    if n_frames == 0:
        raise ShapeMismatch(
            f"spectrogram must have at least one frame, got shape {shape}"
        )
    if length is not None:
        length = check_number("length", length, integer=True)
        if length < 0:
            raise ValueError(f"length must be >= 0, got {length}")
    n, hop = config.frame_len, config.hop
    win = sqrt_hann_window(n)
    win2 = win**2
    total = (n_frames - 1) * hop + n
    buf = np.zeros((n_chan, total))
    wsum = np.zeros(total)
    for sl in blocks(n_frames, 8 * n_chan * n):
        frames = np.fft.irfft(block(sl), n=n, axis=-1)
        frames *= win
        for t, frame in enumerate(frames, sl.start):
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
