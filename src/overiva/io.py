"""WAV file I/O restricted to PCM16 and IEEE float32.

Samples live in memory as float64 arrays of shape (n_samples, n_channels)
with the usual [-1, 1] nominal range. PCM16 data maps to floats by
division by 32768; the inverse quantization clamps to [-1, 1] and rounds
half away from zero. The RIFF parser accepts standard and extended fmt
chunks and skips unrelated chunks; anything that is not a parseable
RIFF/WAVE container, or float data holding a NaN or infinite sample,
raises CorruptFile, while well-formed files in other encodings raise
UnsupportedFormat.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import (
    CorruptFile,
    IoFailure,
    ShapeMismatch,
    UnsupportedFormat,
    check_number,
)

_PCM = 1
_IEEE_FLOAT = 3
_EXTENSIBLE = 0xFFFE


@dataclass
class AudioBuffer:
    """Multichannel audio in memory.

    sample_rate : Hz, a Python or numpy integer >= 1, stored as a
        Python int (errors.check_number)
    samples : (n_samples, n_channels) float64 with n_channels >= 1; 1-D
        input is promoted to a single channel
    """

    sample_rate: int
    samples: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.samples, dtype=np.float64)
        if x.ndim == 1:
            x = x[:, None]
        if x.ndim != 2:
            raise ShapeMismatch(
                f"samples must be (n,) or (n, channels), got {x.shape}"
            )
        if x.shape[1] == 0:
            raise ValueError(f"samples must have at least one channel, got {x.shape}")
        rate = check_number("sample_rate", self.sample_rate, integer=True)
        if rate < 1:
            raise ValueError(f"sample_rate must be >= 1, got {rate}")
        self.sample_rate = rate
        self.samples = x

    @property
    def n_samples(self):
        return self.samples.shape[0]

    @property
    def n_channels(self):
        return self.samples.shape[1]

    @property
    def duration(self):
        return self.n_samples / self.sample_rate


def quantize_pcm16(samples):
    """Clamp to [-1, 1] and quantize to int16, rounding half away from zero."""
    x = np.clip(np.asarray(samples, dtype=np.float64), -1.0, 1.0)
    q = np.copysign(np.floor(np.abs(x) * 32768.0 + 0.5), x)
    return np.clip(q, -32768, 32767).astype(np.int16)


def read_wav(path):
    """Read a PCM16 or IEEE float32 RIFF/WAVE file into an AudioBuffer.

    A NaN or infinite float sample raises CorruptFile naming the first
    one by frame index and channel.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    if len(raw) < 12 or raw[0:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise CorruptFile(f"{path} is not a RIFF/WAVE file")
    fmt = None
    data = None
    # Chunk bodies are views: the data chunk is not copied before it is
    # converted.
    view = memoryview(raw)
    pos = 12
    while pos + 8 <= len(raw):
        chunk_id = raw[pos : pos + 4]
        (size,) = struct.unpack_from("<I", raw, pos + 4)
        body = view[pos + 8 : pos + 8 + size]
        if len(body) < size:
            raise CorruptFile(f"{path}: truncated {chunk_id!r} chunk")
        if chunk_id == b"fmt ":
            fmt = body
        elif chunk_id == b"data":
            data = body
        pos += 8 + size + (size & 1)
    if fmt is None or data is None:
        raise CorruptFile(f"{path}: missing fmt or data chunk")
    if len(fmt) < 16:
        raise CorruptFile(f"{path}: fmt chunk too short")
    audio_format, n_channels, sample_rate, _, block_align, bits = (
        struct.unpack_from("<HHIIHH", fmt, 0)
    )
    if n_channels < 1 or sample_rate < 1:
        raise CorruptFile(f"{path}: invalid channel count or sample rate")
    if audio_format == _EXTENSIBLE:
        raise UnsupportedFormat(f"{path}: extensible WAV encodings not supported")
    if audio_format == _PCM:
        if bits != 16:
            raise UnsupportedFormat(f"{path}: {bits}-bit PCM not supported")
        dtype, scale = np.dtype("<i2"), 1.0 / 32768.0
    elif audio_format == _IEEE_FLOAT:
        if bits != 32:
            raise UnsupportedFormat(f"{path}: {bits}-bit float not supported")
        dtype, scale = np.dtype("<f4"), 1.0
    else:
        raise UnsupportedFormat(f"{path}: audio format {audio_format} not supported")
    frame_bytes = n_channels * dtype.itemsize
    if block_align not in (0, frame_bytes) or len(data) % frame_bytes != 0:
        raise CorruptFile(f"{path}: sample data does not align with frames")
    # One float64 array: the cast makes it, and PCM16 is scaled in place.
    flat = np.frombuffer(data, dtype=dtype).astype(np.float64)
    if scale != 1.0:
        flat *= scale
    # A sum of finite float32 samples cannot overflow float64, so it is
    # finite exactly when every sample is, and takes no mask to find out.
    if not np.isfinite(flat.sum()):
        first = int(np.flatnonzero(~np.isfinite(flat))[0])
        frame, channel = divmod(first, n_channels)
        raise CorruptFile(
            f"{path}: non-finite sample {flat[first]} at frame {frame}, "
            f"channel {channel}"
        )
    return AudioBuffer(sample_rate, flat.reshape(-1, n_channels))


def _check_header(buffer, sample_bytes, header_bytes):
    """Raise ValueError naming the first WAV header field of buffer that
    its unsigned field cannot hold: channel count and block align take
    16 bits, sample rate, byte rate and data size 32. The data size must
    also leave room for the header_bytes the RIFF size counts besides."""
    channels, rate = buffer.n_channels, buffer.sample_rate
    fields = (
        ("channel count", channels, 0xFFFF),
        ("sample rate", rate, 0xFFFFFFFF),
        ("byte rate", rate * channels * sample_bytes, 0xFFFFFFFF),
        ("block align", channels * sample_bytes, 0xFFFF),
        ("data size", buffer.n_samples * channels * sample_bytes,
         0xFFFFFFFF - header_bytes),
    )
    for name, value, limit in fields:
        if value > limit:
            raise ValueError(
                f"WAV {name} {value} does not fit its header field (max {limit})"
            )


def write_wav(path, buffer, sample_format="float32"):
    """Write an AudioBuffer as PCM16 or IEEE float32 (default) WAV.

    float32 output stores samples verbatim, so values that originated as
    float32 round-trip bit-exactly; pcm16 output clamps and quantizes.
    A buffer whose header does not fit the format's fields raises
    ValueError naming the field (_check_header) before path is opened.
    """
    # The RIFF size counts "WAVE" (4 bytes), the fmt chunk (26 for
    # float32, 24 for pcm16), float32's fact chunk (12) and the data
    # chunk's header (8) besides the samples.
    if sample_format == "float32":
        _check_header(buffer, 4, 4 + 26 + 12 + 8)
        payload = buffer.samples.astype("<f4").tobytes()
        bits = 32
        fmt_body = struct.pack(
            "<HHIIHHH",
            _IEEE_FLOAT,
            buffer.n_channels,
            buffer.sample_rate,
            buffer.sample_rate * buffer.n_channels * 4,
            buffer.n_channels * 4,
            bits,
            0,
        )
        fact = struct.pack("<4sII", b"fact", 4, buffer.n_samples)
    elif sample_format == "pcm16":
        _check_header(buffer, 2, 4 + 24 + 8)
        payload = quantize_pcm16(buffer.samples).astype("<i2").tobytes()
        bits = 16
        fmt_body = struct.pack(
            "<HHIIHH",
            _PCM,
            buffer.n_channels,
            buffer.sample_rate,
            buffer.sample_rate * buffer.n_channels * 2,
            buffer.n_channels * 2,
            bits,
        )
        fact = b""
    else:
        raise ValueError(f"unknown sample_format {sample_format!r}")
    chunks = (
        struct.pack("<4sI", b"fmt ", len(fmt_body))
        + fmt_body
        + fact
        + struct.pack("<4sI", b"data", len(payload))
        + payload
    )
    blob = struct.pack("<4sI4s", b"RIFF", 4 + len(chunks), b"WAVE") + chunks
    try:
        with open(path, "wb") as fh:
            fh.write(blob)
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc
