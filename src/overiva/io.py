"""WAV file I/O restricted to PCM16 and IEEE float32.

Samples live in memory as arrays of shape (n_samples, n_channels) with
the usual [-1, 1] nominal range: float32 as read from a file, which
holds every PCM16 or float32 sample exactly at half the size of float64,
and float64 otherwise (AudioBuffer). PCM16 data maps to floats by
multiplication by 2^-15; the inverse quantization clamps to [-1, 1] and
rounds half away from zero. write_wav writes the header and then the
samples, with no copy of the payload beyond its one conversion. The
RIFF parser accepts standard and extended fmt chunks and skips unrelated
chunks; anything that is not a parseable RIFF/WAVE container, or float
data holding a NaN or infinite sample, raises CorruptFile, while
well-formed files in other encodings raise UnsupportedFormat.
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
    samples : (n_samples, n_channels) with n_channels >= 1, float32 if
        given as float32 (read_wav's samples) and float64 otherwise; 1-D
        input is promoted to a single channel
    """

    sample_rate: int
    samples: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.samples)
        if x.dtype != np.float32:
            x = np.asarray(x, dtype=np.float64)
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
    """Read a PCM16 or IEEE float32 RIFF/WAVE file into an AudioBuffer
    of float32 samples, equal to the file's values (PCM16 times 2^-15).

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
        dtype = np.dtype("<i2")
    elif audio_format == _IEEE_FLOAT:
        if bits != 32:
            raise UnsupportedFormat(f"{path}: {bits}-bit float not supported")
        dtype = np.dtype("<f4")
    else:
        raise UnsupportedFormat(f"{path}: audio format {audio_format} not supported")
    frame_bytes = n_channels * dtype.itemsize
    if block_align not in (0, frame_bytes) or len(data) % frame_bytes != 0:
        raise CorruptFile(f"{path}: sample data does not align with frames")
    # One float32 array: the cast makes it, and PCM16 is scaled in place,
    # exactly. A NaN or infinite float sample shows in the minimum or the
    # maximum, which take no whole-array temporary and, unlike a float32
    # sum, cannot overflow on finite samples.
    flat = np.frombuffer(data, dtype=dtype).astype(np.float32)
    if audio_format == _PCM:
        flat *= np.float32(2.0**-15)
    elif not (
        np.isfinite(flat.min(initial=0.0)) and np.isfinite(flat.max(initial=0.0))
    ):
        first = int(np.flatnonzero(~np.isfinite(flat))[0])
        frame, channel = divmod(first, n_channels)
        raise CorruptFile(
            f"{path}: non-finite sample {flat[first]} at frame {frame}, "
            f"channel {channel}"
        )
    return AudioBuffer(sample_rate, flat.reshape(-1, n_channels))


def _check_header(channels, rate, frames, sample_format="float32"):
    """Raise ValueError naming the first field of the header of a WAV of
    these counts in sample_format ("float32" or "pcm16", else ValueError)
    that its unsigned field cannot hold: channel count and block align
    take 16 bits, sample rate, byte rate and data size 32. The data size
    must also leave room for the rest of the file, which the RIFF size
    counts besides the samples."""
    if sample_format not in ("float32", "pcm16"):
        raise ValueError(f"unknown sample_format {sample_format!r}")
    width = 4 if sample_format == "float32" else 2
    # The RIFF size counts "WAVE" (4 bytes), the fmt chunk's header and
    # fields (8 + 16) and the data chunk's header (8); float32 adds a zero
    # cbSize closing its fmt chunk (2) and a fact chunk (12).
    header_bytes = 4 + 8 + 16 + 8 + (2 + 12 if width == 4 else 0)
    fields = (
        ("channel count", channels, 0xFFFF),
        ("sample rate", rate, 0xFFFFFFFF),
        ("byte rate", rate * channels * width, 0xFFFFFFFF),
        ("block align", channels * width, 0xFFFF),
        ("data size", frames * channels * width, 0xFFFFFFFF - header_bytes),
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
    The header and the samples are written one after the other: the
    payload is the one converted array (none for float32 samples), not
    joined to the header in a copy.
    """
    n_chan, rate = buffer.n_channels, buffer.sample_rate
    _check_header(n_chan, rate, buffer.n_samples, sample_format)
    float32 = sample_format == "float32"
    width = 4 if float32 else 2
    fmt_body = struct.pack(
        "<HHIIHH", _IEEE_FLOAT if float32 else _PCM, n_chan, rate,
        rate * n_chan * width, n_chan * width, 8 * width,
    )
    if float32:
        payload = np.ascontiguousarray(buffer.samples, dtype="<f4")
        fmt_body += struct.pack("<H", 0)
        fact = struct.pack("<4sII", b"fact", 4, buffer.n_samples)
    else:
        payload = np.ascontiguousarray(quantize_pcm16(buffer.samples), dtype="<i2")
        fact = b""
    chunks = (
        struct.pack("<4sI", b"fmt ", len(fmt_body))
        + fmt_body
        + fact
        + struct.pack("<4sI", b"data", payload.nbytes)
    )
    header = struct.pack("<4sI4s", b"RIFF", 4 + len(chunks) + payload.nbytes, b"WAVE")
    try:
        with open(path, "wb") as fh:
            fh.write(header + chunks)
            fh.write(payload)
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc
