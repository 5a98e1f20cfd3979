"""WAV I/O tests: round trips, header layout against a struct-level
oracle, PCM16 files built field by field, and malformed-file rejection."""

import struct

import numpy as np
import pytest

from overiva.errors import CorruptFile, IoFailure, UnsupportedFormat
from overiva.io import AudioBuffer, read_wav, write_wav


def make_buffer(rng, n, channels, rate=16000):
    samples = rng.uniform(-0.9, 0.9, (n, channels))
    return AudioBuffer(rate, samples)


def write_pcm16(path, codes, rate=16000, before_data=b""):
    """Write int16 codes, (n_samples, n_channels), as a PCM16 WAV built
    field by field (write_wav writes float32 only), with the chunks in
    before_data between its fmt and data chunks."""
    codes = np.asarray(codes, dtype="<i2")
    n_chan = codes.shape[1]
    data = codes.tobytes()
    fmt = struct.pack("<HHIIHH", 1, n_chan, rate, rate * n_chan * 2, n_chan * 2, 16)
    body = (
        b"WAVEfmt "
        + struct.pack("<I", len(fmt))
        + fmt
        + before_data
        + b"data"
        + struct.pack("<I", len(data))
        + data
    )
    path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)


class TestAudioBuffer:
    def test_mono_promoted_to_2d(self):
        buf = AudioBuffer(8000, np.zeros(100))
        assert buf.samples.shape == (100, 1)

    def test_properties(self):
        buf = AudioBuffer(16000, np.zeros((320, 2)))
        assert buf.n_samples == 320
        assert buf.n_channels == 2
        np.testing.assert_allclose(buf.duration, 0.02)

    @pytest.mark.parametrize("rate", [True, 16000.5, 16000.0, "16000", None])
    def test_non_integer_rate_is_value_error(self, rate):
        with pytest.raises(ValueError, match="^sample_rate must be an integer, got "):
            AudioBuffer(rate, np.zeros(10))

    @pytest.mark.parametrize("rate", [0, -8000])
    def test_rate_below_one_is_value_error(self, rate):
        with pytest.raises(ValueError, match=f"^sample_rate must be >= 1, got {rate}$"):
            AudioBuffer(rate, np.zeros(10))

    def test_numpy_rate_stored_as_int(self, tmp_path):
        buf = AudioBuffer(np.int64(8000), np.zeros(10))
        assert type(buf.sample_rate) is int and buf.sample_rate == 8000
        write_wav(tmp_path / "x.wav", buf)
        assert read_wav(tmp_path / "x.wav").sample_rate == 8000


    def test_zero_channels_is_value_error(self):
        """A buffer with no channel has no WAV form: read_wav rejects a
        header with zero channels as CorruptFile."""
        with pytest.raises(ValueError, match="at least one channel"):
            AudioBuffer(16000, np.zeros((10, 0)))


class TestSampleDtype:
    def test_float32_is_kept_and_every_other_dtype_widened(self):
        x = np.ones((5, 2), dtype=np.float32)
        assert AudioBuffer(8000, x).samples is x
        for samples in (
            np.ones((5, 2), dtype=np.float16),
            np.ones((5, 2), dtype=np.int16),
            np.ones((5, 2)),
            [[1, 2], [3, 4]],
        ):
            assert AudioBuffer(8000, samples).samples.dtype == np.float64

    @pytest.mark.parametrize(
        "sample_format, dtype, scale",
        [("float32", "<f4", 1.0), ("pcm16", "<i2", 2.0**-15)],
    )
    def test_read_is_float32_equal_to_the_file(
        self, tmp_path, sample_format, dtype, scale
    ):
        """read_wav's samples are float32, each the file's value (a PCM16
        code times 2^-15, exact in float32)."""
        rng = np.random.default_rng(5)
        path = tmp_path / "s.wav"
        if sample_format == "float32":
            write_wav(path, make_buffer(rng, 300, 2))
        else:
            write_pcm16(path, rng.integers(-32768, 32768, (300, 2)))
        raw = path.read_bytes()
        data = raw[raw.find(b"data") + 8 :]
        got = read_wav(path).samples
        assert got.dtype == np.float32
        expected = np.frombuffer(data, dtype=dtype).astype(np.float64) * scale
        np.testing.assert_array_equal(got.astype(np.float64).ravel(), expected)

    def test_largest_finite_float32_samples_read_back(self, tmp_path):
        """Samples whose float32 sum overflows are finite and read back."""
        big = np.finfo(np.float32).max
        path = tmp_path / "loud.wav"
        write_wav(path, AudioBuffer(8000, np.full((4, 2), big, dtype=np.float32)))
        np.testing.assert_array_equal(read_wav(path).samples, big)


class TestRoundTrips:
    def test_float32_bitwise(self, tmp_path):
        rng = np.random.default_rng(0)
        buf = make_buffer(rng, 1000, 3)
        path = tmp_path / "a.wav"
        write_wav(path, buf)
        got = read_wav(path)
        assert got.sample_rate == 16000
        np.testing.assert_array_equal(
            got.samples, buf.samples.astype(np.float32).astype(np.float64)
        )


class TestReadMemory:
    @pytest.mark.parametrize("sample_format", ["float32", "pcm16"])
    def test_one_float32_array_beside_the_file(
        self, tmp_path, traced_peak, sample_format
    ):
        """read_wav holds at most the file's bytes and the float32
        samples at once: the data chunk is not copied, and the samples
        are not scaled into a second array."""
        rng = np.random.default_rng(3)
        path = tmp_path / "big.wav"
        if sample_format == "float32":
            write_wav(path, make_buffer(rng, 100_000, 4))
        else:
            write_pcm16(path, rng.integers(-32768, 32768, (100_000, 4)))
        got, peak = traced_peak(read_wav, path)
        assert peak < path.stat().st_size + got.samples.nbytes + 2**16


class TestWriteMemory:
    def test_float32_payload_is_one_converted_array(self, tmp_path, traced_peak):
        """Writing float64 samples as float32 holds their one float32
        conversion and no copy of it joined to the header."""
        rng = np.random.default_rng(3)
        buf = make_buffer(rng, 100_000, 4)
        _, peak = traced_peak(write_wav, tmp_path / "w.wav", buf)
        assert peak < buf.samples.size * 4 + 2**16

    def test_float32_samples_are_written_without_a_copy(self, tmp_path, traced_peak):
        buf = AudioBuffer(16000, np.zeros((100_000, 4), dtype=np.float32))
        _, peak = traced_peak(write_wav, tmp_path / "w.wav", buf)
        assert peak < 2**16


class TestHeaderLayout:
    def test_float32_header_fields(self, tmp_path):
        """Check every header field against a struct-level parse."""
        rng = np.random.default_rng(3)
        buf = make_buffer(rng, 100, 3, rate=48000)
        path = tmp_path / "d.wav"
        write_wav(path, buf)
        raw = path.read_bytes()
        assert raw[:4] == b"RIFF" and raw[8:12] == b"WAVE"
        assert struct.unpack("<I", raw[4:8])[0] == len(raw) - 8
        assert raw[12:16] == b"fmt "
        fmt_size = struct.unpack("<I", raw[16:20])[0]
        code, channels, rate, byte_rate, block, bits = struct.unpack(
            "<HHIIHH", raw[20:36]
        )
        assert code == 3 and channels == 3 and rate == 48000
        assert bits == 32 and block == 12 and byte_rate == 48000 * 12
        body = raw[20 + fmt_size :]
        assert body[:4] == b"fact"
        data_pos = raw.find(b"data")
        assert struct.unpack("<I", raw[data_pos + 4 : data_pos + 8])[0] == 100 * 12

    def test_odd_data_chunk_is_padded(self, tmp_path):
        """A mono PCM16 file of 3 samples whose data chunk follows a
        3-byte chunk and its one pad byte (RIFF pads every odd-sized
        chunk): read_wav steps over the pad byte to the data chunk."""
        path = tmp_path / "f.wav"
        odd = b"junk" + struct.pack("<I", 3) + b"abc" + b"\0"
        write_pcm16(path, [[1], [-2], [3]], rate=8000, before_data=odd)
        got = read_wav(path)
        assert got.n_samples == 3
        np.testing.assert_array_equal(got.samples[:, 0] * 2**15, [1, -2, 3])


class TestHeaderFit:
    """A header field that its unsigned field cannot hold is refused with
    a ValueError naming it, before the path is opened (the directory
    does not exist, so an attempt to open would raise IoFailure)."""

    FIELDS = [
        (2**32, 1, "sample rate"),
        (2**31, 2, "byte rate"),
        (16000, 20000, "block align"),
        (16000, 70000, "channel count"),
    ]

    @pytest.mark.parametrize(
        "rate, channels, field",
        FIELDS,
        ids=[f"{rate}-{channels}-float32-{field}" for rate, channels, field in FIELDS],
    )
    def test_field_that_does_not_fit_is_value_error(
        self, tmp_path, rate, channels, field
    ):
        buf = AudioBuffer(rate, np.zeros((4, channels)))
        path = tmp_path / "no" / "dir.wav"
        with pytest.raises(ValueError, match=f"^WAV {field} "):
            write_wav(path, buf)

    def test_data_size_that_does_not_fit_is_value_error(self, tmp_path):
        """The RIFF size counts the header besides the samples, so the
        largest data size is a few bytes below 2**32 - 1. The samples are
        a broadcast view: no payload is formed."""
        n = 2**32 // 4
        buf = AudioBuffer(8000, np.broadcast_to(np.zeros(1), (n, 1)))
        with pytest.raises(ValueError, match="^WAV data size "):
            write_wav(tmp_path / "no" / "dir.wav", buf)

    def test_largest_fields_that_fit_are_written(self, tmp_path):
        """16383 float32 channels nearly fill the block align field, and
        the largest rate whose byte rate fits then fills that field;
        read_wav takes both back."""
        channels = 0xFFFF // 4
        rate = 0xFFFFFFFF // (4 * channels)
        path = tmp_path / "wide.wav"
        write_wav(path, AudioBuffer(rate, np.zeros((4, channels))))
        got = read_wav(path)
        assert (got.sample_rate, got.samples.shape) == (rate, (4, channels))


class TestErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(IoFailure):
            read_wav(tmp_path / "absent.wav")

    def test_not_riff(self, tmp_path):
        path = tmp_path / "g.wav"
        path.write_bytes(b"not a wave file at all")
        with pytest.raises(CorruptFile):
            read_wav(path)

    def test_truncated_data(self, tmp_path):
        rng = np.random.default_rng(4)
        path = tmp_path / "h.wav"
        write_wav(path, make_buffer(rng, 100, 1))
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 37])
        with pytest.raises(CorruptFile):
            read_wav(path)

    def test_missing_data_chunk(self, tmp_path):
        path = tmp_path / "i.wav"
        fmt = struct.pack("<HHIIHH", 1, 1, 8000, 16000, 2, 16)
        body = b"WAVEfmt " + struct.pack("<I", 16) + fmt
        path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
        with pytest.raises(CorruptFile):
            read_wav(path)

    def test_unsupported_bit_depth(self, tmp_path):
        """A 64-bit float WAV is well formed but not a supported format."""
        path = tmp_path / "j.wav"
        data = np.zeros(4).tobytes()
        fmt = struct.pack("<HHIIHH", 3, 1, 8000, 64000, 8, 64)
        body = (
            b"WAVEfmt "
            + struct.pack("<I", 16)
            + fmt
            + b"data"
            + struct.pack("<I", len(data))
            + data
        )
        path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
        with pytest.raises(UnsupportedFormat):
            read_wav(path)

    def test_unknown_format_code(self, tmp_path):
        path = tmp_path / "k.wav"
        fmt = struct.pack("<HHIIHH", 7, 1, 8000, 8000, 1, 8)
        body = (
            b"WAVEfmt "
            + struct.pack("<I", 16)
            + fmt
            + b"data"
            + struct.pack("<I", 0)
        )
        path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
        with pytest.raises(UnsupportedFormat):
            read_wav(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_nonfinite_float_sample(self, tmp_path, value):
        samples = np.zeros((10, 3))
        samples[7, 2] = value
        samples[9, 0] = np.nan
        path = tmp_path / "bad.wav"
        write_wav(path, AudioBuffer(16000, samples))
        with pytest.raises(CorruptFile, match=r"bad\.wav.*frame 7, channel 2"):
            read_wav(path)

    def test_write_failure_is_io_error(self, tmp_path):
        buf = AudioBuffer(8000, np.zeros((4, 1)))
        with pytest.raises(IoFailure):
            write_wav(tmp_path / "no" / "such" / "dir.wav", buf)
