"""WAV I/O tests: round trips, header layout against a struct-level
oracle, quantization rules, and malformed-file rejection."""

import struct

import numpy as np
import pytest

from overiva.errors import CorruptFile, IoFailure, UnsupportedFormat
from overiva.io import AudioBuffer, quantize_pcm16, read_wav, write_wav


def make_buffer(rng, n, channels, rate=16000):
    samples = rng.uniform(-0.9, 0.9, (n, channels))
    return AudioBuffer(rate, samples)


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


class TestQuantize:
    def test_rounds_half_away_from_zero(self):
        x = np.array([0.5 / 32768, -0.5 / 32768, 1.5 / 32768, -1.5 / 32768])
        np.testing.assert_array_equal(quantize_pcm16(x), [1, -1, 2, -2])

    def test_full_scale_clamps(self):
        np.testing.assert_array_equal(
            quantize_pcm16(np.array([-1.0, 1.0, -2.0, 2.0])),
            [-32768, 32767, -32768, 32767],
        )

    def test_zero_is_zero(self):
        assert quantize_pcm16(np.array([0.0]))[0] == 0


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

    def test_pcm16_within_one_lsb(self, tmp_path):
        rng = np.random.default_rng(1)
        buf = make_buffer(rng, 500, 2, rate=8000)
        path = tmp_path / "b.wav"
        write_wav(path, buf, sample_format="pcm16")
        got = read_wav(path)
        assert got.sample_rate == 8000
        assert np.abs(got.samples - buf.samples).max() <= 2.0**-15

    def test_pcm16_values_are_exact_quantization(self, tmp_path):
        rng = np.random.default_rng(2)
        buf = make_buffer(rng, 200, 1)
        path = tmp_path / "c.wav"
        write_wav(path, buf, sample_format="pcm16")
        got = read_wav(path)
        expected = quantize_pcm16(buf.samples) / 32768.0
        np.testing.assert_array_equal(got.samples, expected)


class TestReadMemory:
    @pytest.mark.parametrize("sample_format", ["float32", "pcm16"])
    def test_one_float64_array_beside_the_file(
        self, tmp_path, traced_peak, sample_format
    ):
        """read_wav holds at most the file's bytes and the float64
        samples at once: the data chunk is not copied, and the samples
        are not scaled into a second array."""
        rng = np.random.default_rng(3)
        path = tmp_path / "big.wav"
        write_wav(path, make_buffer(rng, 100_000, 4), sample_format=sample_format)
        got, peak = traced_peak(read_wav, path)
        assert peak < path.stat().st_size + got.samples.nbytes + 2**16


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

    def test_pcm16_header_fields(self, tmp_path):
        buf = AudioBuffer(22050, np.zeros((7, 2)))
        path = tmp_path / "e.wav"
        write_wav(path, buf, sample_format="pcm16")
        raw = path.read_bytes()
        code, channels, rate, byte_rate, block, bits = struct.unpack(
            "<HHIIHH", raw[20:36]
        )
        assert code == 1 and channels == 2 and rate == 22050
        assert bits == 16 and block == 4 and byte_rate == 22050 * 4
        assert len(raw) % 2 == 0

    def test_odd_data_chunk_is_padded(self, tmp_path):
        """A mono pcm16 file with an odd sample count still produces an
        even-length RIFF body."""
        buf = AudioBuffer(8000, np.zeros((3, 1)))
        path = tmp_path / "f.wav"
        write_wav(path, buf, sample_format="pcm16")
        raw = path.read_bytes()
        assert len(raw) % 2 == 0
        got = read_wav(path)
        assert got.n_samples == 3


class TestHeaderFit:
    """A header field that its unsigned field cannot hold is refused with
    a ValueError naming it, before the path is opened (the directory
    does not exist, so an attempt to open would raise IoFailure)."""

    @pytest.mark.parametrize(
        "rate, channels, sample_format, field",
        [
            (2**32, 1, "pcm16", "sample rate"),
            (2**31, 2, "float32", "byte rate"),
            (2**31, 1, "pcm16", "byte rate"),
            (16000, 20000, "float32", "block align"),
            (16000, 40000, "pcm16", "block align"),
            (8000, 70000, "pcm16", "channel count"),
        ],
    )
    def test_field_that_does_not_fit_is_value_error(
        self, tmp_path, rate, channels, sample_format, field
    ):
        buf = AudioBuffer(rate, np.zeros((4, channels)))
        path = tmp_path / "no" / "dir.wav"
        with pytest.raises(ValueError, match=f"^WAV {field} "):
            write_wav(path, buf, sample_format=sample_format)

    @pytest.mark.parametrize("sample_format, width", [("float32", 4), ("pcm16", 2)])
    def test_data_size_that_does_not_fit_is_value_error(
        self, tmp_path, sample_format, width
    ):
        """The RIFF size counts the header besides the samples, so the
        largest data size is a few bytes below 2**32 - 1. The samples are
        a broadcast view: no payload is formed."""
        n = 2**32 // width
        buf = AudioBuffer(8000, np.broadcast_to(np.zeros(1), (n, 1)))
        with pytest.raises(ValueError, match="^WAV data size "):
            write_wav(tmp_path / "no" / "dir.wav", buf, sample_format=sample_format)

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

    def test_unknown_sample_format_rejected(self, tmp_path):
        buf = AudioBuffer(8000, np.zeros((4, 1)))
        with pytest.raises(ValueError):
            write_wav(tmp_path / "l.wav", buf, sample_format="pcm24")
