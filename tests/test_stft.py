"""STFT front end tests: window identities, analysis oracles, exact
reconstruction, blocking and memory."""

import importlib

import numpy as np
import pytest

from oracles import istft_unblocked, stft_unblocked
from overiva.errors import ShapeMismatch, SignalTooShort
from overiva.stft import (
    RankOneImage,
    Spectrogram,
    StftConfig,
    istft,
    n_frames_for,
    sqrt_hann_window,
    stft,
    windowed_frames,
)

# The package exports the stft function under the module's name.
stft_module = importlib.import_module("overiva.stft")


def dft_matrix(n_bins, frame_len):
    """Independent analysis oracle: explicit one-sided DFT matrix."""
    b = np.arange(n_bins)[:, None]
    n = np.arange(frame_len)[None, :]
    return np.exp(-2j * np.pi * b * n / frame_len)


class TestConfig:
    def test_defaults(self):
        cfg = StftConfig()
        assert cfg.frame_len == 4096 and cfg.hop == 1024
        assert cfg.n_bins == 2049 and cfg.pad == 3072

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            StftConfig(1000)

    def test_hop_must_divide(self):
        with pytest.raises(ValueError):
            StftConfig(256, 100)

    def test_frame_count_formula(self):
        """160000 samples at 4096/1024 analyze into 159 frames."""
        cfg = StftConfig(4096, 1024)
        assert n_frames_for(160000, cfg) == 159
        assert stft(np.zeros(160000), cfg).n_frames == 159


class TestWindow:
    def test_endpoints_and_symmetry(self):
        win = sqrt_hann_window(256)
        assert win[0] == 0.0
        np.testing.assert_allclose(win[128], 1.0, rtol=1e-15)
        np.testing.assert_allclose(win[1:], win[1:][::-1], rtol=1e-12)

    def test_overlap_add_is_flat_at_quarter_hop(self):
        """The squared window summed over four quarter-shifts is exactly 2,
        which is what makes weighted overlap-add exact in the interior."""
        n = 256
        win2 = sqrt_hann_window(n) ** 2
        total = sum(np.roll(win2, j * n // 4) for j in range(4))
        np.testing.assert_allclose(total, 2.0, rtol=1e-14)


class TestAnalysis:
    def test_zero_signal(self):
        spec = stft(np.zeros(4000), StftConfig(256, 64))
        assert spec.data.shape == (129, n_frames_for(4000, StftConfig(256, 64)), 1)
        assert np.abs(spec.data).max() == 0.0

    def test_impulse_matches_direct_dft(self):
        """A unit impulse lands in one frame as a windowed delta; the
        frame's spectrum must be flat in magnitude at the window value
        and match an explicit DFT of the manually windowed frame."""
        cfg = StftConfig(256, 64)
        offset = cfg.frame_len // 2
        frame_index = 6
        position = frame_index * cfg.hop + offset - cfg.pad
        x = np.zeros(2000)
        x[position] = 1.0
        spec = stft(x, cfg)
        col = spec.data[:, frame_index, 0]
        win = sqrt_hann_window(cfg.frame_len)
        np.testing.assert_allclose(np.abs(col), win[offset], rtol=1e-12)
        manual = np.zeros(cfg.frame_len)
        manual[offset] = win[offset]
        oracle = dft_matrix(cfg.n_bins, cfg.frame_len) @ manual
        np.testing.assert_allclose(col, oracle, atol=1e-12)

    def test_sinusoid_peaks_at_its_bin(self):
        cfg = StftConfig(256, 64)
        bin_index = 8
        n = np.arange(6000)
        x = np.cos(2 * np.pi * bin_index * n / cfg.frame_len)
        spec = stft(x, cfg)
        interior = spec.data[:, 10:-10, 0]
        assert np.all(np.argmax(np.abs(interior), axis=0) == bin_index)

    def test_frames_match_direct_dft(self):
        """Every analysis column equals the explicit DFT of its windowed
        frame (oracle built without the FFT)."""
        cfg = StftConfig(128, 32)
        rng = np.random.default_rng(7)
        x = rng.standard_normal(1500)
        frames = windowed_frames(x, cfg)[:, :, 0]
        oracle = frames @ dft_matrix(cfg.n_bins, cfg.frame_len).T
        spec = stft(x, cfg)
        np.testing.assert_allclose(spec.data[:, :, 0], oracle.T, atol=1e-10)

    def test_linearity(self):
        cfg = StftConfig(256, 64)
        rng = np.random.default_rng(8)
        x = rng.standard_normal((3000, 2))
        y = rng.standard_normal((3000, 2))
        lhs = stft(2.5 * x - 0.5 * y, cfg).data
        rhs = 2.5 * stft(x, cfg).data - 0.5 * stft(y, cfg).data
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_parseval_per_frame(self):
        """Frame energy equals its one-sided spectral sum (interior bins
        doubled), to near machine precision."""
        cfg = StftConfig(256, 64)
        rng = np.random.default_rng(9)
        x = rng.standard_normal(4000)
        frames = windowed_frames(x, cfg)[:, :, 0]
        spec = stft(x, cfg).data[:, :, 0]
        weights = np.full(cfg.n_bins, 2.0)
        weights[0] = weights[-1] = 1.0
        spectral = (weights[:, None] * np.abs(spec) ** 2).sum(axis=0) / cfg.frame_len
        time_energy = (frames**2).sum(axis=1)
        np.testing.assert_allclose(spectral, time_energy, rtol=1e-9)

    def test_too_short_raises(self):
        with pytest.raises(SignalTooShort):
            stft(np.zeros(255), StftConfig(256, 64))

    @pytest.mark.parametrize("m", [1, 3, 7])
    def test_bin_major_and_bit_identical_to_frame_major_fft(self, m):
        """The bins are stored contiguously, and writing the FFT into that
        layout changes no bit of it."""
        cfg = StftConfig(512, 128)
        x = np.random.default_rng(10).standard_normal((5000, m))
        data = stft(x, cfg).data
        assert data.flags.c_contiguous and data.dtype == np.complex128
        ref = np.fft.rfft(windowed_frames(x, cfg), axis=1).transpose(1, 0, 2)
        np.testing.assert_array_equal(data, ref)


class TestSynthesis:
    @pytest.mark.parametrize(
        "n,frame_len,hop",
        [(4096, 4096, 1024), (16000, 512, 128), (7777, 256, 64), (2049, 1024, 256)],
    )
    def test_round_trip_exact(self, n, frame_len, hop):
        """Reconstruction is exact to machine precision at any length,
        aligned or not."""
        cfg = StftConfig(frame_len, hop)
        rng = np.random.default_rng(n)
        x = rng.standard_normal((n, 2))
        y = istft(stft(x, cfg), cfg, length=n)
        rel = np.sqrt(np.mean((x - y) ** 2) / np.mean(x**2))
        assert rel < 1e-12

    def test_zero_spectrogram(self):
        cfg = StftConfig(256, 64)
        out = istft(Spectrogram(np.zeros((129, 10, 3), complex)), cfg)
        assert out.shape[1] == 3 and np.abs(out).max() == 0.0

    def test_length_extension_pads_zeros(self):
        cfg = StftConfig(256, 64)
        x = np.ones(1000)
        y = istft(stft(x, cfg), cfg, length=1250)
        np.testing.assert_allclose(y[:1000, 0], x, atol=1e-12)
        # Past the signal but inside synthesis coverage: zero to roundoff.
        assert np.abs(y[1000:, 0]).max() < 1e-12
        # Past synthesis coverage entirely: exact zeros.
        assert np.abs(y[1160:, 0]).max() == 0.0

    def test_synthesis_linearity(self):
        cfg = StftConfig(256, 64)
        rng = np.random.default_rng(11)
        a = rng.standard_normal((129, 12, 2)) + 1j * rng.standard_normal((129, 12, 2))
        b = rng.standard_normal((129, 12, 2)) + 1j * rng.standard_normal((129, 12, 2))
        lhs = istft(Spectrogram(3.0 * a + b), cfg)
        rhs = 3.0 * istft(Spectrogram(a), cfg) + istft(Spectrogram(b), cfg)
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_bin_count_mismatch_raises(self):
        with pytest.raises(ShapeMismatch):
            istft(Spectrogram(np.zeros((100, 5, 1), complex)), StftConfig(256, 64))

    def test_spectrogram_is_contiguous_complex128(self):
        base = np.arange(2 * 3 * 4, dtype=np.complex64).reshape(3, 2, 4)
        view = base.transpose(1, 0, 2)
        spec = Spectrogram(view)
        assert spec.data.flags.c_contiguous and spec.data.dtype == np.complex128
        np.testing.assert_array_equal(spec.data, view)
        same = np.ones((2, 3, 4), complex)
        assert Spectrogram(same).data is same

    def test_spectrogram_validation(self):
        with pytest.raises(ShapeMismatch):
            Spectrogram(np.zeros((4, 5), complex))
        with pytest.raises(ValueError):
            Spectrogram(np.full((2, 2, 1), np.nan, complex))

    def test_non_finite_entry_is_located(self):
        """The first non-finite entry in (F, T, M) order is named, in the
        words run() uses for a raw array."""
        data = np.zeros((5, 4, 3), complex)
        data[3, 0, 0] = np.inf
        data[2, 3, 1] = complex(0.0, np.nan)
        with pytest.raises(
            ValueError,
            match=r"^input is not finite at frequency bin 2, frame 3, channel 1$",
        ):
            Spectrogram(data)

    def test_stft_of_non_finite_signal_names_its_first_frame(self):
        """A NaN sample reaches bin 0 of the first frame that covers it, on
        its own channel."""
        cfg = StftConfig(256, 64)
        x = np.zeros((2000, 3))
        x[700, 2] = np.nan
        first = -(-(700 + cfg.pad - cfg.frame_len + 1) // cfg.hop)
        with pytest.raises(
            ValueError,
            match=rf"frequency bin 0, frame {first}, channel 2$",
        ):
            stft(x, cfg)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("frame_len,overflows", [(256, True), (64, False)])
    def test_stft_of_huge_samples(self, frame_len, overflows):
        """Finite samples too large for the signal check send stft to the
        spectrogram-wide one: an overflowed transform is named at its
        first non-finite entry, a finite one is returned as computed."""
        cfg = StftConfig(frame_len, frame_len // 4)
        x = np.full((2000, 2), 2e306)
        x[::7, 1] = -2e306
        ref = np.fft.rfft(windowed_frames(x, cfg), axis=1).transpose(1, 0, 2)
        bad = np.argwhere(~np.isfinite(ref))
        assert (len(bad) > 0) == overflows
        if overflows:
            f, t, c = bad[0]
            with pytest.raises(
                ValueError,
                match=rf"^input is not finite at frequency bin {f}, frame {t}, "
                rf"channel {c}$",
            ):
                stft(x, cfg)
        else:
            np.testing.assert_array_equal(stft(x, cfg).data, ref)

    def test_stft_checks_the_signal_not_the_spectrogram(self, monkeypatch):
        """An ordinary finite signal is not followed by a pass over its
        spectrogram."""
        searched = []
        monkeypatch.setattr(stft_module, "_require_finite", searched.append)
        x = np.random.default_rng(12).standard_normal((3000, 2))
        stft(x, StftConfig(256, 64))
        assert searched == []

    def test_rank_one_image_shapes_must_agree(self):
        cfg = StftConfig(256, 64)
        with pytest.raises(ShapeMismatch, match="rank-one image"):
            istft(RankOneImage(np.ones((2, 129)), np.ones((5, 128))), cfg)
        with pytest.raises(ShapeMismatch, match="rank-one image"):
            istft(RankOneImage(np.ones(129), np.ones((5, 129))), cfg)
        with pytest.raises(ShapeMismatch, match="config implies"):
            istft(RankOneImage(np.ones((2, 65)), np.ones((5, 65))), cfg)

    def test_no_frames_raises(self):
        cfg = StftConfig(256, 64)
        with pytest.raises(ShapeMismatch, match=r"at least one frame.*\(129, 0, 2\)"):
            istft(np.zeros((129, 0, 2), complex), cfg)
        with pytest.raises(ShapeMismatch, match="at least one frame"):
            istft(Spectrogram(np.zeros((129, 0, 2), complex)), cfg, length=100)

    def test_negative_length_raises(self):
        cfg = StftConfig(256, 64)
        spec = np.zeros((129, 10, 2), complex)
        with pytest.raises(ValueError, match="^length must be >= 0, got -1$"):
            istft(spec, cfg, length=-1)
        assert istft(spec, cfg, length=0).shape == (0, 2)

    def test_short_spectrogram_default_length_is_empty(self):
        """Fewer than frame_len / hop - 1 frames imply no sample of the
        padded convention: the default length is 0, an explicit one still
        returns what the frames cover."""
        cfg = StftConfig(256, 64)
        spec = np.random.default_rng(43).standard_normal((129, 2, 1)) + 0j
        assert istft(spec, cfg).shape == (0, 1)
        assert np.abs(istft(spec, cfg, length=2 * cfg.hop)).max() > 0


def frame_counts(block):
    """Frame counts on both sides of one and two blocks."""
    return sorted({1, block - 1, block, block + 1, 2 * block + 3} - {0})


@pytest.fixture(params=["module", 4])
def block(request, monkeypatch):
    """The module's block size, and a small one that splits every test
    input into several blocks."""
    if request.param != "module":
        monkeypatch.setattr(stft_module, "BLOCK_FRAMES", request.param)
    return stft_module.BLOCK_FRAMES


class TestBlocking:
    """stft and istft work a block of frames at a time; at every frame
    count around the block size their results equal the unblocked
    oracles' bit for bit."""

    @pytest.mark.parametrize("hop_div", [1, 4])
    def test_stft_matches_unblocked(self, block, hop_div):
        cfg = StftConfig(64, 64 // hop_div)
        rng = np.random.default_rng(40)
        for n_frames in frame_counts(block):
            # The shortest signal with n_frames frames, plus a ragged tail.
            n = (n_frames - 1) * cfg.hop + cfg.frame_len - 2 * cfg.pad + 5
            if n < cfg.frame_len:
                continue
            x = rng.standard_normal((n, 3))
            data = stft(x, cfg).data
            assert data.shape == (cfg.n_bins, n_frames, 3)
            np.testing.assert_array_equal(data, stft_unblocked(x, cfg).data)

    @pytest.mark.parametrize("layout", ["c_contiguous", "bins_innermost", "complex64"])
    def test_istft_matches_unblocked(self, block, layout):
        cfg = StftConfig(64, 16)
        rng = np.random.default_rng(41)
        for n_frames in frame_counts(block):
            shape = (n_frames, 3, cfg.n_bins)
            tmf = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            if layout == "bins_innermost":
                data = tmf.transpose(2, 0, 1)
            else:
                data = np.ascontiguousarray(tmf.transpose(2, 0, 1))
                if layout == "complex64":
                    data = data.astype(np.complex64)
            length = n_frames * cfg.hop
            np.testing.assert_array_equal(
                istft(data, cfg, length=length),
                istft_unblocked(data, cfg, length=length),
            )
            if n_frames >= cfg.frame_len // cfg.hop - 1:
                np.testing.assert_array_equal(
                    istft(data, cfg), istft_unblocked(data, cfg)
                )


    def test_factored_istft_matches_dense(self, block):
        """A RankOneImage synthesizes to the bits of the dense image it
        stands for, laid out bins innermost as SeparationResult.images
        is."""
        cfg = StftConfig(64, 16)
        rng = np.random.default_rng(44)
        for n_frames in frame_counts(block):
            mixing, outputs = (
                rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                for shape in [(3, cfg.n_bins), (n_frames, cfg.n_bins)]
            )
            dense = (outputs[:, None, :] * mixing).transpose(2, 0, 1)
            factored = RankOneImage(mixing, outputs)
            lengths = [n_frames * cfg.hop]
            if n_frames >= cfg.frame_len // cfg.hop - 1:
                lengths.append(None)
            for length in lengths:
                np.testing.assert_array_equal(
                    istft(factored, cfg, length=length),
                    istft(dense, cfg, length=length),
                )


class TestMemory:
    """No spectrogram-sized intermediate: stft holds its output, the
    padded signal and one block of frames (1.51x its output here; 3.0x
    unblocked), and istft on a bins-innermost image holds the overlap-add
    buffer, the output and one block (0.69x the image; 1.66x unblocked)."""

    cfg = StftConfig(1024, 256)

    def signal(self):
        return np.random.default_rng(42).standard_normal((32000, 4))

    def test_stft_peak_below_twice_its_output(self, traced_peak):
        spec, peak = traced_peak(stft, self.signal(), self.cfg)
        assert peak < 2.0 * spec.data.nbytes

    def test_istft_peak_below_the_image_size(self, traced_peak):
        data = stft(self.signal(), self.cfg).data
        image = np.ascontiguousarray(data.transpose(1, 2, 0)).transpose(2, 0, 1)
        _, peak = traced_peak(istft, image, self.cfg, length=32000)
        assert peak < image.nbytes
