"""STFT front end tests: window identities, analysis oracles, exact
reconstruction, blocking and memory."""

import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import istft_unblocked, stft_unblocked, windowed_frames
from overiva.errors import ShapeMismatch, SignalTooShort
from overiva.stft import (
    RankOneImage,
    Spectrogram,
    StftConfig,
    istft,
    n_frames_for,
    sqrt_hann_window,
    stft,
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

    @pytest.mark.parametrize("frame_len", [2**j for j in range(1, 13)])
    def test_hop_of_a_whole_frame_rejected(self, frame_len):
        """The window is 0 at each frame's first sample, so with no
        overlap every hop-th sample would be covered by no frame."""
        with pytest.raises(ValueError, match=f"hop {frame_len} must be at most"):
            StftConfig(frame_len, frame_len)

    @pytest.mark.parametrize(
        "args, name",
        [
            ((4096, 1024.0), "hop"),
            ((4096, True), "hop"),
            ((4096.0,), "frame_len"),
            ((True,), "frame_len"),
            (("4096",), "frame_len"),
        ],
    )
    def test_sizes_must_be_integers(self, args, name):
        """A float, bool or string size fails at construction, not in
        stft."""
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            StftConfig(*args)

    def test_numpy_integer_sizes_stored_as_ints(self):
        cfg = StftConfig(np.int64(256), np.int32(64))
        assert (type(cfg.frame_len), type(cfg.hop)) == (int, int)

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

    def test_no_channel_raises(self):
        with pytest.raises(ShapeMismatch, match="at least one channel"):
            stft(np.zeros((1000, 0)), StftConfig(256, 64))

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


# Every power-of-two frame_len from 2 to 4096 with every hop that divides it
# and is at most half of it, on frame_len + 3 * hop + 5 samples. The pairs
# whose spectrogram, about 16 frame_len^2 / hop bytes per channel, passes
# 16 MiB are left out: 4096 with hop 8 or less, 2048 with hop 2 or less.
EVERY_ALLOWED_HOP = [
    (frame_len + 3 * hop + 5, frame_len, hop)
    for frame_len in (2**j for j in range(1, 13))
    for hop in (frame_len >> i for i in range(1, frame_len.bit_length()))
    if 16 * frame_len**2 // hop <= 1 << 24
]


class TestSynthesis:
    @pytest.mark.parametrize(
        "n,frame_len,hop",
        [(4096, 4096, 1024), (16000, 512, 128), (7777, 256, 64), (2049, 1024, 256)]
        + EVERY_ALLOWED_HOP,
    )
    def test_round_trip_exact(self, n, frame_len, hop):
        """Reconstruction is exact to machine precision at any length,
        aligned or not, and at every allowed hop."""
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

    @pytest.mark.parametrize("length", [2.5, 100.0, True, "5"])
    def test_non_integer_length_is_value_error(self, length):
        cfg = StftConfig(256, 64)
        spec = np.zeros((129, 10, 2), complex)
        with pytest.raises(ValueError, match="^length must be an integer, got "):
            istft(spec, cfg, length=length)

    def test_numpy_integer_length_accepted(self):
        cfg = StftConfig(256, 64)
        spec = np.random.default_rng(44).standard_normal((129, 10, 2)) + 0j
        np.testing.assert_array_equal(
            istft(spec, cfg, length=np.int64(300)), istft(spec, cfg, length=300)
        )

    def test_short_spectrogram_default_length_is_empty(self):
        """Fewer than frame_len / hop - 1 frames imply no sample of the
        padded convention: the default length is 0, an explicit one still
        returns what the frames cover."""
        cfg = StftConfig(256, 64)
        spec = np.random.default_rng(43).standard_normal((129, 2, 1)) + 0j
        assert istft(spec, cfg).shape == (0, 1)
        assert np.abs(istft(spec, cfg, length=2 * cfg.hop)).max() > 0


class TestBlocks:
    """blocks, the one rule that splits every bounded loop: stft and istft
    over frames, the covariances and variances over bins, run()'s sweep
    chunks."""

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(0, 5000),
        item_bytes=st.integers(0, 2**22),
        budget=st.integers(1, 2**22),
        at_least=st.integers(1, 64),
    )
    def test_fewest_nearly_equal_slices_that_fit(
        self, n, item_bytes, budget, at_least
    ):
        """Non-empty, consecutive slices covering range(n), as many as the
        budget needs or at_least if that is more, capped at n, whose
        sizes differ by at most one, the largest first."""
        slices = stft_module.blocks(n, item_bytes, budget, at_least)
        fit = max(1, budget // max(1, item_bytes))
        assert len(slices) == min(n, max(at_least, -(-n // fit)))
        edges = [0] + [sl.stop for sl in slices]
        assert [sl.start for sl in slices] == edges[:-1] and edges[-1] == n
        assert all(sl.step is None for sl in slices)
        sizes = [sl.stop - sl.start for sl in slices]
        assert all(size >= 1 for size in sizes)
        assert sizes == sorted(sizes, reverse=True)
        assert not sizes or sizes[0] - sizes[-1] <= 1

    def test_budget_defaults_to_scratch_bytes_at_the_call(self, monkeypatch):
        assert len(stft_module.blocks(10, 1024)) == 1
        monkeypatch.setattr(stft_module, "SCRATCH_BYTES", 3 * 1024)
        assert stft_module.blocks(10, 1024) == [
            slice(0, 3), slice(3, 6), slice(6, 8), slice(8, 10)
        ]


def frame_counts(block):
    """Frame counts on both sides of one and two blocks."""
    return sorted({1, block - 1, block, block + 1, 2 * block + 3} - {0})


@pytest.fixture(params=["module", 4])
def block(request, monkeypatch):
    """Most frames per block for the tests that take this fixture, which
    use 3 channels and 64-sample frames: at the module's SCRATCH_BYTES,
    and at a budget of 4 such frames, which splits every test input into
    several blocks."""
    frame_bytes = 8 * 3 * 64
    if request.param != "module":
        monkeypatch.setattr(
            stft_module, "SCRATCH_BYTES", request.param * frame_bytes
        )
    block = stft_module.SCRATCH_BYTES // frame_bytes
    assert len(stft_module.blocks(block, frame_bytes)) == 1
    assert len(stft_module.blocks(block + 1, frame_bytes)) == 2
    return block


class TestBlocking:
    """stft and istft work a block of frames at a time; at every frame
    count around the block size their results equal the unblocked
    oracles' bit for bit."""

    @pytest.mark.parametrize("hop_div", [2, 4])
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

    @pytest.mark.parametrize("hop_div", [2, 4])
    @pytest.mark.parametrize(
        "case", ["one_frame_of_samples", "ragged_tail", "one_block", "two_blocks"]
    )
    def test_stft_is_rfft_of_windowed_frames(self, hop_div, case):
        """Padding each block's span on its own changes no bit of the
        transform: a signal of exactly frame_len samples, lengths that
        are not a multiple of hop, fewer frames than one block (170
        frames of 256 samples on 3 channels, at SCRATCH_BYTES = 1 MiB)
        and exactly two blocks."""
        cfg = StftConfig(256, 256 // hop_div)
        per_block = stft_module.SCRATCH_BYTES // (8 * 3 * cfg.frame_len)

        def length(n_frames, tail):
            return (n_frames - 1) * cfg.hop + cfg.frame_len - 2 * cfg.pad + tail

        n = {
            "one_frame_of_samples": cfg.frame_len,
            "ragged_tail": cfg.frame_len + 37,
            "one_block": length(per_block - 3, cfg.hop // 2 + 1),
            "two_blocks": length(2 * per_block, cfg.hop - 1),
        }[case]
        x = np.random.default_rng(n).standard_normal((n, 3))
        data = stft(x, cfg).data
        if case == "one_block":
            assert data.shape[1] < per_block
        if case == "two_blocks":
            assert data.shape[1] == 2 * per_block
        ref = np.fft.rfft(windowed_frames(x, cfg), axis=1).transpose(1, 0, 2)
        np.testing.assert_array_equal(data, ref)

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
    """No spectrogram-sized intermediate: stft holds its output and one
    block's padded span and windowed frames (1.20x its output here; 3.0x
    unblocked), and istft on a bins-innermost image holds the overlap-add
    buffer, which it returns, and one block (0.82x the image; 1.66x
    unblocked)."""

    cfg = StftConfig(1024, 256)

    def signal(self):
        return np.random.default_rng(42).standard_normal((32000, 4))

    def test_stft_peak_below_twice_its_output(self, traced_peak):
        spec, peak = traced_peak(stft, self.signal(), self.cfg)
        assert peak < 2.0 * spec.data.nbytes

    def test_stft_makes_no_padded_copy_of_the_signal(self, traced_peak):
        """Beyond its output stft allocates less than half the signal's
        size (0.82 MB here against 3.07 MB of samples): the signal is
        padded a block's span at a time, not copied whole (np.pad on the
        whole signal allocated 4.18 MB)."""
        x = np.random.default_rng(45).standard_normal((96000, 4))
        spec, peak = traced_peak(stft, x, self.cfg)
        assert peak - spec.data.nbytes < x.nbytes / 2

    def test_block_scratch_is_bounded_by_the_budget(self, traced_peak):
        """At 7 channels and 4096-sample frames a block is 4 frames: stft
        allocates under 2 * SCRATCH_BYTES beyond its output (the block's
        span of samples and its windowed frames; 1.53 MB here against
        4.97 MB for 16-frame blocks), and istft of a factored image under
        2 * SCRATCH_BYTES beyond its overlap-add buffers and its output
        (the block's image and its inverse transform; 1.03 MB against
        9.29 MB)."""
        cfg = StftConfig(4096, 1024)
        x = np.random.default_rng(46).standard_normal((32000, 7))
        first = stft_module.blocks(n_frames_for(len(x), cfg), 8 * 7 * 4096)[0]
        assert first == slice(0, 4)
        spec, peak = traced_peak(stft, x, cfg)
        assert peak - spec.data.nbytes < 2 * stft_module.SCRATCH_BYTES

        n_bins, n_frames, n_chan = spec.data.shape
        rng = np.random.default_rng(47)
        mixing, outputs = (
            rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            for shape in [(n_chan, n_bins), (n_frames, n_bins)]
        )
        image = RankOneImage(mixing, outputs)
        out, peak = traced_peak(istft, image, cfg, length=len(x))
        total = (n_frames - 1) * cfg.hop + cfg.frame_len
        overlap_add = 8 * (n_chan + 1) * total
        assert peak - overlap_add - out.nbytes < 2 * stft_module.SCRATCH_BYTES

    def test_istft_peak_below_the_image_size(self, traced_peak):
        data = stft(self.signal(), self.cfg).data
        image = np.ascontiguousarray(data.transpose(1, 2, 0)).transpose(2, 0, 1)
        _, peak = traced_peak(istft, image, self.cfg, length=32000)
        assert peak < image.nbytes

    def test_istft_makes_no_copy_of_its_output(self, traced_peak):
        """istft overlap-adds into the array it returns: beyond that
        output and the window sum it allocates one block's scratch
        (2.9 MB here, against a 9.0 MB output), not also a signal-sized
        buffer (10.2 MB when it overlap-added into one of its own and
        copied the output from it)."""
        cfg = StftConfig(4096, 1024)
        n, n_chan = 160000, 7
        n_frames = n_frames_for(n, cfg)
        rng = np.random.default_rng(48)
        mixing, outputs = (
            rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            for shape in [(n_chan, cfg.n_bins), (n_frames, cfg.n_bins)]
        )
        out, peak = traced_peak(istft, RankOneImage(mixing, outputs), cfg, length=n)
        assert out.shape == (n, n_chan)
        assert peak - out.nbytes - 8 * n < out.nbytes / 2
