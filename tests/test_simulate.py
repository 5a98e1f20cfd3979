"""Scene synthesis and metrics tests: impulse-response structure,
source statistics, mixing invariants, SDR closed forms, permutation
scoring, and the scene directory format."""

import json

import numpy as np
import pytest

from overiva import simulate
from overiva.errors import (
    InvalidSpec,
    ShapeMismatch,
    TooManySources,
    ZeroReference,
)
from overiva.simulate import (
    MIN_MODEL_RATE,
    PRNG_NAME,
    SDR_CAP_DB,
    Scene,
    SceneSpec,
    load_scene,
    measured_sinr,
    modulated_noise_sources,
    rtf,
    save_scene,
    sdr,
    sdr_set,
    synth_rir,
    synthesize,
)


class TestSceneSpec:
    def test_defaults(self):
        spec = SceneSpec(n_sources=1, n_noises=2, n_mics=4)
        assert spec.sinr_db == 0.0 and spec.rt60_ms == 300.0
        assert spec.sample_rate == 16000 and spec.duration_s == 10.0
        assert spec.n_samples == 160000

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_sources=0, n_noises=1, n_mics=2),
            dict(n_sources=1, n_noises=-1, n_mics=2),
            dict(n_sources=1, n_noises=1, n_mics=0),
            dict(n_sources=1, n_noises=1, n_mics=2, rt60_ms=0.0),
            dict(n_sources=1, n_noises=1, n_mics=2, duration_s=0.0),
            dict(n_sources=1, n_noises=1, n_mics=2, seed=-1),
            dict(n_sources=1.5, n_noises=1, n_mics=2),
            dict(n_sources=1, n_noises=1, n_mics=2, seed=1.5),
            dict(n_sources=1, n_noises=1, n_mics=2, sample_rate=8000.5),
            dict(n_sources=1, n_noises=1, n_mics=True),
            dict(n_sources=1, n_noises=1, n_mics=2, sinr_db=True),
            dict(n_sources=1, n_noises=1, n_mics=2, sinr_db="3"),
            dict(n_sources=1, n_noises=1, n_mics=2, rt60_ms=None),
            dict(n_sources=1, n_noises=1, n_mics=2, duration_s="3"),
            dict(n_sources=1, n_noises=1, n_mics=2, duration_s=np.bool_(True)),
        ],
    )
    def test_invalid_specs(self, kwargs):
        with pytest.raises(InvalidSpec):
            SceneSpec(**kwargs)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("sinr_db", np.nan),
            ("sinr_db", np.inf),
            ("sinr_db", -np.inf),
            ("rt60_ms", np.nan),
            ("rt60_ms", np.inf),
            ("duration_s", np.nan),
            ("duration_s", np.inf),
        ],
    )
    def test_non_finite_values_name_their_field(self, field, value):
        with pytest.raises(InvalidSpec, match=field):
            SceneSpec(n_sources=1, n_noises=1, n_mics=2, **{field: value})

    @pytest.mark.parametrize("duration_s", [1e-5, 6.25e-5])
    def test_fewer_than_two_samples_name_duration(self, duration_s):
        """0 and 1 samples at 16 kHz are refused; 2 samples render."""
        with pytest.raises(InvalidSpec, match="duration_s"):
            SceneSpec(n_sources=1, n_noises=1, n_mics=2, duration_s=duration_s)
        spec = SceneSpec(n_sources=1, n_noises=1, n_mics=2, duration_s=1.25e-4)
        assert np.all(np.isfinite(synthesize(spec).mixture))

    def test_numpy_integers_accepted(self, tmp_path):
        """Counts, rate and seed may be numpy integers, like RunConfig's;
        they are stored as ints, so the scene saves as JSON."""
        spec = SceneSpec(
            n_sources=np.int64(1), n_noises=np.int32(0), n_mics=np.uint8(2),
            sample_rate=np.int64(8000), duration_s=0.25, seed=np.int64(3),
        )
        assert all(type(v) is int for v in (spec.n_sources, spec.seed))
        save_scene(synthesize(spec), tmp_path / "scene")
        assert load_scene(tmp_path / "scene").spec == spec


class TestSynthRir:
    def test_length_rule(self):
        assert synth_rir(300, 16000, 2, 0).shape == (14400, 2)
        assert synth_rir(1, 16000, 3, 0).shape == (64, 3)

    def test_direct_path_tap(self):
        """Each channel has a unit tap within the first 10 ms and zeros
        before it."""
        h = synth_rir(300, 16000, 4, 7)
        for ch in range(4):
            ones = np.flatnonzero(h[:, ch] == 1.0)
            assert len(ones) >= 1
            d = ones[0]
            assert d < 160
            assert np.all(h[:d, ch] == 0.0)

    def test_tail_follows_exponential_envelope(self):
        """Dividing out the designed envelope leaves unit-variance noise,
        confirming the -60 dB point lands at rt60."""
        rt60, fs = 300, 16000
        h = synth_rir(rt60, fs, 2, 3)
        n60 = rt60 * fs / 1000.0
        n = np.arange(h.shape[0])
        env = 10.0 ** (-3.0 * n / n60)
        whitened = h[200:] / env[200:, None]
        assert 0.9 < whitened.std() < 1.1
        np.testing.assert_allclose(
            20 * np.log10(env[int(n60)]), -60.0, atol=1e-9
        )

    def test_seed_determinism(self):
        np.testing.assert_array_equal(
            synth_rir(100, 8000, 2, 42), synth_rir(100, 8000, 2, 42)
        )
        assert not np.array_equal(
            synth_rir(100, 8000, 2, 42), synth_rir(100, 8000, 2, 43)
        )

    def test_generator_advances(self):
        rng = np.random.default_rng(0)
        a = synth_rir(100, 8000, 2, rng)
        b = synth_rir(100, 8000, 2, rng)
        assert not np.array_equal(a, b)


class TestModulatedNoiseSources:
    def test_shape_and_unit_variance(self):
        rng = np.random.default_rng(0)
        out = modulated_noise_sources(3, 32000, 16000, rng)
        assert out.shape == (3, 32000)
        np.testing.assert_allclose(out.std(axis=1), 1.0, rtol=1e-12)

    def test_mostly_lowpass(self):
        rng = np.random.default_rng(1)
        out = modulated_noise_sources(2, 64000, 16000, rng)
        spec = np.abs(np.fft.rfft(out, axis=1)) ** 2
        freqs = np.fft.rfftfreq(64000, 1 / 16000)
        high = spec[:, freqs > 5000].sum(axis=1)
        assert np.all(high < 0.1 * spec.sum(axis=1))

    def test_amplitude_modulation_present(self):
        """Short-window RMS swings by at least a factor of two, so the
        sources are nonstationary on the frame scale."""
        rng = np.random.default_rng(2)
        out = modulated_noise_sources(1, 64000, 16000, rng)[0]
        frames = out.reshape(-1, 400)
        rms = np.sqrt((frames**2).mean(axis=1))
        assert rms.max() / rms.min() > 2.0


class TestSynthesize:
    def test_mixture_is_exact_image_sum(self):
        spec = SceneSpec(n_sources=2, n_noises=2, n_mics=3, duration_s=0.5)
        scene = synthesize(spec)
        total = scene.target_images.sum(axis=0) + scene.noise_images.sum(axis=0)
        np.testing.assert_array_equal(scene.mixture, total)

    @pytest.mark.parametrize("sinr", [-5.0, 0.0, 10.0])
    def test_sinr_calibration_exact(self, sinr):
        spec = SceneSpec(
            n_sources=1, n_noises=2, n_mics=4, sinr_db=sinr, duration_s=0.5
        )
        scene = synthesize(spec)
        np.testing.assert_allclose(measured_sinr(scene), sinr, atol=1e-9)

    def test_no_noise_case(self):
        spec = SceneSpec(n_sources=2, n_noises=0, n_mics=3, duration_s=0.25)
        scene = synthesize(spec)
        assert measured_sinr(scene) == np.inf
        np.testing.assert_array_equal(
            scene.mixture, scene.target_images.sum(axis=0)
        )

    def test_determinism_and_seed_sensitivity(self):
        spec = SceneSpec(n_sources=1, n_noises=1, n_mics=2, duration_s=0.25)
        a = synthesize(spec)
        b = synthesize(spec)
        np.testing.assert_array_equal(a.mixture, b.mixture)
        other = synthesize(
            SceneSpec(n_sources=1, n_noises=1, n_mics=2, duration_s=0.25, seed=1)
        )
        assert not np.array_equal(a.mixture, other.mixture)

    def test_shapes(self):
        spec = SceneSpec(n_sources=2, n_noises=3, n_mics=4, duration_s=0.25)
        scene = synthesize(spec)
        n = spec.n_samples
        assert scene.mixture.shape == (n, 4)
        assert scene.target_images.shape == (2, n, 4)
        assert scene.noise_images.shape == (3, n, 4)
        assert scene.sources.shape == (2, n)

    def test_custom_sources(self):
        spec = SceneSpec(n_sources=1, n_noises=0, n_mics=2, duration_s=0.25)
        src = np.zeros((1, spec.n_samples))
        src[0, 100] = 1.0
        scene = synthesize(spec, sources=src)
        # An impulse through the RIR reproduces the RIR at a lag
        # (up to FFT-convolution roundoff).
        assert np.abs(scene.target_images[0][:100]).max() < 1e-12
        assert np.abs(scene.target_images[0]).max() > 0.5

    def test_source_model_rate_is_checked_before_any_draw(self, monkeypatch):
        """Below MIN_MODEL_RATE the built-in sources are refused, naming
        sample_rate, before anything is drawn; given sources render at
        any rate."""
        spec = SceneSpec(
            n_sources=1, n_noises=1, n_mics=2, sample_rate=MIN_MODEL_RATE - 1,
            duration_s=0.1,
        )

        def no_draw(*args, **kwargs):
            raise AssertionError("sources drawn")

        with monkeypatch.context() as patch:
            patch.setattr(simulate, "modulated_noise_sources", no_draw)
            with pytest.raises(InvalidSpec, match="sample_rate"):
                synthesize(spec)
        src = np.random.default_rng(0).standard_normal((1, spec.n_samples))
        assert np.all(np.isfinite(synthesize(spec, sources=src).mixture))
        at_floor = SceneSpec(
            n_sources=1, n_noises=1, n_mics=2, sample_rate=MIN_MODEL_RATE,
            duration_s=0.1, seed=1,
        )
        assert np.all(np.isfinite(synthesize(at_floor).mixture))

    def test_custom_sources_shape_checked(self):
        spec = SceneSpec(n_sources=1, n_noises=0, n_mics=2, duration_s=0.25)
        with pytest.raises(InvalidSpec):
            synthesize(spec, sources=np.zeros((2, 10)))


def orthogonal_pair(n=4000):
    t = np.arange(n)
    ref = np.sin(2 * np.pi * 8 * t / n)
    orth = np.cos(2 * np.pi * 8 * t / n)
    return ref, orth


class TestSdr:
    def test_perfect_copy_hits_cap(self):
        ref, _ = orthogonal_pair()
        assert sdr(ref, ref) == SDR_CAP_DB
        assert sdr(ref, 0.5 * ref) == SDR_CAP_DB

    def test_known_noise_power_closed_form(self):
        """Orthogonal noise at one tenth the reference power scores
        exactly 10 dB."""
        ref, orth = orthogonal_pair()
        noise = orth * np.sqrt(np.dot(ref, ref) / (10 * np.dot(orth, orth)))
        np.testing.assert_allclose(sdr(ref, ref + noise), 10.0, atol=1e-9)

    def test_gain_invariance(self):
        rng = np.random.default_rng(0)
        ref, orth = orthogonal_pair()
        est = ref + 0.3 * orth + 0.1 * rng.standard_normal(ref.size)
        base = sdr(ref, est)
        for c in (0.01, -2.0, 1e4):
            np.testing.assert_allclose(sdr(ref, c * est), base, rtol=1e-10)

    def test_strictly_decreasing_in_noise(self):
        ref, orth = orthogonal_pair()
        scores = [sdr(ref, ref + a * orth) for a in (0.01, 0.1, 0.5, 1.0, 4.0)]
        assert all(x > y for x, y in zip(scores, scores[1:]))

    def test_orthogonal_estimate_is_minus_inf(self):
        ref = np.array([1.0, 0.0, 1.0, 0.0])
        est = np.array([0.0, 1.0, 0.0, -1.0])
        assert sdr(ref, est) == -np.inf

    def test_zero_reference_raises(self):
        with pytest.raises(ZeroReference):
            sdr(np.zeros(10), np.ones(10))

    def test_shape_mismatch_raises(self):
        with pytest.raises(ShapeMismatch):
            sdr(np.ones(10), np.ones(11))

    def test_multichannel_flattening(self):
        rng = np.random.default_rng(1)
        ref = rng.standard_normal((100, 3))
        est = ref + 0.1 * rng.standard_normal((100, 3))
        np.testing.assert_allclose(
            sdr(ref, est), sdr(ref.ravel(), est.ravel()), rtol=1e-12
        )


class TestSdrSet:
    def test_recovers_permutation(self):
        rng = np.random.default_rng(2)
        refs = rng.standard_normal((3, 500))
        ests = refs[[2, 0, 1]]
        result = sdr_set(refs, ests)
        assert result.permutation == (1, 2, 0)
        np.testing.assert_array_equal(result.per_source, [SDR_CAP_DB] * 3)
        assert result.mean == SDR_CAP_DB

    def test_tie_is_lexicographic(self):
        refs = np.tile(np.sin(np.linspace(0, 20, 300)), (3, 1))
        result = sdr_set(refs, refs)
        assert result.permutation == (0, 1, 2)

    def test_mean_matches_per_source(self):
        rng = np.random.default_rng(3)
        refs = rng.standard_normal((2, 400))
        ests = refs + 0.2 * rng.standard_normal((2, 400))
        result = sdr_set(refs, ests)
        np.testing.assert_allclose(result.mean, np.mean(result.per_source))

    def test_too_many_sources(self):
        refs = np.ones((7, 10))
        with pytest.raises(TooManySources):
            sdr_set(refs, refs)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            sdr_set(np.ones((2, 10)), np.ones((2, 11)))


class TestRtf:
    def test_basic_ratio(self):
        assert rtf(2.6, 10.0) == 0.26
        assert rtf(0.0, 4.0) == 0.0

    def test_zero_duration_rejected(self):
        with pytest.raises(ValueError):
            rtf(1.0, 0.0)


class TestSceneFiles:
    def test_round_trip(self, tmp_path):
        spec = SceneSpec(
            n_sources=2, n_noises=1, n_mics=3, sinr_db=5.0, duration_s=0.25, seed=9
        )
        scene = synthesize(spec)
        save_scene(scene, tmp_path / "scene")
        loaded = load_scene(tmp_path / "scene")
        assert loaded.spec == spec
        np.testing.assert_allclose(loaded.mixture, scene.mixture, atol=1e-6)
        np.testing.assert_allclose(
            loaded.target_images, scene.target_images, atol=1e-6
        )

    def test_loaded_scene_keeps_additivity(self, tmp_path):
        """The recovered noise residual restores the exact image sum."""
        spec = SceneSpec(n_sources=1, n_noises=2, n_mics=2, duration_s=0.25)
        save_scene(synthesize(spec), tmp_path / "scene")
        loaded = load_scene(tmp_path / "scene")
        total = loaded.target_images.sum(axis=0) + loaded.noise_images.sum(axis=0)
        np.testing.assert_array_equal(loaded.mixture, total)

    def test_spec_json_contents(self, tmp_path):
        spec = SceneSpec(n_sources=1, n_noises=1, n_mics=2, duration_s=0.25)
        save_scene(synthesize(spec), tmp_path / "scene")
        payload = json.loads((tmp_path / "scene" / "spec.json").read_text())
        assert payload["prng"] == PRNG_NAME
        assert payload["n_sources"] == 1 and payload["n_mics"] == 2
        assert sorted(p.name for p in (tmp_path / "scene").iterdir()) == [
            "mixture.wav",
            "spec.json",
            "target_1.wav",
        ]

    def test_bad_spec_json_rejected(self, tmp_path):
        spec = SceneSpec(n_sources=1, n_noises=0, n_mics=2, duration_s=0.25)
        save_scene(synthesize(spec), tmp_path / "scene")
        path = tmp_path / "scene" / "spec.json"
        payload = json.loads(path.read_text())
        payload["unexpected_field"] = 1
        path.write_text(json.dumps(payload))
        with pytest.raises(InvalidSpec):
            load_scene(tmp_path / "scene")

    def test_fractional_seed_in_spec_json_rejected(self, tmp_path):
        spec = SceneSpec(n_sources=1, n_noises=0, n_mics=2, duration_s=0.25)
        save_scene(synthesize(spec), tmp_path / "scene")
        path = tmp_path / "scene" / "spec.json"
        payload = json.loads(path.read_text())
        payload["seed"] = 1.5
        path.write_text(json.dumps(payload))
        with pytest.raises(InvalidSpec, match="seed must be an integer"):
            load_scene(tmp_path / "scene")
