"""File-level workflow tests: buffer separation, descent verification,
and the separate_file report contract."""

import json
import weakref

import numpy as np
import pytest

from overiva import pipeline

from overiva.errors import NoConvergence
from overiva.io import AudioBuffer, read_wav, write_wav
from overiva.optimizer import RunConfig
from overiva.pipeline import separate_buffer, separate_file, verify_monotone_trace
from overiva.simulate import SceneSpec, sdr, synthesize
from overiva.stft import StftConfig, istft, n_frames_for

STFT = StftConfig(1024, 256)


@pytest.fixture(scope="module")
def scene():
    return synthesize(
        SceneSpec(n_sources=1, n_noises=2, n_mics=3, rt60_ms=100.0, duration_s=3.0, seed=5)
    )


class TestSeparateBuffer:
    def test_shapes_and_length(self, scene):
        buf = AudioBuffer(16000, scene.mixture)
        images, result = separate_buffer(
            buf, 1, RunConfig(method="ip2"), STFT
        )
        assert len(images) == 1
        assert images[0].samples.shape == scene.mixture.shape
        assert images[0].sample_rate == 16000
        assert len(result.cost_trace) == 3

    def test_improves_over_mixture(self, scene):
        buf = AudioBuffer(16000, scene.mixture)
        images, _ = separate_buffer(buf, 1, RunConfig(method="ip2"), STFT)
        ref = scene.target_images[0]
        assert sdr(ref, images[0].samples) > sdr(ref, scene.mixture) + 3.0

    def test_deterministic(self, scene):
        buf = AudioBuffer(16000, scene.mixture)
        a, _ = separate_buffer(buf, 1, RunConfig(method="ip2"), STFT)
        b, _ = separate_buffer(buf, 1, RunConfig(method="ip2"), STFT)
        np.testing.assert_array_equal(a[0].samples, b[0].samples)

    def test_spectrogram_released_before_synthesis(self, scene, monkeypatch):
        """Synthesis does not hold the spectrogram next to the images:
        nothing refers to it once run() has returned."""
        refs = []
        alive = []
        real_stft, real_istft = pipeline.stft, pipeline.istft

        def stft_spy(*args, **kwargs):
            spec = real_stft(*args, **kwargs)
            refs.append(weakref.ref(spec))
            return spec

        def istft_spy(*args, **kwargs):
            alive.append(refs[0]() is not None)
            return real_istft(*args, **kwargs)

        monkeypatch.setattr(pipeline, "stft", stft_spy)
        monkeypatch.setattr(pipeline, "istft", istft_spy)
        buf = AudioBuffer(16000, scene.mixture)
        separate_buffer(buf, 1, RunConfig(method="ip2"), STFT)
        assert len(refs) == 1 and alive == [False]

    def test_synthesized_from_the_factors_as_from_the_images(self, scene):
        """Each written image has the bits istft gives for the dense image
        run() used to return."""
        buf = AudioBuffer(16000, scene.mixture)
        images, result = separate_buffer(
            buf, 2, RunConfig(method="ip1", iterations=3), STFT
        )
        for image, dense in zip(images, result.images):
            np.testing.assert_array_equal(
                image.samples, istft(dense, STFT, length=buf.n_samples)
            )

    def test_peak_holds_no_image_stack(self, traced_peak):
        """With K = 2 and T >> M, separating a buffer allocates less than
        the spectrogram plus half an image at its peak: no (K, F, T, M)
        image stack is made, and the spectrogram is not held next to the
        synthesis."""
        cfg = StftConfig(256, 64)
        n, m = 64000, 8
        rng = np.random.default_rng(6)
        buf = AudioBuffer(16000, rng.standard_normal((n, m)))
        spec_bytes = cfg.n_bins * n_frames_for(n, cfg) * m * 16
        _, peak = traced_peak(
            separate_buffer, buf, 2, RunConfig(method="ip1", iterations=2), cfg
        )
        assert peak < 1.5 * spec_bytes


class TestVerifyMonotoneTrace:
    def test_accepts_descent(self):
        verify_monotone_trace([10.0, 5.0, 2.0, 1.999999999])

    def test_accepts_tiny_relative_increase(self):
        verify_monotone_trace([100.0, 50.0, 50.0 + 1e-9])

    def test_rejects_increase_and_names_iteration(self):
        with pytest.raises(NoConvergence, match="iteration 2"):
            verify_monotone_trace([10.0, 5.0, 6.0, 4.0])


class TestSeparateFile:
    def test_report_and_outputs(self, scene, tmp_path):
        wav = tmp_path / "mix.wav"
        write_wav(wav, AudioBuffer(16000, scene.mixture))
        report = separate_file(
            wav,
            1,
            RunConfig(method="ip2"),
            STFT,
            out_dir=tmp_path / "out",
            json_path=tmp_path / "report.json",
        )
        assert report["outputs"] == ["source_1.wav"]
        assert report["method"] == "ip2"
        assert report["sources"] == 1
        assert report["sample_rate"] == 16000
        assert report["rtf"] > 0
        assert len(report["cost_trace"]) == report["iterations"]
        assert report["config"]["frame_len"] == 1024
        assert report["config"]["hop"] == 256
        on_disk = json.loads((tmp_path / "report.json").read_text())
        assert on_disk == json.loads(json.dumps(report))
        out = read_wav(tmp_path / "out" / "source_1.wav")
        assert out.samples.shape == scene.mixture.shape

    def test_verify_monotone_passes_on_full_mode(self, scene, tmp_path):
        wav = tmp_path / "mix.wav"
        write_wav(wav, AudioBuffer(16000, scene.mixture))
        report = separate_file(
            wav,
            1,
            RunConfig(method="ip1", iterations=12),
            STFT,
            out_dir=tmp_path / "out",
            verify_monotone=True,
        )
        assert report["verify_monotone"] is True
