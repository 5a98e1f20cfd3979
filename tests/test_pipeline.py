"""File-level workflow tests: buffer separation, descent verification,
and the separate_file report contract."""

import json
import os
import subprocess
import sys
import textwrap
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from overiva import pipeline

from overiva.errors import NoConvergence
from overiva.io import AudioBuffer, read_wav, write_wav
from overiva.optimizer import RunConfig
from overiva.pipeline import separate_buffer, separate_file, verify_monotone_trace
from overiva.simulate import SceneSpec, sdr, synthesize
from overiva.stft import SCRATCH_BYTES, StftConfig, istft, n_frames_for, stft

STFT = StftConfig(1024, 256)
SRC = Path(__file__).resolve().parents[1] / "src"


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

    @pytest.mark.parametrize(
        "trace,iteration",
        [([1.0, np.nan, 0.5], 1), ([np.nan, 1.0], 0), ([np.nan], 0), ([1.0, np.inf], 1)],
    )
    def test_rejects_non_finite_and_names_iteration(self, trace, iteration):
        with pytest.raises(NoConvergence, match=f"iteration {iteration}:"):
            verify_monotone_trace(trace)


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

    def test_verify_monotone_failure_writes_no_image(
        self, scene, tmp_path, monkeypatch
    ):
        """The trace is checked before the first image is synthesized and
        written."""
        real_run = pipeline.run

        def rising_run(*args, **kwargs):
            result = real_run(*args, **kwargs)
            result.cost_trace = np.array([1.0, 2.0, 3.0])
            return result

        monkeypatch.setattr(pipeline, "run", rising_run)
        wav = tmp_path / "mix.wav"
        write_wav(wav, AudioBuffer(16000, scene.mixture))
        out = tmp_path / "out"
        with pytest.raises(NoConvergence, match="iteration 1"):
            separate_file(
                wav, 1, RunConfig(method="ip2"), STFT, out_dir=out,
                verify_monotone=True,
            )
        assert not out.exists() or list(out.iterdir()) == []

    def test_peak_is_spectrogram_and_output_spectra(self, tmp_path, traced_peak):
        """On a long K = 2 input (T >> M), separating a file allocates at
        its peak less than the spectrogram S plus the K output spectra
        (K S / M) plus a tenth of S for the per-bin arrays and block
        scratch: 1.52 S here. Holding the samples through run(), the
        (F, T, K) demixed targets and a per-target (F, T) transient read
        2.01 S."""
        cfg = StftConfig(256, 64)
        n, m, k = 96000, 4, 2
        wav = tmp_path / "mix.wav"
        rng = np.random.default_rng(6)
        write_wav(wav, AudioBuffer(16000, 0.1 * rng.standard_normal((n, m))))
        spec_bytes = cfg.n_bins * n_frames_for(n, cfg) * m * 16
        _, peak = traced_peak(
            separate_file, wav, k, RunConfig(method="ip1", iterations=2), cfg,
            out_dir=tmp_path / "out",
        )
        assert peak < (1 + k / m + 0.1) * spec_bytes

    def test_stft_stage_holds_float32_samples_and_the_spectrogram(
        self, tmp_path, monkeypatch, traced_peak
    ):
        """While stft runs, separate_file holds at most the spectrogram,
        the float32 samples read_wav returns and 2 SCRATCH_BYTES of block
        scratch: stft widens the samples a block at a time. Float64
        samples alone would take twice the float32 ones, 3.1 MB here,
        more than the scratch allowance."""
        cfg = StftConfig(1024, 256)
        n, m = 96000, 8
        wav = tmp_path / "mix.wav"
        rng = np.random.default_rng(7)
        write_wav(wav, AudioBuffer(16000, 0.1 * rng.standard_normal((n, m))))
        stage = []

        def traced_stft(*args, **kwargs):
            tracemalloc.reset_peak()
            spec = stft(*args, **kwargs)
            stage.append(tracemalloc.get_traced_memory()[1])
            return spec

        monkeypatch.setattr(pipeline, "stft", traced_stft)
        traced_peak(
            separate_file, wav, 1, RunConfig(method="ip2", iterations=1), cfg,
            out_dir=tmp_path / "out",
        )
        spec_bytes = cfg.n_bins * n_frames_for(n, cfg) * m * 16
        assert stage[0] <= spec_bytes + n * m * 4 + 2 * SCRATCH_BYTES

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

    def test_numpy_integer_target_count(self, scene, tmp_path):
        """A numpy integer K runs and is reported as a JSON int; the
        report's rtf is the solver's wall time over the duration."""
        wav = tmp_path / "mix.wav"
        write_wav(wav, AudioBuffer(16000, scene.mixture))
        report = separate_file(
            wav, np.int64(1), RunConfig(method="ip2"), STFT,
            out_dir=tmp_path / "out", json_path=tmp_path / "report.json",
        )
        assert json.loads((tmp_path / "report.json").read_text())["sources"] == 1
        assert report["rtf"] == report["wall_time_s"] / report["duration_s"]


def test_separation_imports_no_scipy(tmp_path):
    """In a fresh interpreter, importing the package and its CLI and
    separating a file loads no scipy; scene synthesis still imports it
    where it is needed."""
    script = textwrap.dedent(
        """
        import sys
        import numpy as np
        import overiva, overiva.cli
        from overiva.io import AudioBuffer, write_wav
        from overiva.optimizer import RunConfig
        from overiva.pipeline import separate_file
        from overiva.simulate import SceneSpec, synthesize
        from overiva.stft import StftConfig

        noise = 0.1 * np.random.default_rng(0).standard_normal((16000, 4))
        write_wav("mix.wav", AudioBuffer(16000, noise))
        separate_file(
            "mix.wav", 1, RunConfig(iterations=2), StftConfig(512), out_dir="out"
        )
        assert "scipy" not in sys.modules, sorted(
            m for m in sys.modules if m.startswith("scipy")
        )[:5]
        synthesize(SceneSpec(1, 1, 2, duration_s=0.5, sample_rate=8000))
        assert "scipy.signal" in sys.modules
        """
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
