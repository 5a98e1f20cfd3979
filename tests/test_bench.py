"""run_benchmark on SceneSpecs: row fields and the per-trial seed rule."""

from dataclasses import replace

import numpy as np
import pytest

from overiva import bench as bench_module
from overiva.bench import run_benchmark
from overiva.errors import InvalidSpec
from overiva.simulate import SceneSpec, sdr_set, synthesize
from overiva.stft import StftConfig

SPECS = [
    SceneSpec(n_sources=1, n_noises=1, n_mics=2, sinr_db=0.0, rt60_ms=80.0,
              sample_rate=8000, duration_s=0.6, seed=3),
    SceneSpec(n_sources=1, n_noises=2, n_mics=3, sinr_db=-2.5, rt60_ms=80.0,
              sample_rate=8000, duration_s=0.6, seed=11),
]


def bench(specs, trials):
    return run_benchmark(
        specs,
        methods=("ip2", "mixture"),
        trials=trials,
        stft_config=StftConfig(512, 128),
        iterations=2,
    )


def test_rows_carry_their_specs_counts_and_sinr():
    rows = bench(SPECS, trials=1)
    assert [(r["K"], r["L"], r["M"], r["sinr"], r["method"]) for r in rows] == [
        (1, 1, 2, 0.0, "ip2"),
        (1, 1, 2, 0.0, "mixture"),
        (1, 2, 3, -2.5, "ip2"),
        (1, 2, 3, -2.5, "mixture"),
    ]
    assert all(r["trials"] == 1 for r in rows)


@pytest.mark.parametrize("spec", SPECS)
def test_trial_t_renders_the_spec_at_seed_plus_t(spec):
    """The mean of two trials at seed s is the mean of the single-trial
    rows at seeds s and s + 1."""
    (ip2, mix) = bench([spec], trials=2)
    singles = [
        bench([replace(spec, seed=spec.seed + t)], trials=1)
        for t in (0, 1)
    ]
    for i, row in enumerate((ip2, mix)):
        expected = (singles[0][i]["mean_sdr"] + singles[1][i]["mean_sdr"]) / 2
        assert row["mean_sdr"] == pytest.approx(expected, rel=1e-12, abs=1e-12)
    assert ip2["mean_sdr"] != singles[0][0]["mean_sdr"]


@pytest.mark.parametrize("trials", [0, -1, True, 1.0, "2"])
def test_bad_trials_raise_before_any_scene(monkeypatch, trials):
    """trials follows RunConfig's rule for counts, an integer >= 1 and not
    a bool, checked before any scene is rendered: 0 would write NaN means
    and True a trial count of True."""

    def no_scene(*args, **kwargs):
        raise AssertionError("scene rendered")

    monkeypatch.setattr(bench_module, "synthesize", no_scene)
    with pytest.raises(InvalidSpec, match="trials must be an integer"):
        bench(SPECS, trials)


def test_rows_score_what_separate_buffer_returns(monkeypatch):
    """Each trial's mixture goes through pipeline.separate_buffer, the
    path `overiva separate` runs, once per method, and the row's mean SDR
    is that of the images it returned."""
    returned = []
    real = bench_module.separate_buffer

    def spy(buffer, *args):
        images, result = real(buffer, *args)
        returned.append((buffer, images))
        return images, result

    monkeypatch.setattr(bench_module, "separate_buffer", spy)
    (row, _) = bench(SPECS[:1], trials=2)
    assert len(returned) == 2
    scores = []
    for t, (buffer, images) in enumerate(returned):
        scene = synthesize(replace(SPECS[0], seed=SPECS[0].seed + t))
        np.testing.assert_array_equal(buffer.samples, scene.mixture)
        ests = np.stack([image.samples for image in images])
        scores.append(sdr_set(scene.target_images, ests).mean)
    assert row["mean_sdr"] == np.mean(scores)


def test_auxiva_scores_as_ip1_at_fewer_targets_than_mics():
    """At K < M, auxiva's targets are its leading K rows and its iterates
    are ip1's up to rounding, so the two rows score alike. On this scene
    a ranking of auxiva's outputs by image power put a background output
    first, and auxiva read -9.78 dB against ip1's +1.76 dB."""
    spec = SceneSpec(1, 2, 3, 0.0, 80.0, 8000, 1.0, 3)
    aux, ip1 = run_benchmark(
        [spec],
        methods=("auxiva", "ip1"),
        trials=2,
        stft_config=StftConfig(512, 128),
        iterations=4,
    )
    assert aux["mean_sdr"] == pytest.approx(ip1["mean_sdr"], abs=1e-6)
