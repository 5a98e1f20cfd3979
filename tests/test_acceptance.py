"""Acceptance gate: one test per advertised guarantee.

Each test pins a single end-to-end guarantee at a frozen tolerance, so a
verbose run prints one pass or fail line per guarantee. Shared heavy
runs live in module fixtures; every assertion message carries the
measured value so a failure is diagnosable from the log alone.
"""

import json
import os
import time

import numpy as np
import pytest
import scipy.linalg

from overiva import linalg, optimizer
from overiva.cli import EXIT_OK, main
from overiva.io import AudioBuffer
from overiva.linalg import hermitian_transpose
from overiva.model import DemixingStack, cost_total, stationarity_residual
from overiva.optimizer import (
    RunConfig,
    ip2_update,
    run,
    update_wz_fast,
    update_wz_full,
)
from overiva.pipeline import separate_buffer
from overiva.simulate import SceneSpec, rtf, sdr, synthesize
from overiva.stft import Spectrogram, StftConfig, istft, stft

from oracles import (
    cost_jw,
    gradient_jw_row,
    ip1_full_sweep,
    windowed_frames,
    with_full_background,
)


def random_complex(rng, shape, scale=1.0):
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def random_hpd(rng, m, ridge=0.1):
    a = random_complex(rng, (m, m))
    return a @ a.conj().T / m + ridge * np.eye(m)


def random_hpd_batch(rng, n, m, ridge=0.1):
    a = random_complex(rng, (n, m, m))
    return a @ hermitian_transpose(a) / m + ridge * np.eye(m)


def random_hermitian(rng, m):
    a = random_complex(rng, (m, m))
    return 0.5 * (a + a.conj().T)


def span_projector(cols):
    q, _ = np.linalg.qr(cols)
    return q @ q.conj().T


class OcProbe:
    """Stands in for update_wz_fast and records the worst cross-correlation
    between the target filters it is given and the background block it
    returns, over every bin and every refresh."""

    def __init__(self, update):
        self.update = update
        self.worst = 0.0
        self.calls = 0

    def __call__(self, w_targets, noise_cov):
        wz = self.update(w_targets, noise_cov)
        cross = hermitian_transpose(w_targets) @ noise_cov @ wz
        self.worst = max(self.worst, float(np.abs(cross).max()))
        self.calls += 1
        return wz


@pytest.fixture(scope="module")
def two_target_mix():
    spec = SceneSpec(
        n_sources=2, n_noises=2, n_mics=4, rt60_ms=150.0, duration_s=5.0, seed=11
    )
    data = stft(synthesize(spec).mixture, StftConfig(1024, 256)).data
    # The updates are equivariant under per-bin input rescaling, and the
    # constraint identity is measured in the data's units; unit average
    # power per bin makes the absolute tolerance read the update's own
    # roundoff rather than the scene's amplitude.
    power = np.mean(np.abs(data) ** 2, axis=(1, 2), keepdims=True)
    scale = np.sqrt(np.maximum(power, 1e-12 * power.max()))
    return Spectrogram(data / scale)


@pytest.fixture(scope="module")
def oc_worst(two_target_mix):
    """Worst orthogonality defect per method across a full K=2 run."""
    out = {}
    for method in ("ip1", "ip3"):
        probe = OcProbe(optimizer.update_wz_fast)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(optimizer, "update_wz_fast", probe)
            run(two_target_mix, 2, RunConfig(method=method, iterations=50))
        assert probe.calls > 0
        out[method] = probe.worst
    return out


@pytest.mark.slow
def test_criterion_01_cost_monotone_on_synthetic_scenes():
    cfg = StftConfig(4096, 1024)
    shapes = [(1, 3), (2, 3), (1, 4), (2, 4)]
    t0 = time.perf_counter()
    worst = -np.inf
    for seed in range(10):
        k, m = shapes[seed % 4]
        spec = SceneSpec(n_sources=k, n_noises=2, n_mics=m, seed=seed)
        x = stft(synthesize(spec).mixture, cfg)
        res = run(x, k, RunConfig(method="ip1", iterations=50))
        trace = np.asarray(res.cost_trace)
        rel = np.diff(trace) / np.abs(trace[:-1])
        worst = max(worst, float(rel.max()))
        assert rel.max() <= 1e-8, (
            f"seed {seed}: relative cost increase {rel.max():.3e}"
        )
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"10 scenes took {elapsed:.1f}s (budget 120s)"


def test_criterion_02_stationarity_after_fifty_sweeps():
    rng = np.random.default_rng(42)
    residuals = []
    for m, k in ((3, 1), (3, 2), (4, 1), (4, 2)):
        covs = np.stack([random_hpd_batch(rng, 250, m) for _ in range(k)])
        gz = random_hpd_batch(rng, 250, m)
        w = np.broadcast_to(np.eye(m, dtype=complex), (250, m, m)).copy()
        for _ in range(50):
            w = ip1_full_sweep(w, covs, gz)
        residuals.append(stationarity_residual(w, covs, gz).combined)
    res = np.concatenate(residuals)
    frac = float(np.mean(res <= 1e-6))
    assert frac >= 0.95, (
        f"only {frac:.1%} of 1000 bins reached 1e-6 "
        f"(median {np.median(res):.2e}, max {res.max():.2e})"
    )


def test_criterion_03_orthogonality_after_every_fast_update(oc_worst):
    for method in ("ip1", "ip3"):
        assert oc_worst[method] <= 1e-10, (
            f"{method}: worst cross-correlation {oc_worst[method]:.3e}"
        )


def test_criterion_04_fast_and_full_background_share_subspace():
    rng = np.random.default_rng(4)
    worst = 0.0
    for i in range(100):
        m = 2 + i % 5
        k = int(rng.integers(1, m))
        ws = random_complex(rng, (m, k)) + np.eye(m, dtype=complex)[:, :k]
        gz = random_hpd(rng, m)
        stack = np.concatenate([ws, np.eye(m, dtype=complex)[:, k:]], axis=1)
        p_fast = span_projector(update_wz_fast(ws, gz))
        p_full = span_projector(update_wz_full(stack, gz, k))
        worst = max(worst, float(np.abs(p_fast - p_full).max()))
    assert worst <= 1e-8, f"worst projector distance {worst:.3e}"


def test_criterion_05_ip3_reduces_to_the_single_target_schedule(oc_worst):
    spec = SceneSpec(
        n_sources=1, n_noises=3, n_mics=4, rt60_ms=150.0, duration_s=4.0, seed=12
    )
    x = stft(synthesize(spec).mixture, StftConfig(1024, 256))
    w1 = run(x, 1, RunConfig(method="ip1", iterations=50)).demixing.matrices
    w3 = run(x, 1, RunConfig(method="ip3", iterations=50)).demixing.matrices
    diff = float(np.abs(w1 - w3).max())
    assert diff <= 1e-12, f"K=1 filter mismatch {diff:.3e}"
    assert oc_worst["ip3"] <= 1e-10, (
        f"K=2 inner-step cross-correlation {oc_worst['ip3']:.3e}"
    )


def test_criterion_06_ip2_is_the_per_bin_global_optimum():
    rng = np.random.default_rng(6)
    worst_gap = -np.inf
    worst_det = 0.0
    for i in range(100):
        m = 2 + i % 3
        g1 = random_hpd(rng, m)
        gz = random_hpd(rng, m)
        covs = g1[None]
        w = np.eye(m, dtype=complex)
        for _ in range(100):
            w = ip1_full_sweep(w, covs, gz)
        u1 = ip2_update(g1, gz)
        w2 = with_full_background(u1, gz)
        worst_gap = max(worst_gap, cost_jw(w2, covs, gz) - cost_jw(w, covs, gz))
        lam, _ = linalg.gev_largest(gz, g1)
        det_err = abs(
            linalg.logabsdet(w2)
            - (0.5 * np.log(lam) - 0.5 * np.linalg.slogdet(gz)[1])
        )
        worst_det = max(worst_det, float(det_err))
    assert worst_gap <= 1e-8, f"worst surrogate gap {worst_gap:.3e}"
    assert worst_det <= 1e-8, f"worst log-determinant mismatch {worst_det:.3e}"


def test_criterion_07_largest_eigenpair_matches_full_solver():
    rng = np.random.default_rng(7)
    worst_val = 0.0
    worst_res = 0.0
    for i in range(1000):
        m = 2 + i % 7
        a = random_hermitian(rng, m)
        b = random_hpd(rng, m)
        lam, u = linalg.gev_largest(a, b)
        top = scipy.linalg.eigh(a, b, eigvals_only=True)[-1]
        worst_val = max(worst_val, abs(lam - top) / max(1.0, abs(top)))
        worst_res = max(worst_res, float(np.linalg.norm(a @ u - lam * (b @ u))))
    assert worst_val <= 1e-8, f"worst eigenvalue error {worst_val:.3e}"
    assert worst_res <= 1e-8, f"worst eigenpair residual {worst_res:.3e}"


def test_criterion_08_gradient_matches_finite_differences():
    rng = np.random.default_rng(8)
    h = 1e-6
    worst = 0.0
    for i in range(20):
        m = 2 + i % 4
        k = int(rng.integers(1, m))
        w = random_complex(rng, (m, m)) + 2 * np.eye(m)
        covs = np.stack([random_hpd(rng, m) for _ in range(k)])
        gz = random_hpd(rng, m)
        row = int(rng.integers(0, k))
        g = gradient_jw_row(w, covs, gz, row)
        fd = np.zeros(m, complex)
        for j in range(m):
            for part, step in ((1.0, h), (1j, 1j * h)):
                wp, wm = w.copy(), w.copy()
                wp[j, row] += step
                wm[j, row] -= step
                fd[j] += part * (
                    cost_jw(wp, covs, gz) - cost_jw(wm, covs, gz)
                ) / (2 * h)
        analytic = 2 * np.real(g) + 2j * np.imag(g)
        rel = np.linalg.norm(fd - analytic) / np.linalg.norm(fd)
        worst = max(worst, float(rel))
    assert worst <= 1e-5, f"worst relative gradient error {worst:.3e}"


@pytest.mark.slow
def test_criterion_09_separation_quality_trend():
    cfg = StftConfig(4096, 1024)
    methods = {"ip1": 50, "ip2": 3, "ip3": 50}
    gains = {name: [] for name in methods}
    for trial in range(10):
        spec = SceneSpec(
            n_sources=1, n_noises=2, n_mics=4, sinr_db=0.0, seed=100 + trial
        )
        scene = synthesize(spec)
        ref = scene.target_images[0]
        mix = AudioBuffer(spec.sample_rate, scene.mixture)
        base = sdr(ref, scene.mixture)
        for name, iters in methods.items():
            images, _ = separate_buffer(
                mix, 1, RunConfig(method=name, iterations=iters), cfg
            )
            gains[name].append(sdr(ref, images[0].samples) - base)
    means = {name: float(np.mean(v)) for name, v in gains.items()}
    for name, mean in means.items():
        assert mean >= 5.0, f"{name}: mean improvement {mean:.2f} dB (need 5)"
    assert max(means.values()) - means["ip2"] <= 2.0, f"means: {means}"


@pytest.mark.slow
def test_criterion_10_runtime_ordering_trend():
    cfg = StftConfig(4096, 1024)
    spec = SceneSpec(n_sources=1, n_noises=6, n_mics=7, sinr_db=0.0, seed=7)
    x = stft(synthesize(spec).mixture, cfg)
    # ip1 and ip3 run the same updates when K = 1, so they are compared
    # at K = 2, where ip3 refreshes the background after each of the K
    # targets and ip1 once per sweep.
    spec2 = SceneSpec(n_sources=2, n_noises=5, n_mics=7, sinr_db=0.0, seed=7)
    x2 = stft(synthesize(spec2).mixture, cfg)
    plans = (
        ("ip2", "ip2", 3, x, 1),
        ("ip1", "ip1", 50, x, 1),
        ("ip3", "ip3", 50, x, 1),
        ("auxiva", "auxiva", 50, x, 1),
        ("ip1 K=2", "ip1", 20, x2, 2),
        ("ip3 K=2", "ip3", 20, x2, 2),
    )
    best = {name: np.inf for name, *_ in plans}
    pinnable = hasattr(os, "sched_getaffinity")
    if pinnable:
        allowed = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(allowed)})
    try:
        for rep in range(4):
            order = plans if rep % 2 == 0 else plans[::-1]
            for name, method, iters, data, k in order:
                res = run(
                    data, k, RunConfig(method=method, iterations=iters, threads=1)
                )
                best[name] = min(best[name], rtf(res.wall_time, spec.duration_s))
    finally:
        if pinnable:
            os.sched_setaffinity(0, allowed)
    msg = "  ".join(f"{name} {val:.4f}" for name, val in best.items())
    assert best["ip2"] < best["ip1"], msg
    # ip1/ip3 read 0.91 pinned to one core of a 2-core Xeon; the margin
    # allows 10% scheduler jitter.
    assert best["ip1 K=2"] <= 1.10 * best["ip3 K=2"], msg
    assert best["ip3"] < best["auxiva"], msg
    assert best["ip2"] < 0.2 * best["ip1"], msg


def test_criterion_11_stft_round_trip_and_parseval():
    rng = np.random.default_rng(31)
    cfg = StftConfig(4096, 1024)
    x = rng.standard_normal(160000)
    y = istft(stft(x, cfg), cfg, length=x.size)[:, 0]
    rel = float(np.sqrt(np.mean((y - x) ** 2) / np.mean(x**2)))
    assert rel <= 1e-6, f"round-trip RMS relative error {rel:.3e}"
    frames = windowed_frames(x, cfg)[:, :, 0]
    spec = stft(x, cfg).data[:, :, 0]
    weights = np.full(cfg.n_bins, 2.0)
    weights[0] = weights[-1] = 1.0
    spectral = (weights[:, None] * np.abs(spec) ** 2).sum(axis=0) / cfg.frame_len
    np.testing.assert_allclose(spectral, (frames**2).sum(axis=1), rtol=1e-9)


def test_criterion_12_rescaling_leaves_cost_unchanged():
    rng = np.random.default_rng(12)
    x = Spectrogram(random_complex(rng, (16, 40, 4)))
    w = random_complex(rng, (16, 4, 4)) + 2 * np.eye(4)
    lam = rng.uniform(0.5, 2.0, (2, 40))
    before = cost_total(DemixingStack(w, 2), lam, x)
    scale = np.array([6.25, 0.04])
    w2 = w.copy()
    w2[:, :, :2] *= scale**-0.5
    after = cost_total(DemixingStack(w2, 2), lam / scale[:, None], x)
    drift = abs(after - before) / abs(before)
    assert drift <= 1e-9, f"relative cost drift {drift:.3e}"


def test_criterion_13_deterministic_outputs(tmp_path, monkeypatch):
    monkeypatch.delenv("OVERIVA_THREADS", raising=False)

    scene_a = tmp_path / "scene_a"
    scene_b = tmp_path / "scene_b"
    for dest in (scene_a, scene_b):
        code = main(
            [
                "make-mix",
                "--speakers", "1", "--noises", "2", "--mics", "3",
                "--rt60", "120", "--dur", "1.0", "--rate", "8000",
                "--seed", "3", "--out", str(dest),
            ]
        )
        assert code == EXIT_OK
    mix_bytes = (scene_a / "mixture.wav").read_bytes()
    assert mix_bytes == (scene_b / "mixture.wav").read_bytes()

    out = tmp_path / "out"
    report_path = tmp_path / "report.json"
    snapshots = []
    for _ in range(2):
        code = main(
            [
                "separate",
                "--input", str(scene_a / "mixture.wav"),
                "--sources", "1", "--method", "ip1", "--iters", "5",
                "--frame-len", "512",
                "--out", str(out), "--json", str(report_path),
            ]
        )
        assert code == EXIT_OK
        snapshots.append(
            ((out / "source_1.wav").read_bytes(), json.loads(report_path.read_text()))
        )
    assert snapshots[0][0] == snapshots[1][0], "separated WAV bytes differ"
    reports = [snap[1] for snap in snapshots]
    for report in reports:
        report.pop("wall_time_s")
        report.pop("rtf")
    assert reports[0] == reports[1], "reports differ beyond timing fields"

    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps([{"K": 1, "L": 1, "M": 2, "sinr": 0}]))
    csv_path = tmp_path / "bench.csv"
    tables = []
    for _ in range(2):
        code = main(
            [
                "bench",
                "--grid", str(grid), "--out", str(csv_path),
                "--trials", "1", "--dur", "0.6", "--rate", "8000",
                "--rt60", "80", "--frame-len", "512", "--iters", "2",
                "--methods", "ip2,mixture",
            ]
        )
        assert code == EXIT_OK
        rows = [line.split(",") for line in csv_path.read_text().strip().splitlines()]
        for row in rows[1:]:
            row[6] = "rtf"  # timing column, not reproducible bit for bit
        tables.append(rows)
    assert tables[0] == tables[1], "benchmark tables differ beyond timing"
