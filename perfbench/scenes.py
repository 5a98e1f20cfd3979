"""Seeded synthetic scenes and the checks run on separated outputs.

The benchmark renders its own inputs so that they depend only on the
seed and on this file, never on the code under test: K speech-like
sources (lowpassed noise under a bursty energy envelope) and L white
noise sources, each convolved with a random exponentially decaying
multichannel impulse response, with the noise scaled to a fixed input
SINR. Every source has the same 3 kHz bandwidth: a random bandwidth
made the SDR gain swing by several dB from seed to seed, which would
drown the run-to-run comparison the benchmark exists for. WAV files
are written and read with scipy, again independently of the package's
own I/O.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass

import numpy as np
from scipy.io import wavfile
from scipy.signal import butter, fftconvolve, sosfilt

SAMPLE_RATE = 16000
RT60_S = 0.3
SINR_DB = 0.0
SOURCE_CUTOFF_HZ = 3000.0


@dataclass(frozen=True)
class Scene:
    mixture: np.ndarray  # (n, M) float32, exactly what the WAV holds
    targets: np.ndarray  # (K, n, M) float64 true target images


def _rir(rng, n_mics):
    n60 = RT60_S * SAMPLE_RATE
    n_taps = int(3 * n60)
    h = 10.0 ** (-3.0 * np.arange(n_taps) / n60)[:, None] * rng.standard_normal(
        (n_taps, n_mics)
    )
    for ch, d in enumerate(rng.integers(0, SAMPLE_RATE // 100, size=n_mics)):
        h[:d, ch] = 0.0
        h[d, ch] = 1.0
    return h


def _speech_like(rng, n):
    t = np.arange(n) / SAMPLE_RATE
    lowpass = butter(4, SOURCE_CUTOFF_HZ, fs=SAMPLE_RATE, output="sos")
    carrier = sosfilt(lowpass, rng.standard_normal(n))
    slow_lp = butter(2, rng.uniform(0.8, 2.0), fs=SAMPLE_RATE, output="sos")
    slow = sosfilt(slow_lp, rng.standard_normal(n))
    syllabic = 1.0 + 0.5 * np.sin(2 * np.pi * 4.0 * t + rng.uniform(0, 2 * np.pi))
    src = carrier * (0.05 + (slow / slow.std()) ** 2 * syllabic)
    return src / src.std()


def render(n_sources, n_noises, n_mics, duration_s, seed):
    """Render one scene; the same arguments always give the same scene."""
    rng = np.random.default_rng(seed)
    n = int(round(duration_s * SAMPLE_RATE))

    def image(signal):
        return fftconvolve(signal[:, None], _rir(rng, n_mics), axes=0)[:n]

    targets = np.stack([image(_speech_like(rng, n)) for _ in range(n_sources)])
    noise = sum(image(rng.standard_normal(n)) for _ in range(n_noises))
    target_pow = np.mean(targets**2)
    noise *= np.sqrt(target_pow / 10.0 ** (SINR_DB / 10.0) / np.mean(noise**2))
    mixture = targets.sum(axis=0) + noise
    # Keep peaks well inside [-1, 1] so any reader sees the same samples.
    gain = 0.25 / np.abs(mixture).max()
    return Scene((gain * mixture).astype(np.float32), gain * targets)


def write_wav(path, samples):
    wavfile.write(path, SAMPLE_RATE, np.ascontiguousarray(samples))


def read_wav(path):
    rate, data = wavfile.read(path)
    if rate != SAMPLE_RATE:
        raise ValueError(f"{path}: sample rate {rate}, expected {SAMPLE_RATE}")
    return data.reshape(data.shape[0], -1)


def file_digest(paths):
    """SHA-256 over the bytes of the given files, in order."""
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def sdr_db(reference, estimate):
    """SDR in dB of estimate against reference under the optimal gain."""
    ref = reference.ravel()
    est = estimate.ravel().astype(np.float64)
    target = (ref @ est) / (ref @ ref) * ref
    err = est - target
    return 10.0 * np.log10((target @ target) / (err @ err))


def best_mean_sdr(references, estimates):
    """Mean SDR of the best assignment of estimates to references."""
    n = len(references)
    pair = np.array([[sdr_db(r, e) for e in estimates] for r in references])
    return max(
        float(np.mean(pair[np.arange(n), list(p)]))
        for p in itertools.permutations(range(n))
    )
