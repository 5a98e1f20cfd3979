"""Synthetic scene generation and separation metrics.

Scenes place K nonstationary point sources and L stationary white noise
sources in a simulated room: each emitter is convolved with a random
multichannel impulse response whose tail decays exponentially to -60 dB
at the requested reverberation time. Noise images are rescaled so the
ratio of mean target power to total noise power matches the requested
input SINR exactly as measured on the rendered images, and the mixture
is the plain sum of all images, so target + noise additivity is
bit-exact.

All randomness flows through a single seeded numpy PCG64 generator per
scene; the generator name is recorded alongside exported scenes.
Only synthesis needs scipy.signal, which the two functions that call it
import, so the separation path (pipeline, cli separate) never loads it.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import asdict, dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import (
    InvalidSpec,
    ShapeMismatch,
    TooManySources,
    ZeroReference,
    check_number,
)
from .io import AudioBuffer, read_wav, write_wav

PRNG_NAME = "numpy-pcg64"

# Optimal-scaling SDR is capped here; a bit-exact estimate would be +inf.
SDR_CAP_DB = 200.0

# Above this many sources the permutation search is ruled intractable.
MAX_PERMUTATION_SOURCES = 6

# modulated_noise_sources low-passes its carriers at cutoffs drawn below
# 3500 Hz, which a Butterworth design takes only below the Nyquist
# frequency.
MIN_MODEL_RATE = 7000


@dataclass(frozen=True)
class SceneSpec:
    """Parameters of a synthetic scene.

    n_sources : K, nonstationary targets (>= 1)
    n_noises : L, stationary white noise emitters (>= 0)
    n_mics : M, channels of the array (>= 1)
    sinr_db : input signal-to-interference-and-noise ratio applied to the
        rendered images, finite (ignored when n_noises == 0; ask for no
        noise with n_noises = 0, not an infinite SINR)
    rt60_ms : reverberation time of the synthetic impulse responses

    The counts, sample_rate and seed are Python or numpy integers, and
    sinr_db, rt60_ms and duration_s real numbers, none of them a bool or
    a string; they are stored as Python ints and floats. duration_s must
    render a finite count of at least 2 samples (n_samples).
    """

    n_sources: int
    n_noises: int
    n_mics: int
    sinr_db: float = 0.0
    rt60_ms: float = 300.0
    sample_rate: int = 16000
    duration_s: float = 10.0
    seed: int = 0

    def __post_init__(self):
        integers = ("n_sources", "n_noises", "n_mics", "sample_rate", "seed")
        for name in integers + ("sinr_db", "rt60_ms", "duration_s"):
            # Plain ints and floats, so that save_scene can write them as JSON.
            value = check_number(
                name, getattr(self, name), integer=name in integers, error=InvalidSpec
            )
            object.__setattr__(self, name, value)
        # Each rule is written so that NaN fails it.
        for name, ok, rule in (
            ("n_sources", self.n_sources >= 1, "be >= 1"),
            ("n_noises", self.n_noises >= 0, "be >= 0"),
            ("n_mics", self.n_mics >= 1, "be >= 1"),
            ("sinr_db", -np.inf < self.sinr_db < np.inf, "be finite"),
            ("rt60_ms", 0 < self.rt60_ms < np.inf, "be positive and finite"),
            ("sample_rate", self.sample_rate >= 1, "be >= 1"),
            ("duration_s", 0 < self.duration_s < np.inf, "be positive and finite"),
            ("seed", self.seed >= 0, "be >= 0"),
        ):
            if not ok:
                raise InvalidSpec(f"{name} must {rule}, got {getattr(self, name)}")
        # One sample has no variance to normalize a source by, and a count
        # past the float range has no integer.
        if not np.isfinite(self.duration_s * self.sample_rate) or self.n_samples < 2:
            raise InvalidSpec(
                f"duration_s must render a finite count of at least 2 samples "
                f"at sample_rate {self.sample_rate}, got {self.duration_s}"
            )

    @property
    def n_samples(self):
        return int(round(self.duration_s * self.sample_rate))


@dataclass
class Scene:
    """A rendered scene: mixture = sum of target and noise images."""

    spec: SceneSpec
    mixture: np.ndarray  # (n, M)
    target_images: np.ndarray  # (K, n, M)
    noise_images: np.ndarray  # (L, n, M)
    sources: Optional[np.ndarray] = None  # (K, n) dry signals when known


class SdrSet(NamedTuple):
    """Best-permutation SDR scores for a set of sources.

    per_source : (K,) dB scores in reference order
    mean : their mean
    permutation : tuple p, estimate p[k] was matched to reference k
    """

    per_source: np.ndarray
    mean: float
    permutation: tuple


def synth_rir(rt60_ms, sample_rate, n_channels, seed):
    """Random multichannel room impulse response, (n_taps, n_channels).

    Gaussian tail under an exponential envelope that reaches -60 dB at
    rt60; a unit direct-path tap at a random per-channel delay below
    10 ms. Length is 3 * rt60 (at least 64 taps).

    seed : int or numpy Generator (consumed in a fixed draw order)
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    n60 = rt60_ms * sample_rate / 1000.0
    n_taps = max(64, int(round(3.0 * n60)))
    envelope = 10.0 ** (-3.0 * np.arange(n_taps) / n60)
    h = envelope[:, None] * rng.standard_normal((n_taps, n_channels))
    max_delay = max(1, min(int(round(0.010 * sample_rate)), n_taps - 1))
    delays = rng.integers(0, max_delay, size=n_channels)
    for ch, d in enumerate(delays):
        h[:d, ch] = 0.0
        h[d, ch] = 1.0
    return h


def modulated_noise_sources(n_sources, n_samples, sample_rate, rng):
    """Speech-like test sources: lowpassed noise under a random energy
    envelope with burst/pause structure on the half-second scale plus a
    4 Hz syllabic wobble, unit variance, shape (K, n)."""
    from scipy.signal import butter, sosfilt

    t = np.arange(n_samples) / sample_rate
    out = np.empty((n_sources, n_samples))
    for k in range(n_sources):
        carrier = rng.standard_normal(n_samples)
        cutoff = rng.uniform(500.0, 3500.0)
        sos = butter(4, cutoff, btype="low", fs=sample_rate, output="sos")
        shaped = sosfilt(sos, carrier)
        rate = rng.uniform(0.8, 2.0)
        slow = sosfilt(
            butter(2, rate, btype="low", fs=sample_rate, output="sos"),
            rng.standard_normal(n_samples),
        )
        slow /= slow.std()
        phase = rng.uniform(0.0, 2.0 * np.pi)
        syllabic = 1.0 + 0.5 * np.sin(2.0 * np.pi * 4.0 * t + phase)
        envelope = 0.05 + slow**2 * syllabic
        src = shaped * envelope
        out[k] = src / src.std()
    return out


def _check_model_rate(sample_rate):
    """Raise InvalidSpec unless the built-in source model
    (modulated_noise_sources) can draw at sample_rate: at least
    MIN_MODEL_RATE Hz."""
    if sample_rate < MIN_MODEL_RATE:
        raise InvalidSpec(
            f"sample_rate must be >= {MIN_MODEL_RATE} Hz for the built-in "
            f"source model, got {sample_rate}"
        )


def synthesize(spec, sources=None):
    """Render a Scene from its SceneSpec.

    sources : (K, n) dry signals, optional; defaults to the built-in
        modulated noise sources, which need spec.sample_rate >=
        MIN_MODEL_RATE (_check_model_rate, before anything is drawn). The
        same spec (and sources) always renders bit-identical scenes.
    """
    from scipy.signal import fftconvolve

    rng = np.random.default_rng(spec.seed)
    n = spec.n_samples
    if sources is None:
        _check_model_rate(spec.sample_rate)
        sources = modulated_noise_sources(
            spec.n_sources, n, spec.sample_rate, rng
        )
    else:
        sources = np.asarray(sources, dtype=np.float64)
        if sources.shape != (spec.n_sources, n):
            raise InvalidSpec(
                f"sources must have shape ({spec.n_sources}, {n}), "
                f"got {sources.shape}"
            )
    noises = rng.standard_normal((spec.n_noises, n))
    target_images = np.empty((spec.n_sources, n, spec.n_mics))
    for k in range(spec.n_sources):
        rir = synth_rir(spec.rt60_ms, spec.sample_rate, spec.n_mics, rng)
        target_images[k] = fftconvolve(sources[k][:, None], rir, axes=0)[:n]
    noise_images = np.empty((spec.n_noises, n, spec.n_mics))
    for l in range(spec.n_noises):
        rir = synth_rir(spec.rt60_ms, spec.sample_rate, spec.n_mics, rng)
        noise_images[l] = fftconvolve(noises[l][:, None], rir, axes=0)[:n]
    if spec.n_noises > 0:
        target_pow = np.mean([np.mean(img**2) for img in target_images])
        noise_pow = np.sum([np.mean(img**2) for img in noise_images])
        wanted = target_pow / 10.0 ** (spec.sinr_db / 10.0)
        noise_images *= np.sqrt(wanted / noise_pow)
        mixture = target_images.sum(axis=0) + noise_images.sum(axis=0)
    else:
        mixture = target_images.sum(axis=0)
    return Scene(spec, mixture, target_images, noise_images, sources)


def measured_sinr(scene):
    """Input SINR recomputed from the rendered images, in dB."""
    target_pow = np.mean([np.mean(img**2) for img in scene.target_images])
    if scene.noise_images.shape[0] == 0:
        return np.inf
    noise_pow = np.sum([np.mean(img**2) for img in scene.noise_images])
    return 10.0 * np.log10(target_pow / noise_pow)


def sdr(reference, estimate):
    """Signal-to-distortion ratio in dB under the optimal scalar gain.

    Projects the estimate onto the reference (all channels flattened)
    and compares the projection's power with the residual's. Invariant
    to a nonzero rescaling of the estimate, capped at SDR_CAP_DB, and
    strictly decreasing in added orthogonal noise power.
    """
    ref = np.asarray(reference, dtype=np.float64).ravel()
    est = np.asarray(estimate, dtype=np.float64).ravel()
    if ref.shape != est.shape:
        raise ShapeMismatch(
            f"reference and estimate sizes differ: {ref.shape} vs {est.shape}"
        )
    ref_pow = np.dot(ref, ref)
    if ref_pow == 0.0:
        raise ZeroReference("reference signal is identically zero")
    gain = np.dot(ref, est) / ref_pow
    target = gain * ref
    num = np.dot(target, target)
    if num == 0.0:
        return -np.inf
    err = est - target
    den = np.dot(err, err)
    if den == 0.0:
        return SDR_CAP_DB
    return min(SDR_CAP_DB, 10.0 * np.log10(num / den))


def sdr_set(references, estimates):
    """Best-permutation SDR between two sets of signals.

    references, estimates : (K, ...) stacks of equal shape. Scores every
    assignment of estimates to references (K <= 6, else TooManySources)
    and returns the one with the highest mean; ties resolve to the
    lexicographically first permutation.
    """
    refs = np.asarray(references, dtype=np.float64)
    ests = np.asarray(estimates, dtype=np.float64)
    if refs.shape != ests.shape:
        raise ShapeMismatch(
            f"references {refs.shape} and estimates {ests.shape} differ"
        )
    n_src = refs.shape[0]
    if n_src > MAX_PERMUTATION_SOURCES:
        raise TooManySources(
            f"permutation search over {n_src}! assignments refused"
        )
    pairwise = np.empty((n_src, n_src))
    for i in range(n_src):
        for j in range(n_src):
            pairwise[i, j] = sdr(refs[i], ests[j])
    best = None
    for perm in itertools.permutations(range(n_src)):
        scores = pairwise[np.arange(n_src), perm]
        mean = float(np.mean(scores))
        if best is None or mean > best[0]:
            best = (mean, perm, scores)
    return SdrSet(best[2], best[0], best[1])


def rtf(wall_time_s, duration_s):
    """Real-time factor: compute seconds per second of signal."""
    if duration_s <= 0:
        raise ValueError(f"duration must be positive, got {duration_s}")
    return wall_time_s / duration_s


def save_scene(scene, out_dir):
    """Export a scene directory: mixture.wav, target_<k>.wav, spec.json."""
    os.makedirs(out_dir, exist_ok=True)
    fs = scene.spec.sample_rate
    write_wav(os.path.join(out_dir, "mixture.wav"), AudioBuffer(fs, scene.mixture))
    for k in range(scene.spec.n_sources):
        write_wav(
            os.path.join(out_dir, f"target_{k + 1}.wav"),
            AudioBuffer(fs, scene.target_images[k]),
        )
    payload = asdict(scene.spec)
    payload["prng"] = PRNG_NAME
    with open(os.path.join(out_dir, "spec.json"), "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def load_scene(in_dir):
    """Load an exported scene directory.

    The dry sources are not stored; the noise component is recovered as
    mixture minus the sum of target images (exact by construction), so
    the additivity invariant holds for loaded scenes too.
    """
    with open(os.path.join(in_dir, "spec.json")) as fh:
        payload = json.load(fh)
    payload.pop("prng", None)
    try:
        spec = SceneSpec(**payload)
    except TypeError as exc:
        raise InvalidSpec(f"bad spec.json in {in_dir}: {exc}") from None
    # Widened from read_wav's float32, so that the residual below and any
    # arithmetic on the scene are float64.
    mixture = read_wav(os.path.join(in_dir, "mixture.wav")).samples.astype(np.float64)
    targets = np.stack(
        [
            read_wav(os.path.join(in_dir, f"target_{k + 1}.wav")).samples
            for k in range(spec.n_sources)
        ]
    ).astype(np.float64)
    residual = mixture - targets.sum(axis=0)
    if spec.n_noises > 0:
        noise_images = residual[None]
    else:
        noise_images = np.empty((0,) + mixture.shape)
    return Scene(spec, mixture, targets, noise_images)
