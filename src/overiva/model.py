"""Separation model state and objective.

Conventions used package-wide:

- ``X``: mixture spectrogram, complex (F, T, M)
- ``W``: demixing stack, complex (F, M, M); column k of W[f] is the
  filter for output k, so outputs are ``Y = X @ conj(W)``. The first K
  columns extract the targets, the trailing M - K span the background.
- ``lam``: target variance map, real (K, T), shared across frequency
- ``target_covs``: per-target weighted covariances, (K, F, M, M)
- ``noise_cov``: unweighted mixture covariance, (F, M, M)

The background outputs are modeled as stationary with unit variance, so
they contribute a plain quadratic term and need no variance map.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import linalg
from .errors import InvalidK, ShapeMismatch
from .stft import Spectrogram

# Variance floor and covariance ridge defaults, overridable per run.
EPS_VARIANCE = 1e-5
EPS_RIDGE = 1e-1

# Size of weighted_covariance's per-block scratch buffer. The weighted
# copy of a block is read back by the matmul while it is still in L2.
# On a 2-core Xeon with one BLAS thread, 256 KiB took one call from
# 35 to 20 ms at F=2049, T=159, M=7, from 8.9 to 5.8 ms at F=1025,
# T=96, M=8 and from 11.9 to 7.7 ms at F=2049, T=81, M=6, against
# weighting all bins at once; block sizes from 128 to 512 KiB timed
# within 8 % of each other.
COVARIANCE_BLOCK_BYTES = 256 * 1024


def _spec_data(x):
    """The (F, T, M) data of x, bin-major and complex128.

    A Spectrogram is already in that form and is not copied; any other
    array is copied into it once.
    """
    data = x.data if isinstance(x, Spectrogram) else np.asarray(x)
    if data.ndim != 3:
        raise ShapeMismatch(f"expected (F, T, M) spectrogram, got {data.shape}")
    return np.ascontiguousarray(data, dtype=np.complex128)


@dataclass(frozen=True)
class DemixingStack:
    """Per-frequency demixing matrices with the target count recorded.

    matrices : (F, M, M) complex; column k is the filter for output k
    n_targets : number of leading columns that extract targets
    """

    matrices: np.ndarray
    n_targets: int

    def __post_init__(self):
        w = np.asarray(self.matrices)
        if w.ndim != 3 or w.shape[-1] != w.shape[-2]:
            raise ShapeMismatch(
                f"demixing stack must be (F, M, M), got {w.shape}"
            )
        if not 1 <= self.n_targets <= w.shape[-1]:
            raise InvalidK(
                f"n_targets={self.n_targets} not in [1, {w.shape[-1]}]"
            )
        object.__setattr__(self, "matrices", w.astype(np.complex128, copy=False))

    @property
    def n_bins(self):
        return self.matrices.shape[0]

    @property
    def n_channels(self):
        return self.matrices.shape[-1]

    @property
    def targets(self):
        """View of the K target filter columns, (F, M, K)."""
        return self.matrices[:, :, : self.n_targets]


class StationarityResidual(NamedTuple):
    """Per-bin deviations from the stationarity conditions.

    target : max over k of ||W^H G_k w_k - e_k||_2
    noise : ||W^H G_z W_z - E_z||_F
    combined : elementwise max of the two
    """

    target: np.ndarray
    noise: np.ndarray
    combined: np.ndarray


def demix(x, w, n_outputs=None):
    """Apply demixing filters: returns (F, T, n_outputs) outputs.

    x : (F, T, M) spectrogram (or Spectrogram)
    w : (F, M, M) stack (or DemixingStack); the first n_outputs columns
        are applied (all M when n_outputs is None).
    """
    data = _spec_data(x)
    mats = w.matrices if isinstance(w, DemixingStack) else np.asarray(w)
    cols = mats if n_outputs is None else mats[..., :, :n_outputs]
    return data @ np.conj(cols)


def noise_covariance(x):
    """Sample covariance of the mixture per bin, (F, M, M).

    Averages x x^H over frames and symmetrizes: weighted_covariance with
    unit weights and no ridge. Warns when there are fewer frames than
    channels (the estimate is then rank deficient).
    """
    data = _spec_data(x)
    n_frames, n_chan = data.shape[1], data.shape[2]
    if n_frames < n_chan:
        warnings.warn(
            f"covariance from {n_frames} frames of {n_chan} channels is "
            "rank deficient",
            stacklevel=2,
        )
    return weighted_covariance(data, np.ones(n_frames), 0.0)


def weighted_covariance(x, lam_k, eps2=EPS_RIDGE):
    """Variance-weighted covariance for one target, (F, M, M).

    Averages x x^H / lam_k(t) over frames, symmetrizes, and adds a ridge
    eps2 * I. The result is exactly Hermitian.

    The bins are processed in blocks whose weighted data fills at most
    COVARIANCE_BLOCK_BYTES (256 KiB), or one bin if a bin is larger. For
    each block, one pass forms conj(x) / lam_k on the float64 view of
    the bin-major data into a buffer reused across blocks, and a batched
    (M, T) @ (T, M) matmul reads it back while it is still in cache. The
    symmetrization and the ridge then work in place on the result. Each
    bin's matmul is the same as in one unblocked call, so the result
    does not depend on the block size. Against weighting all bins at
    once this took a call from 35 to 20 ms at F=2049, T=159, M=7 (2-core
    Xeon, one BLAS thread); see COVARIANCE_BLOCK_BYTES.

    lam_k : (T,) positive frame variances of the target
    """
    data = _spec_data(x)
    lam_k = np.asarray(lam_k, dtype=np.float64)
    n_bins, n_frames, m = data.shape
    if lam_k.shape != (n_frames,):
        raise ShapeMismatch(
            f"lam_k must be ({n_frames},), got {lam_k.shape}"
        )
    # Written so that NaN fails it.
    if not np.all(lam_k > 0):
        raise ValueError("lam_k must be strictly positive")
    # (T, 2M) row (w, -w, w, -w, ...) with w = 1 / lam_k: applied to the
    # interleaved (re, im) pairs it conjugates and weights at once.
    weights = np.repeat(1.0 / lam_k, 2 * m).reshape(n_frames, 2 * m)
    weights[:, 1::2] *= -1.0
    # Bins per block; one block holds every bin when T or M is 0.
    bin_bytes = 16 * n_frames * m
    fit = COVARIANCE_BLOCK_BYTES // bin_bytes if bin_bytes else n_bins
    block = max(1, min(n_bins, fit))
    buf = np.empty((block, n_frames, 2 * m))
    g = np.empty((n_bins, m, m), dtype=np.complex128)
    real = data.view(np.float64)
    for start in range(0, n_bins, block):
        stop = min(start + block, n_bins)
        scaled = buf[: stop - start]
        np.multiply(real[start:stop], weights, out=scaled)
        np.matmul(
            data[start:stop].transpose(0, 2, 1),
            scaled.view(np.complex128),
            out=g[start:stop],
        )
    g /= n_frames
    g += linalg.hermitian_transpose(g)
    g *= 0.5
    g.reshape(n_bins, m * m)[:, :: m + 1] += eps2
    return g


def update_variances(s, eps1=EPS_VARIANCE):
    """Frame variances of the separated targets, floored at eps1.

    s : (K, F, T) separated target spectra
    Returns (K, T): mean of |s|^2 over frequency, elementwise max with eps1.
    """
    s = np.asarray(s)
    if s.ndim != 3:
        raise ShapeMismatch(f"expected (K, F, T) spectra, got {s.shape}")
    lam = np.mean(np.abs(s) ** 2, axis=1)
    return np.maximum(lam, eps1)


def cost_total(w, lam, x):
    """Full negative log-likelihood of the separation state.

    Sums the variance-weighted target powers, the log-variance penalty,
    the background output power, and the log-determinant reward:

        sum_{k,t} ||s_k(t)||^2 / lam_k(t) + F sum_{k,t} log lam_k(t)
        + sum_{f,t} ||z(f,t)||^2 - 2 T sum_f log|det W(f)|

    w : DemixingStack or (F, M, M) stack
    lam : (K, T) positive variance map (defines K)
    x : (F, T, M) spectrogram
    """
    data = _spec_data(x)
    mats = w.matrices if isinstance(w, DemixingStack) else np.asarray(w)
    lam = np.asarray(lam, dtype=np.float64)
    if np.any(lam <= 0):
        raise ValueError("variance map must be strictly positive")
    n_bins, n_frames = data.shape[0], data.shape[1]
    n_targets = lam.shape[0]
    if isinstance(w, DemixingStack) and w.n_targets != n_targets:
        raise ShapeMismatch(
            f"stack has {w.n_targets} targets but variance map has "
            f"{n_targets}"
        )
    y = data @ np.conj(mats)
    powers = np.sum(np.abs(y[..., :n_targets]) ** 2, axis=0)
    target_term = np.sum(powers.T / lam)
    penalty_term = n_bins * np.sum(np.log(lam))
    noise_term = np.sum(np.abs(y[..., n_targets:]) ** 2)
    det_term = -2.0 * n_frames * np.sum(linalg.logabsdet(mats))
    return float(target_term + penalty_term + noise_term + det_term)


def stationarity_residual(w, target_covs, noise_cov):
    """How far a state is from the stationarity conditions, per bin.

    At a stationary point W^H G_k w_k = e_k for every target and
    W^H G_z W_z = E_z (trailing columns of the identity). Returns the
    per-bin norms of the deviations; see StationarityResidual.
    """
    mats = np.asarray(w)
    target_covs = np.asarray(target_covs)
    noise_cov = np.asarray(noise_cov)
    n_chan = mats.shape[-1]
    n_targets = target_covs.shape[0]
    wh = linalg.hermitian_transpose(mats)
    eye = np.eye(n_chan)
    target = np.zeros(mats.shape[:-2])
    for k in range(n_targets):
        lhs = np.einsum("...ij,...j->...i", wh @ target_covs[k], mats[..., :, k])
        dev = np.linalg.norm(lhs - eye[:, k], axis=-1)
        target = np.maximum(target, dev)
    wz = mats[..., :, n_targets:]
    lhs = wh @ noise_cov @ wz
    noise = np.linalg.norm(
        lhs - eye[:, n_targets:], axis=(-2, -1)
    )
    return StationarityResidual(target, noise, np.maximum(target, noise))
