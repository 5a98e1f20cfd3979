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

    @property
    def noise_basis(self):
        """View of the M - K background columns, (F, M, M - K)."""
        return self.matrices[:, :, self.n_targets :]


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


def weighted_covariance(x, lam_k, eps2=EPS_RIDGE, relative_ridge=False):
    """Variance-weighted covariance for one target, (F, M, M).

    Averages x x^H / lam_k(t) over frames, symmetrizes, and adds a ridge
    eps2 * I. With relative_ridge the ridge is additionally scaled by the
    mean diagonal magnitude of the unridged estimate per bin, so eps2
    acts relative to the local channel power. The result is exactly
    Hermitian.

    One pass forms conj(x) / lam_k on the float64 view of the bin-major
    data; a batched (M, T) @ (T, M) matmul then reads both operands in
    place, and the symmetrization and the ridge work in place on the
    result.

    lam_k : (T,) positive frame variances of the target
    """
    data = _spec_data(x)
    lam_k = np.asarray(lam_k, dtype=np.float64)
    n_bins, n_frames, m = data.shape
    if lam_k.shape != (n_frames,):
        raise ShapeMismatch(
            f"lam_k must be ({n_frames},), got {lam_k.shape}"
        )
    if np.any(lam_k <= 0):
        raise ValueError("lam_k must be strictly positive")
    # (T, 2M) row (w, -w, w, -w, ...) with w = 1 / lam_k: applied to the
    # interleaved (re, im) pairs it conjugates and weights at once.
    weights = np.repeat(1.0 / lam_k, 2 * m).reshape(n_frames, 2 * m)
    weights[:, 1::2] *= -1.0
    scaled = (data.view(np.float64) * weights).view(np.complex128)
    g = data.transpose(0, 2, 1) @ scaled
    g /= n_frames
    g += linalg.hermitian_transpose(g)
    g *= 0.5
    diag = g.reshape(n_bins, m * m)[:, :: m + 1]
    if relative_ridge:
        diag += (eps2 * (np.einsum("fmm->f", g).real / m))[:, None]
    else:
        diag += eps2
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


def cost_jw(w, target_covs, noise_cov):
    """Per-bin surrogate objective at fixed covariances.

        J_W = sum_k w_k^H G_k w_k + trace(W_z^H G_z W_z) - 2 log|det W|

    w : (..., M, M); target_covs : (K, ..., M, M); noise_cov : (..., M, M)
    Returns a float for a single matrix, else an array over batch dims.
    """
    mats = np.asarray(w)
    target_covs = np.asarray(target_covs)
    n_targets = target_covs.shape[0]
    quad = 0.0
    for k in range(n_targets):
        wk = mats[..., :, k]
        quad = quad + np.einsum(
            "...i,...ij,...j->...", np.conj(wk), target_covs[k], wk
        ).real
    wz = mats[..., :, n_targets:]
    tr = np.einsum(
        "...ik,...ij,...jk->...", np.conj(wz), np.asarray(noise_cov), wz
    ).real
    out = quad + tr - 2.0 * linalg.logabsdet(mats)
    return float(out) if mats.ndim == 2 else out


def gradient_jw_row(w, target_covs, noise_cov, k):
    """Wirtinger gradient of the per-bin surrogate with respect to
    conj(w_k), holding the other columns fixed:

        G_k w_k - W^{-H} e_k

    where G_k is the target covariance for k < K and the noise
    covariance otherwise. Against real perturbations the objective moves
    as dJ/dRe(w_i) = 2 Re(g_i) and dJ/dIm(w_i) = 2 Im(g_i).
    """
    mats = np.asarray(w)
    target_covs = np.asarray(target_covs)
    n_targets = target_covs.shape[0]
    cov = target_covs[k] if k < n_targets else np.asarray(noise_cov)
    wk = mats[..., :, k]
    quad = np.einsum("...ij,...j->...i", cov, wk)
    m = mats.shape[-1]
    back = linalg.lu_solve(linalg.hermitian_transpose(mats), np.eye(m)[:, k])
    return quad - back


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
