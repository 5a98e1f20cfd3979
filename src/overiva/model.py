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

import numpy as np

from . import linalg
from .errors import InvalidK, ShapeMismatch, check_number
from .stft import Spectrogram, blocks

# Variance floor and covariance ridge defaults, overridable per run.
EPS_VARIANCE = 1e-5
EPS_RIDGE = 1e-1

# Bytes of weighted_covariance's and update_variances' per-block
# scratch: the budget of their stft.blocks of bins. The weighted copy of
# a block is read back by the real matmul while it is still in L2, and
# only that block's (2M, 2M) products are held. On a 2-core
# Xeon with one BLAS thread, 256 KiB took one call from 24 to 13 ms at
# F=2049, T=159, M=7, from 7.9 to 4.9 ms at F=1025, T=96, M=8 and from
# 10.9 to 6.6 ms at F=2049, T=81, M=6, against weighting all bins at
# once; 128 and 512 KiB timed within 15 % of it.
COVARIANCE_BLOCK_BYTES = 256 * 1024


def _check_eps(name, value):
    """eps1 or eps2 as a float, or raise ValueError naming it: eps1, the
    variance floor, must be positive and finite, and eps2, the covariance
    ridge, nonnegative and finite. The rule RunConfig, update_variances
    and weighted_covariance share."""
    value = check_number(name, value)
    # Each check is written so that NaN fails it.
    if name == "eps1" and not 0 < value < np.inf:
        raise ValueError(f"eps1 must be positive and finite, got {value}")
    if name == "eps2" and not 0 <= value < np.inf:
        raise ValueError(f"eps2 must be nonnegative and finite, got {value}")
    return value


def _check_n_targets(n_targets, n_chan):
    """n_targets as a Python int, or raise InvalidK unless it is a Python
    or numpy integer (not a bool) with 1 <= n_targets <= n_chan. The rule
    for K that DemixingStack, optimizer.projection_back and
    optimizer.run (check_targets) share."""
    n_targets = check_number("n_targets", n_targets, integer=True, error=InvalidK)
    if not 1 <= n_targets <= n_chan:
        raise InvalidK(f"n_targets={n_targets} not in [1, {n_chan}]")
    return n_targets


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
        object.__setattr__(
            self, "n_targets", _check_n_targets(self.n_targets, w.shape[-1])
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

    The arithmetic is real. On the float64 view of the bin-major data,
    a bin is a (T, 2M) matrix A whose columns interleave the real and
    imaginary parts of the channels. One real (2M, T) @ (T, 2M) matmul
    per bin forms R = A^T diag(1 / lam_k) A, and with r_ab the (M, M)
    matrix of R's rows 2i + a and columns 2j + b, P = r_00 + r_11 and
    Q = r_10 - r_01 are the real and imaginary parts of the frame sum.
    G = (P + P^T) / 2 + i (Q - Q^T) / 2, divided by T, plus the ridge:
    Hermitian by construction.

    The bins are processed in blocks whose weighted data fills at most
    COVARIANCE_BLOCK_BYTES (256 KiB), or one bin if a bin is larger
    (stft.blocks of the bins' (T, 2M) float64 rows). For each block,
    one pass weights A by 1 / lam_k into a buffer reused across blocks,
    the batched matmul reads it back while it is still in cache, and P
    and Q are read off the block's product; only one block's product is
    held. Each bin's matmul is the
    same as in one unblocked call, so the result does not depend on the
    block size. On a 2-core Xeon with one BLAS thread, a call took
    5.2 ms at F=2049, T=81, M=6, 4.0 ms at F=1025, T=96, M=8 and 11.8 ms
    at F=2049, T=159, M=7, against 5.7, 4.8 and 15.3 ms for one complex
    matmul per bin on conj(x) / lam_k.

    The weighted copy is made even for unit weights (noise_covariance):
    a matmul of A^T with A itself takes OpenBLAS's syrk, which timed
    8.3 ms at F=2049, T=162, M=6, against 6.9 ms for the copy and gemm
    together.

    lam_k : (T,) positive frame variances of the target
    eps2 : nonnegative, finite ridge (_check_eps)
    """
    eps2 = _check_eps("eps2", eps2)
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
    # The whole (T, 2M) array, not a (T, 1) column: the multiply then
    # runs over each bin as one loop, not one per frame (2.5 against
    # 3.6 ms per pass at F=2049, T=81, M=6).
    weights = np.repeat(1.0 / lam_k, 2 * m).reshape(n_frames, 2 * m)
    bin_slices = blocks(n_bins, 16 * n_frames * m, COVARIANCE_BLOCK_BYTES)
    block = bin_slices[0].stop if bin_slices else 0
    buf = np.empty((block, n_frames, 2 * m))
    prod = np.empty((block, 2 * m, 2 * m))
    g = np.empty((n_bins, m, m), dtype=np.complex128)
    real = data.view(np.float64)
    parts = g.view(np.float64)
    for sl in bin_slices:
        n = sl.stop - sl.start
        np.multiply(real[sl], weights, out=buf[:n])
        r = np.matmul(real[sl].transpose(0, 2, 1), buf[:n], out=prod[:n])
        p = r[:, 0::2, 0::2] + r[:, 1::2, 1::2]
        q = r[:, 1::2, 0::2] - r[:, 0::2, 1::2]
        np.add(p, p.transpose(0, 2, 1), out=parts[sl, :, 0::2])
        np.subtract(q, q.transpose(0, 2, 1), out=parts[sl, :, 1::2])
    parts *= 0.5
    parts /= n_frames
    # One diagonal entry at a time: numpy copies the 2-D strided view of
    # all diagonals before adding into it, an (F, M) transient.
    for i in range(m):
        g[:, i, i] += eps2
    return g


def update_variances(x, w_cols, eps1=EPS_VARIANCE):
    """Frame variances of the targets w_cols extract from x, (K, T): the
    mean over bins of |w_k^H x|^2, elementwise max with eps1.

    x : (F, T, M) spectrogram (or Spectrogram)
    w_cols : (F, M, K) filter columns, e.g. DemixingStack.targets
    eps1 : positive, finite variance floor (_check_eps)

    The outputs are demixed one block of bins at a time into a scratch
    of at most COVARIANCE_BLOCK_BYTES (stft.blocks of their (T, K) rows)
    and never whole. Each power is re^2 + im^2, squared in place on the
    scratch's float64 view, which spares np.abs its hypot and square
    root (a call took 4.0 ms against 4.3 ms at F=2049, T=81, M=6, K=2,
    2-core Xeon, one BLAS thread). The running power sum is carried
    into each block as the first row of its reduction, so the bins are
    added one at a time in order, as a reduction over the whole bin axis
    adds them; the result does not depend on the block size.
    """
    eps1 = _check_eps("eps1", eps1)
    data = _spec_data(x)
    w_conj = np.conj(w_cols)
    n_bins, n_frames = data.shape[:2]
    n_outputs = w_conj.shape[-1]
    bin_slices = blocks(n_bins, 16 * n_frames * n_outputs, COVARIANCE_BLOCK_BYTES)
    block = bin_slices[0].stop if bin_slices else 0
    y = np.empty((block, n_frames, n_outputs), dtype=np.complex128)
    rows = np.empty((block + 1, n_frames, n_outputs))
    power = np.zeros((n_frames, n_outputs))
    parts = y.view(np.float64)
    for sl in bin_slices:
        n = sl.stop - sl.start
        np.matmul(data[sl], w_conj[sl], out=y[:n])
        rows[0] = power
        np.square(parts[:n], out=parts[:n])
        np.add(parts[:n, :, 0::2], parts[:n, :, 1::2], out=rows[1 : n + 1])
        np.sum(rows[: n + 1], axis=0, out=power)
    return np.maximum(power.T / n_bins, eps1)


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
