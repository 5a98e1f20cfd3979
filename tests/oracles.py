"""Test-side reference constructions shared by the model, optimizer
and acceptance tests.

run() keeps the orthogonal-complement background of ip1_sweep and
profiles the background out of its cost trace; these helpers build the
fully normalized background explicitly (update_wz_full), so tests can
check the objective and the stationarity conditions on the whole stack.
cost_jw and gradient_jw_row are the per-bin surrogate objective and its
gradient, which no run path evaluates. weighted_covariance_unblocked,
update_variances_unblocked, auxiva_sweep_ip0, auxiva_sweep_solved,
gev_largest_solves, ip2_update_gev, windowed_frames, stft_unblocked and
istft_unblocked are the earlier, plainer forms of run-path kernels,
which the faster forms must reproduce. demix and projection_back_image
form the dense outputs and images that run() never holds whole.
stationarity_residual measures a stack's distance from the stationarity
conditions; its background term is meaningful only for the fully
normalized background, not for the orthogonal-complement one run()
keeps.
"""

from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from overiva import linalg
from overiva.errors import ShapeMismatch
from overiva.model import EPS_VARIANCE, DemixingStack, _spec_data
from overiva.optimizer import (
    _quad,
    _require_positive,
    ip0_update_row,
    ip1_sweep,
    projection_back,
    update_wz_full,
)
from overiva.stft import (
    Spectrogram,
    StftConfig,
    _as_multichannel,
    _require_one_frame,
    sqrt_hann_window,
)


def ip1_full_sweep(w, target_covs, noise_cov):
    """ip1 sweep with the fully normalized background.

    The target rows are those of ip1_sweep; the background is then
    update_wz_full solved against the previous background block, so
    W^H G_z W_z = E_z holds after every sweep.
    """
    n_targets = target_covs.shape[0]
    out = np.array(w, copy=True)
    targets = ip1_sweep(np.array(w, copy=True), target_covs, noise_cov)
    out[..., :, :n_targets] = targets[..., :, :n_targets]
    out[..., :, n_targets:] = update_wz_full(out, noise_cov, n_targets)
    return out


def with_full_background(u1, noise_cov):
    """[u_1, W_z] with the fully normalized background around one target
    filter u1, (M,): W_z^H G_z W_z = I and u_1^H G_z W_z = 0."""
    m = u1.shape[-1]
    w = np.eye(m, dtype=np.complex128)
    w[:, 0] = u1
    w[:, 1:] = update_wz_full(w, noise_cov, 1)
    return w


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
    e_k = np.eye(m)[:, k, None]
    back = linalg.lu_solve(linalg.hermitian_transpose(mats), e_k)[..., 0]
    return quad - back


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


def update_variances_unblocked(s, eps1=EPS_VARIANCE):
    """model.update_variances from the separated target spectra s,
    (K, F, T), themselves: one reduction of |s|^2 = re^2 + im^2 over the
    whole bin axis. Returns (K, T), the mean over bins floored at eps1."""
    s = np.asarray(s)
    if s.ndim != 3:
        raise ShapeMismatch(f"expected (K, F, T) spectra, got {s.shape}")
    return np.maximum(np.sum(s.real**2 + s.imag**2, axis=1) / s.shape[1], eps1)


def projection_back_image(w_stack, x, k):
    """Output k's dense image, (F, T, M) like x, formed from the k-th
    factors of projection_back(w_stack, x, k + 1)."""
    mixing, outputs = projection_back(w_stack, x, k + 1)
    return outputs[k].T[..., None] * mixing[k].T[:, None, :]


def weighted_covariance_unblocked(x, lam_k, eps2):
    """weighted_covariance weighting every bin in one pass, then one
    batched real matmul over all bins, whose whole (F, 2M, 2M) product
    gives the real and imaginary parts."""
    data = _spec_data(x)
    lam_k = np.asarray(lam_k, dtype=np.float64)
    n_bins, n_frames, m = data.shape
    if lam_k.shape != (n_frames,):
        raise ShapeMismatch(
            f"lam_k must be ({n_frames},), got {lam_k.shape}"
        )
    if np.any(lam_k <= 0):
        raise ValueError("lam_k must be strictly positive")
    # Interleaved (re, im) columns: rows 2i + a and columns 2j + b of r
    # hold sum_t part_a(x_i) part_b(x_j) / lam_k(t).
    real = data.view(np.float64)
    r = real.transpose(0, 2, 1) @ (real * (1.0 / lam_k)[:, None])
    p = r[:, 0::2, 0::2] + r[:, 1::2, 1::2]
    q = r[:, 1::2, 0::2] - r[:, 0::2, 1::2]
    g = np.empty((n_bins, m, m), dtype=np.complex128)
    g.real = (p + p.transpose(0, 2, 1)) * 0.5 / n_frames
    g.imag = (q - q.transpose(0, 2, 1)) * 0.5 / n_frames
    g.reshape(n_bins, m * m)[:, :: m + 1] += eps2
    return g


def auxiva_sweep_ip0(w_stack, target_covs, noise_cov):
    """auxiva_sweep as M calls of ip0_update_row, each with its own LU
    solve of W^H G."""
    w = np.array(w_stack, copy=True)
    n_targets = target_covs.shape[0]
    for k in range(w.shape[-1]):
        cov = target_covs[k] if k < n_targets else noise_cov
        w[..., :, k] = ip0_update_row(w, cov, k)
    return w


def auxiva_sweep_solved(w_stack, target_covs, noise_inv):
    """optimizer.auxiva_sweep solving A = W^{-H} afresh at the start of
    every sweep, with one LU solve of W^H, instead of carrying it across
    sweeps: K + 1 batched LU solves per sweep. Returns the new stack."""
    w = np.array(w_stack, copy=True)
    m = w.shape[-1]
    n_targets = target_covs.shape[0]
    a = linalg.lu_solve(linalg.hermitian_transpose(w), np.eye(m))
    for k in range(m):
        ak = a[..., :, k, None]
        if k < n_targets:
            u = linalg.lu_solve(target_covs[k], ak)
        else:
            u = noise_inv @ ak
        q = (linalg.hermitian_transpose(ak) @ u)[..., 0, 0].real
        _require_positive(q, "normalization quadratic is not positive")
        root = np.sqrt(q)[..., None, None]
        new = u / root
        if k < m - 1:
            # W^H changes by e_k d^H, and w_k,new^H a_k = sqrt(q).
            d = new - w[..., :, k, None]
            a -= (ak / root) @ (linalg.hermitian_transpose(d) @ a)
        w[..., :, k] = new[..., 0]
    return w


def gev_largest_solves(a, b):
    """linalg.gev_largest reducing the pencil with three triangular-system
    solves against B's Cholesky factor L instead of one inverse of L:
    C = L^{-1} A L^{-H} from two solves, made exactly Hermitian, and
    u = L^{-H} v from a third. Same tie rule, and B's lower triangle read
    by the same cholesky."""
    a = np.asarray(a, dtype=np.complex128)
    ell = linalg.cholesky(b)
    y = np.linalg.solve(ell, a)
    c = linalg.hermitian_transpose(
        np.linalg.solve(ell, linalg.hermitian_transpose(y))
    )
    c = 0.5 * (c + linalg.hermitian_transpose(c))
    values, vectors = np.linalg.eigh(c)
    top = np.argmax(values == values[..., -1:], axis=-1)
    v = np.take_along_axis(vectors, top[..., None, None], axis=-1)
    value = np.take_along_axis(values, top[..., None], axis=-1)[..., 0]
    u = np.linalg.solve(linalg.hermitian_transpose(ell), v)[..., 0]
    u = u / np.linalg.norm(u, axis=-1, keepdims=True)
    return linalg.GevResult(float(value) if u.ndim == 1 else value, u)


def ip2_update_gev(target_cov, noise_cov):
    """ip2_update with the pencil (G_z, G_1) reduced by gev_largest_solves."""
    _, u = gev_largest_solves(noise_cov, target_cov)
    q = _quad(u, target_cov)
    _require_positive(
        q, "target covariance is not positive along the extracted direction"
    )
    return u / np.sqrt(q)[..., None]


def windowed_frames(signal, config):
    """Slice the padded signal into windowed frames of shape (T, frame_len, M).

    The definition stft computes block by block: the signal is
    zero-padded by config.pad on each end, and frame t is the window
    times samples t * hop .. t * hop + frame_len - 1 of the padded
    signal. The result is a view of a (T, M, frame_len) array, so each
    channel's frame is one contiguous row for the FFT.
    """
    x = _as_multichannel(signal)
    _require_one_frame(x.shape[0], config)
    pad = config.pad
    x = np.pad(x, ((pad, pad), (0, 0)))
    frames = sliding_window_view(x, config.frame_len, axis=0)[:: config.hop]
    return (frames * sqrt_hann_window(config.frame_len)).transpose(0, 2, 1)


def stft_unblocked(signal, config=StftConfig()):
    """stft transforming all windowed frames at once, then copying the
    (T, F, M) transform into the bin-major layout."""
    frames = windowed_frames(signal, config)
    # One copy of the (T, F, M) transform into the bin-major layout.
    return Spectrogram(
        np.ascontiguousarray(np.fft.rfft(frames, axis=1).transpose(1, 0, 2))
    )


def istft_unblocked(spec, config=StftConfig(), length=None):
    """istft copying the whole spectrogram to (T, M, F) and inverting
    every frame at once."""
    data = spec.data if isinstance(spec, Spectrogram) else np.asarray(spec)
    if data.ndim != 3:
        raise ShapeMismatch(f"spectrogram must be (F, T, M), got {data.shape}")
    if data.shape[0] != config.n_bins:
        raise ShapeMismatch(
            f"spectrogram has {data.shape[0]} bins but config implies "
            f"{config.n_bins}"
        )
    n, hop = config.frame_len, config.hop
    n_frames, n_chan = data.shape[1], data.shape[2]
    win = sqrt_hann_window(n)
    # One (T, M, F) copy, so that every inverse transform reads and writes
    # a contiguous row whatever the layout of data; channel-major from here.
    frames = np.fft.irfft(
        np.ascontiguousarray(data.transpose(1, 2, 0)), n=n, axis=-1
    )
    frames *= win
    total = (n_frames - 1) * hop + n
    buf = np.zeros((n_chan, total))
    wsum = np.zeros(total)
    win2 = win**2
    for t in range(n_frames):
        buf[:, t * hop : t * hop + n] += frames[t]
        wsum[t * hop : t * hop + n] += win2
    covered = wsum > 1e-12
    buf[:, covered] /= wsum[covered]
    pad = config.pad
    default_len = total - 2 * pad
    if length is None:
        length = default_len
    out = np.zeros((length, n_chan))
    avail = min(length, total - pad)
    if avail > 0:
        out[:avail] = buf[:, pad : pad + avail].T
    return out


class StationarityResidual(NamedTuple):
    """Per-bin deviations from the stationarity conditions.

    target : max over k of ||W^H G_k w_k - e_k||_2
    noise : ||W^H G_z W_z - E_z||_F
    combined : elementwise max of the two
    """

    target: np.ndarray
    noise: np.ndarray
    combined: np.ndarray


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
