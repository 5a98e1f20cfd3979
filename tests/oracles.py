"""Test-side reference constructions shared by the model, optimizer
and acceptance tests.

run() keeps the orthogonal-complement background of ip1_sweep and
profiles the background out of its cost trace; these helpers build the
fully normalized background explicitly (update_wz_full), so tests can
check the objective and the stationarity conditions on the whole stack.
cost_jw and gradient_jw_row are the per-bin surrogate objective and its
gradient, which no run path evaluates. weighted_covariance_unblocked,
auxiva_sweep_ip0, ip2_update_gev, auxiva_order_demixed, stft_unblocked
and istft_unblocked are the earlier, plainer forms of run-path kernels,
which the faster forms must reproduce.
"""

import numpy as np

from overiva import linalg
from overiva.errors import ShapeMismatch
from overiva.model import _spec_data
from overiva.optimizer import (
    _quad,
    _require_positive,
    _top_indices,
    ip0_update_row,
    ip1_sweep,
    update_wz_full,
)
from overiva.stft import (
    Spectrogram,
    StftConfig,
    sqrt_hann_window,
    windowed_frames,
)


def ip1_full_sweep(w, target_covs, noise_cov):
    """ip1 sweep with the fully normalized background.

    The target rows are those of ip1_sweep; the background is then
    update_wz_full solved against the previous background block, so
    W^H G_z W_z = E_z holds after every sweep.
    """
    n_targets = target_covs.shape[0]
    out = np.array(w, copy=True)
    out[..., :, :n_targets] = ip1_sweep(w, target_covs, noise_cov)[
        ..., :, :n_targets
    ]
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
    back = linalg.lu_solve(linalg.hermitian_transpose(mats), np.eye(m)[:, k])
    return quad - back


def weighted_covariance_unblocked(x, lam_k, eps2):
    """weighted_covariance weighting every bin in one pass, then one
    batched matmul over all bins."""
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


def ip2_update_gev(target_cov, noise_cov):
    """ip2_update reducing the pencil (G_z, G_1) from G_z itself on every
    call, through linalg.gev_largest."""
    _, u = linalg.gev_largest(noise_cov, target_cov)
    q = _quad(u, target_cov)
    _require_positive(
        q, "target covariance is not positive along the extracted direction"
    )
    return u / np.sqrt(q)[..., None]


def auxiva_order_demixed(w, data, n_targets):
    """optimizer._auxiva_order ranking each output's image power from the
    demixed outputs of all M filters, data @ conj(w): a transient the
    size of the spectrogram."""
    n_chan = w.shape[-1]
    mixing = linalg.lu_solve(linalg.hermitian_transpose(w), np.eye(n_chan))
    filter_pow = np.sum(np.abs(mixing) ** 2, axis=-2)
    output_pow = np.sum(np.abs(data @ np.conj(w)) ** 2, axis=1)
    powers = np.sum(filter_pow * output_pow, axis=0)
    picked = _top_indices(powers, n_targets)
    return list(picked) + [j for j in range(n_chan) if j not in picked]


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
