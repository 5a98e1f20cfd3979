"""Block coordinate descent schedules for overdetermined source extraction.

Four schedules share the same per-bin building blocks:

- ``auxiva``: iterative-projection row updates cycled over all M outputs,
  with the unweighted mixture covariance standing in for the background
  rows. W^{-H} is inverted once per sweep and kept current by a rank-one
  update after each row, so a sweep costs K + 2 batched LU solves (one of
  W^H, one of the mixture covariance, one per target) plus O(M^2) work
  per row and bin. All M - K background rows share that covariance, so
  for K < M the iterates equal ip1's up to rounding: this is ip1 reached
  by M - K row updates instead of one block update, not a determined-IVA
  baseline.
- ``ip1``: row updates for the K targets followed by one orthogonal-
  complement background update per sweep.
- ``ip2``: single-target extraction (K = 1) via a generalized eigenvalue
  problem; the background block is materialized once after the loop.
- ``ip3``: row updates interleaved with a background refresh after every
  target, keeping the background orthogonally constrained throughout.

All update functions are pure: they take stacked arrays with leading
batch axes (one entry per frequency bin) and return new arrays.

run() records the negative log-likelihood once per iteration, from the
covariances the sweep has formed. For ip1, ip2 and ip3 it profiles out
the background block, which only matters through its span (_bin_cost).
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import linalg, model
from .errors import (
    DegenerateBlock,
    InvalidK,
    NotPositiveDefinite,
    NumericalError,
    ShapeMismatch,
    SingularMatrix,
)
from .linalg import hermitian_transpose
from .model import DemixingStack
from .stft import Spectrogram


class Method(Enum):
    """Update schedule selector."""

    AUXIVA = "auxiva"
    IP1 = "ip1"
    IP2 = "ip2"
    IP3 = "ip3"


DEFAULT_ITERATIONS = {
    Method.AUXIVA: 50,
    Method.IP1: 50,
    Method.IP2: 3,
    Method.IP3: 50,
}


@dataclass(frozen=True)
class RunConfig:
    """Parameters of one separation run.

    iterations defaults to 50 (3 for ip2, whose single-target update
    reaches its fixed point in a few steps). convergence_delta, when set,
    stops early once the relative cost change drops below it. threads > 1
    splits the frequency axis across a thread pool; images and cost
    trace are identical to the sequential run.
    """

    method: Method = Method.IP1
    iterations: int = None
    eps1: float = model.EPS_VARIANCE
    eps2: float = model.EPS_RIDGE
    convergence_delta: float = None
    threads: int = 1

    def __post_init__(self):
        method = self.method
        if not isinstance(method, Method):
            method = Method(str(method).lower())
            object.__setattr__(self, "method", method)
        if self.iterations is None:
            object.__setattr__(self, "iterations", DEFAULT_ITERATIONS[method])
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")
        # Each check is written so that NaN fails it.
        if not 0 < self.eps1 < np.inf:
            raise ValueError(
                f"eps1 must be positive and finite, got {self.eps1}"
            )
        if not 0 <= self.eps2 < np.inf:
            raise ValueError(
                f"eps2 must be nonnegative and finite, got {self.eps2}"
            )
        delta = self.convergence_delta
        if delta is not None and not 0 <= delta < np.inf:
            raise ValueError(
                f"convergence_delta must be nonnegative and finite, got {delta}"
            )
        if self.threads < 1:
            raise ValueError("threads must be >= 1")


@dataclass
class SeparationResult:
    """Outcome of a separation run.

    demixing : DemixingStack with the target filters in the leading columns
    images : (K, F, T, M) spatial images of the targets on the array
    cost_trace : per-iteration values of the objective with the
        background profiled (see the module docstring)
    wall_time : seconds spent in run(): covariances, sweeps, the
        per-iteration cost trace and projection back (excludes STFT
        and file I/O)
    """

    demixing: DemixingStack
    images: np.ndarray
    cost_trace: np.ndarray
    wall_time: float


def _quad(u, cov):
    """Real part of the quadratic forms u^H G u, (...,), for u (..., M)."""
    gu = cov @ u[..., None]
    return (np.conj(u[..., None, :]) @ gu)[..., 0, 0].real


def _require_positive(q, what):
    """Raise NotPositiveDefinite at the first batch entry with q <= 0."""
    if np.any(q <= 0):
        idx = int(np.flatnonzero((q <= 0).ravel())[0])
        raise NotPositiveDefinite(
            f"{what} at batch index {idx}", batch_index=idx
        )


def ip0_update_row(w_stack, cov, k):
    """Iterative-projection update of filter column k.

    Globally minimizes the per-bin surrogate over w_k at fixed other
    rows: solve (W^H G) u = e_k, then rescale so u^H G u = 1.

    w_stack : (..., M, M); cov : (..., M, M) auxiliary covariance for
    this output. Returns the new column, (..., M).
    """
    m = w_stack.shape[-1]
    u = linalg.lu_solve(hermitian_transpose(w_stack) @ cov, np.eye(m)[:, k])
    q = _quad(u, cov)
    _require_positive(q, "normalization quadratic is not positive")
    return u / np.sqrt(q)[..., None]


def update_wz_full(w_stack, noise_cov, n_targets):
    """Fully normalized background block, (..., M, M - K).

    Solves (W^H G_z) U_z = E_z and whitens: the result satisfies the
    background stationarity condition W^H G_z W_z = E_z exactly, and
    trace(W_z^H G_z W_z) = M - K.
    """
    m = w_stack.shape[-1]
    ez = np.eye(m)[:, n_targets:]
    uz = linalg.lu_solve(hermitian_transpose(w_stack) @ noise_cov, ez)
    inner = hermitian_transpose(uz) @ noise_cov @ uz
    inner = 0.5 * (inner + hermitian_transpose(inner))
    return uz @ linalg.inv_sqrt_hermitian(inner)


def update_wz_fast(w_targets, noise_cov):
    """Orthogonal-complement background block, (..., M, M - K).

    Returns [-(W_s^H G_z E_s)^{-1} (W_s^H G_z E_z); I], the unique
    background with trailing identity rows whose outputs are uncorrelated
    with the targets: W_s^H G_z W_z = 0 exactly. Spans the same subspace
    as the fully normalized block (their column-space projectors agree).
    """
    n_targets = w_targets.shape[-1]
    m = w_targets.shape[-2]
    c = hermitian_transpose(w_targets) @ noise_cov
    try:
        top = -linalg.lu_solve(c[..., :, :n_targets], c[..., :, n_targets:])
    except SingularMatrix as exc:
        raise DegenerateBlock(
            f"target block of the correlation constraint is singular "
            f"({exc})",
            batch_index=exc.batch_index,
        ) from None
    eye = np.broadcast_to(
        np.eye(m - n_targets), top.shape[:-2] + (m - n_targets, m - n_targets)
    )
    return np.concatenate([top, eye], axis=-2)


def ip1_sweep(w_stack, target_covs, noise_cov, on_wz_update=None):
    """One sweep: all K target rows, then one background update.

    target_covs : (K, ..., M, M) weighted covariances; noise_cov :
    (..., M, M). Returns the updated stack. on_wz_update, when given, is
    called as on_wz_update(w_stack, noise_cov) after the background
    update (diagnostic hook; must not mutate its arguments).
    """
    w = np.array(w_stack, copy=True)
    n_targets = target_covs.shape[0]
    for k in range(n_targets):
        w[..., :, k] = ip0_update_row(w, target_covs[k], k)
    if n_targets < w.shape[-1]:
        w[..., :, n_targets:] = update_wz_fast(w[..., :, :n_targets], noise_cov)
        if on_wz_update is not None:
            on_wz_update(w, noise_cov)
    return w


def ip3_sweep(w_stack, target_covs, noise_cov, on_wz_update=None):
    """One sweep with a background refresh after every target row.

    Keeps the orthogonal constraint satisfied at every intermediate
    state, which is what allows the determinant to stay in closed form.
    Coincides with ip1_sweep when there is a single target.
    """
    w = np.array(w_stack, copy=True)
    n_targets = target_covs.shape[0]
    for k in range(n_targets):
        w[..., :, k] = ip0_update_row(w, target_covs[k], k)
        w[..., :, n_targets:] = update_wz_fast(w[..., :, :n_targets], noise_cov)
        if on_wz_update is not None:
            on_wz_update(w, noise_cov)
    return w


def auxiva_sweep(w_stack, target_covs, noise_cov):
    """One determined-style sweep over all M rows.

    Rows past the targets use the unweighted mixture covariance as their
    auxiliary matrix, matching the stationary unit-variance model.

    Each row takes ip0_update_row's update, w_k = u / sqrt(q) with
    u = G^{-1} a_k, a_k = W^{-H} e_k and q = a_k^H u, without its LU
    solve of W^H G. A = W^{-H} comes from one LU solve at the start of
    the sweep and follows each new column by a rank-one (Sherman-Morrison)
    update; the noise rows share one inverse of G_z. Per sweep that is
    K + 2 batched LU solves (K + 1 when K = M) instead of M.
    """
    w = np.array(w_stack, copy=True)
    m = w.shape[-1]
    n_targets = target_covs.shape[0]
    eye = np.eye(m)
    a = linalg.lu_solve(hermitian_transpose(w), eye)
    if n_targets < m:
        gz_inv = linalg.lu_solve(noise_cov, eye)
    for k in range(m):
        ak = a[..., :, k, None]
        if k < n_targets:
            u = linalg.lu_solve(target_covs[k], ak)
        else:
            u = gz_inv @ ak
        q = (hermitian_transpose(ak) @ u)[..., 0, 0].real
        _require_positive(q, "normalization quadratic is not positive")
        root = np.sqrt(q)[..., None, None]
        new = u / root
        if k < m - 1:
            # W^H changes by e_k d^H, and w_k,new^H a_k = sqrt(q).
            d = new - w[..., :, k, None]
            a -= (ak / root) @ (hermitian_transpose(d) @ a)
        w[..., :, k] = new[..., 0]
    return w


def ip2_update(target_cov, noise_cov):
    """Single-target filter from the largest eigenpair of (G_z, G_1).

    The maximizing direction u of the generalized Rayleigh quotient
    u^H G_z u / u^H G_1 u, rescaled so w^H G_1 w = 1. Jointly with the
    completed background this is the global per-bin minimizer of the
    surrogate, and coincides with a maximum-SNR beamformer up to scale.
    """
    _, u = linalg.gev_largest(noise_cov, target_cov)
    q = _quad(u, target_cov)
    _require_positive(
        q, "target covariance is not positive along the extracted direction"
    )
    return u / np.sqrt(q)[..., None]


def projection_back(w_stack, x, k):
    """Spatial image of output k on the array.

    Undoes the arbitrary per-bin scale of the demixing filters by mapping
    the output back through the mixing system estimate: the image is
    (W^{-H} e_k) (w_k^H x), the rank-one component of x captured by
    output k. Summed over all M outputs the images reconstruct x.

    x : (..., M) vectors or (..., T, M) frames matching w_stack's batch.
    """
    mats = np.asarray(w_stack)
    x = np.asarray(x)
    m = mats.shape[-1]
    a = linalg.lu_solve(hermitian_transpose(mats), np.eye(m)[:, k])
    wk = mats[..., :, k]
    if x.ndim == mats.ndim - 1:
        s = np.einsum("...m,...m->...", np.conj(wk), x)
        return a * s[..., None]
    if x.ndim != mats.ndim:
        raise ShapeMismatch(
            f"signal shape {x.shape} does not match stack shape {mats.shape}"
        )
    s = np.einsum("...m,...tm->...t", np.conj(wk), x)
    return s[..., None] * a[..., None, :]


def _top_indices(powers, n_pick):
    """Indices of the n_pick largest powers, descending.

    Stable ordering: ties resolve to the lowest index.
    """
    order = np.argsort(-np.asarray(powers), kind="stable")
    return tuple(int(i) for i in order[:n_pick])


def _bin_chunks(n_bins, n_chunks):
    edges = np.linspace(0, n_bins, min(n_chunks, n_bins) + 1).astype(int)
    return [slice(a, b) for a, b in zip(edges[:-1], edges[1:]) if b > a]


def _shift_bin(exc, offset):
    """Re-raise a numerical error with the batch index mapped to its bin."""
    idx = exc.batch_index
    bin_idx = None if idx is None else offset + idx
    where = "unknown" if bin_idx is None else str(bin_idx)
    return type(exc)(f"frequency bin {where}: {exc}", batch_index=bin_idx)


def _unmask(exc, mask):
    """Map the batch index of an error raised on a[mask] to its index in a."""
    idx = exc.batch_index
    idx = None if idx is None else int(np.flatnonzero(mask)[idx])
    return type(exc)(str(exc), batch_index=idx)


def _sweep_bins(method, w, target_covs, noise_cov, ok, on_wz_update):
    """Dispatch one sweep on a chunk, skipping background updates on
    bins whose mixture covariance is identically zero."""
    if not np.any(ok):
        return _rows_only(method, w, target_covs, noise_cov)
    if np.all(ok):
        if method is Method.AUXIVA:
            return auxiva_sweep(w, target_covs, noise_cov)
        if method is Method.IP1:
            return ip1_sweep(w, target_covs, noise_cov, on_wz_update)
        if method is Method.IP3:
            return ip3_sweep(w, target_covs, noise_cov, on_wz_update)
        return _ip2_rows(w, target_covs, noise_cov)
    out = np.array(w, copy=True)
    for mask in (ok, ~ok):
        try:
            out[mask] = _sweep_bins(
                method, w[mask], target_covs[:, mask], noise_cov[mask],
                ok[mask], on_wz_update,
            )
        except NumericalError as exc:
            raise _unmask(exc, mask) from None
    return out


def _ip2_rows(w, target_covs, noise_cov):
    out = np.array(w, copy=True)
    out[..., :, 0] = ip2_update(target_covs[0], noise_cov)
    return out


def _rows_only(method, w, target_covs, noise_cov):
    """Target-row updates only, for degenerate (zero-power) bins."""
    if method is Method.IP2:
        return _ip2_rows(w, target_covs, noise_cov)
    out = np.array(w, copy=True)
    for k in range(target_covs.shape[0]):
        out[..., :, k] = ip0_update_row(out, target_covs[k], k)
    return out


def _bin_cost(w, target_covs, ridge, noise_cov, profiled, logdet_gz):
    """Per-bin objective, (F,), less the factor T and the variance term.

    sum_k w_k^H (G_k - ridge_k I) w_k plus, on profiled bins (G_z
    regular), the background term minimized over the block at fixed span,
    (M - K) + log det G_z - log det(W_s^H G_z W_s) (what update_wz_full
    attains); elsewhere the explicit tr(W_z^H G_z W_z) - 2 log|det W|.
    ridge : the scalar ridge weighted_covariance added to G_k.
    """
    n_targets = target_covs.shape[0]
    ws = w[..., :, :n_targets]
    cost = _quad(np.moveaxis(ws, -1, 0), target_covs).sum(axis=0)
    cost -= np.sum(ridge * np.sum(np.abs(ws) ** 2, axis=-2).T, axis=0)
    if np.any(profiled):
        wp = ws[profiled]
        gram = hermitian_transpose(wp) @ noise_cov[profiled] @ wp
        cost[profiled] += (
            w.shape[-1] - n_targets
            + logdet_gz[profiled]
            - _masked_logabsdet(gram, profiled)
        )
    explicit = ~profiled
    if np.any(explicit):
        we = w[explicit]
        wz = we[..., :, n_targets:]
        tr = np.sum(np.conj(wz) * (noise_cov[explicit] @ wz), axis=(-2, -1))
        cost[explicit] += tr.real - 2.0 * _masked_logabsdet(we, explicit)
    return cost


def _masked_logabsdet(a, mask):
    """logabsdet of a = b[mask], with errors indexed into b."""
    try:
        return linalg.logabsdet(a)
    except NumericalError as exc:
        raise _unmask(exc, mask) from None


def run(x, n_targets, config=RunConfig(), on_wz_update=None):
    """Extract n_targets sources from a mixture spectrogram.

    Alternates closed-form variance updates with one demixing sweep of
    the configured schedule, normalizing the per-target scales each
    iteration, then projects the target outputs back onto the array.
    For the auxiva baseline all M outputs are demixed and the n_targets
    most powerful images are kept; the returned stack's columns are
    reordered so the kept filters come first.

    Parameters
    ----------
    x : Spectrogram or (F, T, M) complex array
    n_targets : number of sources to extract (K)
    config : RunConfig
    on_wz_update : callable, optional
        Diagnostic hook forwarded to the sweeps, called as
        on_wz_update(w_chunk, noise_cov_chunk) after every background
        update (per frequency chunk when threads > 1). Read-only.

    Returns
    -------
    SeparationResult

    Raises ValueError naming the first non-finite entry of an array x.
    """
    data = model._spec_data(x)
    n_bins, n_frames, n_chan = data.shape
    # A Spectrogram was checked when it was built.
    if not isinstance(x, Spectrogram):
        bad = ~np.isfinite(data)
        if np.any(bad):
            f, t, c = np.unravel_index(np.argmax(bad), data.shape)
            raise ValueError(
                f"input is not finite at frequency bin {f}, frame {t}, "
                f"channel {c}"
            )
    method = config.method
    if n_targets < 1:
        raise InvalidK(f"n_targets must be >= 1, got {n_targets}")
    if method is Method.IP2 and n_targets != 1:
        raise InvalidK("ip2 requires K=1")
    if method is Method.AUXIVA:
        if n_targets > n_chan:
            raise InvalidK(f"K={n_targets} exceeds {n_chan} channels")
    elif n_targets >= n_chan:
        raise InvalidK(
            f"{method.value} needs a nonempty background: K={n_targets} "
            f"must be < M={n_chan}"
        )

    t0 = time.perf_counter()
    pool = ThreadPoolExecutor(config.threads) if config.threads > 1 else None
    try:
        noise_cov = model.noise_covariance(data)
        live = np.einsum("fmm->f", noise_cov).real > 0.0
        sign, logdet_gz = np.linalg.slogdet(noise_cov)
        profiled = (sign != 0) & (method is not Method.AUXIVA)
        bin_cost = np.empty(n_bins)
        w = np.tile(np.eye(n_chan, dtype=np.complex128), (n_bins, 1, 1))
        chunks = _bin_chunks(n_bins, config.threads)
        targets_buf = np.empty((n_bins, n_frames, n_targets), dtype=np.complex128)
        cost_trace = []

        def map_chunks(fn):
            if pool is None:
                for sl in chunks:
                    fn(sl)
            else:
                list(pool.map(fn, chunks))

        def stage_demix(sl):
            # np.conj allocates a fresh, C-contiguous conj(W_s).
            ws = np.conj(w[sl, :, :n_targets])
            np.matmul(data[sl], ws, out=targets_buf[sl])

        for _ in range(config.iterations):
            map_chunks(stage_demix)
            lam = model.update_variances(
                targets_buf.transpose(2, 0, 1), config.eps1
            )

            def stage_sweep(sl, lam=lam):
                covs = np.stack(
                    [
                        model.weighted_covariance(data[sl], lam[k], config.eps2)
                        for k in range(n_targets)
                    ]
                )
                try:
                    w[sl] = _sweep_bins(
                        method, w[sl], covs, noise_cov[sl], live[sl],
                        on_wz_update,
                    )
                    bin_cost[sl] = _bin_cost(
                        w[sl], covs, config.eps2, noise_cov[sl], profiled[sl],
                        logdet_gz[sl],
                    )
                except NumericalError as exc:
                    raise _shift_bin(exc, sl.start) from None

            map_chunks(stage_sweep)
            # Taken before the rescale below, which leaves it unchanged.
            cost_trace.append(
                float(n_frames * bin_cost.sum() + n_bins * np.sum(np.log(lam)))
            )
            scale = lam.mean(axis=1)
            w[:, :, :n_targets] *= scale ** -0.5
            if config.convergence_delta is not None and len(cost_trace) >= 2:
                prev, cur = cost_trace[-2], cost_trace[-1]
                if abs(prev - cur) <= config.convergence_delta * abs(prev):
                    break

        if method is Method.IP2 and n_targets < n_chan and np.any(live):
            try:
                w[live, :, n_targets:] = update_wz_fast(
                    w[live, :, :n_targets], noise_cov[live]
                )
            except NumericalError as exc:
                raise _shift_bin(_unmask(exc, live), 0) from None
        # Filled in place: stacking a list of K images would hold 2K.
        images = np.empty((n_targets,) + data.shape, dtype=np.complex128)
        if method is Method.AUXIVA:
            w = _auxiva_images(w, data, images)
        else:
            for k in range(n_targets):
                images[k] = projection_back(w, data, k)
    finally:
        if pool is not None:
            pool.shutdown()

    return SeparationResult(
        demixing=DemixingStack(w, n_targets),
        images=images,
        cost_trace=np.array(cost_trace),
        wall_time=time.perf_counter() - t0,
    )


def _auxiva_images(w, data, images):
    """Project back all M outputs, write the strongest len(images) into
    images, and return the stack reordered so their filters come first."""
    n_chan = w.shape[-1]
    mixing = linalg.lu_solve(hermitian_transpose(w), np.eye(n_chan))
    outputs = data @ np.conj(w)
    filter_pow = np.sum(np.abs(mixing) ** 2, axis=-2)
    output_pow = np.sum(np.abs(outputs) ** 2, axis=1)
    powers = np.sum(filter_pow * output_pow, axis=0)
    picked = _top_indices(powers, len(images))
    for image, j in zip(images, picked):
        np.multiply(outputs[:, :, j, None], mixing[:, None, :, j], out=image)
    rest = [j for j in range(n_chan) if j not in picked]
    return w[:, :, list(picked) + rest]
