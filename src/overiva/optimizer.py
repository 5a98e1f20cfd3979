"""Block coordinate descent schedules for overdetermined source extraction.

Four schedules share the same per-bin building blocks:

- ``auxiva``: iterative-projection row updates cycled over all M outputs,
  with the unweighted mixture covariance standing in for the background
  rows. W^{-H} is inverted once per sweep and kept current by a rank-one
  update after each row, so a sweep costs K + 1 batched LU solves (one of
  W^H, one per target) plus O(M^2) work per row and bin; the inverse of
  the mixture covariance is formed once per run. All M - K background
  rows share that covariance, so for K < M the iterates equal ip1's up
  to rounding: this is ip1 reached by M - K row updates instead of one
  block update, not a determined-IVA baseline.
- ``ip1``: row updates for the K targets followed by one orthogonal-
  complement background update per sweep.
- ``ip2``: single-target extraction (K = 1) via the largest eigenpair of
  the pencil (G_z, G_1). G_z = R R^H is factored once per run and each
  step is one ip2_update(G_1, R): one Cholesky factorization of G_1, one
  inverse of that factor and one eigh; the background block is
  materialized once after the loop.
- ``ip3``: row updates interleaved with a background refresh after every
  target, keeping the background orthogonally constrained throughout.

All update functions are pure: they take stacked arrays with leading
batch axes (one entry per frequency bin) and return new arrays.

The mixture covariance G_z does not change during a run, so run() forms
what a sweep reads of it (_noise_operand: G_z, its factor or its
inverse) once, before the iteration loop, and hands each frequency
chunk its slice. Silent bins (all-zero input, G_z = 0) take the same
sweep as every other bin, with G_z read as the identity there; their
images are zero whatever the filters.

run() records the negative log-likelihood once per iteration from what
the sweep has already computed, with no second pass over the
covariances (_bin_cost): the sweeps' row normalizations fix the
quadratic terms, and the log-determinant comes from the Gram matrix
W_s^H G_z W_s the background update forms (ip1, ip3), from ip2's
eigenvalue, or from log|det W| carried across auxiva's row updates.
ip1, ip2 and ip3 profile out the background block, which only matters
through its span. Only their bins with a singular G_z (silent, or with
a copied channel) take a determinant of W.

After the loop run() returns each target's image in factored form. In
every bin the image of output k is rank one, (W^{-H} e_k)(w_k^H x): the
mixing column times the output spectrum (_image_factors, from which
projection_back forms its image too). run() keeps the K mixing columns
and output spectra, bins innermost, and forms no (K, F, T, M) stack:
stft.istft synthesizes an image from its factors (stft.RankOneImage),
and SeparationResult.images forms the dense stack only when read.
auxiva first reorders the stack's columns so the K outputs with the
most powerful images lead (_auxiva_order), ranked from G_z without
demixing all M outputs.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

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
from .stft import Spectrogram, _require_finite


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

    iterations defaults to DEFAULT_ITERATIONS of the method; the run
    takes exactly that many. threads > 1 splits the frequency axis
    across a thread pool; images and cost trace are identical to the
    sequential run.
    """

    method: Method = Method.IP1
    iterations: int = None
    eps1: float = model.EPS_VARIANCE
    eps2: float = model.EPS_RIDGE
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
        if self.threads < 1:
            raise ValueError("threads must be >= 1")


@dataclass
class SeparationResult:
    """Outcome of a separation run.

    demixing : DemixingStack with the target filters in the leading columns
    mixing : (K, M, F) mixing column W^{-H} e_k of each target per bin
    outputs : (K, T, F) output spectrum w_k^H x of each target
        Target k's image is outputs[k, t, f] * mixing[k, :, f] in bin f
        and frame t; stft.RankOneImage(mixing[k], outputs[k]) hands it
        to istft without forming it.
    cost_trace : per-iteration values of the objective with the
        background profiled (see the module docstring)
    wall_time : seconds spent in run(): covariances, sweeps, the
        per-iteration cost trace and the image factors (excludes STFT,
        file I/O and the dense images, formed when images is first read)
    """

    demixing: DemixingStack
    mixing: np.ndarray
    outputs: np.ndarray
    cost_trace: np.ndarray
    wall_time: float

    @cached_property
    def images(self):
        """(K, F, T, M) spatial images of the targets on the array.

        Formed from the factors on first access and kept. A view of a
        (K, T, M, F) array: bins are innermost in memory, so istft reads
        each image without a copy.
        """
        n_targets, n_chan, n_bins = self.mixing.shape
        stack = np.empty(
            (n_targets, self.outputs.shape[1], n_chan, n_bins),
            dtype=np.complex128,
        )
        np.multiply(self.outputs[:, :, None, :], self.mixing[:, None], out=stack)
        return stack.transpose(0, 3, 1, 2)


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


def update_wz_fast(w_targets, noise_cov, return_gram=False):
    """Orthogonal-complement background block, (..., M, M - K).

    Returns [-(W_s^H G_z E_s)^{-1} (W_s^H G_z E_z); I], the unique
    background with trailing identity rows whose outputs are uncorrelated
    with the targets: W_s^H G_z W_z = 0 exactly. Spans the same subspace
    as the fully normalized block (their column-space projectors agree).

    With return_gram, also returns the Gram matrix W_s^H G_z W_s,
    (..., K, K), from the product W_s^H G_z the block is solved from.
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
    block = np.concatenate([top, eye], axis=-2)
    return (block, c @ w_targets) if return_gram else block


def ip1_sweep(w_stack, target_covs, noise_cov):
    """One sweep: all K target rows, then one background update.

    target_covs : (K, ..., M, M) weighted covariances; noise_cov :
    (..., M, M). Returns the updated stack and the Gram matrix
    W_s^H G_z W_s of its targets, (..., K, K), as update_wz_fast formed
    it (None when K = M).
    """
    w = np.array(w_stack, copy=True)
    n_targets = target_covs.shape[0]
    for k in range(n_targets):
        w[..., :, k] = ip0_update_row(w, target_covs[k], k)
    gram = None
    if n_targets < w.shape[-1]:
        w[..., :, n_targets:], gram = update_wz_fast(
            w[..., :, :n_targets], noise_cov, return_gram=True
        )
    return w, gram


def ip3_sweep(w_stack, target_covs, noise_cov):
    """One sweep with a background refresh after every target row.

    Keeps the orthogonal constraint satisfied at every intermediate
    state, which is what allows the determinant to stay in closed form.
    Coincides with ip1_sweep when there is a single target. Returns the
    updated stack and, as ip1_sweep, its Gram matrix W_s^H G_z W_s (the
    last refresh's).
    """
    w = np.array(w_stack, copy=True)
    n_targets = target_covs.shape[0]
    for k in range(n_targets):
        w[..., :, k] = ip0_update_row(w, target_covs[k], k)
        w[..., :, n_targets:], gram = update_wz_fast(
            w[..., :, :n_targets], noise_cov, return_gram=True
        )
    return w, gram


def auxiva_sweep(w_stack, target_covs, noise_inv):
    """One determined-style sweep over all M rows.

    Rows past the targets use the unweighted mixture covariance as their
    auxiliary matrix, matching the stationary unit-variance model.

    Each row takes ip0_update_row's update, w_k = u / sqrt(q) with
    u = G^{-1} a_k, a_k = W^{-H} e_k and q = a_k^H u, without its LU
    solve of W^H G. A = W^{-H} comes from one LU solve at the start of
    the sweep and follows each new column by a rank-one (Sherman-Morrison)
    update; the noise rows share noise_inv, the inverse of G_z,
    (..., M, M), which run() forms once per run (it is not read when
    K = M). Per sweep that is K + 1 batched LU solves instead of M.

    Returns the updated stack and its log|det W| less that of w_stack,
    (...), found without forming a determinant:
    with W^H a_k = e_k, the matrix determinant lemma makes each row
    update multiply det W by a_k^H w_k,new = sqrt(q), so the change is
    the sum of log(q) / 2 over the rows.
    """
    w = np.array(w_stack, copy=True)
    m = w.shape[-1]
    n_targets = target_covs.shape[0]
    logdet_change = np.zeros(w.shape[:-2])
    a = linalg.lu_solve(hermitian_transpose(w), np.eye(m))
    for k in range(m):
        ak = a[..., :, k, None]
        if k < n_targets:
            u = linalg.lu_solve(target_covs[k], ak)
        else:
            u = noise_inv @ ak
        q = (hermitian_transpose(ak) @ u)[..., 0, 0].real
        _require_positive(q, "normalization quadratic is not positive")
        logdet_change += 0.5 * np.log(q)
        root = np.sqrt(q)[..., None, None]
        new = u / root
        if k < m - 1:
            # W^H changes by e_k d^H, and w_k,new^H a_k = sqrt(q).
            d = new - w[..., :, k, None]
            a -= (ak / root) @ (hermitian_transpose(d) @ a)
        w[..., :, k] = new[..., 0]
    return w, logdet_change


def ip2_update(target_cov, noise_root):
    """Single-target filter from the largest eigenpair of (G_z, G_1).

    The maximizing direction u of the generalized Rayleigh quotient
    u^H G_z u / u^H G_1 u, rescaled so w^H G_1 w = 1. Jointly with the
    completed background this is the global per-bin minimizer of the
    surrogate, and coincides with a maximum-SNR beamformer up to scale.

    noise_root : a factor R of G_z = R R^H (linalg.psd_factor), which
    run() forms once per run. One step costs a Cholesky factorization of
    G_1 (with its Hermitian and positive-definiteness checks), one
    inverse of that factor and one eigh (linalg.gev_largest_factored);
    nothing is formed from G_z. Tie rule: among exactly tied largest
    eigenvalues the lowest index of the reduced problem's ascending
    ordering wins, as in linalg.gev_largest, so a zero G_z, where every
    eigenvalue is 0, gives w along e_1.

    Returns w, (..., M), and the largest eigenvalue lambda, (...), which
    is w^H G_z w of that w.
    """
    value, u = linalg.gev_largest_factored(noise_root, target_cov)
    q = _quad(u, target_cov)
    _require_positive(
        q, "target covariance is not positive along the extracted direction"
    )
    return u / np.sqrt(q)[..., None], value


def _image_factors(w_stack, x, k, a=None):
    """The two factors of output k's image: its mixing column
    a = W^{-H} e_k, (..., M), solved for unless given, and its output
    s = w_k^H x, (...) for vectors x (..., M) or (..., T) for frames
    x (..., T, M)."""
    mats = np.asarray(w_stack)
    x = np.asarray(x)
    if x.ndim not in (mats.ndim - 1, mats.ndim):
        raise ShapeMismatch(
            f"signal shape {x.shape} does not match stack shape {mats.shape}"
        )
    if a is None:
        m = mats.shape[-1]
        a = linalg.lu_solve(hermitian_transpose(mats), np.eye(m)[:, k])
    wk = np.conj(mats[..., :, k])
    if x.ndim == mats.ndim - 1:
        return a, np.einsum("...m,...m->...", wk, x)
    return a, np.einsum("...m,...tm->...t", wk, x)


def projection_back(w_stack, x, k):
    """Spatial image of output k on the array.

    Undoes the arbitrary per-bin scale of the demixing filters by mapping
    the output back through the mixing system estimate: the image is
    (W^{-H} e_k) (w_k^H x), the rank-one component of x captured by
    output k. Summed over all M outputs the images reconstruct x.

    x : (..., M) vectors or (..., T, M) frames matching w_stack's batch;
    the image has x's shape.
    """
    a, s = _image_factors(w_stack, x, k)
    if s.ndim < a.ndim:
        return a * s[..., None]
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


def _noise_operand(method, sweep_cov, n_targets):
    """What a method's sweep reads of the fixed G_z, formed once per run.

    sweep_cov is G_z with the identity on silent bins (see run()). The
    operand is sweep_cov itself for ip1 and ip3, a factor R of
    sweep_cov = R R^H for ip2 (linalg.psd_factor), and its inverse for
    auxiva's background rows (sweep_cov, unread, when K = M).
    """
    n_chan = sweep_cov.shape[-1]
    if method is Method.IP1 or method is Method.IP3 or n_targets == n_chan:
        return sweep_cov
    try:
        if method is Method.IP2:
            return linalg.psd_factor(sweep_cov)
        return linalg.lu_solve(sweep_cov, np.eye(n_chan))
    except NumericalError as exc:
        raise _shift_bin(exc, 0) from None


def _sweep_bins(method, w, target_covs, noise):
    """One sweep on a chunk; noise is the chunk's slice of _noise_operand.

    Returns the new stack and what _bin_cost reads of the sweep: for ip1
    and ip3 the Gram matrix W_s^H G_z W_s of the new stack, (..., K, K);
    for ip2 its one entry lambda, (...); for auxiva the change of
    log|det W|, (...).
    """
    if method is Method.AUXIVA:
        return auxiva_sweep(w, target_covs, noise)
    if method is Method.IP2:
        out = np.array(w, copy=True)
        out[..., :, 0], value = ip2_update(target_covs[0], noise)
        return out, value
    sweep = ip1_sweep if method is Method.IP1 else ip3_sweep
    return sweep(w, target_covs, noise)


def _bin_cost(method, w, n_targets, ridge, swept, offset, noise_cov, profiled):
    """Per-bin objective, (F,), less the factor T and the variance term,
    from what the sweep computed; no covariance is read on a bin whose
    G_z is regular.

    The target term is sum_k w_k^H (G_k - ridge I) w_k, with ridge the
    scalar weighted_covariance added to G_k. Every sweep normalizes each
    target row with its own G_k (ip0_update_row, auxiva_sweep's rows,
    ip2_update), and run() reads the cost before its rescale, so
    w_k^H G_k w_k = 1 and the term is K - ridge sum_k ||w_k||^2. On a
    silent bin, G_k = ridge I and both forms are 0.

    auxiva's background term is tr(W_z^H G_z W_z) - 2 log|det W|. The
    trace is offset: M - K on live bins, where each background row is
    normalized with G_z, and 0 on silent bins, whose G_z is 0. swept is
    log|det W|, which run() carries from W = I through every row update
    (auxiva_sweep) and rescale.

    ip1, ip2 and ip3 profile the background on bins whose G_z is regular
    (profiled): the term minimized over the block at fixed span,
    (M - K) + log det G_z - log det(W_s^H G_z W_s), which update_wz_full
    attains. offset holds its first two terms and swept the sweep's Gram
    matrix (_sweep_bins). On the other bins, silent or with a copied
    channel, the term is the explicit tr(W_z^H G_z W_z) - 2 log|det W|,
    the only place the trace takes a determinant of W.

    On a bin whose G_z is regular but ill-conditioned, the row
    normalizations hold only to about cond(G_z) eps, and the bin's term
    carries an error of that order, as the explicit formula's does.
    """
    if method is Method.AUXIVA:
        background = offset - 2.0 * swept
    else:
        background = offset.copy()
        if method is Method.IP2:
            background[profiled] -= np.log(swept[profiled])
        else:
            background[profiled] -= _masked_logabsdet(swept, profiled)
        explicit = ~profiled
        if np.any(explicit):
            wz = w[explicit][..., :, n_targets:]
            tr = np.sum(np.conj(wz) * (noise_cov[explicit] @ wz), axis=(-2, -1))
            background[explicit] += tr.real - 2.0 * _masked_logabsdet(w, explicit)
    ws = w[..., :, :n_targets]
    return n_targets - ridge * np.sum(np.abs(ws) ** 2, axis=(-2, -1)) + background


def _masked_logabsdet(a, mask):
    """logabsdet of a[mask], with errors indexed into a; a itself, not a
    copy, when mask is all True."""
    if np.all(mask):
        return linalg.logabsdet(a)
    try:
        return linalg.logabsdet(a[mask])
    except NumericalError as exc:
        raise _unmask(exc, mask) from None


def check_targets(method, n_targets, n_chan):
    """Raise InvalidK unless method can extract n_targets sources from
    n_chan channels: ip2 takes K = 1 only, auxiva any 1 <= K <= M, and
    ip1 and ip3 need a nonempty background, 1 <= K < M."""
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


def run(x, n_targets, config=RunConfig()):
    """Extract n_targets sources from a mixture spectrogram.

    Alternates closed-form variance updates with one demixing sweep of
    the configured schedule, normalizing the per-target scales each
    iteration, for exactly config.iterations iterations (the cost trace
    is recorded, never read back). Then projects the target outputs back
    onto the array, returning each image as its two rank-one factors
    (SeparationResult).
    For the auxiva baseline all M outputs are updated and the n_targets
    with the most powerful images are kept; the returned stack's columns
    are reordered so the kept filters come first.

    Parameters
    ----------
    x : Spectrogram or (F, T, M) complex array
    n_targets : number of sources to extract (K)
    config : RunConfig

    Returns
    -------
    SeparationResult

    Raises InvalidK (check_targets), and ValueError naming the first
    non-finite entry of an array x.
    """
    data = model._spec_data(x)
    n_bins, n_frames, n_chan = data.shape
    # A Spectrogram was checked when it was built.
    if not isinstance(x, Spectrogram):
        _require_finite(data)
    method = config.method
    check_targets(method, n_targets, n_chan)

    t0 = time.perf_counter()
    pool = ThreadPoolExecutor(config.threads) if config.threads > 1 else None
    try:
        noise_cov = model.noise_covariance(data)
        # On a silent bin x = 0 and every G_k = eps2 I, so its images are
        # zero whatever its filters: the sweeps may read I for its G_z = 0
        # (the cost reads the true G_z).
        silent = np.einsum("fmm->f", noise_cov).real == 0.0
        sweep_cov = noise_cov
        if np.any(silent):
            sweep_cov = noise_cov.copy()
            sweep_cov[silent] = np.eye(n_chan)
        noise = _noise_operand(method, sweep_cov, n_targets)
        # The part of each bin's background cost fixed for the run
        # (_bin_cost).
        n_background = n_chan - n_targets
        if method is Method.AUXIVA:
            # log|det W| per bin, carried from W = I through the sweeps
            # and rescales.
            logdet_w = np.zeros(n_bins)
            profiled = np.zeros(n_bins, dtype=bool)
            offset = np.where(silent, 0.0, float(n_background))
        else:
            sign, offset = np.linalg.slogdet(noise_cov)
            profiled = sign != 0
            offset[profiled] += n_background
            offset[~profiled] = 0.0
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
                    w[sl], swept = _sweep_bins(method, w[sl], covs, noise[sl])
                    if method is Method.AUXIVA:
                        logdet_w[sl] += swept
                        swept = logdet_w[sl]
                    bin_cost[sl] = _bin_cost(
                        method, w[sl], n_targets, config.eps2, swept,
                        offset[sl], noise_cov[sl], profiled[sl],
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
            if method is Method.AUXIVA:
                logdet_w -= 0.5 * np.sum(np.log(scale))

        if method is Method.IP2:
            try:
                w[:, :, 1:] = update_wz_fast(w[:, :, :1], sweep_cov)
            except NumericalError as exc:
                raise _shift_bin(exc, 0) from None
        kept = None
        if method is Method.AUXIVA:
            order, kept = _auxiva_order(w, noise_cov, n_targets)
            w = w[:, :, order]
        # The factors are the last arrays of the run, so the demixed
        # targets of the last iteration need not be held beside them.
        del targets_buf
        mixing = np.empty((n_targets, n_chan, n_bins), dtype=np.complex128)
        outputs = np.empty((n_targets, n_frames, n_bins), dtype=np.complex128)
        for k in range(n_targets):
            # Unbound once copied: one output spectrum is transient at a time.
            a = None if kept is None else kept[:, :, k]
            mixing[k], outputs[k] = map(
                np.transpose, _image_factors(w, data, k, a)
            )
    finally:
        if pool is not None:
            pool.shutdown()

    return SeparationResult(
        demixing=DemixingStack(w, n_targets),
        mixing=mixing,
        outputs=outputs,
        cost_trace=np.array(cost_trace),
        wall_time=time.perf_counter() - t0,
    )


def _auxiva_order(w, noise_cov, n_targets):
    """Column order that puts the n_targets outputs with the most powerful
    images first (ties to the lowest index), then the rest in order, and
    the mixing columns W^{-H} e_j of those n_targets outputs, (F, M, K),
    in that order: permuting W's columns permutes W^{-H}'s the same way,
    so the reordered stack's image factors need no second solve.

    In bin f, output j's image has power |a_j|^2 sum_t |w_j^H x_t|^2
    = T |a_j|^2 w_j^H G_z w_j, with a_j = W^{-H} e_j and G_z = noise_cov;
    T is the same for every output and is left out, and no output is
    demixed.
    """
    n_chan = w.shape[-1]
    mixing = linalg.lu_solve(hermitian_transpose(w), np.eye(n_chan))
    filter_pow = np.sum(np.abs(mixing) ** 2, axis=-2)
    output_pow = _quad(np.moveaxis(w, -1, 0), noise_cov).T
    powers = np.sum(filter_pow * output_pow, axis=0)
    picked = _top_indices(powers, n_targets)
    order = list(picked) + [j for j in range(n_chan) if j not in picked]
    return order, mixing[:, :, list(picked)]
