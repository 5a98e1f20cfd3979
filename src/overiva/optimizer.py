"""Block coordinate descent schedules for overdetermined source extraction.

Four schedules share the same per-bin building blocks:

- ``auxiva``: iterative-projection row updates cycled over all M outputs,
  with the unweighted mixture covariance standing in for the background
  rows. W^{-H} is carried across sweeps, kept current by a rank-one
  update after each row and solved afresh from W once every
  AUXIVA_REFRESH_SWEEPS sweeps, so a sweep costs K batched LU solves (one
  per target) plus O(M^2) work per row and bin; the inverse of the
  mixture covariance is formed once per run. All M - K background
  rows share that covariance, so for K < M the iterates equal ip1's up
  to rounding: this is ip1 reached by M - K row updates instead of one
  block update, not a determined-IVA baseline.
- ``ip1``: row updates for the K targets followed by one orthogonal-
  complement background update per sweep.
- ``ip2``: single-target extraction (K = 1) via the largest eigenpair of
  the pencil (G_z, G_1). Each sweep (ip2_sweep) is one ip2_update(G_1,
  G_z): one Cholesky factorization of G_1, one inverse of that factor,
  two matmuls and one eigh (linalg.gev_largest), followed by ip1's
  orthogonal-complement background update.
- ``ip3``: row updates interleaved with a background refresh after every
  target, keeping the background orthogonally constrained throughout.

The row and background updates (ip0_update_row, update_wz_fast,
update_wz_full, ip2_update) are pure: they take stacked arrays with
leading batch axes (one entry per frequency bin) and return new arrays.
The sweeps are not: each updates the (..., M, M) stack it is handed in
place and returns it, and auxiva_sweep also the W^{-H} it carries. run()
hands a sweep its chunk's slice of W (and of W^{-H}), so it holds each
once, with no chunk-sized copy beside it and nothing to copy back.

Each iteration starts from the target variances, the mean over bins of
|w_k^H x|^2 floored at eps1 (model.update_variances, once per
iteration). It demixes fixed blocks of bins (stft.blocks, set by the
data's shape) into a small scratch and adds the bins one at a time in
bin order. No (F, T, K) array of target outputs is formed, and the
variances, hence the images and cost trace, are the same bits at every
threads setting.

The sweeps run in frequency chunks at every threads setting (stft.blocks
of the bins): the fewest chunks that keep one (chunk, M, M) complex
array within stft.SCRATCH_BYTES, or threads of them if that is more,
each chunk's K weighted covariances being the K arrays of that many bins
that model.weighted_covariance returns. So a sweep's temporaries are
bounded by the budget, not by F M^2, and threads > 1 only runs the
chunks on a pool of at most as many workers as there are CPUs (none when
that is one). Every bin's arithmetic is the same in any chunk, so no
output depends on the chunking.

_schedule is the one place where a method's operand and sweep live;
run() compares no Method. G_z does not change during a run, so run()
forms the operand (G_z itself, or its inverse for auxiva) once, before
the loop, and hands each frequency chunk its slice, with its slice of
auxiva's carried W^{-H}. Every sweep leaves the whole stack, background
included, so the stack after the loop is the one run() returns; run()
frees the operand, W^{-H} and G_z before projection_back. Silent bins
(all-zero input, G_z = 0) take the same sweep as every other bin, with
G_z read as the identity there; their images are zero whatever the
filters.

run() records the negative log-likelihood once per iteration with one
formula for every method, from the stack and G_z alone, with no second
pass over the weighted covariances (_bin_cost): the sweeps' row
normalizations fix the quadratic terms, and on bins with a regular G_z
the background is profiled out, leaving log det(W_s^H G_z W_s) of the
K x K Gram matrix of the targets. The background block only matters
through its span, and auxiva's own background is the profiled optimum
after each sweep. Only bins with a singular G_z (silent, or with a
copied channel), told by G_z's eigenvalues (linalg.psd_logdet), take a
determinant of W.

After the loop run() returns each target's image in factored form. In
every bin the image of output k is rank one, (W^{-H} e_k)(w_k^H x): the
mixing column times the output spectrum. One projection_back call per
run returns both factors for all K targets, the K mixing columns from
one LU solve of W^H and the K output spectra, bins innermost, each
written by matmul straight into place (no (F, T) transient). No
(K, F, T, M) stack is formed: stft.istft synthesizes an image from its
factors (stft.RankOneImage), and SeparationResult.images forms the
dense stack only when read. auxiva's targets are its leading K rows,
the ones with variance models; its background rows share the
stationary G_z, so the model has chosen the targets and no output is
ranked after the loop.
"""

from __future__ import annotations

import os
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
    check_number,
)
from .linalg import hermitian_transpose
from .model import DemixingStack
from .stft import Spectrogram, blocks


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

# auxiva carries W^{-H} across sweeps by rank-one updates and solves it
# afresh from W once every this many sweeps. Over 200 iterations on each
# perfbench workload's scene (0, 0) at K = M, against a solve in every
# sweep, relative to the largest image: without a refresh the images
# moved by 1.9e-2 to 1.7e2; refreshed every 8 sweeps, by 1.1e-11 to
# 6.1e-11, where a relative 1e-15 perturbation of the input moves the
# solve-every-sweep images by 1.6e-11 to 5.0e-11. At the workloads' own
# K < M, both moves stay below 4.3e-14.
AUXIVA_REFRESH_SWEEPS = 8


@dataclass(frozen=True)
class RunConfig:
    """Parameters of one separation run.

    iterations defaults to DEFAULT_ITERATIONS of the method; the run
    takes exactly that many. The sweeps run in frequency chunks at every
    setting (stft.blocks); threads > 1 makes at least that many chunks
    and runs them on a thread pool of min(threads, os.cpu_count())
    workers, or inline when that is one.
    Images and cost trace are identical at every setting. eps1 and eps2
    follow model._check_eps.
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
        for name in ("iterations", "threads"):
            value = check_number(name, getattr(self, name), integer=True)
            if value < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {value}")
            object.__setattr__(self, name, value)
        for name in ("eps1", "eps2"):
            value = model._check_eps(name, getattr(self, name))
            object.__setattr__(self, name, value)


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
    a = hermitian_transpose(w_stack) @ cov
    u = linalg.lu_solve(a, np.eye(m)[:, k, None])[..., 0]
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

    The block is [-(W_s^H G_z E_s)^{-1} (W_s^H G_z E_z); I], the unique
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
    block = np.concatenate([top, eye], axis=-2)
    return block


def ip1_sweep(w, target_covs, noise_cov):
    """One sweep: all K target rows, then one background update.

    w : (..., M, M), updated in place and returned; target_covs : K
    weighted covariances, (..., M, M) each (a list, or a stacked array);
    noise_cov : (..., M, M).
    """
    n_targets = len(target_covs)
    for k in range(n_targets):
        w[..., :, k] = ip0_update_row(w, target_covs[k], k)
    if n_targets < w.shape[-1]:
        w[..., :, n_targets:] = update_wz_fast(w[..., :, :n_targets], noise_cov)
    return w


def ip3_sweep(w, target_covs, noise_cov):
    """One sweep with a background refresh after every target row.

    Keeps the orthogonal constraint satisfied at every intermediate
    state, which is what allows the determinant to stay in closed form.
    Coincides with ip1_sweep when there is a single target. Takes the
    arguments of ip1_sweep, updates w in place and returns it.
    """
    n_targets = len(target_covs)
    for k in range(n_targets):
        w[..., :, k] = ip0_update_row(w, target_covs[k], k)
        w[..., :, n_targets:] = update_wz_fast(w[..., :, :n_targets], noise_cov)
    return w


def _require_inverse(inverse, w):
    """Raise SingularMatrix at the first batch entry where inverse, taken
    for (W^H)^{-1}, fails lu_solve's rule for a solve of W^H against the
    identity: max|A| max|W| SINGULARITY_RTOL <= 1 (a NaN fails)."""
    ok = (
        np.abs(inverse).max(axis=(-2, -1))
        * np.abs(w).max(axis=(-2, -1))
        * linalg.SINGULARITY_RTOL
        <= 1.0
    )
    if not np.all(ok):
        raise linalg._singular(linalg._first(~ok.ravel()))


def auxiva_sweep(w, target_covs, noise_inv, inverse):
    """One determined-style sweep over all M rows.

    Rows past the targets use the unweighted mixture covariance as their
    auxiliary matrix, matching the stationary unit-variance model.

    w : (..., M, M), updated in place and returned; target_covs : K
    weighted covariances, (..., M, M) each (a list, or a stacked array).
    Each row takes ip0_update_row's update, w_k = u / sqrt(q) with
    u = G^{-1} a_k, a_k = W^{-H} e_k and q = a_k^H u, without its LU
    solve of W^H G. inverse is A = W^{-H} of w, (..., M, M), as
    the last sweep left it (run() carries it across sweeps); it must
    pass lu_solve's singularity rule against W, else SingularMatrix. A
    follows each new column by a rank-one (Sherman-Morrison) update, in
    place, so it leaves the sweep as the new w's W^{-H}. The noise
    rows share noise_inv, the inverse of G_z, (..., M, M), which run()
    forms once per run (it is not read when K = M). A sweep therefore
    makes K batched LU solves, one per target, instead of M.

    Each noise row is solved from W^H G_z w_j = e_j (up to its scale)
    after every target, and each later row from the same condition with
    w_j in W, so after the sweep W_z^H G_z W_z = I and
    W_s^H G_z W_z = 0. The background is then the profiled optimum for
    the targets, and run() reads auxiva's cost with the same formula as
    every method's (_bin_cost).
    """
    _require_inverse(inverse, w)
    n_targets = len(target_covs)
    for k in range(w.shape[-1]):
        ak = inverse[..., :, k, None]
        if k < n_targets:
            u = linalg.lu_solve(target_covs[k], ak)
        else:
            u = noise_inv @ ak
        q = (hermitian_transpose(ak) @ u)[..., 0, 0].real
        _require_positive(q, "normalization quadratic is not positive")
        root = np.sqrt(q)[..., None, None]
        new = u / root
        # W^H changes by e_k d^H, and w_k,new^H a_k = sqrt(q).
        d = new - w[..., :, k, None]
        inverse -= (ak / root) @ (hermitian_transpose(d) @ inverse)
        w[..., :, k] = new[..., 0]
    return w


def ip2_update(target_cov, noise_cov):
    """Single-target filter from the largest eigenpair of (G_z, G_1).

    The maximizing direction u of the generalized Rayleigh quotient
    u^H G_z u / u^H G_1 u, rescaled so w^H G_1 w = 1. Jointly with the
    completed background this is the global per-bin minimizer of the
    surrogate, and coincides with a maximum-SNR beamformer up to scale.

    target_cov : G_1, (..., M, M); noise_cov : G_z, (..., M, M),
    positive semidefinite. One step is linalg.gev_largest(G_z, G_1): a
    Cholesky factorization of G_1 (with its checks), one inverse of that
    factor, two matmuls and one eigh, per bin on its own, so a singular
    G_z in one bin changes no other bin's filter. By gev_largest's tie
    rule a zero G_z, where every eigenvalue is 0, gives w along e_1.

    Returns w, (..., M).
    """
    _, u = linalg.gev_largest(noise_cov, target_cov)
    q = _quad(u, target_cov)
    _require_positive(
        q, "target covariance is not positive along the extracted direction"
    )
    return u / np.sqrt(q)[..., None]


def ip2_sweep(w, target_covs, noise_cov):
    """One ip2 sweep: ip2_update for the single target, then one
    background update. This is ip1_sweep at K = 1 with ip2's step in
    place of the row update, and takes its arguments (one target
    covariance); it updates w in place and returns it.
    """
    w[..., :, 0] = ip2_update(target_covs[0], noise_cov)
    w[..., :, 1:] = update_wz_fast(w[..., :, :1], noise_cov)
    return w


def projection_back(w_stack, x, n_targets):
    """Spatial images of the leading n_targets outputs on the array, as
    their two factors.

    Undoes the arbitrary per-bin scale of the demixing filters by mapping
    each output back through the mixing system estimate: the image of
    output k is (W^{-H} e_k) (w_k^H x), the rank-one component of x
    captured by output k. Summed over all M outputs the images
    reconstruct x. run() calls this once per run, for all K targets.

    w_stack : (F, M, M); x : (F, T, M) frames; n_targets : a Python or
    numpy integer, 1 <= K <= M (model._check_n_targets, else InvalidK).

    Returns mixing (K, M, F), the columns W^{-H} e_k from one LU solve
    of W^H against the first K columns of the identity, and outputs
    (K, T, F), the spectra w_k^H x; both hold the bins innermost. Target
    k's image is outputs[k, t, f] * mixing[k, :, f]
    (stft.RankOneImage holds it unformed).

    The solve comes first, so its scratch is freed before outputs is
    allocated. Each spectrum is one matrix-vector product per bin,
    x @ conj(w_k)[..., None], which matmul writes through out= straight
    into the strided (F, T) view of outputs[k]: no (F, T) transient. On
    a 2-core Xeon with one BLAS thread, into that view, it took 5.4 ms
    at F=2049, T=159, M=7 against 8.8 ms for an einsum over m; the two
    differ by about 3e-16 of the largest output.
    """
    mats = np.asarray(w_stack)
    x = np.asarray(x)
    if x.ndim != 3 or mats.shape != (x.shape[0], x.shape[2], x.shape[2]):
        raise ShapeMismatch(
            f"signal shape {x.shape} does not match stack shape {mats.shape}"
        )
    n_bins, n_frames, n_chan = x.shape
    n_targets = model._check_n_targets(n_targets, n_chan)
    eye = np.eye(n_chan)[:, :n_targets]
    mixing = np.ascontiguousarray(
        linalg.lu_solve(hermitian_transpose(mats), eye).transpose(2, 1, 0)
    )
    outputs = np.empty((n_targets, n_frames, n_bins), dtype=np.complex128)
    for k in range(n_targets):
        np.matmul(x, np.conj(mats[:, :, k, None]), out=outputs[k].T[..., None])
    return mixing, outputs


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


def _schedule(method, n_targets):
    """What run() does differently per method: (operand, sweep, carries).
    Built per call, so run() calls the module's functions as they are
    bound when it starts (a tracer's or a test's wrapper).

    operand(sweep_cov): what the sweeps read of the fixed G_z, formed
    once per run: sweep_cov itself (ip1, ip2, ip3), or its inverse for
    auxiva's background rows (sweep_cov, unread, when K = M).
    carries: whether the sweeps carry A = W^{-H} (auxiva). run() then
    holds A, from the identity like W, and solves it fresh from W once
    every AUXIVA_REFRESH_SWEEPS sweeps.
    sweep(w, target_covs, noise[, inverse]): one sweep of a chunk, w
    being its slice of W, noise its slice of the operand and inverse its
    slice of A, the sweep updating w and A in place; the leading K
    columns of W are what projection_back maps to the images once the
    loop ends.
    """
    if method is Method.AUXIVA:
        def noise_inverse(cov):
            eye = np.eye(cov.shape[-1])
            return cov if n_targets == len(eye) else linalg.lu_solve(cov, eye)

        return noise_inverse, auxiva_sweep, True
    sweep = {Method.IP1: ip1_sweep, Method.IP2: ip2_sweep, Method.IP3: ip3_sweep}
    return (lambda cov: cov), sweep[method], False


def _bin_cost(w, n_targets, ridge, offset, noise_cov, profiled):
    """Per-bin objective, (F,), less the factor T and the variance term,
    as a function of the stack and G_z alone, the same for every method.

    The target term is sum_k w_k^H (G_k - ridge I) w_k, with ridge the
    scalar weighted_covariance added to G_k. Every sweep normalizes each
    target row with its own G_k (ip0_update_row, auxiva_sweep's rows,
    ip2_update), and run() reads the cost before its rescale, so
    w_k^H G_k w_k = 1 and the term is K - ridge sum_k ||w_k||^2. On a
    silent bin, G_k = ridge I and both forms are 0.

    On bins whose G_z is regular (profiled) the background is profiled
    out: the term minimized over the block at fixed span,
    (M - K) + log det G_z - log det(W_s^H G_z W_s), which update_wz_full
    attains. offset holds its first two terms; the Gram matrix
    W_s^H G_z W_s is formed here. auxiva's own background after a sweep
    is that optimum (auxiva_sweep), and at K = M the term is
    -2 log|det W|. On the other bins, silent or with a copied channel,
    the term is the explicit tr(W_z^H G_z W_z) - 2 log|det W|, the only
    place the trace takes a determinant of W.

    On a bin whose G_z is regular but ill-conditioned (cond(G_z) below
    1 / linalg.SINGULARITY_RTOL), the row normalizations hold only to
    about cond(G_z) eps, and the bin's term carries an error of that
    order, as the explicit formula's does.
    """
    ws = w[..., :, :n_targets]
    gram = (hermitian_transpose(ws) @ noise_cov) @ ws
    background = offset.copy()
    background[profiled] -= _masked_logabsdet(gram, profiled)
    explicit = ~profiled
    if np.any(explicit):
        wz = w[explicit][..., :, n_targets:]
        tr = np.sum(np.conj(wz) * (noise_cov[explicit] @ wz), axis=(-2, -1))
        background[explicit] += tr.real - 2.0 * _masked_logabsdet(w, explicit)
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
    """n_targets as a Python int, or raise InvalidK unless it is a Python
    or numpy integer (not a bool) that method can extract from n_chan
    channels: 1 <= K <= M for every method (model._check_n_targets), and
    further ip2 takes K = 1 only and ip1 and ip3 need a nonempty
    background, K < M."""
    n_targets = model._check_n_targets(n_targets, n_chan)
    if method is Method.IP2 and n_targets != 1:
        raise InvalidK("ip2 requires K=1")
    if method is not Method.AUXIVA and n_targets >= n_chan:
        raise InvalidK(
            f"{method.value} needs a nonempty background: K={n_targets} "
            f"must be < M={n_chan}"
        )
    return n_targets


def run(x, n_targets, config=RunConfig()):
    """Extract n_targets sources from a mixture spectrogram.

    Alternates closed-form variance updates with one demixing sweep of
    the configured schedule, normalizing the per-target scales each
    iteration, for exactly config.iterations iterations (the cost trace
    is recorded, never read back). Then projects the target outputs back
    onto the array with one projection_back call, returning each image
    as its two rank-one factors (SeparationResult). Each sweep writes
    into run()'s own stack, a chunk of bins at a time, so the stack the
    last iteration leaves is the one returned: its leading n_targets
    columns are the targets for every method, auxiva's included.
    For the auxiva baseline all M outputs are updated, the leading
    n_targets with their variance models. auxiva's sweeps carry W^{-H}
    from the identity: run() scales its target columns by the
    reciprocals of W's per-iteration scales and solves it afresh from W
    at every AUXIVA_REFRESH_SWEEPS-th sweep, in each chunk's slice.

    Parameters
    ----------
    x : Spectrogram or (F, T, M) complex array
    n_targets : number of sources to extract (K), a Python or numpy integer
    config : RunConfig

    Returns
    -------
    SeparationResult

    Raises ShapeMismatch when x has no frequency bin or no frame,
    InvalidK (check_targets), and ValueError naming the first non-finite
    entry of an array x.
    """
    data = model._spec_data(x)
    n_bins, n_frames, n_chan = data.shape
    for axis, size in (("frequency bins", n_bins), ("frames", n_frames)):
        if size == 0:
            raise ShapeMismatch(f"spectrogram {data.shape} has no {axis}")
    # A Spectrogram was checked when it was built; building one from the
    # array checks it, without a copy.
    if not isinstance(x, Spectrogram):
        Spectrogram(data)
    n_targets = check_targets(config.method, n_targets, n_chan)
    operand, sweep, carries = _schedule(config.method, n_targets)

    t0 = time.perf_counter()
    # Never more workers than CPUs: map starts a thread for every chunk
    # that finds no idle worker, up to max_workers. No pool of one worker:
    # on extract2-ip1's shape (2-core Xeon) one made run() 9-30 % slower
    # than running the chunks inline.
    workers = min(config.threads, os.cpu_count() or 1)
    pool = ThreadPoolExecutor(workers) if workers > 1 else None
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
        try:
            noise = operand(sweep_cov)
        except NumericalError as exc:
            raise _shift_bin(exc, 0) from None
        # The part of each bin's background cost fixed for the run
        # (_bin_cost), on the bins whose G_z is regular by an eigenvalue
        # rule (linalg.psd_logdet), not by rounding.
        logdet, singular = linalg.psd_logdet(noise_cov)
        profiled = ~singular
        offset = np.where(profiled, logdet + n_chan - n_targets, 0.0)
        bin_cost = np.empty(n_bins)
        eye = np.eye(n_chan, dtype=np.complex128)
        w = np.tile(eye, (n_bins, 1, 1))
        # W^{-H}, exact at the start: W is the identity.
        inverse = w.copy() if carries else None
        chunks = blocks(n_bins, 16 * n_chan * n_chan, at_least=config.threads)
        cost_trace = []

        for it in range(config.iterations):
            lam = model.update_variances(data, w[:, :, :n_targets], config.eps1)
            refresh = carries and it > 0 and it % AUXIVA_REFRESH_SWEEPS == 0

            def stage_sweep(sl, lam=lam, refresh=refresh):
                try:
                    # Before the covariances exist, so that the solve's
                    # scratch does not add to theirs.
                    if refresh:
                        inverse[sl] = linalg.lu_solve(hermitian_transpose(w[sl]), eye)
                    covs = [
                        model.weighted_covariance(data[sl], lam[k], config.eps2)
                        for k in range(n_targets)
                    ]
                    carried = (inverse[sl],) if carries else ()
                    sweep(w[sl], covs, noise[sl], *carried)
                    bin_cost[sl] = _bin_cost(
                        w[sl], n_targets, config.eps2, offset[sl],
                        noise_cov[sl], profiled[sl],
                    )
                except NumericalError as exc:
                    raise _shift_bin(exc, sl.start) from None

            list((map if pool is None else pool.map)(stage_sweep, chunks))
            # Taken before the rescale below, which leaves it unchanged.
            cost_trace.append(
                float(n_frames * bin_cost.sum() + n_bins * np.sum(np.log(lam)))
            )
            # One target at a time: a strided (F, M, K) view scaled in
            # place is copied first, the operands overlapping. W^{-H}
            # takes the reciprocal scales.
            for k, scale in enumerate(lam.mean(axis=1) ** -0.5):
                w[:, :, k] *= scale
                if carries:
                    inverse[:, :, k] /= scale

        # The (F, M, M) operands (the sweeps' operand, W^{-H}, G_z and its
        # silent-bin copy) are freed before projection_back allocates the
        # output spectra; del clears stage_sweep's cells too.
        del noise, inverse, noise_cov, sweep_cov
        mixing, outputs = projection_back(w, data, n_targets)
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
