"""Dense complex linear algebra kernels for per-frequency updates.

Every routine accepts stacked operands: an array of shape ``(..., M, M)``
is a batch of matrices over the leading axes, which is how the independent
per-frequency-bin problems are processed in single calls. Matrices are
small (M <= 8 in practice) while batches are large (one entry per bin),
so each routine is a single call into numpy's batched LAPACK gufuncs:
LU solves and log-determinants go through ``np.linalg.solve`` and
``np.linalg.slogdet``.

Singularity rule: a matrix is singular when its LU factorization meets
an exactly zero pivot, or, for a solve, when a pivot lost to rounding
shows in the solution as max|x| * max|A| * SINGULARITY_RTOL > max|b| for
some right-hand-side column (a NaN in x counts as a failure).

Failures carry the flattened batch index of the first offending matrix so
callers can report the frequency bin.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import NoConvergence, NotPositiveDefinite, SingularMatrix

# A solve whose max|x| exceeds max|b| / (SINGULARITY_RTOL * max|A|) is
# taken to have lost a pivot to rounding: A's condition number is then
# at least 1 / SINGULARITY_RTOL.
SINGULARITY_RTOL = 1e-13

# Largest Hermitian asymmetry max|A - A^H| tolerated, relative to max|A|.
HERMITIAN_RTOL = 1e-12


class GevResult(NamedTuple):
    """Largest generalized eigenpair of the pencil (A, B).

    value : (...) real, the largest lambda with A u = lambda B u
    vector : (..., M) unit-norm eigenvector
    """

    value: np.ndarray
    vector: np.ndarray


def hermitian_transpose(a):
    """Conjugate transpose of the trailing two axes."""
    return np.conj(np.swapaxes(a, -1, -2))


def _as_matrix_batch(a, name="matrix"):
    a = np.asarray(a)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"{name} must have shape (..., M, M), got {a.shape}")
    return np.ascontiguousarray(a, dtype=np.complex128)


def _check_hermitian(a, name="matrix"):
    defect = np.abs(a - hermitian_transpose(a)).max(axis=(-2, -1))
    scale = np.abs(a).max(axis=(-2, -1))
    if np.any(defect > HERMITIAN_RTOL * scale):
        raise ValueError(f"{name} is not Hermitian within tolerance")


def _first(mask):
    """Flattened index of the first True entry, or None."""
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else None


def _singular(idx):
    return SingularMatrix(
        f"matrix at batch index {idx} is singular to working precision",
        batch_index=idx,
    )


def lu_solve(a, b):
    """Solve A x = b for batched complex square A.

    Parameters
    ----------
    a : (..., M, M) array_like
    b : array_like
        Right-hand side, in one of two forms: a vector of shape (M,)
        shared by every matrix in the batch, or a matrix right-hand side
        of shape (..., M, R) whose batch axes broadcast against a's.

    Returns
    -------
    x : ndarray, (..., M) for a vector b, else (..., M, R), over the
        broadcast batch axes.

    Raises SingularMatrix for the first matrix in the batch that is
    singular by the module's rule: an exactly zero pivot, or
    max|x| * max|A| * SINGULARITY_RTOL > max|b| in some column.
    """
    a = _as_matrix_batch(a, "a")
    b = np.asarray(b, dtype=np.complex128)
    m = a.shape[-1]
    vector = b.ndim == 1
    if b.ndim == 0 or b.shape[0 if vector else -2] != m:
        raise ValueError(
            f"rhs shape {b.shape} is neither a shared vector ({m},) nor "
            f"a matrix (..., {m}, R)"
        )
    if vector:
        b = b[:, None]
    batch = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    r = b.shape[-1]
    a = np.broadcast_to(a, batch + (m, m)).reshape(-1, m, m)
    b = np.broadcast_to(b, batch + (m, r)).reshape(-1, m, r)
    n_ok = len(a)
    try:
        x = np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        # Matrix n_ok has a zero pivot, but one before it may have lost a
        # pivot to rounding: solve those and check them as well.
        n_ok = _first(np.linalg.slogdet(a)[0] == 0)
        x = np.linalg.solve(a[:n_ok], b[:n_ok])
    # Written so that a NaN anywhere in the solution fails the check.
    ok = (
        np.abs(x).max(axis=1)
        * (SINGULARITY_RTOL * np.abs(a[:n_ok]).max(axis=(1, 2)))[:, None]
        <= np.abs(b[:n_ok]).max(axis=1)
    )
    bad = _first(~np.all(ok, axis=1))
    if bad is not None or n_ok < len(a):
        raise _singular(n_ok if bad is None else bad)
    x = x.reshape(batch + (m, r))
    return x[..., 0] if vector else x


def logabsdet(a):
    """log|det A| per batched matrix. Raises SingularMatrix instead of -inf.

    Only an exactly zero pivot counts as singular: a matrix that is
    singular only to rounding returns a large negative finite value.
    """
    a = _as_matrix_batch(a, "a")
    sign, out = np.linalg.slogdet(a)
    idx = _first(sign == 0)
    if idx is not None:
        raise _singular(idx)
    return out if out.ndim else float(out)


def cholesky(a):
    """Lower Cholesky factor of batched Hermitian positive definite A."""
    a = _as_matrix_batch(a, "a")
    _check_hermitian(a, "a")
    a = 0.5 * (a + hermitian_transpose(a))
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        idx = _first_non_pd(a)
        raise NotPositiveDefinite(
            f"matrix at batch index {idx} is not positive definite",
            batch_index=idx,
        ) from None


def _first_non_pd(a):
    flat = a.reshape(-1, a.shape[-1], a.shape[-1])
    for i in range(flat.shape[0]):
        try:
            np.linalg.cholesky(flat[i])
        except np.linalg.LinAlgError:
            return i
    return None


def inv_sqrt_hermitian(a):
    """Inverse principal square root A^(-1/2) of batched Hermitian PD A."""
    a = _as_matrix_batch(a, "a")
    _check_hermitian(a, "a")
    a = 0.5 * (a + hermitian_transpose(a))
    try:
        values, vectors = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"eigendecomposition failed: {exc}") from None
    if np.any(values <= 0):
        idx = int(np.flatnonzero(np.any(values <= 0, axis=-1).ravel())[0])
        raise NotPositiveDefinite(
            f"matrix at batch index {idx} has a non-positive eigenvalue",
            batch_index=idx,
        )
    scaled = vectors * (values[..., None, :] ** -0.5)
    return scaled @ hermitian_transpose(vectors)


def gev_largest(a, b):
    """Largest generalized eigenpair of A u = lambda B u.

    Parameters
    ----------
    a : (..., M, M) array_like, Hermitian
    b : (..., M, M) array_like, Hermitian positive definite

    Returns
    -------
    GevResult
        Largest eigenvalue and a unit-norm eigenvector. The pencil is
        reduced with the Cholesky factor of B to an ordinary Hermitian
        problem; among tied maximal eigenvalues the one with the lowest
        index in the reduced problem's ascending ordering is taken, so
        degenerate pencils resolve deterministically.
    """
    a = _as_matrix_batch(a, "a")
    b = _as_matrix_batch(b, "b")
    _check_hermitian(a, "a")
    ell = cholesky(b)
    y = np.linalg.solve(ell, a)
    c = hermitian_transpose(np.linalg.solve(ell, hermitian_transpose(y)))
    c = 0.5 * (c + hermitian_transpose(c))
    try:
        values, vectors = np.linalg.eigh(c)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"reduced eigenproblem failed: {exc}") from None
    top = np.argmax(values == values[..., -1:], axis=-1)
    v = np.take_along_axis(vectors, top[..., None, None], axis=-1)[..., 0]
    u = np.linalg.solve(hermitian_transpose(ell), v[..., None])[..., 0]
    u = u / np.linalg.norm(u, axis=-1, keepdims=True)
    value = np.take_along_axis(values, top[..., None], axis=-1)[..., 0]
    if a.ndim == 2:
        return GevResult(float(value), u)
    return GevResult(value, u)
