"""Dense complex linear algebra kernels for per-frequency updates.

Every routine accepts stacked operands: an array of shape ``(..., M, M)``
is a batch of matrices over the leading axes, which is how the independent
per-frequency-bin problems are processed in single calls. Matrices are
small (M <= 8 in practice) while batches are large (one entry per bin),
so each routine is a single call into numpy's batched LAPACK gufuncs:
LU solves and log-determinants go through ``np.linalg.solve`` and
``np.linalg.slogdet``.

cholesky, inv_sqrt_hermitian and gev_largest read the lower triangle of
their Hermitian arguments, as LAPACK does, and neither check nor
symmetrize them: the covariances the model builds are Hermitian exactly.

Singularity rule: a matrix is singular when its LU factorization meets
an exactly zero pivot, or, for a solve, when a pivot lost to rounding
shows in the solution as max|x| * max|A| * SINGULARITY_RTOL > max|b| for
some right-hand-side column (a NaN in x counts as a failure).
psd_logdet, for positive semidefinite matrices, reads eigenvalues
instead: such a matrix is singular when its smallest eigenvalue is at
most SINGULARITY_RTOL times its largest.

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
        Right-hand side of shape (..., M, R), whose batch axes broadcast
        against a's; a single column is (..., M, 1).

    Returns
    -------
    x : ndarray, (..., M, R) over the broadcast batch axes.

    Raises SingularMatrix for the first matrix in the batch that is
    singular by the module's rule: an exactly zero pivot, or
    max|x| * max|A| * SINGULARITY_RTOL > max|b| in some column.
    """
    a = _as_matrix_batch(a, "a")
    b = np.asarray(b, dtype=np.complex128)
    m = a.shape[-1]
    if b.ndim < 2 or b.shape[-2] != m:
        raise ValueError(f"rhs shape {b.shape} is not a matrix (..., {m}, R)")
    batch = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    r = b.shape[-1]
    # max|A| and each column's max|b| are taken before broadcasting, and
    # the gufunc broadcasts b itself, so a shared b is never copied per
    # matrix.
    a_max = np.broadcast_to(np.abs(a).max(axis=(-2, -1)), batch).reshape(-1)
    b_max = np.broadcast_to(np.abs(b).max(axis=-2), batch + (r,)).reshape(-1, r)
    n_ok = len(a_max)
    try:
        x = np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        # Matrix n_ok has a zero pivot, but one before it may have lost a
        # pivot to rounding: solve those and check them as well.
        a = np.broadcast_to(a, batch + (m, m)).reshape(-1, m, m)
        b = np.broadcast_to(b, batch + (m, r)).reshape(-1, m, r)
        n_ok = _first(np.linalg.slogdet(a)[0] == 0)
        x = np.linalg.solve(a[:n_ok], b[:n_ok])
    # Written so that a NaN anywhere in the solution fails the check.
    ok = (
        np.abs(x).max(axis=-2).reshape(-1, r)
        * (SINGULARITY_RTOL * a_max[:n_ok])[:, None]
        <= b_max[:n_ok]
    )
    bad = _first(~np.all(ok, axis=1))
    if bad is not None or n_ok < len(a_max):
        raise _singular(n_ok if bad is None else bad)
    return x.reshape(batch + (m, r))


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


def psd_logdet(a):
    """log det A of batched Hermitian positive semidefinite A, and a mask
    of the matrices that are singular to working precision.

    Returns (logdet, singular), both over a's batch axes. A matrix is
    singular when its smallest eigenvalue is at most SINGULARITY_RTOL
    times its largest, a zero matrix included, and its logdet is then
    -inf. The rule reads no pivot: whether LU meets an exactly zero
    pivot on a matrix with a copied row, or only a tiny one, depends on
    the last bits of the matrix.

    logdet comes from one LU (np.linalg.slogdet), which also screens the
    batch. A singular matrix has det A <= SINGULARITY_RTOL tr(A)^M /
    (M - 1)^(M - 1) (its largest eigenvalue is at most tr A, and the
    product of the M - 1 largest is at most (tr A / (M - 1))^(M - 1)), so
    only the matrices at or below that bound, or with a zero pivot, take
    an eigvalsh.
    """
    a = _as_matrix_batch(a, "a")
    m = a.shape[-1]
    sign, logdet = np.linalg.slogdet(a)
    trace = np.einsum("...ii->...", a).real
    with np.errstate(divide="ignore"):
        bound = np.log(SINGULARITY_RTOL / (m - 1) ** (m - 1)) + m * np.log(trace)
    screened = (sign == 0) | (logdet <= bound)
    values = np.linalg.eigvalsh(a[screened])
    singular = np.zeros(sign.shape, dtype=bool)
    singular[screened] = values[..., 0] <= SINGULARITY_RTOL * values[..., -1]
    return np.where(singular, -np.inf, logdet), singular


def cholesky(a):
    """Lower Cholesky factor of batched Hermitian PD A (its lower triangle)."""
    a = _as_matrix_batch(a, "a")
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
    """Principal A^(-1/2) of batched Hermitian PD A (its lower triangle)."""
    a = _as_matrix_batch(a, "a")
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
        Largest eigenvalue and a unit-norm eigenvector. With B = L L^H
        (cholesky), the pencil reduces to the Hermitian
        C = L^{-1} A L^{-H}, formed by two matmuls with one inverse of L
        and its conjugate transpose L^{-H}, and u = L^{-H} v from C's top
        eigenvector v (eigh, which reads C's lower triangle).
        Among tied maximal eigenvalues the one with the lowest index in
        C's ascending ordering is taken, so degenerate pencils resolve
        deterministically: A = 0 gives u along L^{-H} e_1, which is e_1.

    Each matrix is reduced on its own, so no entry of a batch depends
    on the others, and the error of u stays at rounding level whatever
    the condition or rank of A.
    """
    a = _as_matrix_batch(a, "a")
    ell_inv = np.linalg.inv(cholesky(b))
    ell_inv_h = hermitian_transpose(ell_inv)
    c = ell_inv @ a @ ell_inv_h
    del ell_inv  # eigh's scratch then sits beside one factor, not two
    try:
        values, vectors = np.linalg.eigh(c)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"reduced eigenproblem failed: {exc}") from None
    top = np.argmax(values == values[..., -1:], axis=-1)
    v = np.take_along_axis(vectors, top[..., None, None], axis=-1)
    value = np.take_along_axis(values, top[..., None], axis=-1)[..., 0]
    u = (ell_inv_h @ v)[..., 0]
    u = u / np.linalg.norm(u, axis=-1, keepdims=True)
    return GevResult(float(value) if u.ndim == 1 else value, u)
