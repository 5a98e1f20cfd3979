"""Test-side reference constructions shared by the optimizer and
acceptance tests.

run() keeps the orthogonal-complement background of ip1_sweep and
profiles the background out of its cost trace; these helpers build the
fully normalized background explicitly (update_wz_full), so tests can
check the objective and the stationarity conditions on the whole stack.
"""

import numpy as np

from overiva.optimizer import ip1_sweep, update_wz_full


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
