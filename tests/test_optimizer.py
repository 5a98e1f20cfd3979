"""Optimizer tests: row updates and background blocks against closed
forms, sweep-level invariants (monotonicity, schedule equivalences,
orthogonality), the eigenvector-based single-target update, and the
end-to-end run() driver on planted scenes."""

import importlib
import re

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from overiva.errors import (
    DegenerateBlock,
    InvalidK,
    NotPositiveDefinite,
    NumericalError,
    ShapeMismatch,
    SingularMatrix,
)
from overiva.optimizer import (
    Method,
    RunConfig,
    auxiva_sweep,
    ip0_update_row,
    ip1_sweep,
    ip2_update,
    ip3_sweep,
    projection_back,
    run,
    update_wz_fast,
    update_wz_full,
)
from overiva import linalg, model, optimizer
from overiva.simulate import SceneSpec, synthesize
from overiva.stft import Spectrogram, StftConfig, blocks, stft

from oracles import (
    auxiva_sweep_ip0,
    auxiva_sweep_solved,
    cost_jw,
    ip1_full_sweep,
    ip2_update_gev,
    projection_back_image,
    stationarity_residual,
    update_variances_unblocked,
    with_full_background,
)

# The package exports the stft function under the module's name.
stft_module = importlib.import_module("overiva.stft")


def sweep_chunks(n_bins, m, threads):
    """The bin chunks run() sweeps: blocks of (M, M) complex arrays within
    SCRATCH_BYTES, and at least one per worker, min(threads, CPUs)."""
    workers = min(threads, optimizer.os.cpu_count() or 1)
    return blocks(n_bins, 16 * m * m, at_least=workers)


def random_complex(rng, shape, scale=1.0):
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def random_hpd(rng, m, ridge=0.1):
    a = random_complex(rng, (m, m))
    return a @ a.conj().T / m + ridge * np.eye(m)


def random_instance(rng, m, k):
    """Covariances for one bin: K target matrices plus a noise matrix."""
    covs = np.stack([random_hpd(rng, m) for _ in range(k)])
    gz = random_hpd(rng, m)
    return covs, gz


def random_hpd_batch(rng, n, m, ridge=0.1):
    a = random_complex(rng, (n, m, m))
    return a @ a.conj().transpose(0, 2, 1) / m + ridge * np.eye(m)


def eye_stack(m, batch=()):
    return np.broadcast_to(np.eye(m, dtype=complex), batch + (m, m)).copy()


def inverse(g):
    """G^{-1}: of G_z, the operand auxiva_sweep takes for its noise rows,
    and of W^H, the A = W^{-H} it carries."""
    return linalg.lu_solve(g, np.eye(g.shape[-1]))


def carried_sweeps(w, target_covs, noise_inv, n_sweeps):
    """The stacks after each of n_sweeps auxiva_sweep calls from w, which
    carry A = W^{-H} from one sweep to the next as run() does: solved
    from w at the start (I when w is I) and afresh every
    AUXIVA_REFRESH_SWEEPS sweeps."""
    a = inverse(linalg.hermitian_transpose(w))
    for i in range(n_sweeps):
        if i > 0 and i % optimizer.AUXIVA_REFRESH_SWEEPS == 0:
            a = inverse(linalg.hermitian_transpose(w))
        w = auxiva_sweep(w, target_covs, noise_inv, a)
        yield w


def span_projector(u):
    """Column-space projector via QR, independent of the code under test."""
    q, _ = np.linalg.qr(u)
    return q @ q.conj().T


class TestIp0UpdateRow:
    def test_diagonal_closed_form(self):
        """W = I, G = diag(4, 1): the first filter becomes (1/2, 0)."""
        w = np.eye(2, dtype=complex)
        g = np.diag([4.0, 1.0]).astype(complex)
        col = ip0_update_row(w, g, 0)
        np.testing.assert_allclose(col, [0.5, 0.0], atol=1e-14)

    def test_identity_fixed_point(self):
        w = np.eye(3, dtype=complex)
        col = ip0_update_row(w, np.eye(3, dtype=complex), 1)
        np.testing.assert_allclose(col, [0, 1, 0], atol=1e-14)

    def test_unit_quadratic_and_stationary_row(self):
        """After the update, w_k^H G w_k = 1 and the full stationarity row
        W^H G w_k = e_k holds exactly."""
        rng = np.random.default_rng(0)
        for m in (2, 4, 6):
            w = random_complex(rng, (m, m)) + 2 * np.eye(m)
            g = random_hpd(rng, m)
            k = 1
            w2 = w.copy()
            w2[:, k] = ip0_update_row(w, g, k)
            row = w2.conj().T @ g @ w2[:, k]
            np.testing.assert_allclose(row, np.eye(m)[:, k], atol=1e-10)

    def test_is_per_row_global_minimum(self):
        """No perturbed candidate beats the updated filter on the
        surrogate with the other columns held fixed."""
        rng = np.random.default_rng(1)
        m, k = 3, 1
        covs, gz = random_instance(rng, m, k)
        w = random_complex(rng, (m, m)) + 2 * np.eye(m)
        w2 = w.copy()
        w2[:, 0] = ip0_update_row(w, covs[0], 0)
        best = cost_jw(w2, covs, gz)
        assert best <= cost_jw(w, covs, gz) + 1e-12
        for _ in range(200):
            trial = w2.copy()
            trial[:, 0] += random_complex(rng, m, 1e-3)
            assert cost_jw(trial, covs, gz) >= best - 1e-12

    def test_batched_matches_loop(self):
        rng = np.random.default_rng(2)
        w = random_complex(rng, (5, 3, 3)) + 2 * np.eye(3)
        g = np.stack([random_hpd(rng, 3) for _ in range(5)])
        batched = ip0_update_row(w, g, 0)
        for f in range(5):
            np.testing.assert_array_equal(batched[f], ip0_update_row(w[f], g[f], 0))

    def test_indefinite_covariance_raises(self):
        w = np.eye(2, dtype=complex)
        g = np.diag([1.0, -1.0]).astype(complex)
        with pytest.raises(NotPositiveDefinite):
            ip0_update_row(w, g, 1)


class TestUpdateWzFull:
    def test_identity_case(self):
        w = np.eye(2, dtype=complex)
        wz = update_wz_full(w, np.eye(2, dtype=complex), 1)
        np.testing.assert_allclose(wz[:, 0], [0, 1], atol=1e-14)

    def test_background_stationarity_exact(self):
        """W^H G_z W_z = E_z and trace(W_z^H G_z W_z) = M - K."""
        rng = np.random.default_rng(3)
        for m, k in ((3, 1), (4, 2), (6, 3)):
            w = random_complex(rng, (m, m)) + 2 * np.eye(m)
            gz = random_hpd(rng, m)
            w2 = w.copy()
            w2[:, k:] = update_wz_full(w2, gz, k)
            lhs = w2.conj().T @ gz @ w2[:, k:]
            np.testing.assert_allclose(lhs, np.eye(m)[:, k:], atol=1e-10)
            tr = np.trace(w2[:, k:].conj().T @ gz @ w2[:, k:]).real
            np.testing.assert_allclose(tr, m - k, rtol=1e-10)

    def test_batched_matches_loop(self):
        rng = np.random.default_rng(4)
        w = random_complex(rng, (4, 3, 3)) + 2 * np.eye(3)
        gz = np.stack([random_hpd(rng, 3) for _ in range(4)])
        batched = update_wz_full(w, gz, 1)
        for f in range(4):
            np.testing.assert_allclose(
                batched[f], update_wz_full(w[f], gz[f], 1), atol=1e-13
            )


class TestUpdateWzFast:
    def test_hand_example(self):
        """G_z = [[2, i], [-i, 3]] with target filter e_1 gives the
        background (-i/2, 1)."""
        gz = np.array([[2.0, 1j], [-1j, 3.0]])
        ws = np.array([[1.0], [0.0]], complex)
        wz = update_wz_fast(ws, gz)
        np.testing.assert_allclose(wz[:, 0], [-0.5j, 1.0], atol=1e-14)

    def test_orthogonal_constraint_exact(self):
        rng = np.random.default_rng(5)
        for m, k in ((3, 1), (5, 2), (6, 4)):
            ws = random_complex(rng, (m, k)) + np.eye(m, k)
            gz = random_hpd(rng, m)
            wz = update_wz_fast(ws, gz)
            resid = np.abs(ws.conj().T @ gz @ wz).max()
            assert resid < 1e-12
            np.testing.assert_array_equal(wz[k:], np.eye(m - k))

    def test_spans_same_subspace_as_full(self):
        """The two background parameterizations have identical column-space
        projectors."""
        rng = np.random.default_rng(6)
        for m, k in ((3, 1), (4, 2), (6, 3)):
            w = random_complex(rng, (m, m)) + 2 * np.eye(m)
            gz = random_hpd(rng, m)
            full = update_wz_full(w, gz, k)
            fast = update_wz_fast(w[:, :k], gz)
            dist = np.abs(span_projector(full) - span_projector(fast)).max()
            assert dist < 1e-8

    def test_returns_the_targets_gram_matrix(self):
        rng = np.random.default_rng(8)
        ws = random_complex(rng, (6, 5, 2)) + np.eye(5, 2)
        gz = random_hpd_batch(rng, 6, 5)
        wz = update_wz_fast(ws, gz)
        c = ws.conj().transpose(0, 2, 1) @ gz
        top = -np.linalg.solve(c[:, :, :2], c[:, :, 2:])
        np.testing.assert_array_equal(
            wz, np.concatenate([top, np.broadcast_to(np.eye(3), (6, 3, 3))], axis=1)
        )

    def test_degenerate_target_block_raises(self):
        ws = np.array([[0.0], [1.0]], complex)
        gz = np.diag([0.0, 1.0]).astype(complex)
        with pytest.raises(DegenerateBlock):
            update_wz_fast(ws, gz)


class TestSweeps:
    def test_ip1_full_mode_monotone(self):
        """The fully normalized schedule never increases the surrogate."""
        rng = np.random.default_rng(7)
        covs, gz = random_instance(rng, 4, 2)
        w = eye_stack(4)
        prev = cost_jw(w, covs, gz)
        for _ in range(30):
            w = ip1_full_sweep(w, covs, gz)
            cur = cost_jw(w, covs, gz)
            assert cur <= prev + 1e-12
            prev = cur

    def test_ip1_full_reaches_fixed_point(self):
        rng = np.random.default_rng(8)
        covs, gz = random_instance(rng, 3, 1)
        w = eye_stack(3)
        for _ in range(400):
            w = ip1_full_sweep(w, covs, gz)
        res = stationarity_residual(w, covs, gz)
        assert res.combined < 1e-10
        w2 = ip1_full_sweep(w, covs, gz)
        assert np.abs(w2 - w).max() < 1e-9

    def test_fast_and_full_produce_same_target_filters(self):
        """The target-filter sequences agree between the orthogonal-
        complement and the fully normalized background, because the row
        update only sees the background subspace."""
        rng = np.random.default_rng(9)
        covs, gz = random_instance(rng, 4, 2)
        wa = eye_stack(4)
        wb = eye_stack(4)
        for _ in range(10):
            wa = ip1_sweep(wa, covs, gz)
            wb = ip1_full_sweep(wb, covs, gz)
            assert np.abs(wa[:, :2] - wb[:, :2]).max() < 1e-8

    def test_ip1_full_equals_auxiva_with_one_noise_channel(self):
        """At M - K = 1 the normalized background update is the plain row
        update on the last column, so the schedules coincide."""
        rng = np.random.default_rng(10)
        covs, gz = random_instance(rng, 3, 2)
        wa = eye_stack(3)
        for wb in carried_sweeps(eye_stack(3), covs, inverse(gz), 10):
            wa = ip1_full_sweep(wa, covs, gz)
            np.testing.assert_allclose(wa, wb, atol=1e-12)

    def test_ip3_equals_ip1_fast_single_target(self):
        rng = np.random.default_rng(11)
        covs, gz = random_instance(rng, 4, 1)
        wa = eye_stack(4)
        wb = eye_stack(4)
        for _ in range(5):
            wa = ip1_sweep(wa, covs, gz)
            wb = ip3_sweep(wb, covs, gz)
            np.testing.assert_array_equal(wa, wb)

    def test_ip3_interleaved_orthogonality(self, monkeypatch):
        """The orthogonal constraint holds after every inner step of the
        interleaved schedule, observed by wrapping update_wz_fast."""
        rng = np.random.default_rng(12)
        covs, gz = random_instance(rng, 5, 3)
        w = eye_stack(5)
        worst = []
        update = optimizer.update_wz_fast

        def check(ws, cov):
            wz = update(ws, cov)
            worst.append(np.abs(ws.conj().T @ cov @ wz).max())
            return wz

        monkeypatch.setattr(optimizer, "update_wz_fast", check)
        for _ in range(4):
            w = ip3_sweep(w, covs, gz)
        assert len(worst) == 12 and max(worst) < 1e-10

    @settings(max_examples=100, deadline=None)
    @given(
        m=st.integers(2, 8),
        k=st.integers(1, 7),
        n_bins=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_auxiva_background_is_whitened_and_orthogonal(self, m, k, n_bins, seed):
        """After one auxiva sweep from any start, W_z^H G_z W_z = I and
        W_s^H G_z W_z = 0, relative to the outputs' powers: the
        background is the profiled optimum, so run()'s trace takes
        auxiva's cost with the same formula as every other method's."""
        k = min(k, m - 1)
        rng = np.random.default_rng(seed)
        covs = np.stack([random_hpd_batch(rng, n_bins, m) for _ in range(k)])
        gz = random_hpd_batch(rng, n_bins, m)
        w = eye_stack(m, (n_bins,)) + random_complex(rng, (n_bins, m, m), 0.3)
        w = auxiva_sweep(w, covs, inverse(gz), inverse(w.conj().transpose(0, 2, 1)))
        gram = w.conj().transpose(0, 2, 1) @ gz @ w
        power = np.sqrt(np.einsum("fii->fi", gram).real)
        corr = gram / (power[:, :, None] * power[:, None, :])
        background = corr[:, k:, k:]
        np.testing.assert_allclose(background, eye_stack(m - k, (n_bins,)), atol=1e-10)
        np.testing.assert_allclose(corr[:, :k, k:], 0.0, atol=1e-10)
        np.testing.assert_allclose(power[:, k:], 1.0, rtol=1e-10)

    @pytest.mark.parametrize("m", range(2, 9))
    def test_auxiva_sweep_matches_row_by_row_oracle(self, m):
        """The rank-one tracking of W^{-H}, carried across 25 sweeps with
        run()'s refresh rule, stays within 1e-12 of M plain row solves
        per sweep, for every K (K = M has no noise rows) and F from 1
        to 7."""
        rng = np.random.default_rng(100 + m)
        for k in range(1, m + 1):
            for n_bins in range(1, 8):
                covs = np.stack(
                    [random_hpd_batch(rng, n_bins, m) for _ in range(k)]
                )
                gz = random_hpd_batch(rng, n_bins, m)
                start = eye_stack(m, (n_bins,))
                *_, wa = carried_sweeps(start, covs, inverse(gz), 25)
                wb = eye_stack(m, (n_bins,))
                for _ in range(25):
                    wb = auxiva_sweep_ip0(wb, covs, gz)
                rel = np.abs(wa - wb).max() / np.abs(wb).max()
                assert rel <= 1e-12, (m, k, n_bins, rel)

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_auxiva_sweep_from_a_solved_inverse_is_the_solving_sweep(self, k):
        """Handed A = W^{-H} from the LU solve that the per-sweep-solving
        sweep makes itself, auxiva_sweep returns that sweep's stack bit
        for bit, and leaves A, updated in place, the new stack's W^{-H}
        within 1e-12 of the largest entry of a fresh solve."""
        rng = np.random.default_rng(15)
        m, n_bins = 4, 6
        covs = np.stack([random_hpd_batch(rng, n_bins, m) for _ in range(k)])
        gz = random_hpd_batch(rng, n_bins, m)
        w = eye_stack(m, (n_bins,)) + random_complex(rng, (n_bins, m, m), 0.3)
        noise_inv = inverse(gz) if k < m else gz
        a = inverse(w.conj().transpose(0, 2, 1))
        want = auxiva_sweep_solved(w.copy(), covs, noise_inv)
        got = auxiva_sweep(w, covs, noise_inv, a)
        np.testing.assert_array_equal(got, want)
        fresh = inverse(got.conj().transpose(0, 2, 1))
        assert np.abs(a - fresh).max() <= 1e-12 * np.abs(fresh).max()

    @pytest.mark.parametrize(
        "name, k",
        [("ip1_sweep", 2), ("ip2_sweep", 1), ("ip3_sweep", 2), ("auxiva_sweep", 2)],
    )
    def test_sweep_writes_into_the_stack_it_is_handed(self, name, k):
        """Called as run() calls it, on a chunk's slice of W with the list
        of K covariances, a sweep updates that slice in place and returns
        it: bit for bit the stack (and, for auxiva, the W^{-H}) it leaves
        in a copy of the slice handed the stacked covariances. The bins
        outside the slice are untouched."""
        rng = np.random.default_rng(16)
        m, sl = 4, slice(2, 5)
        covs = [random_hpd_batch(rng, 3, m) for _ in range(k)]
        gz = random_hpd_batch(rng, 3, m)
        w = eye_stack(m, (7,)) + random_complex(rng, (7, m, m), 0.3)
        before = w.copy()
        sweep = getattr(optimizer, name)
        if sweep is auxiva_sweep:
            noise = inverse(gz)
            a = inverse(linalg.hermitian_transpose(w[sl]))
            carried, copied = (a,), (a.copy(),)
        else:
            noise, carried, copied = gz, (), ()
        want = sweep(w[sl].copy(), np.stack(covs), noise, *copied)
        chunk = w[sl]
        assert sweep(chunk, covs, noise, *carried) is chunk
        np.testing.assert_array_equal(w[sl], want)
        for a_got, a_want in zip(carried, copied):
            np.testing.assert_array_equal(a_got, a_want)
        np.testing.assert_array_equal(w[:2], before[:2])
        np.testing.assert_array_equal(w[5:], before[5:])

    def test_auxiva_sweep_singular_stack_names_bin(self):
        """Only bin 2's stack is singular to rounding: its carried W^{-H}
        fails lu_solve's rule there, max|A| max|W| SINGULARITY_RTOL <= 1,
        with the bin's batch index, as the solve of W^H in the
        per-sweep-solving sweep does."""
        rng = np.random.default_rng(14)
        covs, gz = random_instance(rng, 4, 2)
        w = eye_stack(4, (5,)) + 0.1 * random_complex(rng, (5, 4, 4))
        w[2, :, 3] = w[2, :, 1] + 1e-17 * random_complex(rng, 4)
        a = np.linalg.inv(w.conj().transpose(0, 2, 1))
        with pytest.raises(SingularMatrix) as info:
            auxiva_sweep(w, covs, inverse(gz), a)
        assert info.value.batch_index == 2
        with pytest.raises(SingularMatrix) as info:
            auxiva_sweep_solved(w, covs, inverse(gz))
        assert info.value.batch_index == 2

    def test_auxiva_sweep_non_finite_inverse_names_bin(self):
        """A NaN in the carried W^{-H} fails the same rule."""
        rng = np.random.default_rng(16)
        covs, gz = random_instance(rng, 3, 1)
        w = eye_stack(3, (4,))
        a = eye_stack(3, (4,))
        a[3, 0, 1] = np.nan
        with pytest.raises(SingularMatrix) as info:
            auxiva_sweep(w, covs, inverse(gz), a)
        assert info.value.batch_index == 3

    def test_auxiva_sweep_monotone(self):
        rng = np.random.default_rng(13)
        covs, gz = random_instance(rng, 4, 2)
        prev = cost_jw(eye_stack(4), covs, gz)
        for w in carried_sweeps(eye_stack(4), covs, inverse(gz), 30):
            cur = cost_jw(w, covs, gz)
            assert cur <= prev + 1e-12
            prev = cur


class TestIp2:
    def test_diagonal_closed_form(self):
        """G_z = diag(2, 8), G_1 = diag(1, 2): the largest pencil
        eigenvalue is 4 along e_2, scaled to w^H G_1 w = 1."""
        gz = np.diag([2.0, 8.0]).astype(complex)
        g1 = np.diag([1.0, 2.0]).astype(complex)
        w = ip2_update(g1, gz)
        np.testing.assert_allclose(np.abs(w), [0.0, 2.0**-0.5], atol=1e-12)
        np.testing.assert_allclose((w.conj() @ g1 @ w).real, 1.0, rtol=1e-12)

    def test_maximizes_rayleigh_quotient(self):
        rng = np.random.default_rng(14)
        g1 = random_hpd(rng, 3)
        gz = random_hpd(rng, 3)
        w = ip2_update(g1, gz)
        lam, _ = linalg.gev_largest(gz, g1)

        def quotient(u):
            return (u.conj() @ gz @ u).real / (u.conj() @ g1 @ u).real

        np.testing.assert_allclose(quotient(w), lam, rtol=1e-10)
        for _ in range(100):
            assert quotient(w + random_complex(rng, 3, 1e-3)) <= lam + 1e-12

    def test_global_optimum_beats_iterative(self):
        """Assembled with its completed background, the eigenvector filter
        attains a surrogate value no worse than 100 sweeps of the
        iterative schedule."""
        rng = np.random.default_rng(15)
        for m in (2, 3, 4):
            for _ in range(7):
                covs, gz = random_instance(rng, m, 1)
                w1 = ip2_update(covs[0], gz)
                w_eig = with_full_background(w1, gz)
                w_it = eye_stack(m)
                for _ in range(100):
                    w_it = ip1_full_sweep(w_it, covs, gz)
                assert cost_jw(w_eig, covs, gz) <= cost_jw(w_it, covs, gz) + 1e-8

    def test_determinant_identity(self):
        """|det W| = sqrt(lambda_max) / sqrt(det G_z) for the assembled
        eigenvector solution."""
        rng = np.random.default_rng(16)
        for m in (2, 3, 5):
            g1 = random_hpd(rng, m)
            gz = random_hpd(rng, m)
            w1 = ip2_update(g1, gz)
            w = with_full_background(w1, gz)
            lam, _ = linalg.gev_largest(gz, g1)
            lhs = linalg.logabsdet(w)
            rhs = 0.5 * np.log(lam) - 0.5 * np.linalg.slogdet(gz)[1]
            np.testing.assert_allclose(lhs, rhs, atol=1e-8)

    def test_singular_bin_changes_no_other_bin(self):
        """A copied microphone makes one bin's G_z singular; every other
        bin's filter is the same bits as from the batch without that
        bin."""
        rng = np.random.default_rng(17)
        m, n_bins, bad = 7, 12, 5
        x = random_complex(rng, (n_bins, 40, m))
        x[bad, :, 1] = x[bad, :, 0]
        gz = model.noise_covariance(x)
        assert linalg.psd_logdet(gz)[1].tolist() == [f == bad for f in range(n_bins)]
        g1 = random_hpd_batch(rng, n_bins, m)
        keep = np.arange(n_bins) != bad
        w = ip2_update(g1, gz)
        np.testing.assert_array_equal(w[keep], ip2_update(g1[keep], gz[keep]))

    def test_indefinite_target_raises(self):
        gz = np.eye(2, dtype=complex)
        g_bad = np.diag([1.0, -1.0]).astype(complex)
        with pytest.raises((NotPositiveDefinite, Exception)):
            ip2_update(g_bad, gz)


def planted_noise_cov(rng, m, log_cond, rank):
    """G_z = Q diag(s) Q^H with s falling log-evenly from 1 to
    10^-log_cond over its first `rank` entries and zero after them."""
    q, _ = np.linalg.qr(random_complex(rng, (m, m)))
    s = np.zeros(m)
    s[:rank] = np.logspace(0.0, -log_cond, rank)
    g = (q * s) @ q.conj().T
    return 0.5 * (g + g.conj().T)


def phase_aligned_error(w, ref):
    """Largest relative distance between w and ref, (..., M), after
    rotating each of w's vectors by the phase that best aligns it."""
    inner = np.sum(np.conj(w) * ref, axis=-1)
    aligned = w * (inner / np.abs(inner))[..., None]
    err = np.linalg.norm(aligned - ref, axis=-1)
    return float(np.max(err / np.linalg.norm(ref, axis=-1)))


class TestIp2FactoredProperty:
    """ip2_update against the pencil oracle that reduces (G_z, G_1) by
    triangular solves against G_1's Cholesky factor, over the
    conditioning and rank of G_z."""

    @settings(max_examples=200, deadline=None)
    @given(
        m=st.integers(2, 8),
        log_cond=st.floats(0.0, 10.0),
        rank=st.integers(1, 8),
        n_bins=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_pencil_oracle(self, m, log_cond, rank, n_bins, seed):
        """cond(G_z) from 1 to 1e10, and rank-deficient G_z. The
        smallest eigenpair of the pencil whitened by a factor of G_z
        would miss 1e-10 here once cond(G_z) passes about 1e5."""
        rng = np.random.default_rng(seed)
        rank = min(rank, m)
        gz = np.stack(
            [planted_noise_cov(rng, m, log_cond, rank) for _ in range(n_bins)]
        )
        g1 = random_hpd_batch(rng, n_bins, m)
        # The filter is defined up to phase only where the top is simple.
        top2 = np.stack(
            [scipy.linalg.eigh(a, b, eigvals_only=True)[-2:] for a, b in zip(gz, g1)]
        )
        assume(np.all(top2[:, 1] - top2[:, 0] > 1e-3 * top2[:, 1]))
        w = ip2_update(g1, gz)
        assert phase_aligned_error(w, ip2_update_gev(g1, gz)) <= 1e-10

    @settings(max_examples=60, deadline=None)
    @given(
        m=st.integers(2, 8),
        log_cond=st.floats(0.0, 4.0),
        c=st.floats(1e-3, 1e3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_proportional_pencil_gives_a_maximizer(self, m, log_cond, c, seed):
        """G_1 = c G_z ties every eigenvalue at 1/c, up to rounding, so the
        tie rule (lowest index among exactly equal eigenvalues) meets no
        exact tie and any direction is a maximizer: the filter must attain
        the quotient 1/c with w^H G_1 w = 1, and repeat bit for bit.
        (Any direction may come back, so cond(G_z) stays at 1e4 or below:
        the check's own rounding grows with it.)"""
        rng = np.random.default_rng(seed)
        gz = planted_noise_cov(rng, m, log_cond, m)
        g1 = c * gz
        w = ip2_update(g1, gz)
        np.testing.assert_array_equal(w, ip2_update(g1, gz))
        np.testing.assert_allclose((w.conj() @ g1 @ w).real, 1.0, rtol=1e-10)
        np.testing.assert_allclose((w.conj() @ gz @ w).real, 1.0 / c, rtol=1e-10)

    @pytest.mark.parametrize("m", [2, 5, 8])
    def test_zero_noise_cov_ties_to_the_first_axis(self, m):
        """G_z = 0 (a silent bin) ties every eigenvalue at exactly 0; the
        lowest index of the reduced problem's ordering gives w along e_1,
        as the pencil oracle does."""
        rng = np.random.default_rng(70 + m)
        g1 = random_hpd_batch(rng, 4, m)
        gz = np.zeros_like(g1)
        w = ip2_update(g1, gz)
        expected = np.zeros((4, m), dtype=complex)
        expected[:, 0] = g1[:, 0, 0].real ** -0.5
        np.testing.assert_allclose(w, expected, rtol=1e-14, atol=1e-14)
        np.testing.assert_allclose(
            w, ip2_update_gev(g1, gz), rtol=1e-14, atol=1e-14
        )


class TestProjectionBack:
    def test_identity_demixing(self):
        rng = np.random.default_rng(18)
        x = random_complex(rng, (6, 3))[:, None, :]
        w = eye_stack(3, (6,))
        img = projection_back_image(w, x, 1)
        ref = np.zeros_like(x)
        ref[..., 1] = x[..., 1]
        np.testing.assert_allclose(img, ref, atol=1e-14)

    def test_images_partition_input(self):
        rng = np.random.default_rng(19)
        m = 4
        x = random_complex(rng, (5, m))[:, None, :]
        w = random_complex(rng, (5, m, m)) + 2 * np.eye(m)
        total = sum(projection_back_image(w, x, k) for k in range(m))
        np.testing.assert_allclose(total, x, atol=1e-12)

    def test_invariant_to_filter_scale(self):
        rng = np.random.default_rng(20)
        m = 3
        x = random_complex(rng, (4, m))[:, None, :]
        w = random_complex(rng, (4, m, m)) + 2 * np.eye(m)
        base = projection_back_image(w, x, 0)
        w2 = w.copy()
        w2[:, :, 0] *= 3.0 - 4.0j
        np.testing.assert_allclose(
            projection_back_image(w2, x, 0), base, atol=1e-12
        )

    def test_returns_the_mixing_column_and_the_output(self):
        """The factors are W^{-H} e_j and w_j^H x for the leading k
        outputs, each C-contiguous with the bins innermost."""
        rng = np.random.default_rng(23)
        m, t = 3, 7
        x = random_complex(rng, (5, t, m))
        w = random_complex(rng, (5, m, m)) + 2 * np.eye(m)
        inv = np.linalg.inv(w.conj().transpose(0, 2, 1))
        for k in range(1, m + 1):
            mixing, outputs = projection_back(w, x, k)
            assert mixing.shape == (k, m, 5) and outputs.shape == (k, t, 5)
            assert mixing.flags.c_contiguous and outputs.flags.c_contiguous
            np.testing.assert_allclose(
                mixing, inv[:, :, :k].transpose(2, 1, 0), atol=1e-13
            )
            np.testing.assert_allclose(
                outputs,
                np.einsum("fmk,ftm->ktf", w[:, :, :k].conj(), x),
                atol=1e-13,
            )

    def test_shape_mismatch(self):
        rng = np.random.default_rng(24)
        x = random_complex(rng, (5, 7, 3))
        w = eye_stack(3, (5,))
        for bad in (x[:, 0], x[:4], x[..., :2]):
            with pytest.raises(ShapeMismatch):
                projection_back(w, bad, 1)

    @pytest.mark.parametrize("k", [4, 5, 0, -1, True, 2.0, 1.5, "1", None])
    def test_bad_target_count_is_invalid_k(self, k):
        """K follows run()'s rule for every method, 1 <= K <= M for a
        Python or numpy integer that is not a bool, so each bad K raises
        InvalidK, not whatever numpy raises first."""
        rng = np.random.default_rng(25)
        x = random_complex(rng, (4, 5, 3))
        w = eye_stack(3, (4,))
        with pytest.raises(InvalidK, match="n_targets"):
            projection_back(w, x, k)

    def test_numpy_target_count_accepted(self):
        rng = np.random.default_rng(26)
        x = random_complex(rng, (4, 5, 3))
        mixing, outputs = projection_back(eye_stack(3, (4,)), x, np.int64(3))
        assert mixing.shape == (3, 3, 4) and outputs.shape == (3, 5, 4)

    @settings(max_examples=100, deadline=None)
    @given(
        n_bins=st.integers(1, 6),
        n_frames=st.integers(1, 30),
        m=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_complex_einsum(self, n_bins, n_frames, m, seed):
        """Every output w_k^H x of the M that one call returns is the
        einsum's within 1e-14 of ||w_k|| ||x||."""
        rng = np.random.default_rng(seed)
        x = random_complex(rng, (n_bins, n_frames, m))
        w = random_complex(rng, (n_bins, m, m)) + 2 * np.eye(m)
        _, outputs = projection_back(w, x, m)
        for k in range(m):
            ref = np.einsum("fm,ftm->ft", w[:, :, k].conj(), x)
            bound = np.linalg.norm(w[:, :, k], axis=-1)[:, None] * np.linalg.norm(
                x, axis=-1
            )
            assert np.all(np.abs(outputs[k].T - ref) <= 1e-14 * bound)

    def test_allocates_its_results_and_little_else(self, traced_peak):
        """The call allocates less than its two results plus one
        (F, M, M) array: each output is written in place, with no (F, T)
        transient, and the solve's scratch is freed before the outputs
        are allocated."""
        rng = np.random.default_rng(5)
        n_bins, n_frames, m = 513, 400, 4
        x = random_complex(rng, (n_bins, n_frames, m))
        w = random_complex(rng, (n_bins, m, m)) + 2 * np.eye(m)
        for k in (1, 2, m):
            (mixing, outputs), peak = traced_peak(projection_back, w, x, k)
            assert peak < mixing.nbytes + outputs.nbytes + w.nbytes, k


def planted_scene(rng, n_bins, n_frames, m, flat_mixing=True):
    """One nonstationary target plus stationary noise through a fixed
    well-conditioned mixing matrix. Returns (x, reference_image)."""
    env = 0.05 + rng.uniform(0, 1, n_frames) ** 2
    s = env[None, :] * random_complex(rng, (n_bins, n_frames))
    noise = random_complex(rng, (n_bins, n_frames, m - 1), 0.3)
    srcs = np.concatenate([s[:, :, None], noise], axis=2)
    a = random_complex(rng, (m, m), 0.5) + np.eye(m)
    x = srcs @ a.T
    ref = s[:, :, None] * a[:, 0]
    return x, ref


def near_copy(x, f, level):
    """x with microphone 3 of bin f replaced by microphone 0 plus
    complex noise level times microphone 0's mean magnitude."""
    rng = np.random.default_rng(40)
    out = x.copy()
    src = out[f, :, 0]
    noise = random_complex(rng, src.shape)
    out[f, :, 3] = src + level * np.abs(src).mean() * noise
    return out


def reference_trace(x, n_targets, method, iterations, singular=()):
    """cost_total after each iteration of a plain run() loop: variances,
    sweep, rescale. The sweeps read the identity for a silent bin's G_z;
    ip2's sweep completes the background every iteration, as ip1's
    does. For ip1, ip2 and ip3 the cost is taken with the stack's own
    background on the silent bins and on the bins listed in singular
    (those the caller built with a singular G_z), and with the fully
    normalized background on every other bin; for auxiva always with the
    stack's own. No bin is classified from G_z's rounding."""
    n_bins, _, m = x.shape
    gz = model.noise_covariance(x)
    silent = np.einsum("fmm->f", gz).real == 0
    sweep_gz = gz.copy()
    sweep_gz[silent] = np.eye(m)
    profiled = ~silent
    profiled[list(singular)] = False
    w = eye_stack(m, (n_bins,))
    trace = []
    for _ in range(iterations):
        lam = update_variances_unblocked(
            (x @ np.conj(w[..., :n_targets])).transpose(2, 0, 1)
        )
        covs = np.stack(
            [model.weighted_covariance(x, lam[k]) for k in range(n_targets)]
        )
        if method == "ip1":
            w = ip1_sweep(w, covs, sweep_gz)
        elif method == "ip3":
            w = ip3_sweep(w, covs, sweep_gz)
        elif method == "ip2":
            w[..., 0] = ip2_update(covs[0], sweep_gz)
            w[..., 1:] = update_wz_fast(w[..., :1], sweep_gz)
        else:
            w = auxiva_sweep_solved(
                w, covs, inverse(sweep_gz) if n_targets < m else sweep_gz
            )
        scale = lam.mean(axis=1)
        w[..., :n_targets] *= scale**-0.5
        full = w.copy()
        if method != "auxiva":
            full[profiled, :, n_targets:] = update_wz_full(
                w[profiled], gz[profiled], n_targets
            )
        trace.append(model.cost_total(full, lam / scale[:, None], x))
    return np.array(trace)


def reference_auxiva_images(x, n_targets, iterations):
    """auxiva's (K, F, T, M) images from a plain run() loop on an input
    with no silent bin, whose sweeps solve W^{-H} afresh every time
    (auxiva_sweep_solved): the leading K outputs' images."""
    n_bins, _, m = x.shape
    gz = model.noise_covariance(x)
    noise_inv = inverse(gz) if n_targets < m else gz
    w = eye_stack(m, (n_bins,))
    for _ in range(iterations):
        lam = update_variances_unblocked(
            (x @ np.conj(w[..., :n_targets])).transpose(2, 0, 1)
        )
        covs = np.stack(
            [model.weighted_covariance(x, lam[k]) for k in range(n_targets)]
        )
        w = auxiva_sweep_solved(w, covs, noise_inv)
        w[..., :n_targets] *= lam.mean(axis=1) ** -0.5
    return np.stack([projection_back_image(w, x, j) for j in range(n_targets)])


def image_sdr(est, ref):
    alpha = np.vdot(est, ref) / np.vdot(est, est)
    err = ref - alpha * est
    return 10 * np.log10(np.sum(np.abs(ref) ** 2) / np.sum(np.abs(err) ** 2))


def count_calls(monkeypatch, owner, name):
    """Replace owner.name by a wrapper that records each call's
    positional arguments; returns the list they are appended to."""
    calls = []
    real = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


class TestRunCallCounts:
    """G_z is fixed for a run, so run() forms what the sweeps read of it
    (auxiva's inverse) once, before the iteration loop."""

    def make_x(self, n_bins=16, m=4):
        rng = np.random.default_rng(30)
        return planted_scene(rng, n_bins, 60, m)[0]

    @staticmethod
    def inline_pool(monkeypatch):
        """Replace run()'s thread pool by a stand-in that maps inline, so
        no thread is started; returns the list of worker counts asked."""
        requested = []

        class InlinePool:
            def __init__(self, max_workers):
                requested.append(max_workers)

            def map(self, fn, items):
                return map(fn, items)

            def shutdown(self):
                pass

        monkeypatch.setattr(optimizer, "ThreadPoolExecutor", InlinePool)
        return requested

    def test_pool_has_no_more_workers_than_cpus(self, monkeypatch):
        """threads = 5000 on 16 bins asks the pool for min(threads,
        os.cpu_count() or 1) workers: map starts a thread for every chunk
        that finds no idle worker, up to that count. When that is one
        worker (os.cpu_count() of None), no pool is made. The stand-in
        pool records the request; the results are those of threads = 1."""
        requested = self.inline_pool(monkeypatch)
        x = self.make_x()
        ref = run(x, 2, RunConfig(method="ip1", iterations=2))
        assert requested == []
        for cpus in (3, None):
            monkeypatch.setattr(optimizer.os, "cpu_count", lambda: cpus)
            config = RunConfig(method="ip1", iterations=2, threads=5000)
            res = run(x, 2, config)
            np.testing.assert_array_equal(res.images, ref.images)
            np.testing.assert_array_equal(res.cost_trace, ref.cost_trace)
        assert requested == [3]

    def test_threads_beyond_the_cpus_add_no_chunks(self, monkeypatch):
        """The chunks follow the workers, not threads: with 2 CPUs,
        threads = 5000 on 16 bins sweeps each iteration in the chunks of
        2 workers, not in 16 one-bin chunks."""
        self.inline_pool(monkeypatch)
        monkeypatch.setattr(optimizer.os, "cpu_count", lambda: 2)
        sweeps = count_calls(monkeypatch, optimizer, "ip1_sweep")
        x = self.make_x()
        run(x, 2, RunConfig(method="ip1", iterations=2, threads=5000))
        n_chunks = len(blocks(len(x), 16 * x.shape[-1] ** 2, at_least=2))
        assert n_chunks < len(x)
        assert len(sweeps) == 2 * n_chunks

    @pytest.mark.parametrize("threads", [1, 2])
    def test_ip2_factors_only_the_target_covariances(self, monkeypatch, threads):
        """One Cholesky of G_1 per iteration and chunk and none of G_z;
        one LU solve per iteration and chunk, the sweep's background
        completion, and one for projection back after the loop."""
        x = self.make_x()
        gz = model.noise_covariance(x)
        chol = count_calls(monkeypatch, np.linalg, "cholesky")
        lu = count_calls(monkeypatch, linalg, "lu_solve")
        run(x, 1, RunConfig(method="ip2", iterations=3, threads=threads))
        n_chunks = len(sweep_chunks(len(x), x.shape[-1], threads))
        assert len(chol) == 3 * n_chunks
        for (g1,) in chol:
            gap = np.abs(g1[:, None] - gz[None]).max(axis=(-2, -1))
            assert gap.min() > 0
        assert len(lu) == 3 * n_chunks + 1

    @pytest.mark.parametrize("threads", [1, 2])
    def test_ip2_steps_through_ip2_update(self, monkeypatch, threads):
        """Each iteration takes ip2's step with one ip2_update call per
        frequency chunk, over that chunk's slice of G_z itself, and
        completes the background with one update_wz_fast call over the
        same slice. Both are called by their module names, so a tracer's
        wrapper sees them."""
        x = self.make_x()
        gz = model.noise_covariance(x)
        steps = count_calls(monkeypatch, optimizer, "ip2_update")
        completions = count_calls(monkeypatch, optimizer, "update_wz_fast")
        run(x, 1, RunConfig(method="ip2", iterations=3, threads=threads))
        chunks = sweep_chunks(len(x), x.shape[-1], threads)
        for calls in (steps, completions):
            used = sorted(
                next(i for i, sl in enumerate(chunks) if np.array_equal(g, gz[sl]))
                for _, g in calls
            )
            assert used == sorted(3 * list(range(len(chunks))))

    @pytest.mark.parametrize("threads", [1, 2])
    def test_ip2_pencil_is_hermitian_bit_for_bit(self, monkeypatch, threads):
        """linalg.gev_largest reads the lower triangle of each operand and
        checks neither, so every G_z and G_1 that run() hands it must equal
        its conjugate transpose bit for bit: also on silent bins 0-2 (G_z
        read as the identity) and on bin 5, where microphone 1 copies
        microphone 0."""
        x = self.make_x()
        x[:3] = 0
        x[5, :, 1] = x[5, :, 0]
        pencils = count_calls(monkeypatch, linalg, "gev_largest")
        run(x, 1, RunConfig(method="ip2", iterations=3, threads=threads))
        n_chunks = len(sweep_chunks(len(x), x.shape[-1], threads))
        assert len(pencils) == 3 * n_chunks
        for pencil in pencils:
            for g in pencil:
                np.testing.assert_array_equal(g, linalg.hermitian_transpose(g))

    @pytest.mark.parametrize("threads", [1, 2])
    def test_each_step_is_called_through_the_module(self, monkeypatch, threads):
        """run() calls each method's step by its module name, once per
        iteration and frequency chunk, and no other method's step, so a
        wrapper set on the module (as a tracer sets) sees every call."""
        x = self.make_x()
        steps = {
            Method.AUXIVA: "auxiva_sweep",
            Method.IP1: "ip1_sweep",
            Method.IP2: "ip2_sweep",
            Method.IP3: "ip3_sweep",
        }
        assert set(steps) == set(Method)
        calls = {
            name: count_calls(monkeypatch, optimizer, name) for name in steps.values()
        }
        n_chunks = len(sweep_chunks(len(x), x.shape[-1], threads))
        for method, name in steps.items():
            for seen in calls.values():
                seen.clear()
            run(x, 1, RunConfig(method=method, iterations=3, threads=threads))
            counts = {step: len(seen) for step, seen in calls.items()}
            assert counts == {step: 3 * n_chunks * (step == name) for step in calls}

    @pytest.mark.parametrize("threads", [1, 2])
    def test_variances_and_image_factors_are_called_through_the_module(
        self, monkeypatch, threads
    ):
        """Every method takes each iteration's variances from one
        model.update_variances call and all K targets' image factors from
        one projection_back call, by their module names, so a wrapper set
        on the module (as a tracer sets) sees every call."""
        x = self.make_x()
        variances = count_calls(monkeypatch, model, "update_variances")
        factors = count_calls(monkeypatch, optimizer, "projection_back")
        for method in Method:
            for k in (1,) if method is Method.IP2 else (1, 2):
                variances.clear()
                factors.clear()
                run(x, k, RunConfig(method=method, iterations=3, threads=threads))
                assert (len(variances), len(factors)) == (3, 1), (method, k)
                assert factors[0][2] == k

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_auxiva_images_come_from_projection_back(self, monkeypatch, k):
        """auxiva's K images are projection_back's of the leading K
        columns of the returned stack, in column order. Every column
        stays where the last sweep left it: the K targets rescaled (by
        one factor per target, shared by all bins), the background as it
        is. Microphone 3 is boosted so that a ranking by image power
        would have reordered the columns."""
        x = self.make_x()
        x[..., 3] *= 10
        sweeps = []
        real_sweep = optimizer.auxiva_sweep

        def last_sweep(*args, **kwargs):
            out = real_sweep(*args, **kwargs)
            sweeps[:] = [out]
            return out

        monkeypatch.setattr(optimizer, "auxiva_sweep", last_sweep)
        result = run(x, k, RunConfig(method="auxiva", iterations=5))
        w = result.demixing.matrices
        assert len(result.images) == k
        for j, img in enumerate(result.images):
            np.testing.assert_array_equal(img, projection_back_image(w, x, j))
        last = sweeps[0]
        np.testing.assert_array_equal(w[:, :, k:], last[:, :, k:])
        scale = (w[0, 0, :k] / last[0, 0, :k]).real
        np.testing.assert_allclose(w[:, :, :k], last[:, :, :k] * scale, rtol=1e-14)
        m = x.shape[-1]
        powers = [
            np.sum(np.abs(projection_back_image(w, x, j)) ** 2) for j in range(m)
        ]
        ranked = powers[:k] == sorted(powers[:k], reverse=True)
        assert not (ranked and min(powers[:k]) >= max(powers[k:]))

    @pytest.mark.parametrize(
        "method,k", [(m.value, 1 if m is Method.IP2 else 2) for m in Method]
    )
    def test_images_come_from_projection_back(self, method, k):
        """Every method's images are projection_back's, stored with the
        bins innermost for istft."""
        x = self.make_x()
        result = run(x, k, RunConfig(method=method, iterations=3))
        images = result.images
        assert images.shape == (k,) + x.shape
        assert np.moveaxis(images, 1, -1).flags.c_contiguous
        for j in range(k):
            np.testing.assert_array_equal(
                images[j], projection_back_image(result.demixing.matrices, x, j)
            )

    def test_images_are_formed_from_the_factors_when_read(self):
        """run() returns each image as its mixing columns (K, M, F) and
        output spectra (K, T, F), bins innermost; images forms the dense
        stack from them on first access and keeps it."""
        x = self.make_x()
        n_bins, n_frames, m = x.shape
        result = run(x, 2, RunConfig(method="ip1", iterations=3))
        assert "images" not in vars(result)
        assert result.mixing.shape == (2, m, n_bins)
        assert result.outputs.shape == (2, n_frames, n_bins)
        assert result.mixing.flags.c_contiguous
        assert result.outputs.flags.c_contiguous
        images = result.images
        assert result.images is images
        np.testing.assert_array_equal(
            images,
            result.outputs.transpose(0, 2, 1)[..., None]
            * result.mixing.transpose(0, 2, 1)[:, :, None],
        )

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_auxiva_lu_solves(self, monkeypatch, k):
        """K batched LU solves per sweep (one per target), one for
        G_z^{-1} when there are background rows, one for the K mixing
        columns (projection_back), and one of W^H per refresh of the
        carried W^{-H}, at sweeps 8 and 16; _auxiva_order ranks from the
        carried inverse and solves nothing. Silent bins (0-1 in the
        second input) take the same sweep and add none."""
        x = self.make_x()
        quiet = x.copy()
        quiet[:2] = 0
        lu = count_calls(monkeypatch, linalg, "lu_solve")
        for data, iterations, refreshes in ((x, 5, 0), (quiet, 5, 0), (x, 17, 2)):
            lu.clear()
            run(data, k, RunConfig(method="auxiva", iterations=iterations))
            assert len(lu) == iterations * k + (k < 4) + 1 + refreshes

    @pytest.mark.parametrize("method", ["ip1", "ip3"])
    @pytest.mark.parametrize("k", [1, 2])
    def test_row_updates_per_sweep_with_silent_bins(self, monkeypatch, method, k):
        """Bins 0-1 are silent: each sweep still updates each target row
        once, over all bins together."""
        x = self.make_x()
        x[:2] = 0
        rows = count_calls(monkeypatch, optimizer, "ip0_update_row")
        run(x, k, RunConfig(method=method, iterations=3))
        assert len(rows) == 3 * k
        assert all(len(w) == len(x) for w, _, _ in rows)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_auxiva_singular_noise_cov_at_live_bin_names_bin(self, threads):
        """Bins 0-1 are silent and bin 5 has a copied microphone: the one
        G_z inverse of the run fails there, with that bin's index."""
        x = self.make_x()
        x[:2] = 0
        x[5, :, 3] = x[5, :, 0]
        with pytest.raises(SingularMatrix, match="frequency bin 5") as info:
            run(x, 1, RunConfig(method="auxiva", iterations=3, threads=threads))
        assert info.value.batch_index == 5

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize(
        "method,k", [("ip1", 2), ("ip2", 1), ("ip3", 2), ("auxiva", 2)]
    )
    def test_cost_takes_no_determinant_of_w(self, monkeypatch, method, k, threads):
        """Every method's trace takes one determinant per iteration, over
        the whole stack, of the K x K Gram matrix W_s^H G_z W_s. With bins
        0-1 silent, only those two bins take the explicit formula's
        determinant of W."""
        x = self.make_x()
        dets = count_calls(monkeypatch, linalg, "logabsdet")
        run(x, k, RunConfig(method=method, iterations=3, threads=threads))
        shapes = [a.shape for (a,) in dets]
        assert len(shapes) == 3
        assert sum(shape[0] for shape in shapes) == 3 * len(x)
        assert all(shape[1:] == (k, k) for shape in shapes)
        x[:2] = 0
        dets.clear()
        run(x, k, RunConfig(method=method, iterations=3))
        shapes = [a.shape for (a,) in dets]
        m = x.shape[-1]
        assert shapes == 3 * [(len(x) - 2, k, k), (2, m, m)]

    def test_ip2_error_on_silent_bins_names_bin(self):
        """With no ridge, the silent bins' G_1 = 0 has no Cholesky factor;
        the error names the first of them, not a live bin."""
        x = self.make_x()
        x[[3, 7]] = 0
        with pytest.raises(NotPositiveDefinite, match="frequency bin 3") as info:
            run(x, 1, RunConfig(method="ip2", eps2=0.0))
        assert info.value.batch_index == 3


class TestRun:
    def make_x(self, seed=0, n_bins=24, n_frames=60, m=3):
        rng = np.random.default_rng(seed)
        x, ref = planted_scene(rng, n_bins, n_frames, m)
        return x, ref

    def test_deterministic(self):
        x, _ = self.make_x()
        cfg = RunConfig(method="ip1", iterations=15)
        r1 = run(x, 1, cfg)
        r2 = run(x, 1, cfg)
        np.testing.assert_array_equal(r1.images, r2.images)
        np.testing.assert_array_equal(r1.cost_trace, r2.cost_trace)

    def test_threads_bit_identical(self):
        """Also with silent bins, which take the same sweep with G_z read
        as the identity, and whose cost terms are masked."""
        x, _ = self.make_x()
        quiet = x.copy()
        quiet[[0, 1, 2, 10]] = 0
        cases = [(1, m) for m in Method]
        cases += [(2, m) for m in Method if m is not Method.IP2]
        for data in (x, quiet):
            for k, method in cases:
                seq = run(data, k, RunConfig(method=method, iterations=8, threads=1))
                for threads in (2, 3):
                    par = run(
                        data, k,
                        RunConfig(method=method, iterations=8, threads=threads),
                    )
                    np.testing.assert_array_equal(seq.images, par.images)
                    np.testing.assert_array_equal(seq.cost_trace, par.cost_trace)

    @pytest.mark.parametrize("bins_per_block", [None, 5])
    def test_threads_bit_identical_across_variance_blocks(
        self, monkeypatch, bins_per_block
    ):
        """The variances are summed over fixed blocks of bins in bin
        order, whatever the thread count: images and cost trace are the
        same bits at threads 1, 2 and 3, with F = 24 inside one block
        and with blocks of 5 bins, which 24 is not a multiple of."""
        x, _ = self.make_x()
        n_bins, n_frames = x.shape[:2]
        cases = [(1, m) for m in Method]
        cases += [(2, m) for m in Method if m is not Method.IP2]
        for k, method in cases:
            if bins_per_block is not None:
                monkeypatch.setattr(
                    model, "COVARIANCE_BLOCK_BYTES",
                    bins_per_block * 16 * n_frames * k,
                )
            bin_slices = blocks(
                n_bins, 16 * n_frames * k, model.COVARIANCE_BLOCK_BYTES
            )
            if bins_per_block is None:
                assert len(bin_slices) == 1
            else:
                assert bin_slices[0] == slice(0, 5) and n_bins % 5 != 0
            runs = [
                run(x, k, RunConfig(method=method, iterations=6, threads=t))
                for t in (1, 2, 3)
            ]
            for par in runs[1:]:
                np.testing.assert_array_equal(runs[0].images, par.images)
                np.testing.assert_array_equal(runs[0].cost_trace, par.cost_trace)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_bit_identical_across_sweep_chunk_counts(self, monkeypatch, threads):
        """The sweeps run in the fewest bin chunks whose (chunk, M, M)
        array fits stft.SCRATCH_BYTES, at every threads setting. At
        F = 1025, M = 8 that is 2 chunks by default and 26 at 40 KiB; a
        budget that holds every bin gives 1 chunk (one per worker,
        min(threads, CPUs), at threads > 1). Images, demixing and cost
        trace are the same bits for each, for every method, with three
        silent bins."""
        rng = np.random.default_rng(31)
        n_bins, m = 1025, 8
        x = planted_scene(rng, n_bins, 24, m)[0]
        x[:3] = 0
        budgets = {
            "one": 1 << 40, "default": stft_module.SCRATCH_BYTES, "small": 40 << 10
        }
        chunks = {}
        for name, budget in budgets.items():
            monkeypatch.setattr(stft_module, "SCRATCH_BYTES", budget)
            chunks[name] = len(sweep_chunks(n_bins, m, threads))
        workers = min(threads, optimizer.os.cpu_count() or 1)
        assert chunks == {"one": workers, "default": 2, "small": 26}
        cases = [(1, method) for method in Method]
        cases += [(2, method) for method in Method if method is not Method.IP2]
        for k, method in cases:
            config = RunConfig(method=method, iterations=3, threads=threads)
            results = []
            for budget in budgets.values():
                monkeypatch.setattr(stft_module, "SCRATCH_BYTES", budget)
                results.append(run(x, k, config))
            ref = results[0]
            for res in results[1:]:
                np.testing.assert_array_equal(res.images, ref.images)
                np.testing.assert_array_equal(
                    res.demixing.matrices, ref.demixing.matrices
                )
                np.testing.assert_array_equal(res.cost_trace, ref.cost_trace)

    def test_non_contiguous_input_bit_identical(self):
        """A strided (F, T, M) view runs exactly like its contiguous copy."""
        x, _ = self.make_x()
        view = np.ascontiguousarray(x.transpose(1, 0, 2)).transpose(1, 0, 2)
        assert not view.flags.c_contiguous
        for k, method in ((1, "ip2"), (2, "ip1"), (2, "auxiva")):
            cfg = RunConfig(method=method, iterations=5)
            ref = run(np.ascontiguousarray(x), k, cfg)
            res = run(view, k, cfg)
            np.testing.assert_array_equal(res.images, ref.images)
            np.testing.assert_array_equal(res.cost_trace, ref.cost_trace)

    def test_shapes_and_trace_length(self):
        x, _ = self.make_x(m=4)
        res = run(x, 2, RunConfig(method="ip1", iterations=12))
        assert res.images.shape == (2, 24, 60, 4)
        assert res.demixing.n_targets == 2
        assert len(res.cost_trace) == 12
        assert res.wall_time > 0

    def test_invalid_target_counts(self):
        x, _ = self.make_x(m=3)
        with pytest.raises(InvalidK):
            run(x, 0, RunConfig(method="ip1"))
        with pytest.raises(InvalidK):
            run(x, 3, RunConfig(method="ip1"))
        with pytest.raises(InvalidK, match="ip2 requires K=1"):
            run(x, 2, RunConfig(method="ip2"))
        with pytest.raises(InvalidK):
            run(x, 4, RunConfig(method="auxiva"))
        for method in ("ip1", "auxiva"):
            for bad in (1.5, 2.0, True, "1"):
                with pytest.raises(InvalidK, match="n_targets must be an integer"):
                    run(x, bad, RunConfig(method=method, iterations=1))
        res = run(x, np.int64(1), RunConfig(method="ip1", iterations=1))
        assert type(res.demixing.n_targets) is int

    def test_auxiva_allows_determined_case(self):
        x, _ = self.make_x(m=3)
        res = run(x, 3, RunConfig(method="auxiva", iterations=5))
        assert res.images.shape[0] == 3

    def test_zero_input_runs_clean(self):
        x = np.zeros((10, 20, 3), complex)
        for method in ("auxiva", "ip1", "ip2", "ip3"):
            res = run(x, 1, RunConfig(method=method, iterations=3))
            assert np.abs(res.images).max() == 0.0
            assert np.all(np.isfinite(res.cost_trace))

    def test_cost_monotone_auxiva_and_ip1_full(self):
        """Every schedule descends the recorded objective at every
        iteration at the default settings (for ip1, ip2 and ip3 the trace
        profiles the background, which is what the full block attains)."""
        x, _ = self.make_x(seed=3)
        for method in ("auxiva", "ip1", "ip2", "ip3"):
            res = run(x, 1, RunConfig(method=method, iterations=30))
            trace = np.asarray(res.cost_trace)
            diffs = np.diff(trace)
            assert np.all(diffs <= 1e-8 * np.abs(trace[:-1])), method

    def test_recovers_planted_source(self):
        """Every schedule pulls the planted nonstationary source out of the
        mixture far better than the raw mixture channel does."""
        x, ref = self.make_x(seed=4, n_bins=32, n_frames=120, m=3)
        mixture_score = image_sdr(np.repeat(x[:, :, :1], 3, axis=2), ref)
        for method in ("auxiva", "ip1", "ip2", "ip3"):
            res = run(x, 1, RunConfig(method=method))
            score = image_sdr(res.images[0], ref)
            assert score > 15.0, (method, score)
            assert score > mixture_score + 10.0, (method, score, mixture_score)

    def test_ip3_matches_ip1_single_target(self):
        x, _ = self.make_x(seed=5)
        r1 = run(x, 1, RunConfig(method="ip1", iterations=20))
        r3 = run(x, 1, RunConfig(method="ip3", iterations=20))
        np.testing.assert_array_equal(r1.images, r3.images)

    def test_auxiva_duplicated_channel_names_bin(self):
        """A copied microphone makes the background rows' covariance
        singular; the failure names the first frequency bin."""
        x, _ = self.make_x(m=3)
        x = np.concatenate([x, x[:, :, :1]], axis=2)
        with pytest.raises(SingularMatrix, match="frequency bin 0"):
            run(x, 1, RunConfig(method="auxiva", iterations=3))

    def test_cost_trace_matches_reference_loop(self):
        """The trace run() takes from W and G_z is the full
        objective at the fully normalized background (ip1, ip2, ip3) and
        at the stack itself (auxiva, also at K = M), at 1 and 2 threads.
        Bins 0-2 of the "silent" input are all zero; bin 5 of the
        "copied" input has a copied microphone. Both leave G_z singular,
        so for ip1, ip2 and ip3 those bins take the explicit formula;
        auxiva inverts G_z, so it has no copied case. Bin 5 of the "near"
        input has a microphone copied with noise 1e-2 below it, which
        leaves G_z regular but ill-conditioned there (cond about 1e5)."""
        plain, _ = self.make_x(seed=6, m=4)
        silent = plain.copy()
        silent[:3] = 0
        copied = plain.copy()
        copied[5, :, 3] = copied[5, :, 0]
        near = near_copy(plain, 5, 1e-2)
        schedules = [("ip1", 2), ("ip2", 1), ("ip3", 2), ("auxiva", 2), ("auxiva", 4)]
        inputs = [
            ("plain", plain, ()), ("silent", silent, ()), ("copied", copied, [5]),
            ("near", near, ()),
        ]
        cases = [
            (method, k, name, x, singular)
            for method, k in schedules
            for name, x, singular in inputs
            if not (method == "auxiva" and name == "copied")
        ]
        for method, k, name, x, singular in cases:
            ref = reference_trace(x, k, method, 12, singular)
            for threads in (1, 2):
                cfg = RunConfig(method=method, iterations=12, threads=threads)
                got = run(x, k, cfg).cost_trace
                rel = np.abs(got - ref) / np.abs(ref)
                assert rel.max() <= 1e-10, (method, k, name, threads, rel.max())

    def test_copied_microphone_bins_take_the_explicit_cost(self):
        """Microphone 3 copies microphone 0 in every bin, so every G_z is
        singular and every bin must take the explicit formula. LU meets
        an exactly zero pivot on only some of these G_z (asserted), so a
        rule read from the pivots would score the others with a
        meaningless log det G_z."""
        plain, _ = self.make_x(seed=6, m=4)
        x = plain.copy()
        x[:, :, 3] = x[:, :, 0]
        n_bins = len(x)
        sign = np.linalg.slogdet(model.noise_covariance(x))[0]
        assert 0 < np.sum(sign != 0) < n_bins
        for method, k in [("ip1", 2), ("ip2", 1), ("ip3", 2)]:
            ref = reference_trace(x, k, method, 12, range(n_bins))
            for threads in (1, 2):
                cfg = RunConfig(method=method, iterations=12, threads=threads)
                got = run(x, k, cfg).cost_trace
                rel = np.abs(got - ref) / np.abs(ref)
                assert rel.max() <= 1e-10, (method, k, threads, rel.max())

    def test_cost_trace_on_an_ill_conditioned_bin(self):
        """Bin 5 holds a microphone copied with noise 1e-3 or 1e-4 below
        it, so cond(G_z) there is about 5e6 or 5e8. The row
        normalizations the trace relies on, and cost_total's explicit
        terms, then hold to about cond(G_z) eps of that bin's term; the
        two still agree to cond(G_z) eps of the whole trace."""
        plain, _ = self.make_x(seed=6, m=4)
        eps = np.finfo(float).eps
        for level in (1e-3, 1e-4):
            x = near_copy(plain, 5, level)
            cond = np.linalg.cond(model.noise_covariance(x)[5])
            assert cond > 0.1 / level**2
            for method, k in [("ip1", 2), ("ip2", 1), ("ip3", 2), ("auxiva", 2)]:
                ref = reference_trace(x, k, method, 12)
                got = run(x, k, RunConfig(method=method, iterations=12)).cost_trace
                rel = np.abs(got - ref) / np.abs(ref)
                assert rel.max() <= cond * eps, (level, method, rel.max())

    @pytest.mark.parametrize("k", [2, 4])
    def test_auxiva_carried_inverse_holds_over_long_runs(self, k):
        """Over 200 iterations, at K < M and K = M, auxiva's images stay
        within 1e-9, relative to the largest, of a loop that solves
        W^{-H} afresh in every sweep, at 1 and 2 threads. Carried by its
        rank-one updates alone, without run()'s refresh, W^{-H} drifts:
        on this scene the images then moved by 1.2e-5 at K = 2 and by
        5.8 at K = 4."""
        x, _ = self.make_x(n_bins=16, m=4)
        ref = reference_auxiva_images(x, k, 200)
        for threads in (1, 2):
            cfg = RunConfig(method="auxiva", iterations=200, threads=threads)
            got = run(x, k, cfg).images
            rel = np.abs(got - ref).max() / np.abs(ref).max()
            assert rel <= 1e-9, (threads, rel)

    def test_auxiva_error_behind_silent_bins_names_bin(self):
        """Bins 0-2 are silent, so the background rows read the identity
        there; the copied microphone makes bin 3 the first singular one."""
        x, _ = self.make_x(n_bins=16, m=3)
        x[:3] = 0
        x = np.concatenate([x, x[:, :, :1]], axis=2)
        with pytest.raises(SingularMatrix, match="frequency bin 3") as info:
            run(x, 1, RunConfig(method="auxiva", iterations=3))
        assert info.value.batch_index == 3

    def test_ip2_cost_error_names_bin(self):
        """A dead microphone makes the noise covariance singular, and the
        target block of the sweep's background completion with it; the
        failure at bin 3 (behind three silent bins, which read the
        identity) carries the bin."""
        x, _ = self.make_x(n_bins=16, m=3)
        x[:, :, 0] = 0
        x[:3] = 0
        with pytest.raises(NumericalError, match="frequency bin 3") as info:
            run(x, 1, RunConfig(method="ip2"))
        assert info.value.batch_index == 3

    def test_projection_back_error_names_bin(self, monkeypatch):
        """At an input gain of 1e9, ip2's last W^H is singular to working
        precision in one bin, which projection_back's LU solve finds
        after the sweeps; the failure carries the bin as run()'s other
        stages' do."""
        spec = SceneSpec(1, 2, 3, 0.0, duration_s=1.0, seed=3)
        x = stft(synthesize(spec).mixture * 1e9, StftConfig(512))
        calls = count_calls(monkeypatch, optimizer, "projection_back")
        with pytest.raises(SingularMatrix) as info:
            run(x, 1, RunConfig(method="ip2", iterations=3))
        assert len(calls) == 1
        found = re.match(
            r"frequency bin (\d+): matrix at batch index \1 is singular",
            str(info.value),
        )
        assert found is not None, str(info.value)
        assert info.value.batch_index == int(found[1])

    @pytest.mark.parametrize("method", ["ip1", "ip2", "ip3"])
    def test_dead_microphone_is_a_degenerate_block_at_bin_0(self, method):
        """With microphone 0 all zero, G_z's first row and column vanish
        in every bin. The first sweep's background completion then meets
        a singular target block in bin 0, for ip2 as for ip1 and ip3."""
        x, _ = self.make_x(n_bins=16, m=4)
        x[:, :, 0] = 0
        with pytest.raises(DegenerateBlock, match="frequency bin 0") as info:
            run(x, 1, RunConfig(method=method, iterations=3))
        assert info.value.batch_index == 0

    @pytest.mark.parametrize(
        "spec",
        [
            SceneSpec(1, 6, 7, duration_s=0.5, sample_rate=8000, seed=1),
            SceneSpec(2, 4, 6, duration_s=0.5, sample_rate=8000, seed=2),
            SceneSpec(2, 6, 8, duration_s=0.5, sample_rate=8000, seed=3),
            SceneSpec(1, 2, 3, 0.0, 80.0, 8000, 1.0, 3),
        ],
        ids=["1/7", "2/6", "2/8", "1/3"],
    )
    def test_auxiva_keeps_the_targets_ip1_extracts(self, spec):
        """At K < M, auxiva's background rows share G_z, so its iterates
        are ip1's up to rounding, and its images are ip1's: within 1e-10
        of the largest image, with traces within 1e-9 relative. The
        shapes are small versions of the three benchmark workloads', and
        the 1/3 scene is one on which a ranking by image power put a
        background output first. After 4 iterations, that ranking also
        returned another output than ip1's on the 2/8 scene."""
        x = stft(synthesize(spec).mixture, StftConfig(512, 128))
        k = spec.n_sources
        aux = run(x, k, RunConfig(method="auxiva", iterations=4))
        ip1 = run(x, k, RunConfig(method="ip1", iterations=4))
        scale = np.abs(ip1.images).max()
        assert np.abs(aux.images - ip1.images).max() <= 1e-10 * scale
        np.testing.assert_allclose(aux.cost_trace, ip1.cost_trace, rtol=1e-9)

    @pytest.mark.parametrize("value", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_non_finite_array_input_names_entry(self, value):
        """A raw array is checked before any solve, so the error names
        the bad entry instead of a singular bin 0."""
        x, _ = self.make_x(n_bins=16, n_frames=50)
        x[5, 7, 2] = value
        for method in ("auxiva", "ip1", "ip2", "ip3"):
            with pytest.raises(
                ValueError, match="frequency bin 5, frame 7, channel 2"
            ):
                run(x, 1, RunConfig(method=method, iterations=2))

    @pytest.mark.parametrize(
        "shape,axis",
        [((0, 50, 3), "frequency bins"), ((16, 0, 3), "frames"),
         ((0, 0, 3), "frequency bins")],
    )
    def test_empty_spectrogram_names_the_axis(self, monkeypatch, shape, axis):
        """F = 0 or T = 0 is refused before any arithmetic, for every
        method, instead of a NaN cost trace (F = 0) or a singular bin 0
        (T = 0)."""

        def no_arithmetic(*args, **kwargs):
            raise AssertionError("covariance formed for an empty spectrogram")

        monkeypatch.setattr(model, "noise_covariance", no_arithmetic)
        x = np.zeros(shape, complex)
        for method in Method:
            for k in (1,) if method is Method.IP2 else (1, 2):
                with pytest.raises(ShapeMismatch, match=f"has no {axis}"):
                    run(x, k, RunConfig(method=method, iterations=2))

    def test_accepts_string_and_enum_methods(self):
        x, _ = self.make_x()
        r1 = run(x, 1, RunConfig(method="ip2"))
        r2 = run(x, 1, RunConfig(method=Method.IP2))
        np.testing.assert_array_equal(r1.images, r2.images)

    @pytest.mark.parametrize("n_bins", [1, 4])
    def test_auxiva_with_one_bin_or_as_many_bins_as_mics(self, n_bins):
        """F = 1 and F = M make the mixing-matrix solve's identity
        right-hand side the same shape as a batch of vectors; it is
        still one matrix right-hand side."""
        rng = np.random.default_rng(8)
        x = random_complex(rng, (n_bins, 200, 4))
        for k in (1, 2):
            res = run(x, k, RunConfig(method="auxiva", iterations=5))
            assert res.images.shape == (k, n_bins, 200, 4)
            assert np.all(np.isfinite(res.images))


class TestRunMemory:
    """With many bins and few frames the per-bin state, not the
    spectrogram, sets run()'s peak (F = 2049, M = 7, T = 20: one
    (F, M, M) array is 1.6 MB, the input 4.6 MB)."""

    n_bins, n_frames, m = 2049, 20, 7

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize(
        "method,k",
        [("ip1", 1), ("ip1", 2), ("ip2", 1), ("ip3", 1), ("ip3", 2),
         ("auxiva", 1), ("auxiva", 2)],
    )
    def test_peak_is_run_state_and_bounded_scratch(
        self, traced_peak, method, k, threads
    ):
        """Above its input, run() holds its results, the stack W, G_z
        and, for auxiva, G_z's inverse (ip1, ip2 and ip3 read G_z
        itself), and each sweeping thread one chunk's scratch, under
        5 * SCRATCH_BYTES; auxiva's carried W^{-H}, one more (F, M, M)
        array, fits within that bound too. Here the sweep is 2 chunks of
        at most 1025 bins, and auxiva runs through one refresh of W^{-H}.
        Formed over all bins at once, the sweeps' temporaries reached
        5.4 to 9.0 MiB above the same state."""
        rng = np.random.default_rng(32)
        shape = (self.n_bins, self.n_frames, self.m)
        x = Spectrogram(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        assert len(sweep_chunks(self.n_bins, self.m, threads)) == 2
        iterations = optimizer.AUXIVA_REFRESH_SWEEPS + 1 if method == "auxiva" else 2
        config = RunConfig(method=method, iterations=iterations, threads=threads)
        res, peak = traced_peak(run, x, k, config)
        stack = res.demixing.matrices.nbytes
        n_state = 3 if method == "auxiva" else 2
        state = res.mixing.nbytes + res.outputs.nbytes + n_state * stack
        assert peak - state < 5 * threads * stft_module.SCRATCH_BYTES


class TestRunConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"eps1": np.nan},
            {"eps1": np.inf},
            {"eps1": 0.0},
            {"eps2": np.nan},
            {"eps2": np.inf},
            {"eps2": -1.0},
            {"iterations": 2.5},
            {"iterations": float("nan")},
            {"threads": 2.5},
            {"iterations": True},
            {"threads": True},
            {"eps1": True},
            {"eps2": True},
            {"eps2": "0.1"},
            {"eps1": None},
        ],
    )
    def test_rejects_bad_regularizers(self, kwargs):
        (name,) = kwargs
        with pytest.raises(ValueError, match=f"{name} must be"):
            RunConfig(**kwargs)

    def test_accepts_boundary_values(self):
        cfg = RunConfig(eps2=0.0)
        assert cfg.eps2 == 0.0
        cfg = RunConfig(iterations=np.int64(1), threads=np.int32(2))
        assert (cfg.iterations, cfg.threads) == (1, 2)
