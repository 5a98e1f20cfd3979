"""Model-layer tests: covariance estimators, variance updates, cost
functions, gradients, and stationarity residuals, each checked against
a pure-Python oracle or a hand-derived closed form."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from overiva import model
from overiva.errors import InvalidK, ShapeMismatch
from overiva.model import (
    DemixingStack,
    cost_total,
    demix,
    noise_covariance,
    stationarity_residual,
    update_variances,
    weighted_covariance,
)
from overiva.stft import Spectrogram

from oracles import cost_jw, gradient_jw_row, weighted_covariance_unblocked


def random_complex(rng, shape, scale=1.0):
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def random_hpd(rng, m, ridge=0.1):
    a = random_complex(rng, (m, m))
    return a @ a.conj().T / m + ridge * np.eye(m)


def make_spec(rng, f, t, m, scale=1.0):
    return Spectrogram(random_complex(rng, (f, t, m), scale))


def loop_cost_total(w, lam, x):
    """Triple-loop oracle for the full objective."""
    f_bins, t_frames, m = x.data.shape
    k = lam.shape[0]
    total = 0.0
    for f in range(f_bins):
        wf = w[f]
        for t in range(t_frames):
            y = wf.conj().T @ x.data[f, t]
            for j in range(k):
                total += abs(y[j]) ** 2 / lam[j, t]
            total += float(np.sum(np.abs(y[k:]) ** 2))
        total -= 2.0 * t_frames * float(np.log(abs(np.linalg.det(wf))))
    total += f_bins * float(np.sum(np.log(lam)))
    return total


class TestDemixingStack:
    def test_views(self):
        w = np.tile(np.eye(4, dtype=complex), (5, 1, 1))
        stack = DemixingStack(w, 2)
        assert stack.targets.shape == (5, 4, 2)

    def test_invalid_counts(self):
        w = np.tile(np.eye(3, dtype=complex), (2, 1, 1))
        with pytest.raises(InvalidK):
            DemixingStack(w, 0)
        with pytest.raises(InvalidK):
            DemixingStack(w, 4)

    def test_shape_guard(self):
        with pytest.raises(ShapeMismatch):
            DemixingStack(np.zeros((2, 3, 4), complex), 1)


class TestDemix:
    def test_identity_returns_input(self):
        rng = np.random.default_rng(0)
        x = make_spec(rng, 6, 10, 3)
        w = np.tile(np.eye(3, dtype=complex), (6, 1, 1))
        y = demix(x, w, 2)
        np.testing.assert_array_equal(y, x.data[:, :, :2])

    def test_matches_loop(self):
        rng = np.random.default_rng(1)
        x = make_spec(rng, 4, 7, 3)
        w = random_complex(rng, (4, 3, 3))
        y = demix(x, w, 3)
        for f in range(4):
            for t in range(7):
                np.testing.assert_allclose(
                    y[f, t], w[f].conj().T @ x.data[f, t], atol=1e-12
                )


class TestCovariances:
    def test_noise_cov_single_frame(self):
        rng = np.random.default_rng(2)
        x = make_spec(rng, 1, 1, 3)
        with pytest.warns(UserWarning):
            g = noise_covariance(x)
        v = x.data[0, 0]
        np.testing.assert_allclose(g[0], np.outer(v, v.conj()), atol=1e-14)

    def test_noise_cov_matches_loop(self):
        rng = np.random.default_rng(3)
        x = make_spec(rng, 3, 20, 4)
        g = noise_covariance(x)
        for f in range(3):
            ref = np.zeros((4, 4), complex)
            for t in range(20):
                ref += np.outer(x.data[f, t], x.data[f, t].conj())
            ref /= 20
            np.testing.assert_allclose(g[f], ref, atol=1e-12)
        defect = np.abs(g - g.conj().transpose(0, 2, 1)).max()
        assert defect == 0.0

    def test_noise_cov_zero_input(self):
        g = noise_covariance(Spectrogram(np.zeros((2, 8, 3), complex)))
        assert np.abs(g).max() == 0.0

    def test_weighted_cov_matches_loop(self):
        rng = np.random.default_rng(4)
        x = make_spec(rng, 3, 15, 3)
        lam = rng.uniform(0.5, 2.0, 15)
        eps2 = 0.1
        g = weighted_covariance(x, lam, eps2)
        for f in range(3):
            ref = eps2 * np.eye(3, dtype=complex)
            for t in range(15):
                ref += np.outer(x.data[f, t], x.data[f, t].conj()) / (15 * lam[t])
            np.testing.assert_allclose(g[f], ref, atol=1e-12)

    def test_weighted_cov_zero_input_is_ridge(self):
        x = Spectrogram(np.zeros((2, 6, 3), complex))
        g = weighted_covariance(x, np.ones(6), 0.25)
        np.testing.assert_array_equal(g, 0.25 * np.tile(np.eye(3), (2, 1, 1)))

    def test_weighted_cov_unit_weights_is_noise_cov(self):
        rng = np.random.default_rng(5)
        x = make_spec(rng, 2, 30, 3)
        g = weighted_covariance(x, np.ones(30), 0.0)
        np.testing.assert_allclose(g, noise_covariance(x), atol=1e-13)

    def test_weighted_cov_rejects_bad_weights(self):
        x = Spectrogram(np.zeros((1, 4, 2), complex))
        with pytest.raises(ValueError):
            weighted_covariance(x, np.array([1.0, 0.0, 1.0, 1.0]), 0.1)

    def test_weighted_cov_rejects_nan_weights(self):
        x = Spectrogram(np.ones((1, 4, 2), complex))
        with pytest.raises(ValueError, match="strictly positive"):
            weighted_covariance(x, np.array([1.0, np.nan, 1.0, 1.0]), 0.1)

    def test_ridge_makes_cholesky_work(self):
        rng = np.random.default_rng(7)
        x = make_spec(rng, 2, 3, 4)  # rank deficient: T < M
        g = weighted_covariance(x, np.ones(3), 0.1)
        np.linalg.cholesky(g)


def weighted_covariance_oracle(data, lam, eps2):
    """Explicit frame sum, one outer product at a time, in complex128."""
    data = np.asarray(data, dtype=np.complex128)
    n_bins, n_frames, m = data.shape
    out = np.zeros((n_bins, m, m), complex)
    for f in range(n_bins):
        for t in range(n_frames):
            out[f] += np.outer(data[f, t], data[f, t].conj()) / lam[t]
    out /= n_frames
    return out + eps2 * np.eye(m)


LAYOUTS = ["contiguous", "transposed", "float64", "complex64"]
RIDGES = [0.0, 1e-3, 0.1, 2.0]


def random_data(rng, shape, layout):
    """(F, T, M) input in one of the LAYOUTS."""
    n_bins, n_frames, m = shape
    if layout == "float64":
        return rng.standard_normal(shape)
    if layout == "transposed":
        return random_complex(rng, (n_frames, n_bins, m)).transpose(1, 0, 2)
    data = random_complex(rng, shape)
    return data.astype(np.complex64) if layout == "complex64" else data


class TestWeightedCovarianceProperty:
    @settings(max_examples=150, deadline=None)
    @given(
        n_bins=st.integers(1, 5),
        n_frames=st.integers(1, 20),
        m=st.integers(1, 8),
        layout=st.sampled_from(LAYOUTS),
        eps2=st.sampled_from(RIDGES),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_frame_sum_and_is_hermitian(
        self, n_bins, n_frames, m, layout, eps2, seed
    ):
        rng = np.random.default_rng(seed)
        data = random_data(rng, (n_bins, n_frames, m), layout)
        lam = rng.uniform(0.05, 20.0, n_frames)
        g = weighted_covariance(data, lam, eps2)
        ref = weighted_covariance_oracle(data, lam, eps2)
        assert g.shape == (n_bins, m, m) and g.dtype == np.complex128
        assert np.abs(g - ref).max() <= 1e-12 * np.abs(ref).max()
        np.testing.assert_array_equal(g, g.conj().transpose(0, 2, 1))

    @settings(max_examples=150, deadline=None)
    @given(
        block=st.integers(2, 5),
        spill=st.floats(0.0, 0.99),
        edge=st.sampled_from([(0, 1), (1, -1), (1, 0), (1, 1), (3, 1)]),
        n_frames=st.integers(1, 20),
        m=st.integers(1, 8),
        layout=st.sampled_from(LAYOUTS),
        eps2=st.sampled_from(RIDGES),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_blocks_bit_identical_to_unblocked(
        self, block, spill, edge, n_frames, m, layout, eps2, seed
    ):
        """With a buffer of B = `block` bins (plus a part of one more,
        which the block count rounds away), F = a B + b for each edge
        (a, b) gives 1, B - 1, B, B + 1 and 3B + 1 bins, which cross
        every kind of block boundary."""
        bin_bytes = 16 * n_frames * m
        n_bins = edge[0] * block + edge[1]
        rng = np.random.default_rng(seed)
        data = random_data(rng, (n_bins, n_frames, m), layout)
        lam = rng.uniform(0.05, 20.0, n_frames)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(
                model, "COVARIANCE_BLOCK_BYTES",
                block * bin_bytes + int(spill * bin_bytes),
            )
            g = weighted_covariance(data, lam, eps2)
        np.testing.assert_array_equal(
            g, weighted_covariance_unblocked(data, lam, eps2)
        )

    @pytest.mark.parametrize("shape", [(3, 0, 2), (3, 4, 0), (0, 4, 2)])
    def test_empty_axes_match_unblocked(self, shape):
        """T = 0 (0 / 0 covariances), M = 0 and F = 0 go through the
        block arithmetic without dividing by the bin size."""
        data = np.zeros(shape, complex)
        lam = np.ones(shape[1])
        with np.errstate(invalid="ignore"):
            g = weighted_covariance(data, lam, 0.1)
            ref = weighted_covariance_unblocked(data, lam, 0.1)
        assert g.shape == (shape[0], shape[2], shape[2])
        np.testing.assert_array_equal(g, ref)


class TestVarianceUpdate:
    def test_unit_magnitude(self):
        s = np.exp(1j * np.linspace(0, 5, 2 * 6 * 4)).reshape(2, 6, 4)
        lam = update_variances(s, 1e-5)
        np.testing.assert_allclose(lam, 1.0, rtol=1e-12)

    def test_matches_mean_over_bins(self):
        rng = np.random.default_rng(8)
        s = random_complex(rng, (2, 9, 5))
        lam = update_variances(s, 1e-12)
        ref = (np.abs(s) ** 2).mean(axis=1)
        np.testing.assert_allclose(lam, ref, atol=1e-13)

    def test_floor_applies(self):
        s = np.full((1, 4, 3), 1e-9, complex)
        lam = update_variances(s, 1e-5)
        np.testing.assert_array_equal(lam, np.full((1, 3), 1e-5))

    def test_floor_minimizes_constrained_cost(self):
        """The variance update minimizes the objective over admissible
        variances: any floored-off or perturbed value scores no better."""
        rng = np.random.default_rng(9)
        x = make_spec(rng, 5, 6, 2)
        w = np.tile(np.eye(2, dtype=complex), (5, 1, 1))
        eps1 = 1e-5
        s = demix(x, w, 1)
        lam = update_variances(np.transpose(s, (2, 0, 1)), eps1)
        best = cost_total(DemixingStack(w, 1), lam, x)
        for factor in (0.5, 0.9, 1.1, 2.0):
            trial = np.maximum(lam * factor, eps1)
            assert cost_total(DemixingStack(w, 1), trial, x) >= best - 1e-9


class TestCostTotal:
    def test_zero_signal_unit_variances(self):
        x = Spectrogram(np.zeros((3, 4, 2), complex))
        w = np.tile(np.eye(2, dtype=complex), (3, 1, 1))
        lam = np.ones((1, 4))
        assert cost_total(DemixingStack(w, 1), lam, x) == 0.0

    def test_single_unit_sample(self):
        """One bin, one frame, x = e1, identity demixing: the target term
        contributes exactly 1 and everything else vanishes."""
        x = Spectrogram(np.array([[[1.0 + 0j, 0.0]]]))
        w = np.eye(2, dtype=complex)[None]
        lam = np.ones((1, 1))
        np.testing.assert_allclose(
            cost_total(DemixingStack(w, 1), lam, x), 1.0, rtol=1e-14
        )

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(10)
        x = make_spec(rng, 3, 6, 3)
        w = random_complex(rng, (3, 3, 3)) + 2 * np.eye(3)
        lam = rng.uniform(0.5, 2.0, (2, 6))
        got = cost_total(DemixingStack(w, 2), lam, x)
        ref = loop_cost_total(w, lam, x)
        np.testing.assert_allclose(got, ref, rtol=1e-10)

    def test_normalization_invariance(self):
        """Rescaling each target variance row by c and its filter by
        1/sqrt(c) leaves the objective unchanged."""
        rng = np.random.default_rng(11)
        x = make_spec(rng, 4, 8, 3)
        w = random_complex(rng, (4, 3, 3)) + 2 * np.eye(3)
        lam = rng.uniform(0.5, 2.0, (2, 8))
        before = cost_total(DemixingStack(w, 2), lam, x)
        scale = np.array([3.7, 0.2])
        w2 = w.copy()
        w2[:, :, :2] *= scale**-0.5
        lam2 = lam / scale[:, None]
        after = cost_total(DemixingStack(w2, 2), lam2, x)
        np.testing.assert_allclose(after, before, rtol=1e-9)

    def test_k_mismatch_raises(self):
        x = Spectrogram(np.zeros((2, 4, 3), complex))
        w = np.tile(np.eye(3, dtype=complex), (2, 1, 1))
        with pytest.raises(ShapeMismatch):
            cost_total(DemixingStack(w, 1), np.ones((2, 4)), x)


class TestCostJw:
    def test_identity_everything(self):
        """W = I with identity covariances scores exactly M."""
        m, k = 4, 2
        w = np.eye(m, dtype=complex)
        covs = np.tile(np.eye(m, dtype=complex), (k, 1, 1))
        gz = np.eye(m, dtype=complex)
        np.testing.assert_allclose(cost_jw(w, covs, gz), m)

    def test_column_scaling_closed_form(self):
        """Scaling target column k by 2 changes the cost by exactly
        3 * (w^H G w) - 2 log 2."""
        rng = np.random.default_rng(12)
        m, k = 3, 1
        w = random_complex(rng, (m, m)) + 2 * np.eye(m)
        covs = np.array([random_hpd(rng, m)])
        gz = random_hpd(rng, m)
        base = cost_jw(w, covs, gz)
        q = (w[:, 0].conj() @ covs[0] @ w[:, 0]).real
        w2 = w.copy()
        w2[:, 0] *= 2.0
        got = cost_jw(w2, covs, gz)
        np.testing.assert_allclose(got - base, 3 * q - 2 * np.log(2), rtol=1e-10)

    def test_matches_loop(self):
        rng = np.random.default_rng(13)
        m, k = 4, 2
        w = random_complex(rng, (m, m)) + 2 * np.eye(m)
        covs = np.stack([random_hpd(rng, m) for _ in range(k)])
        gz = random_hpd(rng, m)
        ref = 0.0
        for j in range(k):
            ref += (w[:, j].conj() @ covs[j] @ w[:, j]).real
        wz = w[:, k:]
        ref += np.trace(wz.conj().T @ gz @ wz).real
        ref -= 2 * np.log(abs(np.linalg.det(w)))
        got = cost_jw(w, covs, gz)
        np.testing.assert_allclose(got, ref, rtol=1e-10)

    def test_links_to_cost_total(self):
        """Summing the per-bin surrogate over bins with unridged weighted
        covariances recovers the full objective up to the variance terms."""
        rng = np.random.default_rng(14)
        x = make_spec(rng, 5, 12, 3)
        k = 1
        w = random_complex(rng, (5, 3, 3)) + 2 * np.eye(3)
        lam = rng.uniform(0.5, 2.0, (k, 12))
        t_frames = 12
        covs = np.stack(
            [weighted_covariance(x, lam[j], 0.0) for j in range(k)], axis=1
        )
        gz = noise_covariance(x)
        per_bin = [
            cost_jw(w[f], covs[f], gz[f]) for f in range(5)
        ]
        reconstructed = t_frames * float(np.sum(per_bin)) + 5 * float(
            np.sum(np.log(lam))
        )
        direct = cost_total(DemixingStack(w, k), lam, x)
        np.testing.assert_allclose(reconstructed, direct, rtol=1e-9)


class TestGradient:
    def test_finite_difference(self):
        """The analytic conjugate gradient matches central differences:
        dJ/dRe = 2 Re(g), dJ/dIm = 2 Im(g)."""
        rng = np.random.default_rng(15)
        m, k = 4, 2
        w = random_complex(rng, (m, m)) + 2 * np.eye(m)
        covs = np.stack([random_hpd(rng, m) for _ in range(k)])
        gz = random_hpd(rng, m)
        h = 1e-6
        for row in range(k):
            g = gradient_jw_row(w, covs, gz, row)
            fd = np.zeros(m, complex)
            for i in range(m):
                for part, step in ((1.0, h), (1j, 1j * h)):
                    wp, wm = w.copy(), w.copy()
                    wp[i, row] += step
                    wm[i, row] -= step
                    d = (
                        cost_jw(wp, covs, gz)
                        - cost_jw(wm, covs, gz)
                    ) / (2 * h)
                    fd[i] += part * d
            analytic = 2 * np.real(g) + 2j * np.imag(g)
            rel = np.linalg.norm(fd - analytic) / np.linalg.norm(fd)
            assert rel < 1e-6

    def test_zero_at_stationary_point(self):
        """With all covariances equal to G, the inverse square root of G
        is a stationary point of the surrogate."""
        rng = np.random.default_rng(16)
        m = 3
        g0 = random_hpd(rng, m)
        vals, vecs = np.linalg.eigh(g0)
        w = (vecs * vals**-0.5) @ vecs.conj().T
        covs = np.stack([g0, g0])
        grad = gradient_jw_row(w, covs, g0, 0)
        assert np.linalg.norm(grad) < 1e-10


class TestStationarityResidual:
    def test_identity_case_is_zero(self):
        m, k = 3, 1
        w = np.eye(m, dtype=complex)
        covs = np.tile(np.eye(m, dtype=complex), (k, 1, 1))
        res = stationarity_residual(w, covs, np.eye(m, dtype=complex))
        assert res.target == 0.0 and res.noise == 0.0 and res.combined == 0.0

    def test_matches_loop(self):
        rng = np.random.default_rng(17)
        m, k = 4, 2
        w = random_complex(rng, (m, m)) + 2 * np.eye(m)
        covs = np.stack([random_hpd(rng, m) for _ in range(k)])
        gz = random_hpd(rng, m)
        res = stationarity_residual(w, covs, gz)
        wh = w.conj().T
        target_ref = max(
            np.linalg.norm(wh @ covs[j] @ w[:, j] - np.eye(m)[:, j]) for j in range(k)
        )
        noise_ref = np.linalg.norm(
            wh @ gz @ w[:, k:] - np.eye(m)[:, k:], ord="fro"
        )
        np.testing.assert_allclose(res.target, target_ref, rtol=1e-12)
        np.testing.assert_allclose(res.noise, noise_ref, rtol=1e-12)
        assert res.combined == max(res.target, res.noise)
