"""Dense kernel tests: exact small cases plus randomized oracles."""

import numpy as np
import pytest
import scipy.linalg

from overiva import linalg
from overiva.errors import NotPositiveDefinite, SingularMatrix

from oracles import gev_largest_solves


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_hermitian(rng, m):
    a = random_complex(rng, (m, m))
    return a + a.conj().T


def random_hpd(rng, m, ridge=None):
    a = random_complex(rng, (m, m))
    ridge = m if ridge is None else ridge
    return a @ a.conj().T + ridge * np.eye(m)


class TestLuSolve:
    def test_identity(self):
        b = np.array([[1.0 + 2.0j], [-3.0j], [0.5]])
        x = linalg.lu_solve(np.eye(3), b)
        np.testing.assert_allclose(x, b, atol=0)

    def test_diagonal(self):
        x = linalg.lu_solve(np.diag([2.0, 4.0]), np.array([[2.0], [4.0]]))
        np.testing.assert_allclose(x, [[1.0], [1.0]], rtol=0, atol=0)

    @pytest.mark.parametrize("m", [2, 3, 4, 6, 8])
    def test_multiply_back(self, m):
        """Residual oracle: A @ x must reproduce b to near machine precision."""
        rng = np.random.default_rng(42 + m)
        a = random_complex(rng, (50, m, m))
        b = random_complex(rng, (50, m))
        x = linalg.lu_solve(a, b[..., None])[..., 0]
        resid = np.abs(np.einsum("bij,bj->bi", a, x) - b).max()
        assert resid < 1e-10

    def test_matrix_rhs(self):
        rng = np.random.default_rng(0)
        a = random_complex(rng, (3, 3))
        b = random_complex(rng, (3, 5))
        x = linalg.lu_solve(a, b)
        np.testing.assert_allclose(a @ x, b, atol=1e-12)

    def test_matches_numpy(self):
        rng = np.random.default_rng(2)
        a = random_complex(rng, (20, 5, 5))
        b = random_complex(rng, (20, 5))
        np.testing.assert_allclose(
            linalg.lu_solve(a, b[..., None])[..., 0],
            np.linalg.solve(a, b[..., None])[..., 0],
            rtol=1e-11, atol=1e-11,
        )

    @pytest.mark.parametrize("m", [1, 3, 5])
    def test_identity_rhs_on_m_matrices(self, m):
        """np.eye(M) against a batch of M matrices is one matrix
        right-hand side per matrix, not a batch of M vectors."""
        rng = np.random.default_rng(3 + m)
        a = random_complex(rng, (m, m, m))
        x = linalg.lu_solve(a, np.eye(m))
        assert x.shape == (m, m, m)
        np.testing.assert_allclose(
            a @ x, np.broadcast_to(np.eye(m), a.shape), atol=1e-12
        )

    def test_shared_rhs_is_not_copied_per_matrix(self, monkeypatch):
        """A shared identity reaches the gufunc unbroadcast and gives the
        same bits as the identity stacked per matrix."""
        rng = np.random.default_rng(9)
        a = random_complex(rng, (12, 4, 4))
        shapes = []
        real = np.linalg.solve

        def spy(a, b):
            shapes.append(np.shape(b))
            return real(a, b)

        monkeypatch.setattr(np.linalg, "solve", spy)
        x = linalg.lu_solve(a, np.eye(4))
        assert shapes == [(4, 4)]
        stacked = linalg.lu_solve(a, np.tile(np.eye(4), (12, 1, 1)))
        np.testing.assert_array_equal(x, stacked)

    @pytest.mark.parametrize("shape", [(6, 3), (2,), (6, 2, 1), ()])
    def test_rhs_outside_both_forms_is_rejected(self, shape):
        """The right-hand side is a matrix (..., M, R): a batch of vectors
        (6, 3), a vector (2,), a batch of (2, 1) columns of the wrong
        length and a scalar are refused, the vector too, since the shared
        vector form was dropped."""
        a = np.tile(np.eye(3), (6, 1, 1))
        forms = r"rhs shape .* is not a matrix \(\.\.\., 3, R\)"
        with pytest.raises(ValueError, match=forms):
            linalg.lu_solve(a, np.ones(shape))

    def test_singular_raises_with_index(self):
        a = np.stack([np.eye(2), np.array([[1.0, 2.0], [2.0, 4.0]])])
        with pytest.raises(SingularMatrix) as info:
            linalg.lu_solve(a, np.ones((2, 1)))
        assert info.value.batch_index == 1

    def test_tiny_pivot_is_singular(self):
        """Pivots below the relative threshold count as singular even if nonzero."""
        a = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-16]])
        with pytest.raises(SingularMatrix):
            linalg.lu_solve(a, np.ones((2, 1)))

    def test_rounding_singular_covariance_raises_with_index(self):
        """A sample covariance with a duplicated channel is rank-deficient
        only up to rounding; it is still reported, at its batch index."""
        rng = np.random.default_rng(7)
        x = random_complex(rng, (200, 4))
        x = np.concatenate([x, x[:, :1]], axis=1)
        a = np.stack([np.eye(5), x.conj().T @ x / 200])
        with pytest.raises(SingularMatrix) as info:
            linalg.lu_solve(a, np.eye(5)[:, :1])
        assert info.value.batch_index == 1

    def test_zero_matrix_is_singular(self):
        with pytest.raises(SingularMatrix):
            linalg.lu_solve(np.zeros((2, 2)), np.ones((2, 1)))

    def test_pivoting_handles_zero_leading_entry(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        x = linalg.lu_solve(a, np.array([[2.0], [3.0]]))
        np.testing.assert_allclose(x, [[3.0], [2.0]], atol=0)


class TestLogAbsDet:
    def test_identity(self):
        assert linalg.logabsdet(np.eye(4)) == 0.0

    def test_diag_e(self):
        e = np.e
        np.testing.assert_allclose(linalg.logabsdet(np.diag([e, e])), 2.0, rtol=1e-14)

    def test_cofactor_oracle_3x3(self):
        """Independent oracle: explicit cofactor expansion of a 3x3 determinant."""
        rng = np.random.default_rng(3)
        for _ in range(25):
            m = random_complex(rng, (3, 3))
            (a, b, c), (d, e, f), (g, h, i) = m
            det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
            np.testing.assert_allclose(
                linalg.logabsdet(m), np.log(np.abs(det)), rtol=1e-9
            )

    def test_additivity(self):
        rng = np.random.default_rng(4)
        a = random_complex(rng, (5, 5))
        b = random_complex(rng, (5, 5))
        np.testing.assert_allclose(
            linalg.logabsdet(a @ b),
            linalg.logabsdet(a) + linalg.logabsdet(b),
            rtol=1e-9, atol=1e-9,
        )

    def test_batched_matches_loop(self):
        rng = np.random.default_rng(5)
        a = random_complex(rng, (10, 4, 4))
        batched = linalg.logabsdet(a)
        singles = np.array([linalg.logabsdet(a[i]) for i in range(10)])
        np.testing.assert_allclose(batched, singles, rtol=0, atol=0)

    def test_singular_raises(self):
        with pytest.raises(SingularMatrix):
            linalg.logabsdet(np.array([[1.0, 2.0], [0.5, 1.0]]))


def with_spectrum(rng, values):
    """Hermitian matrix with the given eigenvalues, in a random basis."""
    q, _ = np.linalg.qr(random_complex(rng, (len(values), len(values))))
    return (q * np.asarray(values)) @ q.conj().T


class TestPsdLogdet:
    def test_regular_batch_is_slogdet(self):
        rng = np.random.default_rng(110)
        a = np.stack([random_hpd(rng, 5) for _ in range(6)])
        logdet, singular = linalg.psd_logdet(a)
        np.testing.assert_array_equal(logdet, np.linalg.slogdet(a)[1])
        assert not singular.any()

    @pytest.mark.parametrize("m", [2, 4, 7])
    def test_copied_channel_is_singular_whatever_the_pivot(self, m):
        """Sample covariances with one channel copied: LU meets an exactly
        zero pivot on some and only a tiny one on others (asserted), and
        every one is singular, with logdet -inf."""
        rng = np.random.default_rng(120 + m)
        x = random_complex(rng, (60, 50, m - 1))
        x = np.concatenate([x, x[..., :1]], axis=-1)
        a = np.conj(np.swapaxes(x, -1, -2)) @ x / 50
        sign = np.linalg.slogdet(a)[0]
        assert np.any(sign == 0) and np.any(sign != 0)
        logdet, singular = linalg.psd_logdet(a)
        assert singular.all()
        assert np.all(logdet == -np.inf)

    def test_zero_matrix_is_singular(self):
        logdet, singular = linalg.psd_logdet(np.zeros((2, 3, 3)))
        assert singular.all() and np.all(logdet == -np.inf)

    @pytest.mark.parametrize("m", [1, 2, 5, 8])
    def test_rule_is_the_eigenvalue_ratio(self, m):
        """Spectra spread from 1 down to 1e-9 ... 1e-17, with one or all
        small eigenvalues: the mask is the eigenvalue rule applied to
        every matrix, so the slogdet screen drops none."""
        rng = np.random.default_rng(130 + m)
        mats = []
        for low in 10.0 ** -np.arange(9, 18):
            mats.append(with_spectrum(rng, [1.0] + [low] * (m - 1)))
            mats.append(with_spectrum(rng, [1.0] * (m - 1) + [low]))
        a = np.stack(mats)
        values = np.linalg.eigvalsh(a)
        expect = values[:, 0] <= linalg.SINGULARITY_RTOL * values[:, -1]
        logdet, singular = linalg.psd_logdet(a)
        np.testing.assert_array_equal(singular, expect)
        if m > 1:
            assert expect.any() and not expect.all()
        np.testing.assert_array_equal(
            logdet[~singular], np.linalg.slogdet(a[~singular])[1]
        )


class TestCholesky:
    def test_identity(self):
        np.testing.assert_allclose(linalg.cholesky(np.eye(3)), np.eye(3), atol=0)

    def test_diagonal(self):
        np.testing.assert_allclose(
            linalg.cholesky(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=0
        )

    @pytest.mark.parametrize("m", [2, 4, 7])
    def test_reconstruction(self, m):
        """Oracle: the factor must reproduce A as L L^H."""
        rng = np.random.default_rng(10 + m)
        a = np.stack([random_hpd(rng, m) for _ in range(8)])
        ell = linalg.cholesky(a)
        rebuilt = ell @ linalg.hermitian_transpose(ell)
        np.testing.assert_allclose(rebuilt, a, rtol=1e-10, atol=1e-10)
        # lower triangular with positive real diagonal
        upper = np.triu(ell, k=1)
        assert np.abs(upper).max() == 0.0
        diag = np.diagonal(ell, axis1=-2, axis2=-1)
        assert np.all(diag.real > 0) and np.abs(diag.imag).max() == 0.0

    def test_indefinite_raises(self):
        with pytest.raises(NotPositiveDefinite):
            linalg.cholesky(np.diag([1.0, -1.0]))

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            linalg.cholesky(np.array([[1.0, 1.0], [0.0, 1.0]]))


class TestFirstNonPd:
    def test_one_bad_matrix_in_a_long_batch(self):
        rng = np.random.default_rng(30)
        a = np.stack([random_hpd(rng, 4) for _ in range(2049)])
        a[1500] = -a[1500]
        assert linalg._first_non_pd(a) == 1500
        with pytest.raises(NotPositiveDefinite, match="batch index 1500") as info:
            linalg.cholesky(a)
        assert info.value.batch_index == 1500

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 65])
    def test_first_bad_at_every_position(self, n):
        rng = np.random.default_rng(31 + n)
        base = np.stack([random_hpd(rng, 3) for _ in range(n)])
        assert linalg._first_non_pd(base) is None
        for bad in range(n):
            a = base.copy()
            a[bad] = np.diag([1.0, -1.0, 1.0])
            a[rng.integers(bad, n)] = np.diag([1.0, 1.0, -1.0])
            assert linalg._first_non_pd(a) == bad

    def test_batch_axes_are_flattened(self):
        a = np.tile(np.eye(2), (3, 4, 1, 1))
        a[2, 1] = np.diag([1.0, 0.0])
        assert linalg._first_non_pd(a) == 9


class TestInvSqrtHermitian:
    def test_identity(self):
        np.testing.assert_allclose(linalg.inv_sqrt_hermitian(np.eye(3)), np.eye(3), atol=1e-15)

    def test_diagonal(self):
        np.testing.assert_allclose(
            linalg.inv_sqrt_hermitian(np.diag([4.0, 16.0])),
            np.diag([0.5, 0.25]), atol=1e-15,
        )

    @pytest.mark.parametrize("m", [2, 5])
    def test_sandwich(self, m):
        """Oracle: S A S must be the identity."""
        rng = np.random.default_rng(30 + m)
        a = np.stack([random_hpd(rng, m) for _ in range(6)])
        s = linalg.inv_sqrt_hermitian(a)
        np.testing.assert_allclose(
            s @ a @ s, np.broadcast_to(np.eye(m), a.shape), atol=1e-9
        )
        np.testing.assert_allclose(s, linalg.hermitian_transpose(s), atol=1e-10)

    def test_semidefinite_raises(self):
        with pytest.raises(NotPositiveDefinite):
            linalg.inv_sqrt_hermitian(np.diag([1.0, 0.0]))

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            linalg.inv_sqrt_hermitian(np.array([[2.0, 1.0], [0.0, 2.0]]))


class TestGevLargest:
    def test_diagonal_pencil(self):
        res = linalg.gev_largest(np.diag([2.0, 8.0]), np.diag([1.0, 2.0]))
        np.testing.assert_allclose(res.value, 4.0, rtol=1e-14)
        np.testing.assert_allclose(np.abs(res.vector), [0.0, 1.0], atol=1e-14)

    def test_equal_pencil_is_deterministic(self):
        """A = B makes every direction an eigenvector at lambda = 1; the
        tie must resolve the same way on repeated calls."""
        rng = np.random.default_rng(40)
        b = random_hpd(rng, 4)
        first = linalg.gev_largest(b, b)
        second = linalg.gev_largest(b, b)
        np.testing.assert_allclose(first.value, 1.0, rtol=1e-12)
        np.testing.assert_allclose(first.vector, second.vector, atol=0)

    @pytest.mark.parametrize("m", [2, 3, 5, 8])
    def test_residual_and_qz_oracle(self, m):
        """The pair must satisfy A u = lambda B u, and lambda must match
        the largest eigenvalue from scipy's QZ solver (an independent
        algorithm for the same pencil)."""
        rng = np.random.default_rng(50 + m)
        for _ in range(20):
            a = random_hermitian(rng, m)
            b = random_hpd(rng, m)
            value, vector = linalg.gev_largest(a, b)
            scale = np.linalg.norm(a) + abs(value) * np.linalg.norm(b)
            assert np.linalg.norm(a @ vector - value * (b @ vector)) <= 1e-8 * scale
            np.testing.assert_allclose(np.linalg.norm(vector), 1.0, rtol=1e-12)
            qz = scipy.linalg.eig(a, b)[0]
            np.testing.assert_allclose(value, np.max(qz.real), rtol=1e-8, atol=1e-10)

    @pytest.mark.parametrize("m", [2, 3, 5, 8])
    def test_matches_the_solve_oracle(self, m):
        """One inverse of B's Cholesky factor against the reduction by
        triangular solves, on positive semidefinite A."""
        rng = np.random.default_rng(100 + m)
        root = random_complex(rng, (20, m, m))
        a = root @ linalg.hermitian_transpose(root)
        b = np.stack([random_hpd(rng, m) for _ in range(20)])
        value, vector = linalg.gev_largest(a, b)
        ref_value, ref_vector = gev_largest_solves(a, b)
        np.testing.assert_allclose(value, ref_value, rtol=1e-12)
        inner = np.sum(vector.conj() * ref_vector, axis=-1)
        np.testing.assert_allclose(np.abs(inner), 1.0, rtol=1e-10)

    def test_batched_matches_loop(self):
        """Bit for bit on an indefinite A, for the kernel and its oracle
        alike."""
        rng = np.random.default_rng(60)
        a = np.stack([random_hermitian(rng, 3) for _ in range(12)])
        b = np.stack([random_hpd(rng, 3) for _ in range(12)])
        for kernel in (linalg.gev_largest, gev_largest_solves):
            values, vectors = kernel(a, b)
            for i in range(12):
                vi, ui = kernel(a[i], b[i])
                assert isinstance(vi, float)
                np.testing.assert_array_equal(values[i], vi)
                np.testing.assert_array_equal(vectors[i], ui)

    def test_zero_a_gives_the_first_axis(self):
        for kernel in (linalg.gev_largest, gev_largest_solves):
            value, vector = kernel(np.zeros((3, 3)), np.diag([4.0, 1.0, 9.0]))
            assert value == 0.0
            np.testing.assert_array_equal(vector, [1.0, 0.0, 0.0])

    def test_indefinite_b_raises(self):
        for kernel in (linalg.gev_largest, gev_largest_solves):
            with pytest.raises(NotPositiveDefinite):
                kernel(np.eye(2), np.diag([1.0, -1.0]))

    def test_non_hermitian_a_rejected(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            linalg.gev_largest(np.array([[1.0, 1.0], [0.0, 1.0]]), np.eye(2))


class TestGevLargestFactored:
    """gev_largest on pencils whose A arrives as R R^H with R tall or
    rank-deficient, the shape of ip2's mixture covariance G_z."""

    def test_batched_matches_loop(self):
        rng = np.random.default_rng(61)
        root = random_complex(rng, (12, 3, 2))
        a = root @ linalg.hermitian_transpose(root)
        b = np.stack([random_hpd(rng, 3) for _ in range(12)])
        for kernel in (linalg.gev_largest, gev_largest_solves):
            values, vectors = kernel(a, b)
            for i in range(12):
                vi, ui = kernel(a[i], b[i])
                assert isinstance(vi, float)
                np.testing.assert_array_equal(values[i], vi)
                np.testing.assert_array_equal(vectors[i], ui)

    def test_indefinite_b_raises(self):
        root = np.array([[1.0], [1.0j]])
        a = root @ linalg.hermitian_transpose(root)
        for kernel in (linalg.gev_largest, gev_largest_solves):
            with pytest.raises(NotPositiveDefinite):
                kernel(a, np.diag([1.0, -1.0]))
