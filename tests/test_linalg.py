import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posepriors import linalg
from posepriors.errors import NumericalError


class TestJacobiEigen:
    def test_already_diagonal(self):
        eig = linalg.jacobi_eigen(np.diag([4.0, 1.0]))
        np.testing.assert_allclose(eig.eigenvalues, [4.0, 1.0])
        np.testing.assert_allclose(eig.basis, np.eye(2))

    def test_analytic_2x2(self):
        # [[2,1],[1,2]] has roots 2 +- 1.
        eig = linalg.jacobi_eigen([[2.0, 1.0], [1.0, 2.0]])
        np.testing.assert_allclose(eig.eigenvalues, [3.0, 1.0], atol=1e-12)

    def test_reconstruction_psd(self):
        rng = np.random.default_rng(11)
        b = rng.standard_normal((10, 10))
        a = b @ b.T
        eig = linalg.jacobi_eigen(a)
        rec = eig.basis @ np.diag(eig.eigenvalues) @ eig.basis.T
        assert np.linalg.norm(rec - a, "fro") < 1e-8

    def test_orthonormal_basis(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            a = rng.standard_normal((8, 8))
            eig = linalg.jacobi_eigen(a + a.T)
            gram = eig.basis.T @ eig.basis
            assert np.linalg.norm(gram - np.eye(8), "fro") < 1e-9

    def test_eigenvalues_descending_and_sign_convention(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((12, 12))
        eig = linalg.jacobi_eigen(a + a.T)
        assert np.all(np.diff(eig.eigenvalues) <= 0)
        for col in eig.basis.T:
            assert col[np.argmax(np.abs(col))] >= 0.0

    def test_trace_equals_eigenvalue_sum(self):
        rng = np.random.default_rng(19)
        for _ in range(5):
            a = rng.standard_normal((9, 9))
            a = a + a.T
            eig = linalg.jacobi_eigen(a)
            bound = 1e-8 * a.shape[0] * max(np.abs(a).max(), 1.0)
            assert abs(eig.eigenvalues.sum() - np.trace(a)) < bound

    def test_one_by_one(self):
        eig = linalg.jacobi_eigen([[5.0]])
        np.testing.assert_allclose(eig.eigenvalues, [5.0])
        np.testing.assert_allclose(eig.basis, [[1.0]])

    def test_rejects_bad_tol(self):
        with pytest.raises(ValueError):
            linalg.jacobi_eigen(np.eye(2), tol=0.0)


def _random_symmetric(rng, n):
    """Q diag(lam) Q.T with |lam| in [1, n + 1] and gaps of at least 0.5."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = (1.0 + np.arange(n) + rng.uniform(0.0, 0.5, n)) * rng.choice([-1.0, 1.0], n)
    return (q * lam) @ q.T


class TestEighAgainstJacobi:
    @pytest.mark.parametrize("n", [2, 3, 8, 20, 66])
    def test_same_eigenpairs_and_signs(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(3):
            a = _random_symmetric(rng, n)
            ref = linalg.jacobi_eigen(a)
            got = linalg.eigh(a)
            np.testing.assert_allclose(got.eigenvalues, ref.eigenvalues, rtol=1e-12, atol=0.0)
            np.testing.assert_allclose(got.basis, ref.basis, rtol=0.0, atol=1e-10)


class TestCholesky:
    def test_identity(self):
        f = linalg.cholesky(np.eye(3))
        np.testing.assert_allclose(f.lower, np.eye(3))
        assert f.log_det == 0.0
        assert f.jitter_applied == 0.0

    def test_diagonal_closed_form(self):
        f = linalg.cholesky(np.diag([4.0, 9.0]))
        np.testing.assert_allclose(f.lower, np.diag([2.0, 3.0]))
        np.testing.assert_allclose(f.log_det, np.log(36.0), rtol=1e-12)

    def test_reconstruction(self):
        rng = np.random.default_rng(5)
        b = rng.standard_normal((5, 5))
        a = b @ b.T + 0.5 * np.eye(5)
        f = linalg.cholesky(a)
        assert np.abs(f.lower @ f.lower.T - a).max() < 1e-10
        assert f.jitter_applied == 0.0

    def test_log_det_identity_with_diag(self):
        rng = np.random.default_rng(8)
        b = rng.standard_normal((6, 6))
        f = linalg.cholesky(b @ b.T + np.eye(6))
        assert f.log_det == pytest.approx(2.0 * np.log(np.diag(f.lower)).sum())

    def test_jitter_escalation_on_singular(self):
        # Rank-1 matrix is PSD but singular; jitter must rescue it.
        v = np.array([1.0, 2.0, 3.0])
        a = np.outer(v, v)
        f = linalg.cholesky(a, base_jitter=1e-10)
        assert f.jitter_applied > 0.0
        target = a + f.jitter_applied * np.eye(3)
        assert np.abs(f.lower @ f.lower.T - target).max() < 1e-8 * 3

    def test_not_positive_definite(self):
        with pytest.raises(NumericalError, match="not positive definite"):
            linalg.cholesky(np.diag([1.0, -5.0]), base_jitter=1e-10)


class TestCholSolve:
    def test_identity_factor(self):
        f = linalg.cholesky(np.eye(3))
        np.testing.assert_allclose(
            linalg.chol_solve(f, [1.0, 2.0, 3.0]), [1.0, 2.0, 3.0]
        )

    def test_diagonal(self):
        f = linalg.cholesky(np.diag([4.0, 9.0]))
        np.testing.assert_allclose(linalg.chol_solve(f, [4.0, 9.0]), [1.0, 1.0])

    def test_residual_random_system(self):
        rng = np.random.default_rng(21)
        b = rng.standard_normal((7, 7))
        a = b @ b.T + np.eye(7)
        f = linalg.cholesky(a)
        rhs = rng.standard_normal(7)
        y = linalg.chol_solve(f, rhs)
        assert np.abs(a @ y - rhs).max() < 1e-9

    def test_solve_recovers_known_vector(self):
        rng = np.random.default_rng(2)
        for trial in range(5):
            b = rng.standard_normal((6, 6))
            a = b @ b.T + np.eye(6)
            x = rng.standard_normal(6)
            f = linalg.cholesky(a)
            got = linalg.chol_solve(f, a @ x)
            assert np.abs(got - x).max() / np.abs(x).max() < 1e-8

    def test_dimension_mismatch(self):
        f = linalg.cholesky(np.eye(3))
        with pytest.raises(ValueError):
            linalg.chol_solve(f, np.ones(4))


CHOL_PROPERTY = settings(max_examples=10, derandomize=True, deadline=None, database=None)
sizes = st.integers(1, 12)
seeds = st.integers(0, 2**32 - 1)


def _spd(seed, n):
    b = np.random.default_rng(seed).standard_normal((n, n))
    return b @ b.T + n * np.eye(n)


class TestCholFactorProperties:
    @CHOL_PROPERTY
    @given(sizes, seeds)
    def test_inverse_inverts_lower(self, n, seed):
        f = linalg.cholesky(_spd(seed, n))
        np.testing.assert_allclose(f.inverse @ f.lower, np.eye(n), rtol=0.0, atol=1e-12)

    @CHOL_PROPERTY
    @given(sizes, seeds, st.integers(1, 5))
    def test_solve_many_matches_numpy_solve(self, n, seed, m):
        a = _spd(seed, n)
        b = np.random.default_rng(seed + 1).standard_normal((n, m))
        f = linalg.cholesky(a)
        got = np.column_stack([linalg.chol_solve(f, col) for col in b.T])
        np.testing.assert_allclose(got, np.linalg.solve(a, b), rtol=1e-10, atol=1e-12)

    @CHOL_PROPERTY
    @given(sizes, seeds)
    def test_direct_construction_exposes_inverse(self, n, seed):
        lower = np.linalg.cholesky(_spd(seed, n))
        f = linalg.CholFactor(lower=lower, log_det=2.0 * np.log(np.diag(lower)).sum(),
                              jitter_applied=0.0)
        assert np.array_equal(f.inverse, np.tril(f.inverse))
        np.testing.assert_allclose(f.inverse @ lower, np.eye(n), rtol=0.0, atol=1e-12)

    @CHOL_PROPERTY
    @given(st.lists(st.integers(-9, 9), min_size=1, max_size=8), st.integers(0, 3),
           st.sampled_from([1.0, -1.0]))
    def test_rank_one_needs_jitter(self, rest, k, sign):
        # A power-of-two lead entry keeps every pivot exact: the zero pivot
        # of the rank-1 matrix is exactly zero under any LAPACK blocking.
        v = np.array([sign * 2.0**k] + rest, dtype=float)
        a = np.outer(v, v)
        f = linalg.cholesky(a, base_jitter=1e-10)
        assert f.jitter_applied > 0.0
        target = a + f.jitter_applied * np.eye(v.size)
        assert np.abs(f.lower @ f.lower.T - target).max() < 1e-8 * np.abs(a).max()


def test_symmetrize_rejects_nonsquare():
    with pytest.raises(ValueError):
        linalg.symmetrize(np.ones((2, 3)))
