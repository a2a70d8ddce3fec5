import math

import numpy as np
import pytest

from posepriors import pca
from posepriors.pca import Normal1D, fit_normal_1d, fit_pca, histogram, infeasible_mass, reorient


class TestFitPca:
    def test_recovers_diagonal_gaussian_eigenvalues(self):
        rng = np.random.default_rng(41)
        x = rng.normal(0.0, [2.0, 1.0], (50000, 2))  # variances 4 and 1
        model = fit_pca(x)
        np.testing.assert_allclose(model.eigenvalues, [4.0, 1.0], rtol=0.05)

    def test_identical_samples_give_zero_eigenvalues(self):
        x = np.tile([1.0, 2.0, 3.0], (5, 1))
        model = fit_pca(x)
        np.testing.assert_allclose(model.eigenvalues, 0.0)

    def test_single_dim_subset(self):
        rng = np.random.default_rng(5)
        x = rng.normal(0.0, 1.5, (1000, 3))
        model = fit_pca(x, dims=[0])
        np.testing.assert_allclose(model.basis, [[1.0]])
        assert model.eigenvalues[0] == pytest.approx(x[:, 0].var(ddof=1))

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            fit_pca(np.ones((1, 2)))

    def test_empty_dims_rejected(self):
        with pytest.raises(ValueError):
            fit_pca(np.ones((5, 2)), dims=[])

    def test_one_dimensional_input_names_the_sample_shape(self):
        with pytest.raises(ValueError, match="expected a 2-D sample array or a PoseDataset"):
            fit_pca(np.ones(5))


class TestReorient:
    def test_mean_maps_to_zero(self):
        rng = np.random.default_rng(6)
        x = rng.normal(1.0, 1.0, (100, 3))
        model = fit_pca(x)
        np.testing.assert_allclose(reorient(model, model.mean), np.zeros(3), atol=1e-12)

    def test_identity_basis_zero_mean_is_identity_map(self):
        model = pca.PcaModel(mean=np.zeros(2), basis=np.eye(2), eigenvalues=np.ones(2))
        pts = np.array([[1.0, 2.0], [-3.0, 0.5]])
        np.testing.assert_allclose(reorient(model, pts), pts)

    def test_round_trip(self):
        rng = np.random.default_rng(9)
        x = rng.normal(0.0, 2.0, (500, 4))
        model = fit_pca(x)
        pts = rng.normal(0.0, 2.0, (20, 4))
        back = pca.restore(model, reorient(model, pts))
        assert np.abs(back - pts).max() < 1e-10

    def test_dimension_mismatch(self):
        model = pca.PcaModel(mean=np.zeros(2), basis=np.eye(2), eigenvalues=np.ones(2))
        with pytest.raises(ValueError):
            reorient(model, np.ones(3))

    @pytest.mark.parametrize("dim", [1, 2, 5, 66, 130])
    def test_point_is_row_zero_of_its_one_row_batch(self, dim):
        rng = np.random.default_rng(dim)
        model = fit_pca(rng.normal(0.0, 1.0, (dim + 10, dim)))
        for p in rng.normal(0.0, 2.0, (20, dim)):
            for fn in (reorient, pca.restore):
                assert fn(model, p).tobytes() == fn(model, p[None])[0].tobytes()

    def test_reoriented_training_data_moments(self):
        # Principal coordinates of the training data: zero mean, diagonal
        # covariance matching the eigenvalues.
        rng = np.random.default_rng(14)
        cov = np.array([[2.0, 0.8, 0.1], [0.8, 1.0, -0.3], [0.1, -0.3, 0.5]])
        chol = np.linalg.cholesky(cov)
        x = rng.standard_normal((20000, 3)) @ chol.T
        model = fit_pca(x)
        q = reorient(model, x)
        assert np.abs(q.mean(axis=0)).max() < 1e-8
        sample_cov = np.cov(q.T)
        np.testing.assert_allclose(np.diag(sample_cov), model.eigenvalues, rtol=0.01)
        off = sample_cov - np.diag(np.diag(sample_cov))
        assert np.abs(off).max() < 0.01 * model.eigenvalues[0]


class TestFitNormal1D:
    def test_two_point_formula(self):
        n = fit_normal_1d([-1.0, 1.0])
        assert n.mu == 0.0
        assert n.sigma == pytest.approx(math.sqrt(2.0))

    def test_large_sample_recovery(self):
        rng = np.random.default_rng(100)
        n = fit_normal_1d(rng.normal(3.0, 2.0, 100000))
        assert abs(n.mu - 3.0) < 0.03
        assert abs(n.sigma - 2.0) < 0.03

    def test_single_sample_rejected(self):
        with pytest.raises(ValueError):
            fit_normal_1d([1.0])

    def test_degenerate_variance_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            fit_normal_1d([2.0, 2.0, 2.0])


class TestHistogram:
    def test_four_values_two_bins(self):
        h = histogram([0.0, 1.0, 2.0, 3.0], bins=2)
        np.testing.assert_array_equal(h.counts, [2, 2])
        assert h.total == 4

    def test_max_falls_in_last_bin(self):
        h = histogram([0.0, 10.0], bins=5)
        assert h.counts[-1] == 1

    def test_all_equal_single_spike(self):
        h = histogram([4.2, 4.2, 4.2], bins=3)
        assert h.counts[0] == 3
        assert h.counts[1:].sum() == 0
        assert h.edges[-1] - h.edges[0] == pytest.approx(1e-9)

    def test_count_conservation(self):
        rng = np.random.default_rng(77)
        x = rng.normal(0.0, 3.0, 1234)
        h = histogram(x, bins=17)
        assert h.counts.sum() == h.total == 1234
        assert np.all(np.diff(h.edges) > 0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            histogram([], bins=3)


def _cdf_by_quadrature(z: float) -> float:
    # Independent oracle: trapezoid integration of the standard normal pdf.
    grid = np.linspace(-12.0, z, 200001)
    pdf = np.exp(-grid**2 / 2.0) / math.sqrt(2.0 * math.pi)
    return float(np.trapezoid(pdf, grid))


class TestInfeasibleMass:
    def test_whole_line_is_zero(self):
        assert infeasible_mass(Normal1D(0.0, 1.0), -1e9, 1e9) == pytest.approx(0.0, abs=1e-12)

    def test_half_line_symmetry(self):
        assert infeasible_mass(Normal1D(0.0, 1.0), 0.0, 1e9) == pytest.approx(0.5, abs=1e-7)

    def test_95_percent_interval(self):
        got = infeasible_mass(Normal1D(0.0, 1.0), -1.959964, 1.959964)
        assert got == pytest.approx(0.05, abs=1e-5)

    def test_against_quadrature_oracle(self):
        n = Normal1D(0.7, 1.8)
        lo, hi = -1.2, 2.5
        expected = 1.0 - (_cdf_by_quadrature((hi - n.mu) / n.sigma)
                          - _cdf_by_quadrature((lo - n.mu) / n.sigma))
        assert infeasible_mass(n, lo, hi) == pytest.approx(expected, abs=1e-7)

    def test_monotone_in_interval_width(self):
        n = Normal1D(0.3, 1.1)
        widths = np.linspace(0.1, 8.0, 40)
        masses = [infeasible_mass(n, -w, w) for w in widths]
        assert np.all(np.diff(masses) <= 1e-15)

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            infeasible_mass(Normal1D(0.0, 1.0), 1.0, -1.0)


def test_one_sided_gamma_knee_phenomenon():
    # A normal fit to one-sided gamma(2, 2) data puts visible probability
    # on the impossible negative side.
    rng = np.random.default_rng(2024)
    draws = rng.gamma(2.0, 0.5, 10000)  # support x >= 0
    n = fit_normal_1d(draws)
    mass = infeasible_mass(n, 0.0, 1e9)
    assert mass > 0.02
