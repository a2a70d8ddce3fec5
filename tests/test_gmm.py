import math

import numpy as np
import pytest

from posepriors import priors
from posepriors.gradcheck import finite_diff_gradient
from posepriors.posedata import MotionSequence, compute_deltas
from posepriors.priors import (
    GmmModel,
    fit_gmm_em,
    fit_mvn,
    fit_temporal_gmm,
    mvn_from_moments,
)


def two_cluster_data(n_per=5000, seed=2025):
    rng = np.random.default_rng(seed)
    a = rng.normal([-5.0, 0.0], 1.0, (n_per, 2))
    b = rng.normal([5.0, 0.0], 1.0, (n_per, 2))
    return np.vstack([a, b])


class TestFitGmmEm:
    def test_k1_reproduces_mvn_moments(self):
        x = two_cluster_data(n_per=500)
        gmm = fit_gmm_em(x, 1, seed=3, reg=0.0)
        mvn = fit_mvn(x)
        assert np.abs(gmm.means[0] - mvn.mean).max() < 1e-8
        assert np.abs(gmm.covs[0] - mvn.cov).max() < 1e-8
        np.testing.assert_allclose(gmm.weights, [1.0])

    def test_two_cluster_benchmark(self):
        x = two_cluster_data()
        gmm = fit_gmm_em(x, 2, seed=7)
        order = np.argsort(gmm.means[:, 0])
        np.testing.assert_allclose(gmm.weights, [0.5, 0.5], atol=0.02)
        np.testing.assert_allclose(gmm.means[order][:, 0], [-5.0, 5.0], atol=0.1)
        np.testing.assert_allclose(gmm.means[order][:, 1], [0.0, 0.0], atol=0.1)

    def test_loglik_trace_non_decreasing(self):
        x = two_cluster_data(n_per=2000)
        for seed in (0, 1, 2, 3):
            gmm = fit_gmm_em(x, 3, seed=seed)
            trace = np.array(gmm.fit_meta["loglik_trace"])
            assert np.all(np.diff(trace) >= -1e-9)

    def test_final_beats_single_component(self):
        x = two_cluster_data(n_per=1000)
        single = fit_gmm_em(x, 1, seed=0)
        double = fit_gmm_em(x, 2, seed=0)
        assert double.fit_meta["final_loglik"] >= single.fit_meta["final_loglik"]

    def test_k_greater_than_n_rejected(self):
        with pytest.raises(ValueError):
            fit_gmm_em(np.ones((3, 2)) + np.arange(3)[:, None], 4, seed=0)

    def test_k_zero_rejected(self):
        with pytest.raises(ValueError):
            fit_gmm_em(two_cluster_data(n_per=10), 0, seed=0)

    def test_capped_fit_reports_returned_models_loglik(self):
        x = two_cluster_data(n_per=300)
        gmm = fit_gmm_em(x, 2, seed=0, max_iter=3)
        assert gmm.fit_meta["converged"] is False
        assert gmm.fit_meta["final_loglik"] == pytest.approx(
            float(np.sum(gmm.log_prob_many(x))), rel=1e-12
        )

    def test_deterministic_per_seed(self):
        x = two_cluster_data(n_per=300)
        a = fit_gmm_em(x, 2, seed=11)
        b = fit_gmm_em(x, 2, seed=11)
        assert np.array_equal(a.means, b.means)
        assert np.array_equal(a.covs, b.covs)
        assert np.array_equal(a.weights, b.weights)


class TestGmmLogProb:
    def test_k1_equals_mvn(self):
        rng = np.random.default_rng(4)
        b = rng.standard_normal((3, 3))
        cov = b @ b.T + np.eye(3)
        mean = rng.standard_normal(3)
        mvn = mvn_from_moments(mean, cov)
        gmm = GmmModel(weights=[1.0], means=[mean], covs=[cov])
        for _ in range(20):
            x = mean + rng.standard_normal(3)
            assert gmm.log_prob(x) == pytest.approx(mvn.log_prob(x), abs=1e-12)
            np.testing.assert_allclose(gmm.grad_log_prob(x), mvn.grad_log_prob(x), atol=1e-12)

    def test_symmetric_responsibilities(self):
        gmm = GmmModel(
            weights=[0.5, 0.5],
            means=[[-2.0, 0.0], [2.0, 0.0]],
            covs=[np.eye(2), np.eye(2)],
        )
        r = gmm.responsibilities([0.0, 1.3])
        np.testing.assert_allclose(r, [0.5, 0.5], atol=1e-12)

    def test_matches_naive_summation(self):
        # Oracle: direct density sum via numpy inverse and determinant.
        rng = np.random.default_rng(5)
        k = 3
        means = rng.normal(0.0, 2.0, (k, 2))
        covs = []
        for _ in range(k):
            b = rng.standard_normal((2, 2))
            covs.append(b @ b.T + 0.5 * np.eye(2))
        weights = rng.uniform(0.5, 1.5, k)
        weights /= weights.sum()
        gmm = GmmModel(weights=weights, means=means, covs=np.stack(covs))
        for _ in range(50):
            x = rng.normal(0.0, 2.0, 2)
            dens = 0.0
            for w, m, c in zip(gmm.weights, means, covs):
                z = x - m
                q = z @ np.linalg.inv(c) @ z
                dens += w * math.exp(-0.5 * q) / (2.0 * math.pi * math.sqrt(np.linalg.det(c)))
            if dens < 1e-250:
                continue
            assert gmm.log_prob(x) == pytest.approx(math.log(dens), rel=1e-10)

    def test_dimension_mismatch(self):
        gmm = GmmModel(weights=[1.0], means=[[0.0, 0.0]], covs=[np.eye(2)])
        with pytest.raises(ValueError):
            gmm.log_prob([0.0])


class TestGmmGrad:
    def test_zero_along_symmetry_axis(self):
        gmm = GmmModel(
            weights=[0.5, 0.5],
            means=[[-3.0, 0.0], [3.0, 0.0]],
            covs=[np.eye(2), np.eye(2)],
        )
        g = gmm.grad_log_prob([0.0, 0.0])
        assert abs(g[0]) < 1e-10

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        x = two_cluster_data(n_per=400, seed=1)
        gmm = fit_gmm_em(x, 2, seed=5)
        for _ in range(20):
            p = x[rng.integers(x.shape[0])] + 0.3 * rng.standard_normal(2)
            got = gmm.grad_log_prob(p)
            fd = finite_diff_gradient(gmm.log_prob, p)
            assert np.abs(got - fd).max() / max(1.0, np.abs(fd).max()) < 1e-5


def constant_velocity_sequence(n=90, noise=2e-3, seed=12):
    rng = np.random.default_rng(seed)
    ts = np.arange(n) / 30.0
    velocity = np.array([0.3, -0.2, 0.1, 0.05, -0.4, 0.2])
    poses = 0.1 + ts[:, None] * velocity + rng.normal(0.0, noise, (n, 6))
    return MotionSequence(timestamps=ts, poses=poses), velocity


class TestTemporalGmm:
    def test_consistent_delta_beats_fast_delta(self):
        seq, velocity = constant_velocity_sequence()
        deltas = compute_deltas(seq)
        model = fit_temporal_gmm(deltas, 1, seed=0)
        dt = 1.0 / 30.0
        consistent = np.concatenate([[dt], velocity * dt])
        fast = np.concatenate([[dt], 10.0 * velocity * dt])
        assert model.log_prob(consistent) > model.log_prob(fast)

    def test_k1_matches_mvn_over_deltas(self):
        seq, _ = constant_velocity_sequence()
        deltas = compute_deltas(seq)
        rows = priors.stack_deltas(deltas)
        model = fit_temporal_gmm(deltas, 1, seed=0, reg=0.0)
        mvn = fit_mvn(rows)
        x = rows[5]
        assert model.log_prob(x) == pytest.approx(mvn.log_prob(x), abs=1e-8)

    def test_empty_deltas_rejected(self):
        with pytest.raises(ValueError):
            fit_temporal_gmm([], 1, seed=0)

    def test_log_prob_delta_matches_stacked(self):
        seq, _ = constant_velocity_sequence()
        deltas = compute_deltas(seq)
        model = fit_temporal_gmm(deltas, 1, seed=0)
        assert model.log_prob_delta(deltas[0]) == model.log_prob(deltas[0].stacked())
