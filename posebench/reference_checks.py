"""Closed-form spot checks of the numpy references in reference.py.

The file name keeps it out of the repository's default pytest collection
(test_*.py). Run it with either of

    python3 -m pytest posebench/reference_checks.py
    python3 posebench/reference_checks.py
"""

import math
import sys

import numpy as np

import reference as ref


def test_mvn_standard_normal_values():
    # log N(x; 0, 1) = -(log 2pi + x^2) / 2
    for x in (0.0, 1.0, -2.5):
        got = ref.mvn_log_prob(np.zeros(1), np.eye(1), [[x]])[0]
        assert math.isclose(got, -0.5 * (math.log(2 * math.pi) + x * x), rel_tol=1e-14)


def test_mvn_diagonal_at_mean_and_gradient():
    var = np.array([0.5, 2.0, 4.0])
    mean = np.array([1.0, -1.0, 0.5])
    got = ref.mvn_log_prob(mean, np.diag(var), mean)[0]
    assert math.isclose(got, -0.5 * (3 * math.log(2 * math.pi) + np.sum(np.log(var))),
                        rel_tol=1e-14)
    x = mean + np.array([1.0, 2.0, -4.0])
    assert np.allclose(ref.mvn_grad(mean, np.diag(var), x), [-2.0, -1.0, 1.0], rtol=1e-14)


def test_gmm_of_equal_components_is_the_component():
    mean, cov = np.array([0.3, -0.2]), np.array([[1.0, 0.4], [0.4, 0.5]])
    xs = np.array([[0.0, 0.0], [1.0, -1.0]])
    gmm = ref.gmm_log_prob([0.3, 0.7], [mean, mean], [cov, cov], xs)
    assert np.allclose(gmm, ref.mvn_log_prob(mean, cov, xs), rtol=1e-13)
    assert np.allclose(ref.gmm_grad([1, 3], [mean, mean], [cov, cov], xs[1]),
                       ref.mvn_grad(mean, cov, xs[1]), rtol=1e-13)


def test_gmm_symmetric_1d_value_and_gradient():
    # 0.5 N(-1, 1) + 0.5 N(1, 1) at 0: both components give exp(-1/2)/sqrt(2pi).
    means, covs = [np.array([-1.0]), np.array([1.0])], [np.eye(1), np.eye(1)]
    got = ref.gmm_log_prob([0.5, 0.5], means, covs, [[0.0]])[0]
    assert math.isclose(got, -0.5 - 0.5 * math.log(2 * math.pi), rel_tol=1e-14)
    assert abs(ref.gmm_grad([0.5, 0.5], means, covs, np.zeros(1))[0]) < 1e-15
    x = np.array([0.7])
    fd = ref.central_diff(lambda v: ref.gmm_log_prob([0.5, 0.5], means, covs, v[None])[0], x)
    assert np.allclose(ref.gmm_grad([0.5, 0.5], means, covs, x), fd, rtol=1e-8)


def test_closed_form_recovery_scalar():
    # argmin (x - y)^2 / (2 s^2) + lam (x - m)^2 / (2 v)
    m, v, y, s, lam = 0.5, 0.25, 2.0, 0.5, 2.0
    expected = (y / s**2 + lam * m / v) / (1 / s**2 + lam / v)
    got = ref.mvn_map_estimate(np.array([m]), np.array([[v]]), [y], [True], s, lam)[0]
    assert math.isclose(got, expected, rel_tol=1e-14)
    # A masked dimension falls back to the prior mean.
    got = ref.mvn_map_estimate(np.array([m]), np.array([[v]]), [y], [False], s, lam)[0]
    assert math.isclose(got, m, rel_tol=1e-14)
    g = ref.recovery_gradient(lambda x: -(x - m) / v, np.array([expected]), np.array([y]),
                              np.array([True]), s, lam)
    assert abs(g[0]) < 1e-12


def test_pca_eigenvalues_known_covariance():
    # Rows +-(a, a) and +-(b, -b), chosen so the covariance is [[2, 1], [1, 2]].
    a, b = 1.5, math.sqrt(0.75)
    xs = np.array([[a, a], [-a, -a], [b, -b], [-b, b]])
    assert np.allclose(ref.pca_eigenvalues(xs), [3.0, 1.0], rtol=1e-13)


def test_rodrigues_quarter_turn_and_identity():
    r = ref.rodrigues([0.0, 0.0, math.pi / 2, 0.0, 0.0, 0.0])
    assert np.allclose(r[0], [[0, -1, 0], [1, 0, 0], [0, 0, 1]], atol=1e-15)
    assert np.allclose(r[1], np.eye(3))


def test_rodrigues_jacobian_matches_central_differences():
    pose = np.array([0.3, -0.7, 0.2, 1e-6, 2e-6, -1e-6, 2.5, 0.4, -1.0])
    jac = ref.rodrigues_jacobian(pose)
    for k in range(pose.size):
        e = np.zeros_like(pose)
        e[k] = 1e-6
        fd = (ref.rodrigues(pose + e) - ref.rodrigues(pose - e)) / 2e-6
        assert np.allclose(jac[k // 3, k % 3], fd[k // 3], atol=1e-8)


def test_vae_energy_gradient_matches_central_differences():
    rng = np.random.default_rng(0)
    layers = [(0.3 * rng.standard_normal((5, 18)), 0.1 * rng.standard_normal(5), "tanh"),
              (0.3 * rng.standard_normal((4, 5)), 0.1 * rng.standard_normal(4), "identity")]
    pose = rng.normal(0.0, 0.6, 6)
    energy, grad = ref.vae_energy(layers, 2, pose)
    assert energy > 0.0
    fd = ref.central_diff(lambda p: ref.vae_energy(layers, 2, p)[0], pose)
    assert np.allclose(grad, fd, rtol=1e-7, atol=1e-9)


if __name__ == "__main__":
    tests = [f for name, f in sorted(globals().items()) if name.startswith("test_")]
    for test in tests:
        test()
        print(f"ok {test.__name__}")
    sys.exit(0)
