import math
import tracemalloc

import numpy as np
import pytest

from posepriors.priors import (
    BoxLimitModel,
    GammaModel,
    box_from_data,
    fit_gamma,
    fit_mvn,
    mvn_from_moments,
)

from oracles import finite_diff_gradient


class TestFitMvn:
    def test_two_point_moments(self):
        model = fit_mvn(np.array([[0.0, 0.0], [2.0, 2.0]]))
        np.testing.assert_allclose(model.mean, [1.0, 1.0])
        np.testing.assert_allclose(model.cov, [[2.0, 2.0], [2.0, 2.0]])
        # Rank-1 covariance still factors (jitter escalation or a tiny
        # roundoff pivot); the model must be evaluable either way.
        assert math.isfinite(model.log_prob([1.0, 1.0]))

    def test_recovers_known_parameters(self):
        rng = np.random.default_rng(50)
        true_mean = np.array([0.5, -1.0, 2.0])
        true_cov = np.array([[1.0, 0.3, 0.0], [0.3, 0.5, -0.1], [0.0, -0.1, 0.8]])
        chol = np.linalg.cholesky(true_cov)
        x = true_mean + rng.standard_normal((50000, 3)) @ chol.T
        model = fit_mvn(x)
        assert np.abs(model.mean - true_mean).max() < 0.05
        assert np.abs(model.cov - true_cov).max() < 0.05 * np.abs(true_cov).max()

    def test_single_sample_rejected(self):
        with pytest.raises(ValueError):
            fit_mvn(np.ones((1, 3)))


class TestMvnLogProb:
    def test_standard_normal_1d(self):
        model = mvn_from_moments([0.0], [[1.0]])
        assert model.log_prob([0.0]) == pytest.approx(
            math.log(1.0 / math.sqrt(2.0 * math.pi)), abs=1e-12
        )

    def test_identity_2d_at_mean(self):
        model = mvn_from_moments([0.3, -0.7], np.eye(2))
        assert model.log_prob([0.3, -0.7]) == pytest.approx(-math.log(2.0 * math.pi), abs=1e-12)

    def test_unit_mahalanobis(self):
        model = mvn_from_moments([1.0], [[4.0]])
        expected = math.log(0.5 / math.sqrt(2.0 * math.pi)) - 0.5
        assert model.log_prob([3.0]) == pytest.approx(expected, abs=1e-12)

    def test_never_exponentiates(self):
        # A 66-dim query far in the tail: the raw pdf underflows but the
        # log-density stays finite.
        model = mvn_from_moments(np.zeros(66), 0.01 * np.eye(66))
        lp = model.log_prob(np.full(66, 3.0))
        assert math.isfinite(lp) and lp < -1e4

    def test_mean_is_argmax(self):
        rng = np.random.default_rng(8)
        b = rng.standard_normal((5, 5))
        model = mvn_from_moments(rng.standard_normal(5), b @ b.T + np.eye(5))
        peak = model.log_prob(model.mean)
        for _ in range(200):
            assert peak >= model.log_prob(model.mean + rng.standard_normal(5))

    def test_many_matches_single(self):
        rng = np.random.default_rng(12)
        b = rng.standard_normal((4, 4))
        model = mvn_from_moments(rng.standard_normal(4), b @ b.T + np.eye(4))
        xs = rng.standard_normal((10, 4))
        many = model.log_prob_many(xs)
        np.testing.assert_allclose(many, [model.log_prob(x) for x in xs], rtol=1e-12)

    def test_dimension_mismatch(self):
        model = mvn_from_moments([0.0], [[1.0]])
        with pytest.raises(ValueError):
            model.log_prob([0.0, 1.0])

    def test_non_finite_input(self):
        model = mvn_from_moments([0.0], [[1.0]])
        with pytest.raises(ValueError):
            model.log_prob([np.nan])


class TestMvnGrad:
    def test_zero_at_mean(self):
        model = mvn_from_moments([1.0, 2.0], np.eye(2))
        np.testing.assert_allclose(model.grad_log_prob([1.0, 2.0]), [0.0, 0.0])

    def test_unit_case(self):
        model = mvn_from_moments([0.0], [[1.0]])
        np.testing.assert_allclose(model.grad_log_prob([1.0]), [-1.0])

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(33)
        b = rng.standard_normal((6, 6))
        model = mvn_from_moments(rng.standard_normal(6), b @ b.T + np.eye(6))
        for _ in range(10):
            x = model.mean + rng.standard_normal(6)
            got = model.grad_log_prob(x)
            fd = finite_diff_gradient(model.log_prob, x)
            assert np.abs(got - fd).max() / max(1.0, np.abs(fd).max()) < 1e-5

    def test_normalization_2d_stratified_monte_carlo(self):
        # exp(log_prob) must integrate to 1; one uniform draw per grid cell.
        rng = np.random.default_rng(300)
        model = mvn_from_moments([0.4, -0.2], [[1.0, 0.6], [0.6, 1.5]])
        sd = np.sqrt(np.diag(model.cov))
        lo = model.mean - 8.0 * sd
        hi = model.mean + 8.0 * sd
        grid = 700  # 490k cells keeps this test quick; acceptance runs 4e6
        cell = (hi - lo) / grid
        ii, jj = np.meshgrid(np.arange(grid), np.arange(grid), indexing="ij")
        pts = np.column_stack(
            [
                lo[0] + (ii.ravel() + rng.random(grid * grid)) * cell[0],
                lo[1] + (jj.ravel() + rng.random(grid * grid)) * cell[1],
            ]
        )
        integral = np.exp(model.log_prob_many(pts)).sum() * cell[0] * cell[1]
        assert integral == pytest.approx(1.0, rel=0.02)


class TestFitGamma:
    def test_recovers_alpha_beta(self):
        rng = np.random.default_rng(61)
        x = rng.gamma(2.0, 0.5, (100000, 1))  # alpha 2, rate 2
        model = fit_gamma(x)
        assert abs(model.alpha[0] - 2.0) < 0.1
        assert abs(model.beta[0] - 2.0) < 0.1
        assert model.sign[0] == 1.0

    def test_exponential_alpha_one(self):
        rng = np.random.default_rng(62)
        x = rng.gamma(1.0, 1.0, (100000, 1))
        model = fit_gamma(x)
        assert abs(model.alpha[0] - 1.0) < 0.05

    def test_negative_support_orientation(self):
        rng = np.random.default_rng(63)
        x = -rng.gamma(2.0, 0.5, (20000, 1))  # left-skewed, support x <= 0
        model = fit_gamma(x)
        assert model.sign[0] == -1.0
        assert model.shift[0] > x.max()

    def test_constant_dimension_rejected(self):
        x = np.column_stack([np.ones(100), np.linspace(0, 1, 100)])
        with pytest.raises(ValueError, match="zero variance in dimension 0"):
            fit_gamma(x)

    def test_needs_ten_samples(self):
        with pytest.raises(ValueError):
            fit_gamma(np.random.default_rng(0).gamma(2.0, 1.0, (9, 1)))

    def test_training_points_inside_support(self):
        rng = np.random.default_rng(64)
        x = np.column_stack([rng.gamma(3.0, 1.0, 500), -rng.gamma(2.0, 2.0, 500)])
        model = fit_gamma(x)
        assert np.all(model.log_prob_many(x) > -np.inf)

    def test_fit_holds_at_most_two_arrays_the_size_of_its_input(self):
        # One (n, d) buffer for the square, the cube and y, and y.var's temporary.
        x = np.random.default_rng(65).gamma(2.0, 1.0, (4000, 66))
        was_tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            fit_gamma(x)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not was_tracing:
                tracemalloc.stop()
        assert peak <= 2.1 * x.nbytes


class TestGammaLogProb:
    def test_unit_exponential(self):
        model = GammaModel(alpha=[1.0], beta=[1.0], sign=[1], shift=[0.0])
        assert model.log_prob([1.0]) == pytest.approx(-1.0, abs=1e-12)

    def test_closed_form(self):
        model = GammaModel(alpha=[2.0], beta=[3.0], sign=[1], shift=[0.0])
        assert model.log_prob([2.0]) == pytest.approx(math.log(18.0) - 6.0, abs=1e-12)

    def test_outside_support_is_minus_inf(self):
        model = GammaModel(alpha=[2.0], beta=[3.0], sign=[1], shift=[0.0])
        assert model.log_prob([-1.0]) == float("-inf")
        assert model.log_prob([0.0]) == float("-inf")

    def test_support_sentinel_exactly_on_violation(self):
        model = GammaModel(
            alpha=[2.0, 2.0], beta=[1.0, 1.0], sign=[1, -1], shift=[0.0, 0.0]
        )
        rng = np.random.default_rng(9)
        for _ in range(200):
            x = rng.uniform(-2.0, 2.0, 2)
            inside = x[0] > 0.0 and x[1] < 0.0
            assert (model.log_prob(x) > -np.inf) == inside

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_mode_is_inside_support(self, alpha):
        model = GammaModel(alpha=[alpha, alpha], beta=[1.0, 2.0], sign=[1, -1], shift=[0.0, 0.5])
        assert model.log_prob(model.mode()) > -np.inf

    def test_product_over_dimensions(self):
        a = GammaModel(alpha=[2.0], beta=[3.0], sign=[1], shift=[0.0])
        b = GammaModel(alpha=[1.5], beta=[0.5], sign=[1], shift=[0.0])
        both = GammaModel(
            alpha=[2.0, 1.5], beta=[3.0, 0.5], sign=[1, 1], shift=[0.0, 0.0]
        )
        assert both.log_prob([2.0, 4.0]) == pytest.approx(
            a.log_prob([2.0]) + b.log_prob([4.0]), rel=1e-12
        )


class TestGammaGrad:
    def test_exponential_constant_gradient(self):
        model = GammaModel(alpha=[1.0, 1.0], beta=[1.0, 1.0], sign=[1, -1], shift=[0.0, 0.0])
        np.testing.assert_allclose(model.grad_log_prob([0.5, -0.5]), [-1.0, 1.0])

    def test_closed_form(self):
        model = GammaModel(alpha=[2.0], beta=[3.0], sign=[1], shift=[0.0])
        np.testing.assert_allclose(model.grad_log_prob([1.0]), [-2.0])

    def test_outside_support_raises(self):
        model = GammaModel(alpha=[2.0], beta=[3.0], sign=[1], shift=[0.0])
        with pytest.raises(ValueError, match="support"):
            model.grad_log_prob([0.0])

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(71)
        model = GammaModel(
            alpha=[2.0, 3.5, 1.2],
            beta=[1.0, 0.5, 4.0],
            sign=[1, -1, 1],
            shift=[0.5, 1.0, -2.0],
        )
        for _ in range(10):
            y = rng.gamma(model.alpha, 1.0 / model.beta) + 0.05
            x = model.shift + model.sign * y
            got = model.grad_log_prob(x)
            fd = finite_diff_gradient(model.log_prob, x)
            assert np.abs(got - fd).max() / max(1.0, np.abs(fd).max()) < 1e-5


class TestBoxLimit:
    def test_inside_is_free(self):
        model = BoxLimitModel(lo=[-1.0, -1.0], hi=[1.0, 1.0], stiffness=2.0)
        assert model.log_prob([0.3, -0.9]) == 0.0
        np.testing.assert_allclose(model.grad_log_prob([0.3, -0.9]), [0.0, 0.0])

    def test_unit_violation(self):
        model = BoxLimitModel(lo=[-1.0], hi=[1.0], stiffness=1.0)
        assert model.log_prob([2.0]) == pytest.approx(-1.0)
        np.testing.assert_allclose(model.grad_log_prob([2.0]), [-2.0])

    def test_below_violation_sign(self):
        model = BoxLimitModel(lo=[0.0], hi=[1.0], stiffness=3.0)
        assert model.log_prob([-2.0]) == pytest.approx(-12.0)
        np.testing.assert_allclose(model.grad_log_prob([-2.0]), [12.0])

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(81)
        model = BoxLimitModel(lo=[-0.5, 0.0], hi=[0.5, 2.0], stiffness=1.7)
        for _ in range(20):
            x = rng.uniform(-2.0, 3.0, 2)
            x[np.abs(x - model.lo) < 1e-4] += 2e-4  # stay off the kink
            x[np.abs(x - model.hi) < 1e-4] += 2e-4
            got = model.grad_log_prob(x)
            fd = finite_diff_gradient(model.log_prob, x, h=1e-6)
            assert np.abs(got - fd).max() < 1e-6 * max(1.0, np.abs(fd).max()) + 1e-8

    def test_c1_at_boundary(self):
        model = BoxLimitModel(lo=[0.0], hi=[1.0], stiffness=1.0)
        eps = 1e-8
        assert abs(model.grad_log_prob([1.0 + eps])[0]) < 1e-7
        assert abs(model.grad_log_prob([1.0 - eps])[0]) == 0.0

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            BoxLimitModel(lo=[1.0], hi=[1.0])

    def test_one_sided_infinite_limits_load(self):
        model = BoxLimitModel(lo=[-np.inf, 0.0], hi=[0.5, np.inf])
        assert model.log_prob([-1e300, 1e300]) == 0.0
        assert model.log_prob([1.5, -1.0]) == -2.0

    @pytest.mark.parametrize("lo,hi", [([np.nan], [1.0]), ([0.0], [np.nan]),
                                       ([0.0, np.nan], [1.0, 1.0])])
    def test_nan_limit_rejected(self, lo, hi):
        with pytest.raises(ValueError, match="requires lo < hi in every dimension"):
            BoxLimitModel(lo=lo, hi=hi)

    @pytest.mark.parametrize("stiffness", [0.0, -1.0, np.nan, np.inf])
    def test_stiffness_must_be_positive_and_finite(self, stiffness):
        with pytest.raises(ValueError, match="stiffness must be positive and finite"):
            BoxLimitModel(lo=[0.0], hi=[1.0], stiffness=stiffness)

    def test_from_data(self):
        rng = np.random.default_rng(91)
        x = rng.uniform(-1.0, 2.0, (100, 3))
        model = box_from_data(x, stiffness=2.0)
        assert np.all(model.log_prob_many(x) == 0.0)
