import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posepriors import linalg, recovery
from posepriors.errors import NumericalError
from posepriors.priors import BoxLimitModel, GammaModel, GmmModel, PosePrior, mvn_from_moments
from posepriors.recovery import Observation, recover_pose


def make_mvn(rng, dim=6, scale=0.3):
    b = rng.standard_normal((dim, dim)) * scale
    cov = b @ b.T + scale * np.eye(dim)
    return mvn_from_moments(rng.standard_normal(dim) * 0.5, cov)


def closed_form_estimate(obs, prior, lam):
    # Quadratic minimum: (M / s^2 + lam Sigma^-1) x = M obs / s^2
    # + lam Sigma^-1 m, with M the diagonal observed mask. Independent path
    # via numpy inverse.
    inv_sigma = np.linalg.inv(prior.cov)
    a = np.diag(obs.mask / obs.noise_sigma**2) + lam * inv_sigma
    b = obs.mask * obs.values / obs.noise_sigma**2 + lam * inv_sigma @ prior.mean
    return np.linalg.solve(a, b)


class CountingPrior:
    """Forwards to a prior and counts log_prob and grad_log_prob calls."""

    def __init__(self, prior):
        self.prior = prior
        self.log_prob_calls = self.grad_calls = 0

    def __getattr__(self, name):
        return getattr(self.prior, name)

    def log_prob(self, x):
        self.log_prob_calls += 1
        return self.prior.log_prob(x)

    def grad_log_prob(self, x):
        self.grad_calls += 1
        return self.prior.grad_log_prob(x)


def oracle_66():
    # The acceptance-8 recovery problem: a 66-d MVN prior, full mask.
    rng = np.random.default_rng(888)
    b = rng.standard_normal((66, 66)) * 0.5
    prior = mvn_from_moments(rng.normal(0.0, 0.3, 66), b @ b.T / 66 + 0.05 * np.eye(66))
    obs = Observation(values=prior.mean + rng.normal(0.0, 0.3, 66), noise_sigma=0.3)
    return obs, prior


def full_gradient(obs, prior, lam, x):
    return obs.mask * (x - obs.values) / obs.noise_sigma**2 - lam * prior.grad_log_prob(x)


class TestRecoverPose:
    def test_lambda_zero_returns_observation(self):
        rng = np.random.default_rng(1)
        prior = make_mvn(rng)
        obs = Observation(values=rng.standard_normal(6), noise_sigma=0.3)
        result = recover_pose(obs, prior, lam=0.0)
        np.testing.assert_array_equal(result.estimate, obs.values)
        assert result.iterations_used == 1
        assert result.converged

    def test_matches_closed_form_solution(self):
        rng = np.random.default_rng(2)
        prior = make_mvn(rng)
        obs = Observation(values=prior.mean + rng.standard_normal(6), noise_sigma=0.3)
        result = recover_pose(obs, prior, lam=1.0, max_iter=5000, tol=1e-9)
        expected = closed_form_estimate(obs, prior, 1.0)
        assert np.abs(result.estimate - expected).max() < 1e-6

    def test_regularization_reduces_error(self):
        rng = np.random.default_rng(3)
        prior = make_mvn(rng, dim=8)
        chol = linalg.cholesky(prior.cov)
        mse = {0.0: 0.0, 1.0: 0.0}
        trials = 50
        for _ in range(trials):
            truth = prior.mean + chol.lower @ rng.standard_normal(8)
            obs = Observation(values=truth + rng.normal(0.0, 0.3, 8), noise_sigma=0.3)
            for lam in mse:
                est = recover_pose(obs, prior, lam=lam).estimate
                mse[lam] += float(np.sum((est - truth) ** 2)) / trials
        assert mse[1.0] < mse[0.0]

    def test_objective_trace_non_increasing(self):
        rng = np.random.default_rng(4)
        prior = make_mvn(rng)
        obs = Observation(values=prior.mean + 2.0, noise_sigma=0.5)
        result = recover_pose(obs, prior, lam=2.0)
        trace = np.array(result.objective_trace)
        assert np.all(np.diff(trace) <= 1e-9)

    def test_large_lambda_pulls_toward_prior_mean(self):
        rng = np.random.default_rng(5)
        prior = make_mvn(rng)
        obs = Observation(values=prior.mean + 1.5, noise_sigma=0.3)
        dists = []
        for lam in (0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 100.0):
            est = recover_pose(obs, prior, lam=lam, max_iter=2000).estimate
            dists.append(float(np.linalg.norm(est - prior.mean)))
        assert np.all(np.diff(dists) <= 1e-9)

    def test_deterministic(self):
        rng = np.random.default_rng(6)
        prior = make_mvn(rng)
        obs = Observation(values=prior.mean + 0.7, noise_sigma=0.4)
        a = recover_pose(obs, prior, lam=1.0)
        b = recover_pose(obs, prior, lam=1.0)
        assert np.array_equal(a.estimate, b.estimate)
        assert a.objective_trace == b.objective_trace

    def test_masked_recovery_fills_from_prior_mode(self):
        rng = np.random.default_rng(7)
        prior = make_mvn(rng)
        mask = np.array([True, True, True, False, False, False])
        obs = Observation(values=prior.mean + 0.2, noise_sigma=0.2, mask=mask)
        result = recover_pose(obs, prior, lam=1.0, max_iter=2000)
        # Unobserved dims must end near their conditional estimate, which for
        # a strong prior stays close to the prior mean.
        assert np.abs(result.estimate[~mask] - prior.mean[~mask]).max() < 1.0

    def test_box_prior_pushes_inside(self):
        prior = BoxLimitModel(lo=-np.ones(3), hi=np.ones(3), stiffness=50.0)
        obs = Observation(values=np.array([2.0, 0.0, -2.0]), noise_sigma=1.0)
        result = recover_pose(obs, prior, lam=1.0, max_iter=2000)
        assert np.all(result.estimate < 1.5)
        assert np.all(result.estimate > -1.5)

    def test_gamma_out_of_support_reinit(self):
        # Observation outside the support on an unobserved dim: the free
        # dims re-initialize from the prior, and recovery proceeds.
        prior = GammaModel(alpha=[2.0, 2.0], beta=[2.0, 2.0], sign=[1, 1],
                           shift=[0.0, 0.0])
        obs = Observation(values=np.array([1.0, -3.0]), noise_sigma=0.5,
                          mask=np.array([True, False]))
        result = recover_pose(obs, prior, lam=1.0)
        assert prior.log_prob(result.estimate) > -np.inf

    def test_prior_without_mode_starts_free_dims_at_zero(self):
        class Flat(PosePrior):
            dim = 3

            def _log_prob_rows(self, xs):
                return np.zeros(len(xs))

            def _grad_rows(self, xs):
                return np.zeros(xs.shape)

        obs = Observation(values=np.array([0.5, -1.0, 2.0]), noise_sigma=0.1,
                          mask=np.array([True, False, False]))
        result = recover_pose(obs, Flat(), lam=1.0)
        assert result.estimate.tolist() == [0.5, 0.0, 0.0]
        assert result.stop_reason == "grad_tol" and result.iterations_used == 1

    def test_gamma_observed_out_of_support_errors(self):
        prior = GammaModel(alpha=[2.0], beta=[2.0], sign=[1], shift=[0.0])
        obs = Observation(values=np.array([-3.0]), noise_sigma=0.5)
        with pytest.raises(NumericalError):
            recover_pose(obs, prior, lam=1.0)

    class ModeOutsideSupport(PosePrior):
        """Zero probability for x[1] <= 0, with its mode at 0 and a chosen mean."""

        dim = 2

        def __init__(self, mean):
            self.mean = np.array(mean, dtype=float)

        def _log_prob_rows(self, xs):
            with np.errstate(divide="ignore"):
                return np.where(xs[:, 1] > 0.0, np.log(np.maximum(xs[:, 1], 0.0)) - xs[:, 1],
                                -np.inf)

        def _grad_rows(self, xs):
            return np.stack([np.zeros(len(xs)), 1.0 / xs[:, 1] - 1.0], axis=1)

        def mean_vector(self):
            return self.mean.copy()

    def test_restarts_free_dims_from_mean_when_mode_scores_zero(self):
        obs = Observation(values=np.array([0.3, 5.0]), noise_sigma=0.5,
                          mask=np.array([True, False]))
        result = recover_pose(obs, self.ModeOutsideSupport([0.0, 2.0]), lam=1.0)
        # The mode (0, 0) scores -inf; the start is the observation with x[1] = 2.
        assert result.objective_trace[0] == -(math.log(2.0) - 2.0)
        assert result.stop_reason == "grad_tol"
        assert abs(result.estimate[1] - 1.0) < 1e-6

    def test_mean_also_scoring_zero_raises(self):
        obs = Observation(values=np.array([0.3, 5.0]), noise_sigma=0.5,
                          mask=np.array([True, False]))
        prior = self.ModeOutsideSupport([0.0, -1.0])
        with pytest.raises(NumericalError,
                           match="prior assigns zero probability at every initialization"):
            recover_pose(obs, prior, lam=1.0)

    @pytest.mark.parametrize("kwargs", [dict(lam=math.nan), dict(lam=math.inf),
                                        dict(lam=1.0, step=math.nan), dict(lam=1.0, step=math.inf),
                                        dict(lam=1.0, tol=math.nan), dict(lam=1.0, tol=math.inf)],
                             ids=["lam-nan", "lam-inf", "step-nan", "step-inf", "tol-nan", "tol-inf"])
    def test_non_finite_settings_rejected(self, kwargs):
        obs = Observation(values=np.zeros(2), noise_sigma=0.5)
        with pytest.raises(ValueError):
            recover_pose(obs, BoxLimitModel(lo=[-1.0, -1.0], hi=[1.0, 1.0]), **kwargs)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(8)
        prior = make_mvn(rng, dim=4)
        obs = Observation(values=np.zeros(6), noise_sigma=0.3)
        with pytest.raises(ValueError):
            recover_pose(obs, prior, lam=1.0)


class TestStopReason:
    def test_float_precision_stall_is_stalled(self):
        obs, prior = oracle_66()
        result = recover_pose(obs, prior, lam=1.0, max_iter=20000, tol=1e-9)
        assert result.stop_reason == "stalled"
        assert not result.converged
        assert result.grad_inf_norm >= 1e-9
        assert np.abs(result.estimate - closed_form_estimate(obs, prior, 1.0)).max() < 1e-6

    def test_loose_tolerance_is_grad_tol(self):
        obs, prior = oracle_66()
        result = recover_pose(obs, prior, lam=1.0, tol=1e-3)
        assert result.stop_reason == "grad_tol"
        assert result.converged
        assert result.grad_inf_norm < 1e-3
        final = full_gradient(obs, prior, 1.0, result.estimate)
        assert result.grad_inf_norm == float(np.max(np.abs(final)))

    def test_budget_is_max_iter(self):
        obs, prior = oracle_66()
        result = recover_pose(obs, prior, lam=1.0, max_iter=2, tol=1e-9)
        assert result.stop_reason == "max_iter"
        assert not result.converged
        assert result.iterations_used == 2
        assert len(result.objective_trace) == 3


class TestWorkCounts:
    def test_oracle_uses_a_quarter_of_steepest_descent_calls(self):
        # Steepest descent with a step-1 restart on every iteration took
        # 1325 log_prob + 258 gradient calls on this problem, and 1374 + 269
        # with the earlier hand-rolled linear algebra; the bound is a quarter
        # of the latter.
        obs, prior = oracle_66()
        counted = CountingPrior(prior)
        result = recover_pose(obs, counted, lam=1.0, max_iter=20000, tol=1e-9)
        assert counted.log_prob_calls + counted.grad_calls < (1374 + 269) / 4
        assert counted.grad_calls == result.iterations_used

    def test_start_point_costs_one_log_prob_call(self):
        obs, prior = oracle_66()
        counted = CountingPrior(prior)
        result = recover_pose(obs, counted, lam=1.0, tol=1e6)
        assert result.stop_reason == "grad_tol"
        assert (counted.log_prob_calls, counted.grad_calls) == (1, 1)

    def test_lambda_zero_never_calls_the_prior(self):
        obs, prior = oracle_66()
        obs.mask[:3] = False
        counted = CountingPrior(prior)
        recover_pose(obs, counted, lam=0.0)
        assert (counted.log_prob_calls, counted.grad_calls) == (0, 0)


class TestCurvatureSafeguard:
    def test_pairs_without_positive_curvature_are_rejected(self, monkeypatch):
        # Two narrow components with the observation between them: the path
        # crosses the saddle, where steps see negative curvature.
        rng = np.random.default_rng(9)
        means = rng.normal(0.0, 1.0, (2, 2))
        covs = np.stack([np.diag(rng.uniform(0.02, 0.1, 2)) for _ in range(2)])
        prior = GmmModel(weights=[0.5, 0.5], means=means, covs=covs)
        obs = Observation(values=0.5 * means.sum(axis=0) + rng.normal(0.0, 0.1, 2),
                          noise_sigma=0.5)
        calls = []
        direction = recovery._lbfgs_direction

        def recording(g, pairs):
            calls.append(list(pairs))
            return direction(g, pairs)

        monkeypatch.setattr(recovery, "_lbfgs_direction", recording)
        result = recover_pose(obs, prior, lam=1.0)
        kept = {id(s): (s, y) for pairs in calls for s, y, _ in pairs}
        for s, y in kept.values():
            assert s @ y > 1e-12 * np.linalg.norm(s) * np.linalg.norm(y)
        # Each iteration after the first offers one pair, unless it stops at grad_tol.
        offered = result.iterations_used - 1 - (result.stop_reason == "grad_tol")
        assert len(kept) < offered


class TestNonDescentReset:
    def test_non_descent_direction_clears_memory_and_steps_down_gradient(self, monkeypatch):
        # The third L-BFGS direction is replaced by +g, which is not a descent
        # direction; the next trial point must be x + step * (-g) with the
        # curvature memory empty.
        obs, prior = oracle_66()
        step = 0.25
        seen = {"directions": 0, "memory": None, "trials": []}
        direction = recovery._lbfgs_direction

        def ascent_once(g, pairs):
            seen["directions"] += 1
            if seen["directions"] == 3:
                seen.update(memory=pairs, size=len(pairs), x=seen["grad_at"], g=g.copy())
                return g.copy()
            return direction(g, pairs)

        class Recording(CountingPrior):
            def log_prob(self, x):
                if seen["memory"] is not None and not seen["trials"]:
                    seen["trials"].append((x.copy(), len(seen["memory"])))
                return super().log_prob(x)

            def grad_log_prob(self, x):
                seen["grad_at"] = x.copy()
                return super().grad_log_prob(x)

        monkeypatch.setattr(recovery, "_lbfgs_direction", ascent_once)
        result = recover_pose(obs, Recording(prior), lam=1.0, max_iter=200, step=step,
                              tol=1e-9)
        assert seen["size"] >= 2
        [(trial, memory_size)] = seen["trials"]
        assert memory_size == 0
        assert np.array_equal(trial, seen["x"] + step * -seen["g"])
        assert np.all(np.diff(result.objective_trace) <= 0.0)
        assert seen["directions"] > 3


PROPERTY = settings(max_examples=25, derandomize=True, deadline=None, database=None)


@st.composite
def mvn_problems(draw):
    d = draw(st.integers(2, 20))
    mask = np.array(draw(st.lists(st.booleans(), min_size=d, max_size=d)))
    mask[draw(st.integers(0, d - 1))] = True
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    cov = (q * np.exp(rng.uniform(np.log(0.05), np.log(2.0), d))) @ q.T
    prior = mvn_from_moments(rng.normal(0.0, 0.5, d), (cov + cov.T) / 2.0)
    obs = Observation(values=prior.mean + rng.normal(0.0, 0.5, d), noise_sigma=0.3, mask=mask)
    return obs, prior, draw(st.sampled_from([0.5, 1.0, 4.0]))


class TestRecoveryProperties:
    @PROPERTY
    @given(mvn_problems())
    def test_mvn_trace_strictly_decreases_to_closed_form(self, problem):
        obs, prior, lam = problem
        result = recover_pose(obs, prior, lam=lam, max_iter=5000, tol=1e-9)
        assert np.all(np.diff(result.objective_trace) < 0.0)
        assert np.abs(result.estimate - closed_form_estimate(obs, prior, lam)).max() < 1e-6

    @PROPERTY
    @given(st.integers(1, 6), st.integers(0, 2**32 - 1), st.sampled_from([0.5, 1.0, 4.0]))
    def test_box_converged_means_small_gradient(self, d, seed, lam):
        rng = np.random.default_rng(seed)
        lo = rng.uniform(-1.0, 0.0, d)
        prior = BoxLimitModel(lo=lo, hi=lo + rng.uniform(0.2, 1.5, d),
                              stiffness=float(rng.uniform(1.0, 100.0)))
        obs = Observation(values=rng.normal(0.0, 1.5, d), noise_sigma=0.5)
        result = recover_pose(obs, prior, lam=lam, tol=1e-6)
        assert result.converged == (result.stop_reason == "grad_tol")
        if result.converged:
            assert np.abs(full_gradient(obs, prior, lam, result.estimate)).max() < 1e-6

    @PROPERTY
    @given(st.integers(1, 6), st.integers(0, 2**32 - 1), st.sampled_from([0.5, 1.0, 4.0]))
    def test_gamma_converged_means_small_gradient(self, d, seed, lam):
        rng = np.random.default_rng(seed)
        sign = np.where(rng.random(d) < 0.5, 1.0, -1.0)
        prior = GammaModel(alpha=rng.uniform(1.5, 4.0, d), beta=rng.uniform(0.5, 3.0, d),
                           sign=sign, shift=rng.uniform(-0.5, 0.5, d))
        mask = rng.random(d) < 0.7
        mask[0] = True
        # Observed in support, so the start point is valid.
        values = prior.shift + sign * rng.uniform(0.1, 2.0, d)
        obs = Observation(values=values, noise_sigma=0.5, mask=mask)
        result = recover_pose(obs, prior, lam=lam, tol=1e-6)
        assert np.all(np.diff(result.objective_trace) <= 0.0)
        if result.converged:
            assert np.abs(full_gradient(obs, prior, lam, result.estimate)).max() < 1e-6


class TestObservation:
    def test_mask_defaults_to_all_observed(self):
        obs = Observation(values=np.zeros(3), noise_sigma=1.0)
        assert obs.mask.all()

    def test_rejects_empty_mask(self):
        with pytest.raises(ValueError):
            Observation(values=np.zeros(2), noise_sigma=1.0,
                        mask=np.array([False, False]))

    def test_rejects_bad_sigma(self):
        with pytest.raises(ValueError):
            Observation(values=np.zeros(2), noise_sigma=0.0)
