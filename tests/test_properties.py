"""Property tests of the PosePrior contract over every prior family.

Hypothesis runs derandomized with few examples, so the suite stays
deterministic and fast.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posepriors import gradcheck
from posepriors.errors import DataError
from posepriors.gradcheck import max_relative_error, sample_in_support
from posepriors.posedata import MotionSequence, compute_deltas
from posepriors.priors import (
    BoxLimitModel,
    GammaModel,
    GmmModel,
    fit_temporal_gmm,
    mvn_from_moments,
)
from posepriors.vae import VaeEnergyPrior, build_vae, vae_prior_energy

from oracles import worst_relative_error

D = 6
PROPERTY = settings(max_examples=15, derandomize=True, deadline=None, database=None)


def _spd(rng, d):
    a = rng.standard_normal((d, d))
    return a @ a.T + d * np.eye(d)


def _priors():
    rng = np.random.default_rng(2718)
    ts = np.cumsum(rng.uniform(0.02, 0.05, 60))
    poses = ts[:, None] * rng.normal(0.0, 0.3, D - 1) + rng.normal(0.0, 0.01, (60, D - 1))
    return {
        "mvn": mvn_from_moments(rng.standard_normal(D), _spd(rng, D)),
        "gamma": GammaModel(
            alpha=rng.uniform(1.5, 4.0, D),
            beta=rng.uniform(0.5, 3.0, D),
            sign=np.where(rng.random(D) < 0.5, 1.0, -1.0),
            shift=rng.uniform(-1.0, 1.0, D),
        ),
        "gmm": GmmModel(
            weights=rng.uniform(0.5, 1.5, 3),
            means=rng.normal(0.0, 2.0, (3, D)),
            covs=np.stack([_spd(rng, D) for _ in range(3)]),
        ),
        "temporal_gmm": fit_temporal_gmm(
            compute_deltas(MotionSequence(timestamps=ts, poses=poses)), 2, seed=4
        ),
        "box": BoxLimitModel(lo=rng.uniform(-1.0, -0.2, D), hi=rng.uniform(0.2, 1.0, D),
                             stiffness=2.0),
        "vae": VaeEnergyPrior(build_vae(n_joints=D // 3, latent_dim=2, hidden=(8,), seed=8)),
    }


PRIORS = _priors()
GRAD_TOL = {"vae": 1e-3}
points = st.lists(st.floats(-3.0, 3.0), min_size=D, max_size=D).map(np.array)
seeds = st.integers(0, 2**32 - 1)


@pytest.mark.parametrize("name", sorted(PRIORS))
@PROPERTY
@given(x=points, seed=seeds)
def test_log_prob_is_log_prob_many_on_one_row(name, x, seed):
    prior = PRIORS[name]
    for point in (x, sample_in_support(prior, 1, seed)[0]):
        assert prior.log_prob(point) == prior.log_prob_many(point[None])[0]


@pytest.mark.parametrize("name", sorted(PRIORS))
@PROPERTY
@given(seed=seeds)
def test_gradient_matches_central_differences(name, seed):
    prior = PRIORS[name]
    worst = max_relative_error(prior, sample_in_support(prior, 4, seed))
    assert worst <= GRAD_TOL.get(name, 1e-4)


@pytest.mark.parametrize("name", ["box", "gamma", "gmm", "mvn"])
@PROPERTY
@given(seed=seeds)
def test_max_relative_error_is_the_per_point_loop_bit_for_bit(name, seed):
    prior = PRIORS[name]
    xs = sample_in_support(prior, 20, seed)
    analytic = np.stack([prior.grad_log_prob(x) for x in xs])
    numeric = gradcheck._finite_diff_batch(prior, xs, 1e-5)
    assert (np.float64(max_relative_error(prior, xs)).tobytes()
            == np.float64(worst_relative_error(analytic, numeric)).tobytes())


def test_max_relative_error_reports_a_nan_gradient():
    # The per-point loop's max() skipped a NaN error, so such a gradient passed.
    prior = PRIORS["mvn"]
    nan_grad = SimpleNamespace(log_prob_many=prior.log_prob_many,
                               grad_log_prob=lambda x: np.full(D, np.nan))
    assert np.isnan(max_relative_error(nan_grad, sample_in_support(prior, 3, 0)))


@PROPERTY
@given(x=points)
def test_vae_log_prob_is_negated_energy(x):
    prior = PRIORS["vae"]
    assert prior.log_prob(x) == -vae_prior_energy(prior.model, x)[0]


BAD_BATCHES = {"(n, 1)": lambda d: (3, 1), "(n, d + 1)": lambda d: (3, d + 1),
               "(n, d, 1)": lambda d: (3, d, 1), "(d,)": lambda d: (d,)}


@pytest.mark.parametrize("name", sorted(PRIORS))
@pytest.mark.parametrize("shape", sorted(BAD_BATCHES))
def test_log_prob_many_rejects_a_batch_not_n_by_dim(name, shape):
    prior = PRIORS[name]
    with pytest.raises(DataError, match="batch has shape"):
        prior.log_prob_many(np.zeros(BAD_BATCHES[shape](prior.dim)))


@pytest.mark.parametrize("name", sorted(PRIORS))
@pytest.mark.parametrize("query", ["log_prob", "grad_log_prob"])
def test_point_queries_reject_a_nan_or_long_point(name, query):
    prior = PRIORS[name]
    x = sample_in_support(prior, 1, 0)[0]
    with_nan = x.copy()
    with_nan[-1] = np.nan
    for point, message in ((with_nan, "non-finite"), (np.append(x, 0.0), "vector has shape")):
        with pytest.raises(DataError, match=message):
            getattr(prior, query)(point)
