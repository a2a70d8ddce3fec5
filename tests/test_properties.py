"""Property tests of the PosePrior contract over every prior family.

Hypothesis runs derandomized with few examples, so the suite stays
deterministic and fast.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posepriors import gradcheck, modelio
from posepriors.errors import DataError
from posepriors.gradcheck import max_relative_error, sample_in_support
from posepriors.posedata import MotionSequence, compute_deltas
from posepriors.priors import (
    BoxLimitModel,
    GammaModel,
    GmmModel,
    PosePrior,
    TemporalGmmModel,
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


@pytest.mark.parametrize("name", sorted(PRIORS))
@PROPERTY
@given(n=st.integers(1, 20), seed=seeds)
def test_gradient_rows_are_point_gradients_bit_for_bit(name, n, seed):
    prior = PRIORS[name]
    xs = sample_in_support(prior, n, seed)
    rows = prior.grad_log_prob_many(xs)
    assert rows.shape == xs.shape
    for x, row in zip(xs, rows):
        assert row.tobytes() == prior.grad_log_prob(x).tobytes()


@pytest.mark.parametrize("name", ["box", "gamma", "gmm", "mvn", "vae"])
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
                               grad_log_prob_many=lambda xs: np.full(xs.shape, np.nan))
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
    for query in (prior.log_prob_many, prior.grad_log_prob_many):
        with pytest.raises(DataError, match="batch has shape"):
            query(np.zeros(BAD_BATCHES[shape](prior.dim)))


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


# log_prob_bound: each family built at a covariance scale from 1e-3 (peaks far
# above 0 in 66 dims) to 20, with the points where its log_prob is largest.


def _scaled_spd(rng, d, scale):
    a = rng.standard_normal((d, d))
    return scale * (a @ a.T / d + 0.1 * np.eye(d))


def _bound_mvn(rng, d, scale, spread):
    prior = mvn_from_moments(rng.standard_normal(d), _scaled_spd(rng, d, scale))
    return prior, prior.mean[None]


def _bound_mixture(cls):
    def build(rng, d, scale, spread):
        # spread 0 puts every component at one mean, where the logsumexp is tightest.
        k = int(rng.integers(1, 5))
        prior = cls(weights=rng.uniform(0.1, 1.0, k),
                    means=rng.standard_normal(d) + spread * rng.standard_normal((k, d)),
                    covs=np.stack([_scaled_spd(rng, d, scale) for _ in range(k)]))
        return prior, prior.means
    return build


def _bound_gamma(rng, d, scale, spread):
    prior = GammaModel(alpha=rng.uniform(0.3, 4.0, d), beta=rng.uniform(0.5, 3.0, d) / scale,
                       sign=np.where(rng.random(d) < 0.5, 1.0, -1.0),
                       shift=rng.uniform(-1.0, 1.0, d))
    return prior, np.stack([prior.mode(), prior.mean_vector()])


def _bound_box(rng, d, scale, spread):
    lo = rng.uniform(-1.0, 0.0, d)
    prior = BoxLimitModel(lo=lo, hi=lo + rng.uniform(0.1, 2.0, d),
                          stiffness=float(rng.uniform(0.5, 50.0)))
    return prior, rng.uniform(prior.lo, prior.hi, (4, d))


def _bound_vae(rng, d, scale, spread):
    prior = VaeEnergyPrior(build_vae(n_joints=d // 3, latent_dim=2, hidden=(8,),
                                     seed=int(rng.integers(1000))))
    return prior, np.zeros((1, d))


BOUND_FAMILIES = {"mvn": _bound_mvn, "gmm": _bound_mixture(GmmModel),
                  "temporal_gmm": _bound_mixture(TemporalGmmModel), "gamma": _bound_gamma,
                  "box": _bound_box, "vae": _bound_vae}


def test_every_family_states_a_bound():
    families = {name for name, cls in modelio.FAMILIES.items() if issubclass(cls, PosePrior)}
    assert set(BOUND_FAMILIES) == families | {"vae"}
    assert PosePrior.log_prob_bound == math.inf


@pytest.mark.parametrize("name", sorted(BOUND_FAMILIES))
@PROPERTY
@given(seed=seeds, d=st.sampled_from([3, 6, 66]), scale=st.sampled_from([1e-3, 0.05, 1.0, 20.0]),
       spread=st.sampled_from([0.0, 1e-6, 1.0]))
def test_log_prob_never_exceeds_its_bound(name, seed, d, scale, spread):
    rng = np.random.default_rng(seed)
    prior, peaks = BOUND_FAMILIES[name](rng, d, scale, spread)
    near = peaks[rng.integers(len(peaks), size=8)] + 1e-3 * scale * rng.standard_normal((8, d))
    xs = np.concatenate([peaks, near, rng.normal(0.0, 3.0, (8, d))])
    assert all(prior.log_prob(x) <= prior.log_prob_bound for x in xs)
    assert np.all(prior.log_prob_many(xs) <= prior.log_prob_bound)


@PROPERTY
@given(seed=seeds, d=st.sampled_from([3, 6, 66]), scale=st.sampled_from([1e-3, 1.0, 20.0]))
def test_normal_bound_is_its_value_at_the_mean(seed, d, scale):
    prior, _ = _bound_mvn(np.random.default_rng(seed), d, scale, 0.0)
    assert prior.log_prob(prior.mean) == prior.log_prob_bound
