import copy
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import posepriors
from posepriors import linalg, modelio, priors
from posepriors.posedata import MotionSequence, compute_deltas
from posepriors.priors import (
    GmmModel,
    fit_gmm_em,
    fit_mvn,
    fit_temporal_gmm,
    mvn_from_moments,
)

import oracles
from oracles import finite_diff_gradient


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

    def test_collapsed_component_is_reseeded_onto_the_data(self, monkeypatch):
        # One k-means++ seed moved 1e3 away from both clusters takes no
        # responsibility mass; EM must re-seed it at the worst-fit point.
        seeds_of = priors._kmeanspp_seeds

        def far_seed(x, k, rng):
            seeds = seeds_of(x, k, rng)
            seeds[1] += 1e3
            return seeds

        monkeypatch.setattr(priors, "_kmeanspp_seeds", far_seed)
        x = two_cluster_data(n_per=100, seed=11)
        gmm = fit_gmm_em(x, 2, seed=4)
        assert gmm.fit_meta["converged"]
        order = np.argsort(gmm.means[:, 0])
        np.testing.assert_allclose(gmm.means[order], [[-5.0, 0.0], [5.0, 0.0]], atol=0.3)
        np.testing.assert_allclose(gmm.weights, [0.5, 0.5], atol=0.02)

    def test_kmeanspp_on_identical_rows_draws_uniformly(self):
        # Every squared distance is 0, so each later seed is a uniform index draw.
        x = np.tile([0.5, -1.0, 2.0], (6, 1))
        rng = np.random.default_rng(9)
        seeds = priors._kmeanspp_seeds(x, 4, rng)
        assert seeds.shape == (4, 3) and np.all(seeds == x[0])
        twin = np.random.default_rng(9)
        for _ in range(4):
            twin.integers(6)
        assert rng.integers(2**62) == twin.integers(2**62)

    def test_deterministic_per_seed(self):
        x = two_cluster_data(n_per=300)
        a = fit_gmm_em(x, 2, seed=11)
        b = fit_gmm_em(x, 2, seed=11)
        assert np.array_equal(a.means, b.means)
        assert np.array_equal(a.covs, b.covs)
        assert np.array_equal(a.weights, b.weights)


class TestGmmLogProb:
    def test_k1_equals_mvn(self):
        # One component is the normal bit for bit: log w = 0 and r = 1 exactly.
        rng = np.random.default_rng(4)
        for d in (3, 66):
            b = rng.standard_normal((d, d))
            cov = b @ b.T + np.eye(d)
            mean = rng.standard_normal(d)
            mvn = mvn_from_moments(mean, cov)
            gmm = GmmModel(weights=[1.0], means=[mean], covs=[cov])
            xs = mean + rng.standard_normal((20, d))
            assert np.array_equal(gmm.log_prob_many(xs), mvn.log_prob_many(xs))
            for x in xs:
                assert gmm.log_prob(x) == mvn.log_prob(x)
                assert np.array_equal(gmm.grad_log_prob(x), mvn.grad_log_prob(x))

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


def _spd(rng, d):
    b = rng.standard_normal((d, d))
    return b @ b.T / d + 0.1 * np.eye(d)


def _assert_normwise_close(got, ref, rtol=1e-10):
    assert np.abs(got - ref).max() <= rtol * np.abs(ref).max()


class TestGaussianGradAgainstSolve:
    """Whitened gradients at d = 66 against dense np.linalg.solve references."""

    def test_gmm_k3_matches_solve_softmax(self):
        rng = np.random.default_rng(66)
        d = 66
        means = rng.normal(0.0, 0.1, (3, d))
        covs = np.stack([_spd(rng, d) for _ in range(3)])
        weights = np.array([0.2, 0.3, 0.5])
        gmm = GmmModel(weights=weights, means=means, covs=covs)
        for _ in range(10):
            x = means[rng.integers(3)] + 0.3 * rng.standard_normal(d)
            solved = [np.linalg.solve(c, x - m) for m, c in zip(means, covs)]
            log_joint = np.array([
                math.log(w) - 0.5 * (d * priors.LOG_2PI + np.linalg.slogdet(c)[1] + (x - m) @ y)
                for w, m, c, y in zip(weights, means, covs, solved)])
            r = np.exp(log_joint - log_joint.max())
            r /= r.sum()
            np.testing.assert_allclose(gmm.responsibilities(x), r, rtol=1e-10, atol=0.0)
            _assert_normwise_close(gmm.grad_log_prob(x), -sum(ri * y for ri, y in zip(r, solved)))

    def test_mvn_matches_solve(self):
        rng = np.random.default_rng(67)
        d = 66
        mean = rng.normal(0.0, 0.1, d)
        cov = _spd(rng, d)
        mvn = mvn_from_moments(mean, cov)
        for _ in range(10):
            x = mean + 0.3 * rng.standard_normal(d)
            _assert_normwise_close(mvn.grad_log_prob(x), -np.linalg.solve(cov, x - mean))


def _mixture(d, k):
    rng = np.random.default_rng(100 * d + k)
    means = rng.normal(0.0, 1.0, (k, d))
    covs = np.stack([_spd(rng, d) for _ in range(k)])
    weights = rng.uniform(0.5, 1.5, k)
    return GmmModel(weights=weights / weights.sum(), means=means, covs=covs), rng


def _near_means(gmm, rng, n):
    return gmm.means[rng.integers(gmm.n_components, size=n)] + rng.standard_normal((n, gmm.dim))


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


MIXTURES = [(d, k) for d in (2, 66) for k in (1, 3, 5)]
# Around the 1024-row block: a tail block of 1, 2 and 6 rows, and none.
BATCH_ROWS = (1, 2, 1023, 1024, 1025, 1030, 3000)


class TestBitsAgainstPerComponentOracle:
    """The stacked L_i^-1 queries keep every bit of the per-component code
    in tests/oracles.py, batch, single point and EM alike."""

    @pytest.mark.parametrize("d,k", MIXTURES)
    @pytest.mark.parametrize("n", BATCH_ROWS)
    def test_log_prob_many(self, d, k, n):
        gmm, rng = _mixture(d, k)
        chols = [linalg.cholesky(c) for c in gmm.covs]
        xs = _near_means(gmm, rng, n)
        comp = oracles.gaussian_log_joint(xs, gmm.means, chols, np.log(gmm.weights))
        assert _bits(gmm.log_prob_many(xs)) == _bits(oracles.logsumexp(comp, axis=1))

    def test_logsumexp_of_a_row_of_minus_inf_is_minus_inf_without_warning(self):
        # Warnings are errors here, so a log(0) warning would fail the test.
        inf = math.inf
        a = np.array([[-inf, -inf, -inf], [-1.0, -2.0, -700.0], [-inf, 0.5, -inf], [-800.0] * 3])
        for rows in (a[:1], a[:2], a[1:]):
            got = priors._logsumexp(rows, axis=1)
            assert _bits(got) == _bits(oracles.logsumexp(rows, axis=1))
        assert priors._logsumexp(a[:1], axis=1)[0] == -inf

    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(st.sampled_from([1, 3, 5]).flatmap(lambda k: st.lists(
        st.one_of(st.floats(-800.0, 50.0), st.just(-math.inf)), min_size=k, max_size=k)))
    def test_one_row_logsumexp_is_the_general_path(self, row):
        """A point query's one-row path, with its scalar peak, has the bits of the
        general path: that row within a batch, and the oracle's."""
        a = np.array([row])
        got = priors._logsumexp(a, axis=1)
        assert got.shape == (1,)
        assert _bits(got) == _bits(priors._logsumexp(np.vstack([a, a]), axis=1)[:1])
        assert _bits(got) == _bits(oracles.logsumexp(a, axis=1))

    @pytest.mark.parametrize("k", (1, 3, 5))
    def test_log_prob_bound_keeps_its_bits(self, k, monkeypatch):
        gmm, _ = _mixture(66, k)
        mvn = mvn_from_moments(gmm.means[0], gmm.covs[0])
        got = (gmm.log_prob_bound, mvn.log_prob_bound)
        monkeypatch.setattr(priors, "_logsumexp", oracles.logsumexp)
        rebuilt = (copy.deepcopy(gmm).log_prob_bound, copy.deepcopy(mvn).log_prob_bound)
        assert _bits(got) == _bits(rebuilt)

    @pytest.mark.parametrize("d,k", MIXTURES)
    def test_point_queries(self, d, k):
        gmm, rng = _mixture(d, k)
        chols = [linalg.cholesky(c) for c in gmm.covs]
        for x in _near_means(gmm, rng, 30):
            comp = oracles.gaussian_log_joint(x[None], gmm.means, chols, np.log(gmm.weights))
            assert _bits(gmm.log_prob(x)) == _bits(oracles.logsumexp(comp, axis=1)[0])
            r, _ = oracles.gmm_whiten_components(gmm, chols, x)
            assert _bits(gmm.responsibilities(x)) == _bits(r)
            assert _bits(gmm.grad_log_prob(x)) == _bits(oracles.gmm_grad(gmm, chols, x))

    @pytest.mark.parametrize("k", (1, 3, 5))
    @pytest.mark.parametrize("n", BATCH_ROWS)
    def test_gradient_rows_are_point_gradients_after_a_value(self, k, n):
        """A batch's gradient row, the point gradient taken after a value at that
        point (read from the value's memo) and the oracle's have the same bits;
        the value has the value oracle's."""
        gmm, rng = _mixture(66, k)
        chols = [linalg.cholesky(c) for c in gmm.covs]
        xs = _near_means(gmm, rng, n)
        rows = gmm.grad_log_prob_many(xs)
        for x, row in zip(xs, rows):
            comp = oracles.gaussian_log_joint(x[None], gmm.means, chols, np.log(gmm.weights))
            assert _bits(gmm.log_prob(x)) == _bits(oracles.logsumexp(comp, axis=1)[0])
            point = gmm.grad_log_prob(x)
            assert _bits(point) == _bits(row) == _bits(oracles.gmm_grad(gmm, chols, x))

    @pytest.mark.parametrize("d", (2, 66))
    def test_mvn_values(self, d):
        gmm, rng = _mixture(d, 1)
        mvn = mvn_from_moments(gmm.means[0], gmm.covs[0])
        for n in BATCH_ROWS:
            xs = _near_means(gmm, rng, n)
            ref = oracles.gaussian_log_joint(xs, [mvn.mean], [mvn.chol], [0.0])[:, 0]
            assert _bits(mvn.log_prob_many(xs)) == _bits(ref)
        for x in xs[:30]:
            ref = oracles.gaussian_log_joint(x[None], [mvn.mean], [mvn.chol], [0.0])[0, 0]
            assert _bits(mvn.log_prob(x)) == _bits(ref)

    @pytest.mark.parametrize("k", (1, 3, 5))
    def test_fit_gmm_em_model_json(self, k, monkeypatch):
        x = _near_means(*_mixture(66, 3), 1030)
        fitted = modelio.canonical_dumps(modelio.model_to_doc(fit_gmm_em(x, k, seed=2, max_iter=8)))

        def per_component(xs, means, inv, log_det, log_w):
            chols = [SimpleNamespace(inverse=a, log_det=b) for a, b in zip(inv, log_det)]
            return oracles.gaussian_log_joint(xs, means, chols, log_w)

        monkeypatch.setattr(priors, "_gaussian_log_joint", per_component)
        monkeypatch.setattr(priors, "_logsumexp", oracles.logsumexp)
        oracle = fit_gmm_em(x, k, seed=2, max_iter=8)
        assert fitted == modelio.canonical_dumps(modelio.model_to_doc(oracle))


def _count_logsumexp(monkeypatch) -> list:
    calls, logsumexp = [], priors._logsumexp

    def counted(a, axis):
        calls.append(a.shape)
        return logsumexp(a, axis)

    monkeypatch.setattr(priors, "_logsumexp", counted)
    return calls


class TestPointMemo:
    """A one-row forward pass holds the whitened residuals and the log-joint, and for a
    mixture each row's log-sum-exp, so queries at the point just valued redo none."""

    def test_mixture_value_gradient_and_responsibilities_take_one_logsumexp(self, monkeypatch):
        gmm, rng = _mixture(66, 3)
        calls = _count_logsumexp(monkeypatch)
        x = _near_means(gmm, rng, 1)[0]
        gmm.log_prob(x)
        gmm.grad_log_prob(x)
        gmm.responsibilities(x)
        assert calls == [(1, 3)]

    def test_normal_value_and_gradient_take_no_logsumexp(self, monkeypatch):
        gmm, rng = _mixture(66, 1)
        mvn = mvn_from_moments(gmm.means[0], gmm.covs[0])
        calls = _count_logsumexp(monkeypatch)
        x = _near_means(gmm, rng, 1)[0]
        mvn.log_prob(x)
        mvn.grad_log_prob(x)
        assert calls == []


# A fresh interpreter per BLAS thread count: OpenBLAS reads it once, when numpy loads it.
GROUPED_DRAW = """
import numpy as np
import oracles
from posepriors import linalg
from posepriors.priors import GmmModel

rng = np.random.default_rng(5)
covs = np.stack([b @ b.T / 66 + 0.1 * np.eye(66) for b in rng.standard_normal((3, 66, 66))])
gmm = GmmModel(weights=np.array([0.2, 0.5, 0.3]), means=rng.standard_normal((3, 66)), covs=covs)
chols = [linalg.cholesky(c) for c in covs]
for n in (1, 7, 100, 1000, 10000):
    got = gmm.support_points(n, np.random.default_rng(n), 1e-6)
    want = oracles.gmm_support_points(gmm, chols, n, np.random.default_rng(n))
    assert got.tobytes() == want.tobytes(), n
"""


@pytest.mark.parametrize("threads", (1, 2))
def test_support_points_keep_the_per_row_draws_bits(threads):
    paths = [Path(posepriors.__file__).resolve().parents[1], Path(__file__).resolve().parent]
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), PYTHONPATH=os.pathsep.join(
        filter(None, [*map(str, paths), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", GROUPED_DRAW], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


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
