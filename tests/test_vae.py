import copy
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from posepriors import modelio, posedata, rotations, vae
from posepriors.errors import DataError
from posepriors.posedata import PoseDataset, axis_angle_to_matrices, default_column_names
from posepriors.vae import (
    LossWeights,
    TrainConfig,
    VaeEnergyPrior,
    build_vae,
    decode,
    det1_loss,
    encode,
    kl_loss,
    orth_loss,
    project_to_rotations,
    rec_loss,
    reparameterize,
    total_loss,
    train,
    vae_prior_energy,
)

import oracles
from oracles import reg_loss


def tiny_model(hidden=(8,), seed=5, weights=None):
    return build_vae(n_joints=2, latent_dim=2, hidden=hidden, seed=seed,
                     loss_weights=weights)


def zeroed(model):
    out = model.copy()
    for layer in out.encoder.layers + out.decoder.layers:
        layer.weight[:] = 0.0
        layer.bias[:] = 0.0
    return out


def random_pose(rng, joints=2, scale=0.6):
    return rng.normal(0.0, scale, joints * 3)


class TestEncodeDecode:
    def test_zero_weight_encoder_outputs_biases(self):
        model = zeroed(tiny_model())
        model.encoder.layers[-1].bias[:] = [0.3, -0.4, 0.1, 0.2]
        rng = np.random.default_rng(0)
        for _ in range(5):
            mu, logvar = encode(model, axis_angle_to_matrices(random_pose(rng)))
            np.testing.assert_allclose(mu, [0.3, -0.4])
            np.testing.assert_allclose(logvar, [0.1, 0.2])

    def test_encode_deterministic(self):
        model = tiny_model()
        r = axis_angle_to_matrices(random_pose(np.random.default_rng(1)))
        a = encode(model, r)
        b = encode(model, r)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_output_shapes(self):
        model = tiny_model()
        r = axis_angle_to_matrices(random_pose(np.random.default_rng(2)))
        mu, logvar = encode(model, r)
        assert mu.shape == (2,) and logvar.shape == (2,)
        assert decode(model, np.zeros(2)).shape == (2, 3, 3)

    def test_logvar_clamped(self):
        model = zeroed(tiny_model())
        model.encoder.layers[-1].bias[:] = [0.0, 0.0, 50.0, -50.0]
        _, logvar = encode(model, axis_angle_to_matrices(np.zeros(6)))
        np.testing.assert_allclose(logvar, [10.0, -10.0])

    def test_zero_weight_decoder_is_constant(self):
        model = zeroed(tiny_model())
        model.decoder.layers[-1].bias[:] = np.arange(18.0)
        a = decode(model, np.array([1.0, -1.0]))
        b = decode(model, np.array([0.2, 3.0]))
        assert np.array_equal(a, b)
        np.testing.assert_allclose(a.reshape(-1), np.arange(18.0))

    def test_dimension_mismatch(self):
        model = tiny_model()
        with pytest.raises(ValueError):
            encode(model, np.zeros((3, 3, 3)))
        with pytest.raises(ValueError):
            decode(model, np.zeros(3))


class TestReparameterize:
    def test_vanishing_noise_at_clamp_floor(self):
        mu = np.array([0.5, -0.5])
        logvar = np.full(2, -10.0)
        z = reparameterize(mu, logvar, seed=3)
        eps = np.random.default_rng(3).standard_normal(2)
        assert np.all(np.abs(z - mu) <= math.exp(-5.0) * np.abs(eps) + 1e-15)

    def test_fixed_seed_reproducible(self):
        mu = np.zeros(4)
        logvar = np.zeros(4)
        assert np.array_equal(reparameterize(mu, logvar, 9), reparameterize(mu, logvar, 9))

    def test_sample_mean_statistics(self):
        mu = np.array([1.0, -2.0])
        logvar = np.array([0.5, -0.5])
        n = 100000
        total = np.zeros(2)
        for seed in range(n):
            total += reparameterize(mu, logvar, seed)
        mean = total / n
        bound = 3.0 * np.exp(logvar / 2.0) / math.sqrt(n)
        assert np.all(np.abs(mean - mu) < bound)


class TestLossTerms:
    def test_kl_zero_for_standard_normal(self):
        assert kl_loss(np.zeros(3), np.zeros(3)) == 0.0

    def test_kl_half_mu_squared(self):
        assert kl_loss(np.array([1.0]), np.array([0.0])) == pytest.approx(0.5)

    def test_kl_against_quadrature(self):
        rng = np.random.default_rng(15)
        for _ in range(5):
            mu = rng.uniform(-2.0, 2.0)
            logvar = rng.uniform(-2.0, 1.0)
            s = math.exp(logvar / 2.0)
            grid = np.linspace(mu - 14.0 * s - 5.0, mu + 14.0 * s + 5.0, 400001)
            q = np.exp(-0.5 * ((grid - mu) / s) ** 2) / (s * math.sqrt(2 * math.pi))
            log_ratio = (
                -0.5 * ((grid - mu) / s) ** 2 - math.log(s) + 0.5 * grid**2
            )
            expected = float(np.trapezoid(q * log_ratio, grid))
            got = kl_loss(np.array([mu]), np.array([logvar]))
            assert got == pytest.approx(expected, abs=1e-6)

    def test_kl_non_negative(self):
        rng = np.random.default_rng(16)
        for _ in range(200):
            mu = rng.uniform(-3.0, 3.0, 4)
            logvar = rng.uniform(-4.0, 3.0, 4)
            assert kl_loss(mu, logvar) >= 0.0

    def test_rec_zero_when_equal(self):
        r = np.random.default_rng(0).standard_normal((2, 3, 3))
        assert rec_loss(r, r) == 0.0

    def test_rec_single_entry(self):
        a = np.zeros((2, 3, 3))
        b = np.zeros((2, 3, 3))
        b[0, 2, 1] = 2.0
        assert rec_loss(a, b) == 4.0

    def test_rec_matches_naive_accumulation(self):
        rng = np.random.default_rng(21)
        a = rng.standard_normal((2, 3, 3))
        b = rng.standard_normal((2, 3, 3))
        naive = 0.0
        for x, y in zip(a.ravel(), b.ravel()):
            naive += (x - y) ** 2
        assert rec_loss(a, b) == pytest.approx(naive, rel=1e-12)

    def test_rec_stack_is_one_pose_calls(self):
        rng = np.random.default_rng(22)
        a = rng.standard_normal((5, 4, 3, 3))
        b = rng.standard_normal((5, 4, 3, 3))
        got = rec_loss(a, b)
        assert got.shape == (5,)
        assert np.array_equal(got, [rec_loss(x, y) for x, y in zip(a, b)])

    def test_orth_zero_on_rotations(self):
        rng = np.random.default_rng(22)
        r = axis_angle_to_matrices(random_pose(rng, joints=5, scale=1.0))
        assert orth_loss(r) < 1e-12

    def test_orth_scaled_identity(self):
        r = np.stack([2.0 * np.eye(3)])
        assert orth_loss(r) == pytest.approx(27.0)

    def test_orth_right_multiplication_invariance(self):
        rng = np.random.default_rng(23)
        raw = rng.standard_normal((4, 3, 3))
        q = axis_angle_to_matrices(random_pose(rng, joints=4, scale=1.0))
        rotated = np.einsum("jab,jbc->jac", raw, q)
        assert orth_loss(rotated) == pytest.approx(orth_loss(raw), abs=1e-10)

    def test_det1_identity(self):
        assert det1_loss(np.stack([np.eye(3), np.eye(3)])) == 0.0

    def test_det1_scaled_identity(self):
        assert det1_loss(np.stack([2.0 * np.eye(3)])) == pytest.approx(7.0)

    def test_det1_zero_on_rotations(self):
        rng = np.random.default_rng(24)
        r = axis_angle_to_matrices(random_pose(rng, joints=6, scale=1.0))
        assert det1_loss(r) < 1e-10

    def test_reg_zero_pose(self):
        assert reg_loss(np.zeros(6)) == 0.0

    def test_reg_unit_vector(self):
        p = np.zeros(6)
        p[2] = 1.0
        assert reg_loss(p) == 1.0

    def test_reg_matches_naive(self):
        rng = np.random.default_rng(25)
        p = rng.standard_normal(6)
        assert reg_loss(p) == pytest.approx(sum(v * v for v in p), rel=1e-12)


class TestProjection:
    def test_rotation_is_fixed_point(self):
        rng = np.random.default_rng(26)
        r = axis_angle_to_matrices(random_pose(rng, joints=3, scale=1.0))
        np.testing.assert_allclose(project_to_rotations(r), r, atol=1e-12)

    def test_scaled_rotation_projects_back(self):
        rng = np.random.default_rng(27)
        r = axis_angle_to_matrices(random_pose(rng, joints=1, scale=1.0))
        np.testing.assert_allclose(project_to_rotations(2.5 * r), r, atol=1e-10)

    def test_projection_output_is_rotation(self):
        rng = np.random.default_rng(28)
        raw = rng.standard_normal((5, 3, 3))
        q = project_to_rotations(raw)
        assert orth_loss(q) < 1e-18
        assert det1_loss(q) < 1e-9

    def test_reg_loss_path_consistent_with_axis_angle_recovery(self):
        # The internal angle^2 shortcut must agree with reg_loss applied
        # to the recovered axis-angle vector.
        rng = np.random.default_rng(29)
        raw = np.eye(3) + 0.3 * rng.standard_normal((2, 3, 3))
        q = project_to_rotations(raw)
        pose = posedata.matrices_to_axis_angle(q)
        direct = sum(vae._reg_joint_vjp(a)[0] for a in raw)
        assert direct == pytest.approx(reg_loss(pose), rel=1e-9)


class TestTotalLoss:
    def test_all_zero_weights(self):
        model = tiny_model(weights=LossWeights(0.0, 0.0, 0.0, 0.0, 0.0))
        r = axis_angle_to_matrices(random_pose(np.random.default_rng(3)))
        assert total_loss(model, r, seed=0).l_total == 0.0

    def test_kl_only_reduces_to_kl(self):
        model = tiny_model(weights=LossWeights(1.0, 0.0, 0.0, 0.0, 0.0))
        r = axis_angle_to_matrices(random_pose(np.random.default_rng(4)))
        bd = total_loss(model, r, seed=0)
        mu, logvar = encode(model, r)
        assert bd.l_total == pytest.approx(kl_loss(mu, logvar), rel=1e-12)

    def test_breakdown_recombines(self):
        rng = np.random.default_rng(30)
        model = tiny_model(weights=LossWeights(1.0, 0.7, 2.0, 0.5, 1.3))
        for seed in range(5):
            r = axis_angle_to_matrices(random_pose(rng))
            bd = total_loss(model, r, seed=seed)
            recombined = (
                1.0 * bd.l_kl + 0.7 * bd.l_rec + 2.0 * bd.l_orth
                + 0.5 * bd.l_det1 + 1.3 * bd.l_reg
            )
            assert bd.l_total == pytest.approx(recombined, abs=1e-12)
            for term in (bd.l_kl, bd.l_rec, bd.l_orth, bd.l_det1, bd.l_reg):
                assert term >= 0.0


def param_grads(model, r, seed):
    """Per-layer (dW, db) of total_loss's weighted total, for its noise: (encoder, decoder)."""
    eps = np.random.default_rng(seed).standard_normal((1, model.latent_dim))
    return vae._forward(model, r.reshape(1, -1), eps)[1]()


def _fd_param_sweep(model, r, seed, h=1e-4):
    worst = 0.0
    for mlp, glist in zip((model.encoder, model.decoder), param_grads(model, r, seed)):
        for k, layer in enumerate(mlp.layers):
            for arr, g in ((layer.weight, glist[k][0]), (layer.bias, glist[k][1])):
                it = np.nditer(arr, flags=["multi_index"])
                for _ in it:
                    idx = it.multi_index
                    old = arr[idx]
                    arr[idx] = old + h
                    up = total_loss(model, r, seed).l_total
                    arr[idx] = old - h
                    down = total_loss(model, r, seed).l_total
                    arr[idx] = old
                    fd = (up - down) / (2.0 * h)
                    denom = max(1.0, abs(fd), abs(float(g[idx])))
                    worst = max(worst, abs(float(g[idx]) - fd) / denom)
    return worst


class TestBackward:
    def test_linear_case_output_bias_gradient(self):
        model = zeroed(tiny_model(weights=LossWeights(0.0, 1.0, 0.0, 0.0, 0.0)))
        bias = model.decoder.layers[-1].bias
        bias[:] = np.linspace(-0.5, 0.5, 18)
        rng = np.random.default_rng(31)
        r = axis_angle_to_matrices(random_pose(rng))
        enc, dec = param_grads(model, r, seed=0)
        expected = 2.0 * (bias - r.reshape(-1))
        np.testing.assert_allclose(dec[-1][1], expected, atol=1e-12)
        for dw, db in enc:
            assert np.all(dw == 0.0) and np.all(db == 0.0)

    def test_full_finite_difference_sweep(self):
        rng = np.random.default_rng(32)
        model = tiny_model(hidden=(8,), seed=5)
        r = axis_angle_to_matrices(random_pose(rng))
        assert _fd_param_sweep(model, r, seed=11) < 1e-3

    @pytest.mark.parametrize("term", ["w_kl", "w_rec", "w_orth", "w_det1", "w_reg"])
    def test_finite_difference_per_term(self, term):
        weights = LossWeights(0.0, 0.0, 0.0, 0.0, 0.0)
        setattr(weights, term, 1.0)
        model = tiny_model(hidden=(8,), seed=6, weights=weights)
        r = axis_angle_to_matrices(random_pose(np.random.default_rng(33)))
        assert _fd_param_sweep(model, r, seed=7) < 1e-3

    def test_deterministic(self):
        model = tiny_model()
        r = axis_angle_to_matrices(random_pose(np.random.default_rng(34)))
        a = param_grads(model, r, seed=2)
        b = param_grads(model, r, seed=2)
        for (dwa, dba), (dwb, dbb) in zip(a[0] + a[1], b[0] + b[1]):
            assert np.array_equal(dwa, dwb) and np.array_equal(dba, dbb)


def make_dataset(n=60, joints=2, seed=40):
    rng = np.random.default_rng(seed)
    base = np.array([0.4, -0.2, 0.1, 0.0, 0.6, -0.3])[: joints * 3]
    samples = base + rng.normal(0.0, 0.25, (n, joints * 3))
    return PoseDataset(
        dim=joints * 3, column_names=default_column_names(joints * 3), samples=samples
    )


class TestTrain:
    def test_zero_learning_rate_keeps_parameters(self):
        data = make_dataset()
        model = tiny_model()
        trained, trace = train(
            model, data, TrainConfig(epochs=3, batch_size=20, learning_rate=0.0, seed=1)
        )
        for before, after in zip(
            model.encoder.layers + model.decoder.layers,
            trained.encoder.layers + trained.decoder.layers,
        ):
            assert np.array_equal(before.weight, after.weight)
            assert np.array_equal(before.bias, after.bias)
        totals = [bd.l_total for bd in trace]
        assert np.ptp(totals) < 0.5 * np.mean(totals)  # flat up to noise

    def test_training_reduces_loss(self):
        data = make_dataset(n=80)
        model = tiny_model(hidden=(16,), seed=3)
        _, trace = train(
            model, data, TrainConfig(epochs=15, batch_size=16, learning_rate=1e-3, seed=7)
        )
        assert trace[-1].l_total < trace[0].l_total

    def test_bitwise_deterministic(self):
        data = make_dataset(n=40)
        model = tiny_model(hidden=(8,), seed=2)
        cfg = TrainConfig(epochs=4, batch_size=10, learning_rate=1e-3, seed=9)
        a, trace_a = train(model, data, cfg)
        b, trace_b = train(model, data, cfg)
        for la, lb in zip(a.encoder.layers + a.decoder.layers,
                          b.encoder.layers + b.decoder.layers):
            assert np.array_equal(la.weight, lb.weight)
            assert np.array_equal(la.bias, lb.bias)
        assert [t.l_total for t in trace_a] == [t.l_total for t in trace_b]

    def test_sgd_also_trains(self):
        data = make_dataset(n=40)
        model = tiny_model(hidden=(8,), seed=2)
        cfg = TrainConfig(epochs=10, batch_size=10, learning_rate=1e-4, seed=9,
                          optimizer="sgd")
        _, trace = train(model, data, cfg)
        assert trace[-1].l_total < trace[0].l_total

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0, batch_size=1, learning_rate=1e-3)
        with pytest.raises(ValueError):
            TrainConfig(epochs=1, batch_size=1, learning_rate=1e-3, optimizer="lbfgs")
        data = make_dataset(n=5)
        with pytest.raises(ValueError):
            train(tiny_model(), data,
                  TrainConfig(epochs=1, batch_size=50, learning_rate=1e-3))

    @pytest.mark.parametrize("lr", [-1e-3, math.nan, math.inf])
    def test_learning_rate_must_be_finite_and_non_negative(self, lr):
        with pytest.raises(ValueError, match="learning_rate must be finite and non-negative"):
            TrainConfig(epochs=1, batch_size=1, learning_rate=lr)

    def test_sample_shape_messages(self):
        cfg = TrainConfig(epochs=1, batch_size=1, learning_rate=1e-3)
        with pytest.raises(ValueError, match="does not match model pose dim 6"):
            train(tiny_model(), np.zeros((4, 9)), cfg)
        with pytest.raises(ValueError, match="expected a 2-D sample array or a PoseDataset"):
            train(tiny_model(), np.zeros(6), cfg)


def model_json(model):
    return modelio.canonical_dumps(modelio.model_to_doc(model))


def layer_arrays(model):
    """The model's parameter arrays in train's order: W0, b0, W1, b1, ..."""
    return [a for layer in model.encoder.layers + model.decoder.layers
            for a in (layer.weight, layer.bias)]


class PairOracleOptimizer:
    """The (weight, bias)-pair oracle behind vae._Optimizer's flat interface."""

    def __init__(self, cfg, params):
        self.layers = [SimpleNamespace(weight=w, bias=b) for w, b in zip(params[::2], params[1::2])]
        self.oracle = oracles.Optimizer(cfg, [(l.weight.shape, l.bias.shape) for l in self.layers])

    def step(self, grads):
        self.oracle.step(self.layers, list(zip(grads[::2], grads[1::2])))


@pytest.mark.parametrize("optimizer", ["sgd", "adam"])
class TestOptimizerBitsAgainstPairOracle:
    def test_steps_match_the_oracle_bit_for_bit(self, optimizer):
        cfg = TrainConfig(epochs=1, batch_size=1, learning_rate=1e-2, optimizer=optimizer)
        model = tiny_model(hidden=(8, 8), seed=4)
        ours, theirs = model.copy(), model.copy()
        opt = vae._Optimizer(cfg, layer_arrays(ours))
        oracle = PairOracleOptimizer(cfg, layer_arrays(theirs))
        rng = np.random.default_rng(21)
        for _ in range(4):
            # Gradients of mixed magnitude, so no moment is a rescaled copy of another.
            grads = [rng.standard_normal(a.shape) * 10.0 ** rng.uniform(-3.0, 1.0, a.shape)
                     for a in layer_arrays(model)]
            opt.step(grads)
            oracle.step(grads)
        for a, b in zip(layer_arrays(ours), layer_arrays(theirs)):
            assert a.tobytes() == b.tobytes()
        assert any(a.tobytes() != b.tobytes()
                   for a, b in zip(layer_arrays(ours), layer_arrays(model)))

    def test_train_matches_a_run_on_the_oracle(self, optimizer, monkeypatch):
        data = make_dataset(n=23)
        model = tiny_model(hidden=(8, 6), seed=6)
        cfg = TrainConfig(epochs=2, batch_size=7, learning_rate=1e-3, seed=3,
                          optimizer=optimizer)
        trained, trace = train(model, data, cfg)
        monkeypatch.setattr(vae, "_Optimizer", PairOracleOptimizer)
        pinned, pinned_trace = train(model, data, cfg)
        assert model_json(trained) == model_json(pinned)
        assert trace == pinned_trace

    def test_train_leaves_its_model_unchanged(self, optimizer):
        model = tiny_model(seed=8)
        model.fit_meta["note"] = [1, 2]
        before = [a.copy() for a in layer_arrays(model)]
        doc = model_json(model)
        cfg = TrainConfig(epochs=2, batch_size=5, learning_rate=1e-2, seed=2,
                          optimizer=optimizer)
        trained, _ = train(model, make_dataset(n=10), cfg)
        assert model_json(model) == doc
        assert model.fit_meta == {"note": [1, 2]}
        for a, b in zip(layer_arrays(model), before):
            assert a.tobytes() == b.tobytes()
        assert model_json(trained) != doc


def test_copy_shares_no_state_with_its_source():
    model = tiny_model(weights=LossWeights(1.0, 0.7, 2.0, 0.5, 1.3))
    model.fit_meta.update(seed=3, loglik_trace=[1.0, 2.0])
    dup = model.copy()
    assert model_json(dup) == model_json(model)
    assert dup.loss_weights == model.loss_weights and dup.loss_weights is not model.loss_weights
    assert dup.fit_meta == model.fit_meta and dup.fit_meta is not model.fit_meta
    assert dup.fit_meta["loglik_trace"] is not model.fit_meta["loglik_trace"]
    for a in layer_arrays(model):
        assert not any(np.shares_memory(a, b) for b in layer_arrays(dup))


def test_fortran_ordered_weights_keep_the_bits_of_their_json_round_trip():
    model = tiny_model(hidden=(8, 6), seed=9)
    doc = modelio.model_to_doc(model)
    fortran = vae.VaeModel(
        model.input_dim, model.latent_dim,
        *[vae.MlpParams([vae.MlpLayer(np.asfortranarray(l.weight), l.bias, l.activation)
                         for l in mlp.layers]) for mlp in (model.encoder, model.decoder)])
    assert all(a.flags.c_contiguous for a in layer_arrays(fortran))
    loaded = modelio.model_from_doc(doc)
    pose = np.random.default_rng(2).normal(0.0, 0.6, 6)
    assert (vae_prior_energy(fortran, pose)[1].tobytes()
            == vae_prior_energy(loaded, pose)[1].tobytes())
    cfg = TrainConfig(epochs=2, batch_size=4, learning_rate=1e-2, seed=1)
    assert (model_json(train(fortran, make_dataset(n=9), cfg)[0])
            == model_json(train(loaded, make_dataset(n=9), cfg)[0]))


class TestPriorEnergy:
    def test_zero_encoder_gives_zero_energy(self):
        model = zeroed(tiny_model())
        rng = np.random.default_rng(41)
        for _ in range(5):
            e, g = vae_prior_energy(model, random_pose(rng))
            assert e == 0.0
            np.testing.assert_allclose(g, 0.0)

    def test_energy_non_negative(self):
        model = tiny_model()
        rng = np.random.default_rng(42)
        for _ in range(50):
            e, _ = vae_prior_energy(model, random_pose(rng))
            assert e >= 0.0

    def test_gradient_matches_finite_differences(self):
        model = tiny_model()
        rng = np.random.default_rng(43)
        h = 1e-5
        for _ in range(10):
            p = random_pose(rng)
            _, grad = vae_prior_energy(model, p)
            fd = np.empty_like(p)
            for i in range(p.shape[0]):
                pp, pm = p.copy(), p.copy()
                pp[i] += h
                pm[i] -= h
                fd[i] = (vae_prior_energy(model, pp)[0] - vae_prior_energy(model, pm)[0]) / (2 * h)
            denom = max(1.0, np.abs(fd).max(), np.abs(grad).max())
            assert np.abs(grad - fd).max() / denom < 1e-3

    def test_adapter_contract(self):
        model = tiny_model()
        prior = VaeEnergyPrior(model)
        rng = np.random.default_rng(44)
        p = random_pose(rng)
        e, g = vae_prior_energy(model, p)
        assert prior.log_prob(p) == -e
        np.testing.assert_allclose(prior.grad_log_prob(p), -g)
        assert prior.dim == 6

    def test_rejects_a_nan_or_wrong_shape_pose(self):
        model = tiny_model()
        p = np.full(6, 0.1)
        p[4] = np.nan
        with pytest.raises(DataError, match="non-finite"):
            vae_prior_energy(model, p)
        with pytest.raises(DataError, match=r"vector has shape \(9,\), expected \(6,\)"):
            vae_prior_energy(model, np.zeros(9))
        with pytest.raises(DataError, match="vector has shape"):
            vae_prior_energy(model, np.zeros((2, 3)))

    def test_gradient_near_zero_pose(self):
        # The Rodrigues pullback switches to its small-angle form here.
        model = tiny_model()
        p = np.full(6, 1e-9)
        _, grad = vae_prior_energy(model, p)
        assert np.all(np.isfinite(grad))


# Poses of a 2-joint model for the memo tests: signed zeros, the Taylor
# branch (1e-5), ordinary and large angles, and two near-equal rows.
_MEMO_POSES = [np.zeros(6), -np.zeros(6), np.array([0.0, -0.0, 0.0, -0.0, 0.0, 1e-9])]
_MEMO_POSES += [s * np.random.default_rng(9).standard_normal(6) for s in (1e-5, 0.4, 1.0, 3.0)]
_MEMO_POSES.append(np.nextafter(_MEMO_POSES[-1], math.inf))
_pose = st.integers(0, len(_MEMO_POSES) - 1)
_MEMO_OPS = st.lists(st.one_of(
    st.tuples(st.sampled_from(["set", "log_prob", "grad_log_prob", "energy", "deepcopy"]), _pose),
    st.tuples(st.sampled_from(["log_prob_many", "grad_log_prob_many"]),
              st.lists(_pose, max_size=3)),
), min_size=1, max_size=16)


@settings(max_examples=120, derandomize=True, deadline=None, database=None)
@given(_MEMO_OPS)
# The caller's buffer changes after a value; the valued bytes then come back in another array.
@example([("set", 3), ("log_prob", 0), ("set", 4), ("grad_log_prob_many", [3])])
def test_point_memo_never_changes_a_bit(ops):
    """Each query of one long-lived prior has the bits of the same query made on a
    freshly built prior, whatever one-row or batch queries came before it."""
    model = tiny_model()
    prior = VaeEnergyPrior(model)
    x = _MEMO_POSES[0].copy()  # the caller's buffer, changed in place by "set"

    def fresh(query, xs):
        return getattr(VaeEnergyPrior(model), query)(xs.copy())

    for query, arg in ops:
        if query == "set":
            x[:] = _MEMO_POSES[arg]
        elif query == "deepcopy":
            prior = copy.deepcopy(prior)
        elif query == "energy":
            e, g = vae_prior_energy(model, x)
            assert e == -fresh("log_prob", x)
            assert g.tobytes() == (-fresh("grad_log_prob", x)).tobytes()
        elif query.endswith("_many"):  # no rows stands for the caller's buffer as one row
            xs = np.array([_MEMO_POSES[i] for i in arg]) if arg else x[None]
            assert getattr(prior, query)(xs).tobytes() == fresh(query, xs).tobytes()
        else:
            got = getattr(prior, query)(x)
            assert np.asarray(got).tobytes() == np.asarray(fresh(query, x)).tobytes()


class TestPointMemoWork:
    """A value and a gradient at one point share one Rodrigues and encoder forward."""

    @pytest.fixture
    def forwards(self, monkeypatch):
        calls = []
        forward = rotations._exp_forward

        def counted(w):
            calls.append(len(w))
            return forward(w)

        monkeypatch.setattr(rotations, "_exp_forward", counted)
        return calls

    def test_pair_at_one_point_runs_one_forward(self, forwards):
        prior = VaeEnergyPrior(tiny_model())
        x = random_pose(np.random.default_rng(3))
        prior.log_prob(x)
        prior.grad_log_prob(x)
        assert forwards == [2]  # one forward over the 2 joints

    def test_pair_at_two_points_runs_two_forwards(self, forwards):
        prior = VaeEnergyPrior(tiny_model())
        x, y = random_pose(np.random.default_rng(4)), random_pose(np.random.default_rng(5))
        prior.log_prob(x)
        prior.grad_log_prob(y)
        assert forwards == [2, 2]

    def test_batch_runs_one_forward_and_leaves_the_memo(self, forwards):
        prior = VaeEnergyPrior(tiny_model())
        rng = np.random.default_rng(6)
        x = random_pose(rng)
        prior.log_prob(x)
        last = prior._last
        prior.grad_log_prob_many(np.array([random_pose(rng) for _ in range(5)]))
        assert forwards == [2, 10] and prior._last is last
        prior.grad_log_prob(x)
        assert forwards == [2, 10]


AXIS = np.array([0.48, -0.6, 0.64])  # a unit vector


class TestRegAngleEnds:
    @pytest.mark.parametrize("theta", [1e-8, 1e-6])
    def test_angle_sq_near_zero(self, theta):
        t2, _ = vae._angle_sq(rotations.exp(theta * AXIS))
        assert abs(t2 - theta**2) <= 1e-12 * theta**2

    @pytest.mark.parametrize("delta", [1e-8, 1e-6])
    def test_factor_near_pi(self, delta):
        theta = math.pi - delta
        _, dt2_dc = vae._angle_sq(rotations.exp(theta * AXIS))
        exact = -2.0 * theta / math.sin(theta)
        assert abs(dt2_dc - exact) <= 1e-6 * abs(exact)

    @pytest.mark.parametrize("theta,h,rtol", [(1e-6, 1e-7, 1e-6), (math.pi - 1e-6, 1e-9, 1e-5)])
    def test_reg_gradient_matches_central_differences(self, theta, h, rtol):
        # h stays below the distance to pi, where the angle has a kink.
        a = rotations.exp(theta * AXIS)
        _, grad = vae._reg_joint_vjp(a)
        fd = np.empty((3, 3))
        for idx in np.ndindex(3, 3):
            up, down = a.copy(), a.copy()
            up[idx] += h
            down[idx] -= h
            fd[idx] = (vae._reg_joint_vjp(up)[0] - vae._reg_joint_vjp(down)[0]) / (2.0 * h)
        assert np.abs(grad - fd).max() <= rtol * np.abs(fd).max()


BATCH = settings(max_examples=20, derandomize=True, deadline=None, database=None)
WEIGHTS = LossWeights(1.0, 0.7, 2.0, 0.5, 1.3)


def _batch_problem(b, j, seed):
    rng = np.random.default_rng(seed)
    model = build_vae(n_joints=j, latent_dim=2, hidden=(8,), seed=seed % 97, loss_weights=WEIGHTS)
    rots = rotations.exp(rng.normal(0.0, 1.0, (b, j, 3)))
    seeds = [int(s) for s in rng.integers(0, 2**31, b)]
    eps = np.stack([np.random.default_rng(s).standard_normal(2) for s in seeds])
    return model, rots, seeds, eps


def _close(got, want, rtol=1e-12):
    return np.abs(np.asarray(got) - want).max() <= rtol * max(np.abs(want).max(), 1e-300)


class TestBatchMatchesPerSample:
    @BATCH
    @given(b=st.integers(1, 6), j=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    def test_loss_terms_and_gradients(self, b, j, seed):
        model, rots, seeds, eps = _batch_problem(b, j, seed)
        terms, backward = vae._forward(model, rots.reshape(b, -1), eps)
        enc, dec = backward()
        for row, r, s in zip(terms, rots, seeds):
            bd = total_loss(model, r, s)
            assert _close(row, [bd.l_kl, bd.l_rec, bd.l_orth, bd.l_det1, bd.l_reg, bd.l_total])
        singles = [param_grads(model, r, s) for r, s in zip(rots, seeds)]
        per_sample = [g_enc + g_dec for g_enc, g_dec in singles]
        for k, (dw, db) in enumerate(enc + dec):
            assert _close(dw, sum(g[k][0] for g in per_sample))
            assert _close(db, sum(g[k][1] for g in per_sample))

    @BATCH
    @given(b=st.integers(1, 6), j=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    def test_train_draws_perm_then_noise_per_sample(self, b, j, seed):
        # With learning rate 0 the trace is the epoch mean of per-sample terms
        # under the draws made one sample at a time: a permutation per epoch,
        # then latent_dim normals per sample in batch order.
        model, _, _, _ = _batch_problem(b, j, seed)
        n = 2 * b + 1  # the last batch is short
        samples = np.random.default_rng(seed).normal(0.0, 0.8, (n, 3 * j))
        cfg = TrainConfig(epochs=2, batch_size=b, learning_rate=0.0, seed=seed % 1000)
        _, trace = train(model, samples, cfg)
        rows = rotations.exp(samples.reshape(n, j, 3)).reshape(n, -1)
        rng = np.random.default_rng(cfg.seed)
        for bd in trace:
            terms = [vae._forward(model, rows[idx][None], rng.standard_normal(2)[None])[0][0]
                     for idx in rng.permutation(n)]
            assert _close([bd.l_kl, bd.l_rec, bd.l_orth, bd.l_det1, bd.l_reg, bd.l_total],
                          np.mean(terms, axis=0))
