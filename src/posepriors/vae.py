"""Variational autoencoder over per-joint rotation matrices.

Small tanh MLPs for encoder and decoder, trained by hand-written
reverse-mode backpropagation on a five-term loss: KL to the standard
normal, squared reconstruction error, an orthonormality penalty, a
unit-determinant penalty, and a squared-magnitude penalty on the
axis-angle recovery of the decoded matrices. The decoder output is fed
raw to the reconstruction, orthonormality and determinant terms; only the
regularizer projects it to the nearest rotation (`rotations.polar`).

A mini-batch runs as matrices: the MLPs on (B, in) rows, the loss terms
and their gradients on stacks; one sample is a batch of one. The four
public terms (`kl_loss`, `rec_loss`, `orth_loss`, `det1_loss`) return one
value per sample, and training computes each through them. Row products
are stacks of one-row products and the weight gradient is an einsum, so
no result depends on the BLAS thread count.

The trained encoder doubles as a pose prior, `VaeEnergyPrior`. Weight
gradients are formed only in training, by the pullback that `_forward`
returns; the prior's gradient pass forms only the input gradient.
"""

from __future__ import annotations

import copy
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import rotations
from .errors import NumericalError
from .posedata import csv_text, samples_of, write_text
from .priors import PosePrior
from .rotations import project_to_rotations

LOGVAR_CLAMP = 10.0


# ---------------------------------------------------------------------------
# MLP parameters


@dataclass(frozen=True)
class MlpLayer:
    weight: np.ndarray  # (out, in)
    bias: np.ndarray  # (out,)
    activation: str  # "tanh" | "identity"

    def __post_init__(self):
        # C order, as a JSON load gives: the layout decides a row product's bits.
        vars(self).update(weight=np.ascontiguousarray(self.weight, dtype=float),
                          bias=np.ascontiguousarray(self.bias, dtype=float))
        if self.activation not in ("tanh", "identity"):
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.weight.ndim != 2 or self.bias.shape != (self.weight.shape[0],):
            raise ValueError("inconsistent layer shapes")


@dataclass(frozen=True)
class MlpParams:
    layers: tuple

    def __post_init__(self):
        vars(self)["layers"] = tuple(self.layers)
        if not self.layers:
            raise ValueError("an MLP needs at least one layer")
        for prev, nxt in zip(self.layers, self.layers[1:]):
            if nxt.weight.shape[1] != prev.weight.shape[0]:
                raise ValueError("adjacent layer dimensions do not chain")

    @property
    def in_dim(self) -> int:
        return self.layers[0].weight.shape[1]

    @property
    def out_dim(self) -> int:
        return self.layers[-1].weight.shape[0]


def init_mlp(dims, rng: np.random.Generator) -> MlpParams:
    """Glorot-uniform weights, zero biases, tanh hidden + identity output."""
    layers = []
    for k, (fan_in, fan_out) in enumerate(zip(dims, dims[1:])):
        bound = math.sqrt(6.0 / (fan_in + fan_out))
        weight = rng.uniform(-bound, bound, (fan_out, fan_in))
        act = "identity" if k == len(dims) - 2 else "tanh"
        layers.append(MlpLayer(weight=weight, bias=np.zeros(fan_out), activation=act))
    return MlpParams(layers)


def _rows_times(a: np.ndarray, m: np.ndarray) -> np.ndarray:
    """a @ m as B one-row products: each row gets a matrix-vector product's
    bits for any B and BLAS thread count, unlike one GEMM."""
    return (a[:, None, :] @ m)[:, 0, :]


def mlp_forward(mlp: MlpParams, x: np.ndarray):
    """Forward pass over (B, in) rows: output and per-layer (input, output) cache."""
    cache = []
    a = np.asarray(x, dtype=float)
    for layer in mlp.layers:
        u = _rows_times(a, layer.weight.T) + layer.bias
        out = np.tanh(u) if layer.activation == "tanh" else u
        cache.append((a, out))
        a = out
    return a, cache


def mlp_backward(mlp: MlpParams, cache, g_out: np.ndarray):
    """Reverse pass over (B, out) rows: the per-layer (B, out) pre-activation
    gradients, in forward order, and the (B, in) input gradient."""
    g_us = [None] * len(mlp.layers)
    g = np.asarray(g_out, dtype=float)
    for k in range(len(mlp.layers) - 1, -1, -1):
        layer = mlp.layers[k]
        g_u = g * (1.0 - cache[k][1] ** 2) if layer.activation == "tanh" else g
        g_us[k] = g_u
        g = _rows_times(g_u, layer.weight)
    return g_us, g


def _weight_grads(cache, g_us) -> list:
    """Per-layer (dW, db) summed over the rows. dW is an einsum: a GEMM
    would sum the rows in an order set by the BLAS thread count."""
    return [(np.einsum("bo,bi->oi", g_u, a_prev), g_u.sum(axis=0))
            for (a_prev, _), g_u in zip(cache, g_us)]


def mlp_to_doc(mlp: MlpParams) -> list:
    return [
        {"weight": l.weight, "bias": l.bias, "activation": l.activation}
        for l in mlp.layers
    ]


def mlp_from_doc(doc, key: str) -> MlpParams:
    """The MLP saved under `key`; a fault in it is a ValueError naming the key."""
    try:
        return MlpParams(
            [MlpLayer(weight=d["weight"], bias=d["bias"], activation=d["activation"]) for d in doc]
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{key}: {exc}") from None


# ---------------------------------------------------------------------------
# Model


@dataclass(frozen=True)
class LossWeights:
    w_kl: float = 1.0
    w_rec: float = 1.0
    w_orth: float = 1.0
    w_det1: float = 1.0
    w_reg: float = 1.0

    def __post_init__(self):
        for name in ("w_kl", "w_rec", "w_orth", "w_det1", "w_reg"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be non-negative")


@dataclass(frozen=True)
class VaeModel:
    MODEL_TYPE = "vae"

    input_dim: int  # J * 9
    latent_dim: int
    encoder: MlpParams
    decoder: MlpParams
    loss_weights: LossWeights = field(default_factory=LossWeights)
    fit_meta: dict = field(default_factory=dict)

    def __post_init__(self):
        vars(self)["fit_meta"] = copy.deepcopy(self.fit_meta)  # its own, a replace's too
        if self.input_dim % 9 != 0:
            raise ValueError("input_dim must be a multiple of 9")
        if self.encoder.out_dim != 2 * self.latent_dim:
            raise ValueError("encoder must emit 2 * latent_dim values")
        if self.encoder.in_dim != self.input_dim or self.decoder.out_dim != self.input_dim:
            raise ValueError("encoder/decoder dimensions do not match input_dim")
        if self.decoder.in_dim != self.latent_dim:
            raise ValueError("decoder input must match latent_dim")

    @property
    def n_joints(self) -> int:
        return self.input_dim // 9

    @property
    def pose_dim(self) -> int:
        return self.n_joints * 3

    dim = pose_dim  # the pose dimension every serialized family reports

    def copy(self) -> "VaeModel":
        return copy.deepcopy(self)

    def to_params(self) -> dict:
        return {"input_dim": self.input_dim, "latent_dim": self.latent_dim,
                "encoder": mlp_to_doc(self.encoder), "decoder": mlp_to_doc(self.decoder),
                "loss_weights": asdict(self.loss_weights)}

    @classmethod
    def from_params(cls, params, meta) -> "VaeModel":
        return cls(input_dim=int(params["input_dim"]), latent_dim=int(params["latent_dim"]),
                   encoder=mlp_from_doc(params["encoder"], "encoder"),
                   decoder=mlp_from_doc(params["decoder"], "decoder"),
                   loss_weights=LossWeights(**params["loss_weights"]), fit_meta=dict(meta))


def build_vae(n_joints: int, latent_dim: int = 8, hidden=(64, 64), seed: int = 0,
              loss_weights: LossWeights | None = None) -> VaeModel:
    rng = np.random.default_rng(seed)
    input_dim = n_joints * 9
    enc = init_mlp([input_dim, *hidden, 2 * latent_dim], rng)
    dec = init_mlp([latent_dim, *hidden, input_dim], rng)
    return VaeModel(
        input_dim=input_dim,
        latent_dim=latent_dim,
        encoder=enc,
        decoder=dec,
        loss_weights=loss_weights or LossWeights(),
    )


@dataclass(frozen=True)
class VaeLossBreakdown:
    l_kl: float
    l_rec: float
    l_orth: float
    l_det1: float
    l_reg: float
    l_total: float


@dataclass
class TrainConfig:
    epochs: int
    batch_size: int
    learning_rate: float
    seed: int = 0
    optimizer: str = "adam"  # "sgd" | "adam" (beta1=0.9, beta2=0.999, eps=1e-8)

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be positive")
        if not 0.0 <= self.learning_rate < math.inf:
            raise ValueError("learning_rate must be finite and non-negative")
        if self.optimizer not in ("sgd", "adam"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")


# ---------------------------------------------------------------------------
# Forward pieces


def _flatten_rotations(r, input_dim: int) -> np.ndarray:
    r = np.asarray(r, dtype=float)
    if r.ndim != 3 or r.shape[1:] != (3, 3) or r.shape[0] * 9 != input_dim:
        raise ValueError(f"expected ({input_dim // 9}, 3, 3) rotation stack")
    return r.reshape(-1)


def encode(model: VaeModel, r):
    """Deterministic encoder pass on row-major flattened matrices."""
    out = mlp_forward(model.encoder, _flatten_rotations(r, model.input_dim)[None])[0][0]
    mu = out[: model.latent_dim]
    logvar = np.clip(out[model.latent_dim :], -LOGVAR_CLAMP, LOGVAR_CLAMP)
    return mu, logvar


def reparameterize(mu, logvar, seed: int) -> np.ndarray:
    """z = mu + exp(logvar / 2) * eps with seeded standard-normal eps."""
    mu = np.asarray(mu, dtype=float)
    logvar = np.asarray(logvar, dtype=float)
    if mu.shape != logvar.shape:
        raise ValueError("mu and logvar lengths differ")
    eps = np.random.default_rng(seed).standard_normal(mu.shape[0])
    return mu + np.exp(logvar / 2.0) * eps


def decode(model: VaeModel, z) -> np.ndarray:
    """Decoder pass; output is J raw 3x3 matrices, not projected to rotations."""
    z = np.asarray(z, dtype=float)
    if z.shape != (model.latent_dim,):
        raise ValueError(f"latent vector has shape {z.shape}, expected ({model.latent_dim},)")
    y, _ = mlp_forward(model.decoder, z[None])
    return y.reshape(model.n_joints, 3, 3)


# ---------------------------------------------------------------------------
# Loss terms: each takes a stack and returns one value per sample


def kl_loss(mu, logvar):
    """Closed-form KL(N(mu, diag exp(logvar)) || N(0, I)), per row of a stack."""
    mu = np.asarray(mu, dtype=float)
    logvar = np.asarray(logvar, dtype=float)
    if mu.shape != logvar.shape:
        raise ValueError("mu and logvar lengths differ")
    return 0.5 * np.sum(mu**2 + np.exp(logvar) - 1.0 - logvar, axis=-1)


def rec_loss(r, r_hat):
    """Sum of squared entrywise differences, per pose of a (..., J, 3, 3) stack."""
    a = np.asarray(r, dtype=float)
    b = np.asarray(r_hat, dtype=float)
    if a.shape != b.shape:
        raise ValueError("reconstruction shape mismatch")
    return np.sum((a - b) ** 2, axis=(-3, -2, -1))


def orth_loss(r_hat):
    """Sum over joints of ||R R^T - I||_F^2, per pose of a (..., J, 3, 3) stack."""
    r = np.asarray(r_hat, dtype=float)
    gram = np.einsum("...ab,...cb->...ac", r, r) - np.eye(3)
    return np.sum(gram**2, axis=(-3, -2, -1))


def det1_loss(r_hat):
    """Sum over joints of |det(R) - 1|, via cofactor expansion, per pose of a stack."""
    return np.sum(np.abs(rotations.det3(np.asarray(r_hat, dtype=float)) - 1.0), axis=-1)


# ---------------------------------------------------------------------------
# The regularizer: squared angle of the projected blocks, with an exact VJP


def _angle_sq(q: np.ndarray):
    """Angle squared and d(angle^2)/dc, c = (tr Q - 1) / 2, per rotation of a stack.

    t is `rotations.angle`'s atan2 form and d(t^2)/dc = -2 t / sin t takes
    sin t from the same arguments, so both hold within 1e-8 of 0 and of pi.
    """
    _, s, _, theta = rotations.angle(q)
    t2 = theta * theta
    small = theta < 1e-4  # where t / sin t = 1 + t^2/6 + 7 t^4/360 to 3e-27
    # Beyond it s is 0 only for a symmetric Q, at t = float pi; sin(float pi) = 1.2e-16
    # keeps t / s finite there.
    sin_t = np.where(small, 1.0, np.where(s > 0.0, s, np.sin(theta)))
    factor = np.where(small, 1.0 + t2 / 6.0 + 7.0 * t2 * t2 / 360.0, theta / sin_t)
    return t2, -2.0 * factor


def _reg_joint_vjp(a: np.ndarray):
    """angle(project(A))^2 and its exact gradient with respect to A, per block of a stack.

    The angle depends on Q only through c, with dc/dQ = I / 2, pulled back
    to A by `rotations.polar`."""
    q, vjp = rotations.polar(a)
    loss, dloss_dc = _angle_sq(q)
    return loss, vjp((dloss_dc / 2.0)[..., None, None] * np.eye(3))


# ---------------------------------------------------------------------------
# Total loss and manual backprop, over a batch


def _forward(model: VaeModel, x: np.ndarray, eps: np.ndarray):
    """Forward pass over rows x (B, input_dim) with noise eps (B, latent_dim).

    Returns (terms, backward). terms is (B, 6): each sample's five loss
    terms and weighted total. backward() pulls the batch's summed total loss
    back to the per-layer (dW, db): (encoder, decoder).
    """
    enc_out, enc_cache = mlp_forward(model.encoder, x)
    mu = enc_out[:, : model.latent_dim]
    logvar_raw = enc_out[:, model.latent_dim :]
    logvar = np.clip(logvar_raw, -LOGVAR_CLAMP, LOGVAR_CLAMP)
    z = mu + np.exp(logvar / 2.0) * eps
    y, dec_cache = mlp_forward(model.decoder, z)
    if not np.all(np.isfinite(y)):  # a diverged training: polar's eigh cannot run on it
        raise NumericalError("decoder output is not finite; training diverged")
    r_hat = y.reshape(len(x), model.n_joints, 3, 3)

    l_kl = kl_loss(mu, logvar)
    l_rec = rec_loss(x.reshape(r_hat.shape), r_hat)
    l_orth = orth_loss(r_hat)
    l_det1 = det1_loss(r_hat)
    reg, reg_grad = _reg_joint_vjp(r_hat)
    l_reg = np.sum(reg, axis=1)

    w = model.loss_weights
    l_total = (
        w.w_kl * l_kl + w.w_rec * l_rec + w.w_orth * l_orth
        + w.w_det1 * l_det1 + w.w_reg * l_reg
    )

    def backward():
        g_rhat = w.w_rec * 2.0 * (r_hat - x.reshape(r_hat.shape))
        gram = np.einsum("...ab,...cb->...ac", r_hat, r_hat) - np.eye(3)
        g_rhat += w.w_orth * 4.0 * np.einsum("...ab,...bc->...ac", gram, r_hat)
        det_sign = np.sign(rotations.det3(r_hat) - 1.0)
        g_rhat += (w.w_det1 * det_sign)[..., None, None] * rotations.det3_grad(r_hat)
        g_rhat += w.w_reg * reg_grad

        dec_g_us, g_z = mlp_backward(model.decoder, dec_cache, g_rhat.reshape(len(mu), -1))

        g_mu = g_z + w.w_kl * mu
        std_half = 0.5 * np.exp(logvar / 2.0)
        g_logvar = g_z * std_half * eps + w.w_kl * 0.5 * (np.exp(logvar) - 1.0)
        inside = np.abs(logvar_raw) < LOGVAR_CLAMP
        g_logvar_raw = np.where(inside, g_logvar, 0.0)
        enc_g_us, _ = mlp_backward(
            model.encoder, enc_cache, np.concatenate([g_mu, g_logvar_raw], axis=1)
        )
        return _weight_grads(enc_cache, enc_g_us), _weight_grads(dec_cache, dec_g_us)

    return np.stack([l_kl, l_rec, l_orth, l_det1, l_reg, l_total], axis=1), backward


def total_loss(model: VaeModel, r, seed: int) -> VaeLossBreakdown:
    """Encode, reparameterize, decode; all five terms plus the weighted sum."""
    eps = np.random.default_rng(seed).standard_normal((1, model.latent_dim))
    terms, _ = _forward(model, _flatten_rotations(r, model.input_dim)[None], eps)
    return VaeLossBreakdown(*map(float, terms[0]))


# ---------------------------------------------------------------------------
# Training


class _Optimizer:
    """SGD or Adam, as cfg.optimizer says, on a flat list of arrays updated in place."""

    def __init__(self, cfg: TrainConfig, params):
        self.cfg = cfg
        self.params = params
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.t = 0

    def step(self, grads):
        lr = self.cfg.learning_rate
        if self.cfg.optimizer == "sgd":
            for p, g in zip(self.params, grads):
                p -= lr * g
            return
        self.t += 1
        b1, b2, eps = 0.9, 0.999, 1e-8
        corr1 = 1.0 - b1**self.t
        corr2 = 1.0 - b2**self.t
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            m[:] = b1 * m + (1 - b1) * g
            v[:] = b2 * v + (1 - b2) * g**2
            p -= lr * (m / corr1) / (np.sqrt(v / corr2) + eps)


def train(model: VaeModel, data, cfg: TrainConfig):
    """Mini-batch training with seeded shuffling and fresh noise per sample.

    Each mini-batch runs forward and backward as one batch; its noise is one
    (B, latent_dim) draw, equal to B draws of latent_dim values in turn.
    Returns a trained copy of the model and the per-epoch mean loss trace
    (a VaeLossBreakdown per epoch). Deterministic for fixed (model, data,
    cfg): identical seeds give bitwise identical parameters.
    """
    samples = samples_of(data)
    if samples.shape[1] != model.pose_dim:
        raise ValueError(
            f"dataset dim {samples.shape} does not match model pose dim {model.pose_dim}"
        )
    n = samples.shape[0]
    if cfg.batch_size > n:
        raise ValueError("batch_size exceeds the sample count")
    rows = rotations.exp(samples.reshape(n, model.n_joints, 3)).reshape(n, -1)

    trained = model.copy()
    rng = np.random.default_rng(cfg.seed)
    opt = _Optimizer(cfg, [a for layer in trained.encoder.layers + trained.decoder.layers
                           for a in (layer.weight, layer.bias)])

    trace = []
    for _ in range(cfg.epochs):
        perm = rng.permutation(n)
        sums = np.zeros(6)
        for start in range(0, n, cfg.batch_size):
            batch = perm[start : start + cfg.batch_size]
            eps = rng.standard_normal((batch.size, trained.latent_dim))
            terms, backward = _forward(trained, rows[batch], eps)
            enc_grads, dec_grads = backward()
            sums += terms.sum(axis=0)
            scale = 1.0 / batch.size
            opt.step([g * scale for pair in enc_grads + dec_grads for g in pair])
        means = sums / n
        trace.append(VaeLossBreakdown(*means))
    trained.fit_meta.update(
        seed=cfg.seed,
        iterations=cfg.epochs,
        final_loglik=-trace[-1].l_total,
        optimizer=cfg.optimizer,
        learning_rate=cfg.learning_rate,
        batch_size=cfg.batch_size,
    )
    return trained, trace


def write_loss_trace(trace, path) -> None:
    """Loss trace CSV: epoch, l_kl, l_rec, l_orth, l_det1, l_reg, l_total."""
    columns = ("l_kl", "l_rec", "l_orth", "l_det1", "l_reg", "l_total")
    rows = ([e, *(float(getattr(bd, c)) for c in columns)] for e, bd in enumerate(trace, start=1))
    write_text(path, [csv_text(["epoch", *columns], rows)])


# ---------------------------------------------------------------------------
# Latent energy as a pose prior


def vae_prior_energy(model: VaeModel, p) -> tuple[float, np.ndarray]:
    """Latent energy of a pose and its gradient: VaeEnergyPrior(model)'s
    negated log_prob and grad_log_prob, with their DataError on a bad pose."""
    prior = VaeEnergyPrior(model)
    return -prior.log_prob(p), -prior.grad_log_prob(p)


@dataclass(frozen=True)
class VaeEnergyPrior(PosePrior):
    """Adapter holding a VaeModel to the PosePrior contract.

    log_prob, an unnormalized log-density, is minus the squared latent-mean
    norm: an energy the trained KL term keeps small on poses like the
    training set. Both queries run the Rodrigues map and the encoder on all
    rows at once, each row with the bits of a one-pose call; the gradient
    pulls 2 mu back through the encoder and the closed-form Rodrigues VJP.
    A gradient at the point just valued reuses that value's forward pass
    (PosePrior._forward) and runs only the pullbacks. Wrapping a model makes
    its encoder arrays read-only, since the queries answer from them.
    """

    model: VaeModel
    log_prob_bound = 0.0  # minus a squared norm

    def __post_init__(self):
        for layer in self.model.encoder.layers:
            layer.weight.flags.writeable = False
            layer.bias.flags.writeable = False

    @property
    def dim(self) -> int:
        return self.model.pose_dim

    def _forward_rows(self, xs: np.ndarray):
        """The (n * J, 3) joint axis-angles, their rotations and (A, B, C), latent means
        and encoder cache."""
        w = xs.reshape(-1, 3)
        rots, coefficients = rotations._exp_forward(w)
        out, cache = mlp_forward(self.model.encoder, rots.reshape(len(xs), -1))
        return w, rots, coefficients, out[:, : self.model.latent_dim], cache

    def _log_prob_rows(self, xs: np.ndarray) -> np.ndarray:
        mu = self._forward(xs)[3]
        return -(mu[:, None, :] @ mu[:, :, None])[:, 0, 0]  # per-row dots

    def _grad_rows(self, xs: np.ndarray) -> np.ndarray:
        w, rots, coefficients, mu, cache = self._forward(xs)
        g_out = np.concatenate([2.0 * mu, np.zeros_like(mu)], axis=1)
        _, g_x = mlp_backward(self.model.encoder, cache, g_out)
        g_w = rotations.exp_vjp(w, rots, coefficients, g_x.reshape(rots.shape))
        return -g_w.reshape(len(xs), -1)

    def support_points(self, count: int, rng: np.random.Generator, h: float) -> np.ndarray:
        # A clipped normal: no joint's rotation angle exceeds 2.5 rad.
        points = rng.normal(0.0, 0.7, (count, self.dim))
        joints = points.reshape(count, -1, 3)
        norms = np.linalg.norm(joints, axis=2, keepdims=True)
        scale = np.where(norms > 2.5, 2.5 / norms, 1.0)
        return (joints * scale).reshape(count, self.dim)
