"""Variational autoencoder over per-joint rotation matrices.

Small tanh MLPs for encoder and decoder, trained by hand-written
reverse-mode backpropagation on a five-term loss: KL to the standard
normal, squared reconstruction error, an orthonormality penalty, a
unit-determinant penalty, and a squared-magnitude penalty on the
axis-angle recovery of the decoded matrices. The decoder output is fed
raw to the orthonormality/determinant terms; only the regularizer and
inference-time decoding project it to the nearest rotation.

The trained encoder doubles as a pose prior: the squared norm of the
latent mean is an energy that is low for poses resembling the training
set, with an exact gradient chained through the Rodrigues map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .posedata import axis_angle_to_matrices, matrices_to_axis_angle
from .priors import PosePrior

LOGVAR_CLAMP = 10.0


# ---------------------------------------------------------------------------
# MLP parameters


@dataclass
class MlpLayer:
    weight: np.ndarray  # (out, in)
    bias: np.ndarray  # (out,)
    activation: str  # "tanh" | "identity"

    def __post_init__(self):
        self.weight = np.asarray(self.weight, dtype=float)
        self.bias = np.asarray(self.bias, dtype=float)
        if self.activation not in ("tanh", "identity"):
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.weight.ndim != 2 or self.bias.shape != (self.weight.shape[0],):
            raise ValueError("inconsistent layer shapes")


@dataclass
class MlpParams:
    layers: list

    def __post_init__(self):
        for prev, nxt in zip(self.layers, self.layers[1:]):
            if nxt.weight.shape[1] != prev.weight.shape[0]:
                raise ValueError("adjacent layer dimensions do not chain")

    @property
    def in_dim(self) -> int:
        return self.layers[0].weight.shape[1]

    @property
    def out_dim(self) -> int:
        return self.layers[-1].weight.shape[0]

    def copy(self) -> "MlpParams":
        return MlpParams(
            [MlpLayer(l.weight.copy(), l.bias.copy(), l.activation) for l in self.layers]
        )


def init_mlp(dims, rng: np.random.Generator) -> MlpParams:
    """Glorot-uniform weights, zero biases, tanh hidden + identity output."""
    layers = []
    for k, (fan_in, fan_out) in enumerate(zip(dims, dims[1:])):
        bound = math.sqrt(6.0 / (fan_in + fan_out))
        weight = rng.uniform(-bound, bound, (fan_out, fan_in))
        act = "identity" if k == len(dims) - 2 else "tanh"
        layers.append(MlpLayer(weight=weight, bias=np.zeros(fan_out), activation=act))
    return MlpParams(layers)


def mlp_forward(mlp: MlpParams, x: np.ndarray):
    """Forward pass returning the output and per-layer (input, output) cache."""
    cache = []
    a = np.asarray(x, dtype=float)
    for layer in mlp.layers:
        u = layer.weight @ a + layer.bias
        out = np.tanh(u) if layer.activation == "tanh" else u
        cache.append((a, out))
        a = out
    return a, cache


def mlp_backward(mlp: MlpParams, cache, g_out: np.ndarray):
    """Reverse pass: per-layer (dW, db) in forward order plus input gradient."""
    grads = [None] * len(mlp.layers)
    g = np.asarray(g_out, dtype=float)
    for k in range(len(mlp.layers) - 1, -1, -1):
        layer = mlp.layers[k]
        a_prev, a_out = cache[k]
        g_u = g * (1.0 - a_out**2) if layer.activation == "tanh" else g
        grads[k] = (np.outer(g_u, a_prev), g_u.copy())
        g = layer.weight.T @ g_u
    return grads, g


def mlp_to_doc(mlp: MlpParams) -> list:
    return [
        {"weight": l.weight, "bias": l.bias, "activation": l.activation}
        for l in mlp.layers
    ]


def mlp_from_doc(doc) -> MlpParams:
    return MlpParams(
        [MlpLayer(weight=d["weight"], bias=d["bias"], activation=d["activation"]) for d in doc]
    )


# ---------------------------------------------------------------------------
# Model


@dataclass
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


@dataclass
class VaeModel:
    input_dim: int  # J * 9
    latent_dim: int
    encoder: MlpParams
    decoder: MlpParams
    loss_weights: LossWeights = field(default_factory=LossWeights)
    fit_meta: dict = field(default_factory=dict)

    def __post_init__(self):
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

    def copy(self) -> "VaeModel":
        return VaeModel(
            input_dim=self.input_dim,
            latent_dim=self.latent_dim,
            encoder=self.encoder.copy(),
            decoder=self.decoder.copy(),
            loss_weights=self.loss_weights,
            fit_meta=dict(self.fit_meta),
        )


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
        if self.learning_rate < 0.0:
            raise ValueError("learning_rate must be non-negative")
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
    x = _flatten_rotations(r, model.input_dim)
    out, _ = mlp_forward(model.encoder, x)
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
    y, _ = mlp_forward(model.decoder, z)
    return y.reshape(model.n_joints, 3, 3)


# ---------------------------------------------------------------------------
# Loss terms


def kl_loss(mu, logvar) -> float:
    """Closed-form KL(N(mu, diag exp(logvar)) || N(0, I))."""
    mu = np.asarray(mu, dtype=float)
    logvar = np.asarray(logvar, dtype=float)
    if mu.shape != logvar.shape:
        raise ValueError("mu and logvar lengths differ")
    return 0.5 * float(np.sum(mu**2 + np.exp(logvar) - 1.0 - logvar))


def rec_loss(r, r_hat) -> float:
    """Sum of squared entrywise differences."""
    a = np.asarray(r, dtype=float).ravel()
    b = np.asarray(r_hat, dtype=float).ravel()
    if a.shape != b.shape:
        raise ValueError("reconstruction shape mismatch")
    return float(np.sum((a - b) ** 2))


def orth_loss(r_hat) -> float:
    """Sum over joints of ||R R^T - I||_F^2."""
    r = np.asarray(r_hat, dtype=float)
    gram = np.einsum("jab,jcb->jac", r, r) - np.eye(3)
    return float(np.sum(gram**2))


def _det3(m: np.ndarray) -> float:
    return (
        m[0, 0] * (m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1])
        - m[0, 1] * (m[1, 0] * m[2, 2] - m[1, 2] * m[2, 0])
        + m[0, 2] * (m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0])
    )


def det1_loss(r_hat) -> float:
    """Sum over joints of |det(R) - 1|, via cofactor expansion."""
    r = np.asarray(r_hat, dtype=float)
    return float(sum(abs(_det3(m) - 1.0) for m in r))


def reg_loss(pose_equiv) -> float:
    """Squared L2 norm of an axis-angle pose vector."""
    p = np.asarray(pose_equiv, dtype=float)
    return float(np.sum(p**2))


# ---------------------------------------------------------------------------
# Projection to the nearest rotation (polar route) with an exact VJP


_H_FLOOR = 1e-12


def _project_joint(a: np.ndarray):
    """Nearest rotation to a raw 3x3 block, plus intermediates for the VJP.

    Uses the eigendecomposition of A^T A: with h the signed singular
    values (last one negated when det A < 0), Q = A V diag(1/h) V^T and
    h satisfies (V diag(h) V^T)^2 = A^T A on the chosen branch.
    """
    m = linalg.symmetrize(a.T @ a)
    eig = linalg.jacobi_eigen(m)
    sigma = np.sqrt(np.maximum(eig.eigenvalues, 0.0))
    s = 1.0 if _det3(a) >= 0.0 else -1.0
    h = np.array([sigma[0], sigma[1], s * sigma[2]])
    h = np.where(np.abs(h) < _H_FLOOR, np.where(h < 0.0, -_H_FLOOR, _H_FLOOR), h)
    v = eig.basis
    h_inv = (v / h) @ v.T
    q = a @ h_inv
    return q, v, h, h_inv


def project_to_rotations(r_hat) -> np.ndarray:
    """Project each raw 3x3 block to the nearest rotation (det +1)."""
    r = np.asarray(r_hat, dtype=float)
    out = np.empty_like(r)
    for j, a in enumerate(r):
        out[j] = _project_joint(a)[0]
    return out


def _angle_sq(q: np.ndarray) -> tuple[float, float]:
    """Rotation angle squared and d(angle^2)/d(cos) for a rotation matrix."""
    c = min(max((float(np.trace(q)) - 1.0) / 2.0, -1.0), 1.0)
    theta = math.acos(c)
    if theta < 1e-4:
        factor = 1.0 + theta**2 / 6.0 + 7.0 * theta**4 / 360.0  # theta/sin(theta)
    else:
        factor = theta / math.sin(theta)
    return theta * theta, -2.0 * factor


def _reg_joint_vjp(a: np.ndarray) -> tuple[float, np.ndarray]:
    """angle(project(A))^2 and its exact gradient with respect to A.

    With H the signed square root of A^T A and Q = A H^{-1}, the chain
    rule needs dH, which solves the Sylvester equation
    dH H + H dH = dA^T A + A^T dA. The adjoint solve happens in H's
    eigenbasis, where the operator is division by h_i + h_j.
    """
    q, v, h, h_inv = _project_joint(a)
    loss, dloss_dc = _angle_sq(q)
    g_q = (dloss_dc / 2.0) * np.eye(3)  # d(trace)/dQ = I, c = (tr - 1) / 2
    g_h_part = g_q @ h_inv
    w = q.T @ g_h_part
    w_tilde = v.T @ w @ v
    denom = h[:, None] + h[None, :]
    denom = np.where(np.abs(denom) < _H_FLOOR, np.where(denom < 0.0, -_H_FLOOR, _H_FLOOR), denom)
    t_tilde = w_tilde / denom
    t = v @ t_tilde @ v.T
    g_a = g_h_part - a @ (t + t.T)
    return loss, g_a


# ---------------------------------------------------------------------------
# Total loss and manual backprop


def _forward_pass(model: VaeModel, r, eps: np.ndarray) -> dict:
    x = _flatten_rotations(r, model.input_dim)
    enc_out, enc_cache = mlp_forward(model.encoder, x)
    mu = enc_out[: model.latent_dim]
    logvar_raw = enc_out[model.latent_dim :]
    logvar = np.clip(logvar_raw, -LOGVAR_CLAMP, LOGVAR_CLAMP)
    z = mu + np.exp(logvar / 2.0) * eps
    y, dec_cache = mlp_forward(model.decoder, z)
    r_hat = y.reshape(model.n_joints, 3, 3)

    l_kl = kl_loss(mu, logvar)
    l_rec = rec_loss(x, y)
    l_orth = orth_loss(r_hat)
    l_det1 = det1_loss(r_hat)
    reg_terms = [_reg_joint_vjp(a) for a in r_hat]
    l_reg = float(sum(t[0] for t in reg_terms))

    w = model.loss_weights
    l_total = (
        w.w_kl * l_kl + w.w_rec * l_rec + w.w_orth * l_orth
        + w.w_det1 * l_det1 + w.w_reg * l_reg
    )
    return {
        "x": x, "enc_cache": enc_cache, "mu": mu, "logvar_raw": logvar_raw,
        "logvar": logvar, "eps": eps, "z": z, "y": y, "dec_cache": dec_cache,
        "r_hat": r_hat, "reg_grads": [t[1] for t in reg_terms],
        "breakdown": VaeLossBreakdown(
            l_kl=l_kl, l_rec=l_rec, l_orth=l_orth, l_det1=l_det1,
            l_reg=l_reg, l_total=l_total,
        ),
    }


def total_loss(model: VaeModel, r, seed: int) -> VaeLossBreakdown:
    """Encode, reparameterize, decode; all five terms plus the weighted sum."""
    eps = np.random.default_rng(seed).standard_normal(model.latent_dim)
    return _forward_pass(model, r, eps)["breakdown"]


@dataclass
class VaeGradients:
    encoder: list  # per layer (dW, db)
    decoder: list
    loss: VaeLossBreakdown


def _det_grad(m: np.ndarray) -> np.ndarray:
    return np.stack(
        [np.cross(m[1], m[2]), np.cross(m[2], m[0]), np.cross(m[0], m[1])]
    )


def _backward_pass(model: VaeModel, state: dict) -> VaeGradients:
    w = model.loss_weights
    r_hat = state["r_hat"]
    x = state["x"]
    mu = state["mu"]
    logvar = state["logvar"]
    eps = state["eps"]

    g_rhat = np.zeros_like(r_hat)
    g_rhat += w.w_rec * 2.0 * (r_hat - x.reshape(r_hat.shape))
    gram = np.einsum("jab,jcb->jac", r_hat, r_hat) - np.eye(3)
    g_rhat += w.w_orth * 4.0 * np.einsum("jab,jbc->jac", gram, r_hat)
    for j, m in enumerate(r_hat):
        det_sign = math.copysign(1.0, _det3(m) - 1.0) if _det3(m) != 1.0 else 0.0
        g_rhat[j] += w.w_det1 * det_sign * _det_grad(m)
        g_rhat[j] += w.w_reg * state["reg_grads"][j]

    dec_grads, g_z = mlp_backward(model.decoder, state["dec_cache"], g_rhat.reshape(-1))

    g_mu = g_z + w.w_kl * mu
    std_half = 0.5 * np.exp(logvar / 2.0)
    g_logvar = g_z * std_half * eps + w.w_kl * 0.5 * (np.exp(logvar) - 1.0)
    inside = np.abs(state["logvar_raw"]) < LOGVAR_CLAMP
    g_logvar_raw = np.where(inside, g_logvar, 0.0)
    enc_grads, _ = mlp_backward(
        model.encoder, state["enc_cache"], np.concatenate([g_mu, g_logvar_raw])
    )
    return VaeGradients(encoder=enc_grads, decoder=dec_grads, loss=state["breakdown"])


def backward(model: VaeModel, r, seed: int) -> VaeGradients:
    """Exact gradients of the weighted total loss for fixed noise."""
    eps = np.random.default_rng(seed).standard_normal(model.latent_dim)
    return _backward_pass(model, _forward_pass(model, r, eps))


# ---------------------------------------------------------------------------
# Training


class _Optimizer:
    def __init__(self, cfg: TrainConfig, shapes):
        self.cfg = cfg
        if cfg.optimizer == "adam":
            self.m = [(np.zeros(ws), np.zeros(bs)) for ws, bs in shapes]
            self.v = [(np.zeros(ws), np.zeros(bs)) for ws, bs in shapes]
            self.t = 0

    def step(self, layers, grads):
        lr = self.cfg.learning_rate
        if self.cfg.optimizer == "sgd":
            for layer, (dw, db) in zip(layers, grads):
                layer.weight -= lr * dw
                layer.bias -= lr * db
            return
        self.t += 1
        b1, b2, eps = 0.9, 0.999, 1e-8
        corr1 = 1.0 - b1**self.t
        corr2 = 1.0 - b2**self.t
        for k, (layer, (dw, db)) in enumerate(zip(layers, grads)):
            mw, mb = self.m[k]
            vw, vb = self.v[k]
            mw[:] = b1 * mw + (1 - b1) * dw
            mb[:] = b1 * mb + (1 - b1) * db
            vw[:] = b2 * vw + (1 - b2) * dw**2
            vb[:] = b2 * vb + (1 - b2) * db**2
            layer.weight -= lr * (mw / corr1) / (np.sqrt(vw / corr2) + eps)
            layer.bias -= lr * (mb / corr1) / (np.sqrt(vb / corr2) + eps)


def _zero_grads(mlp: MlpParams):
    return [(np.zeros_like(l.weight), np.zeros_like(l.bias)) for l in mlp.layers]


def _accumulate(total, grads):
    for (tw, tb), (dw, db) in zip(total, grads):
        tw += dw
        tb += db


def _scale(grads, factor: float):
    return [(dw * factor, db * factor) for dw, db in grads]


def train(model: VaeModel, data, cfg: TrainConfig):
    """Mini-batch training with seeded shuffling and fresh noise per sample.

    Returns a trained copy of the model and the per-epoch mean loss trace
    (a VaeLossBreakdown per epoch). Deterministic for fixed (model, data,
    cfg): identical seeds give bitwise identical parameters.
    """
    samples = np.asarray(getattr(data, "samples", data), dtype=float)
    if samples.ndim != 2 or samples.shape[1] != model.pose_dim:
        raise ValueError(
            f"dataset dim {samples.shape} does not match model pose dim {model.pose_dim}"
        )
    n = samples.shape[0]
    if cfg.batch_size > n:
        raise ValueError("batch_size exceeds the sample count")
    rotations = np.stack([axis_angle_to_matrices(p) for p in samples])

    trained = model.copy()
    rng = np.random.default_rng(cfg.seed)
    all_layers = trained.encoder.layers + trained.decoder.layers
    opt = _Optimizer(cfg, [(l.weight.shape, l.bias.shape) for l in all_layers])

    trace = []
    for _ in range(cfg.epochs):
        perm = rng.permutation(n)
        sums = np.zeros(6)
        for start in range(0, n, cfg.batch_size):
            batch = perm[start : start + cfg.batch_size]
            acc = _zero_grads(trained.encoder) + _zero_grads(trained.decoder)
            for idx in batch:
                eps = rng.standard_normal(trained.latent_dim)
                grads = _backward_pass(trained, _forward_pass(trained, rotations[idx], eps))
                _accumulate(acc, grads.encoder + grads.decoder)
                bd = grads.loss
                sums += (bd.l_kl, bd.l_rec, bd.l_orth, bd.l_det1, bd.l_reg, bd.l_total)
            opt.step(all_layers, _scale(acc, 1.0 / batch.size))
        means = sums / n
        trace.append(VaeLossBreakdown(*means))
    trained.fit_meta.update(
        seed=cfg.seed,
        jitter=None,
        iterations=cfg.epochs,
        final_loglik=-trace[-1].l_total,
        optimizer=cfg.optimizer,
        learning_rate=cfg.learning_rate,
        batch_size=cfg.batch_size,
    )
    return trained, trace


def write_loss_trace(trace, path) -> None:
    """Loss trace CSV: epoch, l_kl, l_rec, l_orth, l_det1, l_reg, l_total."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("epoch,l_kl,l_rec,l_orth,l_det1,l_reg,l_total\n")
        for e, bd in enumerate(trace, start=1):
            cells = [str(e)] + [
                repr(float(v))
                for v in (bd.l_kl, bd.l_rec, bd.l_orth, bd.l_det1, bd.l_reg, bd.l_total)
            ]
            fh.write(",".join(cells) + "\n")


# ---------------------------------------------------------------------------
# Latent energy as a pose prior


def _rodrigues_vjp(omega: np.ndarray, rot: np.ndarray, g_rot: np.ndarray) -> np.ndarray:
    """Pull a gradient on R back to the axis-angle vector omega.

    Uses dR/dw_i = ((w_i [w]x + [(w x ((I - R) e_i))]x) / |w|^2) R, which
    degrades gracefully to [e_i]x at the origin.
    """
    theta2 = float(omega @ omega)
    out = np.empty(3)
    if theta2 < 1e-14:
        return np.array(
            [g_rot[2, 1] - g_rot[1, 2], g_rot[0, 2] - g_rot[2, 0], g_rot[1, 0] - g_rot[0, 1]]
        )
    skew_w = np.array(
        [
            [0.0, -omega[2], omega[1]],
            [omega[2], 0.0, -omega[0]],
            [-omega[1], omega[0], 0.0],
        ]
    )
    eye_minus_r = np.eye(3) - rot
    for i in range(3):
        vec = np.cross(omega, eye_minus_r[:, i])
        skew_v = np.array(
            [
                [0.0, -vec[2], vec[1]],
                [vec[2], 0.0, -vec[0]],
                [-vec[1], vec[0], 0.0],
            ]
        )
        d_rot = ((omega[i] * skew_w + skew_v) / theta2) @ rot
        out[i] = float(np.sum(g_rot * d_rot))
    return out


def _latent_mean(model: VaeModel, p: np.ndarray) -> tuple[np.ndarray, np.ndarray, list]:
    """Rodrigues map and encoder forward pass of one pose.

    Returns the per-joint rotations, the latent mean and the encoder cache.
    """
    if p.shape != (model.pose_dim,):
        raise ValueError(f"pose has shape {p.shape}, expected ({model.pose_dim},)")
    rot = axis_angle_to_matrices(p)
    out, cache = mlp_forward(model.encoder, rot.reshape(-1))
    return rot, out[: model.latent_dim], cache


def vae_prior_energy(model: VaeModel, p) -> tuple[float, np.ndarray]:
    """Squared latent-mean norm of a pose, with its gradient.

    The trained KL term pulls plausible poses toward latent mean zero, so
    this energy is small on poses resembling the training set. Gradient is
    chained through the encoder and the Rodrigues map.
    """
    p = np.asarray(p, dtype=float)
    rot, mu, cache = _latent_mean(model, p)
    energy = float(mu @ mu)
    g_out = np.concatenate([2.0 * mu, np.zeros(model.latent_dim)])
    _, g_x = mlp_backward(model.encoder, cache, g_out)
    g_rot = g_x.reshape(model.n_joints, 3, 3)
    grad = np.empty(model.pose_dim)
    joints = p.reshape(-1, 3)
    for j in range(model.n_joints):
        grad[3 * j : 3 * j + 3] = _rodrigues_vjp(joints[j], rot[j], g_rot[j])
    return energy, grad


class VaeEnergyPrior(PosePrior):
    """Adapter holding a VaeModel to the PosePrior contract.

    log_prob is the negated latent energy (an unnormalized log-density);
    log_prob_many runs only the forward pass, one pose at a time.
    """

    def __init__(self, model: VaeModel):
        self.model = model

    @property
    def dim(self) -> int:
        return self.model.pose_dim

    def log_prob_many(self, xs) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        out = np.empty(xs.shape[0])
        for row, x in enumerate(xs):
            mu = _latent_mean(self.model, x)[1]
            out[row] = -float(mu @ mu)
        return out

    def grad_log_prob(self, x) -> np.ndarray:
        return -vae_prior_energy(self.model, x)[1]


def decode_to_pose(model: VaeModel, z) -> np.ndarray:
    """Inference-time decode: project to rotations, then recover axis-angle."""
    return matrices_to_axis_angle(project_to_rotations(decode(model, z)))
