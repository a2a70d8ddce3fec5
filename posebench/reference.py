"""Independent numpy reference computations used to check benchmark outputs.

Nothing here imports posepriors: densities use numpy's slogdet/solve,
the recovery oracle is the closed-form normal-equation solve, PCA
eigenvalues come from eigvalsh, and the VAE latent energy is recomputed
from the model's weights with its own Rodrigues map and derivative.
"""

from __future__ import annotations

import math

import numpy as np

LOG_2PI = math.log(2.0 * math.pi)


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    m = np.max(a, axis=axis, keepdims=True)
    return np.log(np.sum(np.exp(a - m), axis=axis)) + np.squeeze(m, axis=axis)


def mvn_log_prob(mean, cov, xs) -> np.ndarray:
    """Log-density of each row of xs under N(mean, cov)."""
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    sign, logdet = np.linalg.slogdet(cov)
    if sign <= 0:
        raise ValueError("covariance is not positive definite")
    z = xs - mean
    q = np.einsum("nd,dn->n", z, np.linalg.solve(cov, z.T))
    return -0.5 * (mean.shape[0] * LOG_2PI + logdet + q)


def mvn_grad(mean, cov, x) -> np.ndarray:
    return -np.linalg.solve(cov, np.asarray(x, dtype=float) - mean)


def _gmm_component_log_joint(weights, means, covs, xs) -> np.ndarray:
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    w = np.asarray(weights, dtype=float)
    w = w / w.sum()
    return np.stack(
        [math.log(wi) + mvn_log_prob(mi, ci, xs) for wi, mi, ci in zip(w, means, covs)],
        axis=1,
    )


def gmm_log_prob(weights, means, covs, xs) -> np.ndarray:
    return _logsumexp(_gmm_component_log_joint(weights, means, covs, xs), axis=1)


def gmm_grad(weights, means, covs, x) -> np.ndarray:
    """-sum_i r_i(x) cov_i^{-1} (x - mean_i) with softmax responsibilities r."""
    x = np.asarray(x, dtype=float)
    lj = _gmm_component_log_joint(weights, means, covs, x[None, :])[0]
    r = np.exp(lj - _logsumexp(lj, axis=0))
    return sum(ri * mvn_grad(mi, ci, x) for ri, mi, ci in zip(r, means, covs))


def recovery_gradient(prior_grad, x, values, mask, sigma, lam) -> np.ndarray:
    """Gradient of sum_masked (x - y)^2 / (2 sigma^2) - lam * log p(x)."""
    g = np.where(mask, (x - values) / sigma**2, 0.0)
    return g - lam * prior_grad(x)


def mvn_map_estimate(mean, cov, values, mask, sigma, lam) -> np.ndarray:
    """Closed-form minimiser of the recovery objective under a normal prior."""
    prec = np.linalg.inv(cov)
    m = np.asarray(mask, dtype=float)
    lhs = lam * prec + np.diag(m / sigma**2)
    rhs = lam * prec @ mean + m * np.asarray(values, dtype=float) / sigma**2
    return np.linalg.solve(lhs, rhs)


def pca_eigenvalues(xs) -> np.ndarray:
    """Covariance eigenvalues (N - 1 divisor), largest first."""
    xs = np.asarray(xs, dtype=float)
    c = xs - xs.mean(axis=0)
    return np.linalg.eigvalsh(c.T @ c / (xs.shape[0] - 1))[::-1]


def central_diff(f, x, h: float = 1e-5) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    for i in range(x.shape[0]):
        e = np.zeros_like(x)
        e[i] = h
        out[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return out


# ---------------------------------------------------------------------------
# Rodrigues map and the VAE latent energy


def _hat(w: np.ndarray) -> np.ndarray:
    """Batched cross-product matrices of (..., 3) vectors."""
    z = np.zeros(w.shape[:-1])
    return np.stack(
        [
            np.stack([z, -w[..., 2], w[..., 1]], axis=-1),
            np.stack([w[..., 2], z, -w[..., 0]], axis=-1),
            np.stack([-w[..., 1], w[..., 0], z], axis=-1),
        ],
        axis=-2,
    )


def _rodrigues_coeffs(theta: np.ndarray):
    """a = sin t / t, b = (1 - cos t) / t^2 and (da/dt) / t, (db/dt) / t."""
    small = theta < 1e-4
    t = np.where(small, 1.0, theta)
    t2 = t * t
    a = np.where(small, 1.0 - theta**2 / 6.0, np.sin(t) / t)
    b = np.where(small, 0.5 - theta**2 / 24.0, (1.0 - np.cos(t)) / t2)
    da = np.where(small, -1.0 / 3.0 + theta**2 / 30.0, (t * np.cos(t) - np.sin(t)) / (t2 * t))
    db = np.where(
        small, -1.0 / 12.0 + theta**2 / 180.0, (t * np.sin(t) - 2.0 * (1.0 - np.cos(t))) / (t2 * t2)
    )
    return a, b, da, db


def rodrigues(pose) -> np.ndarray:
    """(J, 3, 3) rotations R = I + a [w]x + b [w]x^2 for a flat axis-angle pose."""
    w = np.asarray(pose, dtype=float).reshape(-1, 3)
    a, b, _, _ = _rodrigues_coeffs(np.linalg.norm(w, axis=1))
    k = _hat(w)
    return np.eye(3) + a[:, None, None] * k + b[:, None, None] * (k @ k)


def rodrigues_jacobian(pose) -> np.ndarray:
    """(J, 3, 3, 3) array whose [j, i] entry is dR_j / dw_{j,i}."""
    w = np.asarray(pose, dtype=float).reshape(-1, 3)
    a, b, da, db = _rodrigues_coeffs(np.linalg.norm(w, axis=1))
    k = _hat(w)
    k2 = k @ k
    e = _hat(np.eye(3))  # e[i] = [e_i]x
    out = np.empty((w.shape[0], 3, 3, 3))
    for i in range(3):
        ei = e[i]
        out[:, i] = (
            a[:, None, None] * ei
            + b[:, None, None] * (ei @ k + k @ ei)
            + (w[:, i] * da)[:, None, None] * k
            + (w[:, i] * db)[:, None, None] * k2
        )
    return out


def _mlp(layers, x):
    acts = [x]
    for weight, bias, activation in layers:
        u = weight @ acts[-1] + bias
        acts.append(np.tanh(u) if activation == "tanh" else u)
    return acts


def vae_energy(layers, latent_dim: int, pose) -> tuple[float, np.ndarray]:
    """Squared latent mean |mu(R(pose))|^2 and its gradient in the pose.

    layers is a list of (weight, bias, activation) for the encoder.
    """
    rot = rodrigues(pose)
    acts = _mlp(layers, rot.reshape(-1))
    mu = acts[-1][:latent_dim]
    g = np.zeros_like(acts[-1])
    g[:latent_dim] = 2.0 * mu
    for (weight, _, activation), out in zip(reversed(layers), reversed(acts[1:])):
        if activation == "tanh":
            g = g * (1.0 - out**2)
        g = weight.T @ g
    g_rot = g.reshape(-1, 3, 3)
    jac = rodrigues_jacobian(pose)
    grad = np.einsum("jab,jiab->ji", g_rot, jac).reshape(-1)
    return float(mu @ mu), grad
