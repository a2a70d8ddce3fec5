"""Finite-difference validation of analytic prior gradients.

Shared by the CLI grad-check command and the acceptance suite. The
relative error per point is the infinity-norm gap between analytic and
central-difference gradients, normalized by max(1, both gradient norms),
which keeps near-zero gradients (e.g. box interiors) well-posed.
"""

from __future__ import annotations

import numpy as np

from .priors import BoxLimitModel, GammaModel, GmmModel, MvnModel
from .vae import VaeEnergyPrior
from . import linalg


def finite_diff_gradient(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central differences, one coordinate at a time."""
    x = np.asarray(x, dtype=float)
    grad = np.empty_like(x)
    for i in range(x.shape[0]):
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        grad[i] = (f(xp) - f(xm)) / (2.0 * h)
    return grad


def _finite_diff_batch(prior, xs: np.ndarray, h: float) -> np.ndarray:
    """Central differences for all points at once via log_prob_many."""
    n, d = xs.shape
    shifted = np.repeat(xs, 2 * d, axis=0)
    offsets = np.zeros((2 * d, d))
    idx = np.arange(d)
    offsets[2 * idx, idx] = h
    offsets[2 * idx + 1, idx] = -h
    shifted += np.tile(offsets, (n, 1))
    values = prior.log_prob_many(shifted).reshape(n, d, 2)
    return (values[:, :, 0] - values[:, :, 1]) / (2.0 * h)


def max_relative_error(prior, points: np.ndarray, h: float = 1e-5) -> float:
    """Worst-case relative gradient error over the given in-support points."""
    points = np.asarray(points, dtype=float)
    analytic = np.stack([prior.grad_log_prob(x) for x in points])
    numeric = _finite_diff_batch(prior, points, h)
    worst = 0.0
    for ga, gn in zip(analytic, numeric):
        denom = max(1.0, float(np.max(np.abs(ga))), float(np.max(np.abs(gn))))
        worst = max(worst, float(np.max(np.abs(ga - gn))) / denom)
    return worst


def sample_in_support(prior, count: int, seed: int, h: float = 1e-5) -> np.ndarray:
    """Seeded points strictly inside the prior's support, clear of kinks."""
    rng = np.random.default_rng(seed)
    if isinstance(prior, MvnModel):
        eps = rng.standard_normal((count, prior.dim))
        return prior.mean + eps @ prior.chol.lower.T
    if isinstance(prior, GmmModel):
        comps = rng.choice(prior.n_components, size=count, p=prior.weights)
        chols = [linalg.cholesky(c) for c in prior.covs]
        points = np.empty((count, prior.dim))
        for row, i in enumerate(comps):
            points[row] = prior.means[i] + chols[i].lower @ rng.standard_normal(prior.dim)
        return points
    if isinstance(prior, GammaModel):
        draws = rng.gamma(prior.alpha, 1.0 / prior.beta, (count, prior.dim))
        draws += 1e-3 * prior.alpha / prior.beta + 10.0 * h
        return prior.shift + prior.sign * draws
    if isinstance(prior, BoxLimitModel):
        # Stay inside the limits: there both gradients are exactly zero.
        # Boundary-crossing gradients are exercised by dedicated tests with
        # explicitly constructed points.
        width = prior.hi - prior.lo
        return rng.uniform(
            prior.lo + 0.05 * width, prior.hi - 0.05 * width, (count, prior.dim)
        )
    if isinstance(prior, VaeEnergyPrior):
        points = rng.normal(0.0, 0.7, (count, prior.dim))
        joints = points.reshape(count, -1, 3)
        norms = np.linalg.norm(joints, axis=2, keepdims=True)
        scale = np.where(norms > 2.5, 2.5 / norms, 1.0)
        return (joints * scale).reshape(count, prior.dim)
    raise TypeError(f"no sampling rule for prior type {type(prior).__name__}")


def run_grad_check(prior, count: int = 100, seed: int = 0, h: float = 1e-5) -> dict:
    points = sample_in_support(prior, count, seed, h)
    worst = max_relative_error(prior, points, h)
    return {"count": count, "seed": seed, "h": h, "max_relative_error": worst}
