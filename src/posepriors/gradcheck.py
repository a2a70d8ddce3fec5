"""Finite-difference validation of analytic prior gradients.

Shared by the CLI grad-check command and the acceptance suite. The
relative error per point is the infinity-norm gap between analytic and
central-difference gradients, normalized by max(1, both gradient norms),
which keeps near-zero gradients (e.g. box interiors) well-posed.
"""

from __future__ import annotations

import numpy as np


def _stencil(xs: np.ndarray, h: float) -> np.ndarray:
    """The (2 d n, d) rows x + h e_j and x - h e_j, for each point x and axis j in turn,
    made by one broadcast add: the stencil is the only full-size array."""
    d = xs.shape[1]
    offsets = np.zeros((2 * d, d))
    idx = np.arange(d)
    offsets[2 * idx, idx] = h
    offsets[2 * idx + 1, idx] = -h
    return (xs[:, None, :] + offsets).reshape(-1, d)


def _finite_diff_batch(prior, xs: np.ndarray, h: float) -> np.ndarray:
    """Central differences for all points at once via log_prob_many."""
    n, d = xs.shape
    values = prior.log_prob_many(_stencil(xs, h)).reshape(n, d, 2)
    return (values[:, :, 0] - values[:, :, 1]) / (2.0 * h)


def max_relative_error(prior, points: np.ndarray, h: float = 1e-5) -> float:
    """Worst-case relative gradient error over the given in-support points."""
    points = np.asarray(points, dtype=float)
    analytic = prior.grad_log_prob_many(points)
    numeric = _finite_diff_batch(prior, points, h)
    denom = np.maximum(1.0, np.maximum(np.abs(analytic).max(axis=1), np.abs(numeric).max(axis=1)))
    return float((np.abs(analytic - numeric).max(axis=1) / denom).max())


def sample_in_support(prior, count: int, seed: int, h: float = 1e-5) -> np.ndarray:
    """Seeded points strictly inside the prior's support, clear of kinks."""
    return prior.support_points(count, np.random.default_rng(seed), h)


def run_grad_check(prior, count: int = 100, seed: int = 0, h: float = 1e-5) -> dict:
    points = sample_in_support(prior, count, seed, h)
    worst = max_relative_error(prior, points, h)
    return {"count": count, "seed": seed, "h": h, "max_relative_error": worst}
