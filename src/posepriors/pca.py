"""Principal-component diagnostics for pose datasets.

Covariance eigen-analysis, reorientation of points into principal
coordinates, 1D normal fits along a principal component, and the
probability mass a fitted normal assigns outside a feasible interval.
The last number quantifies how badly a normal prior leaks probability
into physically impossible joint configurations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .posedata import sample_moments, samples_of

SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class PcaModel:
    """Sample mean, orthonormal eigenbasis (columns), descending eigenvalues."""

    mean: np.ndarray
    basis: np.ndarray
    eigenvalues: np.ndarray

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


@dataclass(frozen=True)
class Normal1D:
    mu: float
    sigma: float

    def log_pdf(self, x):
        z = (np.asarray(x, dtype=float) - self.mu) / self.sigma
        return -0.5 * z * z - math.log(self.sigma) - 0.5 * math.log(2.0 * math.pi)


@dataclass(frozen=True)
class Histogram1D:
    edges: np.ndarray
    counts: np.ndarray
    total: int


def fit_pca(data, dims=None) -> PcaModel:
    """Fit mean and covariance eigenstructure over the selected dimensions.

    Covariance uses the unbiased N-1 divisor. Eigenvalues in [-1e-10, 0)
    are clamped to zero so that rank-deficient data yields a valid model.
    """
    x = samples_of(data)
    if x.shape[0] < 2:
        raise ValueError("PCA needs at least 2 samples")
    if dims is not None:
        dims = list(dims)
        if not dims:
            raise ValueError("dims subset must be non-empty")
        if any(d < 0 or d >= x.shape[1] for d in dims):
            raise ValueError("dims subset out of range")
        x = x[:, dims]
    mean, cov = sample_moments(x)
    eig = linalg.eigh(cov)
    eigenvalues = eig.eigenvalues.copy()
    if np.any(eigenvalues < -1e-10):
        raise ValueError("covariance has a significantly negative eigenvalue")
    eigenvalues[eigenvalues < 0.0] = 0.0
    return PcaModel(mean=mean, basis=eig.basis, eigenvalues=eigenvalues)


def reorient(model: PcaModel, points) -> np.ndarray:
    """Map (n, d) points, or one (d,) point, into principal coordinates: U.T @ (p - mean)."""
    p = np.asarray(points, dtype=float)
    if p.shape[-1] != model.dim:
        raise ValueError(f"points have dim {p.shape[-1]}, model has {model.dim}")
    return (p - model.mean) @ model.basis


def restore(model: PcaModel, coords) -> np.ndarray:
    """Inverse of reorient: U @ q + mean per point."""
    return np.asarray(coords, dtype=float) @ model.basis.T + model.mean


def fit_normal_1d(samples) -> Normal1D:
    """Sample mean and unbiased standard deviation of 1D data."""
    x = np.asarray(samples, dtype=float).ravel()
    if x.shape[0] < 2:
        raise ValueError("need at least 2 samples")
    mu = float(x.mean())
    var = float(((x - mu) ** 2).sum() / (x.shape[0] - 1))
    if var <= 0.0:
        raise ValueError("degenerate variance")
    return Normal1D(mu=mu, sigma=math.sqrt(var))


def histogram(samples, bins: int) -> Histogram1D:
    """Equal-width histogram over [min, max]; the max lands in the last bin.

    All-equal input collapses to a single spike: the span is forced to
    1e-9 and every sample counts into bin 0.
    """
    x = np.asarray(samples, dtype=float).ravel()
    if x.shape[0] == 0:
        raise ValueError("empty samples")
    if bins < 1:
        raise ValueError("bins must be >= 1")
    lo = float(x.min())
    hi = float(x.max())
    span = hi - lo
    if span <= 0.0:
        span = 1e-9
    edges = np.linspace(lo, lo + span, bins + 1)
    idx = np.floor((x - lo) / span * bins).astype(int)
    idx = np.clip(idx, 0, bins - 1)
    counts = np.bincount(idx, minlength=bins)
    return Histogram1D(edges=edges, counts=counts, total=int(x.shape[0]))


def normal_cdf(z: float) -> float:
    """Standard normal CDF via erf."""
    return 0.5 * (1.0 + math.erf(z / SQRT2))


def infeasible_mass(n: Normal1D, feasible_lo: float, feasible_hi: float) -> float:
    """Probability the fitted normal assigns outside the feasible interval."""
    if not feasible_lo < feasible_hi:
        raise ValueError("requires feasible_lo < feasible_hi")
    inside = normal_cdf((feasible_hi - n.mu) / n.sigma) - normal_cdf(
        (feasible_lo - n.mu) / n.sigma
    )
    return 1.0 - inside
