"""Dense symmetric linear algebra kernel.

LAPACK (numpy.linalg) Cholesky with an escalating diagonal-jitter retry
policy. The factor caches L^-1: the priors whiten through it, and
chol_solve applies it twice for one right-hand side. Symmetric eigen by
LAPACK, with cyclic Jacobi kept as the tests' reference. Pure functions
over float64 ndarrays; inputs are symmetrized defensively so callers may
pass the raw output of a covariance accumulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError

_MAX_SWEEPS = 100
_JITTER_ESCALATIONS = 6


def symmetrize(a) -> np.ndarray:
    """Return (A + A.T) / 2 as a fresh float64 array, validating shape."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    return (a + a.T) / 2.0


@dataclass(frozen=True)
class EigenDecomp:
    """Orthonormal eigenbasis (columns), eigenvalues sorted descending."""

    basis: np.ndarray
    eigenvalues: np.ndarray


def _canonical_eigen(eigenvalues: np.ndarray, basis: np.ndarray) -> EigenDecomp:
    """Sort eigenpairs descending; flip each column so its largest-magnitude
    entry is non-negative, which makes the principal axes deterministic."""
    order = np.argsort(-eigenvalues, kind="stable")
    basis = basis[:, order]
    peak = basis[np.argmax(np.abs(basis), axis=0), np.arange(basis.shape[1])]
    return EigenDecomp(basis=np.where(peak < 0.0, -basis, basis),
                       eigenvalues=eigenvalues[order])


@dataclass(frozen=True)
class CholFactor:
    """Lower-triangular factor L with L @ L.T equal to the (jittered) input.

    log_det is the log-determinant of the factored matrix, i.e.
    2 * sum(log(diag(L))). jitter_applied records the diagonal shift that
    was needed to reach positive definiteness (0.0 for healthy input).
    inverse is L^-1, computed once so every solve is a matrix product.
    The factor keeps its own copy of lower; lower and inverse are read-only.
    """

    lower: np.ndarray
    log_det: float
    jitter_applied: float
    inverse: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        lower = np.array(self.lower, dtype=float)
        inverse = np.tril(np.linalg.inv(lower))
        lower.flags.writeable = inverse.flags.writeable = False
        vars(self).update(lower=lower, inverse=inverse)

    @property
    def n(self) -> int:
        return self.lower.shape[0]


def jacobi_eigen(a, tol: float = 1e-12) -> EigenDecomp:
    """Eigendecomposition of a symmetric matrix by cyclic Jacobi rotations.

    Sweeps rotate away off-diagonal entries until the largest one drops
    below ``tol``. Eigenpairs come back sorted by descending eigenvalue,
    and each basis column is flipped so its largest-magnitude entry is
    non-negative, as eigh returns them.

    Raises NumericalError if 100 sweeps do not converge.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    d = symmetrize(a)
    n = d.shape[0]
    v = np.eye(n)
    iu = np.triu_indices(n, k=1)
    off = float(np.max(np.abs(d[iu]), initial=0.0))
    for _ in range(_MAX_SWEEPS):
        if off < tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = d[p, q]
                if apq == 0.0:
                    continue
                tau = (d[q, q] - d[p, p]) / (2.0 * apq)
                t = 1.0 / (abs(tau) + math.hypot(1.0, tau))
                if tau < 0.0:
                    t = -t
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                # A <- J.T A J with J the (p, q) plane rotation.
                cp = d[:, p].copy()
                cq = d[:, q].copy()
                d[:, p] = c * cp - s * cq
                d[:, q] = s * cp + c * cq
                rp = d[p, :].copy()
                rq = d[q, :].copy()
                d[p, :] = c * rp - s * rq
                d[q, :] = s * rp + c * rq
                d[p, q] = 0.0
                d[q, p] = 0.0
                vp = v[:, p].copy()
                vq = v[:, q].copy()
                v[:, p] = c * vp - s * vq
                v[:, q] = s * vp + c * vq
        off = float(np.max(np.abs(d[iu]), initial=0.0))
    else:
        raise NumericalError(
            f"jacobi_eigen did not converge after {_MAX_SWEEPS} sweeps; "
            f"max off-diagonal magnitude {off:.3e}"
        )
    return _canonical_eigen(np.diag(d).copy(), v)


def eigh(a) -> EigenDecomp:
    """Symmetric eigendecomposition by LAPACK, ordered and signed as jacobi_eigen."""
    eigenvalues, basis = np.linalg.eigh(symmetrize(a))
    return _canonical_eigen(eigenvalues, basis)


def cholesky(a, base_jitter: float = 1e-10) -> CholFactor:
    """Lower Cholesky factorization with escalating diagonal jitter.

    A failed pivot triggers retries with base_jitter * 10**k added to the
    diagonal, k = 0..5. Raises NumericalError once escalation is exhausted.
    """
    if base_jitter < 0:
        raise ValueError("base_jitter must be non-negative")
    a = symmetrize(a)
    jitters = [0.0] + [base_jitter * 10.0**k for k in range(_JITTER_ESCALATIONS)]
    for jitter in jitters:
        try:
            lower = np.linalg.cholesky(a + jitter * np.eye(a.shape[0]))
        except np.linalg.LinAlgError:
            continue
        log_det = 2.0 * float(np.sum(np.log(np.diag(lower))))
        return CholFactor(lower=lower, log_det=log_det, jitter_applied=jitter)
    raise NumericalError("matrix not positive definite")


def chol_solve(f: CholFactor, b) -> np.ndarray:
    """Solve (L @ L.T) y = b as L^-T (L^-1 b)."""
    b = np.asarray(b, dtype=float)
    if b.shape != (f.n,):
        raise ValueError(f"rhs has shape {b.shape}, expected ({f.n},)")
    return f.inverse.T @ (f.inverse @ b)
