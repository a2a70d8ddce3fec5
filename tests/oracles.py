"""Reference implementations that tests compare the library against."""

import numpy as np


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


def reg_loss(pose_equiv) -> float:
    """Squared L2 norm of an axis-angle pose vector."""
    p = np.asarray(pose_equiv, dtype=float)
    return float(np.sum(p**2))
