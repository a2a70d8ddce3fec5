"""Batched rotation kernels: axis-angle (..., 3) <-> rotation matrices (..., 3, 3).

Every kernel works elementwise over the leading axes, so a stack of poses
gives, bit for bit, the results of the same call made one pose at a time.
The coefficients A = sin t / t, B = (1 - cos t) / t^2 and
C = (t - sin t) / t^3 switch to their Taylor series below _SERIES_ANGLE,
where the closed forms divide zero by zero or lose digits to cancellation;
the series are evaluated only when some angle in the stack is that small.
_exp_forward returns them with the rotations, and exp_vjp takes them from
there instead of evaluating them a second time.
_cross takes the products np.cross takes, so it gives np.cross's bits
without its dispatch cost, which dominates on one 22-joint pose.
"""

from __future__ import annotations

import numpy as np

_SERIES_ANGLE = 1e-3  # the series below are exact to 2e-22 relative here
_EYE = np.eye(3)
_EYE.flags.writeable = False


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return u[..., 0] * v[..., 0] + u[..., 1] * v[..., 1] + u[..., 2] * v[..., 2]


def _cross(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """u x v over the last axis, from the products np.cross takes, so the same bits."""
    return np.stack([u[..., 1] * v[..., 2] - u[..., 2] * v[..., 1],
                     u[..., 2] * v[..., 0] - u[..., 0] * v[..., 2],
                     u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]], axis=-1)


def _coefficients(theta: np.ndarray):
    """A, B, C of the exponential map and its Jacobian at angles theta."""
    small = theta < _SERIES_ANGLE
    t = np.where(small, 1.0, theta)
    sin_t = np.sin(t)
    half = np.sin(0.5 * t) / t  # B = 2 (sin(t/2) / t)^2 does not cancel
    a, b, c = sin_t / t, 2.0 * half * half, (t - sin_t) / t**3
    if np.any(small):
        t2 = theta * theta
        a = np.where(small, 1.0 - t2 / 6.0 * (1.0 - t2 / 20.0), a)
        b = np.where(small, 0.5 - t2 / 24.0 * (1.0 - t2 / 30.0), b)
        c = np.where(small, (1.0 - t2 / 20.0 * (1.0 - t2 / 42.0)) / 6.0, c)
    return a, b, c


def _exp_forward(w):
    """exp(w) and the (A, B, C) it was built from, each (..., 1, 1), for exp_vjp."""
    w = np.asarray(w, dtype=float)
    # Row i of [w]x is np.cross(e_i, w) up to the signs of its zeros, which R
    # cannot show: I + A [w]x adds +0 or 1 to them, and +0 + -0 = +0.
    w0, w1, w2 = w[..., 0], w[..., 1], w[..., 2]
    zero = np.zeros_like(w0)
    skew = np.stack([zero, -w2, w1, w2, zero, -w0, -w1, w0, zero], axis=-1)
    skew = skew.reshape(w.shape + (3,))
    t2 = _dot(w, w)[..., None, None]
    coefficients = _coefficients(np.sqrt(t2))
    a, b, _ = coefficients
    return _EYE + a * skew + b * (w[..., :, None] * w[..., None, :] - t2 * _EYE), coefficients


def exp(w) -> np.ndarray:
    """Rodrigues map R = I + A [w]x + B [w]x^2, with [w]x^2 = w w^T - t^2 I."""
    return _exp_forward(w)[0]


def angle(r):
    """Rotation angle t = atan2(|v| / 2, (tr R - 1) / 2), with v = vee(R - R^T).

    v = 2 sin(t) k, so the angle is accurate at both 0 and pi, unlike
    acos((tr R - 1) / 2). Returns v, s = sin t = |v| / 2, c = cos t and t.
    """
    r = np.asarray(r, dtype=float)
    v = np.stack([r[..., 2, 1] - r[..., 1, 2], r[..., 0, 2] - r[..., 2, 0],
                  r[..., 1, 0] - r[..., 0, 1]], axis=-1)
    s = 0.5 * np.sqrt(_dot(v, v))
    c = 0.5 * (r[..., 0, 0] + r[..., 1, 1] + r[..., 2, 2] - 1.0)
    return v, s, c, np.arctan2(s, c)


def log(r) -> np.ndarray:
    """Inverse Rodrigues map; angles in [0, pi], taken from `angle`.

    Up to pi / 2 the axis is v / |v|. Beyond it, where v fades, the axis is
    the dominant column of the symmetric part (R + R^T) / 2 - cos(t) I =
    (1 - cos t) k k^T, signed to agree with v; with v = 0 (t = pi) its
    largest entry is made positive.
    """
    r = np.asarray(r, dtype=float)
    v, s, c, theta = angle(r)
    w = v * np.divide(theta, 2.0 * s, out=np.full_like(s, 0.5), where=s > 0.0)[..., None]
    far = c < 0.0
    if np.any(far):
        rf, vf = r[far], v[far]
        sym = 0.5 * (rf + np.swapaxes(rf, -1, -2)) - c[far][:, None, None] * np.eye(3)
        rows = np.arange(len(rf))
        col = sym[rows, :, np.argmax(np.diagonal(sym, axis1=-2, axis2=-1), axis=-1)]
        axis = col / np.sqrt(_dot(col, col))[:, None]
        flip = (_dot(vf, axis) < 0.0) | (
            np.all(vf == 0.0, axis=-1) & (axis[rows, np.argmax(np.abs(axis), axis=-1)] < 0.0)
        )
        w[far] = theta[far][:, None] * np.where(flip[:, None], -axis, axis)
    return w


def exp_vjp(w, r, coefficients, g) -> np.ndarray:
    """Pull a gradient g on R = exp(w) back to w, given the (A, B, C) that
    _exp_forward(w) returned with R.

    The derivative of the exponential map (Gallego & Yezzi, J. Math.
    Imaging Vis. 2015) gives g_w = (w (w.a) + (I - R)^T (a x w)) / t^2
    with a = vee(G R^T - R G^T) = sum_b R e_b x G e_b. Expanded, that is
    A a - B (w x a) + C w (w.a), which tends to a at t = 0.
    """
    w = np.asarray(w, dtype=float)
    cols = _cross(np.swapaxes(r, -1, -2), np.swapaxes(g, -1, -2))
    a_vec = cols[..., 0, :] + cols[..., 1, :] + cols[..., 2, :]
    a, b, c = (k[..., 0] for k in coefficients)
    return a * a_vec - b * _cross(w, a_vec) + c * _dot(w, a_vec)[..., None] * w


def det3(m) -> np.ndarray:
    """Cofactor determinant of a (..., 3, 3) stack."""
    return (
        m[..., 0, 0] * (m[..., 1, 1] * m[..., 2, 2] - m[..., 1, 2] * m[..., 2, 1])
        - m[..., 0, 1] * (m[..., 1, 0] * m[..., 2, 2] - m[..., 1, 2] * m[..., 2, 0])
        + m[..., 0, 2] * (m[..., 1, 0] * m[..., 2, 1] - m[..., 1, 1] * m[..., 2, 0])
    )


def det3_grad(m) -> np.ndarray:
    """Gradient of det3: row i is the cross product of the other two rows."""
    m0, m1, m2 = m[..., 0, :], m[..., 1, :], m[..., 2, :]
    return np.stack([_cross(m1, m2), _cross(m2, m0), _cross(m0, m1)], axis=-2)


def _floor(x: np.ndarray) -> np.ndarray:
    """x with magnitudes below 1e-12 raised to 1e-12, keeping the sign (0 -> +)."""
    return np.where(np.abs(x) < 1e-12, np.where(x < 0.0, -1e-12, 1e-12), x)


def polar(a):
    """Nearest rotation Q = A H^-1 to each block of a (..., 3, 3) stack, and its VJP.

    H = V diag(h) V^T is the signed square root of A^T A: h holds the
    singular values from one eigh of the whole stack, in descending order,
    the last negated when det A < 0, so det Q = +1 (Higham 1986). The VJP
    pulls a gradient G on Q back to A: T solves the Sylvester equation
    T H + H T = Q^T G H^-1, which in H's eigenbasis is division by
    h_i + h_j, and dL/dA = G H^-1 - A (T + T^T).
    """
    a = np.asarray(a, dtype=float)
    lam, v = np.linalg.eigh(np.swapaxes(a, -1, -2) @ a)
    h = np.sqrt(np.maximum(lam[..., ::-1], 0.0))
    v = v[..., ::-1]
    h[..., 2] *= np.where(det3(a) >= 0.0, 1.0, -1.0)
    h = _floor(h)
    vt = np.swapaxes(v, -1, -2)
    h_inv = (v / h[..., None, :]) @ vt
    q = a @ h_inv

    def vjp(g_q):
        g_h = g_q @ h_inv
        w_tilde = vt @ (np.swapaxes(q, -1, -2) @ g_h) @ v
        t = v @ (w_tilde / _floor(h[..., :, None] + h[..., None, :])) @ vt
        return g_h - a @ (t + np.swapaxes(t, -1, -2))

    return q, vjp


def project_to_rotations(r_hat) -> np.ndarray:
    """Project each raw 3x3 block of a stack to the nearest rotation (det +1)."""
    return polar(r_hat)[0]
