"""Reference implementations that tests compare the library against."""

import math
from collections import deque

import numpy as np

from posepriors import recovery, rotations
from posepriors.errors import NumericalError
from posepriors.vae import TrainConfig


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


# The per-component Gaussian code that priors.py ran before it stacked the
# L_i^-1 over k; the GMM and MVN queries must keep its bits. ROW_BLOCK is
# fixed here: the block size decides which rows share a GEMM.
LOG_2PI = math.log(2.0 * math.pi)
ROW_BLOCK = 1024


def gaussian_log_joint(xs: np.ndarray, means, chols, log_w) -> np.ndarray:
    """(n, k) block of log N(x; mu_i, Sigma_i) + log w_i, one row per point."""
    n, d = xs.shape
    out = np.empty((n, len(chols)))
    for i, chol in enumerate(chols):
        for s in range(0, n, ROW_BLOCK):
            w = (xs[s : s + ROW_BLOCK] - means[i]) @ chol.inverse.T
            out[s : s + ROW_BLOCK, i] = np.einsum("nd,nd->n", w, w)
        out[:, i] = log_w[i] - 0.5 * (d * LOG_2PI + chol.log_det + out[:, i])
    return out


def logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    m = np.max(a, axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore"):
        return np.log(np.sum(np.exp(a - m), axis=axis)) + np.squeeze(m, axis=axis)


def gmm_whiten_components(gmm, chols, x: np.ndarray):
    """Responsibilities at x and the k whitened residuals L_i^-1 (x - mu_i); each
    Mahalanobis form is the squared norm gaussian_log_joint takes, by einsum."""
    whitened = [chol.inverse @ (x - mu) for mu, chol in zip(gmm.means, chols)]
    log_joint = np.array([log_w - 0.5 * (gmm.dim * LOG_2PI + chol.log_det
                                         + np.einsum("d,d->", w, w))
                          for log_w, chol, w in zip(np.log(gmm.weights), chols, whitened)])
    return np.exp(log_joint - logsumexp(log_joint, axis=0)), whitened


def gmm_grad(gmm, chols, x: np.ndarray) -> np.ndarray:
    r, whitened = gmm_whiten_components(gmm, chols, x)
    return -sum(r_i * (w @ chol.inverse) for r_i, w, chol in zip(r, whitened, chols))


def gmm_support_points(gmm, chols, count: int, rng: np.random.Generator) -> np.ndarray:
    """The per-row draw GmmModel.support_points made before it grouped rows by component."""
    comps = rng.choice(gmm.n_components, size=count, p=gmm.weights)
    points = np.empty((count, gmm.dim))
    for row, i in enumerate(comps):
        points[row] = gmm.means[i] + chols[i].lower @ rng.standard_normal(gmm.dim)
    return points


def finite_diff_stencil(xs: np.ndarray, h: float) -> np.ndarray:
    """The stencil gradcheck built with np.repeat, np.tile and an in-place add."""
    n, d = xs.shape
    shifted = np.repeat(xs, 2 * d, axis=0)
    offsets = np.zeros((2 * d, d))
    idx = np.arange(d)
    offsets[2 * idx, idx] = h
    offsets[2 * idx + 1, idx] = -h
    shifted += np.tile(offsets, (n, 1))
    return shifted


def worst_relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """The per-point loop gradcheck.max_relative_error reduced its gradients with."""
    worst = 0.0
    for ga, gn in zip(analytic, numeric):
        denom = max(1.0, float(np.max(np.abs(ga))), float(np.max(np.abs(gn))))
        worst = max(worst, float(np.max(np.abs(ga - gn))) / denom)
    return worst


# The optimizer vae.train ran before it took one flat parameter list: one
# (weight, bias) pair per layer, each updated by its own statement.
# train's parameters must keep its bits.
class Optimizer:
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


# The recovery loop and its helpers as recovery.py ran them before each trial
# point's masked residual was formed once and the norms and dot products were
# taken by ndarray methods: recover_pose must keep every output bit of this.
def initial_point(obs: recovery.Observation, prior, objective) -> tuple[np.ndarray, float]:
    """The observation with free dims from the prior's mode, and its objective.

    If the prior gives that point zero probability (infinite objective), the
    free dims retry from the prior's mean.
    """
    x = obs.values.copy()
    free = ~obs.mask
    if np.any(free):
        x[free] = prior.mode()[free]
    fx = objective(x)
    if fx == math.inf and np.any(free):
        x[free] = prior.mean_vector()[free]
        fx = objective(x)
    if fx == math.inf:
        raise NumericalError("prior assigns zero probability at every initialization")
    return x, fx


def lbfgs_direction(g: np.ndarray, pairs) -> np.ndarray:
    """-H g by the two-loop recursion over (s, y, 1 / s.y) pairs, oldest first.

    The initial inverse Hessian is s.y / y.y times the identity, from the
    newest pair.
    """
    q = g.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        alphas.append(rho * float(s @ q))
        q -= alphas[-1] * y
    s, y, _ = pairs[-1]
    q *= float(s @ y) / float(y @ y)
    for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
        q += (alpha - rho * float(y @ q)) * s
    return -q


def recover_pose(obs: recovery.Observation, prior, lam: float, max_iter: int = 500,
                 step: float = 1.0, tol: float = 1e-6) -> recovery.RecoveryResult:
    """The L-BFGS loop recovery.recover_pose ran before it formed each trial's
    masked residual once; see that function for the contract."""
    if not 0.0 <= lam < math.inf:
        raise ValueError("lam must be finite and non-negative")
    if prior.dim != obs.dim:
        raise ValueError(f"prior dim {prior.dim} does not match observation dim {obs.dim}")
    if max_iter < 1 or not (0.0 < step < math.inf and 0.0 < tol < math.inf):
        raise ValueError("invalid optimizer configuration")

    inv_var = 1.0 / (obs.noise_sigma**2)
    mask = obs.mask
    bound = prior.log_prob_bound

    def objective(x: np.ndarray, ceiling: float = math.inf) -> float:
        """The objective at x, or inf without a prior call where the data term
        and log_prob_bound show it is not below ceiling."""
        if not np.isfinite(x).all():  # a trial step that overflowed
            return float("inf")
        data = 0.5 * inv_var * float(np.sum((x[mask] - obs.values[mask]) ** 2))
        if lam == 0.0:
            return data
        if data - lam * bound >= ceiling:  # rounding is monotone: data - lam * lp is too
            return float("inf")
        lp = prior.log_prob(x)
        if lp == float("-inf"):
            return float("inf")
        return data - lam * lp

    def gradient(x: np.ndarray) -> np.ndarray:
        g = np.zeros_like(x)
        g[mask] = inv_var * (x[mask] - obs.values[mask])
        if lam > 0.0:
            g -= lam * prior.grad_log_prob(x)
        return g

    x, fx = initial_point(obs, prior, objective)
    trace = [fx]
    pairs = deque(maxlen=recovery._MEMORY)
    s = g_prev = None
    stop_reason = "max_iter"
    for iterations in range(1, max_iter + 1):
        g = gradient(x)
        grad_inf_norm = float(np.max(np.abs(g)))
        if grad_inf_norm < tol:
            stop_reason = "grad_tol"
            break
        if s is not None:
            y = g - g_prev
            sy = float(s @ y)
            if sy > 1e-12 * float(np.linalg.norm(s)) * float(np.linalg.norm(y)):
                pairs.append((s, y, 1.0 / sy))
        d = lbfgs_direction(g, pairs) if pairs else None
        if d is None or float(g @ d) >= 0.0:
            pairs.clear()
            d, t = -g, step
        else:
            t = 1.0
        for _ in range(recovery._MAX_HALVINGS + 1):
            candidate = x + t * d
            fc = objective(candidate, fx)
            if fc < fx:
                break
            t /= 2.0
        else:
            stop_reason = "stalled"
            break
        s, g_prev = candidate - x, g
        x, fx = candidate, fc
        trace.append(fx)
    return recovery.RecoveryResult(
        estimate=x, objective_trace=trace, iterations_used=iterations,
        converged=stop_reason == "grad_tol", stop_reason=stop_reason,
        grad_inf_norm=grad_inf_norm,
    )


# Reference forms of exp, exp_vjp and det3_grad through np.cross, with
# every Taylor branch evaluated: the rotation kernels must give these bits
# exactly.
def coefficients_oracle(theta):
    t2 = theta * theta
    small = theta < 1e-3
    t = np.where(small, 1.0, theta)
    half = np.sin(0.5 * t) / t
    a = np.where(small, 1.0 - t2 / 6.0 * (1.0 - t2 / 20.0), np.sin(t) / t)
    b = np.where(small, 0.5 - t2 / 24.0 * (1.0 - t2 / 30.0), 2.0 * half * half)
    c = np.where(small, (1.0 - t2 / 20.0 * (1.0 - t2 / 42.0)) / 6.0, (t - np.sin(t)) / t**3)
    return a, b, c


def exp_oracle(w):
    skew = np.cross(np.eye(3), w[..., None, :])
    t2 = rotations._dot(w, w)[..., None, None]
    a, b, _ = coefficients_oracle(np.sqrt(t2))
    return np.eye(3) + a * skew + b * (w[..., :, None] * w[..., None, :] - t2 * np.eye(3))


def exp_vjp_oracle(w, r, g):
    cols = np.cross(np.swapaxes(r, -1, -2), np.swapaxes(g, -1, -2))
    a_vec = cols[..., 0, :] + cols[..., 1, :] + cols[..., 2, :]
    a, b, c = coefficients_oracle(np.sqrt(rotations._dot(w, w))[..., None])
    return a * a_vec - b * np.cross(w, a_vec) + c * rotations._dot(w, a_vec)[..., None] * w


def det3_grad_oracle(m):
    m0, m1, m2 = m[..., 0, :], m[..., 1, :], m[..., 2, :]
    return np.stack([np.cross(m1, m2), np.cross(m2, m0), np.cross(m0, m1)], axis=-2)
