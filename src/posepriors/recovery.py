"""Pose recovery from noisy observations, regularized by a prior.

Minimizes a Gaussian data term plus the negated prior log-probability by
L-BFGS (Liu & Nocedal, Math. Prog. 1989): the two-loop recursion over the
last ten curvature pairs turns the gradient into a quasi-Newton direction,
and a backtracking line search accepts a trial point only if the
objective strictly decreases. The Gaussian data term makes the
multivariate-normal case solvable in closed form, which the tests use as
an oracle.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError

_MAX_HALVINGS = 30
_MEMORY = 10  # curvature pairs kept


@dataclass
class Observation:
    """Noisy pose values with a per-dimension observed mask."""

    values: np.ndarray
    noise_sigma: float
    mask: np.ndarray | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 1 or not np.all(np.isfinite(self.values)):
            raise ValueError("observation values must be a finite vector")
        if not (self.noise_sigma > 0.0 and math.isfinite(self.noise_sigma)):
            raise ValueError("noise_sigma must be positive")
        if self.mask is None:
            self.mask = np.ones(self.values.shape[0], dtype=bool)
        else:
            self.mask = np.asarray(self.mask, dtype=bool)
        if self.mask.shape != self.values.shape:
            raise ValueError("mask length must match values")
        if not np.any(self.mask):
            raise ValueError("at least one dimension must be observed")

    @property
    def dim(self) -> int:
        return self.values.shape[0]


@dataclass
class RecoveryResult:
    """Outcome of `recover_pose`.

    stop_reason is "grad_tol" (the gradient infinity-norm fell below tol),
    "stalled" (no step along the search direction decreased the objective,
    which happens at float precision) or "max_iter" (the gradient budget
    ran out). converged is stop_reason == "grad_tol". grad_inf_norm is the
    infinity-norm of the last gradient computed.
    """

    estimate: np.ndarray
    objective_trace: list
    iterations_used: int
    converged: bool
    stop_reason: str
    grad_inf_norm: float


def _initial_point(obs: Observation, prior, objective) -> tuple[np.ndarray, float]:
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


def _lbfgs_direction(g: np.ndarray, pairs) -> np.ndarray:
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


def recover_pose(obs: Observation, prior, lam: float, max_iter: int = 500,
                 step: float = 1.0, tol: float = 1e-6) -> RecoveryResult:
    """Minimize sum_masked (x_d - obs_d)^2 / (2 sigma^2) - lam * log_prob(x).

    Each iteration computes one gradient; max_iter bounds their number. The
    search direction is L-BFGS's, and its line search starts at unit step.
    While the curvature memory is empty (the first iteration, and after the
    memory was cleared because the L-BFGS direction was not a descent
    direction), the search goes along the negated gradient starting at
    `step`. A curvature pair is kept only if s.y > 1e-12 |s| |y|. Every
    trial step is halved until the objective strictly decreases (at most 30
    halvings), so the objective trace is non-increasing by construction; a
    trial point that overflows to a non-finite entry scores inf, as a point
    of zero prior probability does. A trial point skips the prior when its
    data term minus lam * prior.log_prob_bound (0 for box limits and the
    VAE energy, the peak value for the Gaussians, inf for gamma) is already
    at least the current objective: no prior value can make it a decrease,
    so the same trial is rejected as with the call, every output bit is
    the same, and only fewer log_prob calls are made.
    The run stops when the gradient infinity-norm drops below tol
    ("grad_tol"), when no halving decreases the objective ("stalled") or
    when the budget runs out ("max_iter"); see `RecoveryResult`.
    """
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

    x, fx = _initial_point(obs, prior, objective)
    trace = [fx]
    pairs = deque(maxlen=_MEMORY)
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
        d = _lbfgs_direction(g, pairs) if pairs else None
        if d is None or float(g @ d) >= 0.0:
            pairs.clear()
            d, t = -g, step
        else:
            t = 1.0
        for _ in range(_MAX_HALVINGS + 1):
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
    return RecoveryResult(
        estimate=x, objective_trace=trace, iterations_used=iterations,
        converged=stop_reason == "grad_tol", stop_reason=stop_reason,
        grad_inf_norm=grad_inf_norm,
    )
