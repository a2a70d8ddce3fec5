"""Closed-form pose prior families behind one contract.

Every query enters through PosePrior: log_prob_many(xs) -> (n,) values
and grad_log_prob_many(xs) -> (n, d) gradients for an (n, d) batch, and
log_prob(x) and grad_log_prob(x) at a point, everything in log space (a
raw 66-dimensional Gaussian PDF underflows float64). PosePrior checks the
input once; a family holds only the math, _log_prob_rows and _grad_rows
on checked rows, and a point query is one row of them. Gaussian gradient
rows and one-row values take their k products in one stacked call, the
gemv or dot each component alone would make, so every gradient row has
its point gradient's bits; a batch of values takes one GEMM per
component and 1024-row block, so a row can differ from its one-row value
in its last bits. Families: soft box limits, multivariate normal,
per-dimension gamma with sign/shift, Gaussian mixtures fit by EM, and a
temporal mixture over (dt, dtheta) motion deltas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import DataError, NumericalError
from .posedata import TemporalDelta, samples_of

LOG_2PI = math.log(2.0 * math.pi)


def _check_vec(x, dim: int) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (dim,):
        raise DataError(f"vector has shape {x.shape}, expected ({dim},)")
    if not np.isfinite(x).all():
        raise DataError("vector has non-finite entries")
    return x


# Rows whitened per GEMM. Blocks keep the temporaries in cache: on 10^4
# 66-d rows this is about 1.5x faster than one product over all rows. The
# block size fixes which rows share a GEMM, and so the bits of the rows.
_ROW_BLOCK = 1024


def _stack_factors(chols) -> tuple[np.ndarray, np.ndarray]:
    """The (k, d, d) stack of the cached L_i^-1 and the (k,) log-determinants."""
    return np.stack([chol.inverse for chol in chols]), np.array([chol.log_det for chol in chols])


def _gaussian_log_joint(xs: np.ndarray, means, inv, log_det, log_w) -> np.ndarray:
    """(n, k) block of log N(x; mu_i, Sigma_i) + log w_i, one row per point.

    The centred points are whitened through the stacked L_i^-1 (inv); the
    Mahalanobis form is each whitened row's squared norm.
    """
    n, d = xs.shape
    if n == 1:  # k stacked gemv calls, each the one a one-row GEMM makes: same bits
        w = np.matmul(xs - means[:, None], inv.swapaxes(1, 2))[:, 0]
        maha = np.einsum("nd,nd->n", w, w)[None]
    else:
        maha = np.empty((n, len(inv)))
        for i in range(len(inv)):
            for s in range(0, n, _ROW_BLOCK):
                w = (xs[s : s + _ROW_BLOCK] - means[i]) @ inv[i].T
                maha[s : s + _ROW_BLOCK, i] = np.einsum("nd,nd->n", w, w)
    return log_w - 0.5 * (d * LOG_2PI + log_det + maha)


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    m = a.max(axis=axis, keepdims=True)
    if np.isfinite(m).all():  # every sum is then at least 1: no log(0)
        return np.log(np.exp(a - m).sum(axis=axis)) + m.squeeze(axis=axis)
    with np.errstate(divide="ignore"):  # a row of -inf sums to 0; log(0) is its -inf
        m = np.where(np.isfinite(m), m, 0.0)
        return np.log(np.exp(a - m).sum(axis=axis)) + m.squeeze(axis=axis)


class PosePrior:
    """Base of every prior: its public methods are the only query entry.

    They raise DataError on a batch that is not (n, dim) or a point that is
    not a finite (dim,) vector. Subclasses provide dim, _log_prob_rows(xs)
    and _grad_rows(xs) on a checked (n, dim) batch, and support_points for
    grad checks; a family saved as JSON adds MODEL_TYPE, to_params and
    from_params.
    """

    def _check_batch(self, xs) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        if xs.ndim != 2 or xs.shape[1] != self.dim:
            raise DataError(f"batch has shape {xs.shape}, expected (n, {self.dim})")
        return xs

    def log_prob_many(self, xs) -> np.ndarray:
        return self._log_prob_rows(self._check_batch(xs))

    def grad_log_prob_many(self, xs) -> np.ndarray:
        return self._grad_rows(self._check_batch(xs))

    def log_prob(self, x) -> float:
        return float(self.log_prob_many(_check_vec(x, self.dim)[None])[0])

    def grad_log_prob(self, x) -> np.ndarray:
        return self._grad_rows(_check_vec(x, self.dim)[None])[0]

    def mode(self) -> np.ndarray:
        """Where pose recovery starts its unobserved dims; zeros by default."""
        return np.zeros(self.dim)

    def mean_vector(self) -> np.ndarray:
        """Recovery's restart point when the mode scores zero probability."""
        return self.mode()

    def support_points(self, count: int, rng: np.random.Generator, h: float) -> np.ndarray:
        """(count, dim) seeded points strictly inside the support, clear of kinks."""
        raise TypeError(f"no sampling rule for prior type {type(self).__name__}")


# ---------------------------------------------------------------------------
# Multivariate normal


@dataclass
class MvnModel(PosePrior):
    """Gaussian over pose vectors; covariance kept with its Cholesky factor."""

    MODEL_TYPE = "mvn"

    mean: np.ndarray
    cov: np.ndarray
    chol: linalg.CholFactor
    fit_meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self._inv, self._log_det = _stack_factors([self.chol])

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    def _log_prob_rows(self, xs: np.ndarray) -> np.ndarray:
        return _gaussian_log_joint(xs, self.mean[None], self._inv, self._log_det, 0.0)[:, 0]

    def _grad_rows(self, xs: np.ndarray) -> np.ndarray:
        w = np.matmul(self._inv, (xs - self.mean)[:, :, None])  # one gemv per row
        return -np.matmul(w.swapaxes(1, 2), self._inv)[:, 0]

    def support_points(self, count: int, rng: np.random.Generator, h: float) -> np.ndarray:
        eps = rng.standard_normal((count, self.dim))
        return self.mean + eps @ self.chol.lower.T

    def mode(self) -> np.ndarray:
        return self.mean.copy()

    def to_params(self) -> dict:
        return {"mean": self.mean, "cov": self.cov}

    @classmethod
    def from_params(cls, params, meta) -> "MvnModel":
        model = mvn_from_moments(params["mean"], params["cov"])
        model.fit_meta = dict(meta)
        return model


def mvn_from_moments(mean, cov, base_jitter: float = 1e-10, fit_meta=None) -> MvnModel:
    mean = np.asarray(mean, dtype=float)
    cov = linalg.symmetrize(cov)
    chol = linalg.cholesky(cov, base_jitter=base_jitter)
    meta = dict(fit_meta or {})
    meta.setdefault("jitter", chol.jitter_applied)
    return MvnModel(mean=mean, cov=cov, chol=chol, fit_meta=meta)


def fit_mvn(data) -> MvnModel:
    """Sample mean and unbiased covariance, factored with jitter escalation."""
    x = samples_of(data)
    if x.shape[0] < 2:
        raise ValueError("fit_mvn needs at least 2 samples")
    mean = x.mean(axis=0)
    centered = x - mean
    cov = centered.T @ centered / (x.shape[0] - 1)
    model = mvn_from_moments(mean, cov)
    model.fit_meta["final_loglik"] = float(np.sum(model.log_prob_many(x)))
    return model


# ---------------------------------------------------------------------------
# Per-dimension gamma


@dataclass
class GammaModel(PosePrior):
    """Independent gamma per dimension with sign and shift.

    Support per dimension is sign * (x - shift) > 0. Queries outside the
    support score -inf (a comparable sentinel for optimizers), never an
    exception; gradients outside the support do raise.
    """

    MODEL_TYPE = "gamma"

    alpha: np.ndarray
    beta: np.ndarray
    sign: np.ndarray
    shift: np.ndarray
    fit_meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.alpha = np.asarray(self.alpha, dtype=float)
        self.beta = np.asarray(self.beta, dtype=float)
        self.sign = np.asarray(self.sign, dtype=float)
        self.shift = np.asarray(self.shift, dtype=float)
        if np.any(self.alpha <= 0.0) or np.any(self.beta <= 0.0):
            raise ValueError("gamma shape and rate must be positive")
        if not np.all(np.isin(self.sign, (-1.0, 1.0))):
            raise ValueError("sign entries must be -1 or +1")
        # Normalizing constant is fixed per model; lgamma once, not per query.
        self._log_norm = float(
            np.sum(self.alpha * np.log(self.beta))
            - sum(math.lgamma(a) for a in self.alpha)
        )

    @property
    def dim(self) -> int:
        return self.alpha.shape[0]

    def _log_prob_rows(self, xs: np.ndarray) -> np.ndarray:
        y = self.sign * (xs - self.shift)
        ok = np.all(y > 0.0, axis=1)
        out = np.full(xs.shape[0], -np.inf)
        if np.any(ok):
            yo = y[ok]
            out[ok] = self._log_norm + np.sum(
                (self.alpha - 1.0) * np.log(yo) - self.beta * yo, axis=1
            )
        return out

    def _grad_rows(self, xs: np.ndarray) -> np.ndarray:
        y = self.sign * (xs - self.shift)
        if np.any(y <= 0.0):
            raise ValueError("point is on or outside the gamma support boundary")
        return self.sign * ((self.alpha - 1.0) / y - self.beta)

    def support_points(self, count: int, rng: np.random.Generator, h: float) -> np.ndarray:
        draws = rng.gamma(self.alpha, 1.0 / self.beta, (count, self.dim))
        draws += 1e-3 * self.alpha / self.beta + 10.0 * h
        return self.shift + self.sign * draws

    def mode(self) -> np.ndarray:
        # True mode sits on the support boundary when alpha <= 1; fall back
        # to the mean there so the result is strictly inside the support.
        inner = np.where(self.alpha > 1.0, self.alpha - 1.0, self.alpha)
        return self.shift + self.sign * inner / self.beta

    def mean_vector(self) -> np.ndarray:
        return self.shift + self.sign * self.alpha / self.beta

    def to_params(self) -> dict:
        return {"alpha": self.alpha, "beta": self.beta,
                "sign": [int(s) for s in self.sign], "shift": self.shift}

    @classmethod
    def from_params(cls, params, meta) -> "GammaModel":
        return cls(alpha=params["alpha"], beta=params["beta"], sign=params["sign"],
                   shift=params["shift"], fit_meta=dict(meta))


def fit_gamma(data, margin: float = 1e-6) -> GammaModel:
    """Method-of-moments gamma fit with per-dimension sign and shift.

    Orientation follows the sample skewness (s = +1 when skewness >= 0).
    The shift places the support boundary just outside the data range so
    every training point stays strictly interior.
    """
    x = samples_of(data)
    n = x.shape[0]
    if n < 10:
        raise ValueError("fit_gamma needs at least 10 samples")
    mean = x.mean(axis=0)
    centered = x - mean
    var_pop = np.mean(centered**2, axis=0)
    if np.any(var_pop <= 0.0):
        bad = int(np.argmax(var_pop <= 0.0))
        raise ValueError(f"zero variance in dimension {bad}")
    skew = np.mean(centered**3, axis=0) / var_pop**1.5
    sign = np.where(skew >= 0.0, 1.0, -1.0)
    shift = np.where(sign > 0.0, x.min(axis=0) - margin, x.max(axis=0) + margin)
    y = sign * (x - shift)
    my = y.mean(axis=0)
    vy = y.var(axis=0, ddof=1)
    alpha = my**2 / vy
    beta = my / vy
    return GammaModel(alpha=alpha, beta=beta, sign=sign, shift=shift)


# ---------------------------------------------------------------------------
# Gaussian mixture


@dataclass
class GmmModel(PosePrior):
    """Mixture of full-covariance Gaussians; weights kept normalized."""

    MODEL_TYPE = "gmm"

    weights: np.ndarray
    means: np.ndarray
    covs: np.ndarray
    fit_meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        self.means = np.asarray(self.means, dtype=float)
        self.covs = np.asarray(self.covs, dtype=float)
        if np.any(self.weights <= 0.0):
            raise ValueError("mixture weights must be positive")
        total = self.weights.sum()
        # Normalizing is not idempotent in floating point: weights that
        # already sum to one up to rounding are kept bit for bit, so a saved
        # mixture loads back with the weights it was written with.
        if abs(total - 1.0) > self.weights.size * np.finfo(float).eps:
            self.weights = self.weights / total
        self._chols = [linalg.cholesky(c) for c in self.covs]
        self._inv, self._log_det = _stack_factors(self._chols)
        self._log_norm = self.dim * LOG_2PI + self._log_det  # the sum _gaussian_log_joint forms
        self._log_w = np.log(self.weights)

    @property
    def n_components(self) -> int:
        return self.weights.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    def _log_prob_rows(self, xs: np.ndarray) -> np.ndarray:
        comp = _gaussian_log_joint(xs, self.means, self._inv, self._log_det, self._log_w)
        return _logsumexp(comp, axis=1)

    def _whiten_rows(self, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(n, k) responsibilities and (n, k, d) whitened residuals L_i^-1 (x - mu_i)."""
        w = np.matmul(self._inv, (xs[:, None] - self.means)[..., None])[..., 0]
        maha = np.matmul(w[..., None, :], w[..., None])[..., 0, 0]
        log_joint = self._log_w - 0.5 * (self._log_norm + maha)
        return np.exp(log_joint - _logsumexp(log_joint, axis=1)[:, None]), w

    def responsibilities(self, x) -> np.ndarray:
        return self._whiten_rows(_check_vec(x, self.dim)[None])[0][0]

    def _grad_rows(self, xs: np.ndarray) -> np.ndarray:
        r, w = self._whiten_rows(xs)
        # -sum_i r_i (w_i @ L_i^-1); the sum over axis 1 adds in component order.
        return -(r[..., None] * np.matmul(w[..., None, :], self._inv)[..., 0, :]).sum(axis=1)

    def support_points(self, count: int, rng: np.random.Generator, h: float) -> np.ndarray:
        comps = rng.choice(self.n_components, size=count, p=self.weights)
        points = np.empty((count, self.dim))
        for row, i in enumerate(comps):
            points[row] = self.means[i] + self._chols[i].lower @ rng.standard_normal(self.dim)
        return points

    def mode(self) -> np.ndarray:
        # Approximate: the component mean with the highest mixture density.
        best = int(np.argmax(self.log_prob_many(self.means)))
        return self.means[best].copy()

    def mean_vector(self) -> np.ndarray:
        return self.weights @ self.means

    def to_params(self) -> dict:
        return {"weights": self.weights, "means": self.means, "covs": self.covs}

    @classmethod
    def from_params(cls, params, meta) -> "GmmModel":
        return cls(weights=params["weights"], means=params["means"], covs=params["covs"],
                   fit_meta=dict(meta))


def _kmeanspp_seeds(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = x.shape[0]
    chosen = [int(rng.integers(n))]
    d2 = np.sum((x - x[chosen[0]]) ** 2, axis=1)
    for _ in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            j = int(rng.integers(n))
        else:
            j = int(rng.choice(n, p=d2 / total))
        chosen.append(j)
        d2 = np.minimum(d2, np.sum((x - x[j]) ** 2, axis=1))
    return x[chosen].copy()


def fit_gmm_em(data, k: int, seed: int = 0, reg: float = 1e-6, tol: float = 1e-8,
               max_iter: int = 500) -> GmmModel:
    """EM fit with k-means++ seeding and log-sum-exp responsibilities.

    Covariance M-steps divide by N_i * (N - 1) / N, which reduces to the
    unbiased N - 1 divisor at k = 1 so a one-component fit lands exactly
    on fit_mvn's moments (with reg = 0). A component whose responsibility
    mass collapses is re-seeded from the lowest-likelihood point, at most
    three times. Returns the model with its log-likelihood trace in
    fit_meta["loglik_trace"].
    """
    x = samples_of(data)
    n, d = x.shape
    if k < 1:
        raise ValueError("k must be >= 1")
    if n < k:
        raise ValueError(f"need at least k={k} samples, got {n}")
    if not reg >= 0.0:  # NaN fails this too
        raise ValueError("reg must be non-negative")
    if not math.isfinite(tol):
        raise ValueError("tol must be finite")
    if n < 2:
        raise ValueError("fit_gmm_em needs at least 2 samples")

    rng = np.random.default_rng(seed)
    centered = x - x.mean(axis=0)
    global_cov = linalg.symmetrize(centered.T @ centered / (n - 1))

    means = _kmeanspp_seeds(x, k, rng)
    weights = np.full(k, 1.0 / k)
    covs = np.repeat(global_cov[None, :, :], k, axis=0)
    chols = [linalg.cholesky(c) for c in covs]
    eye = np.eye(d)

    trace: list[float] = []
    reseeds = 0
    converged = False
    for _ in range(max_iter):
        comp = _gaussian_log_joint(x, means, *_stack_factors(chols), np.log(weights))
        ll_n = _logsumexp(comp, axis=1)
        ll = float(np.sum(ll_n))
        trace.append(ll)
        if len(trace) >= 2 and ll - trace[-2] < tol * abs(trace[-2]):
            converged = True
            break

        r = np.exp(comp - ll_n[:, None])
        nk = r.sum(axis=0)
        dead = np.nonzero(nk < 1e-12)[0]
        if dead.size:
            reseeds += 1
            if reseeds > 3:
                raise NumericalError(
                    f"mixture component collapsed after {reseeds - 1} re-seeds"
                )
            worst = int(np.argmin(ll_n))
            for i in dead:
                means[i] = x[worst]
                covs[i] = global_cov
                chols[i] = linalg.cholesky(covs[i])
            weights = np.full(k, 1.0 / k)
            continue

        weights = nk / n
        means = (r.T @ x) / nk[:, None]
        denom = nk * (n - 1) / n
        for i in range(k):
            # zw.T @ zw takes numpy's symmetric-product path, which gives the
            # same bits at any BLAS thread count; (z * r).T @ z does not.
            zw = (x - means[i]) * np.sqrt(r[:, i : i + 1])
            s = zw.T @ zw / denom[i]
            covs[i] = linalg.symmetrize(s) + reg * eye
            chols[i] = linalg.cholesky(covs[i])

    # GmmModel would keep nk / n as given (it sums to one up to rounding);
    # dividing here keeps the fitted weights, and so the model JSON, the
    # same bits as files written by earlier versions.
    model = GmmModel(weights=weights / weights.sum(), means=means, covs=covs)
    model.fit_meta.update(
        seed=seed,
        jitter=max(c.jitter_applied for c in model._chols),
        iterations=len(trace),
        # Stopped at max_iter, the last trace entry predates the final M-step.
        final_loglik=trace[-1] if converged else float(np.sum(model.log_prob_many(x))),
        converged=converged,
        reg=reg,
        loglik_trace=trace,
    )
    return model


# ---------------------------------------------------------------------------
# Temporal mixture over motion deltas


class TemporalGmmModel(GmmModel):
    """GMM over stacked (dt, dtheta) vectors of dimension 1 + D."""

    MODEL_TYPE = "temporal_gmm"

    def log_prob_delta(self, delta: TemporalDelta) -> float:
        return self.log_prob(delta.stacked())


def stack_deltas(deltas) -> np.ndarray:
    deltas = list(deltas)
    if not deltas:
        raise ValueError("no temporal deltas given")
    return np.vstack([dlt.stacked() for dlt in deltas])


def fit_temporal_gmm(deltas, k: int, seed: int = 0, reg: float = 1e-6,
                     tol: float = 1e-8, max_iter: int = 500) -> TemporalGmmModel:
    """Stack each delta as (dt, dtheta) and fit the mixture over those rows."""
    gmm = fit_gmm_em(stack_deltas(deltas), k, seed=seed, reg=reg, tol=tol, max_iter=max_iter)
    return TemporalGmmModel(weights=gmm.weights, means=gmm.means, covs=gmm.covs,
                            fit_meta=gmm.fit_meta)


# ---------------------------------------------------------------------------
# Soft box limits


@dataclass
class BoxLimitModel(PosePrior):
    """Soft joint-angle box: quadratic log-penalty outside [lo, hi] per dim.

    log_prob is an unnormalized log-density (0 inside the box), C^1 at the
    boundaries so gradient-based pose recovery can cross them smoothly.
    """

    MODEL_TYPE = "box"

    lo: np.ndarray
    hi: np.ndarray
    stiffness: float = 1.0
    fit_meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.lo = np.asarray(self.lo, dtype=float)
        self.hi = np.asarray(self.hi, dtype=float)
        if self.lo.shape != self.hi.shape or self.lo.ndim != 1:
            raise ValueError("lo and hi must be vectors of equal length")
        if not np.all(self.lo < self.hi):
            raise ValueError("requires lo < hi in every dimension")
        if not 0.0 < self.stiffness < math.inf:
            raise ValueError("stiffness must be positive and finite")

    @property
    def dim(self) -> int:
        return self.lo.shape[0]

    def _violations(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return np.maximum(0.0, x - self.hi), np.maximum(0.0, self.lo - x)

    def _log_prob_rows(self, xs: np.ndarray) -> np.ndarray:
        over, under = self._violations(xs)
        return -self.stiffness * np.sum(over**2 + under**2, axis=1)

    def _grad_rows(self, xs: np.ndarray) -> np.ndarray:
        over, under = self._violations(xs)
        return -2.0 * self.stiffness * (over - under)

    def support_points(self, count: int, rng: np.random.Generator, h: float) -> np.ndarray:
        # Stay inside the limits: there both gradients are exactly zero.
        # Boundary-crossing gradients are exercised by dedicated tests with
        # explicitly constructed points.
        width = self.hi - self.lo
        return rng.uniform(self.lo + 0.05 * width, self.hi - 0.05 * width, (count, self.dim))

    def mode(self) -> np.ndarray:
        return (self.lo + self.hi) / 2.0

    def to_params(self) -> dict:
        return {"lo": self.lo, "hi": self.hi, "stiffness": self.stiffness}

    @classmethod
    def from_params(cls, params, meta) -> "BoxLimitModel":
        return cls(lo=params["lo"], hi=params["hi"], stiffness=float(params["stiffness"]),
                   fit_meta=dict(meta))


def box_from_data(data, stiffness: float = 1.0, margin: float = 0.0) -> BoxLimitModel:
    """Box limits from the per-dimension data range, optionally widened."""
    x = samples_of(data)
    lo = x.min(axis=0) - margin
    hi = x.max(axis=0) + margin
    flat = lo >= hi
    lo[flat] -= 1e-9
    hi[flat] += 1e-9
    return BoxLimitModel(lo=lo, hi=hi, stiffness=stiffness)
