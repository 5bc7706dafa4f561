"""Structured Gaussian covariances: densities and parameter gradients.

A proposal covariance is ``base_variance * C`` where ``base_variance`` is a
fixed per-step scalar and ``C`` is one of four structures:

* ``isotropic``    C = eta * I
* ``diagonal``     C = diag(etas)
* ``full_factor``  C = L L^T with L lower-triangular, positive diagonal
* ``kron_block``   C = B (x) I_n with B an M x M SPD matrix acting on
  particles and I_n on spatial coordinates

Densities avoid dense d x d work wherever the structure allows: isotropic
and diagonal are O(d), and the Kronecker form reduces to M x M solves.
``_log_density_delta`` is the one density of every structure (its
isotropic and diagonal branch, ``_scaled_log_density``, also takes the
stacked residuals of the tuner objective); sampling lives in
``vtdis.diffusion.StepKernel``.

Each structure also has a raw (unconstrained) parameterization used by the
optimizer: positivity is enforced through a softplus transform, initialized
at its inverse so raw parameters start exactly at the identity-structure
baseline.  The ``*Params`` classes map raw vectors to constrained
covariances and provide analytic gradients of the log-density with respect
to the raw parameters (standard Gaussian calculus,
d/dSigma log N = 1/2 (Sigma^-1 dd^T Sigma^-1 - Sigma^-1), chained through
the structure and the softplus).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve, solve_triangular

LOG_2PI = float(np.log(2.0 * np.pi))

_KINDS = ("isotropic", "diagonal", "full_factor", "kron_block")


# ---------------------------------------------------------------------------
# numerics helpers
# ---------------------------------------------------------------------------

def logsumexp(values, axis=None):
    """Overflow-safe log(sum(exp(values))).

    An all ``-inf`` input returns ``-inf`` rather than raising; NaN inputs
    are rejected.
    """
    v = np.asarray(values, dtype=float)
    if np.isnan(v).any():
        raise ValueError("logsumexp: NaN in input")
    vmax = np.max(v, axis=axis, keepdims=True) if axis is not None else np.max(v)
    if axis is None:
        if not np.isfinite(vmax):
            if vmax == -np.inf:
                return -np.inf
            raise ValueError("logsumexp: +inf in input")
        return float(vmax + np.log(np.sum(np.exp(v - vmax))))
    vmax = np.where(np.isfinite(vmax), vmax, 0.0)
    out = np.squeeze(vmax, axis=axis) + np.log(np.sum(np.exp(v - vmax), axis=axis))
    return out


def softmax_from_log(log_values: np.ndarray) -> np.ndarray:
    """Normalized weights exp(v) / sum exp(v), overflow-safe."""
    v = np.asarray(log_values, dtype=float)
    m = np.max(v)
    w = np.exp(v - m)
    return w / np.sum(w)


def softplus(z):
    """log(1 + exp(z)), stable for large |z|."""
    z = np.asarray(z, dtype=float)
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


def softplus_inv(y):
    """Inverse of softplus; requires y > 0."""
    y = np.asarray(y, dtype=float)
    if np.any(y <= 0):
        raise ValueError("softplus_inv requires positive input")
    # log(expm1(y)) written to stay stable for large y
    return np.where(y > 20, y, np.log(np.expm1(np.minimum(y, 20.0))))


def sigmoid(z):
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _check_finite(*arrays):
    for a in arrays:
        if not np.all(np.isfinite(a)):
            raise ValueError("non-finite input")


# ---------------------------------------------------------------------------
# covariance container
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Covariance:
    """One per-step proposal covariance ``base_variance * structure``."""

    kind: str
    base_variance: float
    eta: float | None = None
    etas: np.ndarray | None = None
    factor: np.ndarray | None = None          # L, lower-triangular
    block: np.ndarray | None = None           # B, (M, M)
    spatial_dim: int | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown covariance kind {self.kind!r}")
        if not (np.isfinite(self.base_variance) and self.base_variance > 0):
            raise ValueError("base_variance must be positive and finite")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def isotropic(eta: float, base_variance: float) -> "Covariance":
        if not (np.isfinite(eta) and eta > 0):
            raise ValueError("isotropic eta must be positive")
        return Covariance("isotropic", float(base_variance), eta=float(eta))

    @staticmethod
    def diagonal(etas, base_variance: float) -> "Covariance":
        etas = np.asarray(etas, dtype=float)
        if etas.ndim != 1 or not np.all(np.isfinite(etas)) or np.any(etas <= 0):
            raise ValueError("diagonal etas must be a positive vector")
        return Covariance("diagonal", float(base_variance), etas=etas)

    @staticmethod
    def full_factor(L, base_variance: float) -> "Covariance":
        L = np.asarray(L, dtype=float)
        if L.ndim != 2 or L.shape[0] != L.shape[1]:
            raise ValueError("factor must be square")
        if not np.allclose(L, np.tril(L)):
            raise ValueError("factor must be lower-triangular")
        if not np.all(np.isfinite(L)) or np.any(np.diag(L) <= 0):
            raise ValueError("factor diagonal must be positive")
        return Covariance("full_factor", float(base_variance), factor=L)

    @staticmethod
    def kron_block(B, spatial_dim: int, base_variance: float) -> "Covariance":
        B = np.asarray(B, dtype=float)
        if B.ndim != 2 or B.shape[0] != B.shape[1]:
            raise ValueError("block must be square")
        if not np.allclose(B, B.T, atol=1e-12):
            raise ValueError("block must be symmetric")
        try:
            np.linalg.cholesky(B)
        except np.linalg.LinAlgError as exc:
            raise ValueError("block must be positive definite") from exc
        return Covariance("kron_block", float(base_variance), block=B,
                          spatial_dim=int(spatial_dim))

    # -- queries -------------------------------------------------------------

    def dim(self) -> int | None:
        """Ambient dimension, or None when any dimension fits (isotropic)."""
        if self.kind == "diagonal":
            return self.etas.shape[0]
        if self.kind == "full_factor":
            return self.factor.shape[0]
        if self.kind == "kron_block":
            return self.block.shape[0] * self.spatial_dim
        return None

    def dense(self, dim: int | None = None) -> np.ndarray:
        """Dense Sigma, for reference/oracle use only."""
        d = self.dim() if self.dim() is not None else dim
        if d is None:
            raise ValueError("isotropic dense() needs an explicit dim")
        s = self.base_variance
        if self.kind == "isotropic":
            return s * self.eta * np.eye(d)
        if self.kind == "diagonal":
            return s * np.diag(self.etas)
        if self.kind == "full_factor":
            return s * (self.factor @ self.factor.T)
        return s * np.kron(self.block, np.eye(self.spatial_dim))


# ---------------------------------------------------------------------------
# density
# ---------------------------------------------------------------------------

def _as_batch(x: np.ndarray) -> tuple[np.ndarray, bool]:
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        return x[None, :], True
    if x.ndim == 2:
        return x, False
    raise ValueError("expected a vector or a (batch, dim) array")


def log_density(x, mean, cov: Covariance):
    """log N(x; mean, base_variance * structure).

    ``x`` may be a single vector or a (batch, dim) array; ``mean``
    broadcasts against it.
    """
    xb, single = _as_batch(x)
    mean = np.asarray(mean, dtype=float)
    _check_finite(xb, mean)
    delta = xb - mean
    d = delta.shape[1]
    cd = cov.dim()
    if cd is not None and cd != d:
        raise ValueError(f"dimension mismatch: x has {d}, covariance has {cd}")
    out = _log_density_delta(delta, cov)
    return float(out[0]) if single else out


def _log_density_delta(delta: np.ndarray, cov: Covariance,
                       dim: int | None = None) -> np.ndarray:
    """Core density on centered residuals, batched (B, d) -> (B,).

    ``dim`` is the dimension an isotropic kernel normalises over; it
    defaults to ``d`` and is smaller when the residuals lie on a subspace
    (``vtdis.equivariant`` passes the zero-CoM subspace dimension).
    """
    d = delta.shape[1] if dim is None else dim
    s = cov.base_variance
    if cov.kind == "isotropic":
        return _scaled_log_density(delta, s * cov.eta, d)
    if cov.kind == "diagonal":
        return _scaled_log_density(delta, s * cov.etas, d)
    if cov.kind == "full_factor":
        L = cov.factor
        u = solve_triangular(L, delta.T, lower=True).T
        q = np.sum(u * u, axis=1) / s
        logdet = d * np.log(s) + 2.0 * np.sum(np.log(np.diag(L)))
        return -0.5 * (d * LOG_2PI + logdet) - 0.5 * q
    # kron_block, a density over all M*n coordinates of delta
    B, n = cov.block, cov.spatial_dim
    M = B.shape[0]
    Bc = cho_factor(B, lower=True)
    D = delta.reshape(delta.shape[0], M, n)
    BiD = np.einsum("ij,bjn->bin", cho_solve(Bc, np.eye(M)), D)
    q = np.einsum("bin,bin->b", D, BiD) / s
    logdet = M * n * np.log(s) + 2.0 * n * np.sum(np.log(np.diag(Bc[0])))
    return -0.5 * (M * n * LOG_2PI + logdet) - 0.5 * q


def _scaled_log_density(delta: np.ndarray, v, dim: int) -> np.ndarray:
    """log N(delta; 0, diag(v)) per row of ``delta`` (..., B, d) -> (..., B).

    ``v`` is isotropic, one variance per leading index (shape ``(...)``),
    or diagonal, one per coordinate (shape ``(..., d)``); ``dim`` is the
    dimension the kernel normalises over.  The leading axes are the
    optional step axis of the stacked tuner objective.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim == delta.ndim - 2:
        v = v[..., None]
        q = np.einsum("...d,...d->...", delta, delta)
        return -0.5 * dim * (LOG_2PI + np.log(v)) - 0.5 * q / v
    v = v[..., None, :]
    q = np.einsum("...d,...d->...", delta, delta / v)
    return -0.5 * (dim * LOG_2PI + np.sum(np.log(v), axis=-1)) - 0.5 * q


def _spec_variances(base, etas) -> np.ndarray:
    """base * etas for a raw-parameter spec, rejected unless positive and
    finite as ``Covariance`` does (softplus underflows to 0 below -745)."""
    v = base * etas
    if not np.all(np.isfinite(v) & (v > 0)):
        raise ValueError("proposal variances must be positive and finite")
    return v


def _map_steps(step_fn, deltas, raw, base, *rest) -> np.ndarray:
    """Apply a per-step spec method over an optional leading step axis:
    ``raw`` (p,) is one step, ``raw`` (N, p) pairs with ``deltas[n]`` and
    ``base[n]``; trailing arguments are shared by every step."""
    if np.ndim(raw) == 1:
        return step_fn(deltas, raw, base, *rest)
    return np.stack([step_fn(deltas[n], raw[n], base[n], *rest)
                     for n in range(len(raw))])


# ---------------------------------------------------------------------------
# raw (unconstrained) parameterizations with analytic gradients
# ---------------------------------------------------------------------------
#
# Shared interface (duck-typed; see also the subspace variants in
# vtdis.equivariant):
#
#   n_params          -> int
#   init()            -> raw vector at the identity-structure baseline
#   covariance(raw, base_variance)        -> Covariance
#   log_density(deltas, raw, base)        -> (B,) log N(delta; 0, Sigma(raw))
#   weighted_grad(deltas, raw, base, w)   -> d/draw sum_b w_b log N(delta_b)
#   to_constrained(raw) / from_constrained(vals)  -> serialization values
#
# ``log_density`` and ``weighted_grad`` broadcast over an optional leading
# step axis: deltas (N, B, d), raw (N, p) and base (N,) give (N, B) and
# (N, p), step n using raw[n] and base[n], with the weights (B,) shared by
# every step.  Isotropic and diagonal specs do this in closed form; the
# others map their per-step algebra over the axis (``_map_steps``).

class IsotropicParams:
    """eta = softplus(z); one raw parameter.

    ``dim`` is the dimension the kernel normalises over: the ambient
    dimension, or the subspace dimension for zero-CoM residuals.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self.n_params = 1

    def init(self) -> np.ndarray:
        return np.array([float(softplus_inv(1.0))])

    def covariance(self, raw, base_variance) -> Covariance:
        return Covariance.isotropic(float(softplus(raw[0])), base_variance)

    def log_density(self, deltas, raw, base) -> np.ndarray:
        raw = np.asarray(raw, dtype=float)
        return _scaled_log_density(
            deltas, _spec_variances(base, softplus(raw[..., 0])), self.dim)

    def weighted_grad(self, deltas, raw, base, weights) -> np.ndarray:
        raw = np.asarray(raw, dtype=float)
        eta = softplus(raw[..., :1])                  # (..., 1)
        base = np.asarray(base, dtype=float)[..., None]
        q = np.einsum("...d,...d->...", deltas, deltas)
        g_eta = np.sum(weights * (q / (2.0 * base * eta * eta)
                                  - self.dim / (2.0 * eta)), axis=-1)
        return g_eta[..., None] * sigmoid(raw[..., :1])

    def to_constrained(self, raw) -> np.ndarray:
        return softplus(np.asarray(raw))

    def from_constrained(self, vals) -> np.ndarray:
        return softplus_inv(np.asarray(vals))


class DiagonalParams:
    """etas_i = softplus(z_i); d raw parameters."""

    def __init__(self, dim: int):
        self.dim = dim
        self.n_params = dim

    def init(self) -> np.ndarray:
        return np.full(self.dim, float(softplus_inv(1.0)))

    def covariance(self, raw, base_variance) -> Covariance:
        return Covariance.diagonal(softplus(raw), base_variance)

    def log_density(self, deltas, raw, base) -> np.ndarray:
        base = np.asarray(base, dtype=float)[..., None]
        return _scaled_log_density(
            deltas, _spec_variances(base, softplus(raw)), self.dim)

    def weighted_grad(self, deltas, raw, base, weights) -> np.ndarray:
        etas = softplus(raw)
        base = np.asarray(base, dtype=float)[..., None]
        g = (weights @ (deltas * deltas)) / (2.0 * base * etas * etas) \
            - np.sum(weights) / (2.0 * etas)
        return g * sigmoid(raw)

    def to_constrained(self, raw) -> np.ndarray:
        return softplus(np.asarray(raw))

    def from_constrained(self, vals) -> np.ndarray:
        return softplus_inv(np.asarray(vals))


class FullFactorParams:
    """Packed lower-triangular factor; softplus on the diagonal.

    Raw layout is row-major over the lower triangle:
    (0,0), (1,0), (1,1), (2,0), ...
    """

    def __init__(self, dim: int):
        self.dim = dim
        self.n_params = dim * (dim + 1) // 2
        self._rows, self._cols = np.tril_indices(dim)
        self._diag_mask = self._rows == self._cols

    def init(self) -> np.ndarray:
        raw = np.zeros(self.n_params)
        raw[self._diag_mask] = float(softplus_inv(1.0))
        return raw

    def _factor(self, raw) -> np.ndarray:
        L = np.zeros((self.dim, self.dim))
        vals = np.array(raw, dtype=float, copy=True)
        vals[self._diag_mask] = softplus(vals[self._diag_mask])
        L[self._rows, self._cols] = vals
        return L

    def covariance(self, raw, base_variance) -> Covariance:
        return Covariance.full_factor(self._factor(raw), base_variance)

    def log_density(self, deltas, raw, base) -> np.ndarray:
        return _map_steps(self._step_log_density, deltas, raw, base)

    def _step_log_density(self, deltas, raw, base) -> np.ndarray:
        return _log_density_delta(deltas, self.covariance(raw, base))

    def weighted_grad(self, deltas, raw, base, weights) -> np.ndarray:
        return _map_steps(self._step_weighted_grad, deltas, raw, base,
                          weights)

    def _step_weighted_grad(self, deltas, raw, base, weights) -> np.ndarray:
        L = self._factor(raw)
        U = solve_triangular(L, deltas.T, lower=True).T        # u_b = L^-1 d_b
        S = (U * weights[:, None]).T @ U                       # sum w u u^T
        G = solve_triangular(L, S, lower=True, trans="T") / base
        G -= np.sum(weights) * np.diag(1.0 / np.diag(L))
        g = G[self._rows, self._cols]
        g[self._diag_mask] *= sigmoid(np.asarray(raw)[self._diag_mask])
        return g

    def to_constrained(self, raw) -> np.ndarray:
        vals = np.array(raw, dtype=float, copy=True)
        vals[self._diag_mask] = softplus(vals[self._diag_mask])
        return vals

    def from_constrained(self, vals) -> np.ndarray:
        raw = np.array(vals, dtype=float, copy=True)
        raw[self._diag_mask] = softplus_inv(raw[self._diag_mask])
        return raw
