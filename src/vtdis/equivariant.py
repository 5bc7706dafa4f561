"""Zero-center-of-mass subspace machinery.

Configurations of M particles in n spatial dimensions live on the
(M-1)n-dimensional subspace where the particle mean vanishes.  A fixed
orthonormal change of basis ``P = V (x) I_n`` maps the subspace to plain
Euclidean coordinates, where Gaussians with Kronecker covariance
``B (x) I_n`` have ordinary densities.  Because V annihilates the all-ones
direction and P P^T = I, the resulting kernels are exactly invariant under
simultaneous rotation/reflection of all particles, and under particle
permutations whenever S B S^T = B.

Kernels on the subspace are the isotropic one, normalised over the
(M-1)n subspace dimensions, and the label-based one: B = diag(eta_{L_i})
with one variance per particle class, so that B depends on (i, j) only
through the class labels.  (An exchangeable block (b - a) I + a 11^T is
not a family of its own: V 1 = 0 makes V B V^T = (b - a) I, the
isotropic kernel.)  ``_subspace_log_density`` is the one place where the
subspace enters a density, as the change of coordinates ``to_subspace``
plus ``reduced_block``.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .gaussians import (Covariance, _log_density_delta, _map_steps, sigmoid,
                        softplus, softplus_inv)

COM_TOLERANCE = 1e-6


class ComProjection:
    """Orthonormal basis of the zero-CoM subspace.

    ``V`` has shape (M-1, M) with rows orthonormal and orthogonal to the
    all-ones vector, obtained from a QR factorization of the centering
    projector I - 11^T/M with signs fixed for determinism.
    """

    def __init__(self, n_particles: int, spatial_dim: int):
        if n_particles < 2:
            raise ValueError("need at least two particles")
        if spatial_dim < 1:
            raise ValueError("spatial dimension must be >= 1")
        self.n_particles = n_particles
        self.spatial_dim = spatial_dim
        m = n_particles
        centering = np.eye(m) - np.full((m, m), 1.0 / m)
        q, r = np.linalg.qr(centering)
        signs = np.sign(np.diag(r))
        signs[signs == 0] = 1.0
        q = q * signs[None, :]
        self.V = q[:, : m - 1].T.copy()

    @property
    def ambient_dim(self) -> int:
        return self.n_particles * self.spatial_dim

    @property
    def subspace_dim(self) -> int:
        return (self.n_particles - 1) * self.spatial_dim

    def to_subspace(self, x: np.ndarray) -> np.ndarray:
        """(..., M*n) -> (..., (M-1)*n), the coordinates P x."""
        conf = np.asarray(x, dtype=float).reshape(*x.shape[:-1],
                                                  self.n_particles,
                                                  self.spatial_dim)
        z = np.einsum("km,...mn->...kn", self.V, conf)
        return z.reshape(*x.shape[:-1], self.subspace_dim)

    def to_ambient(self, z: np.ndarray) -> np.ndarray:
        """(..., (M-1)*n) -> (..., M*n), the coordinates P^T z."""
        zc = np.asarray(z, dtype=float).reshape(*z.shape[:-1],
                                                self.n_particles - 1,
                                                self.spatial_dim)
        x = np.einsum("km,...kn->...mn", self.V, zc)
        return x.reshape(*z.shape[:-1], self.ambient_dim)

    def reduced_block(self, B: np.ndarray) -> np.ndarray:
        """V B V^T, the particle-block covariance seen on the subspace."""
        return self.V @ np.asarray(B, dtype=float) @ self.V.T

    def com_norm(self, x: np.ndarray) -> np.ndarray:
        conf = np.asarray(x, dtype=float).reshape(*x.shape[:-1],
                                                  self.n_particles,
                                                  self.spatial_dim)
        return np.linalg.norm(conf.mean(axis=-2), axis=-1)


def com_project(x: np.ndarray, proj: ComProjection) -> np.ndarray:
    """Subtract the per-coordinate center of mass (idempotent)."""
    conf = np.asarray(x, dtype=float).reshape(*x.shape[:-1],
                                              proj.n_particles,
                                              proj.spatial_dim)
    conf = conf - conf.mean(axis=-2, keepdims=True)
    return conf.reshape(x.shape)


def _check_on_subspace(x: np.ndarray, proj: ComProjection, what: str) -> None:
    if not np.all(np.isfinite(x)):
        raise ValueError(f"non-finite {what}")
    worst = float(np.max(proj.com_norm(np.atleast_2d(x))))
    if worst > COM_TOLERANCE:
        raise ValueError(
            f"{what} is off the zero-CoM subspace (|com| = {worst:.3e})")


def _subspace_log_density(delta: np.ndarray, cov: Covariance,
                          proj: ComProjection) -> np.ndarray:
    """log N(delta; 0, cov) for (B, M*n) residuals on the zero-CoM subspace.

    An isotropic kernel normalises over the subspace dimension (|P delta|
    = |delta| there); a particle block B is taken in the coordinates
    ``to_subspace(delta)``, where it acts as ``reduced_block(B)``.
    """
    if cov.kind == "isotropic":
        return _log_density_delta(delta, cov, proj.subspace_dim)
    reduced = Covariance.kron_block(proj.reduced_block(cov.block),
                                    proj.spatial_dim, cov.base_variance)
    return _log_density_delta(proj.to_subspace(delta), reduced)


def com_gaussian_log_density(x, mean, B, proj: ComProjection,
                             scale: float = 1.0):
    """Density of the projected Gaussian N(Px; Pmean, scale * V B V^T (x) I_n).

    A scalar ``B`` denotes the isotropic case B = b I, for which the
    density simplifies to an ordinary Gaussian on (M-1)n dimensions and no
    basis is needed.  Inputs must lie on the subspace (tolerance 1e-6;
    small drift is absorbed because P annihilates the CoM component).
    """
    x2 = np.atleast_2d(np.asarray(x, dtype=float))
    mean2 = np.atleast_2d(np.asarray(mean, dtype=float))
    _check_on_subspace(x2, proj, "x")
    _check_on_subspace(mean2, proj, "mean")
    if np.ndim(B) == 0:
        cov = Covariance.isotropic(float(B), scale)
    else:
        cov = Covariance.kron_block(B, proj.spatial_dim, scale)
    out = _subspace_log_density(x2 - mean2, cov, proj)
    return float(out[0]) if np.asarray(x).ndim == 1 else out


# ---------------------------------------------------------------------------
# label-constrained particle block
# ---------------------------------------------------------------------------

def build_label_B(labels, params) -> np.ndarray:
    """Label-constrained block B = diag(eta_{L_i}) from the per-class
    variances ``params``.  Entries depend on (i, j) only through the
    labels, so within-class permutations leave B unchanged.
    """
    labels = np.asarray(labels, dtype=int)
    k = int(labels.max()) + 1
    etas = np.asarray(params, dtype=float)
    if etas.shape != (k,):
        raise ValueError(f"need one variance per class ({k})")
    if np.any(etas <= 0):
        raise ValueError("class variances must be positive")
    return np.diag(etas[labels])


# ---------------------------------------------------------------------------
# raw parameterizations on the subspace (same interface as vtdis.gaussians,
# including the optional leading step axis)
# ---------------------------------------------------------------------------

class LabelDiagParams:
    """Per-class variances: B = diag(softplus(z)_{L_i}); K raw parameters."""

    def __init__(self, labels, proj: ComProjection):
        labels = np.asarray(labels, dtype=int)
        if labels.shape != (proj.n_particles,):
            raise ValueError("one label per particle")
        self.labels = labels
        self.n_classes = int(labels.max()) + 1
        self.n_params = self.n_classes
        self.proj = proj
        # indicator (M, K): column sums over class members
        self._E = np.zeros((proj.n_particles, self.n_classes))
        self._E[np.arange(proj.n_particles), labels] = 1.0

    def init(self) -> np.ndarray:
        return np.full(self.n_classes, float(softplus_inv(1.0)))

    def block(self, raw) -> np.ndarray:
        return build_label_B(self.labels, softplus(raw))

    def covariance(self, raw, base_variance) -> Covariance:
        return Covariance.kron_block(self.block(raw), self.proj.spatial_dim,
                                     base_variance)

    def log_density(self, deltas, raw, base) -> np.ndarray:
        return _map_steps(self._step_log_density, deltas, raw, base)

    def _step_log_density(self, deltas, raw, base) -> np.ndarray:
        return _subspace_log_density(deltas, self.covariance(raw, base),
                                     self.proj)

    def weighted_grad(self, deltas, raw, base, weights) -> np.ndarray:
        return _map_steps(self._step_weighted_grad, deltas, raw, base,
                          weights)

    def _step_weighted_grad(self, deltas, raw, base, weights) -> np.ndarray:
        # sum_b w_b d log N(delta_b) / dB on the subspace, mapped back to
        # the (M, M) block; each class gathers its diagonal entries
        Bt = self.proj.reduced_block(self.block(raw))
        ch = cho_factor(Bt, lower=True)
        m1, n = self.proj.n_particles - 1, self.proj.spatial_dim
        Bi = cho_solve(ch, np.eye(m1))
        Z = self.proj.to_subspace(deltas).reshape(deltas.shape[0], m1, n)
        S = np.einsum("b,bin,bjn->ij", weights, Z, Z)
        Gt = -0.5 * n * np.sum(weights) * Bi + 0.5 * (Bi @ S @ Bi) / base
        G = self.proj.V.T @ Gt @ self.proj.V
        per_class = self._E.T @ np.diag(G)
        return per_class * sigmoid(raw)
