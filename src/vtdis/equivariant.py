"""Zero-center-of-mass subspace machinery and its one tunable kernel.

Configurations of M particles in n spatial dimensions live on the
(M-1)n-dimensional subspace where the particle mean vanishes.  The
orthonormal rows of ``ComProjection.basis``, P = V (x) I_n, built once,
map the subspace to plain Euclidean coordinates, where Gaussians with
Kronecker covariance ``B (x) I_n`` have ordinary densities.  Because V
annihilates the all-ones direction and P P^T = I, the resulting kernels
are exactly invariant under simultaneous rotation/reflection of all
particles, and under particle permutations whenever S B S^T = B.

One tunable kind is defined on the subspace: the isotropic one,
``vtdis.gaussians.IsotropicParams`` normalised over the (M-1)n subspace
dimensions, its draws projected by ``com_project``.  An exchangeable
block (b - a) I + a 11^T is not a family of its own: V 1 = 0 makes
V B V^T = (b - a) I, the isotropic kernel.

The one ``ComProjection`` of a particle system also owns its pairs, the
(..., M n) -> (..., M, n) reshape (``configs``) and the center of mass
as one (..., M n) @ (M n, n) product (``com_norm``).  Particle modules
draw subspace noise with ``normals`` and reduce with ``spatial_dot``.
"""

from __future__ import annotations

import numpy as np

COM_TOLERANCE = 1e-6


class ComProjection:
    """Orthonormal basis of the zero-CoM subspace, and the pairs.

    ``V`` has shape (M-1, M) with rows orthonormal and orthogonal to the
    all-ones vector, obtained from a QR factorization of the centering
    projector I - 11^T/M with signs fixed for determinism.  The rows of
    the read-only ``basis`` P = V (x) I_n span the subspace, and
    ``x @ basis.T`` and ``z @ basis`` map coordinates there and back.
    Pairs i < j are in ``np.triu_indices(M, k=1)`` order; column p of
    the signed incidence matrix (M, P) holds +1 at particle i and -1 at
    j, so ``diffs`` and its adjoint ``scatter`` are one matmul each.
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
        # V written into zeros: np.kron would write -0.0 where V < 0
        basis = np.zeros((m - 1, spatial_dim, m, spatial_dim))
        basis[:, range(spatial_dim), :, range(spatial_dim)] = self.V
        self.basis = basis.reshape(self.subspace_dim, self.ambient_dim)
        self.basis.flags.writeable = False
        # column j averages coordinate j over the particles
        self._com_weights = np.tile(np.eye(spatial_dim) / m, (m, 1))
        ii, jj = np.triu_indices(m, k=1)
        cols = np.arange(ii.shape[0])
        self.incidence = np.zeros((m, ii.shape[0]))
        self.incidence[ii, cols] = 1.0
        self.incidence[jj, cols] = -1.0

    @property
    def ambient_dim(self) -> int:
        return self.n_particles * self.spatial_dim

    @property
    def subspace_dim(self) -> int:
        return (self.n_particles - 1) * self.spatial_dim

    def configs(self, x) -> np.ndarray:
        """Flat (..., M*n) -> float particle coordinates (..., M, n)."""
        x = np.asarray(x, dtype=float)
        return x.reshape(*x.shape[:-1], self.n_particles, self.spatial_dim)

    def com_norm(self, x: np.ndarray) -> np.ndarray:
        """Flat (..., M*n) -> |center of mass| (...), from one product."""
        return np.linalg.norm(x @ self._com_weights, axis=-1)

    def diffs(self, x: np.ndarray) -> np.ndarray:
        """Flat (..., M*n) -> pair differences x_i - x_j (..., P, n)."""
        return np.matmul(self.incidence.T, self.configs(x))

    def pairs(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Flat (..., M*n) -> (``diffs`` (..., P, n), distances (..., P))."""
        diff = self.diffs(x)
        return diff, np.sqrt(spatial_dot(diff, diff))

    def scatter(self, c: np.ndarray) -> np.ndarray:
        """Per-pair vectors (B, P, n) -> flat (B, M*n): +c_p added to
        particle i and -c_p to particle j of each pair p."""
        out = np.matmul(self.incidence, c)
        return out.reshape(out.shape[0], -1)


def com_project(x: np.ndarray, proj: ComProjection) -> np.ndarray:
    """Subtract the per-coordinate center of mass (idempotent)."""
    conf = proj.configs(x)
    return (conf - conf.mean(axis=-2, keepdims=True)).reshape(x.shape)


def normals(rng: np.random.Generator, shape, proj: ComProjection | None
            ) -> np.ndarray:
    """A block of standard normals of ``shape``, projected onto the zero-CoM
    subspace of ``proj`` when given."""
    z = rng.standard_normal(shape)
    return z if proj is None else com_project(z, proj)


def _check_on_subspace(x: np.ndarray, proj: ComProjection, what: str) -> None:
    # a NaN or +-inf in x makes ``worst`` NaN or inf: scan only then
    with np.errstate(invalid="ignore"):
        worst = float(proj.com_norm(x).max())
    if not worst <= COM_TOLERANCE:
        if not np.all(np.isfinite(x)):
            raise ValueError(f"non-finite {what}")
        raise ValueError(
            f"{what} is off the zero-CoM subspace (|com| = {worst:.3e})")


def _check_geometry(model, proj: ComProjection | None) -> None:
    """A model with a ``proj`` runs only on a projection of its geometry."""
    own = getattr(model, "proj", None)
    want = None if own is None else (own.n_particles, own.spatial_dim)
    got = None if proj is None else (proj.n_particles, proj.spatial_dim)
    if want is not None and got != want:
        raise ValueError(f"the model's zero-CoM geometry (n_particles, "
                         f"spatial_dim) is {want}, the projection's {got}")


def spatial_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_k a[..., k] * b[..., k] over the short spatial axis.

    Adds the same terms in the same order as ``np.sum(a * b, axis=-1)``,
    one strided column at a time, which avoids numpy's per-row cost of
    reducing a length-n axis; the sums are bit-equal, except that a sum
    of negative zeros stays -0.0 here.
    """
    prod = a * b
    out = prod[..., 0].copy()
    for k in range(1, prod.shape[-1]):
        out += prod[..., k]
    return out
