"""Target densities: Gaussian mixtures and pairwise particle systems.

Particle targets follow the standard many-body benchmarks: a double-well
pair potential on four particles in the plane (DW-4) and a Lennard-Jones
cluster of thirteen particles in 3-D with a harmonic centering term
(LJ-13).  Both are evaluated on zero-center-of-mass configurations and the
unnormalized log-density is -energy/temperature.

The module also provides exact sampling for mixtures, closed-form
noise-convolved scores (the mixture stays a mixture under Gaussian
convolution), and a Metropolis-adjusted Langevin sampler for targets that
cannot be sampled exactly.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .gaussians import LOG_2PI, logsumexp

logger = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# Gaussian mixtures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Gmm:
    """Isotropic-component Gaussian mixture."""

    weights: np.ndarray   # (K,), positive, sums to 1
    means: np.ndarray     # (K, d)
    variances: np.ndarray  # (K,), per-component isotropic variance

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        mu = np.asarray(self.means, dtype=float)
        v = np.asarray(self.variances, dtype=float)
        if mu.ndim != 2 or w.shape != (mu.shape[0],) or v.shape != w.shape:
            raise ValueError("inconsistent mixture shapes")
        if np.any(w < 0) or not np.any(w > 0) or not np.isclose(np.sum(w), 1.0):
            raise ValueError("weights must be nonnegative and sum to 1")
        if np.any(v <= 0):
            raise ValueError("variances must be positive")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", mu)
        object.__setattr__(self, "variances", v)

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    @property
    def n_components(self) -> int:
        return self.means.shape[0]

    def log_density(self, x):
        return gmm_log_density(x, self)

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        return gmm_sample(rng, self, count)

    def score(self, x, t: float = 0.0):
        return gmm_noised_score(x, t, self)


def two_mode_gmm(dim: int) -> Gmm:
    """The standard two-mode benchmark mixture in ``dim`` dimensions.

    Component means are the all-ones and all-minus-twos vectors with
    weights 2/3 and 1/3 and common variance 0.15, so the mixture mean is
    exactly zero.
    """
    means = np.stack([np.ones(dim), -2.0 * np.ones(dim)])
    return Gmm(weights=np.array([2.0 / 3.0, 1.0 / 3.0]), means=means,
               variances=np.array([0.15, 0.15]))


def single_gaussian(dim: int, variance: float = 1.0, mean: float = 0.0) -> Gmm:
    return Gmm(weights=np.array([1.0]),
               means=np.full((1, dim), float(mean)),
               variances=np.array([float(variance)]))


def _component_logpdfs(x: np.ndarray, gmm: Gmm, t: float = 0.0) -> np.ndarray:
    """(B, K) log w_k N(x; mu_k, (sigma_k^2 + t^2) I)."""
    d = gmm.dim
    v = gmm.variances + t * t                              # (K,)
    diff = x[:, None, :] - gmm.means[None, :, :]           # (B, K, d)
    q = np.sum(diff * diff, axis=2) / v[None, :]
    with np.errstate(divide="ignore"):    # zero weights contribute -inf
        logw = np.log(gmm.weights)
    return (logw[None, :]
            - 0.5 * (d * LOG_2PI + d * np.log(v))[None, :] - 0.5 * q)


def gmm_log_density(x, gmm: Gmm):
    """log sum_k w_k N(x; mu_k, sigma_k^2 I) via logsumexp."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[1] != gmm.dim:
        raise ValueError("dimension mismatch")
    out = logsumexp(_component_logpdfs(x, gmm), axis=1)
    return float(out[0]) if out.shape == (1,) else out


def gmm_sample(rng: np.random.Generator, gmm: Gmm, count: int) -> np.ndarray:
    comps = rng.choice(gmm.n_components, size=count, p=gmm.weights)
    noise = rng.standard_normal((count, gmm.dim))
    return gmm.means[comps] + np.sqrt(gmm.variances[comps])[:, None] * noise


def gmm_noised_score(x, t: float, gmm: Gmm):
    """Exact score of the noise-convolved mixture p_t = pi * N(0, t^2 I).

    Each component convolves to variance sigma_k^2 + t^2, so the score is
    the responsibility-weighted sum of per-component linear scores.
    """
    x2 = np.atleast_2d(np.asarray(x, dtype=float))
    lp = _component_logpdfs(x2, gmm, t)
    resp = np.exp(lp - logsumexp(lp, axis=1)[:, None])      # (B, K)
    v = gmm.variances + t * t
    comp_scores = -(x2[:, None, :] - gmm.means[None, :, :]) / v[None, :, None]
    out = np.einsum("bk,bkd->bd", resp, comp_scores)
    return out[0] if np.asarray(x).ndim == 1 else out


def gmm_noised_score_divergence(x, t: float, gmm: Gmm):
    """Exact divergence (Jacobian trace) of ``gmm_noised_score``."""
    x2 = np.atleast_2d(np.asarray(x, dtype=float))
    d = gmm.dim
    lp = _component_logpdfs(x2, gmm, t)
    resp = np.exp(lp - logsumexp(lp, axis=1)[:, None])
    v = gmm.variances + t * t
    comp_scores = -(x2[:, None, :] - gmm.means[None, :, :]) / v[None, :, None]
    sbar = np.einsum("bk,bkd->bd", resp, comp_scores)
    # trace of hessian of log p_t:
    #   sum_k r_k (|s_k|^2 - d / v_k) - |sbar|^2
    sk2 = np.sum(comp_scores * comp_scores, axis=2)         # (B, K)
    out = (np.einsum("bk,bk->b", resp, sk2 - d / v[None, :])
           - np.sum(sbar * sbar, axis=1))
    return float(out[0]) if np.asarray(x).ndim == 1 else out


def gmm_noised_score_hvp(x, t: float, gmm: Gmm, vec):
    """Hessian-vector product of log p_t, i.e. directional derivative of
    the score along ``vec``.  Batched over rows of x and vec."""
    x2 = np.atleast_2d(np.asarray(x, dtype=float))
    v2 = np.atleast_2d(np.asarray(vec, dtype=float))
    lp = _component_logpdfs(x2, gmm, t)
    resp = np.exp(lp - logsumexp(lp, axis=1)[:, None])
    var = gmm.variances + t * t
    comp_scores = -(x2[:, None, :] - gmm.means[None, :, :]) / var[None, :, None]
    sbar = np.einsum("bk,bkd->bd", resp, comp_scores)
    # H = sum_k r_k (s_k s_k^T - I/v_k) - sbar sbar^T
    sv = np.einsum("bkd,bd->bk", comp_scores, v2)
    out = (np.einsum("bk,bkd->bd", resp * sv, comp_scores)
           - np.einsum("bk,k->b", resp, 1.0 / var)[:, None] * v2
           - sbar * np.sum(sbar * v2, axis=1)[:, None])
    return out[0] if np.asarray(x).ndim == 1 else out


# ---------------------------------------------------------------------------
# particle systems
# ---------------------------------------------------------------------------

def remove_com(x: np.ndarray, n_particles: int, spatial_dim: int) -> np.ndarray:
    """Subtract the per-coordinate particle mean; works on (..., M*n)."""
    shape = x.shape
    conf = x.reshape(-1, n_particles, spatial_dim)
    conf = conf - conf.mean(axis=1, keepdims=True)
    return conf.reshape(shape)


def pair_incidence(m: int) -> np.ndarray:
    """Signed incidence matrix (m, P) of the pairs i < j of ``m`` particles.

    Pairs follow ``np.triu_indices(m, k=1)`` order; column p holds +1 at
    its leading particle i and -1 at its trailing particle j.  Gathers and
    scatters over pairs are then single matmuls on (B, m, n) batches:
    ``inc.T @ conf`` gives the pair differences x_i - x_j, and ``inc @ c``
    adds +c_p to particle i and -c_p to particle j.
    """
    ii, jj = np.triu_indices(m, k=1)
    cols = np.arange(ii.shape[0])
    inc = np.zeros((m, ii.shape[0]))
    inc[ii, cols] = 1.0
    inc[jj, cols] = -1.0
    return inc


def _spatial_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_k a[..., k] * b[..., k] over the short spatial axis.

    Adds the same terms in the same order as ``np.sum(a * b, axis=-1)``,
    one strided column at a time, which avoids numpy's per-row cost of
    reducing a length-n axis.
    """
    prod = a * b
    out = prod[..., 0].copy()
    for k in range(1, prod.shape[-1]):
        out += prod[..., k]
    return out


def _pair_distances(conf: np.ndarray, inc: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray]:
    """conf (B, M, n) -> (diffs (B, P, n), dists (B, P)) over the pairs of
    the incidence matrix ``inc = pair_incidence(M)``; one matmul gathers
    every pair difference."""
    diff = np.matmul(inc.T, conf)
    return diff, np.sqrt(_spatial_dot(diff, diff))


class _PairSystem:
    """Pair geometry shared by the particle targets."""

    @property
    def dim(self) -> int:
        return self.n_particles * self.spatial_dim

    @cached_property
    def _incidence(self) -> np.ndarray:
        return pair_incidence(self.n_particles)

    def _pairs(self, x) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(x2 (B, M*n), conf (B, M, n), pair diffs, pair distances)."""
        x2 = np.atleast_2d(np.asarray(x, dtype=float))
        conf = x2.reshape(x2.shape[0], self.n_particles, self.spatial_dim)
        return (x2, conf) + _pair_distances(conf, self._incidence)


@dataclass(frozen=True)
class DoubleWell(_PairSystem):
    """Pairwise double-well system, 4 particles in 2-D by default.

    Pair energy a*(d - d0) + b*(d - d0)^2 + c*(d - d0)^4 summed over
    unordered pairs; log-density is -E/temperature.
    """

    n_particles: int = 4
    spatial_dim: int = 2
    a: float = 0.0
    b: float = -4.0
    c: float = 0.9
    d0: float = 4.0
    temperature: float = 1.0
    name: str = "dw4"

    def energy(self, x) -> np.ndarray | float:
        _, _, _, d = self._pairs(x)
        delta = d - self.d0
        e = np.sum(self.a * delta + self.b * delta ** 2 + self.c * delta ** 4,
                   axis=1)
        return float(e[0]) if np.asarray(x).ndim == 1 else e

    def log_density(self, x):
        return -np.asarray(self.energy(x)) / self.temperature

    def grad_log_density(self, x) -> np.ndarray:
        x2, _, diff, d = self._pairs(x)
        delta = d - self.d0
        de = self.a + 2.0 * self.b * delta + 4.0 * self.c * delta ** 3
        g = _pair_force_assemble(self._incidence, diff, d, de)
        g = -g / self.temperature
        return g.reshape(x2.shape)[0] if np.asarray(x).ndim == 1 else g.reshape(x2.shape)


@dataclass(frozen=True)
class LennardJones(_PairSystem):
    """Lennard-Jones cluster with a harmonic pull toward the center of mass.

    Pair energy eps_lj * ((r_m/d)^12 - 2 (r_m/d)^6), minimized at d = r_m
    with value -eps_lj; the centering term 0.5 * c_osc * sum_i |x_i - com|^2
    keeps the cluster bounded.
    """

    n_particles: int = 13
    spatial_dim: int = 3
    eps_lj: float = 1.0
    r_m: float = 1.0
    c_osc: float = 0.5
    temperature: float = 1.0
    name: str = "lj13"

    def energy(self, x) -> np.ndarray | float:
        _, conf, _, d = self._pairs(x)
        with np.errstate(divide="ignore", over="ignore"):
            inv6 = (self.r_m / d) ** 6
            pair = self.eps_lj * inv6 * (inv6 - 2.0)   # +inf at coincidence
        e = np.sum(pair, axis=1)
        centered = conf - conf.mean(axis=1, keepdims=True)
        e = e + 0.5 * self.c_osc * np.sum(centered ** 2, axis=(1, 2))
        return float(e[0]) if np.asarray(x).ndim == 1 else e

    def log_density(self, x):
        return -np.asarray(self.energy(x)) / self.temperature

    def grad_log_density(self, x) -> np.ndarray:
        x2, conf, diff, d = self._pairs(x)
        with np.errstate(divide="ignore", over="ignore"):
            inv = self.r_m / d
            de = self.eps_lj * 12.0 * (inv ** 6 - inv ** 12) / d
        g = _pair_force_assemble(self._incidence, diff, d, de)
        centered = conf - conf.mean(axis=1, keepdims=True)
        g = g + self.c_osc * centered.reshape(x2.shape)
        g = -g / self.temperature
        return g.reshape(x2.shape)[0] if np.asarray(x).ndim == 1 else g.reshape(x2.shape)


def _pair_force_assemble(inc, diff, d, de) -> np.ndarray:
    """dE/dx from per-pair radial derivatives de = dE/dd, flattened (B, M*n).

    ``diff`` and ``d`` are the pair differences and distances of
    ``_pair_distances`` over the same incidence matrix ``inc``.
    """
    contrib = diff / d[:, :, None]          # unit vectors, then scaled
    contrib *= de[:, :, None]
    g = np.matmul(inc, contrib)
    return g.reshape(g.shape[0], -1)


# ---------------------------------------------------------------------------
# MCMC sampling
# ---------------------------------------------------------------------------

@dataclass
class McmcReport:
    acceptance_rate: float
    step_size: float
    warnings: list = field(default_factory=list)


def mcmc_sample(rng: np.random.Generator, target, count: int, *,
                n_chains: int = 64, burn_in: int = 2000, thin: int = 10,
                step_size: float = 0.1, init_scale: float = 2.0,
                grad_clip: float = 1.0e3, energy_cap: float = 1.0e6,
                target_accept: float = 0.574) -> tuple[np.ndarray, McmcReport]:
    """Metropolis-adjusted Langevin chains targeting exp(log_density).

    ``target`` needs ``dim``, ``log_density`` and ``grad_log_density``;
    particle targets (``n_particles`` attribute) are sampled on the
    zero-center-of-mass subspace with projected proposals.  The step size
    is adapted toward ``target_accept`` during burn-in and frozen after.
    Gradients are norm-clipped and energies capped inside the kernel; the
    Metropolis ratio uses the actual (clipped) proposal densities, so the
    chain remains exact for the capped target.

    Returns ``(samples (count, dim), report)``.
    """
    dim = target.dim
    particles = getattr(target, "n_particles", None)

    def project(z):
        if particles is None:
            return z
        return remove_com(z, particles, target.spatial_dim)

    def logpi(z):
        lp = np.asarray(target.log_density(z), dtype=float)
        return np.maximum(lp, -energy_cap)

    def drift(z):
        g = project(np.asarray(target.grad_log_density(z), dtype=float))
        norms = np.linalg.norm(g, axis=1, keepdims=True)
        scale = np.minimum(1.0, grad_clip / np.maximum(norms, 1e-300))
        return g * scale

    x = project(init_scale * rng.standard_normal((n_chains, dim)))
    lp = logpi(x)
    gx = drift(x)
    h = float(step_size)
    per_chain = -(-count // n_chains)
    keep: list[np.ndarray] = []
    accepts = 0
    proposals = 0
    total_iters = burn_in + per_chain * thin

    for it in range(total_iters):
        noise = project(rng.standard_normal((n_chains, dim)))
        mean_fwd = x + 0.5 * h * h * gx
        y = mean_fwd + h * noise
        lpy = logpi(y)
        gy = drift(y)
        mean_bwd = y + 0.5 * h * h * gy
        log_q_fwd = -np.sum((y - mean_fwd) ** 2, axis=1) / (2.0 * h * h)
        log_q_bwd = -np.sum((x - mean_bwd) ** 2, axis=1) / (2.0 * h * h)
        log_alpha = lpy - lp + log_q_bwd - log_q_fwd
        acc = np.log(rng.uniform(size=n_chains)) < log_alpha
        x[acc] = y[acc]
        lp[acc] = lpy[acc]
        gx[acc] = gy[acc]
        accepts += int(np.sum(acc))
        proposals += n_chains
        if it < burn_in:
            # stochastic approximation toward the target acceptance rate
            rate = np.mean(acc)
            h *= float(np.exp(0.05 * (rate - target_accept)))
        elif (it - burn_in) % thin == thin - 1:
            keep.append(x.copy())

    samples = np.concatenate(keep, axis=0)[:count]
    rate = accepts / proposals
    report = McmcReport(acceptance_rate=float(rate), step_size=h)
    if not 0.1 <= rate <= 0.9:
        msg = f"acceptance rate {rate:.3f} outside [0.1, 0.9]"
        report.warnings.append(msg)
        logger.warning("mcmc_sample: %s", msg)
    return samples, report


# ---------------------------------------------------------------------------
# dataset files
# ---------------------------------------------------------------------------

def save_dataset(path, samples: np.ndarray, target_name: str,
                 n_particles: int | None = None,
                 spatial_dim: int | None = None) -> None:
    """One configuration per row of comma-separated floats, with a
    one-line header naming the target and its dimensions."""
    samples = np.asarray(samples, dtype=float)
    parts = [f"target={target_name}", f"dim={samples.shape[1]}"]
    if n_particles is not None:
        parts += [f"particles={n_particles}", f"spatial={spatial_dim}"]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# " + " ".join(parts) + "\n")
        np.savetxt(fh, samples, delimiter=",", fmt="%.17g")


def load_dataset(path) -> tuple[np.ndarray, dict]:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        if not header.startswith("#"):
            raise ValueError("dataset file missing header line")
        meta = {}
        for tok in header[1:].split():
            key, _, val = tok.partition("=")
            meta[key] = val
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    return data, meta
