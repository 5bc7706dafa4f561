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

    @cached_property
    def _log_weights(self) -> np.ndarray:
        with np.errstate(divide="ignore"):    # zero weights give -inf
            return np.log(self.weights)

    def log_density(self, x):
        return gmm_log_density(x, self)

    def grad_log_density(self, x):
        return gmm_noised_score(x, 0.0, self)

    def log_density_and_grad(self, x):
        """(log_density(x), grad_log_density(x)) from one pass over the
        components."""
        x2 = np.atleast_2d(np.asarray(x, dtype=float))
        if x2.shape[1] != self.dim:
            raise ValueError("dimension mismatch")
        diff, _, v, lp = _component_logpdfs(x2, self)
        log_p = logsumexp(lp, axis=0)
        grad = _mixture_score(diff, v, _responsibilities(lp))
        if log_p.shape == (1,):
            log_p = float(log_p[0])
        return log_p, grad[0] if np.asarray(x).ndim == 1 else grad

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


def _component_logpdfs(x: np.ndarray, gmm: Gmm, t: float = 0.0):
    """Component terms of the mixture convolved with N(0, t^2 I).

    Returns the differences x - mu_k (K, B, d), their squared norms
    (K, B), the convolved variances sigma_k^2 + t^2 as a (K, 1) column
    and the (K, B) log w_k N(x; mu_k, (sigma_k^2 + t^2) I); zero weights
    give -inf.  Components lead, so reductions over them are row-wise.
    """
    d = gmm.dim
    v = (gmm.variances + t * t)[:, None]
    diff = x - gmm.means[:, None, :]
    sq = np.einsum("kbd,kbd->kb", diff, diff)
    lp = (gmm._log_weights[:, None] - 0.5 * (d * LOG_2PI + d * np.log(v))
          - 0.5 * sq / v)
    return diff, sq, v, lp


def _responsibilities(lp: np.ndarray) -> np.ndarray:
    """Softmax over the components (axis 0) of their log densities,
    shifted by the per-point maximum."""
    r = np.exp(lp - np.max(lp, axis=0))
    r /= np.sum(r, axis=0)
    return r


def _gmm_posterior(x: np.ndarray, gmm: Gmm, t: float):
    """One responsibility pass: (diff, sq, v, resp) for the score, its
    divergence and its Hessian-vector product."""
    diff, sq, v, lp = _component_logpdfs(x, gmm, t)
    return diff, sq, v, _responsibilities(lp)


def _mixture_score(diff, v, resp) -> np.ndarray:
    """sum_k r_k s_k (B, d), component scores s_k = -(x - mu_k) / v_k."""
    return -np.einsum("kb,kbd->bd", resp / v, diff)


def gmm_log_density(x, gmm: Gmm):
    """log sum_k w_k N(x; mu_k, sigma_k^2 I) via logsumexp."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[1] != gmm.dim:
        raise ValueError("dimension mismatch")
    out = logsumexp(_component_logpdfs(x, gmm)[3], axis=0)
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
    diff, _, v, resp = _gmm_posterior(x2, gmm, t)
    out = _mixture_score(diff, v, resp)
    return out[0] if np.asarray(x).ndim == 1 else out


def gmm_noised_score_divergence(x, t: float, gmm: Gmm):
    """Exact divergence (Jacobian trace) of ``gmm_noised_score``."""
    x2 = np.atleast_2d(np.asarray(x, dtype=float))
    diff, sq, v, resp = _gmm_posterior(x2, gmm, t)
    sbar = _mixture_score(diff, v, resp)
    # trace of hessian of log p_t, with |s_k|^2 = |x - mu_k|^2 / v_k^2:
    #   sum_k r_k (|s_k|^2 - d / v_k) - |sbar|^2
    out = (np.sum(resp * (sq / (v * v) - gmm.dim / v), axis=0)
           - np.einsum("bd,bd->b", sbar, sbar))
    return float(out[0]) if np.asarray(x).ndim == 1 else out


def gmm_noised_score_hvp(x, t: float, gmm: Gmm, vec):
    """Hessian-vector product of log p_t, i.e. directional derivative of
    the score along ``vec``.  Batched over rows of x and vec."""
    x2 = np.atleast_2d(np.asarray(x, dtype=float))
    v2 = np.atleast_2d(np.asarray(vec, dtype=float))
    diff, _, v, resp = _gmm_posterior(x2, gmm, t)
    sbar = _mixture_score(diff, v, resp)
    # H = sum_k r_k (s_k s_k^T - I/v_k) - sbar sbar^T, where
    # (s_k . vec) s_k = ((x - mu_k) . vec) (x - mu_k) / v_k^2
    dv = np.einsum("kbd,bd->kb", diff, v2)
    out = (np.einsum("kb,kbd->bd", resp * dv / (v * v), diff)
           - np.sum(resp / v, axis=0)[:, None] * v2
           - sbar * np.einsum("bd,bd->b", sbar, v2)[:, None])
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
    """Pair geometry shared by the particle targets.

    Subclasses give ``_energy(conf, d)`` (B,) and ``_energy_grad(x2, conf,
    diff, d)`` (B, M*n) on one pair geometry; the public densities are
    built from them, so ``log_density_and_grad`` equals ``log_density``
    and ``grad_log_density`` bit for bit.
    """

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

    def energy(self, x) -> np.ndarray | float:
        _, conf, _, d = self._pairs(x)
        e = self._energy(conf, d)
        return float(e[0]) if np.asarray(x).ndim == 1 else e

    def grad_log_density(self, x) -> np.ndarray:
        return self._grad_log(x, *self._pairs(x))

    def log_density_and_grad(self, x):
        """(log_density(x), grad_log_density(x)) from one pair geometry."""
        x2, conf, diff, d = self._pairs(x)
        e = self._energy(conf, d)
        e = float(e[0]) if np.asarray(x).ndim == 1 else e
        return (-np.asarray(e) / self.temperature,
                self._grad_log(x, x2, conf, diff, d))

    def _grad_log(self, x, x2, conf, diff, d) -> np.ndarray:
        g = self._energy_grad(x2, conf, diff, d)
        g = -g / self.temperature
        return g.reshape(x2.shape)[0] if np.asarray(x).ndim == 1 else g.reshape(x2.shape)


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

    def log_density(self, x):
        return -np.asarray(self.energy(x)) / self.temperature

    def _energy(self, conf, d) -> np.ndarray:
        delta = d - self.d0
        return np.sum(self.a * delta + self.b * delta ** 2
                      + self.c * delta ** 4, axis=1)

    def _energy_grad(self, x2, conf, diff, d) -> np.ndarray:
        delta = d - self.d0
        de = self.a + 2.0 * self.b * delta + 4.0 * self.c * delta ** 3
        return _pair_force_assemble(self._incidence, diff, d, de)


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

    def log_density(self, x):
        return -np.asarray(self.energy(x)) / self.temperature

    def _energy(self, conf, d) -> np.ndarray:
        with np.errstate(divide="ignore", over="ignore"):
            inv6 = (self.r_m / d) ** 6
            pair = self.eps_lj * inv6 * (inv6 - 2.0)   # +inf at coincidence
        e = np.sum(pair, axis=1)
        centered = conf - conf.mean(axis=1, keepdims=True)
        return e + 0.5 * self.c_osc * np.sum(centered ** 2, axis=(1, 2))

    def _energy_grad(self, x2, conf, diff, d) -> np.ndarray:
        # a coincident pair gives inf - inf = NaN here; _pair_force_assemble
        # gives it no contribution
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            inv = self.r_m / d
            de = self.eps_lj * 12.0 * (inv ** 6 - inv ** 12) / d
        g = _pair_force_assemble(self._incidence, diff, d, de)
        centered = conf - conf.mean(axis=1, keepdims=True)
        return g + self.c_osc * centered.reshape(x2.shape)


def _pair_force_assemble(inc, diff, d, de) -> np.ndarray:
    """dE/dx from per-pair radial derivatives de = dE/dd, flattened (B, M*n).

    ``diff`` and ``d`` are the pair differences and distances of
    ``_pair_distances`` over the same incidence matrix ``inc``.  A pair at
    zero distance has no direction and contributes nothing, whatever its
    ``de`` (the denoiser's ``safe`` guard does the same).
    """
    contrib = diff / np.maximum(d, 1e-300)[:, :, None]   # unit vectors
    contrib *= np.where(d > 0.0, de, 0.0)[:, :, None]
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

    ``target`` needs ``dim``, ``log_density`` and ``grad_log_density``; its
    ``log_density_and_grad``, where it has one, gives both in one call per
    proposal.  Particle targets (``n_particles`` attribute) are sampled on
    the zero-center-of-mass subspace with projected proposals.  The step size
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

    joint = getattr(target, "log_density_and_grad", None) or (
        lambda z: (target.log_density(z), target.grad_log_density(z)))

    def evaluate(z):
        """Capped log-density and clipped, projected drift."""
        lp, g = joint(z)
        lp = np.maximum(np.asarray(lp, dtype=float), -energy_cap)
        g = project(np.asarray(g, dtype=float))
        norms = np.linalg.norm(g, axis=1, keepdims=True)
        scale = np.minimum(1.0, grad_clip / np.maximum(norms, 1e-300))
        return lp, g * scale

    x = project(init_scale * rng.standard_normal((n_chains, dim)))
    lp, gx = evaluate(x)
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
        lpy, gy = evaluate(y)
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
