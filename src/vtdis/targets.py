"""Target densities: Gaussian mixtures and pairwise particle systems.

The particle targets are DW-4 (``DoubleWell``), a double-well pair
potential on four particles in the plane, and LJ-13 (``LennardJones``),
a Lennard-Jones cluster of thirteen particles in 3-D with a harmonic
centering term: two fixed systems, their geometry class constants.  Both
are evaluated on zero-center-of-mass configurations and the
unnormalized log-density is -energy/temperature.  Each keeps its pairs
and zero-CoM subspace in one ``vtdis.equivariant.ComProjection``, ``proj``.

Every target answers its queries on a (B, d) batch of flat states and
returns batch-shaped results; any other shape raises ``ValueError``:

* ``log_density(x)``          -> (B,) unnormalized log-density

Particle targets add ``energy(x)`` and ``log_density_and_grad(x)``, the
log-density and its (B, d) gradient; each target has one energy formula,
which forms the gradient in the same pass when asked, so a MALA proposal
takes one energy pass and the joint call gives ``log_density`` bit for
bit.  ``Gmm`` adds exact
sampling, ``sample(rng, count)``; its noise-convolved score is the
analytic denoiser's (the mixture stays a mixture under convolution), from
one (K, B) responsibility pass whose softmax and division by v_k work in
the buffer of the component terms, moving only last bits (``_gmm_posterior``).
The module also provides a Metropolis-adjusted Langevin sampler,
``mcmc_sample``, for targets that cannot be sampled exactly.  Its caller
sets the chain count, burn-in and thinning, and the ``MALA_*`` constants
fix the rest.  Each problem it detects is reported once, as a
``RuntimeWarning``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import equivariant as eq
from .gaussians import LOG_2PI, as_batch, logsumexp, require_count


# ---------------------------------------------------------------------------
# Gaussian mixtures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Gmm:
    """Isotropic-component Gaussian mixture, holding read-only copies of
    its parameters."""

    weights: np.ndarray   # (K,), positive, sums to 1
    means: np.ndarray     # (K, d)
    variances: np.ndarray  # (K,), per-component isotropic variance

    def __post_init__(self):
        # copies: the cached log-weights must not go stale under the caller
        w = np.array(self.weights, dtype=float)
        mu = np.array(self.means, dtype=float)
        v = np.array(self.variances, dtype=float)
        if mu.ndim != 2 or w.shape != (mu.shape[0],) or v.shape != w.shape:
            raise ValueError("inconsistent mixture shapes")
        if np.any(w < 0) or not np.any(w > 0) or not np.isclose(np.sum(w), 1.0):
            raise ValueError("weights must be nonnegative and sum to 1")
        if not np.all(np.isfinite(mu)):
            raise ValueError("means must be finite")
        if not np.all((v > 0) & (v < np.inf)):     # false for a NaN too
            raise ValueError("variances must be positive and finite")
        for name, value in (("weights", w), ("means", mu), ("variances", v)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    @cached_property
    def _log_weights(self) -> np.ndarray:
        with np.errstate(divide="ignore"):    # zero weights give -inf
            return np.log(self.weights)

    @cached_property
    def _mean_norms(self) -> np.ndarray:
        """|mu_k|^2 as a (K, 1) column."""
        return np.einsum("kd,kd->k", self.means, self.means)[:, None]

    def log_density(self, x):
        """log sum_k w_k N(x; mu_k, sigma_k^2 I) per row, via logsumexp."""
        return logsumexp(_component_logpdfs(as_batch(x, self.dim), self)[2],
                         axis=0)

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        require_count("count", count)
        comps = rng.choice(len(self.weights), size=count, p=self.weights)
        noise = rng.standard_normal((count, self.dim))
        return (self.means[comps]
                + np.sqrt(self.variances[comps])[:, None] * noise)


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

    Returns the squared distances |x - mu_k|^2 = |x|^2 - 2 mu_k . x
    + |mu_k|^2 (K, B), from one (K, B) product and no (K, B, d)
    differences; the convolved variances sigma_k^2 + t^2 as a (K, 1)
    column; and the (K, B) log w_k N(x; mu_k, (sigma_k^2 + t^2) I), where
    zero weights give -inf.  Components lead, so reductions over them are
    row-wise.
    """
    d = gmm.dim
    v = (gmm.variances + t * t)[:, None]
    sq = gmm.means @ x.T
    sq *= -2.0
    sq += np.einsum("bd,bd->b", x, x)
    sq += gmm._mean_norms
    lp = sq * (-0.5 / v)
    lp += gmm._log_weights[:, None] - 0.5 * (d * LOG_2PI + d * np.log(v))
    return sq, v, lp


class _Posterior(NamedTuple):
    """One responsibility pass over a (B, d) batch: all that the score,
    its divergence and its HVP need, as (K, B), (B, 1) or (B, d) arrays."""

    x: np.ndarray       # (B, d)
    means: np.ndarray   # (K, d)
    sq: np.ndarray      # (K, B) |x - mu_k|^2
    v: np.ndarray       # (K, 1) convolved variances
    rv: np.ndarray      # (K, B) responsibilities over variances, r_k / v_k
    prec: np.ndarray    # (B, 1) sum_k r_k / v_k
    score: np.ndarray   # (B, d)


def _gmm_posterior(x: np.ndarray, gmm: Gmm, t: float) -> _Posterior:
    """The pass at noise level t, with the score
    sbar = -sum_k r_k (x - mu_k) / v_k = (r / v)^T mu - (sum_k r_k / v_k) x
    formed from (K, B) products."""
    sq, v, lp = _component_logpdfs(x, gmm, t)
    lp -= lp.max(axis=0)
    rv = np.exp(lp, out=lp)
    rv /= rv.sum(axis=0) * v
    prec = rv.sum(axis=0)[:, None]
    score = rv.T @ gmm.means
    score -= prec * x
    return _Posterior(x, gmm.means, sq, v, rv, prec, score)


def _posterior_divergence(post: _Posterior) -> np.ndarray:
    """Trace of the Hessian of log p_t (B,) from a ``_gmm_posterior``
    pass, with |s_k|^2 = |x - mu_k|^2 / v_k^2:
    sum_k r_k (|s_k|^2 - d / v_k) - |sbar|^2."""
    a = post.sq / post.v
    div = np.multiply(a, post.rv, out=a).sum(axis=0)
    div -= post.x.shape[1] * post.prec[:, 0]
    div -= np.einsum("bd,bd->b", post.score, post.score)
    return div


def _posterior_hvp(post: _Posterior, vec: np.ndarray) -> np.ndarray:
    """Hessian of log p_t times ``vec`` (B, d) from a ``_gmm_posterior``
    pass: H = sum_k r_k (s_k s_k^T - I/v_k) - sbar sbar^T.  With
    c_k = r_k (mu_k . vec - x . vec) / v_k^2 from one (K, B) product,
    sum_k r_k (s_k . vec) s_k = c^T mu - (sum_k c_k) x."""
    c = post.means @ vec.T
    c -= np.einsum("bd,bd->b", post.x, vec)
    c *= post.rv
    c /= post.v
    out = c.T @ post.means
    out -= c.sum(axis=0)[:, None] * post.x
    out -= post.prec * vec
    out -= post.score * np.einsum("bd,bd->b", post.score, vec)[:, None]
    return out


# ---------------------------------------------------------------------------
# particle systems
# ---------------------------------------------------------------------------

class _PairSystem:
    """Pair geometry shared by the particle targets.

    Subclasses give ``_energy_and_grad(conf, diff, d, grad)``: the (B,)
    energy of one pair geometry and, when ``grad``, its (B, M*n) gradient
    from the same pass (else None).  Both public densities take the
    energy from it, so ``log_density_and_grad`` gives ``log_density`` bit
    for bit.  The log-density is -energy / ``temperature``.
    """

    temperature = 1.0

    @property
    def dim(self) -> int:
        return self.n_particles * self.spatial_dim

    @cached_property
    def proj(self) -> eq.ComProjection:
        return eq.ComProjection(self.n_particles, self.spatial_dim)

    def _pairs(self, x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(conf (B, M, n), pair diffs, pair distances)."""
        x2 = as_batch(x, self.dim)
        return (self.proj.configs(x2),) + self.proj.pairs(x2)

    def energy(self, x) -> np.ndarray:
        return self._energy_and_grad(*self._pairs(x), False)[0]

    def log_density(self, x):
        return -self.energy(x) / self.temperature

    def log_density_and_grad(self, x):
        """(log_density(x), its gradient) from one energy pass."""
        e, g = self._energy_and_grad(*self._pairs(x), True)
        return -e / self.temperature, -g / self.temperature


class DoubleWell(_PairSystem):
    """DW-4: the pairwise double-well system of 4 particles in 2-D.

    Pair energy a*(d - d0) + b*(d - d0)^2 + c*(d - d0)^4 summed over
    unordered pairs; log-density is -E/temperature.
    """

    n_particles = 4
    spatial_dim = 2
    d0 = 4.0
    a = 0.0
    b = -4.0
    c = 0.9

    # bound here as well, where the benchmark's tracer looks it up
    log_density = _PairSystem.log_density

    def _energy_and_grad(self, conf, diff, d, grad):
        delta = d - self.d0
        e = np.sum(self.a * delta + self.b * delta ** 2
                   + self.c * delta ** 4, axis=1)
        if not grad:
            return e, None
        de = self.a + 2.0 * self.b * delta + 4.0 * self.c * delta ** 3
        return e, _pair_force_assemble(self.proj, diff, d, de)


class LennardJones(_PairSystem):
    """LJ-13: 13 Lennard-Jones particles in 3-D with a harmonic centering pull.

    Pair energy eps_lj * ((r_m/d)^12 - 2 (r_m/d)^6), minimized at d = r_m
    with value -eps_lj; the centering term 0.5 * c_osc * sum_i |x_i - com|^2
    keeps the cluster bounded.
    """

    n_particles = 13
    spatial_dim = 3
    c_osc = 0.5
    eps_lj = 1.0
    r_m = 1.0

    log_density = _PairSystem.log_density

    def _energy_and_grad(self, conf, diff, d, grad):
        # a coincident pair: energy +inf, de = inf - inf = NaN, which
        # _pair_force_assemble drops; inv ** 12 rounds unlike inv6 * inv6
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            inv = self.r_m / d
            inv6 = inv ** 6
            pair = self.eps_lj * inv6 * (inv6 - 2.0)
            de = self.eps_lj * 12.0 * (inv6 - inv ** 12) / d if grad else None
        centered = conf - conf.mean(axis=1, keepdims=True)
        e = np.sum(pair, axis=1) + 0.5 * self.c_osc * np.sum(centered ** 2,
                                                              axis=(1, 2))
        if not grad:
            return e, None
        g = _pair_force_assemble(self.proj, diff, d, de)
        return e, g + self.c_osc * centered.reshape(g.shape)


def _pair_force_assemble(proj: eq.ComProjection, diff, d, de
                         ) -> np.ndarray:
    """dE/dx from per-pair radial derivatives de = dE/dd, flattened (B, M*n).

    ``diff`` and ``d`` are the pair differences and distances of
    ``_PairSystem._pairs`` over the same ``proj``.  A pair at zero
    distance has no direction and contributes nothing, whatever its
    ``de`` (the denoiser's ``safe`` guard does the same).
    """
    contrib = diff / np.maximum(d, 1e-300)[:, :, None]   # unit vectors
    contrib *= np.where(d > 0.0, de, 0.0)[:, :, None]
    return proj.scatter(contrib)


# ---------------------------------------------------------------------------
# MCMC sampling
# ---------------------------------------------------------------------------

# initial step size of every chain, scale of the random start, gradient-norm
# clip, energy cap, and the acceptance rate the burn-in adaptation aims at
MALA_STEP_SIZE = 0.1
MALA_INIT_SCALE = 2.0
MALA_GRAD_CLIP = 1.0e3
MALA_ENERGY_CAP = 1.0e6
MALA_TARGET_ACCEPT = 0.574


@dataclass
class McmcReport:
    """``acceptance_rate`` is over every proposal, burn-in included;
    ``chain_acceptance`` (n_chains,) is each chain's rate after burn-in,
    at its frozen step size."""

    acceptance_rate: float
    chain_acceptance: np.ndarray


def mcmc_sample(rng: np.random.Generator, target, count: int, *,
                n_chains: int = 64, burn_in: int = 2000, thin: int = 10
                ) -> tuple[np.ndarray, McmcReport]:
    """Metropolis-adjusted Langevin chains targeting exp(log_density).

    ``target`` needs ``dim`` and ``log_density_and_grad``, which gives the
    log-density and its gradient in one call per proposal.  Particle
    targets (a ``proj`` attribute) are sampled on its zero-center-of-mass
    subspace with projected proposals.  Each chain has its own step size,
    adapted on its own accepts toward ``MALA_TARGET_ACCEPT`` during
    burn-in and frozen after, so a chain that starts on a steep wall
    shrinks its step until it moves; a chain that still accepts nothing
    after burn-in is warned about, and so is an overall acceptance rate
    outside [0.1, 0.9].  Gradients are
    norm-clipped and energies capped inside the kernel; the Metropolis
    ratio uses the actual (clipped) proposal densities, so the chain
    remains exact for the capped target.

    Returns ``(samples (count, dim), report)``; a ``count``,
    ``n_chains`` or ``thin`` that is not an integer >= 1, or a
    ``burn_in`` that is not one >= 0, raises ``ValueError``.
    """
    for name, value, least in (("count", count, 1), ("n_chains", n_chains, 1),
                               ("thin", thin, 1), ("burn_in", burn_in, 0)):
        require_count(name, value, least)
    dim = target.dim
    proj = getattr(target, "proj", None)

    def evaluate(z):
        """Capped log-density and clipped, projected drift, scaled only
        when some norm is above the clip or NaN (every scale is else 1.0)."""
        lp, g = target.log_density_and_grad(z)
        lp = np.maximum(lp, -MALA_ENERGY_CAP)
        if proj is not None:
            g = eq.com_project(g, proj)
        norms = np.linalg.norm(g, axis=1, keepdims=True)
        if not np.all(norms <= MALA_GRAD_CLIP):
            g = g * np.minimum(1.0, MALA_GRAD_CLIP / np.maximum(norms, 1e-300))
        return lp, g

    x = MALA_INIT_SCALE * eq.normals(rng, (n_chains, dim), proj)
    lp, gx = evaluate(x)
    h = np.full(n_chains, MALA_STEP_SIZE)
    per_chain = -(-count // n_chains)
    keep: list[np.ndarray] = []
    accepts = 0
    chain_accepts = np.zeros(n_chains)
    total_iters = burn_in + per_chain * thin

    for it in range(total_iters):
        h2 = h * h
        half = 0.5 * h2[:, None]
        noise = eq.normals(rng, (n_chains, dim), proj)
        mean_fwd = x + half * gx
        y = mean_fwd + h[:, None] * noise
        lpy, gy = evaluate(y)
        mean_bwd = y + half * gy
        log_q_fwd = -np.sum((y - mean_fwd) ** 2, axis=1) / (2.0 * h2)
        log_q_bwd = -np.sum((x - mean_bwd) ** 2, axis=1) / (2.0 * h2)
        log_alpha = lpy - lp + log_q_bwd - log_q_fwd
        acc = np.log(rng.uniform(size=n_chains)) < log_alpha
        np.copyto(x, y, where=acc[:, None])
        np.copyto(lp, lpy, where=acc)
        np.copyto(gx, gy, where=acc[:, None])
        accepts += int(np.sum(acc))
        if it < burn_in:
            # per-chain stochastic approximation toward the target rate
            h *= np.exp(0.05 * (acc - MALA_TARGET_ACCEPT))
        else:
            chain_accepts += acc
            if (it - burn_in) % thin == thin - 1:
                keep.append(x.copy())

    samples = np.concatenate(keep, axis=0)[:count]
    rate = accepts / (n_chains * total_iters)
    if not 0.1 <= rate <= 0.9:
        warnings.warn(f"mcmc_sample: acceptance rate {rate:.3f} outside "
                      "[0.1, 0.9]", RuntimeWarning, stacklevel=2)
    frozen = int(np.sum(chain_accepts == 0))
    if frozen:
        warnings.warn(f"mcmc_sample: {frozen} of {n_chains} chains accepted "
                      "nothing after burn-in", RuntimeWarning, stacklevel=2)
    return samples, McmcReport(float(rate),
                               chain_accepts / (total_iters - burn_in))
