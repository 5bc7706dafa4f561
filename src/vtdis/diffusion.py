"""Forward/reverse trajectory simulation and exact joint log-densities.

The forward chain adds independent Gaussian increments,
``x_n = x_{n-1} + sqrt(t_n^2 - t_{n-1}^2) xi``, so the conditional target
kernel is ``N(x_n; x_{n-1}, (t_n^2 - t_{n-1}^2) I)``.  The reverse sampler
draws ``x_{n-1}`` around the Bayes posterior mean

    mean = (t_{n-1}^2 / t_n^2) x_n + (1 - t_{n-1}^2 / t_n^2) x0_hat

with a per-step proposal covariance (tuned or baseline) whose natural
scale is the posterior variance t_{n-1}^2 (t_n^2 - t_{n-1}^2) / t_n^2.
The terminal prior is N(0, T^2 I) regardless of the forward marginal; the
mismatch is part of what the trajectory importance weight corrects.

Log weights follow the target-over-proposal convention

    log w = log pi(x_0) + sum_n log q(x_n | x_{n-1})
            - log p(x_N) - sum_n log p(x_{n-1} | x_n).

Particle systems run entirely on the zero-center-of-mass subspace: pass a
``ComProjection`` and all kernels become projected Gaussians.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import equivariant as eq
from . import gaussians as ga
from .schedule import TimeGrid


# ---------------------------------------------------------------------------
# elementary kernels
# ---------------------------------------------------------------------------

def _iso_logpdf(delta: np.ndarray, var: float, proj=None) -> np.ndarray:
    """log N(delta; 0, var I) per row, over the subspace with ``proj``."""
    d = delta.shape[-1] if proj is None else proj.subspace_dim
    return ga._scaled_log_density(delta, var, d)


def forward_kernel_log_density(x_next, x_prev, n: int, grid: TimeGrid,
                               proj=None):
    """log q(x_n | x_{n-1}) = log N(x_n; x_{n-1}, (t_n^2 - t_{n-1}^2) I)."""
    xn = np.atleast_2d(np.asarray(x_next, dtype=float))
    xp = np.atleast_2d(np.asarray(x_prev, dtype=float))
    out = _iso_logpdf(xn - xp, grid.forward_var(n), proj)
    return float(out[0]) if np.asarray(x_next).ndim == 1 else out


def ddpm_posterior(x_n, x0_hat, n: int, grid: TimeGrid):
    """Posterior mean and base variance of x_{n-1} given (x_n, x0_hat)."""
    if n < 1:
        raise ValueError("posterior undefined at n = 0")
    r = grid.mean_ratio(n)
    mean = r * np.asarray(x_n, dtype=float) \
        + (1.0 - r) * np.asarray(x0_hat, dtype=float)
    return mean, grid.ddpm_var(n)


def prior_log_density(x, t_max: float, proj=None):
    x2 = np.atleast_2d(np.asarray(x, dtype=float))
    out = _iso_logpdf(x2, t_max * t_max, proj)
    return float(out[0]) if np.asarray(x).ndim == 1 else out


class StepKernel:
    """Sampling and density for one reverse step's proposal covariance.

    Wraps a :class:`~vtdis.gaussians.Covariance`; with a projection the
    kernel lives on the zero-CoM subspace (isotropic and particle-block
    structures only).
    """

    def __init__(self, cov: ga.Covariance, proj: eq.ComProjection | None):
        if proj is not None and cov.kind not in ("isotropic", "kron_block"):
            raise ValueError(
                f"{cov.kind} covariance is not defined on the CoM subspace")
        self.cov = cov
        self.proj = proj

    def logpdf(self, x: np.ndarray, mean: np.ndarray) -> np.ndarray:
        delta = np.atleast_2d(x - mean)
        if self.proj is None:
            return ga._log_density_delta(delta, self.cov)
        eq._check_on_subspace(delta, self.proj, "residual")
        return eq._subspace_log_density(delta, self.cov, self.proj)

    def _draw(self, z: np.ndarray, mean: np.ndarray) -> np.ndarray:
        """Map standard normals (one row per sample) to a sample."""
        cov, proj = self.cov, self.proj
        s = cov.base_variance
        if cov.kind == "isotropic":
            noise = z if proj is None else eq.com_project(z, proj)
            return mean + np.sqrt(s * cov.eta) * noise
        if cov.kind == "diagonal":
            return mean + np.sqrt(s * cov.etas) * z
        if cov.kind == "full_factor":
            return mean + np.sqrt(s) * (z @ cov.factor.T)
        # kron_block; on the subspace, V B V^T in the coordinates P x
        block = cov.block if proj is None else proj.reduced_block(cov.block)
        m, n = block.shape[0], cov.spatial_dim
        corr = np.sqrt(s) * np.einsum("ij,bjn->bin", np.linalg.cholesky(block),
                                      z.reshape(-1, m, n))
        corr = corr.reshape(z.shape[0], m * n)
        return mean + (corr if proj is None else proj.to_ambient(corr))

    def noise_dim(self, ambient_dim: int) -> int:
        if self.proj is not None and self.cov.kind == "kron_block":
            return self.proj.subspace_dim
        return ambient_dim

    def sample(self, rng, mean: np.ndarray) -> np.ndarray:
        """One draw per row of ``mean``; ``rng`` is a generator or a list
        of per-row generators (the latter reproduces row-by-row runs)."""
        nd = self.noise_dim(mean.shape[1])
        z = _draw_normals(rng, mean.shape[0], nd)
        return self._draw(z, mean)


def _step_kernels(covs: list[ga.Covariance], grid: TimeGrid,
                  proj: eq.ComProjection | None) -> list[StepKernel]:
    """One kernel per reverse step of ``grid``, ``covs[n-1]`` for step n."""
    if len(covs) != grid.n_steps:
        raise ValueError(
            f"need {grid.n_steps} step covariances, got {len(covs)}")
    return [StepKernel(c, proj) for c in covs]


def _draw_normals(rng, rows: int, cols: int) -> np.ndarray:
    if isinstance(rng, (list, tuple)):
        if len(rng) != rows:
            raise ValueError("need one generator per row")
        return np.stack([g.standard_normal(cols) for g in rng])
    return rng.standard_normal((rows, cols))


def baseline_covariances(grid: TimeGrid) -> list[ga.Covariance]:
    """The untuned sampler: unit isotropic scaling of the posterior
    variance at every step."""
    return [ga.Covariance.isotropic(1.0, grid.ddpm_var(n))
            for n in range(1, grid.n_steps + 1)]


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------

@dataclass
class Trajectory:
    """States x_0..x_N with cached joint log-densities.

    ``log_q_cond`` is the product of forward kernels only (without the
    target factor pi(x_0)); ``log_p_joint`` includes the terminal prior.
    """

    states: np.ndarray          # (N+1, dim)
    grid: TimeGrid
    log_q_cond: float
    log_p_joint: float

    @property
    def x0(self) -> np.ndarray:
        return self.states[0]


def reverse_sample_batch(rng, model, covs: list[ga.Covariance],
                         grid: TimeGrid, count: int | None = None,
                         proj: eq.ComProjection | None = None):
    """Sample ``count`` reverse trajectories, streaming.

    Returns ``(x0, log_q_cond, log_p_joint)`` with batch-shaped log
    densities; states other than x_0 are not kept.  ``rng`` may be a list
    of per-trajectory generators, in which case results are identical to
    running trajectories one at a time.
    """
    if count is None:
        if not isinstance(rng, (list, tuple)):
            raise ValueError("count is required with a single generator")
        count = len(rng)
    return _reverse_steps(rng, model, covs, grid, count, proj)


def reverse_sample_trajectory(rng, model, covs: list[ga.Covariance],
                              grid: TimeGrid,
                              proj: eq.ComProjection | None = None
                              ) -> Trajectory:
    """Single full trajectory with all states retained; the same draws and
    densities as ``reverse_sample_batch`` with ``count=1``."""
    states = np.empty((grid.n_steps + 1, 1, model.dim))
    _, log_q, log_p = _reverse_steps(rng, model, covs, grid, 1, proj, states)
    return Trajectory(states=states[:, 0], grid=grid,
                      log_q_cond=float(log_q[0]), log_p_joint=float(log_p[0]))


def _reverse_steps(rng, model, covs, grid: TimeGrid, count: int, proj,
                   states: np.ndarray | None = None):
    """The reverse step loop of both samplers: x_N from the prior, then one
    proposal draw per step.  Writes x_n to ``states[n]`` when given."""
    n_steps = grid.n_steps
    kernels = _step_kernels(covs, grid, proj)
    t_max = grid.t_max

    z = _draw_normals(rng, count, model.dim)
    if proj is not None:
        z = eq.com_project(z, proj)
    x = t_max * z
    log_p = prior_log_density(x, t_max, proj)
    log_q = np.zeros(count)
    if states is not None:
        states[n_steps] = x

    for n in range(n_steps, 0, -1):
        t_n = grid.times[n]
        x0_hat = model.denoise(x, t_n)
        if np.isnan(x0_hat).any():
            raise FloatingPointError(f"denoiser produced NaN at step {n}")
        mean, _ = ddpm_posterior(x, x0_hat, n, grid)
        x_prev = kernels[n - 1].sample(rng, mean)
        log_p += kernels[n - 1].logpdf(x_prev, mean)
        log_q += _iso_logpdf(x - x_prev, grid.forward_var(n), proj)
        x = x_prev
        if states is not None:
            states[n - 1] = x

    return x, log_q, log_p


def recompute_log_densities(traj: Trajectory, model,
                            covs: list[ga.Covariance],
                            proj: eq.ComProjection | None = None
                            ) -> tuple[float, float]:
    """Joint log-densities recomputed from stored states (cache check)."""
    grid = traj.grid
    kernels = _step_kernels(covs, grid, proj)
    log_q = 0.0
    log_p = float(prior_log_density(traj.states[-1][None, :], grid.t_max,
                                    proj)[0])
    for n in range(1, grid.n_steps + 1):
        x_n = traj.states[n][None, :]
        x_prev = traj.states[n - 1][None, :]
        log_q += float(_iso_logpdf(x_n - x_prev, grid.forward_var(n), proj)[0])
        x0_hat = model.denoise(x_n, grid.times[n])
        mean, _ = ddpm_posterior(x_n, x0_hat, n, grid)
        log_p += float(kernels[n - 1].logpdf(x_prev, mean)[0])
    return log_q, log_p


# ---------------------------------------------------------------------------
# forward-path residual batches (shared by the tuner and the bound metrics)
# ---------------------------------------------------------------------------

@dataclass
class ForwardBatch:
    """Forward trajectories reduced to what proposal densities need.

    ``deltas[n-1]`` holds x_{n-1} - posterior_mean(x_n, x0_hat) for step n;
    the denoiser predictions are baked in, so evaluating a candidate set
    of step covariances touches no score model.
    """

    deltas: np.ndarray       # (N, B, dim)
    log_q_cond: np.ndarray   # (B,)
    log_prior: np.ndarray    # (B,)

    @property
    def n_steps(self) -> int:
        return self.deltas.shape[0]

    @property
    def count(self) -> int:
        return self.deltas.shape[1]


def forward_residuals(rng, x0: np.ndarray, model, grid: TimeGrid,
                      proj: eq.ComProjection | None = None) -> ForwardBatch:
    """Noise a batch of x_0 forward and collect per-step residuals.

    One noise draw and one denoiser call per step; the posterior mean and
    the residual are formed in place in ``deltas[n-1]``.
    """
    x0 = np.atleast_2d(np.asarray(x0, dtype=float))
    b, d = x0.shape
    n_steps = grid.n_steps
    deltas = np.empty((n_steps, b, d))
    scratch = np.empty((b, d))
    log_q = np.zeros(b)
    x = x0
    for n in range(1, n_steps + 1):
        var = grid.forward_var(n)
        z = rng.standard_normal((b, d))
        if proj is not None:
            z = eq.com_project(z, proj)
        x_next = x + np.sqrt(var) * z
        log_q += _iso_logpdf(np.subtract(x_next, x, out=scratch), var, proj)
        x0_hat = model.denoise(x_next, grid.times[n])
        # residual x - (r x_next + (1 - r) x0_hat), the ddpm_posterior mean
        r = grid.mean_ratio(n)
        delta = deltas[n - 1]
        np.multiply(x_next, r, out=delta)
        delta += np.multiply(x0_hat, 1.0 - r, out=scratch)
        np.subtract(x, delta, out=delta)
        x = x_next
    log_prior = prior_log_density(x, grid.t_max, proj)
    return ForwardBatch(deltas=deltas, log_q_cond=log_q, log_prior=log_prior)
