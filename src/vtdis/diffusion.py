"""Forward/reverse trajectory simulation and exact joint log-densities.

The forward chain adds independent Gaussian increments,
``x_n = x_{n-1} + sqrt(t_n^2 - t_{n-1}^2) xi``, so the conditional target
kernel is ``N(x_n; x_{n-1}, (t_n^2 - t_{n-1}^2) I)``.  The reverse sampler
draws ``x_{n-1}`` around the Bayes posterior mean

    mean = (t_{n-1}^2 / t_n^2) x_n + (1 - t_{n-1}^2 / t_n^2) x0_hat

from the step's proposal Gaussian.  ``_posterior_mean`` forms it, and
names the step of a NaN prediction, for every path.  A proposal is the pair
``(spec, variances)`` of ``vtdis.gaussians``: tuned, or for the baseline
the isotropic spec at the posterior variances
t_{n-1}^2 (t_n^2 - t_{n-1}^2) / t_n^2, ``grid.ddpm_vars[:, None]``.
``proposal_steps`` builds its N ``StepKernel``s once, step n the spec at
``variances[n - 1]``.  Every step reads its coefficients from the grid's
per-step arrays (``forward_vars``, ``mean_ratios``).  The terminal prior is
N(0, T^2 I) regardless of the forward marginal; the mismatch is part of
what the trajectory importance weight corrects.

Log weights follow the target-over-proposal convention

    log w = log pi(x_0) + sum_n log q(x_n | x_{n-1})
            - log p(x_N) - sum_n log p(x_{n-1} | x_n).

Every Gaussian of both chains is a ``StepKernel``, with one sampler and
one density: the proposal's N steps, the forward chain's N steps (the
isotropic spec at ``grid.forward_vars[:, None]``) and the prior
(``prior_kernel``, that spec at T^2).  ``StepKernel.sample`` scores each
draw x = mean + sqrt(v) z from its unit normals z, as
-1/2 mult sum_c log(2 pi v_c) - 1/2 |z|^2: the reverse sampler's prior
and proposal terms and a fresh forward path's forward terms
(``forward_residuals``).  ``StepKernel.logpdf`` scores the rest: the
reverse sampler's increments x_n - x_{n-1}, a forward path's x_N, the
residuals x_{n-1} - mean(x_n) that ``forward_residuals`` streams to a
consumer (O(B d) memory), and every term of a stored trajectory, which
``recompute_log_densities`` scores in a loop of its own, an independent
check of the sampler.

Particle systems run entirely on the zero-center-of-mass subspace: pass a
``ComProjection`` and every kernel lives on the subspace, with every
noise draw from ``vtdis.equivariant.normals``.
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

class StepKernel:
    """One Gaussian kernel, ``spec`` at the (p,) variances ``var``,
    p = ``spec.n_params``: a reverse step's proposal, a forward step or
    the terminal prior, and the one place any of them is drawn or scored.
    ``sample`` draws around a (B, d) batch of means; ``logpdf`` scores a
    (B, d) batch of residuals x - mean, with a projection checking them
    to lie on the zero-CoM subspace.  d is ``spec.dim``, or
    ``proj.ambient_dim`` for an isotropic spec, the one kind defined
    there, on that projection's subspace.  Any other shape or kind, and
    variances not positive and finite, raise ``ValueError``."""

    def __init__(self, spec, var: np.ndarray,
                 proj: eq.ComProjection | None = None):
        if np.shape(var) != (spec.n_params,):
            raise ValueError(f"need step variances of shape "
                             f"({spec.n_params},), got shape "
                             f"{np.shape(var)}")
        if proj is not None and spec.dim != proj.subspace_dim:
            raise ValueError(f"a spec of dimension {spec.dim} on a "
                             f"subspace of dimension {proj.subspace_dim}")
        if proj is not None and spec.n_params != 1:
            raise ValueError("only isotropic covariance is defined on the "
                             "zero-CoM subspace")
        self.spec = spec
        self.var = ga._checked_variances(var)
        self.proj = proj
        self.width = spec.dim if proj is None else proj.ambient_dim

    def logpdf(self, delta: np.ndarray) -> np.ndarray:
        delta = ga.as_batch(delta, self.width)
        if self.proj is not None:
            eq._check_on_subspace(delta, self.proj, "residual")
        return self.spec.log_density(self.spec.stats(delta), self.var)

    def sample(self, rng: np.random.Generator, mean: np.ndarray):
        """``(x, log_density)``: one draw per row of ``mean`` and its
        log-density, both from one block of normals z of ``rng``, on the
        subspace when there is one.  x = mean + sqrt(v) z, the ``mult``
        coordinates of a column sharing its variance, so the residual's
        ``stats @ (1 / v)`` is |z|^2 for both kinds."""
        mean = ga.as_batch(mean, self.width)
        z = eq.normals(rng, mean.shape, self.proj)
        log_p = (self.spec._log_norm(self.var)
                 - 0.5 * np.einsum("bd,bd->b", z, z))
        z *= np.sqrt(self.var)
        z += mean
        return z, log_p


def proposal_steps(proposal, grid: TimeGrid, proj) -> list[StepKernel]:
    """The N ``StepKernel``s of a proposal ``(spec, variances)`` over
    ``grid``, step n at index n - 1 with ``variances[n - 1]``; variances
    of any shape but (N, n_params) raise ``ValueError``."""
    spec, variances = proposal
    want = (grid.n_steps, spec.n_params)
    if np.shape(variances) != want:
        raise ValueError(f"need step covariances of shape {want}, got "
                         f"shape {np.shape(variances)}")
    return [StepKernel(spec, var, proj) for var in variances]


def prior_kernel(model, grid: TimeGrid, proj) -> StepKernel:
    """The terminal prior N(0, T^2 I) on the model's space, or on the
    zero-CoM subspace of ``proj``, which must have the model's geometry;
    its isotropic spec is the forward chain's too."""
    eq._check_geometry(model, proj)
    dim = model.dim if proj is None else proj.subspace_dim
    return StepKernel(ga.IsotropicParams(dim), [grid.t_max * grid.t_max],
                      proj)


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


def reverse_sample_batch(rng: np.random.Generator, model, proposal,
                         grid: TimeGrid, count: int,
                         proj: eq.ComProjection | None = None):
    """Sample ``count`` reverse trajectories, streaming.

    Returns ``(x0, log_q_cond, log_p_joint)`` with batch-shaped log
    densities; states other than x_0 are not kept.  All trajectories draw
    from the one generator ``rng``, one block of normals per step.
    """
    ga.require_count("count", count)
    return _reverse_steps(rng, model, proposal, grid, count, proj)


def reverse_sample_trajectory(rng, model, proposal, grid: TimeGrid,
                              proj: eq.ComProjection | None = None
                              ) -> Trajectory:
    """Single full trajectory with all states retained; the same draws and
    densities as ``reverse_sample_batch`` with ``count=1``."""
    states = np.empty((grid.n_steps + 1, 1, model.dim))
    _, log_q, log_p = _reverse_steps(rng, model, proposal, grid, 1, proj,
                                      states)
    return Trajectory(states=states[:, 0], grid=grid,
                      log_q_cond=float(log_q[0]), log_p_joint=float(log_p[0]))


def _posterior_mean(model, grid: TimeGrid, n: int, x) -> np.ndarray:
    """Step n's reverse mean (1 - r) D(x, t_n) + r x at the (B, d) batch
    x = x_n, r = ``grid.mean_ratios[n - 1]``; a NaN D raises."""
    x0_hat = model.denoise(x, grid.times[n])
    if np.isnan(x0_hat).any():
        raise FloatingPointError(f"denoiser produced NaN at step {n}")
    r = grid.mean_ratios[n - 1]
    x0_hat *= 1.0 - r
    x0_hat += r * x
    return x0_hat


def _reverse_steps(rng, model, proposal, grid: TimeGrid, count: int, proj,
                   states: np.ndarray | None = None):
    """The reverse step loop of both samplers: x_N from the prior, then one
    proposal draw per step.  Writes x_n to ``states[n]`` when given."""
    prior = prior_kernel(model, grid, proj)
    forward = proposal_steps((prior.spec, grid.forward_vars[:, None]), grid,
                             proj)
    kernels = proposal_steps(proposal, grid, proj)

    x, log_p = prior.sample(rng, np.zeros((count, model.dim)))
    log_q = np.zeros(count)
    if states is not None:
        states[grid.n_steps] = x

    for n in range(grid.n_steps, 0, -1):
        mean = _posterior_mean(model, grid, n, x)
        x_prev, log_p_step = kernels[n - 1].sample(rng, mean)
        log_p += log_p_step
        # the step increment x_n - x_{n-1}, in the buffer of the mean
        log_q += forward[n - 1].logpdf(np.subtract(x, x_prev, out=mean))
        x = x_prev
        if states is not None:
            states[n - 1] = x

    return x, log_q, log_p


def recompute_log_densities(traj: Trajectory, model, proposal,
                            proj: eq.ComProjection | None = None
                            ) -> tuple[float, float]:
    """Joint log-densities of a stored trajectory (the cache check), scored
    by the kernels in a loop of its own; states that do not fill the
    trajectory's grid, and with ``proj`` a residual off the zero-CoM
    subspace, raise ``ValueError``."""
    grid = traj.grid
    want = (grid.n_steps + 1, model.dim)
    if traj.states.shape != want:
        raise ValueError(f"need trajectory states of shape {want} for its "
                         f"grid, got shape {traj.states.shape}")
    prior = prior_kernel(model, grid, proj)
    forward = proposal_steps((prior.spec, grid.forward_vars[:, None]), grid,
                             proj)
    kernels = proposal_steps(proposal, grid, proj)
    x = traj.states[:, None]            # state n as a one-row batch x[n]
    log_q = log_p = 0.0
    for n in range(1, grid.n_steps + 1):
        log_q += forward[n - 1].logpdf(x[n] - x[n - 1])
        log_p += kernels[n - 1].logpdf(
            x[n - 1] - _posterior_mean(model, grid, n, x[n]))
    log_p += prior.logpdf(x[-1])
    return float(log_q[0]), float(log_p[0])


def forward_residuals(rng, x0: np.ndarray, model, grid: TimeGrid,
                      proj: eq.ComProjection | None = None, *, consume
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Noise a (B, d) batch of x_0 forward, one step at a time: step n
    draws x_n from its forward kernel, makes one denoiser call at x_n and
    hands x_{n-1} - mean(x_n) to ``consume(n, delta)``; no path is kept.
    Returns log q(x_{1:N} | x_0) and log p(x_N) per row.  With ``proj``
    the x_0 must lie on the zero-CoM subspace, where the kernels live."""
    x0 = ga.as_batch(x0, model.dim)
    if proj is not None:
        eq._check_on_subspace(x0, proj, "x0")
    prior = prior_kernel(model, grid, proj)
    forward = proposal_steps((prior.spec, grid.forward_vars[:, None]), grid,
                             proj)
    log_q = np.zeros(x0.shape[0])
    x = x0
    for n, kernel in enumerate(forward, start=1):
        x_next, log_q_step = kernel.sample(rng, x)
        log_q += log_q_step
        consume(n, x - _posterior_mean(model, grid, n, x_next))
        x = x_next
    return log_q, prior.logpdf(x)
