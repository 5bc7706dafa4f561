"""Post-training tuning of per-step proposal covariances.

The objective is the log of the batch estimate of the alpha = 2
divergence between the forward-noising joint and the reverse-proposal
joint,

    J(phi) = log (1/M) sum_m w_m,
    log w_m = log pi(x0) + log q(x_{1:N} | x0) - log p_phi(x_{0:N}),

the log mean weight, ``vtdis.metrics.estimate_log_Z`` of the batch's log
weights.  It is proportional (in log) to the second moment of importance
weights and therefore directly targets effective sample size: the forward
ESS is exp(log Z - J).  Trajectories are always drawn from the forward
process; only the Gaussian covariance terms depend on phi, so denoiser
predictions are computed once per batch and the gradient is assembled
from the analytic per-structure formulas.

Tuning draws its whole pool in one forward pass before any step (see
``tune``).  A Gaussian step reads a fixed residual only through its
second moments, so ``stats_batch`` writes the ``spec.stats`` of each
step's residuals, as the pass streams them, into one C-contiguous
(P * batch_size, N * p) matrix S, p = ``spec.n_params``: column
(n - 1) p + k holds step n's statistic k, and no residual outlives its
step.  Pool batch k is the row slice ``S[k B:(k + 1) B]``, a view.  On
these columns every step's Gaussian is one Gaussian (``vtdis.gaussians``),
so the (N p,) column variances are one flat vector while tuning.  The
tuner alone parametrizes them, as v_c = base_c * softplus(raw_c) with
base_c the posterior variance ``grid.ddpm_vars`` of its step, and Adam
steps on the flat raws.  Tuning starts from the moment match of the whole
pool (``spec.moment_match``), and then iteration ``it`` takes one Adam
step on the alpha = 2 objective of pool batch ``it mod P``: log w is the
offset minus one ``spec.log_density`` of S_k, and the gradient one
``spec.weighted_grad``, each a matrix-vector product, with no denoiser
call.  The spec is the one class of its covariance kind, looked up by
``make_param_spec`` in the one table ``_SPECS``, keyed by kind:
isotropic and diagonal on vector data, isotropic alone on the zero-CoM
subspace of particle systems.  The result is the proposal
``(spec, variances)`` that the samplers and the bound metrics take.

The optimizer loop is sequential and all reductions are plain
deterministic numpy sums, so a fixed seed reproduces results bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import equivariant as eq
from . import gaussians as ga
from .denoisers import Adam, cosine_lr
from .diffusion import forward_residuals
from .metrics import estimate_log_Z
from .schedule import TimeGrid

# the spec class of each tunable covariance kind
_SPECS = {"isotropic": ga.IsotropicParams, "diagonal": ga.DiagonalParams}

# relative change of the windowed mean loss below which tuning stops
PLATEAU_TOL = 1e-4
# forward batches in the tuning pool, at most one per iteration
POOL_BATCHES = 8


def softplus(z):
    """log(1 + exp(z)), stable for large |z|."""
    z = np.asarray(z, dtype=float)
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


def softplus_inv(y):
    """Inverse of softplus, log(expm1(y)) written as y + log(-expm1(-y)),
    which neither overflows nor cancels for any y > 0; any other y, a NaN
    among them, raises ``ValueError``."""
    y = np.asarray(y, dtype=float)
    if not np.all(y > 0):                 # false for a NaN too
        raise ValueError("softplus_inv requires y > 0")
    return y + np.log(-np.expm1(-y))


def make_param_spec(kind: str, dim: int,
                    proj: eq.ComProjection | None = None):
    """The spec class of a covariance kind, built for the problem's space.

    ``dim`` is the dimension the kernel normalises over: the ambient one,
    or the subspace dimension for particle systems.  Diagonal is not
    defined on the zero-CoM subspace: its draws would leave it.
    """
    if kind not in _SPECS:
        raise ValueError(f"unknown covariance kind {kind!r}")
    if proj is not None and kind == "diagonal":
        raise ValueError("diagonal covariance is not defined on the CoM "
                         "subspace; use isotropic")
    return _SPECS[kind](dim)


# ---------------------------------------------------------------------------
# objective
# ---------------------------------------------------------------------------

@dataclass
class StatsBatch:
    """A forward batch reduced to what an alpha = 2 step reads: the spec's
    statistics of its residuals, one row per path and one column per step
    and parameter, and the part of log w that no covariance touches."""

    stats: np.ndarray    # (B, N p): column (n - 1) p + k is step n's stat k
    offset: np.ndarray   # (B,) log pi(x0) + log q(x_{1:N} | x0) - log p(x_N)

    @property
    def count(self) -> int:
        return self.stats.shape[0]


def stats_batch(rng, x0: np.ndarray, model, target, grid: TimeGrid, spec,
                proj: eq.ComProjection | None = None) -> StatsBatch:
    """The (B, d) batch ``x0`` noised forward by one ``forward_residuals``
    call and reduced to ``spec``'s statistics, each step's written into
    its column block of one (B, N * p) matrix, with the target
    log-density of ``x0`` in the offset."""
    p = spec.n_params
    stats = np.empty((len(x0), grid.n_steps * p))

    def keep(n, delta):
        stats[:, (n - 1) * p:n * p] = spec.stats(delta)

    log_q, log_prior = forward_residuals(rng, x0, model, grid, proj,
                                         consume=keep)
    return StatsBatch(stats, target.log_density(x0) + log_q - log_prior)


def loss_and_gradient(batch: StatsBatch, spec, raws, bases):
    """Loss value and exact gradient w.r.t. the flat (N * p,) raws, the
    column variances being ``bases * softplus(raws)``.

    The loss is J = ``estimate_log_Z(log w)``, which rejects an empty
    batch by name.  Its gradient is the sum of per-trajectory gradients of
    -log p_phi weighted by the softmax exp(log w - J) / M, chained from
    d/dv through the softplus, whose slope sigmoid(raw) =
    -expm1(-softplus(raw)) is accurate for every raw.  Nothing propagates
    into the score model.
    """
    eta = softplus(raws)
    v = bases * eta
    lw = batch.offset - spec.log_density(batch.stats, v)
    loss = estimate_log_Z(lw)
    weights = np.exp(lw - loss)           # the softmax of lw, in place
    weights /= batch.count
    # the loss is -log p_phi, so chain d/dv by -dv/draw
    grad = spec.weighted_grad(batch.stats, v, weights)
    grad *= bases * np.expm1(-eta)
    return loss, grad


# ---------------------------------------------------------------------------
# tuning loop
# ---------------------------------------------------------------------------

@dataclass
class TunerConfig:
    iterations: int = 5000
    batch_size: int = 512
    lr: float = 0.01
    plateau_window: int = 200

    def __post_init__(self):
        ga.require_count("iterations", self.iterations)
        ga.require_count("batch_size", self.batch_size)
        # two halves of at least one iteration each
        ga.require_count("plateau_window", self.plateau_window, 2)
        if not (np.isfinite(self.lr) and self.lr >= 0):
            raise ValueError(f"lr must be finite and >= 0, got {self.lr}")


@dataclass
class TuneResult:
    """Tuned variances, reached from the pool's moment match by
    ``iterations`` Adam steps (one loss each in ``loss_curve``), each on
    one batch of the pool; ``iterations`` below the configured budget
    means the plateau stop ended the run."""

    variances: np.ndarray       # (N, n_params)
    spec: object
    loss_curve: np.ndarray

    @property
    def iterations(self) -> int:
        return len(self.loss_curve)

    def covariances(self) -> tuple:
        """The tuned proposal ``(spec, variances)``."""
        return self.spec, self.variances


def tune(rng: np.random.Generator, model, target, grid: TimeGrid, kind: str,
         config: TunerConfig, *, data: np.ndarray,
         proj: eq.ComProjection | None = None) -> TuneResult:
    """Optimize per-step covariances against a frozen score model.

    First draws the pool: ``P = min(iterations, POOL_BATCHES)`` batches
    of ``batch_size`` x_0, rows of ``data`` drawn with replacement (with
    ``proj`` they must lie on its zero-CoM subspace), all reduced by one
    ``stats_batch`` call, which is all the denoiser work: N * P *
    ``batch_size`` evaluations.  Starts from the moment match over the
    whole pool, then takes one Adam step on the alpha = 2 objective of
    pool batch ``it mod P`` per iteration, with a cosine learning-rate
    schedule.  Stops at the iteration budget or when the windowed loss
    plateaus (relative change below ``PLATEAU_TOL`` across
    ``plateau_window`` iterations).
    """
    if len(data) == 0:
        raise ValueError("empty data: no x_0 to tune on")
    dim = proj.subspace_dim if proj is not None else model.dim
    spec = make_param_spec(kind, dim, proj)
    bases = np.repeat(grid.ddpm_vars, spec.n_params)     # one per column
    n_batches = min(config.iterations, POOL_BATCHES)
    x0 = data[rng.integers(0, data.shape[0],
                           size=n_batches * config.batch_size)]
    whole = stats_batch(rng, x0, model, target, grid, spec, proj)
    raws = softplus_inv(spec.moment_match(whole.stats) / bases)
    pool = [StatsBatch(stats, offset)       # row slices: views, no copies
            for stats, offset in zip(np.split(whole.stats, n_batches),
                                     np.split(whole.offset, n_batches))]
    opt = Adam(raws)
    losses = []
    half = config.plateau_window // 2

    for it in range(config.iterations):
        loss, grad = loss_and_gradient(pool[it % n_batches], spec, raws,
                                       bases)
        if not math.isfinite(loss):
            raise RuntimeError(
                f"non-finite loss at iteration {it} (kind={kind})")
        losses.append(loss)
        opt.step(grad, cosine_lr(it, config.iterations, config.lr))
        if not np.isfinite(raws).all():
            raise RuntimeError(f"non-finite parameters at iteration {it}")
        if it + 1 >= config.plateau_window:
            recent = np.mean(losses[-half:])
            previous = np.mean(losses[-2 * half:-half])
            if abs(recent - previous) < PLATEAU_TOL * max(
                    1.0, abs(previous)):
                break

    variances = bases * softplus(raws)
    return TuneResult(variances=variances.reshape(grid.n_steps, -1),
                      spec=spec, loss_curve=np.asarray(losses))
