"""Post-training tuning of per-step proposal covariances.

The objective is the log of the batch estimate of the alpha = 2
divergence between the forward-noising joint and the reverse-proposal
joint,

    J(phi) = logsumexp_m(log w_m) - log M,
    log w_m = log pi(x0) + log q(x_{1:N} | x0) - log p_phi(x_{0:N}),

which is proportional (in log) to the second moment of importance weights
and therefore directly targets effective sample size.  Trajectories are
always drawn from the forward process; only the Gaussian covariance terms
depend on phi, so denoiser predictions are computed once per batch and
the gradient is assembled from the analytic per-structure formulas.

One iteration is one ``forward_residuals`` batch (one denoiser call per
step) followed by one stacked ``spec.log_density`` and one stacked
``spec.weighted_grad`` call over all N steps: residuals (N, B, dim), raw
parameters (N, p) and base variances (N,) in, (N, B) log-densities and
(N, p) gradients out.  The tuner never branches on the covariance kind.

``TUNABLE_KINDS`` are isotropic, diagonal and full on vector data, and
isotropic and label_diag on the zero-CoM subspace of particle systems.
Each starts at the untuned baseline, where the alpha = 2 gradient of
every raw parameter is generically nonzero.

A forward-KL objective (mean log w) is available behind a flag for
comparison; it controls the mean of log weights rather than their tails.

The optimizer loop is sequential and all reductions are plain
deterministic numpy sums, so a fixed seed reproduces results bit for bit.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from . import equivariant as eq
from . import gaussians as ga
from .denoisers import Adam, cosine_lr
from .diffusion import ForwardBatch, forward_residuals
from .schedule import TimeGrid, grid_from_dict

logger = logging.getLogger(__name__)

PARAM_FILE_HEADER = "vtdis-step-covariances v1"

TUNABLE_KINDS = ("isotropic", "diagonal", "full", "label_diag")


def make_param_spec(kind: str, *, dim: int | None = None,
                    proj: eq.ComProjection | None = None,
                    labels=None):
    """Raw-parameterization factory for a covariance kind.

    Vector-space kinds need ``dim`` (for particle systems run with an
    isotropic proposal, the subspace dimension); ``label_diag`` needs the
    projection and per-particle labels.
    """
    if kind == "isotropic":
        return ga.IsotropicParams(_need(dim, "dim"))
    if kind == "diagonal":
        return ga.DiagonalParams(_need(dim, "dim"))
    if kind == "full":
        return ga.FullFactorParams(_need(dim, "dim"))
    if kind == "label_diag":
        return eq.LabelDiagParams(_need(labels, "labels"), _need(proj, "proj"))
    raise ValueError(f"unknown covariance kind {kind!r}")


def _need(value, name):
    if value is None:
        raise ValueError(f"{name} is required for this covariance kind")
    return value


# ---------------------------------------------------------------------------
# objective
# ---------------------------------------------------------------------------

def batch_log_weights(batch: ForwardBatch, spec, raws: np.ndarray,
                      bases: np.ndarray, log_pi: np.ndarray) -> np.ndarray:
    """log w per trajectory for the current raw parameters; one stacked
    ``spec.log_density`` call covers every step."""
    log_p_steps = np.sum(spec.log_density(batch.deltas, raws, bases), axis=0)
    return log_pi + batch.log_q_cond - batch.log_prior - log_p_steps


def loss_log_alpha2(batch: ForwardBatch, spec, raws, bases, log_pi) -> float:
    """logsumexp(log w) - log M over the batch."""
    if batch.count == 0:
        raise ValueError("empty batch")
    lw = batch_log_weights(batch, spec, raws, bases, log_pi)
    return float(ga.logsumexp(lw) - np.log(batch.count))


def loss_and_gradient(batch: ForwardBatch, spec, raws, bases, log_pi,
                      objective: str = "alpha2"):
    """Loss value and exact gradient w.r.t. the per-step raw parameters.

    The gradient of the logsumexp objective is the softmax-weighted sum
    of per-trajectory gradients of -log p_phi; the KL objective uses
    uniform weights.  Nothing propagates into the score model.
    """
    if batch.count == 0:
        raise ValueError("empty batch")
    lw = batch_log_weights(batch, spec, raws, bases, log_pi)
    if objective == "alpha2":
        loss = float(ga.logsumexp(lw) - np.log(batch.count))
        weights = ga.softmax_from_log(lw)
    elif objective == "kl":
        loss = float(np.mean(lw))
        weights = np.full(batch.count, 1.0 / batch.count)
    else:
        raise ValueError(f"unknown objective {objective!r}")
    grad = -spec.weighted_grad(batch.deltas, raws, bases, weights)
    return loss, grad, lw


# ---------------------------------------------------------------------------
# tuning loop
# ---------------------------------------------------------------------------

@dataclass
class TunerConfig:
    iterations: int = 5000
    batch_size: int = 512
    lr: float = 0.01
    lr_floor: float = 1e-6
    objective: str = "alpha2"
    plateau_tol: float = 1e-4
    plateau_window: int = 200
    log_every: int = 0          # 0 = silent


@dataclass
class TuneResult:
    raws: np.ndarray            # (N, n_params)
    spec: object
    grid: TimeGrid
    kind: str
    loss_curve: np.ndarray
    iterations: int
    converged: bool
    report: dict = field(default_factory=dict)

    def covariances(self) -> list[ga.Covariance]:
        return covariances_from_raws(self.spec, self.raws, self.grid)


def covariances_from_raws(spec, raws: np.ndarray, grid: TimeGrid
                          ) -> list[ga.Covariance]:
    return [spec.covariance(raws[n - 1], grid.ddpm_var(n))
            for n in range(1, grid.n_steps + 1)]


def tune(rng: np.random.Generator, model, target, grid: TimeGrid, kind: str,
         config: TunerConfig | None = None, *, data: np.ndarray | None = None,
         proj: eq.ComProjection | None = None, labels=None) -> TuneResult:
    """Optimize per-step covariances against a frozen score model.

    Each iteration draws a fresh batch of x_0 (from ``data`` rows or from
    ``target.sample``), noises it forward, and takes one Adam step on the
    chosen objective with a cosine learning-rate schedule.  Stops at the
    iteration budget or when the windowed loss plateaus (relative change
    below ``plateau_tol`` across ``plateau_window`` iterations).
    """
    config = config or TunerConfig()
    if proj is not None and kind in ("diagonal", "full"):
        raise ValueError(f"{kind} covariance is not defined on the CoM "
                         "subspace; use isotropic or label_diag")
    dim = proj.subspace_dim if proj is not None else model.dim
    spec = make_param_spec(kind, dim=dim, proj=proj, labels=labels)
    n_steps = grid.n_steps
    raws = np.tile(spec.init(), (n_steps, 1))
    bases = np.array([grid.ddpm_var(n) for n in range(1, n_steps + 1)])
    opt = Adam([raws], lr=config.lr)
    losses = []
    converged = False
    half = config.plateau_window // 2

    for it in range(config.iterations):
        if data is not None:
            x0 = data[rng.integers(0, data.shape[0], size=config.batch_size)]
        else:
            x0 = target.sample(rng, config.batch_size)
        if proj is not None:
            x0 = eq.com_project(x0, proj)
        batch = forward_residuals(rng, x0, model, grid, proj)
        log_pi = np.asarray(target.log_density(x0), dtype=float)
        loss, grad, _ = loss_and_gradient(batch, spec, raws, bases, log_pi,
                                          config.objective)
        if not np.isfinite(loss):
            raise RuntimeError(
                f"non-finite loss at iteration {it} "
                f"(kind={kind}, objective={config.objective})")
        losses.append(loss)
        opt.step([grad], lr=cosine_lr(it, config.iterations, config.lr,
                                      config.lr_floor))
        if not np.all(np.isfinite(raws)):
            raise RuntimeError(f"non-finite parameters at iteration {it}")
        if config.log_every and (it + 1) % config.log_every == 0:
            logger.info("tune[%s] iter %d loss %.6f", kind, it + 1, loss)
        if it + 1 >= config.plateau_window and half > 0:
            recent = np.mean(losses[-half:])
            previous = np.mean(losses[-2 * half:-half])
            if abs(recent - previous) < config.plateau_tol * max(
                    1.0, abs(previous)):
                converged = True
                break

    return TuneResult(raws=raws, spec=spec, grid=grid, kind=kind,
                      loss_curve=np.asarray(losses),
                      iterations=len(losses), converged=converged,
                      report={"final_loss": losses[-1],
                              "initial_loss": losses[0]})


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def save_step_params(path, result_or_parts, raws: np.ndarray | None = None,
                     *, grid: TimeGrid | None = None, kind: str | None = None,
                     spec=None) -> None:
    """Versioned text dump: grid, kind metadata, one line per step with
    the constrained values."""
    if isinstance(result_or_parts, TuneResult):
        res = result_or_parts
        grid, kind, spec, raws = res.grid, res.kind, res.spec, res.raws
    gm = grid.to_dict()
    lines = [PARAM_FILE_HEADER,
             "grid " + " ".join(f"{k}={v}" for k, v in gm.items()),
             "cov " + " ".join(f"{k}={v}" for k, v in
                               _cov_meta(kind, spec).items())]
    for n in range(raws.shape[0]):
        vals = spec.to_constrained(raws[n])
        lines.append(f"{n + 1} {kind} " + " ".join(repr(float(v))
                                                   for v in vals))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_step_params(path) -> tuple[TimeGrid, str, object, np.ndarray]:
    """Inverse of :func:`save_step_params`; rebuilds the parameter spec."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    if lines[0] != PARAM_FILE_HEADER:
        raise ValueError("unrecognized step-parameter file")
    grid_meta = _parse_kv(lines[1], "grid")
    cov_meta = _parse_kv(lines[2], "cov")
    grid = grid_from_dict(grid_meta)
    kind = cov_meta["kind"]
    spec = _spec_from_meta(kind, cov_meta)
    raws = []
    for ln in lines[3:]:
        toks = ln.split()
        if toks[1] != kind:
            raise ValueError(f"kind mismatch on line: {ln!r}")
        vals = np.array([float(v) for v in toks[2:]])
        raws.append(spec.from_constrained(vals))
    raws = np.asarray(raws)
    if raws.shape[0] != grid.n_steps:
        raise ValueError("step count does not match grid")
    return grid, kind, spec, raws


def _cov_meta(kind: str, spec) -> dict:
    meta = {"kind": kind}
    if kind in ("isotropic", "diagonal", "full"):
        meta["dim"] = spec.dim
    else:
        meta["particles"] = spec.proj.n_particles
        meta["spatial"] = spec.proj.spatial_dim
        meta["labels"] = ",".join(str(v) for v in spec.labels)
    return meta


def _spec_from_meta(kind: str, meta: dict):
    if kind in ("isotropic", "diagonal", "full"):
        return make_param_spec(kind, dim=int(meta["dim"]))
    proj = eq.ComProjection(int(meta["particles"]), int(meta["spatial"]))
    labels = np.array([int(v) for v in meta["labels"].split(",")])
    return make_param_spec(kind, proj=proj, labels=labels)


def _parse_kv(line: str, tag: str) -> dict:
    toks = line.split()
    if toks[0] != tag:
        raise ValueError(f"expected {tag!r} line, got {line!r}")
    out = {}
    for tok in toks[1:]:
        key, _, val = tok.partition("=")
        out[key] = val
    return out


def save_loss_curve(path, losses: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("iteration,loss\n")
        for i, v in enumerate(losses):
            fh.write(f"{i},{v!r}\n")
