"""Probability-flow ODE sampling baseline with importance weights.

The deterministic flow dx/dt = -t s(x, t) shares the diffusion's
marginals, and the instantaneous change of variables gives the density
of its samples:

    log p_eps(x(eps)) = log p_T(x(T)) - int_T^eps div(-t s(x(t), t)) dt.

``ode_is_weights`` draws x(T) from the N(0, T^2 I) prior, the reverse
sampler's ``StepKernel`` (``vtdis.diffusion.prior_kernel``), which scores
the draw from its normals.  It integrates from T down to eps with Heun's
method (trapezoidal predictor-corrector) on the same grid as the
stochastic sampler, co-integrating the divergence in the same pass.  The
divergence is either exact (analytic trace or one directional derivative
per basis vector) or the Hutchinson estimate v . J v with one Rademacher
probe v (independent +-1 entries) per point and node, which is unbiased
for the instantaneous divergence but makes the importance weights biased.

Each Heun step costs two model passes, 2N per trajectory on an N-step
grid: ``divergence_estimate`` returns the drift together with the
divergence, and the probe or every basis vector reuses that pass through
the backend's fused queries.  The step is taken in the arrays those calls
return, never in the caller's x, with the textbook step's operations in
its order: x + h (f + f') / 2 bit for bit.  With a zero-center-of-mass
projection the prior is normalised on the subspace, so the divergence is
taken there as well, tr(P J P): the Hutchinson probe is projected, which
keeps the estimate unbiased, and the exact trace takes one tangent pass
per vector of an orthonormal basis of the subspace, (M-1) n of them.  The
ambient trace would exceed it by the Jacobian's trace along the
center-of-mass directions, a constant offset in log p0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import equivariant as eq
from .diffusion import prior_kernel
from .gaussians import require_count
from .metrics import reverse_ess
from .schedule import TimeGrid


@dataclass(frozen=True)
class OdeRunConfig:
    divergence: str = "exact"          # "exact" | "hutchinson"

    def __post_init__(self):
        if self.divergence not in ("exact", "hutchinson"):
            raise ValueError(f"unknown divergence mode {self.divergence!r}")


def draw_probe(rng: np.random.Generator, shape) -> np.ndarray:
    """One Rademacher probe: independent +-1 entries."""
    return rng.integers(0, 2, size=shape).astype(float) * 2.0 - 1.0


def divergence_estimate(model, x, t, config: OdeRunConfig,
                        rng: np.random.Generator,
                        proj: eq.ComProjection | None = None):
    """(drift -t s, div(-t s)) at (x, t) from one model pass, the
    divergence exact or from one probe per row drawn from ``rng``; with
    ``proj`` it is the divergence on the zero-CoM subspace."""
    if config.divergence == "exact":
        score, div = model.score_and_div(x, t, proj)
    else:
        v = draw_probe(rng, np.shape(x))
        if proj is not None:
            # P v keeps E[(Pv)^T J (Pv)] = tr(P J P) unbiased
            v = eq.com_project(v, proj)
        score, jv = model.score_and_jvp(x, t, v)
        div = np.multiply(jv, v, out=jv).sum(axis=1)
    score *= -t
    div *= -t
    return score, div


def heun_integrate(x, model, grid: TimeGrid, config: OdeRunConfig,
                   rng: np.random.Generator,
                   proj: eq.ComProjection | None = None):
    """Integrate the flow from x at T down to eps, accumulating int div dt.

    Returns the state at eps and the divergence integral along the
    traversal, int_T^eps (the sign of dt is included, so it is the
    negative of the eps -> T integral), from Heun steps that each call
    ``divergence_estimate`` at their start and at the predictor.
    """
    x2 = np.asarray(x, dtype=float)
    times = grid.times[::-1]
    div_int = np.zeros(x2.shape[0])
    for i in range(len(times) - 1):
        t_cur, t_next = float(times[i]), float(times[i + 1])
        h = t_next - t_cur
        f_cur, g_cur = divergence_estimate(model, x2, t_cur, config, rng,
                                           proj)
        x_pred = h * f_cur
        x_pred += x2
        if np.isnan(x_pred).any():
            raise FloatingPointError(f"NaN state at grid node {i}")
        f_next, g_next = divergence_estimate(model, x_pred, t_next, config,
                                             rng, proj)
        f_cur += f_next
        f_cur *= 0.5 * h
        x2 = np.add(x2, f_cur, out=f_cur)
        g_cur += g_next
        div_int += np.multiply(g_cur, 0.5 * h, out=g_cur)
    if np.isnan(x2).any():
        raise FloatingPointError("NaN terminal state")
    return x2, div_int


def ode_is_weights(rng: np.random.Generator, model, target, grid: TimeGrid,
                   config: OdeRunConfig, count: int,
                   proj: eq.ComProjection | None = None) -> dict:
    """Sample via the reverse flow and attach importance weights.

    Weights are pi(x0) / p0(x0) with p0 from the co-integrated
    divergence.  Returns a dict with ``samples`` (count, dim),
    ``log_weights`` (count,), their ``reverse_ess`` and ``metadata``:
    ``score_evals`` and ``jvp_evals``, the model's evaluation and
    directional-derivative rows spent on this call (the cost proxy).
    """
    require_count("count", count)
    evals0, jvps0 = model.eval_count, model.jvp_count
    x_t, log_prior = prior_kernel(model, grid, proj).sample(
        rng, np.zeros((count, model.dim)))
    x0, div_down = heun_integrate(x_t, model, grid, config, rng, proj)
    log_p0 = log_prior - div_down
    log_w = target.log_density(x0) - log_p0
    return {
        "samples": x0,
        "log_weights": log_w,
        "reverse_ess": reverse_ess(log_w),
        "metadata": {
            "score_evals": model.eval_count - evals0,
            "jvp_evals": model.jvp_count - jvps0,
        },
    }
