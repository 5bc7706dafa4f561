"""Importance-sampling quality metrics.

The reverse effective sample size, the log normalizing-constant estimate,
and the forward-path log weights with the variational evidence sandwich
built on them.  All weight reductions run in log space so that shifting
every log weight by a constant (an unnormalized target) changes nothing.

Weights are unnormalized, w = pi/p, on samples drawn from the proposal p;
the reverse ESS fraction is (sum w)^2 / (N sum w^2), in [0, 1].  Both
weight estimators raise ``ValueError`` unless given a nonempty 1-D
array free of NaN and +inf; a -inf log weight counts in N as a zero.
"""

from __future__ import annotations

import numpy as np

from . import diffusion as df
from .gaussians import as_batch, logsumexp, require_count, softmax_from_log


def _nonempty(log_weights) -> np.ndarray:
    lw = np.asarray(log_weights, dtype=float)
    if lw.ndim != 1:
        raise ValueError(f"need 1-D log weights, got shape {lw.shape}")
    if lw.size == 0:
        raise ValueError("no log weights to estimate from")
    return lw


def reverse_ess(log_weights) -> float:
    """Weight-concentration ESS fraction for proposal-drawn samples."""
    lw = _nonempty(log_weights)
    n = lw.shape[0]
    num = 2.0 * logsumexp(lw)
    den = logsumexp(2.0 * lw)
    if not np.isfinite(num):
        raise ValueError("all weights are zero")
    return float(np.exp(num - den - np.log(n)))


def estimate_log_Z(log_weights) -> float:
    """log of the mean unnormalized weight, from proposal-drawn samples."""
    lw = _nonempty(log_weights)
    return float(logsumexp(lw) - np.log(lw.shape[0]))


# ---------------------------------------------------------------------------
# evidence bounds
# ---------------------------------------------------------------------------

def forward_log_weights(rng: np.random.Generator, x0: np.ndarray, model,
                        proposal, grid, proj=None) -> np.ndarray:
    """log w - log pi(x0) of one forward path per row of ``x0`` under the
    proposal ``(spec, variances)``, scoring each step's residuals as they are
    streamed (O(B d) memory); with ``proj`` off-subspace ones raise."""
    kernels = df.proposal_steps(proposal, grid, proj)
    log_p = np.zeros(as_batch(x0, model.dim).shape[0])

    def score(n, delta):
        log_p[:] += kernels[n - 1].logpdf(delta)

    log_q, log_prior = df.forward_residuals(rng, x0, model, grid, proj,
                                            consume=score)
    return log_q - log_prior - log_p


def elbo_eubo(rng: np.random.Generator, x0: np.ndarray, model, proposal,
              grid, inner: int, proj=None, repeats: int = 3) -> dict:
    """Evidence sandwich for the reverse model at given data points.

    For each x0, draw ``inner`` forward paths and form
    R = log p(x_{0:N}) - log q(x_{1:N} | x0) = log pi(x0) - log w, with
    log w from ``forward_log_weights`` under the proposal
    ``(spec, variances)``.  The lower bound is the plain average of R; the
    upper bound reweights the same draws by softmax(R), i.e. a
    self-normalized estimate under the reverse-path posterior.  The
    weighted average can only move mass toward larger R, so the sandwich
    inequality holds for every finite sample.

    Returns ``{"elbo", "eubo"}``, each the mean over ``repeats``
    independent repetitions of the batch means.
    """
    # the upper bound needs two inner samples to reweight
    require_count("inner", inner, 2)
    require_count("repeats", repeats)
    x0 = as_batch(x0, model.dim)
    require_count("x0 rows", x0.shape[0])
    elbos, eubos = [], []
    for _ in range(repeats):
        r = -forward_log_weights(rng, np.repeat(x0, inner, axis=0), model,
                                 proposal, grid, proj).reshape(-1, inner)
        elbo_b = np.mean(r, axis=1)
        eubo_b = np.sum(softmax_from_log(r, axis=1) * r, axis=1)
        elbos.append(float(np.mean(elbo_b)))
        eubos.append(float(np.mean(eubo_b)))
    return {"elbo": float(np.mean(elbos)), "eubo": float(np.mean(eubos))}
