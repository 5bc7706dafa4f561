"""Importance-sampling quality metrics.

Effective sample sizes in both directions, the variational evidence
sandwich, normalizing-constant estimates, and reweighted histograms.
All weight reductions run in log space so that shifting every log weight
by a constant (an unnormalized target) changes nothing.

Conventions, for unnormalized weights w = pi/p:

* reverse ESS, samples drawn from the proposal p:
  (sum w)^2 / (N sum w^2), in [0, 1].
* forward ESS, samples drawn from the target pi:
  N^2 / (sum 1/w * sum w), in [0, 1]; the harmonic term estimates the
  inverse normalizing constant, and any zero weight collapses it to 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import diffusion as df
from .gaussians import logsumexp


@dataclass(frozen=True)
class WeightedSampleSet:
    """Samples with log weights and the direction they were drawn from."""

    samples: np.ndarray
    log_weights: np.ndarray
    direction: str                      # "proposal" | "target"

    def __post_init__(self):
        lw = np.asarray(self.log_weights, dtype=float)
        if lw.ndim != 1 or lw.shape[0] < 1:
            raise ValueError("need at least one weight")
        if np.isnan(lw).any() or np.any(lw == np.inf):
            raise ValueError("log weights must be finite or -inf")
        if self.direction not in ("proposal", "target"):
            raise ValueError(f"unknown direction {self.direction!r}")
        object.__setattr__(self, "log_weights", lw)


def reverse_ess(log_weights) -> float:
    """Weight-concentration ESS fraction for proposal-drawn samples."""
    lw = np.asarray(log_weights, dtype=float)
    n = lw.shape[0]
    num = 2.0 * logsumexp(lw)
    den = logsumexp(2.0 * lw)
    if not np.isfinite(num):
        raise ValueError("all weights are zero")
    return float(np.exp(num - den - np.log(n)))


def forward_ess(log_weights) -> float:
    """Target-overlap ESS fraction for target-drawn samples."""
    lw = np.asarray(log_weights, dtype=float)
    n = lw.shape[0]
    if np.any(lw == -np.inf):
        return 0.0   # a zero weight makes the inverse-Z estimate diverge
    return float(np.exp(2.0 * np.log(n) - logsumexp(lw) - logsumexp(-lw)))


def ess_fraction(sample_set: WeightedSampleSet) -> float:
    if sample_set.direction == "proposal":
        return reverse_ess(sample_set.log_weights)
    return forward_ess(sample_set.log_weights)


def estimate_log_Z(log_weights) -> float:
    """log of the mean unnormalized weight, from proposal-drawn samples."""
    lw = np.asarray(log_weights, dtype=float)
    return float(logsumexp(lw) - np.log(lw.shape[0]))


def self_normalized_mean(log_weights, values) -> np.ndarray:
    """Sum of normalized weights times values (rows of ``values``)."""
    lw = np.asarray(log_weights, dtype=float)
    w = np.exp(lw - np.max(lw))
    w /= np.sum(w)
    return w @ np.asarray(values, dtype=float)


# ---------------------------------------------------------------------------
# evidence bounds
# ---------------------------------------------------------------------------

def elbo_eubo(rng: np.random.Generator, x0: np.ndarray, model, covs,
              grid, inner: int, proj=None, repeats: int = 3) -> dict:
    """Evidence sandwich for the reverse model at given data points.

    For each x0, draw ``inner`` forward paths and form
    R = log p(x_{0:N}) - log q(x_{1:N} | x0).  The lower bound is the
    plain average of R; the upper bound reweights the same draws by
    softmax(R), i.e. a self-normalized estimate under the reverse-path
    posterior.  The weighted average can only move mass toward larger R,
    so the sandwich inequality holds for every finite sample.

    Returns batch means and the standard deviation across ``repeats``
    independent repetitions.
    """
    if inner < 2:
        raise ValueError("upper bound needs at least two inner samples")
    x0 = np.atleast_2d(np.asarray(x0, dtype=float))
    b = x0.shape[0]
    kernels = df._step_kernels(covs, grid, proj)
    elbos, eubos = [], []
    for _ in range(repeats):
        tiled = np.repeat(x0, inner, axis=0)
        batch = df.forward_residuals(rng, tiled, model, grid, proj)
        log_p_steps = np.zeros(tiled.shape[0])
        zeros = np.zeros_like(tiled)
        for n in range(batch.n_steps):
            log_p_steps += kernels[n].logpdf(batch.deltas[n], zeros)
        r = (batch.log_prior + log_p_steps - batch.log_q_cond).reshape(b, inner)
        elbo_b = np.mean(r, axis=1)
        shifted = np.exp(r - np.max(r, axis=1, keepdims=True))
        u = shifted / np.sum(shifted, axis=1, keepdims=True)
        eubo_b = np.sum(u * r, axis=1)
        elbos.append(float(np.mean(elbo_b)))
        eubos.append(float(np.mean(eubo_b)))
    elbos, eubos = np.asarray(elbos), np.asarray(eubos)
    return {
        "elbo": float(np.mean(elbos)),
        "eubo": float(np.mean(eubos)),
        "elbo_std": float(np.std(elbos)),
        "eubo_std": float(np.std(eubos)),
        "gap": float(np.mean(eubos) - np.mean(elbos)),
        "estimator": "forward-path average (lower) / softmax-reweighted "
                     "forward-path average (upper)",
    }


# ---------------------------------------------------------------------------
# histograms
# ---------------------------------------------------------------------------

def reweighted_histogram(samples, log_weights, statistic, bins: int = 60):
    """Unweighted vs self-normalized-weighted histograms of a statistic.

    ``statistic`` is a callable on the sample batch (e.g. an energy) or an
    array of precomputed values.  Bin edges span the finite value range;
    mass outside (possible only with caller-provided edges) lands in
    explicit under/overflow slots.  Both histograms are normalized to sum
    to one over the interior bins plus overflow.
    """
    values = statistic(samples) if callable(statistic) else np.asarray(
        statistic, dtype=float)
    values = np.asarray(values, dtype=float)
    lw = np.asarray(log_weights, dtype=float)
    w = np.exp(lw - np.max(lw))
    w /= np.sum(w)
    finite = np.isfinite(values)
    lo, hi = float(np.min(values[finite])), float(np.max(values[finite]))
    if hi == lo:
        hi = lo + 1.0
    edges = np.linspace(lo, hi, bins + 1)
    inside = finite & (values >= lo) & (values <= hi)
    unweighted, _ = np.histogram(values[inside], bins=edges)
    weighted, _ = np.histogram(values[inside], bins=edges,
                               weights=w[inside])
    n = values.shape[0]
    return {
        "edges": edges,
        "unweighted": unweighted / n,
        "weighted": weighted,
        "underflow": (float(np.sum(~inside & (values < lo)) / n),
                      float(np.sum(w[~inside & (values < lo)]))),
        "overflow": (float(np.sum(~inside & (values > hi)) / n),
                     float(np.sum(w[~inside & (values > hi)]))),
    }
