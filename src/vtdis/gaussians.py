"""Per-step Gaussian proposals: one class per covariance kind.

In VT-DIS the Gaussian of each reverse step does three jobs: it is a term
of the alpha = 2 objective, the reverse draw, and a factor of the
trajectory weight.  Each covariance kind is one class that does all
three for ``Sigma = base * C(raw)``, where ``base`` is the step's fixed
posterior variance and ``C`` a structure with unconstrained raw
parameters (positivity through a softplus):

* ``IsotropicParams``    C = eta I
* ``DiagonalParams``     C = diag(etas)

Both classes have the same duck-typed interface:

    n_params                              -> int
    init()                                -> raw vector at C = I, the
                                             untuned baseline
    stats(deltas)                         -> the residuals' second-moment
                                             statistic, s below
    moment_match(s, bases)                -> (N, p) raws of the moment
                                             match, the tuner's start
    log_density(s, raw, base)             -> log N(delta; 0, Sigma) per row
    weighted_grad(s, raw, base, w)        -> d/draw sum_b w_b log N(delta_b)
    draw(rng, raw, base, mean, proj=None) -> one sample per row of ``mean``

A Gaussian of zero mean reads a residual only through its second
moments, so densities, gradients and the moment match take
``s = stats(deltas)`` in place of the residuals: ||delta||^2 per row
(isotropic, deltas (..., B, d) -> (..., B)) or delta^2 per coordinate
(diagonal, the shape of deltas).  A caller that evaluates one batch of
residuals under many raw parameters (the tuner) forms it once.
``log_density`` and ``weighted_grad`` broadcast in closed form over an
optional leading step axis: statistics of deltas (N, B, d), raw (N, p)
and base (N,) give (N, B) and (N, p), step n using raw[n] and base[n],
with the weights (B,) shared by every step.  ``moment_match`` takes the
statistics of residuals (N, B, d) and base variances (N,) and returns
the raws whose variances are the residuals' second moments, the
Analytic-DPM / SN-DPM moment match (Bao et al., 2022): the zero of
``weighted_grad`` under uniform weights, so the maximum of the average
log-density over the rows.  ``log_density`` and ``draw`` reject
variances that are not positive and finite (softplus underflows to 0
below -745) with a ``ValueError``; ``weighted_grad`` does not check
again, and the tuner calls it only on raws that ``log_density`` has
just scored.  ``draw`` takes the zero-CoM projection of a particle
system: the isotropic draw takes its normals from
``vtdis.equivariant.normals``, and diagonal is ambient only
(``make_param_spec`` rejects it on the subspace).

A proposal over a time grid is the pair ``(spec, raws)``: one raw row per
reverse step, step n using ``raws[n - 1]`` and the base variance
``grid.ddpm_vars[n - 1]``.  ``vtdis.tuner.tune`` returns one, the
baseline is the isotropic spec at ``init()``,
``vtdis.diffusion.StepKernel`` wraps one step of it, and
``vtdis.tuner.make_param_spec`` is the one place that maps a kind name
to its class.

Densities and gradients are O(d) per row, with no dense d x d work.  The
gradients are standard Gaussian calculus,
d/dSigma log N = 1/2 (Sigma^-1 dd^T Sigma^-1 - Sigma^-1), chained through
the structure and the softplus.
"""

from __future__ import annotations

from numbers import Integral

import numpy as np

from .equivariant import normals

LOG_2PI = float(np.log(2.0 * np.pi))


# ---------------------------------------------------------------------------
# numerics helpers
# ---------------------------------------------------------------------------

def as_batch(x, dim: int) -> np.ndarray:
    """``x`` as a float (B, dim) batch of points, the one call form of
    every target and denoiser query; any other shape raises."""
    x2 = np.asarray(x, dtype=float)
    if x2.ndim != 2 or x2.shape[1] != dim:
        raise ValueError(f"expected a (B, {dim}) batch, got shape {x2.shape}")
    return x2


def require_count(name: str, value, minimum: int = 1) -> None:
    """Raise ``ValueError`` unless ``value`` is an integer (not a bool)
    of at least ``minimum``: a count such as a step or iteration number,
    which a float would truncate or reject much later."""
    if (isinstance(value, bool) or not isinstance(value, Integral)
            or value < minimum):
        raise ValueError(f"{name} must be an integer >= {minimum}, "
                         f"got {value!r}")


def logsumexp(values, axis=None):
    """Overflow-safe log(sum(exp(values))) over ``axis`` (all axes when
    None, giving a float).

    Whatever the axis, a NaN or ``+inf`` input raises ``ValueError``, and
    a slice that is all ``-inf`` (a sum of zero weights) gives ``-inf``
    without a warning.
    """
    v = np.asarray(values, dtype=float)
    if np.isnan(v).any():
        raise ValueError("logsumexp: NaN in input")
    vmax = np.max(v, axis=axis, keepdims=True)
    if np.any(vmax == np.inf):
        raise ValueError("logsumexp: +inf in input")
    shift = np.where(np.isfinite(vmax), vmax, 0.0)
    with np.errstate(divide="ignore"):     # an all -inf slice sums to 0
        out = shift + np.log(np.sum(np.exp(v - shift), axis=axis,
                                    keepdims=True))
    return out.item() if axis is None else np.squeeze(out, axis)


def softmax_from_log(log_values: np.ndarray, axis=None) -> np.ndarray:
    """Normalized weights exp(v) / sum exp(v) over ``axis`` (all axes
    when None), shifted by the maximum there to stay overflow-safe."""
    v = np.asarray(log_values, dtype=float)
    w = np.exp(v - np.max(v, axis=axis, keepdims=True))
    return w / np.sum(w, axis=axis, keepdims=True)


def softplus(z):
    """log(1 + exp(z)), stable for large |z|."""
    z = np.asarray(z, dtype=float)
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


def softplus_inv(y):
    """Inverse of softplus; requires y > 0."""
    y = np.asarray(y, dtype=float)
    if np.any(y <= 0):
        raise ValueError("softplus_inv requires positive input")
    # log(expm1(y)) written to stay stable for large y
    return np.where(y > 20, y, np.log(np.expm1(np.minimum(y, 20.0))))


def sigmoid(z):
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _iso_log_density(q, v, dim: int) -> np.ndarray:
    """log N(delta; 0, v I) per row from q = ||delta||^2 (..., B), one
    variance per leading index (shape ``(...)``); ``dim`` is the
    dimension the kernel normalises over.  The leading axes are the
    optional step axis of the stacked tuner objective."""
    v = np.asarray(v, dtype=float)[..., None]
    return -0.5 * dim * (LOG_2PI + np.log(v)) - 0.5 * q / v


def _spec_variances(base, etas) -> np.ndarray:
    """base * etas, rejected unless positive and finite (softplus
    underflows to 0 below -745)."""
    v = base * etas
    if not np.all(np.isfinite(v) & (v > 0)):
        raise ValueError("proposal variances must be positive and finite")
    return v


# ---------------------------------------------------------------------------
# one class per covariance kind
# ---------------------------------------------------------------------------

class IsotropicParams:
    """eta = softplus(z); one raw parameter.

    ``dim`` is the dimension the kernel normalises over: the ambient
    dimension, or the subspace dimension for zero-CoM residuals.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self.n_params = 1

    def init(self) -> np.ndarray:
        return np.array([float(softplus_inv(1.0))])

    def stats(self, deltas) -> np.ndarray:
        """||delta||^2 per row: (..., B, d) -> (..., B)."""
        return np.einsum("...d,...d->...", deltas, deltas)

    def moment_match(self, q, bases) -> np.ndarray:
        """eta_n = sum ||delta||^2 / (rows * dim * base_n)."""
        eta = np.sum(q, axis=1) / (q.shape[1] * self.dim
                                   * np.asarray(bases, dtype=float))
        return softplus_inv(eta)[:, None]

    def log_density(self, q, raw, base) -> np.ndarray:
        raw = np.asarray(raw, dtype=float)
        return _iso_log_density(
            q, _spec_variances(base, softplus(raw[..., 0])), self.dim)

    def weighted_grad(self, q, raw, base, weights) -> np.ndarray:
        raw = np.asarray(raw, dtype=float)
        eta = softplus(raw[..., :1])                  # (..., 1)
        base = np.asarray(base, dtype=float)[..., None]
        g_eta = (q @ weights[:, None] / (2.0 * base * eta * eta)
                 - self.dim * np.sum(weights) / (2.0 * eta))
        return g_eta * sigmoid(raw[..., :1])

    def draw(self, rng, raw, base, mean, proj=None) -> np.ndarray:
        """One draw per row of ``mean`` from one block of ambient normals,
        projected onto the zero-CoM subspace of ``proj`` when given."""
        z = normals(rng, mean.shape, proj)
        return mean + np.sqrt(_spec_variances(base, softplus(raw[0]))) * z


class DiagonalParams:
    """etas_i = softplus(z_i); d raw parameters."""

    def __init__(self, dim: int):
        self.dim = dim
        self.n_params = dim

    def init(self) -> np.ndarray:
        return np.full(self.dim, float(softplus_inv(1.0)))

    def stats(self, deltas) -> np.ndarray:
        """delta^2 per coordinate, the shape of ``deltas``."""
        return np.square(deltas)

    def moment_match(self, sq, bases) -> np.ndarray:
        """eta_nk = mean delta_k^2 / base_n over the rows."""
        second = np.mean(sq, axis=1)
        return softplus_inv(second / np.asarray(bases, dtype=float)[:, None])

    def log_density(self, sq, raw, base) -> np.ndarray:
        base = np.asarray(base, dtype=float)[..., None]
        v = _spec_variances(base, softplus(raw))      # (..., d)
        log_norm = -0.5 * (self.dim * LOG_2PI + np.sum(np.log(v), axis=-1))
        return log_norm[..., None] - 0.5 * (sq @ (1.0 / v)[..., None])[..., 0]

    def weighted_grad(self, sq, raw, base, weights) -> np.ndarray:
        etas = softplus(raw)
        base = np.asarray(base, dtype=float)[..., None]
        g = (weights @ sq) / (2.0 * base * etas * etas) \
            - np.sum(weights) / (2.0 * etas)
        return g * sigmoid(raw)

    def draw(self, rng, raw, base, mean, proj=None) -> np.ndarray:
        """One draw per row of ``mean``; ambient only."""
        z = rng.standard_normal(mean.shape)
        return mean + np.sqrt(_spec_variances(base, softplus(raw))) * z
