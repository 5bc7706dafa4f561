"""Per-step Gaussian proposals: one class per covariance kind.

In VT-DIS the Gaussian of each reverse step does three jobs: it is a term
of the alpha = 2 objective, the reverse draw, and a factor of the
trajectory weight.  Each covariance kind is one class, the column maths
of all three for a zero-mean Gaussian with positive variances ``v``:

* ``IsotropicParams``    Sigma = v I, one variance
* ``DiagonalParams``     Sigma = diag(v), one variance per coordinate

A Gaussian of zero mean reads a residual only through its second
moments, and both kinds are one Gaussian on columns of them.
``stats(deltas)`` maps (..., B, d) residuals to (..., B, p) columns,
p = n_params: ||delta||^2 as one column (isotropic) or delta^2 per
coordinate (diagonal).  Column c has variance v_c per coordinate and
counts ``mult = dim / p`` coordinates, so one density, one gradient and
one moment match serve both kinds:

    n_params, mult                  -> int
    stats(deltas)                   -> (..., B, p) columns
    log_density(s, v)               -> log N(delta; 0, Sigma) per row of s
    weighted_grad(s, v, w)          -> d/dv sum_b w_b log N(delta_b)
    moment_match(s)                 -> the variances that are the rows'
                                       second moments

Every column function takes s (B, C) and v (C,).  One step is C = p
columns and the (B, p) stats of its residuals; its density and its draw
are ``vtdis.diffusion.StepKernel.logpdf`` and ``.sample``, the one place
a step is drawn or scored.  All N steps at once are C = N p columns,
column (n - 1) p + k holding step n's statistic k: a row then
spans every step, ``log_density`` is the sum over steps and
``weighted_grad`` the (N p,) gradient, each one matrix-vector product
(the tuner's form, ``vtdis.tuner``).  ``moment_match`` is the
Analytic-DPM / SN-DPM moment match (Bao et al., 2022): the zero of
``weighted_grad`` under uniform weights, so the maximum of the average
log-density over the rows.  ``log_density`` rejects variances that are
not positive and finite with a ``ValueError``; ``weighted_grad`` does
not check again, and the tuner calls it only on variances that
``log_density`` has just scored.  On the zero-CoM subspace of a particle
system ``dim`` is the subspace dimension; diagonal is ambient only
(``vtdis.tuner.make_param_spec`` rejects it on the subspace).

A proposal over a time grid is the pair ``(spec, variances)``: one (p,)
row of variances per reverse step, step n using ``variances[n - 1]``.
``vtdis.tuner.tune`` returns one, the untuned baseline is the isotropic
spec at the posterior variances ``grid.ddpm_vars[:, None]``,
``vtdis.diffusion.proposal_steps`` makes its N step kernels, and
``vtdis.tuner.make_param_spec`` is the one place that maps a kind name
to its class.  How the variances are parametrized while tuning is the
tuner's business alone.

Densities and gradients are O(C) per row, with no dense d x d work.  The
gradient is standard Gaussian calculus,
d/dv_c sum_b w_b log N = (w @ s)_c / (2 v_c^2) - mult sum_b w_b / (2 v_c).
"""

from __future__ import annotations

from numbers import Integral

import numpy as np

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
    shift = v.max(axis=axis, keepdims=True)        # NaN where a NaN is
    if not np.isfinite(shift).all():
        if np.isnan(shift).any():
            raise ValueError("logsumexp: NaN in input")
        if (shift == np.inf).any():
            raise ValueError("logsumexp: +inf in input")
        shift = np.where(shift == -np.inf, 0.0, shift)
    with np.errstate(divide="ignore"):     # an all -inf slice sums to 0
        out = shift + np.log(np.exp(v - shift).sum(axis=axis,
                                                   keepdims=True))
    return out.item() if axis is None else np.squeeze(out, axis)


def _checked_variances(v) -> np.ndarray:
    """``v`` as a float array, rejected unless positive and finite."""
    v = np.asarray(v, dtype=float)
    if not (v.min() > 0 and v.max() < np.inf):    # false for a NaN too
        raise ValueError("proposal variances must be positive and finite")
    return v


# ---------------------------------------------------------------------------
# one class per covariance kind, both the one Gaussian on columns
# ---------------------------------------------------------------------------

class _ColumnGaussian:
    """The Gaussian of both kinds on statistic columns: column c sums the
    squares of ``mult = dim / n_params`` coordinates of variance v_c, so
    with s = stats(deltas)

        log N = -1/2 mult sum_c (log 2 pi + log v_c) - 1/2 s @ (1 / v).

    ``dim`` is the dimension the kernel normalises over: the ambient
    dimension, or the subspace dimension for zero-CoM residuals.
    """

    def __init__(self, dim: int, n_params: int):
        self.dim = dim
        self.n_params = n_params
        self.mult = dim // n_params

    def moment_match(self, s) -> np.ndarray:
        """v_c = mean over rows of s_c / mult."""
        return np.mean(s, axis=0) / self.mult

    def log_density(self, s, v) -> np.ndarray:
        v = _checked_variances(v)
        out = s @ (-0.5 / v)          # -1/2 (s @ (1 / v)), bit for bit
        return np.add(self._log_norm(v), out, out=out)

    def _log_norm(self, v) -> float:
        """-1/2 mult sum_c log(2 pi v_c), the density at the mean."""
        return -0.5 * self.mult * (v.size * LOG_2PI + np.log(v).sum())

    def weighted_grad(self, s, v, weights) -> np.ndarray:
        out = weights @ s
        out /= v
        out -= self.mult * weights.sum()
        return np.divide(out, 2.0 * v, out=out)


class IsotropicParams(_ColumnGaussian):
    """One variance, one column of ||delta||^2."""

    def __init__(self, dim: int):
        super().__init__(dim, 1)

    def stats(self, deltas) -> np.ndarray:
        """||delta||^2 per row: (..., B, d) -> (..., B, 1)."""
        return np.einsum("...d,...d->...", deltas, deltas)[..., None]

    # bound here as well, where the benchmark's tracer looks them up
    log_density = _ColumnGaussian.log_density
    weighted_grad = _ColumnGaussian.weighted_grad


class DiagonalParams(_ColumnGaussian):
    """d variances, a column of delta_i^2 each."""

    def __init__(self, dim: int):
        super().__init__(dim, dim)

    def stats(self, deltas) -> np.ndarray:
        """delta^2 per coordinate, the shape of ``deltas``."""
        return np.square(deltas)

    log_density = _ColumnGaussian.log_density
    weighted_grad = _ColumnGaussian.weighted_grad
