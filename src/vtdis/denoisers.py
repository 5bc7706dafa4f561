"""Denoiser backends: the x0-prediction used by the reverse sampler.

Every backend answers its queries on a (B, d) batch of flat states and
returns batch-shaped results; any other shape raises ``ValueError``.  A
query never writes its inputs, and returns new arrays that share memory
with neither them nor each other: its caller may finish updates in them.

* ``denoise(x, t)``    -> E[x0 | x_t = x] prediction, one per backend

linked by the Tweedie identity ``denoise = x + t^2 * score``, the score
being the gradient of the log marginal at noise level t.  The score
queries of the probability-flow ODE likelihood are written once, in
``_Counted``, on the backend's one primal pass ``_linearize``, which
every tangent reuses:

* ``score_and_jvp(x, t, v)``    -> score and its directional derivative
  along one (B, d) tangent
* ``score_and_div(x, t, proj)`` -> score and its exact divergence, the
  trace on the zero-center-of-mass subspace when ``proj`` is given

The learned backends add ``forward_with_cache(x, t)``, the prediction and
the cache that ``param_grad`` takes, and ``denoise_jvp(x, t, v)``.  Their
``denoise`` runs the network on blocks of at most ``ROW_BLOCK`` network
rows (one per point for the vector backend, one per pair and point for
the particle backend), so that a large batch, such as one step of the
tuner's pool or of the held-out bound, keeps its activations small; the
blocks are cut so that the result is bit for bit that of one pass.  The
training pass and the derivative queries are not blocked.

``AnalyticGmmScore`` answers every query from one posterior pass of the
mixture at noise level t (``targets._gmm_posterior``).  The trainable
backends are small networks with hand-written reverse-mode gradients and
forward-mode directional derivatives, wrapped in the usual denoiser
preconditioning D(x, t) = c_skip x + c_out F(c_in x, c_noise): the raw
network F only ever sees unit-scale inputs and outputs.  The particle
backend pushes pair distances through a shared radial network and emits
a combination of difference vectors, which makes it rotation-, reflection-
and permutation-equivariant by construction, with exactly zero center of
mass output; it keeps its pairs in one ``equivariant.ComProjection``,
``proj``, on whose subspace training takes its data and draws its noise.
A network's parameters are views into one flat buffer, which training
steps with one Adam update per iteration; each bias gradient of its
backward pass is one BLAS product.

All backends count work by what a query returns: ``eval_count`` gains
one per batch row for each denoiser or score output, ``jvp_count`` one
per batch row for each directional derivative.  An exact divergence
takes one directional derivative per row and vector of the basis it is
summed over, the ``dim`` unit axes or the rows of ``proj.basis``, and
is priced so also where the analytic backend has a closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import equivariant as eq
from . import targets as tg
from .gaussians import as_batch, require_count

# most network rows in one pass of a learned backend's ``denoise``
ROW_BLOCK = 2048


# ---------------------------------------------------------------------------
# preconditioning
# ---------------------------------------------------------------------------

def precond_coeffs(t, sigma_data: float):
    """c_skip, c_out, c_in, c_noise at noise level t (broadcasts)."""
    t = np.asarray(t, dtype=float)
    s2 = sigma_data * sigma_data
    denom = t * t + s2
    c_skip = s2 / denom
    c_out = t * sigma_data / np.sqrt(denom)
    c_in = 1.0 / np.sqrt(denom)
    c_noise = 0.25 * np.log(t)
    return c_skip, c_out, c_in, c_noise


def dsm_weight(t, sigma_data: float):
    """lambda(t) = 1 / c_out(t)^2."""
    t = np.asarray(t, dtype=float)
    s2 = sigma_data * sigma_data
    return (t * t + s2) / (t * t * s2)


# ---------------------------------------------------------------------------
# dense network with explicit gradients
# ---------------------------------------------------------------------------

class Mlp:
    """Fully connected tanh network with manual reverse- and forward-mode.

    Parameters are views [W1, b1, W2, b2, ...] into one flat buffer,
    ``flat``, which training steps as one vector; the last layer is
    linear.  ``backward`` returns exact gradients of a scalar loss given
    the output cotangent, one array per parameter, each bias gradient
    from one BLAS product; ``tangent`` propagates an input tangent through
    the activations a ``forward`` pass cached, and ``jvp`` is the two.
    """

    def __init__(self, sizes: list[int], rng: np.random.Generator | None = None):
        self.sizes = list(sizes)
        shapes = [shape for fan_in, fan_out in zip(sizes[:-1], sizes[1:])
                  for shape in ((fan_out, fan_in), (fan_out,))]
        counts = [math.prod(shape) for shape in shapes]
        self.flat = np.zeros(sum(counts))
        self.params = [part.reshape(shape) for part, shape in zip(
            np.split(self.flat, np.cumsum(counts)[:-1]), shapes)]
        for w in self.params[::2] if rng is not None else ():
            w[...] = rng.standard_normal(w.shape) / np.sqrt(w.shape[1])

    @property
    def n_layers(self) -> int:
        return len(self.sizes) - 1

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, list]:
        # each layer allocates only its gemm output; the bias add and the
        # tanh then work in place on it, so no two cache entries share
        # memory and the input is never written
        a = x
        cache = [a]
        for i in range(self.n_layers):
            w, b = self.params[2 * i], self.params[2 * i + 1]
            a = a @ w.T
            a += b
            if i < self.n_layers - 1:
                np.tanh(a, out=a)
            cache.append(a)
        # a NaN reaches the output through every later layer, so one scan
        # there finds it; the first layer that holds one is named
        if np.isnan(a).any():
            bad = next(i for i, h in enumerate(cache[1:]) if np.isnan(h).any())
            raise FloatingPointError(f"NaN activation in layer {bad}")
        return a, cache

    def backward(self, cache: list, d_out: np.ndarray) -> list[np.ndarray]:
        grads = [None] * len(self.params)
        ones = np.ones(d_out.shape[0])
        dz = d_out
        for i in range(self.n_layers - 1, -1, -1):
            a_prev, a_cur = cache[i], cache[i + 1]
            if i < self.n_layers - 1:
                # tanh' into the fresh dz of the layer above; the cache
                # and d_out stay untouched
                dz *= _tanh_slope(a_cur)
            w = self.params[2 * i]
            grads[2 * i] = dz.T @ a_prev
            # a BLAS column sum: several times np.sum's speed, other bits
            grads[2 * i + 1] = ones @ dz
            if i > 0:
                # through a width-1 layer the product is a K = 1 gemm; the
                # broadcast product makes the same single roundings
                dz = dz * w if w.shape[0] == 1 else dz @ w
        return grads

    def tangent(self, cache: list, v: np.ndarray) -> np.ndarray:
        """Output tangent along input tangent v, through the activations
        that ``forward`` cached; neither the cache nor v is written."""
        da = v
        for i in range(self.n_layers):
            dz = da @ self.params[2 * i].T
            if i < self.n_layers - 1:
                dz *= _tanh_slope(cache[i + 1])
            da = dz
        return da

    def jvp(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        return self.tangent(self.forward(x)[1], v)


def _tanh_slope(a: np.ndarray) -> np.ndarray:
    """1 - a^2, the tanh derivative at activation a, in one new array."""
    s = np.multiply(a, a)
    return np.subtract(1.0, s, out=s)


class Adam:
    """Adam on one parameter array, updated in place, at the usual moment
    decay rates and denominator guard, with both bias corrections folded
    into two scalars per step; each step's learning rate is the caller's.
    Being elementwise, a step on a flat buffer steps its parts bit for bit."""

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, params: np.ndarray):
        self.params = params
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)
        self.t = 0

    def step(self, grad: np.ndarray, lr: float) -> None:
        self.t += 1
        b1, b2 = self.BETA1, self.BETA2
        # lr m_hat / (sqrt(v_hat) + eps) = a m / (sqrt(v) + e)
        root = math.sqrt(1 - b2 ** self.t)
        a, e = lr * root / (1 - b1 ** self.t), self.EPS * root
        # in place, with the roundings of b1 * m + (1 - b1) * g
        self.m *= b1
        self.m += (1 - b1) * grad
        self.v *= b2
        self.v += (1 - b2) * grad * grad
        self.params -= a * self.m / (np.sqrt(self.v) + e)


# the learning rate that the cosine schedules of training and tuning end at
LR_FLOOR = 1e-6


def cosine_lr(iteration: int, total: int, lr0: float) -> float:
    frac = min(iteration / max(total - 1, 1), 1.0)
    return LR_FLOOR + 0.5 * (lr0 - LR_FLOOR) * (1.0 + np.cos(np.pi * frac))


# ---------------------------------------------------------------------------
# backends
# ---------------------------------------------------------------------------

class _Counted:
    """Work counters and the score-derivative queries of every backend.

    A backend supplies ``_linearize(x2, t)`` -> (score, tangent): one
    primal pass at a (B, d) batch, and a function that maps a (B, d)
    tangent to the directional derivative of the score by reusing that
    pass.  The queries here count what they return: one evaluation per
    row for a score, one JVP per row for each tangent.
    """

    def __init__(self):
        self.eval_count = 0
        self.jvp_count = 0

    def reset_counters(self) -> None:
        self.eval_count = 0
        self.jvp_count = 0

    @staticmethod
    def _tvec(t, batch: int) -> np.ndarray:
        tv = np.broadcast_to(np.asarray(t, dtype=float), (batch,))
        if not np.all(np.isfinite(tv) & (tv > 0)):
            raise ValueError("noise level t must be finite and > 0")
        return tv

    def _batch_and_tangent(self, x, v):
        """The points and a tangent as (B, d) batches of one shape."""
        x2 = as_batch(x, self.dim)
        v2 = as_batch(v, self.dim)
        if v2.shape != x2.shape:
            raise ValueError(f"tangent shape {v2.shape} is not the batch "
                             f"shape {x2.shape}")
        return x2, v2

    def score_and_jvp(self, x, t, v):
        """Score of a (B, d) batch and its directional derivative along
        the (B, d) tangent ``v``, from one primal pass."""
        x2, v2 = self._batch_and_tangent(x, v)
        score, tangent = self._linearize(x2, t)
        self.eval_count += x2.shape[0]
        self.jvp_count += x2.shape[0]
        return score, tangent(v2)

    def score_and_div(self, x, t, proj: eq.ComProjection | None = None):
        """Score of a (B, d) batch and its exact divergence from one primal
        pass.  With ``proj`` the divergence is the trace on the zero-CoM
        subspace, tr(P J P), the one that matches a prior normalised
        there."""
        x2 = as_batch(x, self.dim)
        out = self._score_and_div(x2, t, proj)
        axes = self.dim if proj is None else proj.subspace_dim
        self.eval_count += x2.shape[0]
        self.jvp_count += axes * x2.shape[0]
        return out

    def _score_and_div(self, x2, t, proj):
        # sum_k u_k . (J u_k) over the unit axes or the rows of proj.basis
        score, tangent = self._linearize(x2, t)
        div = np.zeros(x2.shape[0])
        for u in np.eye(self.dim) if proj is None else proj.basis:
            div += np.sum(u * tangent(np.broadcast_to(u, x2.shape)), axis=1)
        return score, div


class AnalyticGmmScore(_Counted):
    """Exact score/denoiser for a Gaussian-mixture target, at one noise
    level t >= 0 per query (t = 0 is the target itself)."""

    def __init__(self, gmm: tg.Gmm):
        super().__init__()
        self.gmm = gmm
        self.dim = gmm.dim

    def _posterior(self, x2, t):
        """The one posterior pass of every query, at one finite t >= 0."""
        if np.ndim(t) != 0 or not 0 <= float(t) < np.inf:
            raise ValueError(f"noise level t must be one finite value >= 0, "
                             f"got {t!r}")
        return tg._gmm_posterior(x2, self.gmm, float(t))

    def denoise(self, x, t):
        x2 = as_batch(x, self.dim)
        post = self._posterior(x2, t)
        self.eval_count += x2.shape[0]
        out = np.multiply(post.score, float(t) ** 2, out=post.score)
        return np.add(x2, out, out=out)

    def _linearize(self, x2, t):
        post = self._posterior(x2, t)
        return post.score, lambda v: tg._posterior_hvp(post, v)

    def _score_and_div(self, x2, t, proj):
        # the ambient trace has a closed form; a subspace trace takes one
        # HVP per basis vector of the subspace
        if proj is not None:
            return super()._score_and_div(x2, t, proj)
        post = self._posterior(x2, t)
        return post.score, tg._posterior_divergence(post)


class _Preconditioned(_Counted):
    """Queries shared by the learned backends D = c_skip x + c_out F.

    A subclass supplies ``_primal(x2, tv)`` -> (D(x), cache), one network
    pass whose cache serves both ``param_grad`` and ``_tangent(cache, v)``,
    the directional derivative of D along v, and ``net_rows``, the rows
    of that pass per point.  ``sigma_data``, the data scale of the
    preconditioning, must be positive and finite.
    """

    def __init__(self, sigma_data: float):
        super().__init__()
        if not (np.isfinite(sigma_data) and sigma_data > 0):
            raise ValueError(f"sigma_data must be finite and > 0, got "
                             f"{sigma_data}")
        self.sigma_data = float(sigma_data)

    def forward_with_cache(self, x, t):
        x2 = as_batch(x, self.dim)
        tv = self._tvec(t, x2.shape[0])
        self.eval_count += x2.shape[0]
        return self._primal(x2, tv)

    def denoise(self, x, t):
        """D(x, t) of a (B, d) batch, from ``_primal`` on blocks of at
        most ``ROW_BLOCK`` network rows.

        The blocks are of equal size, and each but the last is whole
        groups of 4 network rows.  OpenBLAS computes the rows of a
        matrix-vector product (the network's one-output layer) 4 at a
        time and a remainder by another kernel, and a product of few
        rows by yet another, so a block cut elsewhere, or a short last
        block, would round some rows differently from one pass.
        """
        x2 = as_batch(x, self.dim)
        tv = self._tvec(t, x2.shape[0])
        self.eval_count += x2.shape[0]
        group = 4 // math.gcd(self.net_rows, 4)      # points per 4 rows
        groups = -(-x2.shape[0] // group)
        parts = -(-groups // max(1, ROW_BLOCK // (group * self.net_rows)))
        if parts <= 1:
            return self._primal(x2, tv)[0]
        cuts = group * (np.arange(1, parts) * groups // parts)
        return np.concatenate([
            self._primal(xb, tb)[0]
            for xb, tb in zip(np.split(x2, cuts), np.split(tv, cuts))])

    def denoise_jvp(self, x, t, v):
        """Directional derivative of denoise(x, t) along a (B, d) tangent v."""
        x2, v2 = self._batch_and_tangent(x, v)
        self.jvp_count += x2.shape[0]
        _, cache = self._primal(x2, self._tvec(t, x2.shape[0]))
        return self._tangent(cache, v2)

    def _linearize(self, x2, t):
        # Tweedie: score = (D - x) / t^2, and its tangent (dD - v) / t^2
        tv = self._tvec(t, x2.shape[0])
        out, cache = self._primal(x2, tv)
        t2 = tv[:, None] ** 2
        return (out - x2) / t2, lambda v: (self._tangent(cache, v) - v) / t2


class VectorDenoiser(_Preconditioned):
    """Preconditioned dense network for unstructured vector data."""

    net_rows = 1

    def __init__(self, dim: int, hidden: list[int], sigma_data: float,
                 rng: np.random.Generator | None = None):
        super().__init__(sigma_data)
        self.dim = dim
        self.net = Mlp([dim + 1] + list(hidden) + [dim], rng)

    def _primal(self, x2, tv):
        c_skip, c_out, c_in, c_noise = precond_coeffs(tv, self.sigma_data)
        feats = np.concatenate([c_in[:, None] * x2, c_noise[:, None]], axis=1)
        raw, net_cache = self.net.forward(feats)
        out = c_skip[:, None] * x2 + c_out[:, None] * raw
        return out, (net_cache, c_skip, c_out, c_in)

    def param_grad(self, cache, d_out: np.ndarray) -> list[np.ndarray]:
        net_cache, _, c_out, _ = cache
        return self.net.backward(net_cache, c_out[:, None] * d_out)

    def _tangent(self, cache, v2):
        net_cache, c_skip, c_out, c_in = cache
        tangent = np.concatenate([c_in[:, None] * v2,
                                  np.zeros((v2.shape[0], 1))], axis=1)
        raw_t = self.net.tangent(net_cache, tangent)
        return c_skip[:, None] * v2 + c_out[:, None] * raw_t


class RadialDenoiser(_Preconditioned):
    """Pairwise radial network for particle systems.

    The inner network maps (pair distance, c_noise) to a scalar coupling
    g; the raw output for particle i is sum_j g(d_ij) (y_i - y_j) in the
    preconditioned coordinates y = c_in x.  Antisymmetry makes the output
    sum exactly to zero over particles, so predictions stay on the
    zero-center-of-mass subspace.
    """

    # offset keeping the reciprocal distance feature bounded near collision
    INV_OFFSET = 0.5

    # in this class's own namespace: the benchmark's per-layer tracer
    # looks both up there and replaces them for this backend only
    denoise = _Preconditioned.denoise
    denoise_jvp = _Preconditioned.denoise_jvp

    def __init__(self, n_particles: int, spatial_dim: int, hidden: list[int],
                 sigma_data: float, rng: np.random.Generator | None = None):
        super().__init__(sigma_data)
        self.proj = eq.ComProjection(n_particles, spatial_dim)
        self.dim = self.proj.ambient_dim
        self.net = Mlp([3] + list(hidden) + [1], rng)
        self.net_rows = self.proj.incidence.shape[1]

    def _primal(self, x2, tv):
        c_skip, c_out, c_in, c_noise = precond_coeffs(tv, self.sigma_data)
        diff, dist = self.proj.pairs(c_in[:, None] * x2)  # (B, P, n), (B, P)
        feats = np.stack([dist.reshape(-1),
                          1.0 / (dist.reshape(-1) + self.INV_OFFSET),
                          np.repeat(c_noise, dist.shape[1])], axis=1)
        g_flat, net_cache = self.net.forward(feats)
        g = g_flat.reshape(dist.shape)
        raw = self.proj.scatter(g[:, :, None] * diff)
        out = c_skip[:, None] * x2 + c_out[:, None] * raw
        return out, (net_cache, diff, dist, g, c_skip, c_out, c_in)

    def param_grad(self, cache, d_out: np.ndarray) -> list[np.ndarray]:
        net_cache, diff, _, _, _, c_out, _ = cache
        dg = eq.spatial_dot(self.proj.diffs(c_out[:, None] * d_out), diff)
        return self.net.backward(net_cache, dg.reshape(-1, 1))

    def _tangent(self, cache, v2):
        net_cache, diff, dist, g, c_skip, c_out, c_in = cache
        wdiff = self.proj.diffs(c_in[:, None] * v2)
        safe = np.maximum(dist, 1e-300)
        ddist = eq.spatial_dot(diff, wdiff) / safe
        dinv = -ddist / (dist + self.INV_OFFSET) ** 2
        tangent = np.stack([ddist.reshape(-1), dinv.reshape(-1),
                            np.zeros(ddist.size)], axis=1)
        dg = self.net.tangent(net_cache, tangent).reshape(g.shape)
        d_raw = self.proj.scatter(dg[:, :, None] * diff
                                  + g[:, :, None] * wdiff)
        return c_skip[:, None] * v2 + c_out[:, None] * d_raw


# ---------------------------------------------------------------------------
# denoising score-matching training
# ---------------------------------------------------------------------------

@dataclass
class TrainConfig:
    iterations: int = 8000
    batch_size: int = 256
    lr: float = 1e-3
    eps: float = 1e-3
    t_max: float = 1e2

    def __post_init__(self):
        require_count("iterations", self.iterations)
        require_count("batch_size", self.batch_size)
        if not (np.isfinite(self.lr) and self.lr >= 0):
            raise ValueError(f"lr must be finite and >= 0, got {self.lr}")
        if not 0 < self.eps < self.t_max < np.inf:
            raise ValueError(f"need 0 < eps < t_max < inf, got eps="
                             f"{self.eps}, t_max={self.t_max}")


def train_dsm(rng: np.random.Generator, data: np.ndarray, model,
              config: TrainConfig) -> np.ndarray:
    """Fit the denoiser by weighted denoising regression.

    Noise levels are drawn log-uniformly on [eps, t_max]; the per-sample
    loss is lambda(t) ||D(x0 + t z, t) - x0||^2 with the inverse c_out^2
    weighting.  Data and noise of a model with a ``proj`` must lie on that
    zero-CoM subspace.  Returns the per-iteration loss curve.  Aborts if
    the loss exceeds 10x the initial loss for 100 consecutive iterations.
    """
    data = np.asarray(data, dtype=float)
    if data.size == 0:
        raise ValueError("empty training set")
    proj = getattr(model, "proj", None)
    if proj is not None:
        eq._check_on_subspace(data, proj, "training data")
    opt = Adam(model.net.flat)
    losses = np.empty(config.iterations)
    bad_streak = 0
    initial = None
    for it in range(config.iterations):
        loss = _dsm_step(rng, data, model, config, proj, opt, it)
        losses[it] = loss
        if initial is None:
            initial = loss
        if loss > 10.0 * initial:
            bad_streak += 1
            if bad_streak >= 100:
                raise RuntimeError(
                    f"training diverged at iteration {it}: "
                    f"loss {loss:.3e} vs initial {initial:.3e}")
        else:
            bad_streak = 0
    return losses


def _dsm_step(rng, data, model, config, proj, opt, it) -> float:
    """One DSM iteration; returns its loss.  Its frame frees every work
    array on return, and Adam updates its moments in place, so every
    iteration starts from the same heap, and a repeated training run fits
    in the heap of the first without page faults."""
    idx = rng.integers(0, data.shape[0], size=config.batch_size)
    x0 = data[idx]
    u = rng.uniform(size=config.batch_size)
    t = np.exp(np.log(config.eps)
               + u * (np.log(config.t_max) - np.log(config.eps)))
    xt = x0 + t[:, None] * eq.normals(rng, x0.shape, proj)
    out, cache = model.forward_with_cache(xt, t)
    resid = out - x0
    lam = dsm_weight(t, model.sigma_data)
    loss = float(np.mean(lam * np.sum(resid * resid, axis=1)))
    d_out = 2.0 * lam[:, None] * resid / config.batch_size
    grad = np.concatenate(model.param_grad(cache, d_out), axis=None)
    opt.step(grad, cosine_lr(it, config.iterations, config.lr))
    return loss


def estimate_sigma_data(data: np.ndarray) -> float:
    return float(np.std(np.asarray(data, dtype=float)))

