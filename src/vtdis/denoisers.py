"""Denoiser backends: the x0-prediction used by the reverse sampler.

Every backend answers two queries on batches of flat states:

* ``denoise(x, t)``    -> E[x0 | x_t = x] prediction
* ``score(x, t)``      -> gradient of the log marginal at noise level t

linked by the Tweedie identity ``denoise = x + t^2 * score``.  Backends
additionally expose exact divergence and directional derivatives of the
score, used by the probability-flow ODE likelihood:

* ``score_div_exact(x, t)`` -> divergence (Jacobian trace) of the score
* ``score_jvp(x, t, v)``    -> directional derivative of the score

``AnalyticGmmScore`` wraps the closed-form mixture score.  The trainable
backends are small networks with hand-written reverse-mode gradients and
forward-mode directional derivatives, wrapped in the usual denoiser
preconditioning D(x, t) = c_skip x + c_out F(c_in x, c_noise): the raw
network F only ever sees unit-scale inputs and outputs.  The particle
backend pushes pair distances through a shared radial network and emits
a combination of difference vectors, which makes it rotation-, reflection-
and permutation-equivariant by construction, with exactly zero center of
mass output.

All backends count work: ``eval_count`` accumulates denoiser evaluations
(one per batch row) and ``jvp_count`` directional derivatives.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from . import targets as tg

MAGIC = b"VTDNOISE"
CHECKPOINT_VERSION = 1


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

    Parameters are a flat list [W1, b1, W2, b2, ...]; the last layer is
    linear.  ``backward`` returns exact gradients of a scalar loss given
    the output cotangent; ``jvp`` propagates an input tangent.
    """

    def __init__(self, sizes: list[int], rng: np.random.Generator | None = None,
                 init_scale: float = 1.0):
        self.sizes = list(sizes)
        self.params: list[np.ndarray] = []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            if rng is None:
                w = np.zeros((fan_out, fan_in))
            else:
                w = rng.standard_normal((fan_out, fan_in)) \
                    * init_scale / np.sqrt(fan_in)
            self.params.append(w)
            self.params.append(np.zeros(fan_out))

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
            if np.isnan(a).any():
                raise FloatingPointError(f"NaN activation in layer {i}")
            cache.append(a)
        return a, cache

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)[0]

    def backward(self, cache: list, d_out: np.ndarray) -> list[np.ndarray]:
        grads = [None] * len(self.params)
        dz = d_out
        for i in range(self.n_layers - 1, -1, -1):
            a_prev, a_cur = cache[i], cache[i + 1]
            if i < self.n_layers - 1:
                # tanh' into the fresh dz of the layer above; the cache
                # and d_out stay untouched
                dz *= _tanh_slope(a_cur)
            w = self.params[2 * i]
            grads[2 * i] = dz.T @ a_prev
            grads[2 * i + 1] = np.sum(dz, axis=0)
            if i > 0:
                dz = dz @ w
        return grads

    def jvp(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        a, da = x, v
        for i in range(self.n_layers):
            w = self.params[2 * i]
            b = self.params[2 * i + 1]
            z = a @ w.T
            z += b
            dz = da @ w.T
            if i < self.n_layers - 1:
                a = np.tanh(z, out=z)
                dz *= _tanh_slope(a)
                da = dz
            else:
                a, da = z, dz
        return da


def _tanh_slope(a: np.ndarray) -> np.ndarray:
    """1 - a^2, the tanh derivative at activation a, in one new array."""
    s = np.multiply(a, a)
    return np.subtract(1.0, s, out=s)


class Adam:
    """Adam with bias correction over a list of parameter arrays."""

    def __init__(self, params: list[np.ndarray], lr: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = params
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.t = 0

    def step(self, grads: list[np.ndarray], lr: float | None = None) -> None:
        self.t += 1
        lr = self.lr if lr is None else lr
        b1, b2 = self.beta1, self.beta2
        for i, (p, g) in enumerate(zip(self.params, grads)):
            self.m[i] = b1 * self.m[i] + (1 - b1) * g
            self.v[i] = b2 * self.v[i] + (1 - b2) * g * g
            m_hat = self.m[i] / (1 - b1 ** self.t)
            v_hat = self.v[i] / (1 - b2 ** self.t)
            p -= lr * m_hat / (np.sqrt(v_hat) + self.eps)


def cosine_lr(iteration: int, total: int, lr0: float, floor: float) -> float:
    frac = min(iteration / max(total - 1, 1), 1.0)
    return floor + 0.5 * (lr0 - floor) * (1.0 + np.cos(np.pi * frac))


# ---------------------------------------------------------------------------
# backends
# ---------------------------------------------------------------------------

class _Counted:
    def __init__(self):
        self.eval_count = 0
        self.jvp_count = 0

    def reset_counters(self) -> None:
        self.eval_count = 0
        self.jvp_count = 0

    def _batch(self, x) -> np.ndarray:
        x2 = np.atleast_2d(np.asarray(x, dtype=float))
        if x2.shape[1] != self.dim:
            raise ValueError(f"expected dim {self.dim}, got {x2.shape[1]}")
        return x2

    @staticmethod
    def _tvec(t, batch: int) -> np.ndarray:
        tv = np.broadcast_to(np.asarray(t, dtype=float), (batch,))
        if np.any(tv <= 0):
            raise ValueError("noise level t must be positive")
        return tv


class AnalyticGmmScore(_Counted):
    """Exact score/denoiser for a Gaussian-mixture target."""

    def __init__(self, gmm: tg.Gmm):
        super().__init__()
        self.gmm = gmm
        self.dim = gmm.dim

    def score(self, x, t):
        x2 = self._batch(x)
        self.eval_count += x2.shape[0]
        out = tg.gmm_noised_score(x2, float(t), self.gmm)
        return out[0] if np.asarray(x).ndim == 1 else out

    def denoise(self, x, t):
        x2 = self._batch(x)
        self.eval_count += x2.shape[0]
        out = x2 + float(t) ** 2 * tg.gmm_noised_score(x2, float(t), self.gmm)
        return out[0] if np.asarray(x).ndim == 1 else out

    def score_div_exact(self, x, t):
        # priced as the dim directional derivatives per point that the
        # learned backends spend (see ``_div_from_jvp``)
        x2 = self._batch(x)
        self.jvp_count += self.dim * x2.shape[0]
        out = tg.gmm_noised_score_divergence(x2, float(t), self.gmm)
        return out[0] if np.asarray(x).ndim == 1 else out

    def score_jvp(self, x, t, v):
        x2 = self._batch(x)
        self.jvp_count += x2.shape[0]
        out = tg.gmm_noised_score_hvp(x2, float(t), self.gmm, np.atleast_2d(v))
        return out[0] if np.asarray(x).ndim == 1 else out


class VectorDenoiser(_Counted):
    """Preconditioned dense network for unstructured vector data."""

    kind = "vector"

    def __init__(self, dim: int, hidden: list[int], sigma_data: float,
                 rng: np.random.Generator | None = None):
        super().__init__()
        self.dim = dim
        self.sigma_data = float(sigma_data)
        self.net = Mlp([dim + 1] + list(hidden) + [dim], rng)

    def forward_with_cache(self, x, t):
        x2 = self._batch(x)
        tv = self._tvec(t, x2.shape[0])
        self.eval_count += x2.shape[0]
        c_skip, c_out, c_in, c_noise = precond_coeffs(tv, self.sigma_data)
        feats = np.concatenate([c_in[:, None] * x2, c_noise[:, None]], axis=1)
        raw, cache = self.net.forward(feats)
        out = c_skip[:, None] * x2 + c_out[:, None] * raw
        return out, (cache, c_out)

    def denoise(self, x, t):
        out, _ = self.forward_with_cache(np.atleast_2d(np.asarray(x, float)), t)
        return out[0] if np.asarray(x).ndim == 1 else out

    def score(self, x, t):
        x2 = self._batch(x)
        tv = self._tvec(t, x2.shape[0])
        out = (self.denoise(x2, t) - x2) / tv[:, None] ** 2
        return out[0] if np.asarray(x).ndim == 1 else out

    def param_grad(self, cache, d_out: np.ndarray) -> list[np.ndarray]:
        net_cache, c_out = cache
        return self.net.backward(net_cache, c_out[:, None] * d_out)

    def denoise_jvp(self, x, t, v):
        """Directional derivative of denoise(x, t) along v."""
        x2 = self._batch(x)
        v2 = np.atleast_2d(np.asarray(v, dtype=float))
        tv = self._tvec(t, x2.shape[0])
        self.jvp_count += x2.shape[0]
        c_skip, c_out, c_in, c_noise = precond_coeffs(tv, self.sigma_data)
        feats = np.concatenate([c_in[:, None] * x2, c_noise[:, None]], axis=1)
        tangent = np.concatenate([c_in[:, None] * v2,
                                  np.zeros((v2.shape[0], 1))], axis=1)
        raw_t = self.net.jvp(feats, tangent)
        out = c_skip[:, None] * v2 + c_out[:, None] * raw_t
        return out[0] if np.asarray(x).ndim == 1 else out

    def score_jvp(self, x, t, v):
        x2 = self._batch(x)
        tv = self._tvec(t, x2.shape[0])
        dj = self.denoise_jvp(x2, t, v)
        out = (dj - np.atleast_2d(np.asarray(v, float))) / tv[:, None] ** 2
        return out[0] if np.asarray(x).ndim == 1 else out

    def score_div_exact(self, x, t):
        return _div_from_jvp(self, x, t)


class RadialDenoiser(_Counted):
    """Pairwise radial network for particle systems.

    The inner network maps (pair distance, c_noise) to a scalar coupling
    g; the raw output for particle i is sum_j g(d_ij) (y_i - y_j) in the
    preconditioned coordinates y = c_in x.  Antisymmetry makes the output
    sum exactly to zero over particles, so predictions stay on the
    zero-center-of-mass subspace.
    """

    kind = "radial"

    # offset keeping the reciprocal distance feature bounded near collision
    INV_OFFSET = 0.5

    def __init__(self, n_particles: int, spatial_dim: int, hidden: list[int],
                 sigma_data: float, rng: np.random.Generator | None = None):
        super().__init__()
        self.n_particles = n_particles
        self.spatial_dim = spatial_dim
        self.dim = n_particles * spatial_dim
        self.sigma_data = float(sigma_data)
        self.net = Mlp([3] + list(hidden) + [1], rng)
        # signed incidence matrix (M, P): every pair gather (inc.T @ conf)
        # and per-particle scatter-add (inc @ contrib) is one matmul
        self._incidence = tg.pair_incidence(n_particles)

    def _gather(self, per_particle: np.ndarray) -> np.ndarray:
        """Flat (B, M*n) -> pair differences (B, P, n), x_i - x_j."""
        b = per_particle.shape[0]
        return np.matmul(self._incidence.T,
                         per_particle.reshape(b, self.n_particles,
                                              self.spatial_dim))

    def _geometry(self, x2, tv):
        _, _, c_in, c_noise = precond_coeffs(tv, self.sigma_data)
        diff = self._gather(c_in[:, None] * x2)              # (B, P, n)
        dist = np.sqrt(tg._spatial_dot(diff, diff))          # (B, P)
        n_pairs = dist.shape[1]
        feats = np.stack([dist.reshape(-1),
                          1.0 / (dist.reshape(-1) + self.INV_OFFSET),
                          np.repeat(c_noise, n_pairs)], axis=1)
        return diff, dist, feats

    def _assemble(self, contrib):
        """sum_p +-contrib_p (B, P, n) into per-particle vectors, flat
        (B, M*n)."""
        out = np.matmul(self._incidence, contrib)
        return out.reshape(out.shape[0], self.dim)

    def forward_with_cache(self, x, t):
        x2 = self._batch(x)
        tv = self._tvec(t, x2.shape[0])
        self.eval_count += x2.shape[0]
        b = x2.shape[0]
        c_skip, c_out, _, _ = precond_coeffs(tv, self.sigma_data)
        diff, dist, feats = self._geometry(x2, tv)
        g_flat, net_cache = self.net.forward(feats)
        g = g_flat.reshape(b, -1)
        raw = self._assemble(g[:, :, None] * diff)
        out = c_skip[:, None] * x2 + c_out[:, None] * raw
        return out, (net_cache, diff, c_out)

    def denoise(self, x, t):
        out, _ = self.forward_with_cache(np.atleast_2d(np.asarray(x, float)), t)
        return out[0] if np.asarray(x).ndim == 1 else out

    def score(self, x, t):
        x2 = self._batch(x)
        tv = self._tvec(t, x2.shape[0])
        out = (self.denoise(x2, t) - x2) / tv[:, None] ** 2
        return out[0] if np.asarray(x).ndim == 1 else out

    def param_grad(self, cache, d_out: np.ndarray) -> list[np.ndarray]:
        net_cache, diff, c_out = cache
        dg = tg._spatial_dot(self._gather(c_out[:, None] * d_out), diff)
        return self.net.backward(net_cache, dg.reshape(-1, 1))

    def denoise_jvp(self, x, t, v):
        x2 = self._batch(x)
        v2 = np.atleast_2d(np.asarray(v, dtype=float))
        tv = self._tvec(t, x2.shape[0])
        self.jvp_count += x2.shape[0]
        b = x2.shape[0]
        c_skip, c_out, c_in, _ = precond_coeffs(tv, self.sigma_data)
        diff, dist, feats = self._geometry(x2, tv)
        g = self.net(feats).reshape(b, -1)
        wdiff = self._gather(c_in[:, None] * v2)
        safe = np.maximum(dist, 1e-300)
        ddist = tg._spatial_dot(diff, wdiff) / safe
        dinv = -ddist / (dist + self.INV_OFFSET) ** 2
        tangent = np.stack([ddist.reshape(-1), dinv.reshape(-1),
                            np.zeros(ddist.size)], axis=1)
        dg = self.net.jvp(feats, tangent).reshape(b, -1)
        d_raw = self._assemble(dg[:, :, None] * diff + g[:, :, None] * wdiff)
        out = c_skip[:, None] * v2 + c_out[:, None] * d_raw
        return out[0] if np.asarray(x).ndim == 1 else out

    def score_jvp(self, x, t, v):
        x2 = self._batch(x)
        tv = self._tvec(t, x2.shape[0])
        dj = self.denoise_jvp(x2, t, v)
        out = (dj - np.atleast_2d(np.asarray(v, float))) / tv[:, None] ** 2
        return out[0] if np.asarray(x).ndim == 1 else out

    def score_div_exact(self, x, t):
        return _div_from_jvp(self, x, t)


def _div_from_jvp(model, x, t):
    """Exact score divergence via one directional derivative per axis."""
    x2 = np.atleast_2d(np.asarray(x, dtype=float))
    div = np.zeros(x2.shape[0])
    for i in range(model.dim):
        e = np.zeros((1, model.dim))
        e[0, i] = 1.0
        basis = np.broadcast_to(e, x2.shape)
        div += model.score_jvp(x2, t, basis)[:, i]
    return float(div[0]) if np.asarray(x).ndim == 1 else div


# ---------------------------------------------------------------------------
# denoising score-matching training
# ---------------------------------------------------------------------------

@dataclass
class TrainConfig:
    iterations: int = 8000
    batch_size: int = 256
    lr: float = 1e-3
    lr_floor: float = 1e-6
    eps: float = 1e-3
    t_max: float = 1e2
    data_scale: float = 1.0


def train_dsm(rng: np.random.Generator, data: np.ndarray, model,
              config: TrainConfig) -> np.ndarray:
    """Fit the denoiser by weighted denoising regression.

    Noise levels are drawn log-uniformly on [eps, t_max]; the per-sample
    loss is lambda(t) ||D(x0 + t z, t) - x0||^2 with the inverse c_out^2
    weighting.  Returns the per-iteration loss curve.  Aborts if the loss
    exceeds 10x the initial loss for 100 consecutive iterations.
    """
    data = np.asarray(data, dtype=float) * config.data_scale
    if data.size == 0:
        raise ValueError("empty training set")
    particles = getattr(model, "n_particles", None)
    opt = Adam(model.net.params, lr=config.lr)
    losses = np.empty(config.iterations)
    bad_streak = 0
    initial = None
    for it in range(config.iterations):
        idx = rng.integers(0, data.shape[0], size=config.batch_size)
        x0 = data[idx]
        u = rng.uniform(size=config.batch_size)
        t = np.exp(np.log(config.eps)
                   + u * (np.log(config.t_max) - np.log(config.eps)))
        z = rng.standard_normal(x0.shape)
        if particles is not None:
            z = tg.remove_com(z, particles, model.spatial_dim)
        xt = x0 + t[:, None] * z
        out, cache = model.forward_with_cache(xt, t)
        resid = out - x0
        lam = dsm_weight(t, model.sigma_data)
        loss = float(np.mean(lam * np.sum(resid * resid, axis=1)))
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
        d_out = 2.0 * lam[:, None] * resid / config.batch_size
        grads = model.param_grad(cache, d_out)
        opt.step(grads, lr=cosine_lr(it, config.iterations, config.lr,
                                     config.lr_floor))
    return losses


def estimate_sigma_data(data: np.ndarray) -> float:
    return float(np.std(np.asarray(data, dtype=float)))


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def save_checkpoint(path, model) -> None:
    """Versioned binary dump; round-trips bit-exactly."""
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        if model.kind == "vector":
            fh.write(struct.pack("<B", 0))
            fh.write(struct.pack("<d", model.sigma_data))
            fh.write(struct.pack("<II", model.dim, 0))
        else:
            fh.write(struct.pack("<B", 1))
            fh.write(struct.pack("<d", model.sigma_data))
            fh.write(struct.pack("<II", model.n_particles, model.spatial_dim))
        sizes = model.net.sizes
        fh.write(struct.pack("<I", len(sizes)))
        fh.write(struct.pack(f"<{len(sizes)}I", *sizes))
        for p in model.net.params:
            fh.write(np.ascontiguousarray(p, dtype="<f8").tobytes())


def load_checkpoint(path):
    with open(path, "rb") as fh:
        if fh.read(8) != MAGIC:
            raise ValueError("not a denoiser checkpoint")
        (version,) = struct.unpack("<I", fh.read(4))
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        (kind_flag,) = struct.unpack("<B", fh.read(1))
        (sigma_data,) = struct.unpack("<d", fh.read(8))
        a, b = struct.unpack("<II", fh.read(8))
        (n_sizes,) = struct.unpack("<I", fh.read(4))
        sizes = list(struct.unpack(f"<{n_sizes}I", fh.read(4 * n_sizes)))
        if kind_flag == 0:
            model = VectorDenoiser(a, sizes[1:-1], sigma_data)
        else:
            model = RadialDenoiser(a, b, sizes[1:-1], sigma_data)
        if model.net.sizes != sizes:
            raise ValueError("layer table inconsistent with architecture")
        for p in model.net.params:
            buf = fh.read(p.size * 8)
            p[...] = np.frombuffer(buf, dtype="<f8").reshape(p.shape)
    return model
