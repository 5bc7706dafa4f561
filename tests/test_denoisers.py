import copy

import numpy as np
import pytest

from vtdis import denoisers as dn
from vtdis import equivariant as eq
from vtdis import pfode as pf
from vtdis import targets as tg
from vtdis.schedule import karras_grid


def zero_com(x, m, n):
    """Rows of x moved onto the zero-CoM subspace of m particles in n-D."""
    return eq.com_project(x, eq.ComProjection(m, n))


def score(model, x, t):
    """The score alone, from the fused query along a zero tangent."""
    return model.score_and_jvp(x, t, np.zeros_like(x))[0]


# A learned backend runs its network in float32.  Its results are held to
# a float64 twin on the same weights, within 1e-5 of the largest entry:
# about 84 float32 ulps (eps = 2^-23 = 1.19e-7), room for the rounding of
# a three-layer pass and its sums.  Oracles (finite differences, loops)
# are taken on the twin at their float64 tolerances.
F32_TOL = 1e-5


def float64_twin(model):
    """``model`` with its network run in float64, on the same weights."""
    twin = copy.copy(model)
    twin.net_dtype = np.float64
    return twin


def assert_f32_close(got, want):
    scale = np.max(np.abs(want))
    assert np.max(np.abs(np.asarray(got) - want)) <= F32_TOL * scale


def finite_diff_param_grads(model, x, t, d_out, h=1e-6):
    """Central differences through the full forward pass."""
    def total():
        out, _ = model.forward_with_cache(x, t)
        return float(np.sum(out * d_out))

    grads = []
    for p in model.net.params:
        g = np.zeros_like(p)
        it = np.nditer(p, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            old = p[idx]
            p[idx] = old + h
            up = total()
            p[idx] = old - h
            dn_ = total()
            p[idx] = old
            g[idx] = (up - dn_) / (2 * h)
            it.iternext()
        grads.append(g)
    return grads


class TestAnalyticBackend:
    def test_tweedie_identity(self):
        gmm = tg.two_mode_gmm(3)
        model = dn.AnalyticGmmScore(gmm)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((5, 3))
        for t in [0.05, 0.8, 10.0]:
            want = x + t * t * score(model, x, t)
            assert np.allclose(model.denoise(x, t), want, atol=1e-12)

    def test_single_gaussian_posterior_mean(self):
        sigma2, mu = 0.5, 0.3
        gmm = tg.single_gaussian(2, sigma2, mu)
        model = dn.AnalyticGmmScore(gmm)
        x = np.array([[1.0, -0.7]])
        t = 0.9
        want = (sigma2 * x + t * t * mu) / (sigma2 + t * t)
        assert np.allclose(model.denoise(x, t), want, atol=1e-12)

    def test_t_zero_returns_input(self):
        model = dn.AnalyticGmmScore(tg.two_mode_gmm(2))
        x = np.array([[0.4, -0.9]])
        assert np.allclose(model.denoise(x, 0.0), x, atol=1e-12)

    @pytest.mark.parametrize("query", ["denoise", "score_and_div",
                                       "score_and_jvp"])
    @pytest.mark.parametrize("t", [-0.5, np.nan, np.inf, [0.5, 0.5]])
    def test_noise_level_out_of_range_is_rejected_by_name(self, query, t):
        # a negative t answered as for |t|, and a (B,) t failed in float()
        model = dn.AnalyticGmmScore(tg.two_mode_gmm(2))
        x = np.array([[0.4, -0.9], [1.0, 0.2]])
        args = (x,) if query == "score_and_jvp" else ()
        with pytest.raises(ValueError, match="noise level t"):
            getattr(model, query)(x, t, *args)
        assert model.eval_count == 0

    def test_large_t_prediction_bounded(self):
        gmm = tg.two_mode_gmm(4)
        model = dn.AnalyticGmmScore(gmm)
        got = model.denoise(np.zeros((1, 4)), 1e3)
        bound = np.max(np.abs(gmm.means)) + 3 * np.sqrt(gmm.variances.max())
        assert np.all(np.abs(got) <= bound)

    def test_divergence_identity_with_denoiser_jacobian(self):
        # trace d denoise/dx = d + t^2 * div score
        gmm = tg.two_mode_gmm(3)
        model = dn.AnalyticGmmScore(gmm)
        rng = np.random.default_rng(1)
        x = rng.standard_normal((1, 3))
        t = 0.6
        h = 1e-5
        tr = 0.0
        for i in range(3):
            up, dn_ = x.copy(), x.copy()
            up[0, i] += h
            dn_[0, i] -= h
            tr += (model.denoise(up, t)[0, i]
                   - model.denoise(dn_, t)[0, i]) / (2 * h)
        want = 3 + t * t * model.score_and_div(x, t)[1][0]
        assert tr == pytest.approx(want, rel=1e-5)


class TestMlpMachinery:
    def test_zero_weight_network_is_skip_only(self):
        model = dn.VectorDenoiser(3, [8], sigma_data=1.0)   # zero init
        x = np.random.default_rng(2).standard_normal((4, 3))
        t = 0.7
        c_skip, _, _, _ = dn.precond_coeffs(t, 1.0)
        assert np.allclose(model.denoise(x, t), c_skip * x, atol=1e-14)

    @pytest.mark.parametrize("build", [
        lambda rng: (dn.VectorDenoiser(3, [6, 5], 1.2, rng),
                     rng.standard_normal((4, 3)), np.array([0.3, 1.0, 2.0, 8.0])),
        lambda rng: (dn.RadialDenoiser(4, 2, [8, 6], 1.8, rng),
                     zero_com(rng.standard_normal((3, 8)), 4, 2),
                     np.array([0.5, 1.0, 4.0])),
        lambda rng: (dn.RadialDenoiser(13, 3, [5], 1.1, rng),
                     zero_com(rng.standard_normal((2, 39)), 13, 3),
                     np.array([0.4, 2.5])),
    ])
    def test_param_grads_match_finite_differences(self, build):
        rng = np.random.default_rng(3)
        model, x, t = build(rng)
        ref = float64_twin(model)
        out, cache = ref.forward_with_cache(x, t)
        d_out = rng.standard_normal(out.shape)
        want = ref.param_grad(cache, d_out)
        for g, w in zip(want, finite_diff_param_grads(ref, x, t, d_out)):
            assert np.allclose(g, w, rtol=1e-4, atol=1e-7)
        got = model.param_grad(model.forward_with_cache(x, t)[1], d_out)
        for g, w in zip(got, want):
            assert g.dtype == np.float64
            assert_f32_close(g, w)

    def test_jvp_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        model = dn.RadialDenoiser(4, 2, [16], 1.5, rng)
        ref = float64_twin(model)
        x = zero_com(rng.standard_normal((5, 8)), 4, 2)
        v = zero_com(rng.standard_normal((5, 8)), 4, 2)
        h = 1e-6
        fd = (ref.denoise(x + h * v, 1.3) - ref.denoise(x - h * v, 1.3)) \
            / (2 * h)
        want = ref.denoise_jvp(x, 1.3, v)
        assert np.allclose(want, fd, atol=1e-6)
        assert_f32_close(model.denoise_jvp(x, 1.3, v), want)

    def test_tweedie_identity_by_construction(self):
        rng = np.random.default_rng(5)
        model = dn.VectorDenoiser(2, [8], 1.0, rng)
        x = rng.standard_normal((3, 2))
        t = 1.7
        assert np.allclose(model.denoise(x, t),
                           x + t * t * score(model, x, t), atol=1e-12)

    def test_nan_activation_reports_layer(self):
        model = dn.VectorDenoiser(2, [4], 1.0)
        model.net.params[0][0, 0] = np.nan
        with pytest.raises(FloatingPointError, match="layer 0"):
            model.denoise(np.ones((1, 2)), 1.0)

    @pytest.mark.parametrize("layer", [0, 1, 2])
    def test_nan_is_named_at_the_first_layer_that_holds_one(self, layer):
        # the pass scans its output alone, then the layers in order
        net = dn.Mlp([3, 5, 4, 2], np.random.default_rng(7))
        net.params[2 * layer + 1][0] = np.nan
        with pytest.raises(FloatingPointError, match=f"layer {layer}$"):
            net.forward(np.ones((2, 3)))

    def test_width_one_backward_is_the_gemm_chain_bit_for_bit(self):
        # through a width-1 output layer the cotangent is a broadcast
        # product, not a K = 1 gemm; each entry is one rounded product
        # either way.  Each bias gradient is the BLAS column sum ones @ dz
        rng = np.random.default_rng(8)
        net = dn.Mlp([3, 6, 5, 1], rng)
        x, d_out = rng.standard_normal((9, 3)), rng.standard_normal((9, 1))
        _, cache = net.forward(x)
        got = net.backward(cache, d_out.copy())
        dz = d_out
        for i in range(net.n_layers - 1, -1, -1):
            if i < net.n_layers - 1:
                dz = dz * (1.0 - cache[i + 1] ** 2)
            assert np.array_equal(got[2 * i], dz.T @ cache[i])
            assert np.array_equal(got[2 * i + 1], np.ones(9) @ dz)
            dz = dz @ net.params[2 * i]

    def test_exact_divergence_from_directional_derivatives(self):
        rng = np.random.default_rng(6)
        model = dn.VectorDenoiser(3, [8], 1.0, rng)
        ref = float64_twin(model)
        x = rng.standard_normal((2, 3))
        t = 0.8
        h = 1e-5
        want = ref.score_and_div(x, t)[1]
        for row in range(2):
            tr = 0.0
            for i in range(3):
                up, dn_ = x[row:row + 1].copy(), x[row:row + 1].copy()
                up[0, i] += h
                dn_[0, i] -= h
                tr += (score(ref, up, t)[0, i]
                       - score(ref, dn_, t)[0, i]) / (2 * h)
            assert want[row] == pytest.approx(tr, rel=1e-4)
        assert_f32_close(model.score_and_div(x, t)[1], want)

    def test_forward_after_an_adam_step_sees_the_new_weights(self):
        # the float32 pass reads each weight afresh from the float64 flat
        # buffer, so no rounded copy outlives a step; gradients, moments
        # and weights stay float64
        rng = np.random.default_rng(28)
        model = dn.RadialDenoiser(4, 2, [8], 1.3, rng)
        x = zero_com(rng.standard_normal((5, 8)), 4, 2)
        t = np.array([0.1, 0.5, 1.0, 3.0, 9.0])
        out, cache = model.forward_with_cache(x, t)
        assert all(a.dtype == np.float32 for a in cache[0])
        assert out.dtype == np.float64
        grads = model.param_grad(cache, rng.standard_normal(out.shape))
        assert all(g.dtype == np.float64 for g in grads)
        opt = dn.Adam(model.net.flat)
        opt.step(np.concatenate(grads, axis=None), 1e-2)
        for a in (model.net.flat, opt.m, opt.v):
            assert a.dtype == np.float64
        fresh = dn.RadialDenoiser(4, 2, [8], 1.3)
        fresh.net.flat[...] = model.net.flat
        after = model.denoise(x, t)
        assert not np.array_equal(after, out)
        assert np.array_equal(after, fresh.denoise(x, t))


# learned backends at one network row per point and at 78 (LJ-13 pairs)
BLOCKED = {
    "vector": lambda: dn.VectorDenoiser(3, [8], 1.3,
                                        np.random.default_rng(21)),
    "radial": lambda: dn.RadialDenoiser(13, 3, [8], 1.3,
                                        np.random.default_rng(22)),
}


def blocked_points(model, count, rng):
    x = rng.standard_normal((count, model.dim))
    proj = getattr(model, "proj", None)
    return x if proj is None else eq.com_project(x, proj)


@pytest.mark.parametrize("backend", list(BLOCKED))
def test_row_blocked_denoise_is_one_pass_bit_for_bit(backend):
    # below, at and across the first block boundary, and several blocks
    model = BLOCKED[backend]()
    rows_of_block = []
    forward = model.net.forward

    def counted(x):
        assert x.dtype == np.float32          # the single-precision kernels
        rows_of_block.append(x.shape[0])
        return forward(x)

    model.net.forward = counted
    per_block = dn.ROW_BLOCK // model.net_rows
    rng = np.random.default_rng(23)
    for count in (per_block - 1, per_block, per_block + 1,
                  5 * per_block + 3):
        x = blocked_points(model, count, rng)
        t = rng.uniform(0.01, 10.0, count)
        model.reset_counters()
        rows_of_block.clear()
        got = model.denoise(x, t)
        assert model.eval_count == count
        assert max(rows_of_block) <= dn.ROW_BLOCK
        assert all(rows % 4 == 0 for rows in rows_of_block[:-1])
        assert sum(rows_of_block) == count * model.net_rows
        assert len(rows_of_block) == -(-count // per_block)
        assert np.array_equal(got, model.forward_with_cache(x, t)[0])


@pytest.mark.parametrize("backend", list(BLOCKED))
def test_nan_weight_reports_layer_in_a_blocked_batch(backend):
    model = BLOCKED[backend]()
    model.net.params[0][0, 0] = np.nan
    count = 2 * dn.ROW_BLOCK // model.net_rows + 1
    x = blocked_points(model, count, np.random.default_rng(24))
    with pytest.raises(FloatingPointError, match="layer 0"):
        model.denoise(x, 1.0)


class TestMlpAliasing:
    """The passes work in place on their own gemm outputs only."""

    def setup_method(self):
        rng = np.random.default_rng(15)
        self.net = dn.Mlp([3, 7, 6, 2], rng)
        self.x = rng.standard_normal((9, 3))
        self.v = rng.standard_normal((9, 3))
        self.d_out = rng.standard_normal((9, 2))

    def test_forward_and_jvp_leave_inputs_unchanged(self):
        x, v = self.x.copy(), self.v.copy()
        self.net.forward(self.x)
        self.net.jvp(self.x, self.v)
        assert np.array_equal(self.x, x) and np.array_equal(self.v, v)

    def test_tangent_repeatable_and_leaves_cache_unchanged(self):
        _, cache = self.net.forward(self.x)
        saved = [c.copy() for c in cache]
        x, v = self.x.copy(), self.v.copy()
        first = self.net.tangent(cache, self.v)
        second = self.net.tangent(cache, self.v)
        assert np.array_equal(first, second)
        assert np.array_equal(first, self.net.jvp(self.x, self.v))
        for c, s in zip(cache, saved):
            assert np.array_equal(c, s)
            assert not np.shares_memory(first, c)
        assert np.array_equal(self.x, x) and np.array_equal(self.v, v)

    def test_cache_entries_do_not_share_memory(self):
        _, cache = self.net.forward(self.x)
        assert len(cache) == self.net.n_layers + 1
        for prev, cur in zip(cache[:-1], cache[1:]):
            assert not np.shares_memory(prev, cur)

    def test_backward_repeatable_and_leaves_cache_unchanged(self):
        _, cache = self.net.forward(self.x)
        saved = [c.copy() for c in cache]
        d_out = self.d_out.copy()
        first = self.net.backward(cache, self.d_out)
        second = self.net.backward(cache, self.d_out)
        for a, b in zip(first, second):
            assert np.array_equal(a, b)
        for c, s in zip(cache, saved):
            assert np.array_equal(c, s)
        assert np.array_equal(self.d_out, d_out)


# Per-pair loop reference for the radial denoiser.  The network itself is
# evaluated one pair row at a time; everything around it (pair geometry,
# chain rule, scatter into particles) is written out pair by pair.  The
# tolerance is fixed from float64 rounding: the vectorised code sums the
# same terms in another order.
REL_TOL = 1e-12


def assert_rel_close(got, want):
    scale = np.max(np.abs(want))
    assert np.max(np.abs(np.asarray(got) - want)) <= REL_TOL * scale


def radial_reference(model, x, t, v=None):
    """(denoise, denoise_jvp along v or None, pair features) by loops."""
    m, n = model.proj.n_particles, model.proj.spatial_dim
    c_skip, c_out, c_in, c_noise = dn.precond_coeffs(t, model.sigma_data)
    out = np.zeros_like(x)
    jvp = None if v is None else np.zeros_like(x)
    feats = []
    for b in range(x.shape[0]):
        y = (c_in[b] * x[b]).reshape(m, n)
        raw = np.zeros((m, n))
        d_raw = np.zeros((m, n))
        w = None if v is None else (c_in[b] * v[b]).reshape(m, n)
        for i in range(m):
            for j in range(i + 1, m):
                diff = y[i] - y[j]
                dist = np.sqrt(np.sum(diff * diff))
                f = np.array([[dist, 1.0 / (dist + model.INV_OFFSET),
                               c_noise[b]]])
                feats.append(f[0])
                g = model.net.forward(f)[0][0, 0]
                raw[i] += g * diff
                raw[j] -= g * diff
                if w is not None:
                    wdiff = w[i] - w[j]
                    ddist = np.dot(diff, wdiff) / dist
                    tan = np.array([[ddist,
                                     -ddist / (dist + model.INV_OFFSET) ** 2,
                                     0.0]])
                    dg = model.net.jvp(f, tan)[0, 0]
                    d_raw[i] += dg * diff + g * wdiff
                    d_raw[j] -= dg * diff + g * wdiff
        out[b] = c_skip[b] * x[b] + c_out[b] * raw.reshape(-1)
        if w is not None:
            jvp[b] = c_skip[b] * v[b] + c_out[b] * d_raw.reshape(-1)
    return out, jvp, np.array(feats)


def radial_pair_cotangent(model, x, t, d_out):
    """d loss / d g for every pair, loop form of the chain rule."""
    m, n = model.proj.n_particles, model.proj.spatial_dim
    _, c_out, c_in, _ = dn.precond_coeffs(t, model.sigma_data)
    dg = []
    for b in range(x.shape[0]):
        y = (c_in[b] * x[b]).reshape(m, n)
        d_raw = (c_out[b] * d_out[b]).reshape(m, n)
        for i in range(m):
            for j in range(i + 1, m):
                dg.append(np.dot(d_raw[i] - d_raw[j], y[i] - y[j]))
    return np.array(dg)[:, None]


class TestRadialReference:
    """LJ-13 shapes (M = 13, n = 3) with a different t on every row: the
    float64 twin within float64 rounding of the loop, the float32 backend
    within float32 rounding of it."""

    def setup_method(self):
        rng = np.random.default_rng(16)
        self.model = dn.RadialDenoiser(13, 3, [16, 16], 1.4, rng)
        self.x = zero_com(rng.standard_normal((4, 39)), 13, 3)
        self.v = zero_com(rng.standard_normal((4, 39)), 13, 3)
        self.t = np.array([0.01, 0.3, 1.7, 40.0])
        self.d_out = rng.standard_normal((4, 39))

    def test_denoise_matches_loop(self):
        want, _, _ = radial_reference(self.model, self.x, self.t)
        assert_rel_close(float64_twin(self.model).denoise(self.x, self.t),
                         want)
        assert_f32_close(self.model.denoise(self.x, self.t), want)

    def test_denoise_jvp_matches_loop(self):
        _, want, _ = radial_reference(self.model, self.x, self.t, self.v)
        for model, close in [(float64_twin(self.model), assert_rel_close),
                             (self.model, assert_f32_close)]:
            close(model.denoise_jvp(self.x, self.t, self.v), want)

    def test_param_grad_pair_cotangent_matches_loop(self):
        _, _, feats = radial_reference(self.model, self.x, self.t)
        _, net_cache = self.model.net.forward(feats)
        dg = radial_pair_cotangent(self.model, self.x, self.t, self.d_out)
        want = self.model.net.backward(net_cache, dg)
        for model, close in [(float64_twin(self.model), assert_rel_close),
                             (self.model, assert_f32_close)]:
            _, cache = model.forward_with_cache(self.x, self.t)
            for g, w in zip(model.param_grad(cache, self.d_out), want):
                close(g, w)

    def test_coincident_particles_stay_finite(self):
        x = self.x.copy().reshape(4, 13, 3)
        x[:, 5] = x[:, 2]
        x = x.reshape(4, 39)
        out = self.model.denoise(x, self.t)
        jvp = self.model.denoise_jvp(x, self.t, self.v)
        assert np.all(np.isfinite(out)) and np.all(np.isfinite(jvp))
        # a zero difference vector carries no coupling: the loop still holds
        want, _, _ = radial_reference(self.model, x, self.t)
        assert_rel_close(float64_twin(self.model).denoise(x, self.t), want)
        assert_f32_close(out, want)


class TestRadialSymmetries:
    def test_permutation_equivariance(self):
        rng = np.random.default_rng(7)
        model = dn.RadialDenoiser(5, 2, [12], 1.0, rng)
        x = zero_com(rng.standard_normal((3, 10)), 5, 2)
        perm = rng.permutation(5)
        xp = x.reshape(3, 5, 2)[:, perm].reshape(3, 10)
        got = model.denoise(xp, 1.0).reshape(3, 5, 2)
        want = model.denoise(x, 1.0).reshape(3, 5, 2)[:, perm]
        assert np.allclose(got, want, atol=1e-12)

    def test_rotation_equivariance(self):
        rng = np.random.default_rng(8)
        model = dn.RadialDenoiser(4, 3, [12], 1.0, rng)
        from scipy.stats import ortho_group
        r = ortho_group.rvs(3, random_state=9)
        x = zero_com(rng.standard_normal((3, 12)), 4, 3)
        xr = (x.reshape(3, 4, 3) @ r.T).reshape(3, 12)
        got = model.denoise(xr, 0.8).reshape(3, 4, 3)
        want = model.denoise(x, 0.8).reshape(3, 4, 3) @ r.T
        assert np.allclose(got, want, atol=1e-12)

    def test_output_zero_com(self):
        rng = np.random.default_rng(9)
        model = dn.RadialDenoiser(6, 3, [12], 1.0, rng)
        x = zero_com(rng.standard_normal((4, 18)), 6, 3)
        out = model.denoise(x, 2.0).reshape(4, 6, 3)
        assert np.max(np.abs(out.mean(axis=1))) < 1e-13


def dsm_reference(rng, data, model, config):
    """``train_dsm`` written out, each parameter array stepped by an Adam
    of its own: the loss curve."""
    proj = getattr(model, "proj", None)
    opts = [dn.Adam(p) for p in model.net.params]
    losses = []
    for it in range(config.iterations):
        x0 = data[rng.integers(0, data.shape[0], size=config.batch_size)]
        u = rng.uniform(size=config.batch_size)
        log_eps = np.log(config.eps)
        t = np.exp(log_eps + u * (np.log(config.t_max) - log_eps))
        z = rng.standard_normal(x0.shape)
        xt = x0 + t[:, None] * (z if proj is None else eq.com_project(z, proj))
        out, cache = model.forward_with_cache(xt, t)
        resid = out - x0
        lam = dn.dsm_weight(t, model.sigma_data)
        losses.append(float(np.mean(lam * np.sum(resid * resid, axis=1))))
        grads = model.param_grad(
            cache, 2.0 * lam[:, None] * resid / config.batch_size)
        lr = dn.cosine_lr(it, config.iterations, config.lr)
        for opt, g in zip(opts, grads):
            opt.step(g, lr)
    return np.array(losses)


# a learned backend of each kind, and training data on its subspace
TRAINED = {
    "vector": (lambda rng: dn.VectorDenoiser(3, [16, 16], 1.2, rng),
               lambda x: x, 3),
    "radial": (lambda rng: dn.RadialDenoiser(13, 3, [16, 16], 1.2, rng),
               lambda x: zero_com(x, 13, 3), 39),
}


class TestTraining:
    @pytest.mark.parametrize("backend", list(TRAINED))
    def test_training_is_the_written_out_loop_bit_for_bit(self, backend):
        # one Adam step on the flat buffer is one per parameter array
        build, place, dim = TRAINED[backend]
        data = place(np.random.default_rng(40).standard_normal((64, dim)))
        cfg = dn.TrainConfig(iterations=5, batch_size=16, lr=1e-2)
        model, ref = build(np.random.default_rng(41)), build(
            np.random.default_rng(41))
        start = model.net.flat.copy()
        losses = dn.train_dsm(np.random.default_rng(42), data, model, cfg)
        want = dsm_reference(np.random.default_rng(42), data, ref, cfg)
        assert np.array_equal(losses, want)
        assert np.array_equal(model.net.flat, ref.net.flat)
        assert not np.any(model.net.flat == start)
        for p in model.net.params:
            assert np.shares_memory(p, model.net.flat)

    def test_gaussian_data_recovers_analytic_denoiser(self):
        rng = np.random.default_rng(10)
        target = tg.single_gaussian(2, 1.0)
        data = target.sample(rng, 20000)
        model = dn.VectorDenoiser(2, [64, 64],
                                  dn.estimate_sigma_data(data), rng=rng)
        cfg = dn.TrainConfig(iterations=3000, batch_size=256, lr=1e-3,
                             eps=1e-3, t_max=100.0)
        dn.train_dsm(rng, data, model, cfg)
        analytic = dn.AnalyticGmmScore(target)
        worst = 0.0
        for t in [0.05, 0.3, 1.0, 5.0, 30.0]:
            x = target.sample(rng, 1000) + t * rng.standard_normal((1000, 2))
            mse = np.mean(np.sum((model.denoise(x, t)
                                  - analytic.denoise(x, t)) ** 2, axis=1))
            worst = max(worst, mse)
        assert worst < 1e-2

    def test_init_loss_closed_form_for_gaussian_data(self):
        # zero weights give D = c_skip x_t; with sigma_data matching the
        # target's scale the weighted loss is exactly d at every t
        rng = np.random.default_rng(11)
        target = tg.single_gaussian(3, 1.0)
        data = target.sample(rng, 50000)
        model = dn.VectorDenoiser(3, [16], sigma_data=1.0)
        cfg = dn.TrainConfig(iterations=60, batch_size=2048, lr=0.0,
                             eps=1e-3, t_max=100.0)
        losses = dn.train_dsm(rng, data, model, cfg)
        assert np.mean(losses) == pytest.approx(3.0, rel=0.05)

    def test_loss_decreases_on_bimodal_data(self):
        rng = np.random.default_rng(12)
        target = tg.two_mode_gmm(2)
        data = target.sample(rng, 20000)
        model = dn.VectorDenoiser(2, [32, 32],
                                  dn.estimate_sigma_data(data), rng=rng)
        cfg = dn.TrainConfig(iterations=1500, batch_size=256, lr=2e-3,
                             eps=1e-3, t_max=100.0)
        losses = dn.train_dsm(rng, data, model, cfg)
        assert np.mean(losses[-200:]) < np.mean(losses[:200])

    def test_off_subspace_data_is_rejected(self):
        # the radial model's noise lives on the zero-CoM subspace; data
        # shifted off it trained without a word
        rng = np.random.default_rng(14)
        data = rng.standard_normal((256, 8)) + 3.0
        model = dn.RadialDenoiser(4, 2, [8], 1.0, rng)
        with pytest.raises(ValueError, match="training data is off the "
                                             "zero-CoM subspace"):
            dn.train_dsm(rng, data, model,
                         dn.TrainConfig(iterations=2, batch_size=16))

    def test_divergence_abort(self):
        rng = np.random.default_rng(13)
        data = rng.standard_normal((1000, 2))
        model = dn.VectorDenoiser(2, [8], 1.0, rng=rng)
        cfg = dn.TrainConfig(iterations=2000, batch_size=64, lr=1e4)
        with pytest.raises((RuntimeError, FloatingPointError)):
            dn.train_dsm(rng, data, model, cfg)

    @pytest.mark.parametrize("field,value,match", [
        ("iterations", 0, "iteration"), ("batch_size", 0, "batch"),
        ("lr", -1.0, "lr"), ("lr", np.nan, "lr"), ("lr", np.inf, "lr"),
        ("eps", 0.0, "eps"), ("eps", -1e-3, "eps"), ("eps", np.nan, "eps"),
        ("eps", 1e2, "eps"), ("eps", 1e3, "eps"), ("t_max", np.inf, "t_max"),
    ])
    def test_config_values_out_of_range_are_rejected_by_name(
            self, field, value, match):
        # eps = 0 divided by zero, eps < 0 took a log of it, and eps above
        # t_max or a negative lr trained on without a word
        with pytest.raises(ValueError, match=match):
            dn.TrainConfig(**{field: value})

    def test_empty_data_rejected(self):
        model = dn.VectorDenoiser(2, [8], 1.0)
        with pytest.raises(ValueError):
            dn.train_dsm(np.random.default_rng(0), np.empty((0, 2)), model,
                         dn.TrainConfig(iterations=1))


class TestCounters:
    def test_eval_counting(self):
        model = dn.AnalyticGmmScore(tg.two_mode_gmm(2))
        x = np.zeros((7, 2))
        model.denoise(x, 1.0)
        score(model, x, 1.0)
        assert model.eval_count == 14 and model.jvp_count == 7
        model.score_and_jvp(x, 1.0, np.ones((7, 2)))
        assert model.eval_count == 21 and model.jvp_count == 14
        model.reset_counters()
        assert model.eval_count == 0 and model.jvp_count == 0

    def test_exact_divergence_counts_jvp_rows(self):
        # Heun makes 2N divergence calls; the exact divergence of each
        # point is priced at dim directional derivatives
        gmm = tg.two_mode_gmm(3)
        model = dn.AnalyticGmmScore(gmm)
        grid = karras_grid(5, 1e-3, 10.0, 7.0)
        count = 4
        out = pf.ode_is_weights(np.random.default_rng(0), model, gmm, grid,
                                pf.OdeRunConfig(divergence="exact"), count)
        assert out["metadata"]["jvp_evals"] == \
            count * gmm.dim * 2 * grid.n_steps
        with pytest.raises(ValueError):
            model.score_and_div(np.zeros((2, gmm.dim + 1)), 1.0)


# the batch queries of the backends, with their arguments after the
# points, and of the targets, which take the points alone
BACKEND_QUERIES = {"denoise": (1.0,),
                   "denoise_jvp": (1.0, "v"), "score_and_jvp": (1.0, "v"),
                   "score_and_div": (1.0,), "forward_with_cache": (1.0,)}
OWNERS = {
    "analytic": lambda: dn.AnalyticGmmScore(tg.two_mode_gmm(4)),
    "vector": lambda: dn.VectorDenoiser(4, [5], 1.0,
                                        np.random.default_rng(18)),
    "radial": lambda: dn.RadialDenoiser(2, 2, [5], 1.0,
                                        np.random.default_rng(19)),
    "gmm": lambda: tg.two_mode_gmm(4),
    "dw4": tg.DoubleWell,
    "lj13": tg.LennardJones,
}
ONE_POINT_CASES = [(owner, query) for owner, queries in [
    ("analytic", ("denoise", "score_and_jvp", "score_and_div")),
    ("vector", BACKEND_QUERIES), ("radial", BACKEND_QUERIES),
    ("gmm", ("log_density",)),
    ("dw4", ("log_density", "log_density_and_grad", "energy")),
    ("lj13", ("log_density", "log_density_and_grad", "energy")),
] for query in queries]


def ask(obj, query, x):
    """``obj.query`` at the points x; a tangent is x itself."""
    args = BACKEND_QUERIES[query] if isinstance(obj, dn._Counted) else ()
    return getattr(obj, query)(x, *[x if a == "v" else a for a in args])


LEARNED = {
    "vector": lambda s: dn.VectorDenoiser(4, [5], s),
    "radial": lambda s: dn.RadialDenoiser(2, 2, [5], s),
}


@pytest.mark.parametrize("sigma_data", [0.0, -1.0, np.nan, np.inf])
@pytest.mark.parametrize("backend", list(LEARNED))
def test_sigma_data_must_be_positive_and_finite(backend, sigma_data):
    with pytest.raises(ValueError, match="sigma_data"):
        LEARNED[backend](sigma_data)


@pytest.mark.parametrize("t", [0.0, -0.5, np.nan, np.inf])
@pytest.mark.parametrize("backend", list(LEARNED))
def test_learned_noise_level_must_be_positive_and_finite(backend, t):
    # t = inf gave NaN predictions, and t = nan failed inside the network
    model = LEARNED[backend](1.0)
    with pytest.raises(ValueError, match="noise level t"):
        model.denoise(np.zeros((2, model.dim)), t)


def test_constant_data_gives_no_sigma_data():
    # its spread is 0, and a model built on it denoised everything to 0
    sigma = dn.estimate_sigma_data(np.ones((16, 4)))
    assert sigma == 0.0
    with pytest.raises(ValueError, match="sigma_data"):
        LEARNED["vector"](sigma)


@pytest.mark.parametrize("data", [np.zeros((0, 4)), []],
                         ids=["no-rows", "empty-list"])
def test_empty_data_gives_no_sigma_data(data):
    # np.std of nothing warned three times and returned NaN
    with pytest.raises(ValueError, match="empty training set"):
        dn.estimate_sigma_data(data)


@pytest.mark.parametrize("query", ["denoise_jvp", "score_and_jvp"])
@pytest.mark.parametrize("owner", ["vector", "radial"])
def test_tangent_of_another_shape_is_rejected(owner, query):
    # a (1, d) tangent once broadcast to every row of the radial
    # backend's batch, and the vector backend failed in np.concatenate
    obj = OWNERS[owner]()
    x = np.random.default_rng(20).standard_normal((4, obj.dim))
    with pytest.raises(ValueError, match="tangent shape"):
        getattr(obj, query)(x, 1.0, x[:1])
    getattr(obj, query)(x, 1.0, x)


@pytest.mark.parametrize("owner,query", ONE_POINT_CASES)
def test_one_point_is_rejected(owner, query):
    obj = OWNERS[owner]()
    point = np.linspace(-1.0, 1.0, obj.dim)
    with pytest.raises(ValueError, match="batch"):
        ask(obj, query, point)
    ask(obj, query, point[None])      # the same point as a one-row batch


# every backend on 4 particles in the plane, so each has a subspace trace
OWN_PROJ = eq.ComProjection(4, 2)
OWNED = {
    "analytic": lambda: dn.AnalyticGmmScore(tg.two_mode_gmm(8)),
    "vector": lambda: dn.VectorDenoiser(8, [6], 1.3,
                                        np.random.default_rng(25)),
    "radial": lambda: dn.RadialDenoiser(4, 2, [6], 1.3,
                                        np.random.default_rng(26)),
}
OWNED_QUERIES = {
    "denoise": lambda m, x, v: [m.denoise(x, 0.7)],
    "score_and_jvp": lambda m, x, v: list(m.score_and_jvp(x, 0.7, v)),
    "score_and_div": lambda m, x, v: list(m.score_and_div(x, 0.7)),
    "score_and_div_subspace": lambda m, x, v: list(
        m.score_and_div(x, 0.7, OWN_PROJ)),
}


@pytest.mark.parametrize("rows", ["one block", "several blocks"])
@pytest.mark.parametrize("query", list(OWNED_QUERIES))
@pytest.mark.parametrize("backend", list(OWNED))
def test_queries_own_their_outputs(backend, query, rows):
    # a caller finishes its update in the arrays a query returns: they
    # must be its own, and the query must never write its inputs
    model = OWNED[backend]()
    count = 5 if rows == "one block" else 2 * dn.ROW_BLOCK // getattr(
        model, "net_rows", 1) + 3
    rng = np.random.default_rng(27)
    x, v = (eq.com_project(rng.standard_normal((count, 8)), OWN_PROJ)
            for _ in range(2))
    x.flags.writeable = v.flags.writeable = False
    ask = OWNED_QUERIES[query]
    first = ask(model, x, v)
    kept = [out.copy() for out in first]
    for i, out in enumerate(first):
        assert not np.shares_memory(out, x) and not np.shares_memory(out, v)
        assert not any(np.shares_memory(out, other)
                       for other in first[i + 1:])
        out[...] = np.nan
    # a repeated query gives the same results in new arrays
    for again, want in zip(ask(model, x, v), kept):
        assert np.array_equal(again, want)
        assert not any(np.shares_memory(again, out) for out in first)
