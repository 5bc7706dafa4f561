import numpy as np
import pytest

from vtdis import denoisers as dn
from vtdis import pfode as pf
from vtdis import targets as tg
from vtdis.schedule import karras_grid


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
            want = x + t * t * model.score(x, t)
            assert np.allclose(model.denoise(x, t), want, atol=1e-12)

    def test_single_gaussian_posterior_mean(self):
        sigma2, mu = 0.5, 0.3
        gmm = tg.single_gaussian(2, sigma2, mu)
        model = dn.AnalyticGmmScore(gmm)
        x = np.array([1.0, -0.7])
        t = 0.9
        want = (sigma2 * x + t * t * mu) / (sigma2 + t * t)
        assert np.allclose(model.denoise(x, t), want, atol=1e-12)

    def test_t_zero_returns_input(self):
        model = dn.AnalyticGmmScore(tg.two_mode_gmm(2))
        x = np.array([0.4, -0.9])
        assert np.allclose(model.denoise(x, 0.0), x, atol=1e-12)

    def test_large_t_prediction_bounded(self):
        gmm = tg.two_mode_gmm(4)
        model = dn.AnalyticGmmScore(gmm)
        got = model.denoise(np.zeros(4), 1e3)
        bound = np.max(np.abs(gmm.means)) + 3 * np.sqrt(gmm.variances.max())
        assert np.all(np.abs(got) <= bound)

    def test_divergence_identity_with_denoiser_jacobian(self):
        # trace d denoise/dx = d + t^2 * div score
        gmm = tg.two_mode_gmm(3)
        model = dn.AnalyticGmmScore(gmm)
        rng = np.random.default_rng(1)
        x = rng.standard_normal(3)
        t = 0.6
        h = 1e-5
        tr = 0.0
        for i in range(3):
            up, dn_ = x.copy(), x.copy()
            up[i] += h
            dn_[i] -= h
            tr += (model.denoise(up, t)[i] - model.denoise(dn_, t)[i]) / (2 * h)
        want = 3 + t * t * model.score_div_exact(x, t)
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
                     tg.remove_com(rng.standard_normal((3, 8)), 4, 2),
                     np.array([0.5, 1.0, 4.0])),
        lambda rng: (dn.RadialDenoiser(13, 3, [5], 1.1, rng),
                     tg.remove_com(rng.standard_normal((2, 39)), 13, 3),
                     np.array([0.4, 2.5])),
    ])
    def test_param_grads_match_finite_differences(self, build):
        rng = np.random.default_rng(3)
        model, x, t = build(rng)
        out, cache = model.forward_with_cache(x, t)
        d_out = rng.standard_normal(out.shape)
        got = model.param_grad(cache, d_out)
        want = finite_diff_param_grads(model, x, t, d_out)
        for g, w in zip(got, want):
            assert np.allclose(g, w, rtol=1e-4, atol=1e-7)

    def test_jvp_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        model = dn.RadialDenoiser(4, 2, [16], 1.5, rng)
        x = tg.remove_com(rng.standard_normal((5, 8)), 4, 2)
        v = tg.remove_com(rng.standard_normal((5, 8)), 4, 2)
        h = 1e-6
        fd = (model.denoise(x + h * v, 1.3) - model.denoise(x - h * v, 1.3)) \
            / (2 * h)
        assert np.allclose(model.denoise_jvp(x, 1.3, v), fd, atol=1e-6)

    def test_tweedie_identity_by_construction(self):
        rng = np.random.default_rng(5)
        model = dn.VectorDenoiser(2, [8], 1.0, rng)
        x = rng.standard_normal((3, 2))
        t = 1.7
        assert np.allclose(model.denoise(x, t),
                           x + t * t * model.score(x, t), atol=1e-12)

    def test_nan_activation_reports_layer(self):
        model = dn.VectorDenoiser(2, [4], 1.0)
        model.net.params[0][0, 0] = np.nan
        with pytest.raises(FloatingPointError, match="layer 0"):
            model.denoise(np.ones((1, 2)), 1.0)

    def test_exact_divergence_from_directional_derivatives(self):
        rng = np.random.default_rng(6)
        model = dn.VectorDenoiser(3, [8], 1.0, rng)
        x = rng.standard_normal((2, 3))
        t = 0.8
        h = 1e-5
        for row in range(2):
            tr = 0.0
            for i in range(3):
                up, dn_ = x[row].copy(), x[row].copy()
                up[i] += h
                dn_[i] -= h
                tr += (model.score(up, t)[i] - model.score(dn_, t)[i]) / (2 * h)
            assert model.score_div_exact(x, t)[row] == pytest.approx(
                tr, rel=1e-4)


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
    m, n = model.n_particles, model.spatial_dim
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
                g = model.net(f)[0, 0]
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
    m, n = model.n_particles, model.spatial_dim
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
    """LJ-13 shapes (M = 13, n = 3) with a different t on every row."""

    def setup_method(self):
        rng = np.random.default_rng(16)
        self.model = dn.RadialDenoiser(13, 3, [16, 16], 1.4, rng)
        self.x = tg.remove_com(rng.standard_normal((4, 39)), 13, 3)
        self.v = tg.remove_com(rng.standard_normal((4, 39)), 13, 3)
        self.t = np.array([0.01, 0.3, 1.7, 40.0])
        self.d_out = rng.standard_normal((4, 39))

    def test_denoise_matches_loop(self):
        want, _, _ = radial_reference(self.model, self.x, self.t)
        assert_rel_close(self.model.denoise(self.x, self.t), want)

    def test_denoise_jvp_matches_loop(self):
        _, want, _ = radial_reference(self.model, self.x, self.t, self.v)
        assert_rel_close(self.model.denoise_jvp(self.x, self.t, self.v), want)

    def test_param_grad_pair_cotangent_matches_loop(self):
        model = self.model
        out, cache = model.forward_with_cache(self.x, self.t)
        got = model.param_grad(cache, self.d_out)
        _, _, feats = radial_reference(model, self.x, self.t)
        _, net_cache = model.net.forward(feats)
        dg = radial_pair_cotangent(model, self.x, self.t, self.d_out)
        want = model.net.backward(net_cache, dg)
        for g, w in zip(got, want):
            assert_rel_close(g, w)

    def test_coincident_particles_stay_finite(self):
        x = self.x.copy().reshape(4, 13, 3)
        x[:, 5] = x[:, 2]
        x = x.reshape(4, 39)
        out = self.model.denoise(x, self.t)
        jvp = self.model.denoise_jvp(x, self.t, self.v)
        assert np.all(np.isfinite(out)) and np.all(np.isfinite(jvp))
        # a zero difference vector carries no coupling: the loop still holds
        want, _, _ = radial_reference(self.model, x, self.t)
        assert_rel_close(out, want)


class TestRadialSymmetries:
    def test_permutation_equivariance(self):
        rng = np.random.default_rng(7)
        model = dn.RadialDenoiser(5, 2, [12], 1.0, rng)
        x = tg.remove_com(rng.standard_normal((3, 10)), 5, 2)
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
        x = tg.remove_com(rng.standard_normal((3, 12)), 4, 3)
        xr = (x.reshape(3, 4, 3) @ r.T).reshape(3, 12)
        got = model.denoise(xr, 0.8).reshape(3, 4, 3)
        want = model.denoise(x, 0.8).reshape(3, 4, 3) @ r.T
        assert np.allclose(got, want, atol=1e-12)

    def test_output_zero_com(self):
        rng = np.random.default_rng(9)
        model = dn.RadialDenoiser(6, 3, [12], 1.0, rng)
        x = tg.remove_com(rng.standard_normal((4, 18)), 6, 3)
        out = model.denoise(x, 2.0).reshape(4, 6, 3)
        assert np.max(np.abs(out.mean(axis=1))) < 1e-13


class TestTraining:
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

    def test_divergence_abort(self):
        rng = np.random.default_rng(13)
        data = rng.standard_normal((1000, 2))
        model = dn.VectorDenoiser(2, [8], 1.0, rng=rng)
        cfg = dn.TrainConfig(iterations=2000, batch_size=64, lr=1e4)
        with pytest.raises((RuntimeError, FloatingPointError)):
            dn.train_dsm(rng, data, model, cfg)

    def test_empty_data_rejected(self):
        model = dn.VectorDenoiser(2, [8], 1.0)
        with pytest.raises(ValueError):
            dn.train_dsm(np.random.default_rng(0), np.empty((0, 2)), model,
                         dn.TrainConfig(iterations=1))


class TestCheckpoints:
    @pytest.mark.parametrize("make", [
        lambda rng: dn.VectorDenoiser(3, [7, 5], 1.23456789, rng),
        lambda rng: dn.RadialDenoiser(4, 2, [9], 0.987654321, rng),
    ])
    def test_bit_exact_round_trip(self, tmp_path, make):
        rng = np.random.default_rng(14)
        model = make(rng)
        path = tmp_path / "model.bin"
        dn.save_checkpoint(path, model)
        back = dn.load_checkpoint(path)
        assert back.kind == model.kind
        assert back.sigma_data == model.sigma_data
        assert back.net.sizes == model.net.sizes
        for a, b in zip(model.net.params, back.net.params):
            assert np.array_equal(a, b)
        x = (tg.remove_com(rng.standard_normal((2, model.dim)),
                           model.n_particles, model.spatial_dim)
             if model.kind == "radial"
             else rng.standard_normal((2, model.dim)))
        assert np.array_equal(model.denoise(x, 1.0), back.denoise(x, 1.0))

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
        with pytest.raises(ValueError):
            dn.load_checkpoint(path)


class TestCounters:
    def test_eval_counting(self):
        model = dn.AnalyticGmmScore(tg.two_mode_gmm(2))
        x = np.zeros((7, 2))
        model.denoise(x, 1.0)
        model.score(x, 1.0)
        assert model.eval_count == 14
        model.score_jvp(x, 1.0, np.ones((7, 2)))
        assert model.jvp_count == 7
        model.reset_counters()
        assert model.eval_count == 0 and model.jvp_count == 0

    def test_exact_divergence_counts_jvp_rows(self):
        # Heun makes 1 + 2N divergence calls; the exact divergence of each
        # point is priced at dim directional derivatives
        gmm = tg.two_mode_gmm(3)
        model = dn.AnalyticGmmScore(gmm)
        grid = karras_grid(5, 1e-3, 10.0, 7.0)
        count = 4
        out = pf.ode_is_weights(np.random.default_rng(0), model, gmm, grid,
                                pf.OdeRunConfig(divergence="exact"), count)
        assert out["metadata"]["jvp_evals"] == \
            count * gmm.dim * (2 * grid.n_steps + 1)
        with pytest.raises(ValueError):
            model.score_div_exact(np.zeros((2, gmm.dim + 1)), 1.0)
