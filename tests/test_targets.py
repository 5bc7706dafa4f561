import math
import re

import numpy as np
import pytest

from vtdis import denoisers as dn
from vtdis import equivariant as eq
from vtdis import gaussians as ga
from vtdis import targets as tg
from vtdis.seeding import derive_rng


def scalar_gmm_logpdf(x, weights, means, variances):
    """Independent oracle: direct scalar summation, no logsumexp path."""
    total = 0.0
    for w, m, v in zip(weights, means, variances):
        total += w * math.exp(-0.5 * (x - m) ** 2 / v) / math.sqrt(2 * math.pi * v)
    return math.log(total)


class TestGmmDensity:
    def test_two_mode_benchmark_value(self):
        gmm = tg.two_mode_gmm(1)
        got = gmm.log_density(np.array([[1.0]]))[0]
        want = scalar_gmm_logpdf(1.0, [2 / 3, 1 / 3], [1.0, -2.0], [0.15, 0.15])
        assert got == pytest.approx(want, abs=1e-12)
        # the far component is negligible: value is log(2/3) + peak height
        near = math.log(2 / 3) - 0.5 * math.log(2 * math.pi * 0.15)
        assert got == pytest.approx(near, abs=1e-12)

    def test_single_component_is_gaussian(self):
        gmm = tg.single_gaussian(3, variance=0.7, mean=0.2)
        x = np.array([[0.1, -0.4, 0.9]])
        want = (-1.5 * math.log(2 * math.pi * 0.7)
                - 0.5 * np.sum((x - 0.2) ** 2) / 0.7)
        assert gmm.log_density(x)[0] == pytest.approx(want, abs=1e-12)

    def test_symmetric_mixture_is_even(self):
        gmm = tg.Gmm(weights=np.array([0.5, 0.5]),
                     means=np.array([[1.5, -0.5], [-1.5, 0.5]]),
                     variances=np.array([0.3, 0.3]))
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.standard_normal((1, 2))
            assert gmm.log_density(x)[0] == pytest.approx(
                gmm.log_density(-x)[0], rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            tg.two_mode_gmm(2).log_density(np.zeros((1, 3)))

    @pytest.mark.parametrize("name, value", [
        ("variances", np.nan), ("variances", np.inf),
        ("means", np.nan), ("means", -np.inf)])
    def test_non_finite_parameters_are_rejected(self, name, value):
        # a NaN variance passed ``v <= 0`` and failed only in logsumexp;
        # an infinite one, or a non-finite mean, was taken as it was
        params = {"weights": np.array([0.5, 0.5]),
                  "means": np.array([[0.0, 1.0], [2.0, 3.0]]),
                  "variances": np.array([0.5, 1.5])}
        params[name].flat[-1] = value
        with pytest.raises(ValueError, match=name):
            tg.Gmm(**params)

    def test_parameters_are_read_only_copies(self):
        # the log-weights are cached, so a mixture that kept the caller's
        # arrays would go stale when they changed
        weights = np.array([0.25, 0.75])
        means = np.array([[0.0], [2.0]])
        variances = np.array([0.5, 1.5])
        gmm = tg.Gmm(weights=weights, means=means, variances=variances)
        x = np.array([[0.3], [1.7]])
        want = gmm.log_density(x)
        weights[:] = [0.75, 0.25]
        means[1] = -2.0
        variances[0] = 4.0
        got = gmm.log_density(x)
        assert np.array_equal(got, want)
        oracle = [scalar_gmm_logpdf(xi, [0.25, 0.75], [0.0, 2.0], [0.5, 1.5])
                  for xi in x[:, 0]]
        assert np.allclose(got, oracle, rtol=1e-12, atol=0.0)
        for values in (gmm.weights, gmm.means, gmm.variances):
            with pytest.raises(ValueError):
                values[0] = 1.0


class TestGmmSampling:
    def test_degenerate_weight_selects_component(self):
        gmm = tg.Gmm(weights=np.array([1.0, 0.0]),
                     means=np.array([[5.0], [-5.0]]),
                     variances=np.array([0.01, 0.01]))
        xs = gmm.sample(np.random.default_rng(0), 500)
        assert np.all(xs > 0)

    def test_component_proportions(self):
        gmm = tg.two_mode_gmm(1)
        xs = gmm.sample(np.random.default_rng(1), 10 ** 5)
        frac_right = np.mean(xs[:, 0] > -0.5)
        assert abs(frac_right - 2 / 3) < 0.01

    def test_mean_matches_mixture_mean(self):
        gmm = tg.two_mode_gmm(3)   # mixture mean is exactly zero
        xs = gmm.sample(np.random.default_rng(2), 10 ** 5)
        assert np.all(np.abs(xs.mean(axis=0)) < 0.02)


def score(gmm, x, t):
    """Score of the mixture convolved with N(0, t^2 I), from the analytic
    backend's fused query along a zero tangent."""
    return dn.AnalyticGmmScore(gmm).score_and_jvp(x, t, np.zeros_like(x))[0]


class TestNoisedScore:
    def test_single_gaussian_linear_score(self):
        gmm = tg.single_gaussian(2, variance=0.5, mean=0.3)
        x = np.array([[1.0, -2.0]])
        t = 0.7
        want = -(x - 0.3) / (0.5 + t * t)
        assert np.allclose(score(gmm, x, t), want, atol=1e-12)

    def test_matches_density_gradient_at_t0(self):
        gmm = tg.two_mode_gmm(2)
        rng = np.random.default_rng(3)
        h = 1e-5
        for _ in range(10):
            x = rng.standard_normal((1, 2)) * 1.5
            s = score(gmm, x, 0.0)
            for i in range(2):
                up, dn_ = x.copy(), x.copy()
                up[0, i] += h
                dn_[0, i] -= h
                fd = (gmm.log_density(up)[0] - gmm.log_density(dn_)[0]) \
                    / (2 * h)
                assert s[0, i] == pytest.approx(fd, rel=1e-6, abs=1e-8)

    def test_prior_dominance_at_large_t(self):
        gmm = tg.two_mode_gmm(2)
        x = np.array([[0.8, -1.1]])
        t = 1e3
        s = score(gmm, x, t)
        assert np.allclose(s, -x / t ** 2, atol=5.0 / t ** 4)


def score_divergence(gmm, x, t):
    """Closed-form divergence of the convolved mixture score (B,)."""
    return dn.AnalyticGmmScore(gmm).score_and_div(x, t)[1]


def score_hvp(gmm, x, t, vec):
    """Hessian of log p_t times ``vec`` (B, d)."""
    return dn.AnalyticGmmScore(gmm).score_and_jvp(x, t, vec)[1]


class TestScoreDivergence:
    def test_single_gaussian_constant(self):
        gmm = tg.single_gaussian(4, variance=0.6)
        x = np.random.default_rng(4).standard_normal((1, 4))
        t = 1.3
        want = -4 / (0.6 + t * t)
        assert score_divergence(gmm, x, t)[0] == pytest.approx(
            want, rel=1e-12)

    def test_matches_finite_difference_trace(self):
        gmm = tg.two_mode_gmm(3)
        rng = np.random.default_rng(5)
        h = 1e-5
        for _ in range(5):
            x = rng.standard_normal((1, 3))
            t = rng.uniform(0.05, 2.0)
            tr = 0.0
            for i in range(3):
                up, dn_ = x.copy(), x.copy()
                up[0, i] += h
                dn_[0, i] -= h
                tr += (score(gmm, up, t)[0, i]
                       - score(gmm, dn_, t)[0, i]) / (2 * h)
            got = score_divergence(gmm, x, t)[0]
            assert got == pytest.approx(tr, rel=1e-4)

    def test_matches_rademacher_probe_average(self):
        # probe oracle built from finite-difference directional derivatives,
        # independent of the closed-form hessian
        gmm = tg.two_mode_gmm(3)
        rng = np.random.default_rng(6)
        x = np.array([[0.4, -0.2, 0.9]])
        t = 0.4
        n_probes = 10 ** 5
        v = rng.integers(0, 2, size=(n_probes, 3)) * 2.0 - 1.0
        h = 1e-5
        jv = (score(gmm, x + h * v, t) - score(gmm, x - h * v, t)) / (2 * h)
        probe_mean = np.mean(np.sum(v * jv, axis=1))
        got = score_divergence(gmm, x, t)[0]
        assert got == pytest.approx(probe_mean, rel=0.01)

    def test_hvp_matches_finite_difference(self):
        gmm = tg.two_mode_gmm(2)
        rng = np.random.default_rng(7)
        x = rng.standard_normal((1, 2))
        v = rng.standard_normal((1, 2))
        t = 0.6
        h = 1e-6
        fd = (score(gmm, x + h * v, t) - score(gmm, x - h * v, t)) / (2 * h)
        assert np.allclose(score_hvp(gmm, x, t, v), fd, atol=1e-6)


def logsumexp_gmm_reference(x, t, gmm, vec):
    """Score, divergence and HVP of the convolved mixture written out per
    component, with responsibilities exp(lp - logsumexp(lp))."""
    d = gmm.dim
    v = gmm.variances + t * t
    diff = x[:, None, :] - gmm.means[None, :, :]              # (B, K, d)
    with np.errstate(divide="ignore"):
        logw = np.log(gmm.weights)
    lp = (logw - 0.5 * d * (np.log(2 * np.pi) + np.log(v))
          - 0.5 * np.sum(diff * diff, axis=2) / v)
    resp = np.exp(lp - ga.logsumexp(lp, axis=1)[:, None])
    comp = -diff / v[None, :, None]                           # s_k
    sbar = np.einsum("bk,bkd->bd", resp, comp)
    div = (np.einsum("bk,bk->b", resp, np.sum(comp * comp, axis=2) - d / v)
           - np.sum(sbar * sbar, axis=1))
    sv = np.einsum("bkd,bd->bk", comp, vec)
    hvp = (np.einsum("bk,bkd->bd", resp * sv, comp)
           - (resp @ (1.0 / v))[:, None] * vec
           - sbar * np.sum(sbar * vec, axis=1)[:, None])
    return sbar, div, hvp


def assert_matches_reference(gmm, x, t, vec):
    """Score, divergence and HVP each within 1e-12 of the reference's
    largest entry."""
    want = logsumexp_gmm_reference(x, t, gmm, vec)
    got = [score(gmm, x, t), score_divergence(gmm, x, t),
           score_hvp(gmm, x, t, vec)]
    for g, w in zip(got, want):
        assert np.max(np.abs(g - w)) <= 1e-12 * np.max(np.abs(w))


ZERO_WEIGHT_GMM = tg.Gmm(weights=np.array([0.7, 0.0, 0.3]),
                         means=np.array([[1.0, 0.5, -1.0], [40.0, 0.0, 0.0],
                                         [-2.0, 0.0, 1.0]]),
                         variances=np.array([0.2, 0.5, 0.4]))


class TestGmmResponsibilityPass:
    @pytest.mark.parametrize("gmm", [tg.two_mode_gmm(3), ZERO_WEIGHT_GMM],
                             ids=["two_mode", "zero_weight"])
    @pytest.mark.parametrize("t", [0.0, 0.05, 0.7, 3.0])
    def test_matches_logsumexp_reference(self, gmm, t):
        rng = np.random.default_rng(13)
        x = 1.5 * rng.standard_normal((40, 3))
        vec = rng.standard_normal((40, 3))
        assert_matches_reference(gmm, x, t, vec)

    @pytest.mark.parametrize("t", [1e-3, 0.0])
    def test_matches_reference_at_the_modes(self, t):
        # rows drawn from the mixture lie |x - mu_k|^2 ~ d sigma^2 = 1.5
        # from their mode, against |x|^2 + |mu_k|^2 up to ~80: there the
        # expansion |x|^2 - 2 mu_k . x + |mu_k|^2 cancels most
        gmm = tg.two_mode_gmm(10)
        rng = np.random.default_rng(16)
        x = gmm.sample(rng, 2000)
        assert_matches_reference(gmm, x, t, rng.standard_normal(x.shape))

    @pytest.mark.parametrize("gmm", [tg.two_mode_gmm(3), ZERO_WEIGHT_GMM],
                             ids=["two_mode", "zero_weight"])
    def test_finite_far_from_every_mode(self, gmm):
        # |x| = 1e3: every component log density is below -1e5, so only
        # the max shift keeps the responsibilities finite; no warnings
        rng = np.random.default_rng(14)
        u = rng.standard_normal((8, 3))
        x = 1e3 * u / np.linalg.norm(u, axis=1, keepdims=True)
        vec = rng.standard_normal((8, 3))
        t = 0.05
        want, _, hvp = logsumexp_gmm_reference(x, t, gmm, vec)
        got_score = score(gmm, x, t)
        got_div = score_divergence(gmm, x, t)
        got_hvp = score_hvp(gmm, x, t, vec)
        for g in (got_score, got_div, got_hvp):
            assert np.all(np.isfinite(g))
        assert np.max(np.abs(got_score - want)) <= 1e-12 * np.max(
            np.abs(want))
        # the divergence and HVP cancel terms of size |s|^2 ~ 1e8 down to
        # about d / v; compare at that cancellation's rounding level
        big = np.max(np.sum(want * want, axis=1))
        assert np.max(np.abs(got_hvp - hvp)) <= 1e-13 * big * np.max(
            np.abs(vec))


def pair_loop_energy_and_grad(target, x, skip=lambda i, j: False):
    """Energy and grad log density of one configuration, pair by pair.

    ``pair(d)`` returns the pair energy and its derivative in d; LJ adds
    its harmonic centering term.  Pairs where ``skip(i, j)`` holds are
    left out.
    """
    m, n = target.n_particles, target.spatial_dim
    conf = x.reshape(m, n)
    if isinstance(target, tg.LennardJones):
        def pair(d):
            r = target.r_m / d
            return (target.eps_lj * (r ** 12 - 2.0 * r ** 6),
                    target.eps_lj * 12.0 * (r ** 6 - r ** 12) / d)
    else:
        def pair(d):
            u = d - target.d0
            return (target.a * u + target.b * u ** 2 + target.c * u ** 4,
                    target.a + 2.0 * target.b * u + 4.0 * target.c * u ** 3)
    energy = 0.0
    grad_e = np.zeros((m, n))          # dE/dx
    for i in range(m):
        for j in range(i + 1, m):
            if skip(i, j):
                continue
            diff = conf[i] - conf[j]
            d = math.sqrt(float(np.dot(diff, diff)))
            e, de = pair(d)
            energy += e
            grad_e[i] += de * diff / d
            grad_e[j] -= de * diff / d
    if isinstance(target, tg.LennardJones):
        centered = conf - conf.mean(axis=0)
        energy += 0.5 * target.c_osc * float(np.sum(centered ** 2))
        grad_e += target.c_osc * centered
    return energy, -grad_e.reshape(-1) / target.temperature


def lattice_configs(target, count, rng):
    """Jittered simple-cubic configurations with no close pairs."""
    m, n = target.n_particles, target.spatial_dim
    side = int(np.ceil(m ** (1.0 / n)))
    sites = np.stack(np.meshgrid(*[np.arange(side)] * n, indexing="ij"),
                     axis=-1).reshape(-1, n)[:m].astype(float)
    spacing = 1.1 * getattr(target, "r_m", 1.0)
    x = spacing * sites[None] + 0.15 * rng.standard_normal((count, m, n))
    return eq.com_project(x.reshape(count, m * n), eq.ComProjection(m, n))


class TestParticleEnergies:
    def test_double_well_zero_at_rest_length(self):
        # four particles pairwise at d0 needs three dimensions: a regular
        # tetrahedron with edge d0 makes every pair term vanish
        d0 = 4.0
        dw = tg.DoubleWell(n_particles=4, spatial_dim=3, d0=d0)
        verts = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]],
                         dtype=float)
        verts *= d0 / np.linalg.norm(verts[0] - verts[1])
        assert dw.energy(verts.reshape(1, -1))[0] == pytest.approx(0.0,
                                                                   abs=1e-12)

    def test_pair_term_vanishes_at_d0(self):
        dw = tg.DoubleWell(n_particles=2, spatial_dim=2)
        x = np.array([[0.0, 0.0, dw.d0, 0.0]])
        assert dw.energy(x)[0] == pytest.approx(0.0, abs=1e-12)

    def test_lj_pair_minimum(self):
        lj = tg.LennardJones(n_particles=2, spatial_dim=3, c_osc=0.0)
        x = np.zeros((1, 6))
        x[0, 3] = lj.r_m
        assert lj.energy(x)[0] == pytest.approx(-lj.eps_lj, abs=1e-12)

    def test_translation_invariance_exact(self):
        rng = np.random.default_rng(8)
        for target in (tg.DoubleWell(), tg.LennardJones()):
            x = rng.standard_normal((1, target.dim)) * 2
            shift = np.tile(rng.standard_normal(target.spatial_dim),
                            target.n_particles)
            assert np.array_equal(target.energy(x + shift),
                                  target.energy(x))

    def test_rotation_and_permutation_invariance(self):
        from scipy.stats import ortho_group
        rng = np.random.default_rng(9)
        for target in (tg.DoubleWell(), tg.LennardJones()):
            m, n = target.n_particles, target.spatial_dim
            x = rng.standard_normal((m, n)) * 2
            r = ortho_group.rvs(n, random_state=10)
            perm = rng.permutation(m)
            e0 = target.energy(x.reshape(1, -1))[0]
            assert target.energy((x @ r.T).reshape(1, -1))[0] == \
                pytest.approx(e0, abs=1e-10)
            assert target.energy(x[perm].reshape(1, -1))[0] == \
                pytest.approx(e0, abs=1e-10)

    def test_lj_coincident_particles_diverge(self):
        lj = tg.LennardJones(n_particles=2, spatial_dim=3)
        assert lj.energy(np.zeros((1, 6)))[0] == np.inf
        # LJ-13: only the batch row holding the coincident pair diverges
        lj13 = tg.LennardJones()
        x = lattice_configs(lj13, 3, np.random.default_rng(12))
        x.reshape(3, 13, 3)[1, 7] = x.reshape(3, 13, 3)[1, 4]
        e = lj13.energy(x)
        assert e[1] == np.inf
        assert np.all(np.isfinite(e[[0, 2]]))

    @pytest.mark.parametrize("target", [
        tg.LennardJones(n_particles=2, spatial_dim=3),
        tg.DoubleWell(n_particles=2, spatial_dim=2)], ids=["lj2", "dw2"])
    def test_coincident_pair_gradient_is_finite(self, target):
        # runs under filterwarnings = error: no RuntimeWarning either
        g = target.log_density_and_grad(np.zeros((1, target.dim)))[1]
        assert np.all(np.isfinite(g))
        assert np.array_equal(g, np.zeros((1, target.dim)))

    def test_lj13_coincident_row_leaves_other_rows(self):
        lj13 = tg.LennardJones()
        x = lattice_configs(lj13, 3, np.random.default_rng(12))
        clean = lj13.log_density_and_grad(x)[1]
        x.reshape(3, 13, 3)[1, 7] = x.reshape(3, 13, 3)[1, 4]
        g = lj13.log_density_and_grad(x)[1]
        assert np.all(np.isfinite(g))
        assert np.array_equal(g[[0, 2]], clean[[0, 2]])
        assert not np.array_equal(g[1], clean[1])
        # the coincident pair drops out; every other pair still pulls
        e, want = pair_loop_energy_and_grad(
            lj13, x[1], skip=lambda i, j: (i, j) == (4, 7))
        assert np.max(np.abs(g[1] - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("target", [tg.DoubleWell(), tg.LennardJones()],
                             ids=["dw4", "lj13"])
    def test_log_density_and_grad_bit_for_bit(self, target):
        x = lattice_configs(target, 5, np.random.default_rng(16))
        lp, g = target.log_density_and_grad(x)
        assert np.array_equal(lp, target.log_density(x))
        # a one-row batch gives that row of the full batch
        lp_row, g_row = target.log_density_and_grad(x[2:3])
        assert lp_row.shape == (1,) and g_row.shape == (1, target.dim)
        assert np.array_equal(lp_row, lp[2:3])
        assert np.array_equal(g_row, g[2:3])

    @pytest.mark.parametrize("target", [tg.DoubleWell(), tg.LennardJones()],
                             ids=["dw4", "lj13"])
    def test_energy_and_gradient_match_pair_loop(self, target):
        # tolerance fixed from float64 rounding: the batched code adds the
        # same pair terms in another order
        rel = 1e-12
        x = lattice_configs(target, 4, np.random.default_rng(11))
        energies = target.energy(x)
        grads = target.log_density_and_grad(x)[1]
        for row in range(x.shape[0]):
            e, g = pair_loop_energy_and_grad(target, x[row])
            assert energies[row] == pytest.approx(e, rel=rel)
            assert np.max(np.abs(grads[row] - g)) <= rel * np.max(np.abs(g))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(10)
        h = 1e-6
        for target in (tg.DoubleWell(), tg.LennardJones()):
            x = rng.standard_normal((1, target.dim)) * 2
            g = target.log_density_and_grad(x)[1]
            for i in rng.choice(target.dim, size=4, replace=False):
                up, dn_ = x.copy(), x.copy()
                up[0, i] += h
                dn_[0, i] -= h
                fd = (target.log_density(up)[0]
                      - target.log_density(dn_)[0]) / (2 * h)
                assert g[0, i] == pytest.approx(fd, rel=1e-5, abs=1e-6)


def mala_reference(rng, target, count, n_chains, burn_in, thin):
    """``mcmc_sample`` written out operation by operation, in its order:
    (rows, acceptance rate, per-chain acceptance after burn-in)."""
    proj = getattr(target, "proj", None)
    shape = (n_chains, target.dim)

    def project(z):
        return z if proj is None else eq.com_project(z, proj)

    def evaluate(z):
        # capped log density and the clipped, projected drift
        lp, g = target.log_density_and_grad(z)
        g = project(g)
        norms = np.linalg.norm(g, axis=1, keepdims=True)
        scale = np.minimum(1.0, tg.MALA_GRAD_CLIP / np.maximum(norms, 1e-300))
        return np.maximum(lp, -tg.MALA_ENERGY_CAP), g * scale

    x = tg.MALA_INIT_SCALE * project(rng.standard_normal(shape))
    lp, gx = evaluate(x)
    h = np.full(n_chains, tg.MALA_STEP_SIZE)
    iterations = burn_in + -(-count // n_chains) * thin
    rows, accepts, chain_accepts = [], 0, np.zeros(n_chains)
    for it in range(iterations):
        h2 = h * h
        noise = project(rng.standard_normal(shape))
        mean_fwd = x + 0.5 * h2[:, None] * gx
        y = mean_fwd + h[:, None] * noise
        lpy, gy = evaluate(y)
        mean_bwd = y + 0.5 * h2[:, None] * gy
        log_q_fwd = -np.sum((y - mean_fwd) ** 2, axis=1) / (2.0 * h2)
        log_q_bwd = -np.sum((x - mean_bwd) ** 2, axis=1) / (2.0 * h2)
        log_alpha = lpy - lp + log_q_bwd - log_q_fwd
        acc = np.log(rng.uniform(size=n_chains)) < log_alpha
        x = np.where(acc[:, None], y, x)
        lp = np.where(acc, lpy, lp)
        gx = np.where(acc[:, None], gy, gx)
        accepts += int(acc.sum())
        if it < burn_in:
            h = h * np.exp(0.05 * (acc - tg.MALA_TARGET_ACCEPT))
        else:
            chain_accepts += acc
            if (it - burn_in) % thin == thin - 1:
                rows.append(x)
    return (np.concatenate(rows)[:count], accepts / (n_chains * iterations),
            chain_accepts / (iterations - burn_in))


class SteepGauss:
    """N(0, 2e-3 I) in 3-D, without ``proj``: at the test's seed some
    chain's drift is clipped in each of the first 13 of 52 evaluations,
    and none after."""

    dim = 3

    def log_density_and_grad(self, x):
        return -0.5 / 2e-3 * np.sum(x * x, axis=1), -x / 2e-3


class TestMcmc:
    @pytest.mark.parametrize("target,n_chains,burn_in", [
        (tg.DoubleWell(), 16, 40), (tg.LennardJones(), 8, 60),
        (SteepGauss(), 8, 30)], ids=["dw4", "lj13", "gauss"])
    def test_chain_is_the_written_out_kernel_bit_for_bit(
            self, target, n_chains, burn_in):
        got, report = tg.mcmc_sample(np.random.default_rng(31), target, 50,
                                     n_chains=n_chains, burn_in=burn_in,
                                     thin=3)
        rows, rate, chain_rate = mala_reference(
            np.random.default_rng(31), target, 50, n_chains, burn_in, 3)
        assert np.array_equal(got, rows)
        assert report.acceptance_rate == rate
        assert np.array_equal(report.chain_acceptance, chain_rate)

    def test_gaussian_target_moments(self):
        class Gauss:
            dim = 3
            var = 2.5

            def log_density_and_grad(self, x):
                return -0.5 * np.sum(x ** 2, axis=1) / self.var, -x / self.var

        samples, report = tg.mcmc_sample(np.random.default_rng(0), Gauss(),
                                         20000, n_chains=32, burn_in=500,
                                         thin=5)
        assert np.all(np.abs(samples.var(axis=0) / 2.5 - 1.0) < 0.05)
        assert 0.1 <= report.acceptance_rate <= 0.9
        assert not report.warnings

    def test_three_state_detailed_balance_oracle(self):
        # brute-force check of the metropolis acceptance rule on a discrete
        # chain: build the full transition matrix and verify stationarity
        pi = np.array([0.5, 0.3, 0.2])
        proposal = np.full((3, 3), 1 / 3)
        P = np.zeros((3, 3))
        for i in range(3):
            for j in range(3):
                if i != j:
                    accept = min(1.0, pi[j] / pi[i])
                    P[i, j] = proposal[i, j] * accept
            P[i, i] = 1.0 - P[i].sum()
        assert np.allclose(pi @ P, pi, atol=1e-14)
        for i in range(3):
            for j in range(3):
                assert pi[i] * P[i, j] == pytest.approx(pi[j] * P[j, i],
                                                        abs=1e-14)

    def test_zero_com_preserved(self):
        dw = tg.DoubleWell()
        samples, _ = tg.mcmc_sample(np.random.default_rng(1), dw, 2000,
                                    n_chains=16, burn_in=200, thin=2)
        conf = samples.reshape(-1, 4, 2)
        assert np.max(np.abs(conf.mean(axis=1))) < 1e-12

    def test_one_joint_evaluation_per_proposal(self):
        class Joint:
            dim = 2
            calls = 0

            def log_density_and_grad(self, x):
                Joint.calls += 1
                return -0.5 * np.sum(x ** 2, axis=1), -x

            def log_density(self, x):
                raise AssertionError("separate density call")

        # all 120 proposals on this Gaussian are accepted at the initial
        # step size, a rate that the range check reports
        with pytest.warns(RuntimeWarning, match="acceptance rate 1.000"):
            tg.mcmc_sample(np.random.default_rng(3), Joint(), 40,
                           n_chains=4, burn_in=10, thin=2)
        assert Joint.calls == 1 + 10 + 10 * 2

    @pytest.mark.parametrize("seed", [1, 2])
    def test_no_frozen_chain_at_the_lj13_benchmark_settings(self, seed):
        # a step size shared by all chains left 16 (seed 1) and 18 (seed 2)
        # of these 64 chains repeating their start for the whole run
        n_chains = 64
        samples, report = tg.mcmc_sample(
            derive_rng(seed, "lj13", "setup"), tg.LennardJones(), 1032,
            n_chains=n_chains, burn_in=300, thin=5)
        assert report.chain_acceptance.shape == (n_chains,)
        assert np.all(report.chain_acceptance > 0)
        assert not report.warnings
        # rows are kept one sweep over the chains at a time
        per_chain = samples[:n_chains * (len(samples) // n_chains)]
        per_chain = per_chain.reshape(-1, n_chains, samples.shape[1])
        moved = np.any(per_chain != per_chain[:1], axis=(0, 2))
        assert np.all(moved)

    def test_frozen_chain_is_warned(self, monkeypatch):
        class Needle:
            dim = 1

            def log_density_and_grad(self, x):
                return -1e10 * np.sum(x ** 2, axis=1), -2e10 * x

        # chains start at the tip of a needle, where a typical proposal
        # costs 1e4 nats: without burn-in no chain can move
        monkeypatch.setattr(tg, "MALA_STEP_SIZE", 1e-3)
        monkeypatch.setattr(tg, "MALA_INIT_SCALE", 0.0)
        with pytest.warns(RuntimeWarning) as caught:
            _, report = tg.mcmc_sample(np.random.default_rng(5), Needle(),
                                       20, n_chains=4, burn_in=0, thin=1)
        assert np.all(report.chain_acceptance == 0)
        assert report.warnings == [
            "acceptance rate 0.000 outside [0.1, 0.9]",
            "4 of 4 chains accepted nothing after burn-in"]
        # each problem is raised once, with the message the report keeps
        assert [str(w.message) for w in caught] == \
            [f"mcmc_sample: {msg}" for msg in report.warnings]

    @pytest.mark.parametrize("option,value,least", [
        ("count", 0, 1), ("n_chains", 0, 1), ("thin", 0, 1),
        ("burn_in", -1, 0), ("count", 2.5, 1), ("n_chains", 2.5, 1),
        ("thin", 2.5, 1), ("burn_in", 2.5, 0)],
        ids=["count", "n_chains", "thin", "burn_in", "count-2.5",
             "n_chains-2.5", "thin-2.5", "burn_in-2.5"])
    def test_count_options_out_of_range_are_rejected_by_name(
            self, option, value, least):
        # at 0, thin and count failed inside np.concatenate and n_chains
        # in a reshape; burn_in = -1 returned 4 of the 8 rows asked for;
        # 2.5 failed inside numpy with a TypeError that named nothing
        options = {"count": 8, "n_chains": 4, "burn_in": 2, "thin": 1}
        options[option] = value
        count = options.pop("count")
        with pytest.raises(ValueError, match=re.escape(
                f"{option} must be an integer >= {least}, got {value}")):
            tg.mcmc_sample(np.random.default_rng(0), tg.DoubleWell(), count,
                           **options)

    def test_acceptance_warning(self, monkeypatch):
        class Gauss:
            dim = 1

            def log_density_and_grad(self, x):
                return -0.5 * np.sum(x ** 2, axis=1), -x

        # frozen microscopic step: acceptance ~ 1 triggers the range check
        monkeypatch.setattr(tg, "MALA_STEP_SIZE", 1e-6)
        with pytest.warns(RuntimeWarning, match="acceptance rate") as caught:
            _, report = tg.mcmc_sample(np.random.default_rng(2), Gauss(),
                                       200, n_chains=8, burn_in=0, thin=1)
        assert report.warnings
        assert [str(w.message) for w in caught] == \
            [f"mcmc_sample: {msg}" for msg in report.warnings]
