import math

import numpy as np
import pytest

from vtdis import gaussians as ga
from vtdis import targets as tg


def scalar_gmm_logpdf(x, weights, means, variances):
    """Independent oracle: direct scalar summation, no logsumexp path."""
    total = 0.0
    for w, m, v in zip(weights, means, variances):
        total += w * math.exp(-0.5 * (x - m) ** 2 / v) / math.sqrt(2 * math.pi * v)
    return math.log(total)


class TestGmmDensity:
    def test_two_mode_benchmark_value(self):
        gmm = tg.two_mode_gmm(1)
        got = tg.gmm_log_density(np.array([1.0]), gmm)
        want = scalar_gmm_logpdf(1.0, [2 / 3, 1 / 3], [1.0, -2.0], [0.15, 0.15])
        assert got == pytest.approx(want, abs=1e-12)
        # the far component is negligible: value is log(2/3) + peak height
        near = math.log(2 / 3) - 0.5 * math.log(2 * math.pi * 0.15)
        assert got == pytest.approx(near, abs=1e-12)

    def test_single_component_is_gaussian(self):
        from vtdis import gaussians as ga
        gmm = tg.single_gaussian(3, variance=0.7, mean=0.2)
        x = np.array([0.1, -0.4, 0.9])
        want = ga.log_density(x, 0.2 * np.ones(3),
                              ga.Covariance.isotropic(1.0, 0.7))
        assert tg.gmm_log_density(x, gmm) == pytest.approx(want, abs=1e-12)

    def test_symmetric_mixture_is_even(self):
        gmm = tg.Gmm(weights=np.array([0.5, 0.5]),
                     means=np.array([[1.5, -0.5], [-1.5, 0.5]]),
                     variances=np.array([0.3, 0.3]))
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.standard_normal(2)
            assert tg.gmm_log_density(x, gmm) == pytest.approx(
                tg.gmm_log_density(-x, gmm), rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            tg.gmm_log_density(np.zeros(3), tg.two_mode_gmm(2))


class TestGmmSampling:
    def test_degenerate_weight_selects_component(self):
        gmm = tg.Gmm(weights=np.array([1.0, 0.0]),
                     means=np.array([[5.0], [-5.0]]),
                     variances=np.array([0.01, 0.01]))
        xs = tg.gmm_sample(np.random.default_rng(0), gmm, 500)
        assert np.all(xs > 0)

    def test_component_proportions(self):
        gmm = tg.two_mode_gmm(1)
        xs = tg.gmm_sample(np.random.default_rng(1), gmm, 10 ** 5)
        frac_right = np.mean(xs[:, 0] > -0.5)
        assert abs(frac_right - 2 / 3) < 0.01

    def test_mean_matches_mixture_mean(self):
        gmm = tg.two_mode_gmm(3)   # mixture mean is exactly zero
        xs = tg.gmm_sample(np.random.default_rng(2), gmm, 10 ** 5)
        assert np.all(np.abs(xs.mean(axis=0)) < 0.02)


class TestNoisedScore:
    def test_single_gaussian_linear_score(self):
        gmm = tg.single_gaussian(2, variance=0.5, mean=0.3)
        x = np.array([1.0, -2.0])
        t = 0.7
        want = -(x - 0.3) / (0.5 + t * t)
        assert np.allclose(tg.gmm_noised_score(x, t, gmm), want, atol=1e-12)

    def test_matches_density_gradient_at_t0(self):
        gmm = tg.two_mode_gmm(2)
        rng = np.random.default_rng(3)
        h = 1e-5
        for _ in range(10):
            x = rng.standard_normal(2) * 1.5
            s = tg.gmm_noised_score(x, 0.0, gmm)
            for i in range(2):
                up, dn = x.copy(), x.copy()
                up[i] += h
                dn[i] -= h
                fd = (tg.gmm_log_density(up, gmm)
                      - tg.gmm_log_density(dn, gmm)) / (2 * h)
                assert s[i] == pytest.approx(fd, rel=1e-6, abs=1e-8)

    def test_prior_dominance_at_large_t(self):
        gmm = tg.two_mode_gmm(2)
        x = np.array([0.8, -1.1])
        t = 1e3
        s = tg.gmm_noised_score(x, t, gmm)
        assert np.allclose(s, -x / t ** 2, atol=5.0 / t ** 4)


class TestScoreDivergence:
    def test_single_gaussian_constant(self):
        gmm = tg.single_gaussian(4, variance=0.6)
        x = np.random.default_rng(4).standard_normal(4)
        t = 1.3
        want = -4 / (0.6 + t * t)
        assert tg.gmm_noised_score_divergence(x, t, gmm) == pytest.approx(
            want, rel=1e-12)

    def test_matches_finite_difference_trace(self):
        gmm = tg.two_mode_gmm(3)
        rng = np.random.default_rng(5)
        h = 1e-5
        for _ in range(5):
            x = rng.standard_normal(3)
            t = rng.uniform(0.05, 2.0)
            tr = 0.0
            for i in range(3):
                up, dn = x.copy(), x.copy()
                up[i] += h
                dn[i] -= h
                tr += (tg.gmm_noised_score(up, t, gmm)[i]
                       - tg.gmm_noised_score(dn, t, gmm)[i]) / (2 * h)
            got = tg.gmm_noised_score_divergence(x, t, gmm)
            assert got == pytest.approx(tr, rel=1e-4)

    def test_matches_rademacher_probe_average(self):
        # probe oracle built from finite-difference directional derivatives,
        # independent of the closed-form hessian
        gmm = tg.two_mode_gmm(3)
        rng = np.random.default_rng(6)
        x = np.array([0.4, -0.2, 0.9])
        t = 0.4
        n_probes = 10 ** 5
        v = rng.integers(0, 2, size=(n_probes, 3)) * 2.0 - 1.0
        h = 1e-5
        jv = (tg.gmm_noised_score(x + h * v, t, gmm)
              - tg.gmm_noised_score(x - h * v, t, gmm)) / (2 * h)
        probe_mean = np.mean(np.sum(v * jv, axis=1))
        got = tg.gmm_noised_score_divergence(x, t, gmm)
        assert got == pytest.approx(probe_mean, rel=0.01)

    def test_hvp_matches_finite_difference(self):
        gmm = tg.two_mode_gmm(2)
        rng = np.random.default_rng(7)
        x = rng.standard_normal(2)
        v = rng.standard_normal(2)
        t = 0.6
        h = 1e-6
        fd = (tg.gmm_noised_score(x + h * v, t, gmm)
              - tg.gmm_noised_score(x - h * v, t, gmm)) / (2 * h)
        assert np.allclose(tg.gmm_noised_score_hvp(x, t, gmm, v), fd,
                           atol=1e-6)


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
        score, div, hvp = logsumexp_gmm_reference(x, t, gmm, vec)
        rel = 1e-12
        got = [tg.gmm_noised_score(x, t, gmm),
               tg.gmm_noised_score_divergence(x, t, gmm),
               tg.gmm_noised_score_hvp(x, t, gmm, vec)]
        for g, want in zip(got, (score, div, hvp)):
            assert np.max(np.abs(g - want)) <= rel * np.max(np.abs(want))

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
        score, _, hvp = logsumexp_gmm_reference(x, t, gmm, vec)
        got_score = tg.gmm_noised_score(x, t, gmm)
        got_div = tg.gmm_noised_score_divergence(x, t, gmm)
        got_hvp = tg.gmm_noised_score_hvp(x, t, gmm, vec)
        for g in (got_score, got_div, got_hvp):
            assert np.all(np.isfinite(g))
        assert np.max(np.abs(got_score - score)) <= 1e-12 * np.max(
            np.abs(score))
        # the divergence and HVP cancel terms of size |s|^2 ~ 1e8 down to
        # about d / v; compare at that cancellation's rounding level
        big = np.max(np.sum(score * score, axis=1))
        assert np.max(np.abs(got_hvp - hvp)) <= 1e-13 * big * np.max(
            np.abs(vec))

    def test_log_density_and_grad_bit_for_bit(self):
        for gmm in (tg.two_mode_gmm(3), ZERO_WEIGHT_GMM):
            x = np.random.default_rng(15).standard_normal((20, 3))
            for arg in (x, x[3]):
                lp, g = gmm.log_density_and_grad(arg)
                want_lp = gmm.log_density(arg)
                want_g = gmm.grad_log_density(arg)
                assert type(lp) is type(want_lp)
                assert np.array_equal(lp, want_lp)
                assert np.array_equal(g, want_g)
            assert np.array_equal(gmm.grad_log_density(x),
                                  tg.gmm_noised_score(x, 0.0, gmm))


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
    return tg.remove_com(x.reshape(count, m * n), m, n)


class TestParticleEnergies:
    def test_double_well_zero_at_rest_length(self):
        # four particles pairwise at d0 needs three dimensions: a regular
        # tetrahedron with edge d0 makes every pair term vanish
        d0 = 4.0
        dw = tg.DoubleWell(n_particles=4, spatial_dim=3, d0=d0)
        verts = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]],
                         dtype=float)
        verts *= d0 / np.linalg.norm(verts[0] - verts[1])
        assert dw.energy(verts.reshape(-1)) == pytest.approx(0.0, abs=1e-12)

    def test_pair_term_vanishes_at_d0(self):
        dw = tg.DoubleWell(n_particles=2, spatial_dim=2)
        x = np.array([0.0, 0.0, dw.d0, 0.0])
        assert dw.energy(x) == pytest.approx(0.0, abs=1e-12)

    def test_lj_pair_minimum(self):
        lj = tg.LennardJones(n_particles=2, spatial_dim=3, c_osc=0.0)
        x = np.zeros(6)
        x[3] = lj.r_m
        assert lj.energy(x) == pytest.approx(-lj.eps_lj, abs=1e-12)

    def test_translation_invariance_exact(self):
        rng = np.random.default_rng(8)
        for target in (tg.DoubleWell(), tg.LennardJones()):
            x = rng.standard_normal(target.dim) * 2
            shift = np.tile(rng.standard_normal(target.spatial_dim),
                            target.n_particles)
            assert target.energy(x + shift) == target.energy(x)

    def test_rotation_and_permutation_invariance(self):
        from scipy.stats import ortho_group
        rng = np.random.default_rng(9)
        for target in (tg.DoubleWell(), tg.LennardJones()):
            m, n = target.n_particles, target.spatial_dim
            x = rng.standard_normal((m, n)) * 2
            r = ortho_group.rvs(n, random_state=10)
            perm = rng.permutation(m)
            e0 = target.energy(x.reshape(-1))
            assert target.energy((x @ r.T).reshape(-1)) == pytest.approx(
                e0, abs=1e-10)
            assert target.energy(x[perm].reshape(-1)) == pytest.approx(
                e0, abs=1e-10)

    def test_lj_coincident_particles_diverge(self):
        lj = tg.LennardJones(n_particles=2, spatial_dim=3)
        assert lj.energy(np.zeros(6)) == np.inf
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
        g = target.grad_log_density(np.zeros(target.dim))
        assert np.all(np.isfinite(g))
        assert np.array_equal(g, np.zeros(target.dim))

    def test_lj13_coincident_row_leaves_other_rows(self):
        lj13 = tg.LennardJones()
        x = lattice_configs(lj13, 3, np.random.default_rng(12))
        clean = lj13.grad_log_density(x)
        x.reshape(3, 13, 3)[1, 7] = x.reshape(3, 13, 3)[1, 4]
        g = lj13.grad_log_density(x)
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
        for arg in (x, x[2]):
            lp, g = target.log_density_and_grad(arg)
            want_lp = target.log_density(arg)
            assert type(lp) is type(want_lp)
            assert np.array_equal(lp, want_lp)
            assert np.array_equal(g, target.grad_log_density(arg))

    @pytest.mark.parametrize("target", [tg.DoubleWell(), tg.LennardJones()],
                             ids=["dw4", "lj13"])
    def test_energy_and_gradient_match_pair_loop(self, target):
        # tolerance fixed from float64 rounding: the batched code adds the
        # same pair terms in another order
        rel = 1e-12
        x = lattice_configs(target, 4, np.random.default_rng(11))
        energies = target.energy(x)
        grads = target.grad_log_density(x)
        for row in range(x.shape[0]):
            e, g = pair_loop_energy_and_grad(target, x[row])
            assert energies[row] == pytest.approx(e, rel=rel)
            assert np.max(np.abs(grads[row] - g)) <= rel * np.max(np.abs(g))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(10)
        h = 1e-6
        for target in (tg.DoubleWell(), tg.LennardJones()):
            x = rng.standard_normal(target.dim) * 2
            g = target.grad_log_density(x)
            for i in rng.choice(target.dim, size=4, replace=False):
                up, dn = x.copy(), x.copy()
                up[i] += h
                dn[i] -= h
                fd = (target.log_density(up) - target.log_density(dn)) / (2 * h)
                assert g[i] == pytest.approx(fd, rel=1e-5, abs=1e-6)


class TestMcmc:
    def test_gaussian_target_moments(self):
        class Gauss:
            dim = 3
            var = 2.5

            def log_density(self, x):
                return -0.5 * np.sum(np.atleast_2d(x) ** 2, axis=1) / self.var

            def grad_log_density(self, x):
                return -np.atleast_2d(x) / self.var

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
                x2 = np.atleast_2d(x)
                return -0.5 * np.sum(x2 ** 2, axis=1), -x2

            def log_density(self, x):
                raise AssertionError("separate density call")

            grad_log_density = log_density

        tg.mcmc_sample(np.random.default_rng(3), Joint(), 40, n_chains=4,
                       burn_in=10, thin=2)
        assert Joint.calls == 1 + 10 + 10 * 2

    def test_joint_call_reproduces_separate_calls(self):
        dw = tg.DoubleWell()

        class Separate:
            dim, n_particles, spatial_dim = dw.dim, 4, 2
            log_density = staticmethod(dw.log_density)
            grad_log_density = staticmethod(dw.grad_log_density)

        runs = [tg.mcmc_sample(np.random.default_rng(4), t, 200, n_chains=8,
                               burn_in=50, thin=2) for t in (dw, Separate())]
        assert np.array_equal(runs[0][0], runs[1][0])
        assert runs[0][1].step_size == runs[1][1].step_size

    def test_acceptance_warning(self):
        class Gauss:
            dim = 1

            def log_density(self, x):
                return -0.5 * np.sum(np.atleast_2d(x) ** 2, axis=1)

            def grad_log_density(self, x):
                return -np.atleast_2d(x)

        # frozen microscopic step: acceptance ~ 1 triggers the range check
        _, report = tg.mcmc_sample(np.random.default_rng(2), Gauss(), 200,
                                   n_chains=8, burn_in=0, thin=1,
                                   step_size=1e-6)
        assert report.warnings


class TestDatasetIo:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(11)
        samples = rng.standard_normal((50, 8))
        path = tmp_path / "data.csv"
        tg.save_dataset(path, samples, "dw4", n_particles=4, spatial_dim=2)
        back, meta = tg.load_dataset(path)
        assert np.allclose(back, samples, rtol=1e-15)
        assert meta["target"] == "dw4"
        assert meta["particles"] == "4"
        first = path.read_text().splitlines()[1]
        assert len(first.split(",")) == 8
