import math

import numpy as np
import pytest

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


def pair_loop_energy_and_grad(target, x):
    """Energy and grad log density of one configuration, pair by pair.

    ``pair(d)`` returns the pair energy and its derivative in d; LJ adds
    its harmonic centering term.
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
