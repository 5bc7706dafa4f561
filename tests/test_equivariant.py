import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import kstest, ortho_group

from vtdis import denoisers as dn
from vtdis import equivariant as eq
from vtdis import gaussians as ga
from vtdis import targets as tg
from vtdis import tuner as tu
from vtdis.diffusion import StepKernel
from vtdis.schedule import karras_grid


def random_spd(m, rng):
    a = rng.standard_normal((m, m))
    return a @ a.T + m * np.eye(m)


def rotate(x, r_spatial, m):
    n = r_spatial.shape[0]
    return (x.reshape(m, n) @ r_spatial.T).reshape(-1)


def permute(x, perm, n):
    return x.reshape(-1, n)[perm].reshape(-1)


def com_draw(rng, B, p, count, scale=1.0):
    """``count`` batched draws on the subspace through the sampling kernel;
    a scalar ``B`` is the isotropic kernel."""
    if np.ndim(B) == 0:
        cov = ga.Covariance.isotropic(B, scale)
    else:
        cov = ga.Covariance.kron_block(B, p.spatial_dim, scale)
    return StepKernel(cov, p).sample(rng, np.zeros((count, p.ambient_dim)))


class TestProjection:
    def test_identities(self):
        for m, n in [(2, 1), (4, 2), (5, 3), (13, 3)]:
            p = eq.ComProjection(m, n)
            assert np.max(np.abs(p.V @ p.V.T - np.eye(m - 1))) < 1e-12
            want = np.eye(m) - np.full((m, m), 1.0 / m)
            assert np.max(np.abs(p.V.T @ p.V - want)) < 1e-12

    def test_two_particle_basis(self):
        p = eq.ComProjection(2, 1)
        z = p.to_subspace(np.array([1.0, -1.0]))
        assert abs(abs(z[0]) - np.sqrt(2)) < 1e-12

    def test_translation_annihilated(self):
        p = eq.ComProjection(6, 3)
        x = np.tile([3.7, -1.2, 0.4], 6)
        assert np.max(np.abs(p.to_subspace(x))) < 1e-12

    def test_projection_deterministic(self):
        a = eq.ComProjection(7, 2).V
        b = eq.ComProjection(7, 2).V
        assert np.array_equal(a, b)

    def test_minimum_particles(self):
        with pytest.raises(ValueError):
            eq.ComProjection(1, 3)


class TestComProject:
    def test_constant_configuration_to_zero(self):
        p = eq.ComProjection(4, 2)
        x = np.tile([2.0, -1.0], 4)
        assert np.max(np.abs(eq.com_project(x, p))) < 1e-15

    def test_idempotent(self):
        p = eq.ComProjection(5, 3)
        x = np.random.default_rng(0).standard_normal(15)
        once = eq.com_project(x, p)
        assert np.allclose(eq.com_project(once, p), once, atol=1e-15)

    def test_commutes_with_permutation(self):
        p = eq.ComProjection(5, 3)
        rng = np.random.default_rng(1)
        x = rng.standard_normal(15)
        perm = rng.permutation(5)
        a = permute(eq.com_project(x, p), perm, 3)
        b = eq.com_project(permute(x, perm, 3), p)
        assert np.allclose(a, b, atol=1e-14)


class TestComGaussian:
    def test_isotropic_matches_reduced_dense(self):
        rng = np.random.default_rng(2)
        p = eq.ComProjection(4, 2)
        x = eq.com_project(rng.standard_normal(8), p)
        mean = eq.com_project(rng.standard_normal(8), p)
        sigma2 = 1.7
        got = eq.com_gaussian_log_density(x, mean, sigma2, p)
        z = p.to_subspace(x - mean)
        want = (-0.5 * 6 * np.log(2 * np.pi * sigma2)
                - 0.5 * z @ z / sigma2)
        assert got == pytest.approx(want, abs=1e-12)

    def test_block_matches_reduced_dense(self):
        rng = np.random.default_rng(3)
        p = eq.ComProjection(5, 3)
        b = random_spd(5, rng)
        x = eq.com_project(rng.standard_normal(15), p)
        mean = eq.com_project(rng.standard_normal(15), p)
        scale = 0.6
        got = eq.com_gaussian_log_density(x, mean, b, p, scale=scale)
        sig = scale * np.kron(p.reduced_block(b), np.eye(3))
        z = p.to_subspace(x - mean)
        _, logdet = np.linalg.slogdet(sig)
        want = -0.5 * (12 * np.log(2 * np.pi) + logdet
                       + z @ np.linalg.solve(sig, z))
        assert got == pytest.approx(want, abs=1e-10)

    def test_rotation_reflection_invariance(self):
        rng = np.random.default_rng(4)
        p = eq.ComProjection(5, 3)
        b = random_spd(5, rng)
        for trial in range(50):
            r = ortho_group.rvs(3, random_state=trial)
            x = eq.com_project(rng.standard_normal(15), p)
            mean = eq.com_project(rng.standard_normal(15), p)
            a = eq.com_gaussian_log_density(x, mean, b, p)
            c = eq.com_gaussian_log_density(rotate(x, r, 5),
                                            rotate(mean, r, 5), b, p)
            assert abs(a - c) < 1e-10

    def test_exchangeable_permutation_invariance(self):
        rng = np.random.default_rng(5)
        p = eq.ComProjection(6, 2)
        b = 1.1 * np.eye(6) + 0.4 * np.ones((6, 6))     # exchangeable
        for _ in range(50):
            perm = rng.permutation(6)
            x = eq.com_project(rng.standard_normal(12), p)
            mean = eq.com_project(rng.standard_normal(12), p)
            a = eq.com_gaussian_log_density(x, mean, b, p)
            c = eq.com_gaussian_log_density(permute(x, perm, 2),
                                            permute(mean, perm, 2), b, p)
            assert abs(a - c) < 1e-10

    def test_off_subspace_rejected(self):
        p = eq.ComProjection(3, 2)
        x = np.ones(6)   # com = (1, 1)
        with pytest.raises(ValueError):
            eq.com_gaussian_log_density(x, np.zeros(6), 1.0, p)

    def test_normalizes_on_subspace(self):
        # M = 2, n = 1: one effective coordinate, integrate by quadrature
        p = eq.ComProjection(2, 1)

        def density(z):
            x = p.to_ambient(np.array([z]))
            return np.exp(eq.com_gaussian_log_density(x, np.zeros(2), 1.3, p))

        val, err = quad(density, -15, 15)
        assert val == pytest.approx(1.0, abs=1e-8)


class TestComSampling:
    def test_zero_com_exact(self):
        p = eq.ComProjection(5, 3)
        rng = np.random.default_rng(6)
        b = random_spd(5, rng)
        s = com_draw(rng, b, p, 1000)
        assert np.max(p.com_norm(s)) < 1e-12

    def test_seed_determinism(self):
        p = eq.ComProjection(4, 2)
        a = com_draw(np.random.default_rng(9), 2.0, p, 5)
        b = com_draw(np.random.default_rng(9), 2.0, p, 5)
        assert np.array_equal(a, b)

    def test_empirical_covariance(self):
        rng = np.random.default_rng(7)
        p = eq.ComProjection(4, 3)
        b = 1.2 * np.eye(4) - 0.2 * np.ones((4, 4))     # exchangeable
        s = com_draw(rng, b, p, 10 ** 5, scale=2.0)
        z = p.to_subspace(s).reshape(-1, 3, 3)
        emp = np.einsum("bin,bjn->ij", z, z) / (s.shape[0] * 3)
        want = 2.0 * p.reduced_block(b)
        assert np.max(np.abs(emp - want)) < 0.05 * np.max(np.abs(want))

    def test_isotropic_matches_ambient_subtract_com_in_distribution(self):
        # the projected draw (identity block, subspace normals mapped by
        # P^T) and the isotropic subtract-CoM draw agree in law: compare
        # 1-D projections through a KS test
        p = eq.ComProjection(4, 2)
        rng = np.random.default_rng(8)
        direct = com_draw(rng, np.eye(4), p, 4000)
        shortcut = com_draw(rng, 1.0, p, 4000)
        u = rng.standard_normal(8)
        a = direct @ u
        b = shortcut @ u
        assert kstest(a, b).pvalue > 1e-3

    def test_density_of_samples_consistent(self):
        # average log-density of own draws ~ differential entropy
        rng = np.random.default_rng(10)
        p = eq.ComProjection(3, 2)
        b = random_spd(3, rng)
        s = com_draw(rng, b, p, 2 * 10 ** 4)
        lp = eq.com_gaussian_log_density(s, np.zeros(6), b, p)
        sig = np.kron(p.reduced_block(b), np.eye(2))
        _, logdet = np.linalg.slogdet(sig)
        want = -0.5 * 4 * (1 + np.log(2 * np.pi)) - 0.5 * logdet
        assert np.mean(lp) == pytest.approx(want, abs=0.05)


class TestBlockBuilders:
    def test_label_diag(self):
        labels = np.array([0, 1, 1, 0])
        b = eq.build_label_B(labels, np.array([2.0, 3.0]))
        assert np.allclose(np.diag(b), [2.0, 3.0, 3.0, 2.0])

    def test_label_validation(self):
        with pytest.raises(ValueError):
            eq.build_label_B(np.array([0, 1]), np.array([1.0]))
        with pytest.raises(ValueError):
            eq.build_label_B(np.array([0, 1]), np.array([1.0, -0.1]))


LABELS = np.array([0, 0, 1, 1])


class TestSubspaceParams:
    SPECS = {
        "isotropic": lambda proj: ga.IsotropicParams(proj.subspace_dim),
        "label_diag": lambda proj: eq.LabelDiagParams(LABELS, proj),
    }

    @pytest.mark.parametrize("kind", list(SPECS))
    def test_gradients_fd(self, kind):
        rng = np.random.default_rng(13)
        proj = eq.ComProjection(4, 2)
        spec = self.SPECS[kind](proj)
        deltas = eq.com_project(rng.standard_normal((5, 8)), proj)
        weights = rng.uniform(0.2, 1.0, 5)
        raw = spec.init() + 0.25 * rng.standard_normal(spec.n_params)
        grad = spec.weighted_grad(deltas, raw, 0.9, weights)
        h = 1e-6
        for i in range(spec.n_params):
            up, dn_ = raw.copy(), raw.copy()
            up[i] += h
            dn_[i] -= h
            fd = (weights @ spec.log_density(deltas, up, 0.9)
                  - weights @ spec.log_density(deltas, dn_, 0.9)) / (2 * h)
            assert grad[i] == pytest.approx(fd, rel=1e-4, abs=1e-8)

    def test_density_matches_com_gaussian(self):
        # every spec's density is the sampling kernel's density, and the
        # projected Gaussian's
        rng = np.random.default_rng(14)
        proj = eq.ComProjection(4, 3)
        for spec in (make(proj) for make in self.SPECS.values()):
            raw = spec.init() + 0.2 * rng.standard_normal(spec.n_params)
            deltas = eq.com_project(rng.standard_normal((4, 12)), proj)
            direct = spec.log_density(deltas, raw, 0.8)
            cov = spec.covariance(raw, 0.8)
            kernel = StepKernel(cov, proj).logpdf(deltas, 0)
            assert np.allclose(direct, kernel, atol=1e-10)
            B = cov.eta if cov.kind == "isotropic" else cov.block
            via = eq.com_gaussian_log_density(deltas, np.zeros(12), B, proj,
                                              scale=0.8)
            assert np.allclose(direct, via, atol=1e-10)

    def test_baseline_init(self):
        proj = eq.ComProjection(5, 2)
        spec = eq.LabelDiagParams(np.array([0, 1, 0, 1, 1]), proj)
        assert np.allclose(spec.block(spec.init()), np.eye(5), atol=1e-12)

    @pytest.mark.parametrize("kind", list(SPECS))
    def test_tuning_moves_every_parameter(self, kind):
        # a kind whose baseline is a stationary point of the objective
        # would leave some raw parameter exactly at init()
        rng = np.random.default_rng(22)
        target = tg.DoubleWell()
        proj = eq.ComProjection(target.n_particles, target.spatial_dim)
        model = dn.RadialDenoiser(target.n_particles, target.spatial_dim,
                                  [8], 1.0, rng)
        data = eq.com_project(2.0 * rng.standard_normal((64, target.dim)),
                              proj)
        result = tu.tune(rng, model, target, karras_grid(4, 1e-3, 10.0, 7.0),
                         kind, tu.TunerConfig(iterations=3, batch_size=16,
                                              lr=0.05),
                         data=data, proj=proj, labels=LABELS)
        assert np.all(result.raws != self.SPECS[kind](proj).init())
