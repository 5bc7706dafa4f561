import copy
import re

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


def rotate(x, r_spatial, m):
    n = r_spatial.shape[0]
    return (x.reshape(m, n) @ r_spatial.T).reshape(-1)


def permute(x, perm, n):
    return x.reshape(-1, n)[perm].reshape(-1)


def subspace_kernel(p, eta, scale=1.0):
    """The isotropic step kernel on the subspace of ``p``, with variance
    ``scale * eta``."""
    spec = ga.IsotropicParams(p.subspace_dim)
    return StepKernel(spec, np.array([scale * eta]), p)


def block_sigma(p, b, scale=1.0):
    """Dense scale * (V B V^T (x) I_n), the covariance of P x."""
    return scale * np.kron(p.V @ b @ p.V.T, np.eye(p.spatial_dim))


def com_draw(rng, eta, p, count, scale=1.0):
    """``count`` batched draws on the subspace through the sampling kernel."""
    return subspace_kernel(p, eta, scale).sample(
        rng, np.zeros((count, p.ambient_dim)))[0]


class TestProjection:
    def test_identities(self):
        for m, n in [(2, 1), (4, 2), (5, 3), (13, 3)]:
            p = eq.ComProjection(m, n)
            assert np.max(np.abs(p.V @ p.V.T - np.eye(m - 1))) < 1e-12
            want = np.eye(m) - np.full((m, m), 1.0 / m)
            assert np.max(np.abs(p.V.T @ p.V - want)) < 1e-12

    def test_basis_is_the_read_only_kronecker_product(self):
        # P = V (x) I_n with +0.0 off the copies of V: np.kron would put
        # -0.0 wherever V is negative, which array_equal does not see
        for m, n in [(2, 1), (4, 2), (5, 3), (13, 3)]:
            p = eq.ComProjection(m, n)
            assert np.array_equal(p.basis, np.kron(p.V, np.eye(n)))
            off = np.kron(np.ones_like(p.V), np.eye(n)) == 0
            assert not np.any(np.signbit(p.basis[off]))
            assert np.max(np.abs(p.basis @ p.basis.T
                                 - np.eye(p.subspace_dim))) < 1e-12
            assert np.max(np.abs(p.basis.T @ p.basis - eq.com_project(
                np.eye(p.ambient_dim), p))) < 1e-12
            with pytest.raises(ValueError, match="read-only"):
                p.basis[0, 0] = 1.0

    def test_two_particle_basis(self):
        p = eq.ComProjection(2, 1)
        z = np.array([1.0, -1.0]) @ p.basis.T
        assert abs(abs(z[0]) - np.sqrt(2)) < 1e-12

    def test_translation_annihilated(self):
        p = eq.ComProjection(6, 3)
        x = np.tile([3.7, -1.2, 0.4], 6)
        assert np.max(np.abs(x @ p.basis.T)) < 1e-12

    def test_projection_deterministic(self):
        a = eq.ComProjection(7, 2).V
        b = eq.ComProjection(7, 2).V
        assert np.array_equal(a, b)

    def test_minimum_particles(self):
        with pytest.raises(ValueError):
            eq.ComProjection(1, 3)

    @pytest.mark.parametrize("geometry,name,least", [
        ((4, True), "spatial_dim", 1), ((4.0, 2), "n_particles", 2),
        ((3, 2.5), "spatial_dim", 1), ((True, 3), "n_particles", 2),
        ((4, 0), "spatial_dim", 1)])
    def test_bad_geometry_is_rejected_by_name(self, geometry, name, least):
        # (4, True) raised "an integer is required", (4.0, 2) and (3, 2.5)
        # unnamed TypeErrors, and (True, 3) was rejected as one particle
        value = geometry[name == "spatial_dim"]
        with pytest.raises(ValueError, match=re.escape(
                f"{name} must be an integer >= {least}, got {value!r}")):
            eq.ComProjection(*geometry)


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

    @pytest.mark.parametrize("proj", [None, eq.ComProjection(4, 2)],
                             ids=["ambient", "subspace"])
    def test_normals_project_the_same_draws(self, proj):
        got = eq.normals(np.random.default_rng(3), (5, 8), proj)
        want = np.random.default_rng(3).standard_normal((5, 8))
        if proj is not None:
            want = eq.com_project(want, proj)
        assert np.array_equal(got, want)


class TestPairGeometry:
    """The pair layout that a ``ComProjection`` owns."""

    SHAPES = [(2, 1), (4, 2), (13, 3)]

    @pytest.mark.parametrize("m,n", SHAPES)
    def test_diffs_match_a_pair_loop(self, m, n):
        # the incidence entries are +-1 and 0, so the matmul is exact
        x = np.random.default_rng(m).standard_normal((3, m * n))
        conf = x.reshape(3, m, n)
        want = np.stack([conf[:, i] - conf[:, j]
                         for i in range(m) for j in range(i + 1, m)], axis=1)
        diff, dist = eq.ComProjection(m, n).pairs(x)
        assert np.array_equal(diff, want)
        assert np.array_equal(dist, np.sqrt(np.sum(want * want, axis=-1)))

    @pytest.mark.parametrize("m,n", SHAPES)
    def test_pair_order_is_triu_indices(self, m, n):
        inc = eq.ComProjection(m, n).incidence
        ii, jj = np.triu_indices(m, k=1)
        assert inc.shape == (m, ii.shape[0])
        assert np.array_equal(np.argmax(inc, axis=0), ii)
        assert np.array_equal(np.argmin(inc, axis=0), jj)
        assert np.all(inc.max(axis=0) == 1.0)
        assert np.all(inc.min(axis=0) == -1.0)
        assert np.count_nonzero(inc) == 2 * ii.shape[0]

    @pytest.mark.parametrize("m,n", SHAPES)
    def test_scatter_is_the_adjoint_of_diffs(self, m, n):
        geo = eq.ComProjection(m, n)
        rng = np.random.default_rng(10 + m)
        x = rng.standard_normal((4, m * n))
        c = rng.standard_normal((4, m * (m - 1) // 2, n))
        assert geo.scatter(c).shape == x.shape
        assert np.sum(geo.diffs(x) * c) == pytest.approx(
            np.sum(x * geo.scatter(c)), rel=1e-12)

    @pytest.mark.parametrize("n", [2, 3])
    def test_spatial_dot_is_bit_equal_to_a_sum(self, n):
        rng = np.random.default_rng(n)
        a = rng.standard_normal((7, 78, n)) * 10.0 ** rng.uniform(
            -8, 8, (7, 78, n))
        b = rng.standard_normal((7, 78, n))
        want = np.sum(a * b, axis=-1)
        assert eq.spatial_dot(a, b).tobytes() == want.tobytes()


def dense_logpdf(z, sigma):
    """log N(z; 0, sigma) for one vector, by a dense solve."""
    _, logdet = np.linalg.slogdet(sigma)
    return -0.5 * (len(z) * np.log(2 * np.pi) + logdet
                   + z @ np.linalg.solve(sigma, z))


class TestComGaussian:
    def test_isotropic_matches_reduced_dense(self):
        rng = np.random.default_rng(2)
        p = eq.ComProjection(4, 2)
        x = eq.com_project(rng.standard_normal(8), p)
        mean = eq.com_project(rng.standard_normal(8), p)
        sigma2 = 1.7
        got = subspace_kernel(p, sigma2).logpdf((x - mean)[None])[0]
        z = (x - mean) @ p.basis.T
        want = (-0.5 * 6 * np.log(2 * np.pi * sigma2)
                - 0.5 * z @ z / sigma2)
        assert got == pytest.approx(want, abs=1e-12)

    def test_block_matches_reduced_dense(self):
        # an exchangeable block (b - a) I + a 11^T is the isotropic kernel
        # with eta = b - a, because V 1 = 0
        rng = np.random.default_rng(3)
        p = eq.ComProjection(5, 3)
        a, b = 0.8, 2.1
        x = eq.com_project(rng.standard_normal(15), p)
        mean = eq.com_project(rng.standard_normal(15), p)
        scale = 0.6
        got = subspace_kernel(p, b - a, scale).logpdf((x - mean)[None])[0]
        block = (b - a) * np.eye(5) + a * np.ones((5, 5))
        want = dense_logpdf((x - mean) @ p.basis.T,
                            block_sigma(p, block, scale))
        assert got == pytest.approx(want, abs=1e-10)

    def test_rotation_reflection_invariance(self):
        rng = np.random.default_rng(4)
        p = eq.ComProjection(5, 3)
        kernel = subspace_kernel(p, rng.uniform(0.5, 2.0))
        for trial in range(50):
            r = ortho_group.rvs(3, random_state=trial)
            x = eq.com_project(rng.standard_normal(15), p)
            mean = eq.com_project(rng.standard_normal(15), p)
            a = kernel.logpdf((x - mean)[None])[0]
            c = kernel.logpdf((rotate(x, r, 5) - rotate(mean, r, 5))[None])[0]
            assert abs(a - c) < 1e-10

    def test_exchangeable_permutation_invariance(self):
        # isotropic (the exchangeable block) under any permutation
        rng = np.random.default_rng(5)
        p = eq.ComProjection(6, 2)
        iso = subspace_kernel(p, 1.5)
        for _ in range(50):
            x = eq.com_project(rng.standard_normal(12), p)
            mean = eq.com_project(rng.standard_normal(12), p)
            perm = rng.permutation(6)
            assert abs(iso.logpdf((x - mean)[None])[0] - iso.logpdf(
                (permute(x, perm, 2) - permute(mean, perm, 2))[None])[0]) \
                < 1e-10

    def test_normalizes_on_subspace(self):
        # M = 2, n = 1: one effective coordinate, integrate by quadrature
        p = eq.ComProjection(2, 1)
        kernel = subspace_kernel(p, 1.3)

        def density(z):
            x = np.array([[z]]) @ p.basis
            return np.exp(kernel.logpdf(x)[0])

        val, err = quad(density, -15, 15)
        assert val == pytest.approx(1.0, abs=1e-8)


class TestComSampling:
    def test_zero_com_exact(self):
        p = eq.ComProjection(5, 3)
        rng = np.random.default_rng(6)
        s = com_draw(rng, rng.uniform(0.5, 2.0), p, 1000)
        assert np.max(p.com_norm(s)) < 1e-12

    def test_seed_determinism(self):
        p = eq.ComProjection(4, 2)
        a = com_draw(np.random.default_rng(9), 2.0, p, 5)
        b = com_draw(np.random.default_rng(9), 2.0, p, 5)
        assert np.array_equal(a, b)

    def test_empirical_covariance(self):
        # scale * eta * I on the subspace coordinates P x
        rng = np.random.default_rng(7)
        p = eq.ComProjection(4, 3)
        eta = 1.5
        s = com_draw(rng, eta, p, 10 ** 5, scale=2.0)
        emp = np.cov(s @ p.basis.T, rowvar=False, bias=True)
        want = 2.0 * eta * np.eye(p.subspace_dim)
        assert np.max(np.abs(emp - want)) < 0.05 * np.max(np.abs(want))

    def test_isotropic_matches_ambient_subtract_com_in_distribution(self):
        # subspace normals mapped by P^T and the isotropic subtract-CoM
        # draw agree in law: compare 1-D projections through a KS test
        p = eq.ComProjection(4, 2)
        rng = np.random.default_rng(8)
        direct = rng.standard_normal((4000, p.subspace_dim)) @ p.basis
        shortcut = com_draw(rng, 1.0, p, 4000)
        u = rng.standard_normal(8)
        a = direct @ u
        b = shortcut @ u
        assert kstest(a, b).pvalue > 1e-3

    def test_density_of_samples_consistent(self):
        # average log-density of own draws ~ differential entropy
        rng = np.random.default_rng(10)
        p = eq.ComProjection(3, 2)
        eta = rng.uniform(0.5, 2.0)
        kernel = subspace_kernel(p, eta)
        s, _ = kernel.sample(rng, np.zeros((2 * 10 ** 4, 6)))
        lp = kernel.logpdf(s)
        _, logdet = np.linalg.slogdet(block_sigma(p, eta * np.eye(3)))
        want = -0.5 * 4 * (1 + np.log(2 * np.pi)) - 0.5 * logdet
        assert np.mean(lp) == pytest.approx(want, abs=0.05)


class TestSubspaceParams:
    SPECS = {
        "isotropic": lambda proj: ga.IsotropicParams(proj.subspace_dim),
    }

    @pytest.mark.parametrize("kind", list(SPECS))
    def test_gradients_fd(self, kind):
        rng = np.random.default_rng(13)
        proj = eq.ComProjection(4, 2)
        spec = self.SPECS[kind](proj)
        deltas = eq.com_project(rng.standard_normal((5, 8)), proj)
        weights = rng.uniform(0.2, 1.0, 5)
        v = 0.9 * rng.uniform(0.5, 2.0, spec.n_params)
        stats = spec.stats(deltas)
        grad = spec.weighted_grad(stats, v, weights)
        for i in range(spec.n_params):
            h = 1e-6 * v[i]
            up, dn_ = v.copy(), v.copy()
            up[i] += h
            dn_[i] -= h
            fd = (weights @ spec.log_density(stats, up)
                  - weights @ spec.log_density(stats, dn_)) / (2 * h)
            assert grad[i] == pytest.approx(fd, rel=1e-4, abs=1e-8)

    def test_density_matches_com_gaussian(self):
        # the spec's density is the sampling kernel's density, and the
        # dense projected Gaussian's
        rng = np.random.default_rng(14)
        proj = eq.ComProjection(4, 3)
        spec = self.SPECS["isotropic"](proj)
        v = 0.8 * rng.uniform(0.5, 2.0, spec.n_params)
        deltas = eq.com_project(rng.standard_normal((4, 12)), proj)
        direct = spec.log_density(spec.stats(deltas), v)
        kernel = StepKernel(spec, v, proj).logpdf(deltas)
        assert np.array_equal(direct, kernel)
        sig = block_sigma(proj, v[0] * np.eye(4))
        want = [dense_logpdf(x @ proj.basis.T, sig) for x in deltas]
        assert np.allclose(direct, want, atol=1e-10)

    @pytest.mark.parametrize("kind", list(SPECS))
    def test_tuning_moves_every_parameter(self, kind):
        # a kind whose start is a stationary point of the objective would
        # leave some variance at the pool's moment match; the pool is
        # replayed from the same seed: 3 batches of 16 in one forward pass
        rng = np.random.default_rng(22)
        target = tg.DoubleWell()
        proj = eq.ComProjection(target.n_particles, target.spatial_dim)
        model = dn.RadialDenoiser(target.n_particles, target.spatial_dim,
                                  [8], 1.0, rng)
        data = eq.com_project(2.0 * rng.standard_normal((64, target.dim)),
                              proj)
        grid = karras_grid(4, 1e-3, 10.0, 7.0)
        replay = copy.deepcopy(rng)
        result = tu.tune(rng, model, target, grid, kind,
                         tu.TunerConfig(iterations=3, batch_size=16,
                                        lr=0.05),
                         data=data, proj=proj)
        spec = self.SPECS[kind](proj)
        pool = tu.stats_batch(
            replay, eq.com_project(data[replay.integers(0, 64, size=48)],
                                   proj), model, target, grid, spec, proj)
        start = spec.moment_match(pool.stats)[:, None]
        # three Adam steps of 0.05 move each raw by about 1e-2; the
        # start's round trip through the softplus, by about 1e-16
        assert np.all(np.abs(result.variances / start - 1.0) > 1e-6)
        assert np.all(start != grid.ddpm_vars[:, None])
