import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vtdis import gaussians as ga
from vtdis import targets as tg
from vtdis import tuner as tu
from vtdis.denoisers import AnalyticGmmScore
from vtdis.diffusion import StepKernel
from vtdis.schedule import karras_grid

RNG = np.random.default_rng(20240811)


def dense_logpdf(x, mean, sigma):
    d = len(x)
    _, logdet = np.linalg.slogdet(sigma)
    delta = x - mean
    return -0.5 * (d * np.log(2 * np.pi) + logdet
                   + delta @ np.linalg.solve(sigma, delta))


def random_cov(kind, d, rng):
    if kind == "isotropic":
        return ga.Covariance.isotropic(rng.uniform(0.3, 3.0), rng.uniform(0.2, 2.0))
    if kind == "diagonal":
        return ga.Covariance.diagonal(rng.uniform(0.3, 3.0, d), rng.uniform(0.2, 2.0))
    if kind == "full_factor":
        L = np.tril(rng.standard_normal((d, d)))
        L[np.diag_indices(d)] = np.abs(np.diag(L)) + d + 1
        return ga.Covariance.full_factor(L, rng.uniform(0.2, 2.0))
    raise ValueError(kind)


def seed_of(*key):
    """A generator seed from a test key, the same under any PYTHONHASHSEED."""
    return zlib.crc32(repr(key).encode())


def draw(rng, cov, count, d):
    """``count`` batched draws of N(0, cov) through the sampling kernel."""
    return StepKernel(cov, None).sample(rng, np.zeros((count, d)))


class TestLogDensity:
    def test_standard_normal_at_origin(self):
        cov = ga.Covariance.isotropic(1.0, 1.0)
        got = ga.log_density(np.zeros(1), np.zeros(1), cov)
        assert got == pytest.approx(-0.5 * np.log(2 * np.pi), abs=1e-12)

    def test_diagonal_two_dim(self):
        # x=(1,0), Sigma=diag(1,4): -log(2pi) - 0.5*log(4) - 0.5
        cov = ga.Covariance.diagonal(np.array([1.0, 4.0]), 1.0)
        got = ga.log_density(np.array([1.0, 0.0]), np.zeros(2), cov)
        want = -np.log(2 * np.pi) - 0.5 * np.log(4.0) - 0.5
        assert got == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("kind", ["isotropic", "diagonal", "full_factor"])
    @pytest.mark.parametrize("d", [1, 2, 5, 8])
    def test_matches_dense_reference(self, kind, d):
        rng = np.random.default_rng(seed_of(kind, d))
        for _ in range(20):
            cov = random_cov(kind, d, rng)
            x = rng.standard_normal(d)
            mean = rng.standard_normal(d)
            got = ga.log_density(x, mean, cov)
            want = dense_logpdf(x, mean, cov.dense(d))
            assert got == pytest.approx(want, abs=1e-10)

    def test_kron_block_matches_dense(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            m, n = 4, 2
            b = rng.standard_normal((m, m))
            b = b @ b.T + m * np.eye(m)
            cov = ga.Covariance.kron_block(b, n, rng.uniform(0.2, 2.0))
            x = rng.standard_normal(m * n)
            mean = rng.standard_normal(m * n)
            want = dense_logpdf(x, mean, cov.dense())
            assert ga.log_density(x, mean, cov) == pytest.approx(want, abs=1e-10)

    def test_baseline_inits_agree_across_kinds(self):
        d, base = 4, 0.73
        x = RNG.standard_normal(d)
        mean = RNG.standard_normal(d)
        covs = [ga.Covariance.isotropic(1.0, base),
                ga.Covariance.diagonal(np.ones(d), base),
                ga.Covariance.full_factor(np.eye(d), base),
                ga.Covariance.kron_block(np.eye(2), 2, base)]
        vals = [ga.log_density(x, mean, c) for c in covs]
        assert np.ptp(vals) < 1e-12

    def test_nonfinite_input_rejected(self):
        cov = ga.Covariance.isotropic(1.0, 1.0)
        with pytest.raises(ValueError):
            ga.log_density(np.array([np.nan]), np.zeros(1), cov)
        with pytest.raises(ValueError):
            ga.log_density(np.array([np.inf, 0.0]), np.zeros(2), cov)

    def test_non_positive_definite_rejected(self):
        with pytest.raises(ValueError):
            ga.Covariance.isotropic(0.0, 1.0)
        with pytest.raises(ValueError):
            ga.Covariance.diagonal(np.array([1.0, -0.5]), 1.0)
        with pytest.raises(ValueError):
            ga.Covariance.full_factor(np.diag([1.0, 0.0]), 1.0)
        with pytest.raises(ValueError):
            ga.Covariance.kron_block(np.array([[1.0, 2.0], [2.0, 1.0]]), 2, 1.0)
        with pytest.raises(ValueError):
            ga.Covariance.isotropic(1.0, 0.0)   # degenerate base variance

    def test_dimension_mismatch(self):
        cov = ga.Covariance.diagonal(np.ones(3), 1.0)
        with pytest.raises(ValueError):
            ga.log_density(np.zeros(2), np.zeros(2), cov)


class TestSampling:
    def test_identity_moments(self):
        rng = np.random.default_rng(0)
        cov = ga.Covariance.isotropic(1.0, 1.0)
        xs = draw(rng, cov, 10 ** 5, 3)
        assert np.all(np.abs(xs.mean(axis=0)) < 4.0 / np.sqrt(10 ** 5))

    def test_diagonal_variances(self):
        rng = np.random.default_rng(1)
        base = 0.8
        cov = ga.Covariance.diagonal(np.array([1.0, 4.0]), base)
        xs = draw(rng, cov, 10 ** 5, 2)
        want = base * np.array([1.0, 4.0])
        assert np.all(np.abs(xs.var(axis=0) / want - 1.0) < 0.05)

    def test_seed_determinism(self):
        cov = random_cov("full_factor", 4, RNG)
        a = draw(np.random.default_rng(7), cov, 5, 4)
        b = draw(np.random.default_rng(7), cov, 5, 4)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("kind", ["full_factor", "kron_block"])
    def test_sample_covariance_matches_structure(self, kind):
        rng = np.random.default_rng(5)
        if kind == "kron_block":
            b = rng.standard_normal((3, 3))
            cov = ga.Covariance.kron_block(b @ b.T + 3 * np.eye(3), 2, 0.7)
            d = 6
        else:
            cov = random_cov(kind, 4, rng)
            d = 4
        xs = draw(rng, cov, 4 * 10 ** 4, d)
        emp = xs.T @ xs / xs.shape[0]
        scale = np.max(np.abs(cov.dense(d)))
        assert np.max(np.abs(emp - cov.dense(d))) < 0.08 * scale

    def test_entropy_consistency(self):
        # mean log-density of own samples ~ -d/2 (1 + log 2pi) - 0.5 logdet
        rng = np.random.default_rng(9)
        cov = random_cov("full_factor", 3, rng)
        xs = draw(rng, cov, 2 * 10 ** 4, 3)
        lp = ga.log_density(xs, np.zeros(3), cov)
        _, logdet = np.linalg.slogdet(cov.dense(3))
        want = -1.5 * (1 + np.log(2 * np.pi)) - 0.5 * logdet
        assert np.mean(lp) == pytest.approx(want, abs=0.05)


class TestRawParamGradients:
    SPECS = {
        "isotropic": lambda d: ga.IsotropicParams(d),
        "diagonal": lambda d: ga.DiagonalParams(d),
        "full": lambda d: ga.FullFactorParams(d),
    }

    @pytest.mark.parametrize("kind", list(SPECS))
    def test_gradient_matches_finite_differences(self, kind):
        rng = np.random.default_rng(seed_of(kind))
        d, batch = 5, 6
        spec = self.SPECS[kind](d)
        for trial in range(5):
            raw = spec.init() + 0.4 * rng.standard_normal(spec.n_params)
            deltas = rng.standard_normal((batch, d))
            weights = rng.uniform(0.1, 1.0, batch)
            base = rng.uniform(0.3, 1.5)
            grad = spec.weighted_grad(deltas, raw, base, weights)
            h = 1e-6
            for i in range(spec.n_params):
                up, dn = raw.copy(), raw.copy()
                up[i] += h
                dn[i] -= h
                fd = (weights @ spec.log_density(deltas, up, base)
                      - weights @ spec.log_density(deltas, dn, base)) / (2 * h)
                assert grad[i] == pytest.approx(fd, rel=1e-4, abs=1e-7)

    def test_isotropic_zero_delta(self):
        # d logN / d eta at delta = 0 is -d/(2 eta), before the transform
        d = 3
        spec = ga.IsotropicParams(d)
        raw = spec.init()
        eta = float(ga.softplus(raw[0]))
        g = spec.weighted_grad(np.zeros((1, d)), raw, 1.0, np.ones(1))
        assert g[0] / float(ga.sigmoid(raw[0])) == pytest.approx(-d / (2 * eta))

    def test_diagonal_d1_reduces_to_isotropic(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((1, 1))
        raw = np.array([0.37])
        gd = ga.DiagonalParams(1).weighted_grad(x, raw, 0.9, np.ones(1))
        gi = ga.IsotropicParams(1).weighted_grad(x, raw, 0.9, np.ones(1))
        assert gd[0] == pytest.approx(gi[0], rel=1e-12)

    @pytest.mark.parametrize("kind", list(SPECS))
    def test_covariance_consistent_with_log_density(self, kind):
        rng = np.random.default_rng(13)
        d = 4
        spec = self.SPECS[kind](d)
        raw = spec.init() + 0.3 * rng.standard_normal(spec.n_params)
        deltas = rng.standard_normal((3, d))
        direct = spec.log_density(deltas, raw, 0.7)
        cov = spec.covariance(raw, 0.7)
        via_cov = ga.log_density(deltas, np.zeros(d), cov)
        assert np.allclose(direct, via_cov, atol=1e-12)
        kernel = StepKernel(cov, None).logpdf(deltas, 0)
        assert np.allclose(direct, kernel, atol=1e-12)

    @pytest.mark.parametrize("kind", list(SPECS))
    def test_tuning_moves_every_parameter(self, kind):
        # a kind whose baseline is a stationary point of the objective
        # would leave some raw parameter exactly at init()
        d = 3
        gmm = tg.two_mode_gmm(d)
        result = tu.tune(np.random.default_rng(21), AnalyticGmmScore(gmm),
                         gmm, karras_grid(4, 1e-3, 10.0, 7.0), kind,
                         tu.TunerConfig(iterations=3, batch_size=32, lr=0.05))
        assert np.all(result.raws != self.SPECS[kind](d).init())

    def test_baseline_init_is_identity(self):
        for kind in self.SPECS:
            spec = self.SPECS[kind](3)
            cov = spec.covariance(spec.init(), 1.0)
            assert np.allclose(cov.dense(3), np.eye(3), atol=1e-12)


class TestLogSumExp:
    def test_pair_of_zeros(self):
        assert ga.logsumexp(np.array([0.0, 0.0])) == pytest.approx(np.log(2))

    def test_large_values_no_overflow(self):
        got = ga.logsumexp(np.array([1000.0, 1000.0]))
        assert got == pytest.approx(1000.0 + np.log(2))

    def test_minus_inf_dropped(self):
        assert ga.logsumexp(np.array([-np.inf, 3.0])) == pytest.approx(3.0)

    def test_all_minus_inf(self):
        assert ga.logsumexp(np.array([-np.inf, -np.inf])) == -np.inf

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            ga.logsumexp(np.array([np.nan, 1.0]))

    @given(st.lists(st.floats(-500, 500), min_size=1, max_size=30),
           st.floats(-800, 800))
    @settings(max_examples=60, deadline=None)
    def test_shift_identity(self, values, shift):
        v = np.asarray(values)
        assert ga.logsumexp(v + shift) == pytest.approx(
            ga.logsumexp(v) + shift, rel=1e-12, abs=1e-9)


class TestSoftplus:
    @given(st.floats(1e-6, 1e4))
    @settings(max_examples=80, deadline=None)
    def test_inverse_round_trip(self, y):
        assert float(ga.softplus(ga.softplus_inv(y))) == pytest.approx(
            y, rel=1e-9)

    def test_positive_for_any_input(self):
        z = np.linspace(-40, 40, 401)
        assert np.all(ga.softplus(z) > 0)
