import zlib

import numpy as np
import pytest
from scipy import stats as sps

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


CLASSES = {"isotropic": ga.IsotropicParams, "diagonal": ga.DiagonalParams}


def dense_sigma(kind, v, d):
    """Sigma built densely from the variances, by the documented layout
    rather than through the spec."""
    if kind == "isotropic":
        return float(v[0]) * np.eye(d)
    return np.diag(v)


def random_case(kind, d, rng):
    """(spec, variances) well away from zero."""
    spec = CLASSES[kind](d)
    return spec, rng.uniform(0.2, 2.0) * rng.uniform(0.3, 3.0, spec.n_params)


def seed_of(*key):
    """A generator seed from a test key, the same under any PYTHONHASHSEED."""
    return zlib.crc32(repr(key).encode())


def draw(rng, spec, v, count):
    """``count`` batched draws of N(0, Sigma) through the sampling kernel."""
    return StepKernel(spec, v).sample(rng, np.zeros((count, spec.dim)))[0]


class TestLogDensity:
    def test_standard_normal_at_origin(self):
        spec = ga.IsotropicParams(1)
        got = spec.log_density(spec.stats(np.zeros((1, 1))), np.ones(1))[0]
        assert got == pytest.approx(-0.5 * np.log(2 * np.pi), abs=1e-12)

    def test_diagonal_two_dim(self):
        # x=(1,0), Sigma=diag(1,4): -log(2pi) - 0.5*log(4) - 0.5
        spec = ga.DiagonalParams(2)
        got = spec.log_density(spec.stats(np.array([[1.0, 0.0]])),
                               np.array([1.0, 4.0]))[0]
        want = -np.log(2 * np.pi) - 0.5 * np.log(4.0) - 0.5
        assert got == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("kind", list(CLASSES))
    @pytest.mark.parametrize("d", [1, 2, 5, 8])
    def test_matches_dense_reference(self, kind, d):
        rng = np.random.default_rng(seed_of(kind, d))
        for _ in range(20):
            spec, v = random_case(kind, d, rng)
            x = rng.standard_normal(d)
            mean = rng.standard_normal(d)
            got = StepKernel(spec, v).logpdf((x - mean)[None])[0]
            want = dense_logpdf(x, mean, dense_sigma(kind, v, d))
            assert got == pytest.approx(want, abs=1e-10)

    def test_baseline_inits_agree_across_kinds(self):
        # the baseline puts one variance on every coordinate, whatever the
        # kind, and so is one density
        d = 4
        delta = RNG.standard_normal((1, d))
        vals = [spec.log_density(spec.stats(delta),
                                 np.full(spec.n_params, 0.73))[0]
                for spec in (cls(d) for cls in CLASSES.values())]
        assert np.ptp(vals) < 1e-12

    def test_non_positive_definite_rejected(self):
        # a zero, negative, infinite or NaN variance is a named error of
        # every kind's density and of its step kernel, before any draw
        deltas, mean = np.zeros((1, 2)), np.zeros((1, 2))
        rng = np.random.default_rng(0)
        for spec in (cls(2) for cls in CLASSES.values()):
            for bad in (0.0, -1.0, np.inf, np.nan):
                v = np.full(spec.n_params, bad)
                with pytest.raises(ValueError, match="positive"):
                    spec.log_density(spec.stats(deltas), v)
                with pytest.raises(ValueError, match="positive"):
                    StepKernel(spec, v).sample(rng, mean)

    def test_dimension_mismatch(self):
        spec = ga.DiagonalParams(3)
        with pytest.raises(ValueError):
            spec.log_density(spec.stats(np.zeros((1, 2))), np.ones(3))


class TestSampling:
    def test_identity_moments(self):
        rng = np.random.default_rng(0)
        spec = ga.IsotropicParams(3)
        xs = draw(rng, spec, np.ones(1), 10 ** 5)
        assert np.all(np.abs(xs.mean(axis=0)) < 4.0 / np.sqrt(10 ** 5))

    def test_diagonal_variances(self):
        rng = np.random.default_rng(1)
        want = 0.8 * np.array([1.0, 4.0])
        xs = draw(rng, ga.DiagonalParams(2), want, 10 ** 5)
        assert np.all(np.abs(xs.var(axis=0) / want - 1.0) < 0.05)

    def test_seed_determinism(self):
        case = random_case("diagonal", 4, RNG)
        a = draw(np.random.default_rng(7), *case, 5)
        b = draw(np.random.default_rng(7), *case, 5)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("kind", list(CLASSES))
    def test_sample_covariance_matches_structure(self, kind):
        rng = np.random.default_rng(5)
        spec, v = random_case(kind, 4, rng)
        xs = draw(rng, spec, v, 4 * 10 ** 4)
        emp = xs.T @ xs / xs.shape[0]
        sigma = dense_sigma(kind, v, 4)
        assert np.max(np.abs(emp - sigma)) < 0.08 * np.max(np.abs(sigma))

    def test_entropy_consistency(self):
        # mean log-density of own samples ~ -d/2 (1 + log 2pi) - 0.5 logdet
        rng = np.random.default_rng(9)
        spec, v = random_case("diagonal", 3, rng)
        xs = draw(rng, spec, v, 2 * 10 ** 4)
        lp = spec.log_density(spec.stats(xs), v)
        _, logdet = np.linalg.slogdet(dense_sigma("diagonal", v, 3))
        want = -1.5 * (1 + np.log(2 * np.pi)) - 0.5 * logdet
        assert np.mean(lp) == pytest.approx(want, abs=0.05)


class TestRawParamGradients:
    """The spec's gradient is d/dv; the chain to the tuner's raw
    parameters is checked in ``tests/test_tuner.py``."""

    @pytest.mark.parametrize("kind", list(CLASSES))
    def test_gradient_matches_finite_differences(self, kind):
        rng = np.random.default_rng(seed_of(kind))
        d, batch = 5, 6
        spec = CLASSES[kind](d)
        for trial in range(5):
            v = rng.uniform(0.3, 2.0, spec.n_params)
            deltas = rng.standard_normal((batch, d))
            weights = rng.uniform(0.1, 1.0, batch)
            stats = spec.stats(deltas)
            grad = spec.weighted_grad(stats, v, weights)
            for i in range(spec.n_params):
                h = 1e-6 * v[i]
                up, dn = v.copy(), v.copy()
                up[i] += h
                dn[i] -= h
                fd = (weights @ spec.log_density(stats, up)
                      - weights @ spec.log_density(stats, dn)) / (2 * h)
                assert grad[i] == pytest.approx(fd, rel=1e-4, abs=1e-7)

    def test_isotropic_zero_delta(self):
        # d logN / dv at delta = 0 is -d/(2 v)
        d, v = 3, np.array([0.7])
        spec = ga.IsotropicParams(d)
        g = spec.weighted_grad(spec.stats(np.zeros((1, d))), v, np.ones(1))
        assert g[0] == pytest.approx(-d / (2 * v[0]))

    def test_diagonal_d1_reduces_to_isotropic(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((1, 1))
        v = np.array([0.37])
        diag, iso = ga.DiagonalParams(1), ga.IsotropicParams(1)
        gd = diag.weighted_grad(diag.stats(x), v, np.ones(1))
        gi = iso.weighted_grad(iso.stats(x), v, np.ones(1))
        assert gd[0] == pytest.approx(gi[0], rel=1e-12)

    @pytest.mark.parametrize("kind", list(CLASSES))
    def test_covariance_consistent_with_log_density(self, kind):
        # the spec density, the step kernel's and the dense Gaussian agree
        rng = np.random.default_rng(13)
        d = 4
        spec = CLASSES[kind](d)
        v = 0.7 * rng.uniform(0.5, 2.0, spec.n_params)
        deltas = rng.standard_normal((3, d))
        direct = spec.log_density(spec.stats(deltas), v)
        sigma = dense_sigma(kind, v, d)
        want = [dense_logpdf(x, np.zeros(d), sigma) for x in deltas]
        assert np.allclose(direct, want, atol=1e-12)
        kernel = StepKernel(spec, v).logpdf(deltas)
        assert np.array_equal(direct, kernel)

    @pytest.mark.parametrize("kind", list(CLASSES))
    def test_tuning_moves_every_parameter(self, kind):
        # a kind whose start is a stationary point of the objective would
        # leave some variance at the pool's moment match; the pool is
        # replayed from the same seed: 3 batches of 32 in one forward pass
        d = 3
        gmm = tg.two_mode_gmm(d)
        model, grid = AnalyticGmmScore(gmm), karras_grid(4, 1e-3, 10.0, 7.0)
        data = gmm.sample(np.random.default_rng(20), 64)
        result = tu.tune(np.random.default_rng(21), model, gmm, grid, kind,
                         tu.TunerConfig(iterations=3, batch_size=32, lr=0.05),
                         data=data)
        rng = np.random.default_rng(21)
        spec = CLASSES[kind](d)
        pool = tu.stats_batch(rng, data[rng.integers(0, 64, size=96)],
                              model, gmm, grid, spec)
        start = spec.moment_match(pool.stats).reshape(result.variances.shape)
        # three Adam steps of 0.05 move each raw by about 1e-2; the
        # start's round trip through the softplus, by about 1e-16
        assert np.all(np.abs(result.variances / start - 1.0) > 1e-6)
        assert np.all(start != grid.ddpm_vars[:, None])

    def test_baseline_init_is_identity(self):
        deltas = np.random.default_rng(17).standard_normal((4, 3))
        want = [dense_logpdf(x, np.zeros(3), np.eye(3)) for x in deltas]
        for cls in CLASSES.values():
            spec = cls(3)
            got = spec.log_density(spec.stats(deltas), np.ones(spec.n_params))
            assert np.allclose(got, want, atol=1e-12)


class TestStatistics:
    """Densities, gradients and the moment match read the residuals only
    through ``spec.stats``; each matches a computation from the residuals
    themselves, on a row spanning every step: statistic columns
    (n - 1) p to n p are step n's."""

    STEPS, ROWS, D = 3, 7, 4

    def case(self, kind):
        rng = np.random.default_rng(seed_of("stats", kind))
        spec = CLASSES[kind](self.D)
        deltas = rng.standard_normal((self.STEPS, self.ROWS, self.D))
        v = rng.uniform(0.2, 2.0, (self.STEPS, spec.n_params))
        weights = rng.uniform(0.1, 1.0, self.ROWS)
        # per-coordinate variances, step by step
        var = np.broadcast_to(v, (self.STEPS, self.D))
        stats = np.concatenate([spec.stats(delta) for delta in deltas],
                               axis=1)
        return spec, deltas, stats, v.ravel(), weights, var

    @pytest.mark.parametrize("kind", list(CLASSES))
    def test_log_density_is_scipys(self, kind):
        spec, deltas, stats, v, _, var = self.case(kind)
        got = spec.log_density(stats, v)
        want = np.sum(sps.norm.logpdf(deltas, scale=np.sqrt(var)[:, None]),
                      axis=(0, 2))
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("kind", list(CLASSES))
    def test_weighted_grad_is_the_residual_formula(self, kind):
        # d/dv sum_b w_b log N(delta_b), per coordinate
        # w . (delta^2 / (2 v^2) - 1 / (2 v)), summed over a column's
        spec, deltas, stats, v, weights, var = self.case(kind)
        got = spec.weighted_grad(stats, v, weights)
        per_coord = np.einsum("b,nbd->nd", weights,
                              deltas * deltas / (2.0 * var[:, None] ** 2)
                              - 0.5 / var[:, None])
        if kind == "isotropic":
            per_coord = np.sum(per_coord, axis=1, keepdims=True)
        want = per_coord.ravel()
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("kind", list(CLASSES))
    def test_moment_match_is_the_residual_second_moment(self, kind):
        spec, deltas, stats, _, _, _ = self.case(kind)
        got = spec.moment_match(stats)
        second = np.mean(deltas * deltas, axis=1)            # (N, d)
        if kind == "isotropic":
            second = np.mean(second, axis=1, keepdims=True)
        want = second.ravel()
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


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

    def test_plus_inf_rejected_along_an_axis(self):
        with pytest.raises(ValueError, match=r"\+inf"):
            ga.logsumexp(np.array([[0.0, 1.0], [np.inf, 0.0]]), axis=1)

    def test_all_minus_inf_slice_along_an_axis(self):
        # -inf for the empty slice, and no divide-by-zero warning (tier-1
        # turns warnings into errors)
        got = ga.logsumexp(np.array([[-np.inf, -np.inf], [0.0, 0.0]]),
                           axis=1)
        assert got[0] == -np.inf
        assert got[1] == ga.logsumexp(np.array([0.0, 0.0]))

    def test_shift_identity(self):
        # 64 cases: values in [-500, 500], 1 to 30 of them, shifted by a
        # value in [-800, 800]; the range ends and both lengths included
        rng = np.random.default_rng(seed_of("logsumexp", "shift"))
        cases = [([-500.0], -800.0), ([500.0], 800.0), ([0.0], 0.0),
                 ([500.0] * 30, -800.0), ([-500.0] * 30, 800.0),
                 ([-500.0, 500.0], 800.0)]
        cases += [(rng.uniform(-500, 500, n), rng.uniform(-800, 800))
                  for n in [1, 30] + list(rng.integers(1, 31, 56))]
        for values, shift in cases:
            v = np.asarray(values)
            assert ga.logsumexp(v + shift) == pytest.approx(
                ga.logsumexp(v) + shift, rel=1e-12, abs=1e-9)


class TestSoftplus:
    """The tuner's map from raw parameters to variance scales."""

    def test_inverse_round_trip(self):
        # 82 values in [1e-6, 1e4]: every decade with both ends, the
        # switch of softplus_inv at 20 from both sides, and uniform draws
        rng = np.random.default_rng(seed_of("softplus", "round trip"))
        ys = np.concatenate([np.geomspace(1e-6, 1e4, 40),
                             [np.nextafter(20.0, 0.0), 20.0],
                             rng.uniform(1e-6, 1e4, 40)])
        for y in ys:
            assert float(tu.softplus(tu.softplus_inv(y))) == pytest.approx(
                y, rel=1e-9)

    def test_positive_for_any_input(self):
        z = np.linspace(-40, 40, 401)
        assert np.all(tu.softplus(z) > 0)
