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


def dense_sigma(kind, raw, base, d):
    """Sigma built densely from the raw parameters, by the documented
    layout rather than through the spec."""
    if kind == "isotropic":
        return base * float(ga.softplus(raw[0])) * np.eye(d)
    return base * np.diag(ga.softplus(raw))


def random_case(kind, d, rng):
    """(spec, raw, base) with variances well away from zero."""
    spec = CLASSES[kind](d)
    base = rng.uniform(0.2, 2.0)
    return spec, ga.softplus_inv(rng.uniform(0.3, 3.0, spec.n_params)), base


def sigmoid(z):
    """The softplus slope, in its textbook form (for moderate z)."""
    return 1.0 / (1.0 + np.exp(-z))


def seed_of(*key):
    """A generator seed from a test key, the same under any PYTHONHASHSEED."""
    return zlib.crc32(repr(key).encode())


def draw(rng, spec, raw, base, count):
    """``count`` batched draws of N(0, Sigma) through the sampling kernel."""
    return StepKernel(spec, raw, base).sample(rng, np.zeros((count, spec.dim)))


class TestLogDensity:
    def test_standard_normal_at_origin(self):
        spec = ga.IsotropicParams(1)
        got = spec.log_density(spec.stats(np.zeros((1, 1))), spec.init(),
                               1.0)[0]
        assert got == pytest.approx(-0.5 * np.log(2 * np.pi), abs=1e-12)

    def test_diagonal_two_dim(self):
        # x=(1,0), Sigma=diag(1,4): -log(2pi) - 0.5*log(4) - 0.5
        raw = ga.softplus_inv(np.array([1.0, 4.0]))
        spec = ga.DiagonalParams(2)
        got = spec.log_density(spec.stats(np.array([[1.0, 0.0]])), raw,
                               1.0)[0]
        want = -np.log(2 * np.pi) - 0.5 * np.log(4.0) - 0.5
        assert got == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("kind", list(CLASSES))
    @pytest.mark.parametrize("d", [1, 2, 5, 8])
    def test_matches_dense_reference(self, kind, d):
        rng = np.random.default_rng(seed_of(kind, d))
        for _ in range(20):
            spec, raw, base = random_case(kind, d, rng)
            x = rng.standard_normal(d)
            mean = rng.standard_normal(d)
            got = StepKernel(spec, raw, base).logpdf(x[None], mean[None])[0]
            want = dense_logpdf(x, mean, dense_sigma(kind, raw, base, d))
            assert got == pytest.approx(want, abs=1e-10)

    def test_baseline_inits_agree_across_kinds(self):
        d, base = 4, 0.73
        delta = RNG.standard_normal((1, d))
        vals = [spec.log_density(spec.stats(delta), spec.init(), base)[0]
                for spec in (cls(d) for cls in CLASSES.values())]
        assert np.ptp(vals) < 1e-12

    def test_non_positive_definite_rejected(self):
        # a degenerate base variance or an underflowed softplus is a named
        # error of every kind's density and draw, not a NaN
        deltas, mean = np.zeros((1, 2)), np.zeros((1, 2))
        rng = np.random.default_rng(0)
        for spec in (cls(2) for cls in CLASSES.values()):
            for raw, base in [(spec.init(), 0.0),
                              (np.full(spec.n_params, -800.0), 1.0)]:
                with pytest.raises(ValueError, match="positive"):
                    spec.log_density(spec.stats(deltas), raw, base)
                with pytest.raises(ValueError, match="positive"):
                    spec.draw(rng, raw, base, mean)

    def test_dimension_mismatch(self):
        spec = ga.DiagonalParams(3)
        with pytest.raises(ValueError):
            spec.log_density(spec.stats(np.zeros((1, 2))), spec.init(), 1.0)


class TestSampling:
    def test_identity_moments(self):
        rng = np.random.default_rng(0)
        spec = ga.IsotropicParams(3)
        xs = draw(rng, spec, spec.init(), 1.0, 10 ** 5)
        assert np.all(np.abs(xs.mean(axis=0)) < 4.0 / np.sqrt(10 ** 5))

    def test_diagonal_variances(self):
        rng = np.random.default_rng(1)
        base = 0.8
        raw = ga.softplus_inv(np.array([1.0, 4.0]))
        xs = draw(rng, ga.DiagonalParams(2), raw, base, 10 ** 5)
        want = base * np.array([1.0, 4.0])
        assert np.all(np.abs(xs.var(axis=0) / want - 1.0) < 0.05)

    def test_seed_determinism(self):
        case = random_case("diagonal", 4, RNG)
        a = draw(np.random.default_rng(7), *case, 5)
        b = draw(np.random.default_rng(7), *case, 5)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("kind", list(CLASSES))
    def test_sample_covariance_matches_structure(self, kind):
        rng = np.random.default_rng(5)
        spec, raw, base = random_case(kind, 4, rng)
        xs = draw(rng, spec, raw, base, 4 * 10 ** 4)
        emp = xs.T @ xs / xs.shape[0]
        sigma = dense_sigma(kind, raw, base, 4)
        assert np.max(np.abs(emp - sigma)) < 0.08 * np.max(np.abs(sigma))

    def test_entropy_consistency(self):
        # mean log-density of own samples ~ -d/2 (1 + log 2pi) - 0.5 logdet
        rng = np.random.default_rng(9)
        spec, raw, base = random_case("diagonal", 3, rng)
        xs = draw(rng, spec, raw, base, 2 * 10 ** 4)
        lp = spec.log_density(spec.stats(xs), raw, base)
        _, logdet = np.linalg.slogdet(dense_sigma("diagonal", raw, base, 3))
        want = -1.5 * (1 + np.log(2 * np.pi)) - 0.5 * logdet
        assert np.mean(lp) == pytest.approx(want, abs=0.05)


class TestRawParamGradients:
    @pytest.mark.parametrize("kind", list(CLASSES))
    def test_gradient_matches_finite_differences(self, kind):
        rng = np.random.default_rng(seed_of(kind))
        d, batch = 5, 6
        spec = CLASSES[kind](d)
        for trial in range(5):
            raw = spec.init() + 0.4 * rng.standard_normal(spec.n_params)
            deltas = rng.standard_normal((batch, d))
            weights = rng.uniform(0.1, 1.0, batch)
            base = rng.uniform(0.3, 1.5)
            stats = spec.stats(deltas)
            grad = spec.weighted_grad(stats, raw, base, weights)
            h = 1e-6
            for i in range(spec.n_params):
                up, dn = raw.copy(), raw.copy()
                up[i] += h
                dn[i] -= h
                fd = (weights @ spec.log_density(stats, up, base)
                      - weights @ spec.log_density(stats, dn, base)) / (2 * h)
                assert grad[i] == pytest.approx(fd, rel=1e-4, abs=1e-7)

    def test_isotropic_zero_delta(self):
        # d logN / d eta at delta = 0 is -d/(2 eta), before the transform
        d = 3
        spec = ga.IsotropicParams(d)
        raw = spec.init()
        eta = float(ga.softplus(raw[0]))
        g = spec.weighted_grad(spec.stats(np.zeros((1, d))), raw, 1.0,
                               np.ones(1))
        assert g[0] / float(sigmoid(raw[0])) == pytest.approx(-d / (2 * eta))

    def test_diagonal_d1_reduces_to_isotropic(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((1, 1))
        raw = np.array([0.37])
        diag, iso = ga.DiagonalParams(1), ga.IsotropicParams(1)
        gd = diag.weighted_grad(diag.stats(x), raw, 0.9, np.ones(1))
        gi = iso.weighted_grad(iso.stats(x), raw, 0.9, np.ones(1))
        assert gd[0] == pytest.approx(gi[0], rel=1e-12)

    @pytest.mark.parametrize("kind", list(CLASSES))
    def test_covariance_consistent_with_log_density(self, kind):
        # the spec density, the step kernel's and the dense Gaussian agree
        rng = np.random.default_rng(13)
        d = 4
        spec = CLASSES[kind](d)
        raw = spec.init() + 0.3 * rng.standard_normal(spec.n_params)
        deltas = rng.standard_normal((3, d))
        direct = spec.log_density(spec.stats(deltas), raw, 0.7)
        sigma = dense_sigma(kind, raw, 0.7, d)
        want = [dense_logpdf(x, np.zeros(d), sigma) for x in deltas]
        assert np.allclose(direct, want, atol=1e-12)
        kernel = StepKernel(spec, raw, 0.7).logpdf(deltas,
                                                   np.zeros_like(deltas))
        assert np.array_equal(direct, kernel)

    @pytest.mark.parametrize("kind", list(CLASSES))
    def test_tuning_moves_every_parameter(self, kind):
        # a kind whose start is a stationary point of the objective would
        # leave some raw parameter exactly at the pool's moment match;
        # the pool is replayed from the same seed: 3 batches of 32 in one
        # forward pass
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
        start = spec.moment_match(
            pool.stats, np.repeat(grid.ddpm_vars, spec.n_params)
        ).reshape(result.raws.shape)
        assert np.all(result.raws != start)
        assert np.all(start != CLASSES[kind](d).init())

    def test_baseline_init_is_identity(self):
        deltas = np.random.default_rng(17).standard_normal((4, 3))
        want = [dense_logpdf(x, np.zeros(3), np.eye(3)) for x in deltas]
        for cls in CLASSES.values():
            spec = cls(3)
            got = spec.log_density(spec.stats(deltas), spec.init(), 1.0)
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
        raws = (np.tile(spec.init(), (self.STEPS, 1))
                + 0.3 * rng.standard_normal((self.STEPS, spec.n_params)))
        bases = rng.uniform(0.2, 2.0, self.STEPS)
        weights = rng.uniform(0.1, 1.0, self.ROWS)
        # per-coordinate variances, step by step
        var = bases[:, None] * np.broadcast_to(ga.softplus(raws),
                                               (self.STEPS, self.D))
        stats = np.concatenate([spec.stats(delta) for delta in deltas],
                               axis=1)
        return (spec, deltas, stats, raws, np.repeat(bases, spec.n_params),
                weights, var)

    @pytest.mark.parametrize("kind", list(CLASSES))
    def test_log_density_is_scipys(self, kind):
        spec, deltas, stats, raws, bases, _, var = self.case(kind)
        got = spec.log_density(stats, raws.ravel(), bases)
        want = np.sum(sps.norm.logpdf(deltas, scale=np.sqrt(var)[:, None]),
                      axis=(0, 2))
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("kind", list(CLASSES))
    def test_weighted_grad_is_the_residual_formula(self, kind):
        # d/draw sum_b w_b log N(delta_b) with Sigma = base * softplus(raw)
        spec, deltas, stats, raws, bases, weights, var = self.case(kind)
        got = spec.weighted_grad(stats, raws.ravel(), bases, weights)
        # per coordinate: w . (delta^2 / (2 v) - 1/2) / eta, times sigmoid
        per_coord = np.einsum("b,nbd->nd", weights,
                              deltas * deltas / (2.0 * var[:, None])
                              - 0.5)
        if kind == "isotropic":
            per_coord = np.sum(per_coord, axis=1, keepdims=True)
        want = (per_coord / ga.softplus(raws) * sigmoid(raws)).ravel()
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("kind", list(CLASSES))
    def test_moment_match_is_the_residual_second_moment(self, kind):
        spec, deltas, stats, _, bases, _, _ = self.case(kind)
        eta = ga.softplus(spec.moment_match(stats, bases))
        second = np.mean(deltas * deltas, axis=1)            # (N, d)
        if kind == "isotropic":
            second = np.mean(second, axis=1, keepdims=True)
        want = (second / bases.reshape(self.STEPS, -1)).ravel()
        assert np.max(np.abs(eta - want)) <= 1e-12 * np.max(np.abs(want))


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
    def test_inverse_round_trip(self):
        # 82 values in [1e-6, 1e4]: every decade with both ends, the
        # switch of softplus_inv at 20 from both sides, and uniform draws
        rng = np.random.default_rng(seed_of("softplus", "round trip"))
        ys = np.concatenate([np.geomspace(1e-6, 1e4, 40),
                             [np.nextafter(20.0, 0.0), 20.0],
                             rng.uniform(1e-6, 1e4, 40)])
        for y in ys:
            assert float(ga.softplus(ga.softplus_inv(y))) == pytest.approx(
                y, rel=1e-9)

    def test_positive_for_any_input(self):
        z = np.linspace(-40, 40, 401)
        assert np.all(ga.softplus(z) > 0)
