import numpy as np
import pytest

from vtdis import denoisers as dn
from vtdis import diffusion as df
from vtdis import equivariant as eq
from vtdis import gaussians as ga
from vtdis import targets as tg
from vtdis import tuner as tu
from vtdis.schedule import karras_grid

GRID = karras_grid(5, 1e-3, 10.0, 7.0)
BASES = np.array([GRID.ddpm_var(n) for n in range(1, GRID.n_steps + 1)])
# float64 rounding of a sum over at most a few hundred terms, with margin
REL = 1e-12


def ambient_problem():
    gmm = tg.two_mode_gmm(3)
    return gmm, dn.AnalyticGmmScore(gmm), None, None


def subspace_problem():
    target = tg.DoubleWell()
    model = dn.RadialDenoiser(target.n_particles, target.spatial_dim, [8],
                              1.0, np.random.default_rng(2))
    proj = eq.ComProjection(target.n_particles, target.spatial_dim)
    return target, model, proj, np.array([0, 1, 0, 1])


def draw_x0(target, proj, count, rng):
    if proj is None:
        return target.sample(rng, count)
    x = 2.0 * rng.standard_normal((count, target.dim))
    return eq.com_project(x, proj)


# every TUNABLE_KINDS entry, on each space where it is defined
CASES = [("isotropic", "ambient"), ("diagonal", "ambient"),
         ("full", "ambient"), ("isotropic", "subspace"),
         ("label_diag", "subspace")]


def test_cases_cover_every_tunable_kind():
    assert {kind for kind, _ in CASES} == set(tu.TUNABLE_KINDS)


def make_case(kind, space, seed=0, count=24):
    rng = np.random.default_rng(seed)
    if space == "ambient":
        target, model, proj, labels = ambient_problem()
        spec = tu.make_param_spec(kind, dim=model.dim)
    else:
        target, model, proj, labels = subspace_problem()
        spec = tu.make_param_spec(kind, dim=proj.subspace_dim, proj=proj,
                                  labels=labels)
    x0 = draw_x0(target, proj, count, rng)
    batch = df.forward_residuals(rng, x0, model, GRID, proj)
    log_pi = np.asarray(target.log_density(x0), dtype=float)
    raws = (np.tile(spec.init(), (GRID.n_steps, 1))
            + 0.3 * rng.standard_normal((GRID.n_steps, spec.n_params)))
    return batch, spec, raws, log_pi


def loop_log_weights(batch, spec, raws, bases, log_pi):
    """log w with one per-step spec call per step (the unstacked form)."""
    log_p_steps = np.zeros(batch.count)
    for n in range(batch.n_steps):
        log_p_steps += spec.log_density(batch.deltas[n], raws[n], bases[n])
    return log_pi + batch.log_q_cond - batch.log_prior - log_p_steps


def loop_loss_and_gradient(batch, spec, raws, bases, log_pi, objective):
    lw = loop_log_weights(batch, spec, raws, bases, log_pi)
    if objective == "alpha2":
        loss = ga.logsumexp(lw) - np.log(batch.count)
        weights = ga.softmax_from_log(lw)
    else:
        loss = np.mean(lw)
        weights = np.full(batch.count, 1.0 / batch.count)
    grad = np.stack([-spec.weighted_grad(batch.deltas[n], raws[n], bases[n],
                                         weights)
                     for n in range(batch.n_steps)])
    return loss, grad, lw


def assert_close(got, want, rel=REL):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= rel * np.max(np.abs(want))


class TestStackedObjective:
    @pytest.mark.parametrize("kind,space", CASES)
    @pytest.mark.parametrize("objective", ["alpha2", "kl"])
    def test_matches_per_step_loop(self, kind, space, objective):
        batch, spec, raws, log_pi = make_case(kind, space)
        loss, grad, lw = tu.loss_and_gradient(batch, spec, raws, BASES,
                                              log_pi, objective)
        want = loop_loss_and_gradient(batch, spec, raws, BASES, log_pi,
                                      objective)
        assert_close(loss, want[0])
        assert_close(grad, want[1])
        assert_close(lw, want[2])
        assert_close(tu.batch_log_weights(batch, spec, raws, BASES, log_pi),
                     want[2])

    @pytest.mark.parametrize("kind,space", CASES)
    def test_spec_step_axis_rows_are_per_step_calls(self, kind, space):
        batch, spec, raws, _ = make_case(kind, space, seed=1)
        weights = np.random.default_rng(3).uniform(0.1, 1.0, batch.count)
        dens = spec.log_density(batch.deltas, raws, BASES)
        grads = spec.weighted_grad(batch.deltas, raws, BASES, weights)
        assert dens.shape == (batch.n_steps, batch.count)
        assert grads.shape == raws.shape
        for n in range(batch.n_steps):
            assert_close(dens[n], spec.log_density(batch.deltas[n], raws[n],
                                                   BASES[n]))
            assert_close(grads[n], spec.weighted_grad(
                batch.deltas[n], raws[n], BASES[n], weights))

    @pytest.mark.parametrize("kind,space", CASES)
    def test_underflowed_variance_is_rejected(self, kind, space):
        # softplus(-800) is 0: a named error, stacked or per step, not NaN
        batch, spec, raws, _ = make_case(kind, space, seed=4)
        raws[2] = -800.0
        with pytest.raises(ValueError, match="positive"):
            spec.log_density(batch.deltas, raws, BASES)
        with pytest.raises(ValueError, match="positive"):
            spec.log_density(batch.deltas[2], raws[2], BASES[2])

    @pytest.mark.parametrize("kind,space", CASES)
    @pytest.mark.parametrize("objective", ["alpha2", "kl"])
    def test_gradient_matches_finite_differences(self, kind, space,
                                                 objective):
        batch, spec, raws, log_pi = make_case(kind, space, seed=2, count=12)
        _, grad, _ = tu.loss_and_gradient(batch, spec, raws, BASES, log_pi,
                                          objective)
        h = 1e-6
        for idx in np.ndindex(*raws.shape):
            up, dn_ = raws.copy(), raws.copy()
            up[idx] += h
            dn_[idx] -= h
            fd = (tu.loss_and_gradient(batch, spec, up, BASES, log_pi,
                                       objective)[0]
                  - tu.loss_and_gradient(batch, spec, dn_, BASES, log_pi,
                                         objective)[0]) / (2 * h)
            assert grad[idx] == pytest.approx(fd, rel=1e-5, abs=1e-7)


def loop_forward_residuals(rng, x0, model, grid, proj):
    """Forward noising written out step by step, with log q taken from
    the explicit isotropic Gaussian formula."""
    d = x0.shape[1] if proj is None else proj.subspace_dim
    deltas = np.empty((grid.n_steps,) + x0.shape)
    log_q = np.zeros(x0.shape[0])
    x = x0
    for n in range(1, grid.n_steps + 1):
        var = grid.forward_var(n)
        z = rng.standard_normal(x0.shape)
        if proj is not None:
            z = eq.com_project(z, proj)
        x_next = x + np.sqrt(var) * z
        step = x_next - x
        log_q += (-0.5 * d * np.log(2 * np.pi * var)
                  - 0.5 * np.sum(step * step, axis=1) / var)
        mean, _ = df.ddpm_posterior(x_next, model.denoise(x_next,
                                                          grid.times[n]),
                                    n, grid)
        deltas[n - 1] = x - mean
        x = x_next
    t2 = grid.t_max ** 2
    log_prior = (-0.5 * d * np.log(2 * np.pi * t2)
                 - 0.5 * np.sum(x * x, axis=1) / t2)
    return deltas, log_q, log_prior


@pytest.mark.parametrize("space", ["ambient", "subspace"])
def test_forward_residuals_match_step_loop(space):
    problem = ambient_problem if space == "ambient" else subspace_problem
    target, model, proj, _ = problem()
    x0 = draw_x0(target, proj, 16, np.random.default_rng(4))
    batch = df.forward_residuals(np.random.default_rng(5), x0, model, GRID,
                                 proj)
    deltas, log_q, log_prior = loop_forward_residuals(
        np.random.default_rng(5), x0, model, GRID, proj)
    assert np.array_equal(batch.deltas, deltas)
    assert_close(batch.log_q_cond, log_q)
    assert_close(batch.log_prior, log_prior)


@pytest.mark.parametrize("space", ["ambient", "subspace"])
def test_tune_replays_bit_for_bit(space):
    problem = ambient_problem if space == "ambient" else subspace_problem
    target, model, proj, labels = problem()
    kind = "diagonal" if space == "ambient" else "label_diag"
    config = tu.TunerConfig(iterations=6, batch_size=16, lr=0.1)
    data = draw_x0(target, proj, 64, np.random.default_rng(6))
    runs = [tu.tune(np.random.default_rng(7), model, target, GRID, kind,
                    config, data=data, proj=proj, labels=labels)
            for _ in range(2)]
    assert np.array_equal(runs[0].raws, runs[1].raws)
    assert np.array_equal(runs[0].loss_curve, runs[1].loss_curve)
    assert not np.array_equal(runs[0].raws,
                              np.tile(runs[0].spec.init(),
                                      (GRID.n_steps, 1)))
