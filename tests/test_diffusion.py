import re
import tracemalloc

import numpy as np
import pytest

from vtdis import denoisers as dn
from vtdis import diffusion as df
from vtdis import equivariant as eq
from vtdis import gaussians as ga
from vtdis import metrics as mt
from vtdis import pfode as pf
from vtdis import targets as tg
from vtdis import tuner as tu
from vtdis.schedule import karras_grid

GRID = karras_grid(6, 1e-3, 10.0, 7.0)


def ambient_case():
    """Analytic GMM score with tuned-looking diagonal kernels."""
    model = dn.AnalyticGmmScore(tg.two_mode_gmm(3))
    etas = np.random.default_rng(1).uniform(0.5, 2.0, (GRID.n_steps, 3))
    return model, (ga.DiagonalParams(3), GRID.ddpm_vars[:, None] * etas), None


def com_case():
    """Radial network on DW-4's zero-CoM subspace, isotropic kernels."""
    target = tg.DoubleWell()
    model = dn.RadialDenoiser(target.n_particles, target.spatial_dim, [8],
                              1.0, np.random.default_rng(2))
    proj = eq.ComProjection(target.n_particles, target.spatial_dim)
    etas = 0.5 + 0.1 * np.arange(1, GRID.n_steps + 1)
    spec = ga.IsotropicParams(proj.subspace_dim)
    return model, (spec, (GRID.ddpm_vars * etas)[:, None]), proj


CASES = {"ambient": ambient_case, "com": com_case}


@pytest.mark.parametrize("case", list(CASES))
def test_trajectory_matches_batch_of_one(case):
    model, proposal, proj = CASES[case]()
    traj = df.reverse_sample_trajectory(np.random.default_rng(5), model,
                                        proposal, GRID, proj)
    x0, log_q, log_p = df.reverse_sample_batch(np.random.default_rng(5),
                                               model, proposal, GRID, 1, proj)
    assert np.array_equal(traj.states[0], x0[0])
    assert traj.log_q_cond == log_q[0]
    assert traj.log_p_joint == log_p[0]


@pytest.mark.parametrize("case", list(CASES))
def test_stored_densities_match_recompute(case):
    model, proposal, proj = CASES[case]()
    rng = np.random.default_rng(6)
    for _ in range(3):
        traj = df.reverse_sample_trajectory(rng, model, proposal, GRID, proj)
        log_q, log_p = df.recompute_log_densities(traj, model, proposal, proj)
        assert log_q == pytest.approx(traj.log_q_cond, rel=0, abs=1e-10)
        assert log_p == pytest.approx(traj.log_p_joint, rel=0, abs=1e-10)
        if proj is not None:
            assert np.max(proj.com_norm(traj.states)) < 1e-12


def loop_reverse_sample(rng, model, proposal, grid, count, proj):
    """The reverse sampler written out step by step: the prior draw, the
    textbook mean r x + (1 - r) D(x, t_n), x_prev = mean + sqrt(v) z, and
    both densities from the explicit Gaussian formulas."""
    spec, variances = proposal
    d = model.dim if proj is None else proj.subspace_dim

    def unit_normals():
        z = rng.standard_normal((count, model.dim))
        return z if proj is None else eq.com_project(z, proj)

    def iso_logpdf(delta, var):
        return (-0.5 * d * np.log(2.0 * np.pi * var)
                - 0.5 * np.sum(delta * delta, axis=1) / var)

    x = grid.t_max * unit_normals()
    log_p = iso_logpdf(x, grid.t_max ** 2)
    log_q = np.zeros(count)
    for n in range(grid.n_steps, 0, -1):
        r = grid.mean_ratios[n - 1]
        mean = r * x + (1.0 - r) * model.denoise(x, grid.times[n])
        var = variances[n - 1]
        x_prev = mean + np.sqrt(var) * unit_normals()
        delta = x_prev - mean
        if spec.n_params == 1:
            log_p += iso_logpdf(delta, var[0])
        else:
            log_p += np.sum(-0.5 * np.log(2.0 * np.pi * var)
                            - 0.5 * delta * delta / var, axis=1)
        log_q += iso_logpdf(x - x_prev, grid.forward_vars[n - 1])
        x = x_prev
    return x, log_q, log_p


@pytest.mark.parametrize("case", list(CASES))
def test_reverse_sampler_matches_the_step_loop(case):
    # the ambient diagonal case on the analytic GMM, and the isotropic
    # zero-CoM case on the radial backend
    model, proposal, proj = CASES[case]()
    got = df.reverse_sample_batch(np.random.default_rng(31), model, proposal,
                                  GRID, 64, proj)
    want = loop_reverse_sample(np.random.default_rng(31), model, proposal,
                               GRID, 64, proj)
    assert np.array_equal(got[0], want[0])
    for g, w in zip(got[1:], want[1:]):
        assert np.max(np.abs(g - w)) <= 1e-12 * np.max(np.abs(w))


def read_only(x):
    x = np.array(x, dtype=float)
    x.flags.writeable = False
    return x


@pytest.mark.parametrize("case", list(CASES))
def test_callers_never_write_their_inputs(case):
    # each caller finishes its updates in the buffers its model queries
    # return, so a read-only input must never be written
    model, proposal, proj = CASES[case]()
    target = model.gmm if proj is None else tg.DoubleWell()
    learned = (dn.VectorDenoiser(model.dim, [6], 1.0,
                                 np.random.default_rng(32))
               if proj is None else model)
    rng = np.random.default_rng(33)
    x0 = read_only(eq.normals(rng, (12, model.dim), proj))
    pf.heun_integrate(read_only(GRID.t_max * x0), model, GRID,
                      pf.OdeRunConfig(), rng, proj)
    df.forward_residuals(rng, x0, model, GRID, proj,
                         consume=lambda n, delta: None)
    mt.elbo_eubo(rng, x0, model, proposal, GRID, 2, proj, repeats=1)
    kind = "diagonal" if proj is None else "isotropic"
    tu.tune(rng, model, target, GRID, kind,
            tu.TunerConfig(iterations=3, batch_size=4), data=x0, proj=proj)
    dn.train_dsm(rng, x0, learned, dn.TrainConfig(iterations=3,
                                                  batch_size=4))


def wrong_count(proposal, extra):
    """The proposal with ``extra`` steps appended (> 0) or dropped (< 0)."""
    spec, variances = proposal
    if extra > 0:
        return spec, np.concatenate([variances, variances[:extra]])
    return spec, variances[:extra]


@pytest.mark.parametrize("extra", [2, -2])
def test_recompute_rejects_wrong_covariance_count(extra):
    model, proposal, proj = com_case()
    traj = df.reverse_sample_trajectory(np.random.default_rng(7), model,
                                        proposal, GRID, proj)
    wrong = wrong_count(proposal, extra)
    with pytest.raises(ValueError, match="step covariances"):
        df.recompute_log_densities(traj, model, wrong, proj)


@pytest.mark.parametrize("extra", [2, -2])
def test_elbo_eubo_rejects_wrong_covariance_count(extra):
    model, proposal, proj = com_case()
    x0 = eq.com_project(np.random.default_rng(8).standard_normal((2, 8)),
                        proj)
    wrong = wrong_count(proposal, extra)
    with pytest.raises(ValueError, match="step covariances"):
        mt.elbo_eubo(np.random.default_rng(9), x0, model, wrong, GRID,
                     inner=2, proj=proj)


@pytest.mark.parametrize("variances", ["one column", "flat", "per step"])
@pytest.mark.parametrize("caller", ["reverse_sample_batch",
                                    "forward_log_weights"])
def test_wrongly_shaped_variances_are_named(caller, variances):
    # a diagonal spec on three coordinates with one variance per step
    # sampled every coordinate at it, while its density failed in numpy
    # with an unnamed matmul error
    model, (spec, good), _ = ambient_case()
    wrong = {"one column": good[:, :1], "flat": good[:, 0],
             "per step": good[:1]}[variances]
    message = re.escape(f"need step covariances of shape {good.shape}, "
                        f"got shape {wrong.shape}")
    rng = np.random.default_rng(14)
    with pytest.raises(ValueError, match=message):
        if caller == "reverse_sample_batch":
            df.reverse_sample_batch(rng, model, (spec, wrong), GRID, 4)
        else:
            mt.forward_log_weights(rng, np.zeros((4, 3)), model,
                                   (spec, wrong), GRID)


def test_elbo_eubo_needs_a_repeat():
    # with no repeat, the bounds were NaN means of empty lists; a float
    # count failed inside numpy with a TypeError that named nothing; a
    # (0, d) batch gave NaN bounds and "Mean of empty slice" warnings, or
    # on the subspace a numpy error about a zero-size reduction
    model, proposal, proj = com_case()
    x0 = eq.com_project(np.random.default_rng(8).standard_normal((2, 8)),
                        proj)
    for rows, inner, repeats, message in [
            (2, 2, 0, "repeats must be an integer >= 1, got 0"),
            (2, 2, 1.5, "repeats must be an integer >= 1, got 1.5"),
            (2, 1, 1, "inner must be an integer >= 2, got 1"),
            (2, 2.5, 1, "inner must be an integer >= 2, got 2.5"),
            (0, 2, 1, "x0 rows must be an integer >= 1, got 0")]:
        with pytest.raises(ValueError, match=re.escape(message)):
            mt.elbo_eubo(np.random.default_rng(9), x0[:rows], model,
                         proposal, GRID, inner=inner, proj=proj,
                         repeats=repeats)


@pytest.mark.parametrize("bad,name", [(np.nan, "NaN"), (-np.inf, r"\+inf")])
def test_elbo_eubo_names_a_nonfinite_log_weight(bad, name, monkeypatch):
    # R = -log w: a NaN, or a zero weight (R = +inf), made a NaN upper
    # bound before its weights came from logsumexp's checks
    model, proposal, proj = com_case()
    x0 = eq.com_project(np.random.default_rng(8).standard_normal((2, 8)),
                        proj)
    log_w = np.zeros(4)
    log_w[1] = bad
    monkeypatch.setattr(mt, "forward_log_weights", lambda *a: log_w)
    with pytest.raises(ValueError, match=f"logsumexp: {name} in input"):
        mt.elbo_eubo(np.random.default_rng(9), x0, model, proposal, GRID,
                     inner=2, proj=proj, repeats=1)


def test_x0_off_the_subspace_is_rejected():
    # shifting every particle by 1.0 leaves the zero-CoM subspace, where
    # the forward kernels and the prior are normalised
    model, proposal, proj = com_case()
    x0 = eq.com_project(np.random.default_rng(10).standard_normal((3, 8)),
                        proj) + 1.0
    with pytest.raises(ValueError, match="off the zero-CoM subspace"):
        df.forward_residuals(np.random.default_rng(11), x0, model, GRID, proj,
                             consume=lambda n, delta: None)
    with pytest.raises(ValueError, match="off the zero-CoM subspace"):
        mt.elbo_eubo(np.random.default_rng(11), x0, model, proposal, GRID,
                     inner=2, proj=proj)


def test_stored_state_off_the_subspace_is_rejected():
    # x_0 shifted by 1.0 puts the residual of step 1 off the zero-CoM
    # subspace; scored without a check it gives finite, wrong densities
    model, proposal, proj = com_case()
    traj = df.reverse_sample_trajectory(np.random.default_rng(12), model,
                                        proposal, GRID, proj)
    traj.states[0] += 1.0
    with pytest.raises(ValueError, match="off the zero-CoM subspace"):
        df.recompute_log_densities(traj, model, proposal, proj)


@pytest.mark.parametrize("given", [None, (2, 4)])
@pytest.mark.parametrize("caller", ["reverse_sample_batch", "elbo_eubo",
                                    "ode_is_weights"])
def test_a_particle_model_runs_only_on_its_own_geometry(caller, given):
    # without its projection, or on the subspace of another geometry of
    # the same ambient dimension, the radial model of DW-4 drew and
    # weighted another problem's paths, with finite weights
    target = tg.DoubleWell()
    model = dn.RadialDenoiser(4, 2, [8], 1.0, np.random.default_rng(2))
    proj = None if given is None else eq.ComProjection(*given)
    dim = model.dim if proj is None else proj.subspace_dim
    proposal = (ga.IsotropicParams(dim), GRID.ddpm_vars[:, None])
    rng = np.random.default_rng(3)
    calls = {
        "reverse_sample_batch": lambda: df.reverse_sample_batch(
            rng, model, proposal, GRID, 4, proj),
        "elbo_eubo": lambda: mt.elbo_eubo(
            rng, np.zeros((2, 8)), model, proposal, GRID, inner=2,
            proj=proj),
        "ode_is_weights": lambda: pf.ode_is_weights(
            rng, model, target, GRID, pf.OdeRunConfig("hutchinson"), 4,
            proj),
    }
    with pytest.raises(ValueError, match=re.escape(
            f"(n_particles, spatial_dim) is (4, 2), the projection's {given}")):
        calls[caller]()


@pytest.mark.parametrize("states", ["prefix", "one column short"])
def test_recompute_rejects_states_that_do_not_fit_the_grid(states):
    # five of the seven rows of a 6-step path were scored as the path of
    # a 4-step prefix: finite densities of another path, and no error
    model, proposal, proj = ambient_case()
    traj = df.reverse_sample_trajectory(np.random.default_rng(12), model,
                                        proposal, GRID, proj)
    traj.states = (traj.states[:5] if states == "prefix"
                   else traj.states[:, :2])
    with pytest.raises(ValueError, match=re.escape(
            f"need trajectory states of shape (7, 3) for its grid, got "
            f"shape {traj.states.shape}")):
        df.recompute_log_densities(traj, model, proposal, proj)


@pytest.mark.parametrize("count", [0, -1, True, 2.5])
def test_reverse_sampler_needs_a_trajectory(count):
    # count=0 returned empty arrays and -1 failed in numpy; True and 2.5
    # failed inside numpy with a TypeError that named nothing
    model, proposal, proj = ambient_case()
    with pytest.raises(ValueError, match=re.escape(
            f"count must be an integer >= 1, got {count!r}")):
        df.reverse_sample_batch(np.random.default_rng(13), model, proposal,
                                GRID, count, proj)


def step_kernel(kind, space):
    """A kernel of ``kind`` on three coordinates: ambient, or on the
    zero-CoM subspace of three particles on a line, where the zero mean
    lies."""
    if space == "ambient":
        spec, proj = tu.make_param_spec(kind, 3), None
    else:
        proj = eq.ComProjection(3, 1)
        spec = tu.make_param_spec(kind, proj.subspace_dim, proj)
    return df.StepKernel(spec, np.full(spec.n_params, 0.5), proj)


@pytest.mark.parametrize("method", ["logpdf", "sample"])
@pytest.mark.parametrize("kind,space", [("isotropic", "ambient"),
                                        ("diagonal", "ambient"),
                                        ("isotropic", "subspace")],
                         ids=["isotropic", "diagonal", "subspace"])
def test_step_kernel_takes_only_batches(kind, space, method):
    kernel = step_kernel(kind, space)
    rng = np.random.default_rng(13)
    point = np.zeros(3)
    if method == "logpdf":
        with pytest.raises(ValueError, match="batch"):
            kernel.logpdf(point)
        with pytest.raises(ValueError, match="batch"):
            kernel.logpdf(np.zeros((1, 4)))
        assert kernel.logpdf(point[None]).shape == (1,)
    else:
        with pytest.raises(ValueError, match="batch"):
            kernel.sample(rng, point)
        x, log_p = kernel.sample(rng, point[None])
        assert x.shape == (1, 3) and log_p.shape == (1,)


def test_step_kernel_names_a_wrongly_shaped_variance_row():
    # a diagonal kernel built by hand with one variance sampled every
    # coordinate at it, while its logpdf failed in numpy with an unnamed
    # matmul error
    with pytest.raises(ValueError, match=re.escape(
            "need step variances of shape (3,), got shape (1,)")):
        df.StepKernel(ga.DiagonalParams(3), np.array([0.5]))


def test_a_spec_for_the_wrong_space_is_named():
    # an ambient spec on DW-4's subspace would normalise over 8
    # coordinates where the draws have 6; the recompute check shares that
    # normaliser, so it cannot see the error.  A diagonal spec's
    # per-coordinate draws would leave the subspace; it failed in numpy
    # with a broadcast error that named nothing
    model, _, _ = com_case()
    for spec, message in [
            (ga.IsotropicParams(8),
             "a spec of dimension 8 on a subspace of dimension 6"),
            (ga.DiagonalParams(6), "only isotropic covariance is defined "
                                   "on the zero-CoM subspace")]:
        proposal = (spec, np.repeat(GRID.ddpm_vars[:, None], spec.n_params,
                                    axis=1))
        with pytest.raises(ValueError, match=re.escape(message)):
            df.reverse_sample_batch(np.random.default_rng(0), model,
                                    proposal, GRID, 4, tg.DoubleWell().proj)


# the smallest step variance of the benchmark's grid, where a residual
# rebuilt as x - mean loses the most digits of the normals that made it
SMALLEST_VAR = float(karras_grid(32, 1e-3, 10.0, 7.0).ddpm_vars.min())


@pytest.mark.parametrize("var", [SMALLEST_VAR, 1e-2, 1.0])
@pytest.mark.parametrize("kind,space", [("isotropic", "ambient"),
                                        ("diagonal", "ambient"),
                                        ("isotropic", "subspace")],
                         ids=["isotropic", "diagonal", "subspace"])
def test_draw_density_matches_the_scorer(kind, space, var):
    # ``sample`` scores its draws from their normals, ``logpdf`` from the
    # residuals x - mean; diagonal is ambient only
    base = step_kernel(kind, space)
    rng = np.random.default_rng(15)
    kernel = df.StepKernel(base.spec, var * rng.uniform(
        1.0, 3.0, base.spec.n_params), base.proj)
    mean = rng.standard_normal((1000, 3))
    if kernel.proj is not None:
        mean = eq.com_project(mean, kernel.proj)
    x, log_p = kernel.sample(rng, mean)
    want = kernel.logpdf(x - mean)
    # relative to the two terms a density sums, its value at the mean and
    # the quadratic, as the density itself can pass through zero
    at_mean = kernel.logpdf(np.zeros_like(mean))
    scale = np.abs(at_mean) + np.abs(want - at_mean)
    assert np.max(np.abs(log_p - want) / scale) <= 1e-12


class NanAtStep:
    """The denoiser of ``model``, but NaN in one entry at ``grid.times[n]``,
    the noise level at which the reverse samplers call it for step n."""

    def __init__(self, model, t):
        self.model, self.dim, self.t = model, model.dim, t

    def denoise(self, x, t):
        out = np.array(self.model.denoise(x, t))
        if t == self.t:
            out[-1, 0] = np.nan
        return out


@pytest.mark.parametrize("caller", ["batch", "trajectory", "recompute",
                                    "elbo_eubo", "tune"])
def test_a_nan_from_the_denoiser_names_its_step(caller):
    # every path centres its steps on the reverse mean, so a NaN
    # prediction stops every caller; on forward paths and stored ones the
    # bounds and the recomputed proposal density were NaN, and the tuner
    # blamed its variances
    clean, proposal, proj = ambient_case()
    model = NanAtStep(clean, GRID.times[3])
    gmm = clean.gmm
    rng = np.random.default_rng(16)
    calls = {
        "batch": lambda: df.reverse_sample_batch(rng, model, proposal, GRID,
                                                 4, proj),
        "trajectory": lambda: df.reverse_sample_trajectory(
            rng, model, proposal, GRID, proj),
        "recompute": lambda: df.recompute_log_densities(
            df.reverse_sample_trajectory(rng, clean, proposal, GRID, proj),
            model, proposal, proj),
        "elbo_eubo": lambda: mt.elbo_eubo(rng, gmm.sample(rng, 4), model,
                                          proposal, GRID, inner=2, proj=proj),
        "tune": lambda: tu.tune(rng, model, gmm, GRID, "diagonal",
                                tu.TunerConfig(iterations=2, batch_size=4),
                                data=gmm.sample(rng, 8)),
    }
    with pytest.raises(FloatingPointError,
                       match="denoiser produced NaN at step 3"):
        calls[caller]()


class TestUnbiasedWeights:
    """E_p[w] = Z for any proposal whose draws and densities agree: on the
    normalised two-mode GMM (Z = 1) the mean of w = exp(log w) must lie
    within 4 standard errors of 1.  The SE is taken across seeds, each
    seed's figure being its batch mean of w.  log Z-hat is biased low by
    Jensen's inequality, so the test is on w itself."""

    GRID = karras_grid(8, 0.2, 10.0, 7.0)
    SEEDS, COUNT = 32, 1024

    def proposals(self, gmm, model):
        spec = ga.IsotropicParams(gmm.dim)
        tuned = tu.tune(np.random.default_rng(0), model, gmm, self.GRID,
                        "diagonal", tu.TunerConfig(iterations=50,
                                                   batch_size=64, lr=0.1),
                        data=gmm.sample(np.random.default_rng(1), 4096))
        assert np.all(tuned.variances != self.GRID.ddpm_vars[:, None])
        return {"baseline": (spec, self.GRID.ddpm_vars[:, None]),
                "tuned": tuned.covariances()}

    @pytest.mark.parametrize("which", ["baseline", "tuned"])
    def test_mean_weight_is_one(self, which):
        gmm = tg.two_mode_gmm(2)
        model = dn.AnalyticGmmScore(gmm)
        proposal = self.proposals(gmm, model)[which]
        means = []
        for seed in range(self.SEEDS):
            x0, log_q, log_p = df.reverse_sample_batch(
                np.random.default_rng(seed), model, proposal, self.GRID,
                self.COUNT)
            means.append(np.mean(np.exp(gmm.log_density(x0) + log_q
                                        - log_p)))
        se = np.std(means, ddof=1) / np.sqrt(self.SEEDS)
        assert se < 0.05          # enough power to see a bias of 20%
        assert abs(np.mean(means) - 1.0) < 4.0 * se


class TestWeightFailurePaths:
    def log_weights(self):
        """Log weights of LJ-13 configurations, the last of which has two
        coincident particles and so zero target density."""
        lj = tg.LennardJones()
        x0 = 1.5 * np.random.default_rng(12).standard_normal((5, lj.dim))
        x0[-1, 3:6] = x0[-1, 0:3]
        log_pi = lj.log_density(eq.com_project(x0, eq.ComProjection(13, 3)))
        assert np.all(np.isfinite(log_pi[:-1])) and log_pi[-1] == -np.inf
        # a shift keeps the finite weights in range; it cancels in the ESS
        return log_pi - np.max(log_pi[:-1])

    def test_zero_weight_counts_in_n(self):
        lw = self.log_weights()
        w = np.exp(lw)
        assert w[-1] == 0.0
        want_ess = np.sum(w) ** 2 / (len(w) * np.sum(w * w))
        assert mt.reverse_ess(lw) == pytest.approx(want_ess, rel=1e-12)
        assert mt.reverse_ess(lw) < mt.reverse_ess(lw[:-1])
        assert mt.estimate_log_Z(lw) == pytest.approx(
            np.log(np.sum(w) / len(w)), rel=1e-12)

    def test_nan_log_weight_raises(self):
        lw = self.log_weights()
        lw[0] = np.nan
        with pytest.raises(ValueError):
            mt.reverse_ess(lw)
        with pytest.raises(ValueError):
            mt.estimate_log_Z(lw)

    @pytest.mark.parametrize("estimator", [mt.reverse_ess, mt.estimate_log_Z])
    def test_empty_log_weights_raise(self, estimator):
        with pytest.raises(ValueError, match="no log weights"):
            estimator(np.array([]))

    @pytest.mark.parametrize("shape", [(4, 2), ()], ids=["2-D", "0-D"])
    @pytest.mark.parametrize("estimator", [mt.reverse_ess, mt.estimate_log_Z])
    def test_log_weights_not_1d_raise(self, estimator, shape):
        # (4, 2) zeros counted 4 weights and summed 8: an ESS fraction of
        # 2.0 and a log Z of log 2 where every weight is 1
        with pytest.raises(ValueError, match=re.escape(
                f"need 1-D log weights, got shape {shape}")):
            estimator(np.zeros(shape))


def heldout_peak_bytes(n_steps):
    """``tracemalloc`` peak of the benchmark's gmm10 held-out stage, 1024
    points x 8 forward paths at the diagonal kind, on ``n_steps`` steps."""
    gmm = tg.two_mode_gmm(10)
    grid = karras_grid(n_steps, 1e-3, 10.0, 7.0)
    spec = ga.DiagonalParams(gmm.dim)
    proposal = (spec, np.repeat(grid.ddpm_vars[:, None], spec.n_params,
                                axis=1))
    x0 = gmm.sample(np.random.default_rng(13), 1024)
    tracemalloc.start()
    try:
        mt.elbo_eubo(np.random.default_rng(14), x0, dn.AnalyticGmmScore(gmm),
                     proposal, grid, inner=8, repeats=1)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_heldout_bound_holds_no_path():
    # the bound is scored step by step as the paths are noised, so its
    # memory is O(B d) whatever N is: far below the (33, 8192, 10) path,
    # and flat from 32 to 64 steps.  A stacked path peaked at 24.5 MiB on
    # 32 steps and 47.5 MiB on 64; streamed, both read 5.0 MiB.
    path_bytes = 33 * 8192 * 10 * 8
    peak = heldout_peak_bytes(32)
    assert peak < path_bytes / 3
    assert heldout_peak_bytes(64) < 1.1 * peak
