"""Probability-flow ODE: oracles for the flow and the divergence, and the
fused one-pass-per-node path against separate calls."""

import copy
import re

import numpy as np
import pytest

from vtdis import denoisers as dn
from vtdis import diffusion as df
from vtdis import equivariant as eq
from vtdis import pfode as pf
from vtdis import targets as tg
from vtdis import tuner as tu
from vtdis.schedule import karras_grid
from vtdis.seeding import derive_rng

# the particle cases: 4 particles in the plane, as DW-4
M, SPATIAL = 4, 2
DIM = M * SPATIAL
PROJ = eq.ComProjection(M, SPATIAL)
P_DENSE = eq.com_project(np.eye(DIM), PROJ)
# orthonormal basis of the zero-CoM subspace, (M - 1) * SPATIAL rows
BASIS = PROJ.basis
GRID = karras_grid(4, 1e-3, 10.0, 7.0)

BACKENDS = {
    "gmm": lambda: dn.AnalyticGmmScore(tg.two_mode_gmm(DIM)),
    "vector": lambda: dn.VectorDenoiser(DIM, [12], 1.3,
                                        np.random.default_rng(11)),
    "radial": lambda: dn.RadialDenoiser(M, SPATIAL, [12, 8], 1.3,
                                        np.random.default_rng(12)),
}
CONFIGS = {
    "exact": pf.OdeRunConfig(divergence="exact"),
    "hutch1": pf.OdeRunConfig(divergence="hutchinson"),
}


# A learned backend runs its network in float32.  Its divergences are held
# to a float64 twin on the same weights within 1e-5 of the largest entry,
# about 84 float32 ulps (eps = 2^-23 = 1.19e-7); the float64 oracles are
# taken on the twin at their float64 tolerances.
F32_TOL = 1e-5


def float64_twin(model):
    """A learned ``model`` with its network run in float64, on the same
    weights; any other backend is its own reference."""
    if not isinstance(model, dn._Preconditioned):
        return model
    twin = copy.copy(model)
    twin.net_dtype = np.float64
    return twin


def points(count, seed=0):
    """Zero-CoM points, so every backend can run with or without PROJ."""
    x = np.random.default_rng(seed).standard_normal((count, DIM))
    return eq.com_project(x, PROJ)


def score(model, x, t):
    """The score alone, from the fused query along a zero tangent."""
    return model.score_and_jvp(x, t, np.zeros_like(x))[0]


def score_jvp(model, x, t, v):
    """Directional derivative of the score along one (B, d) tangent."""
    return model.score_and_jvp(x, t, v)[1]


def dense_jacobian(model, x, t):
    """(B, d, d) score Jacobian, one ``score_jvp`` per axis."""
    return np.stack([score_jvp(model, x, t, np.broadcast_to(e, x.shape))
                     for e in np.eye(x.shape[1])], axis=2)


# ---------------------------------------------------------------------------
# reference: the Heun loop with one score call and separate divergence calls
# at each step's start and predictor
# ---------------------------------------------------------------------------

def reference_divergence(model, x, t, config, rng, proj):
    if config.divergence == "exact":
        if proj is None and isinstance(model, dn.AnalyticGmmScore):
            return -t * model.score_and_div(x, t)[1]
        div = np.zeros(x.shape[0])
        if proj is None:
            for i, axis in enumerate(np.eye(DIM)):
                div += score_jvp(model, x, t,
                                 np.broadcast_to(axis, x.shape))[:, i]
        else:
            for u in BASIS:
                div += np.sum(u * score_jvp(
                    model, x, t, np.broadcast_to(u, x.shape)), axis=1)
        return -t * div
    v = pf.draw_probe(rng, x.shape)
    if proj is not None:
        v = eq.com_project(v, proj)
    return -t * np.sum(v * score_jvp(model, x, t, v), axis=1)


def reference_heun(x, model, grid, config, rng, proj):
    times = grid.times[::-1]

    def node(y, t):
        return (-t * score(model, y, t),
                reference_divergence(model, y, t, config, rng, proj))

    x2 = np.array(x, dtype=float)
    div_int = np.zeros(x2.shape[0])
    for t_cur, t_next in zip(times[:-1], times[1:]):
        t_cur, t_next = float(t_cur), float(t_next)
        h = t_next - t_cur
        f_cur, g_cur = node(x2, t_cur)
        x_pred = x2 + h * f_cur
        f_next, g_next = node(x_pred, t_next)
        x2 = x2 + 0.5 * h * (f_cur + f_next)
        div_int += 0.5 * h * (g_cur + g_next)
    return x2, div_int


@pytest.mark.parametrize("with_proj", [False, True])
@pytest.mark.parametrize("config", list(CONFIGS))
@pytest.mark.parametrize("backend", list(BACKENDS))
def test_fused_heun_matches_separate_calls_bit_for_bit(backend, config,
                                                       with_proj):
    model = BACKENDS[backend]()
    cfg = CONFIGS[config]
    proj = PROJ if with_proj else None
    x = GRID.t_max * points(5)
    got = pf.heun_integrate(x, model, GRID, cfg, np.random.default_rng(3),
                            proj)
    want = reference_heun(x, model, GRID, cfg, np.random.default_rng(3),
                          proj)
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])


@pytest.mark.parametrize("with_proj", [False, True])
@pytest.mark.parametrize("config", list(CONFIGS))
@pytest.mark.parametrize("backend", list(BACKENDS))
def test_one_evaluation_and_its_jvp_rows_per_point_and_node(backend, config,
                                                            with_proj):
    model = BACKENDS[backend]()
    cfg = CONFIGS[config]
    count = 5
    pf.heun_integrate(GRID.t_max * points(count), model, GRID, cfg,
                      np.random.default_rng(3), PROJ if with_proj else None)
    # two nodes per Heun step: its start and its predictor
    nodes = count * 2 * GRID.n_steps
    if cfg.divergence == "hutchinson":
        per_point = 1
    else:
        # one tangent pass per dimension of the space the trace is on
        per_point = PROJ.subspace_dim if with_proj else DIM
    assert model.eval_count == nodes
    assert model.jvp_count == nodes * per_point


# ---------------------------------------------------------------------------
# exact divergence
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("with_proj", [False, True])
@pytest.mark.parametrize("t", [0.01, 0.5, 3.0])
@pytest.mark.parametrize("backend", list(BACKENDS))
def test_exact_divergence_matches_dense_jacobian_trace(backend, t, with_proj):
    # one primal and one tangent pass per basis vector against the trace
    # of a Jacobian built column by column from separate calls, both on
    # the float64 reference; the sums run in another order, so the
    # tolerance is float64 rounding, and float32 rounding for the float32
    # network
    model = BACKENDS[backend]()
    ref = float64_twin(model)
    x = points(3)
    jac = dense_jacobian(ref, x, t)
    proj = PROJ if with_proj else None
    if with_proj:
        want = np.einsum("ij,bjk,ki->b", P_DENSE, jac, P_DENSE)
    else:
        want = np.trace(jac, axis1=1, axis2=2)
    for div, tol in [(ref, 1e-12), (model, F32_TOL)]:
        got = div.score_and_div(x, t, proj)[1]
        assert np.max(np.abs(got - want)) <= tol * np.max(np.abs(jac)) * DIM


@pytest.mark.parametrize("m,spatial", [(4, 2), (13, 3)])
def test_subspace_divergence_takes_one_jvp_row_per_subspace_dimension(
        m, spatial):
    # (M - 1) n tangent passes per point: 6 on DW-4 and 36 on LJ-13, where
    # the M n projected axes would take 8 and 39
    model = dn.RadialDenoiser(m, spatial, [12, 8], 1.3,
                              np.random.default_rng(13))
    ref = float64_twin(model)
    proj = eq.ComProjection(m, spatial)
    x = eq.com_project(np.random.default_rng(6).standard_normal(
        (3, m * spatial)), proj)
    jac = dense_jacobian(ref, x, 0.5)
    p_dense = eq.com_project(np.eye(m * spatial), proj)
    want = np.einsum("ij,bjk,ki->b", p_dense, jac, p_dense)
    for div, tol in [(ref, 1e-12), (model, F32_TOL)]:
        div.reset_counters()
        got = div.score_and_div(x, 0.5, proj)[1]
        assert div.jvp_count == 3 * (m - 1) * spatial
        assert np.max(np.abs(got - want)) <= \
            tol * np.max(np.abs(jac)) * m * spatial


@pytest.mark.parametrize("t", [0.01, 0.5, 3.0])
@pytest.mark.parametrize("backend", ["vector", "radial"])
def test_subspace_divergence_matches_finite_difference_trace(backend, t):
    # differences of the float64 reference; the float32 network's
    # divergence is held to that reference's
    model = BACKENDS[backend]()
    ref = float64_twin(model)
    x = points(2, seed=1)
    h = 1e-5 * max(1.0, t)
    jac = np.stack([(score(ref, x + h * e, t) - score(ref, x - h * e, t))
                    / (2 * h) for e in np.eye(DIM)], axis=2)
    want = np.einsum("ij,bjk,ki->b", P_DENSE, jac, P_DENSE)
    exact = ref.score_and_div(x, t, PROJ)[1]
    assert np.allclose(exact, want, rtol=1e-7, atol=1e-7 / t ** 2)
    got = model.score_and_div(x, t, PROJ)[1]
    assert np.max(np.abs(got - exact)) <= F32_TOL * np.max(np.abs(exact))


@pytest.mark.parametrize("t", [0.01, 0.5, 3.0])
def test_radial_ambient_trace_exceeds_subspace_by_com_skip_term(t):
    # the radial output has zero CoM, so along the n CoM directions the
    # score Jacobian is (c_skip - 1) / t^2 times the identity: within
    # float64 rounding for the float64 reference, and within float32
    # rounding of the traces for the float32 network
    model = BACKENDS["radial"]()
    ref = float64_twin(model)
    x = points(2, seed=2)
    c_skip = dn.precond_coeffs(t, model.sigma_data)[0]
    want = SPATIAL * (c_skip - 1.0) / t ** 2
    gap = ref.score_and_div(x, t)[1] - ref.score_and_div(x, t, PROJ)[1]
    assert np.allclose(gap, want, rtol=1e-9, atol=0.0)
    ambient = model.score_and_div(x, t)[1]
    gap = ambient - model.score_and_div(x, t, PROJ)[1]
    assert np.max(np.abs(gap - want)) <= F32_TOL * np.max(np.abs(ambient))


@pytest.mark.parametrize("t", [1e-3, 0.05, 1.0, 10.0])
def test_dw4_subspace_divergence_in_float32_is_float64_within_1e_5(t):
    # the PF-ODE's exact divergence at DW-4's geometry and the benchmark's
    # network width, across the grid's noise levels, from the float32
    # network and from its float64 twin on the same weights
    model = dn.RadialDenoiser(M, SPATIAL, [32, 32], 1.3,
                              np.random.default_rng(14))
    x = 2.0 * points(64, seed=3)
    want = float64_twin(model).score_and_div(x, t, PROJ)[1]
    got = model.score_and_div(x, t, PROJ)[1]
    assert np.max(np.abs(got - want)) <= F32_TOL * np.max(np.abs(want))


# ---------------------------------------------------------------------------
# Hutchinson estimate
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("with_proj", [False, True])
@pytest.mark.parametrize("dist", ["rademacher"])
@pytest.mark.parametrize("backend", ["gmm", "radial"])
def test_hutchinson_mean_matches_exact_divergence(backend, dist, with_proj):
    model = BACKENDS[backend]()
    proj = PROJ if with_proj else None
    x, t = points(3, seed=4), 0.7
    cfg = pf.OdeRunConfig(divergence="hutchinson")
    rng = np.random.default_rng(5)
    draws = np.stack([pf.divergence_estimate(model, x, t, cfg, rng, proj)[1]
                      for _ in range(1000)])
    exact = pf.divergence_estimate(model, x, t, CONFIGS["exact"], rng,
                                   proj)[1]
    se = np.std(draws, axis=0, ddof=1) / np.sqrt(draws.shape[0])
    assert np.all(se > 0)
    assert np.all(np.abs(draws.mean(axis=0) - exact) <= 4.0 * se)


# ---------------------------------------------------------------------------
# likelihood oracle
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("count", [0, -1, 2.5])
def test_ode_weights_need_a_sample(count):
    # count=0 failed only in the ESS, with "no log weights", and 2.5
    # inside numpy with a TypeError that named nothing
    model = BACKENDS["gmm"]()
    with pytest.raises(ValueError, match=re.escape(
            f"count must be an integer >= 1, got {count}")):
        pf.ode_is_weights(np.random.default_rng(0), model,
                          tg.two_mode_gmm(DIM), GRID, CONFIGS["exact"], count)


def test_gaussian_likelihood_converges_to_analytic_density():
    # For N(mu, var I) the flow is linear: from T down to eps,
    # x(eps) - mu = (x(T) - mu) sqrt((var + eps^2) / (var + T^2)), and the
    # divergence of the drift is d t / (var + t^2), whose integral along
    # the traversal is -(d/2) log((var + T^2) / (var + eps^2)).  These two
    # give log p_eps(x(eps)) from log p_T(x(T)).  Heun is second order:
    # both errors fall about fourfold per doubling of the grid.
    d, var, mu = 3, 0.8, 0.5
    model = dn.AnalyticGmmScore(tg.single_gaussian(d, var, mu))
    x_t = 10.0 * np.random.default_rng(0).standard_normal((4, d))
    state_errors, div_errors = [], []
    for n in (4, 8, 16, 32, 64):
        grid = karras_grid(n, 1e-3, 10.0, 7.0)
        eps, big_t = grid.eps, grid.t_max
        x_eps, div_down = pf.heun_integrate(x_t, model, grid,
                                            CONFIGS["exact"],
                                            np.random.default_rng(1))
        want_x = mu + (x_t - mu) * np.sqrt((var + eps ** 2)
                                           / (var + big_t ** 2))
        want_div = -0.5 * d * np.log((var + big_t ** 2) / (var + eps ** 2))
        state_errors.append(np.max(np.abs(x_eps - want_x)))
        div_errors.append(np.max(np.abs(div_down - want_div)))
    for errors in (state_errors, div_errors):
        assert all(b < a / 2.5 for a, b in zip(errors, errors[1:]))
        assert errors[-1] < 0.02


def log_z_and_se(log_w):
    """log of the mean weight and its delta-method standard error,
    sd(w) / (sqrt(M) mean w)."""
    w = np.exp(log_w - np.max(log_w))
    return (float(np.log(np.mean(w)) + np.max(log_w)),
            float(np.std(w, ddof=1) / (np.sqrt(w.shape[0]) * np.mean(w))))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_vtdis_is_unbiased_where_the_pf_ode_is_not(seed):
    # the paper's central claim on the 10-D two-mode mixture (Z = 1) with
    # its exact score, 16 Karras steps: the PF-ODE's density carries
    # Heun's error, so its log Z lies far below 0 even with an exact
    # divergence, while the reverse sampler knows its proposal's density
    # exactly, so its log Z is 0 within its sampling error
    target = tg.two_mode_gmm(10)
    model = dn.AnalyticGmmScore(target)
    grid = karras_grid(16, 1e-3, 10.0, 7.0)
    ode = pf.ode_is_weights(derive_rng(seed, "ode"), model, target, grid,
                            CONFIGS["exact"], 2048)
    log_z, se = log_z_and_se(ode["log_weights"])
    assert log_z < -20 * se
    data = target.sample(derive_rng(seed, "data"), 20000)
    tuned = tu.tune(derive_rng(seed, "tune"), model, target, grid,
                    "isotropic", tu.TunerConfig(iterations=100,
                                                batch_size=128, lr=0.1,
                                                plateau_window=101),
                    data=data)
    x0, log_q, log_p = df.reverse_sample_batch(
        derive_rng(seed, "sample"), model, tuned.covariances(), grid, 8192)
    log_z, se = log_z_and_se(target.log_density(x0) + log_q - log_p)
    assert abs(log_z) <= 4 * se
