import numpy as np
import pytest

from vtdis import denoisers as dn
from vtdis import diffusion as df
from vtdis import equivariant as eq
from vtdis import gaussians as ga
from vtdis import metrics as mt
from vtdis import targets as tg
from vtdis.schedule import karras_grid

GRID = karras_grid(6, 1e-3, 10.0, 7.0)


def ambient_case():
    """Analytic GMM score with tuned-looking diagonal kernels."""
    model = dn.AnalyticGmmScore(tg.two_mode_gmm(3))
    etas = np.random.default_rng(1).uniform(0.5, 2.0, (GRID.n_steps, 3))
    covs = [ga.Covariance.diagonal(etas[n - 1], GRID.ddpm_var(n))
            for n in range(1, GRID.n_steps + 1)]
    return model, covs, None


def com_case():
    """Radial network on DW-4's zero-CoM subspace, isotropic kernels."""
    target = tg.DoubleWell()
    model = dn.RadialDenoiser(target.n_particles, target.spatial_dim, [8],
                              1.0, np.random.default_rng(2))
    proj = eq.ComProjection(target.n_particles, target.spatial_dim)
    covs = [ga.Covariance.isotropic(0.5 + 0.1 * n, GRID.ddpm_var(n))
            for n in range(1, GRID.n_steps + 1)]
    return model, covs, proj


CASES = {"ambient": ambient_case, "com": com_case}


@pytest.mark.parametrize("case", list(CASES))
def test_trajectory_matches_batch_of_one(case):
    model, covs, proj = CASES[case]()
    traj = df.reverse_sample_trajectory(np.random.default_rng(5), model,
                                        covs, GRID, proj)
    x0, log_q, log_p = df.reverse_sample_batch(np.random.default_rng(5),
                                               model, covs, GRID, 1, proj)
    assert np.array_equal(traj.x0, x0[0])
    assert traj.log_q_cond == log_q[0]
    assert traj.log_p_joint == log_p[0]


@pytest.mark.parametrize("case", list(CASES))
def test_stored_densities_match_recompute(case):
    model, covs, proj = CASES[case]()
    rng = np.random.default_rng(6)
    for _ in range(3):
        traj = df.reverse_sample_trajectory(rng, model, covs, GRID, proj)
        log_q, log_p = df.recompute_log_densities(traj, model, covs, proj)
        assert log_q == pytest.approx(traj.log_q_cond, rel=0, abs=1e-10)
        assert log_p == pytest.approx(traj.log_p_joint, rel=0, abs=1e-10)
        if proj is not None:
            assert np.max(proj.com_norm(traj.states)) < 1e-12


@pytest.mark.parametrize("extra", [2, -2])
def test_recompute_rejects_wrong_covariance_count(extra):
    model, covs, proj = com_case()
    traj = df.reverse_sample_trajectory(np.random.default_rng(7), model,
                                        covs, GRID, proj)
    wrong = covs + covs[:extra] if extra > 0 else covs[:extra]
    with pytest.raises(ValueError, match="step covariances"):
        df.recompute_log_densities(traj, model, wrong, proj)


@pytest.mark.parametrize("extra", [2, -2])
def test_elbo_eubo_rejects_wrong_covariance_count(extra):
    model, covs, proj = com_case()
    x0 = tg.remove_com(np.random.default_rng(8).standard_normal((2, 8)), 4, 2)
    wrong = covs + covs[:extra] if extra > 0 else covs[:extra]
    with pytest.raises(ValueError, match="step covariances"):
        mt.elbo_eubo(np.random.default_rng(9), x0, model, wrong, GRID,
                     inner=2, proj=proj)
