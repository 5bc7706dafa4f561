"""The benchmark's workloads and the end-to-end pipeline they run.

One pipeline execution goes through the public ``vtdis`` API in order:

    setup     exact GMM draws, or ``targets.mcmc_sample`` (MALA) and then
              ``denoisers.train_dsm`` (particle workloads)
    tune      ``tuner.tune`` at a fixed iteration budget, plateau stop off
    sample    ``diffusion.reverse_sample_batch`` plus trajectory log weights
    ode       ``pfode.ode_is_weights``
    heldout   ``metrics.elbo_eubo`` on held-out target samples

Every random draw comes from ``seeding.derive_rng(seed, workload, stage)``,
so one seed gives the same inputs, the same model and the same quality
figures on every execution; only the stage times differ.  A stage can
also be rerun alone on the outputs of an earlier execution.  Every call
goes through a module attribute (``dn.train_dsm``, not an imported name),
so the tracer can wrap it from outside the package.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass

import numpy as np

from vtdis import denoisers as dn
from vtdis import diffusion as df
from vtdis import equivariant as eq
from vtdis import metrics as mt
from vtdis import pfode as pf
from vtdis import targets as tg
from vtdis import tuner as tu
from vtdis.schedule import karras_grid
from vtdis.seeding import derive_rng


# Shared by every workload: Karras grid (steps, eps, T, rho), MALA
# thinning, radial network width, DSM learning rate.
GRID = (32, 1e-3, 10.0, 7.0)
MCMC_THIN = 5
HIDDEN = [32, 32]
TRAIN_LR = 3e-3


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                     # tuned covariance kind
    ode_divergence: str           # "exact" | "hutchinson"
    data_count: int = 20000
    heldout_count: int = 1024
    mcmc_chains: int = 0          # MALA data (particle workloads)
    mcmc_burn_in: int = 0
    train_iters: int = 0          # DSM training (particle workloads)
    train_batch: int = 0
    tune_iters: int = 300
    tune_batch: int = 256
    tune_lr: float = 0.05
    samples: int = 16384          # weighted reverse trajectories
    ode_samples: int = 4096       # PF-ODE weighted samples
    heldout_inner: int = 8        # forward paths per held-out point

    @property
    def particles(self) -> bool:
        return self.name != "gmm10"


WORKLOADS = {
    # only workload with a known normaliser (Z = 1); analytic score, no Mlp
    "gmm10": Workload("gmm10", kind="diagonal", ode_divergence="exact",
                      tune_iters=100, tune_batch=128, tune_lr=0.1,
                      samples=8192, ode_samples=2048),
    # LJ-13: 78 pairs through the radial network, network-bound
    "lj13": Workload("lj13", kind="isotropic",
                     ode_divergence="hutchinson",
                     data_count=1000, heldout_count=32,
                     mcmc_chains=64, mcmc_burn_in=300,
                     train_iters=400, train_batch=32,
                     tune_iters=20, tune_batch=16,
                     samples=64, ode_samples=16, heldout_inner=4),
    # DW-4: same layers as LJ-13 at 6 pairs, dim 8; per-call overhead
    "dw4": Workload("dw4", kind="isotropic",
                    ode_divergence="hutchinson",
                    data_count=2000, heldout_count=256,
                    mcmc_chains=256, mcmc_burn_in=500,
                    train_iters=600, train_batch=128,
                    tune_iters=40, tune_batch=64,
                    samples=2048, ode_samples=512, heldout_inner=4),
}


def tiny(wl: Workload) -> Workload:
    """A few-second version of ``wl`` for the benchmark's self-tests.

    The grid keeps its steps: coarse grids give proposals too poor for the
    log Z check, which on gmm10 also needs a real (if short) tuning run.
    """
    common = dict(data_count=512, heldout_count=16, ode_samples=8,
                  heldout_inner=2)
    if wl.particles:
        return dataclasses.replace(wl, mcmc_burn_in=20, train_iters=20,
                                   tune_iters=5, tune_batch=16, samples=64,
                                   **common)
    return dataclasses.replace(wl, tune_iters=100, tune_batch=64,
                               tune_lr=0.1, samples=512, **common)


TARGETS = {"gmm10": lambda: tg.two_mode_gmm(10), "lj13": tg.LennardJones,
           "dw4": tg.DoubleWell}


def make_grid():
    return karras_grid(*GRID)


STAGES = ("setup", "tune", "sample", "ode", "heldout")


@dataclass
class Repetition:
    """Stage times (seconds), quality figures and outputs of the stages
    run; ``outputs`` also carries what later stages take as input."""

    times: dict
    quality: dict
    outputs: dict


def run_pipeline(wl: Workload, seed: int) -> Repetition:
    """Execute data -> train -> tune -> sample -> ode -> heldout once."""
    target = TARGETS[wl.name]()
    rep = Repetition({}, {}, {
        "target": target, "grid": make_grid(),
        "proj": (eq.ComProjection(target.n_particles, target.spatial_dim)
                 if wl.particles else None)})
    for stage in STAGES:
        run_stage(wl, seed, stage, rep)
    rep.times["pipeline"] = sum(rep.times.values())
    return rep


def run_stage(wl: Workload, seed: int, stage: str, rep: Repetition) -> None:
    """Run one stage on the outputs of the stages before it in ``rep``;
    record its time, quality figures and outputs there.  Each stage draws
    from its own seeded stream, so a rerun reproduces it exactly."""
    rng = derive_rng(seed, wl.name, stage)
    t0 = time.perf_counter()
    STAGE_FNS[stage](wl, seed, rng, rep.outputs, rep.quality)
    rep.times[stage] = time.perf_counter() - t0


def _setup(wl, seed, rng, out, quality):
    """Data (exact draws or MALA) plus DSM training."""
    target, grid = out["target"], out["grid"]
    total = wl.data_count + wl.heldout_count
    if wl.particles:
        pool, mcmc = tg.mcmc_sample(rng, target, total,
                                    n_chains=wl.mcmc_chains,
                                    burn_in=wl.mcmc_burn_in, thin=MCMC_THIN)
        quality["mcmc_acceptance"] = mcmc.acceptance_rate
    else:
        pool = target.sample(rng, total)
    data = pool[:wl.data_count]
    if wl.particles:
        model = dn.RadialDenoiser(target.n_particles, target.spatial_dim,
                                  HIDDEN, dn.estimate_sigma_data(data),
                                  derive_rng(seed, wl.name, "init"))
        losses = dn.train_dsm(derive_rng(seed, wl.name, "train"), data,
                              model, dn.TrainConfig(
                                  iterations=wl.train_iters,
                                  batch_size=wl.train_batch, lr=TRAIN_LR,
                                  eps=grid.eps, t_max=grid.t_max))
        quality["train_final_loss"] = float(losses[-1])
    else:
        model = dn.AnalyticGmmScore(target)
    out.update(data=data, heldout=pool[wl.data_count:], model=model)


def _tune(wl, seed, rng, out, quality):
    model = out["model"]
    model.reset_counters()
    result = tu.tune(rng, model, out["target"], out["grid"], wl.kind,
                     tu.TunerConfig(iterations=wl.tune_iters,
                                    batch_size=wl.tune_batch, lr=wl.tune_lr,
                                    plateau_window=wl.tune_iters + 1),
                     data=out["data"], proj=out["proj"])
    quality["tune_iterations"] = result.iterations
    quality["tune_final_loss"] = float(result.loss_curve[-1])
    quality["tune_denoiser_evals"] = model.eval_count
    out["covs"] = result.covariances()


def _sample(wl, seed, rng, out, quality):
    """Weighted reverse trajectories."""
    x0, log_q, log_p = df.reverse_sample_batch(rng, out["model"], out["covs"],
                                               out["grid"], wl.samples,
                                               out["proj"])
    log_w = (np.asarray(out["target"].log_density(x0), dtype=float)
             + log_q - log_p)
    finite = np.isfinite(log_w)
    quality["reverse_ess"] = mt.reverse_ess(log_w[finite])
    quality["log_z_hat"] = mt.estimate_log_Z(log_w[finite])
    quality["log_z_se"] = log_z_standard_error(log_w[finite])
    out.update(x0=x0, log_w=log_w)


def _ode(wl, seed, rng, out, quality):
    """PF-ODE baseline."""
    model = out["model"]
    model.reset_counters()
    ode = pf.ode_is_weights(rng, model, out["target"], out["grid"],
                            pf.OdeRunConfig(divergence=wl.ode_divergence),
                            wl.ode_samples, out["proj"])
    quality["ode_ess"] = ode["reverse_ess"]
    quality["ode_score_evals"] = ode["metadata"]["score_evals"]
    quality["ode_jvp_evals"] = ode["metadata"]["jvp_evals"]
    out.update(ode_x0=ode["samples"], ode_log_w=ode["log_weights"])


def _heldout(wl, seed, rng, out, quality):
    """Evidence bounds on held-out target samples."""
    proj = out["proj"]
    held = (out["heldout"] if proj is None
            else eq.com_project(out["heldout"], proj))
    bounds = mt.elbo_eubo(rng, held, out["model"], out["covs"], out["grid"],
                          inner=wl.heldout_inner, proj=proj, repeats=1)
    quality["heldout_nelbo"] = -bounds["elbo"]
    quality["heldout_neubo"] = -bounds["eubo"]
    out["bounds"] = bounds


STAGE_FNS = {"setup": _setup, "tune": _tune, "sample": _sample, "ode": _ode,
             "heldout": _heldout}


def log_z_standard_error(log_w: np.ndarray) -> float:
    """Delta-method standard error of log(mean w): sd(w) / (sqrt(M) mean w)."""
    w = np.exp(log_w - np.max(log_w))
    return float(np.std(w, ddof=1) / (np.sqrt(w.shape[0]) * np.mean(w)))


def check_outputs(wl: Workload, rep: Repetition, seed: int) -> list[tuple]:
    """Correctness checks on one execution: ``(name, ok, detail)`` rows."""
    out = rep.outputs
    q = rep.quality
    checks = []
    if not wl.particles:
        # the mixture is normalised, so log Z = 0 within the sampling error
        err = abs(q["log_z_hat"])
        checks.append(("log_z_within_4se", err <= 4.0 * q["log_z_se"],
                       f"|log Z| = {err:.4g}, 4 SE = {4 * q['log_z_se']:.4g}"))
    # stored trajectory densities agree with a recomputation from the states
    model, covs = out["model"], out["covs"]
    grid, proj = out["grid"], out["proj"]
    worst = 0.0
    for i in range(3):
        rng = derive_rng(seed, wl.name, "traj", i)
        traj = df.reverse_sample_trajectory(rng, model, covs, grid, proj)
        log_q, log_p = df.recompute_log_densities(traj, model, covs, proj)
        worst = max(worst, abs(log_q - traj.log_q_cond) / max(1.0, abs(log_q)),
                    abs(log_p - traj.log_p_joint) / max(1.0, abs(log_p)))
    checks.append(("trajectory_log_density_recompute", worst <= 1e-9,
                   f"worst relative error {worst:.3g}"))
    if proj is not None:
        com = max(float(np.max(proj.com_norm(out["x0"]))),
                  float(np.max(proj.com_norm(out["ode_x0"]))))
        checks.append(("zero_centre_of_mass", com <= 1e-9,
                       f"max |com| {com:.3g}"))
    b = out["bounds"]
    checks.append(("elbo_le_eubo", b["elbo"] <= b["eubo"],
                   f"elbo {b['elbo']:.6g}, eubo {b['eubo']:.6g}"))
    return checks


def nonfinite_weights(rep: Repetition) -> tuple[int, int]:
    """(non-finite log weights, weights drawn) over reverse and ODE samples."""
    lw = np.concatenate([rep.outputs["log_w"], rep.outputs["ode_log_w"]])
    return int(np.sum(~np.isfinite(lw))), int(lw.shape[0])
