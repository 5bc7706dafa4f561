"""The benchmark's metric catalogue.

``END_TO_END`` and ``PER_LAYER`` are the metrics ``run.py`` reports; the
self-tests check that ``BENCHMARK.json`` lists exactly these names and
units.  Each per-layer group records which end-to-end metric it should
move and on which workloads, so a change to one layer can be checked
against the right end-to-end figure.
"""

from __future__ import annotations

# (name, unit, better, bound, meaning); times are the fastest of a run
END_TO_END = [
    ("setup_s", "s", "lower", 0.25,
     "data (exact draws or MALA) plus DSM training time"),
    ("tune_s", "s", "lower", 0.25, "time in tuner.tune"),
    ("sample_traj_per_s", "1/s", "higher", 0.25,
     "weighted reverse trajectories per second"),
    ("ode_traj_per_s", "1/s", "higher", 0.25,
     "PF-ODE weighted samples per second"),
    ("pipeline_s", "s", "lower", 0.25,
     "data -> train -> tune -> sample -> ode -> heldout: sum of the stage "
     "times"),
    ("heldout_nelbo", "nats", "lower", 0.15,
     "-ELBO on held-out target samples under the tuned kernels"),
    ("peak_rss_mb", "MB", "lower", 0.15, "peak resident set of the process"),
]

_UNITS = {"calls": ("count", "lower"), "rows": ("count", "lower"),
          "s": ("s", "lower"), "self_s": ("s", "lower"),
          "p50_ms": ("ms", "lower"), "p95_ms": ("ms", "lower"),
          "gflop_per_s": ("GFLOP/s", "higher")}

_SPAN = ("calls", "rows", "s", "self_s", "p50_ms", "p95_ms")
_LEAF = ("calls", "rows", "s", "p50_ms", "p95_ms")
_OUTER = ("calls", "rows", "s", "self_s")

# (metric prefix, fields or None for a single value, (unit, better) for a
#  single value, end-to-end metrics it should move, workloads)
_GROUPS = [
    ("denoisers.Mlp.forward", _LEAF + ("gflop_per_s",), None,
     "setup_s tune_s sample_traj_per_s", "lj13 dw4, not gmm10"),
    ("denoisers.Mlp.backward", _LEAF, None, "setup_s", "lj13 dw4"),
    ("denoisers.Adam.step", ("calls", "s", "p50_ms"), None, "setup_s",
     "lj13 dw4"),
    ("denoisers.train_dsm", ("s", "self_s"), None, "setup_s", "lj13 dw4"),
    ("denoisers.train_dsm.iters_per_s", None, ("1/s", "higher"), "setup_s",
     "lj13 dw4"),
    ("denoisers.train_dsm.final_loss", None, ("loss", "lower"), "setup_s",
     "lj13 dw4"),
    ("denoisers.denoise", _SPAN, None, "tune_s sample_traj_per_s",
     "lj13 vs dw4"),
    ("denoisers.Mlp.jvp", _LEAF, None, "ode_traj_per_s", "lj13 dw4"),
    ("denoisers.denoise_jvp", _SPAN, None, "ode_traj_per_s", "lj13 dw4"),
    ("pfode.ode_is_weights", ("s", "self_s"), None, "ode_traj_per_s", "all"),
    ("pfode.heun_integrate", _OUTER, None, "ode_traj_per_s", "all"),
    ("pfode.divergence_estimate", _SPAN, None, "ode_traj_per_s", "all"),
    ("pfode.score_evals", None, ("count", "lower"), "ode_traj_per_s", "all"),
    ("pfode.jvp_evals", None, ("count", "lower"), "ode_traj_per_s", "all"),
    ("pfode.div_rows", None, ("count", "lower"), "ode_traj_per_s", "all"),
    ("denoisers.AnalyticGmmScore.denoise", _LEAF, None, "tune_s",
     "gmm10, not lj13"),
    ("gaussians.spec.log_density", _LEAF, None, "tune_s", "gmm10, not lj13"),
    ("gaussians.spec.weighted_grad", _LEAF, None, "tune_s",
     "gmm10, not lj13"),
    ("diffusion.forward_residuals", _OUTER, None, "tune_s peak_rss_mb",
     "lj13 mostly, gmm10"),
    ("tuner.loss_and_gradient", _SPAN, None, "tune_s peak_rss_mb",
     "lj13 mostly, gmm10"),
    ("tuner.iteration", ("p50_ms", "p95_ms"), None, "tune_s peak_rss_mb",
     "lj13 mostly, gmm10"),
    ("denoisers.eval_count", None, ("count", "lower"), "tune_s",
     "lj13 mostly, gmm10"),
    ("tuner.tune", ("s", "self_s"), None, "tune_s", "all"),
    ("tuner.tune.iterations", None, ("count", "lower"), "heldout_nelbo",
     "all"),
    ("tuner.tune.final_loss", None, ("nats", "lower"), "heldout_nelbo",
     "all"),
    ("diffusion.reverse_sample_batch", _OUTER, None, "sample_traj_per_s",
     "gmm10 dw4"),
    ("diffusion.StepKernel.sample", _LEAF, None, "sample_traj_per_s",
     "gmm10 dw4"),
    ("diffusion.StepKernel.logpdf", _LEAF, None, "sample_traj_per_s",
     "gmm10 dw4"),
    ("equivariant.com_project", _LEAF, None, "sample_traj_per_s",
     "dw4 lj13"),
    ("targets.mcmc_sample", ("s", "self_s"), None, "setup_s", "dw4 lj13"),
    ("targets.mcmc_sample.acceptance", None, ("fraction", "higher"),
     "setup_s", "dw4 lj13"),
    ("targets.log_density", _LEAF, None, "setup_s", "dw4 lj13, not gmm10"),
    ("metrics.elbo_eubo", ("s", "self_s"), None, "pipeline_s", "all"),
    ("metrics.reverse_ess", None, ("fraction", "higher"), "diagnostic",
     "all"),
    ("metrics.ode_ess", None, ("fraction", "higher"), "diagnostic", "all"),
    ("metrics.ess_per_s", None, ("1/s", "higher"), "diagnostic", "gmm10"),
    ("metrics.log_z_hat", None, ("nats", "lower"), "diagnostic", "all"),
    ("metrics.log_z_se", None, ("nats", "lower"), "diagnostic", "all"),
    ("metrics.eubo_elbo_gap", None, ("nats", "lower"), "diagnostic", "all"),
    ("bench.trace_overhead_s", None, ("s", "lower"), "none (tracing cost)",
     "all"),
    ("bench.trace_overhead_frac", None, ("fraction", "lower"),
     "none (tracing cost)", "all"),
]


def _expand():
    rows = []
    for prefix, fields, single, moves, on in _GROUPS:
        if fields is None:
            rows.append((prefix, single[0], single[1], moves, on))
        else:
            for f in fields:
                unit, better = _UNITS[f]
                rows.append((f"{prefix}.{f}", unit, better, moves, on))
    return rows


# (name, unit, better, end-to-end metrics it should move, workloads)
PER_LAYER = _expand()
