"""VT-DIS pipeline benchmark.

    python3 bench/run.py --workload {gmm10,lj13,dw4,all} --seed N \
        --seconds S --trace {0,1}

Runs the whole pipeline of one workload (see ``workloads.py``) once
untimed to warm up, then runs its stages again and again in this
process, from the same seed, until ``--seconds`` have passed.  With
``--trace 0`` the last stdout line is the end-to-end metrics, each stage
time the fastest of the run (see ``end_to_end``); with ``--trace 1``
untraced and traced pipeline executions alternate and the last line
holds the per-layer metrics, including the tracing overhead (traced minus
untraced pipeline time).  Output checks run on every invocation; a failed
check makes the exit code 1.  ``--workload all`` runs each workload in
its own process and prints every metric by name and unit.

Run from the repository root: the package is imported from ``src/``.
"""

from __future__ import annotations

import os

# one BLAS thread: steadier timings, and bit-identical replays
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import layers  # noqa: E402
import tracing  # noqa: E402
import workloads as wk  # noqa: E402

MIN_SETUPS = 3       # set-ups measured in an untraced run, at least
SETUP_SHARE = 0.25   # of the measuring time, at most (beyond MIN_SETUPS)


def environment(wl, seed: int, budget: str) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": wl.name, "seed": seed, "budget": budget,
        "grid": wk.make_grid().to_dict(),
        "config": dataclasses.asdict(wl),
        "shared": {"mcmc_thin": wk.MCMC_THIN, "hidden": wk.HIDDEN,
                   "train_lr": wk.TRAIN_LR},
        "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def measure(wl, seed: int, seconds: float, trace: bool):
    """Run the pipeline once to warm up (the allocator and caches settle
    in it, and it gives every stage its inputs), then measure until
    ``seconds`` have passed since the start.  Returns (warm-up, untraced
    rounds, traced executions, tracers).

    Untraced, the measuring is in rounds: each runs tune, sample, ode and
    heldout once on the warm-up's data and model, and setup as well while
    setup has taken no more than ``SETUP_SHARE`` of the time, so that
    long set-up stages do not crowd out the others.  With ``trace``,
    whole untraced and traced pipeline executions alternate instead, at
    least two of each.  Successive rounds or executions run on successive
    CPUs of the process's set: on a shared host each CPU is slowed by
    its own neighbours, so a run does not spend its whole length on one
    busy CPU (README "Noise").
    """
    cpus = sorted(os.sched_getaffinity(0))
    start = time.perf_counter()
    warmup = wk.run_pipeline(wl, seed)
    plain, traced, tracers = [], [], []
    setup_s = 0.0
    try:
        while True:
            os.sched_setaffinity(
                0, {cpus[(len(plain) + len(traced)) % len(cpus)]})
            if trace and len(plain) > len(traced):
                tracer = tracing.Tracer()
                with tracer.installed():
                    traced.append(wk.run_pipeline(wl, seed))
                tracers.append(tracer)
            elif trace:
                plain.append(wk.run_pipeline(wl, seed))
            else:
                rep = wk.Repetition({}, {}, dict(warmup.outputs))
                stages = wk.STAGES
                if setup_s > SETUP_SHARE * (time.perf_counter() - start):
                    stages = stages[1:]
                for stage in stages:
                    wk.run_stage(wl, seed, stage, rep)
                setup_s += rep.times.get("setup", 0.0)
                plain.append(rep)
            # drop the outputs, so that peak RSS is one execution's whatever
            # the number of rounds
            for rep in plain[-1:] + traced[-1:]:
                rep.outputs = {}
            enough = (len(plain) >= 2 and len(traced) >= 2 if trace
                      else sum("setup" in r.times for r in plain)
                      >= MIN_SETUPS)
            if enough and time.perf_counter() - start >= seconds:
                return warmup, plain, traced, tracers
    finally:
        os.sched_setaffinity(0, cpus)


def run_checks(wl, seed: int, reps) -> tuple[list, int, int]:
    """Output checks; returns (rows, attempted, failed)."""
    first = reps[0]
    checks = wk.check_outputs(wl, first, seed)
    replay = all(first.quality[k] == v
                 for r in reps[1:] for k, v in r.quality.items())
    checks.append(("same_seed_replays_bit_identical", replay,
                   f"{len(reps)} executions and rounds"))
    bad, drawn = wk.nonfinite_weights(first)
    checks.append(("finite_log_weights", bad == 0,
                   f"{bad} of {drawn} non-finite"))
    failed = bad + sum(not ok for _, ok, _ in checks)
    return checks, drawn + len(checks), failed


def end_to_end(wl, warmup, rounds) -> dict:
    """Stage times are the fastest of the run's rounds.  On a shared host
    the same code runs up to ~1.6x slower while other tenants are busy,
    and how busy they are changes from one half-minute to the next, so a
    median follows the neighbours while the fastest time is steadier from
    run to run (README "Noise").  ``pipeline_s`` is the sum of the stage
    times."""
    fastest = {stage: min(r.times[stage] for r in rounds if stage in r.times)
               for stage in wk.STAGES}

    q = warmup.quality
    values = {
        "setup_s": fastest["setup"],
        "tune_s": fastest["tune"],
        "sample_traj_per_s": wl.samples / fastest["sample"],
        "ode_traj_per_s": wl.ode_samples / fastest["ode"],
        "pipeline_s": sum(fastest.values()),
        "heldout_nelbo": q["heldout_nelbo"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _, _, _ in layers.END_TO_END}


def per_layer(wl, plain, traced, tracers) -> dict:
    spans = tracing.layer_metrics(tracers)
    q = traced[0].quality
    values = {}
    for name, fields in spans.items():
        if isinstance(fields, dict):
            for field, v in fields.items():
                values[f"{name}.{field}"] = v
        else:
            values[name] = fields
    train_s = values["denoisers.train_dsm.s"]
    plain_pipeline = min(r.times["pipeline"] for r in plain)
    traced_pipeline = min(r.times["pipeline"] for r in traced)
    sample_s = min(r.times["sample"] for r in plain)
    values.update({
        "denoisers.train_dsm.iters_per_s":
            wl.train_iters / train_s if train_s > 0 else 0.0,
        "denoisers.train_dsm.final_loss": q.get("train_final_loss", 0.0),
        "denoisers.eval_count": q["tune_denoiser_evals"],
        "tuner.tune.iterations": q["tune_iterations"],
        "tuner.tune.final_loss": q["tune_final_loss"],
        "pfode.score_evals": q["ode_score_evals"],
        "pfode.jvp_evals": q["ode_jvp_evals"],
        "targets.mcmc_sample.acceptance": q.get("mcmc_acceptance", 0.0),
        "metrics.reverse_ess": q["reverse_ess"],
        "metrics.ode_ess": q["ode_ess"],
        "metrics.ess_per_s": q["reverse_ess"] * wl.samples / sample_s,
        "metrics.log_z_hat": q["log_z_hat"],
        "metrics.log_z_se": q["log_z_se"],
        "metrics.eubo_elbo_gap": q["heldout_nelbo"] - q["heldout_neubo"],
        "bench.trace_overhead_s": traced_pipeline - plain_pipeline,
        "bench.trace_overhead_frac":
            (traced_pipeline - plain_pipeline) / plain_pipeline,
    })
    # layers a workload never calls report zero work
    return {name: {"value": float(values.get(name, 0.0)), "unit": unit}
            for name, unit, _, _, _ in layers.PER_LAYER}


def run_one(args) -> int:
    wl = wk.WORKLOADS[args.workload]
    if args.budget == "tiny":
        wl = wk.tiny(wl)
    print("env " + json.dumps(environment(wl, args.seed, args.budget)))
    warmup, plain, traced, tracers = measure(wl, args.seed, args.seconds,
                                             bool(args.trace))
    checks, attempted, failed = run_checks(wl, args.seed,
                                           [warmup] + plain + traced)
    for name, ok, detail in checks:
        print(f"check {'ok  ' if ok else 'FAIL'} {name}: {detail}")
    for label, reps in (("warm-up", [warmup]), ("untraced", plain),
                        ("traced", traced)):
        for rep in reps:
            print(f"{label} " + " ".join(f"{k}={v:.4f}s"
                                         for k, v in rep.times.items()))
    metrics = (per_layer(wl, plain, traced, tracers) if args.trace
               else end_to_end(wl, warmup, plain))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is its own."""
    status = 0
    for name in wk.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--budget", args.budget]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=900)
        lines = proc.stdout.strip().splitlines()
        print(f"== {name} (exit {proc.returncode})")
        for line in lines[:-1]:
            print("   " + line)
        if proc.returncode != 0:
            status = 1
            sys.stderr.write(proc.stderr)
        if not lines or not lines[-1].startswith("{"):
            continue
        result = json.loads(lines[-1])
        print(f"   correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for metric, v in result["metrics"].items():
            print(f"   {metric:44s} {v['value']:>14.6g} {v['unit']}")
    return status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(wk.WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--budget", choices=("full", "tiny"), default="full",
                   help="tiny: few-second budgets for the self-tests")
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
