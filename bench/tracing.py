"""Per-layer tracing installed from outside the ``vtdis`` package.

``Tracer.installed()`` replaces each public call listed in ``SPANS`` by a
wrapper at the place where callers look it up (a class attribute or a
module global) and restores the originals on exit.  A wrapper records
one span: its duration, the rows it processed, and the time covered by
spans that started inside it.  Calls are sequential, so a span's self
time is its duration minus the durations of its direct children.

Spans are aggregated in memory as they end, one ``Tracer`` per pipeline
repetition.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field

import numpy as np

from vtdis import denoisers as dn
from vtdis import diffusion as df
from vtdis import equivariant as eq
from vtdis import gaussians as ga
from vtdis import metrics as mt
from vtdis import pfode as pf
from vtdis import targets as tg
from vtdis import tuner as tu


def _rows_at(i):
    """Rows of positional argument ``i`` (``self`` counts for methods)."""
    return lambda args: int(np.atleast_2d(args[i]).shape[0])


def _no_rows(args):
    return 0


def _com_rows(args):
    x, proj = args[0], args[1]
    return int(np.size(x) // proj.ambient_dim)


# (span name, owner, attribute, rows of a call).  The owner is where
# callers look the name up: ``tuner`` imports ``forward_residuals`` by
# name, so that lookup is wrapped as well as the module attribute;
# ``pfode.heun_integrate`` reaches ``divergence_estimate`` through the
# module global.  All wrapped calls are made with positional arguments.
SPANS = [
    ("denoisers.Mlp.forward", dn.Mlp, "forward", _rows_at(1)),
    ("denoisers.Mlp.backward", dn.Mlp, "backward", _rows_at(2)),
    ("denoisers.Mlp.jvp", dn.Mlp, "jvp", _rows_at(1)),
    ("denoisers.Adam.step", dn.Adam, "step", _no_rows),
    ("denoisers.train_dsm", dn, "train_dsm", _no_rows),
    ("denoisers.denoise", dn.RadialDenoiser, "denoise", _rows_at(1)),
    ("denoisers.denoise_jvp", dn.RadialDenoiser, "denoise_jvp", _rows_at(1)),
    ("denoisers.AnalyticGmmScore.denoise", dn.AnalyticGmmScore, "denoise",
     _rows_at(1)),
    ("pfode.ode_is_weights", pf, "ode_is_weights", lambda a: int(a[5])),
    ("pfode.heun_integrate", pf, "heun_integrate", _rows_at(0)),
    ("pfode.divergence_estimate", pf, "divergence_estimate", _rows_at(1)),
    ("gaussians.spec.log_density", ga.IsotropicParams, "log_density",
     _rows_at(1)),
    ("gaussians.spec.log_density", ga.DiagonalParams, "log_density",
     _rows_at(1)),
    ("gaussians.spec.weighted_grad", ga.IsotropicParams, "weighted_grad",
     _rows_at(1)),
    ("gaussians.spec.weighted_grad", ga.DiagonalParams, "weighted_grad",
     _rows_at(1)),
    ("diffusion.forward_residuals", df, "forward_residuals", _rows_at(1)),
    ("diffusion.forward_residuals", tu, "forward_residuals", _rows_at(1)),
    ("diffusion.reverse_sample_batch", df, "reverse_sample_batch",
     lambda a: int(a[4])),
    ("diffusion.StepKernel.sample", df.StepKernel, "sample", _rows_at(2)),
    ("diffusion.StepKernel.logpdf", df.StepKernel, "logpdf", _rows_at(1)),
    ("equivariant.com_project", eq, "com_project", _com_rows),
    ("tuner.tune", tu, "tune", _no_rows),
    ("tuner.loss_and_gradient", tu, "loss_and_gradient",
     lambda a: a[0].count),
    ("targets.mcmc_sample", tg, "mcmc_sample", lambda a: int(a[2])),
    ("targets.log_density", tg.Gmm, "log_density", _rows_at(1)),
    ("targets.log_density", tg.DoubleWell, "log_density", _rows_at(1)),
    ("targets.log_density", tg.LennardJones, "log_density", _rows_at(1)),
    ("metrics.elbo_eubo", mt, "elbo_eubo", _rows_at(1)),
]


@dataclass
class SpanStats:
    calls: int = 0
    rows: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    durations: list = field(default_factory=list)


class Tracer:
    """Spans of one pipeline repetition, aggregated by name."""

    def __init__(self):
        self.stats: dict[str, SpanStats] = {}
        self.mlp_flops = 0          # computed matmul FLOPs of Mlp.forward
        self.div_rows = 0           # rows through divergence_estimate
        self.iteration_marks: list[float] = []
        self._open: list[float] = []    # child time of each open span

    def _wrap(self, name, fn, rows_of, on_enter, on_exit):
        stats = self.stats.setdefault(name, SpanStats())
        open_spans = self._open
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            rows = rows_of(args)
            if on_enter is not None:
                on_enter(args, rows)
            open_spans.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                dt = t1 - t0
                covered = open_spans.pop()
                if open_spans:
                    open_spans[-1] += dt
                stats.calls += 1
                stats.rows += rows
                stats.total_s += dt
                stats.self_s += dt - covered
                stats.durations.append(dt)
                if on_exit is not None:
                    on_exit(t1)

        wrapper.__wrapped__ = fn
        return wrapper

    def _hooks(self, name, owner):
        """Counters kept at a span boundary besides its timing."""
        if name == "denoisers.Mlp.forward":
            def flops(args, rows):
                sizes = args[0].sizes
                self.mlp_flops += 2 * rows * sum(
                    a * b for a, b in zip(sizes[:-1], sizes[1:]))
            return flops, None
        if name == "pfode.divergence_estimate":
            def count(args, rows):
                self.div_rows += rows
            return count, None
        if name == "diffusion.forward_residuals" and owner is tu:
            # each tuner iteration starts with one forward batch
            return (lambda args, rows:
                    self.iteration_marks.append(time.perf_counter())), None
        if name == "tuner.tune":
            return None, self.iteration_marks.append
        return None, None

    @contextlib.contextmanager
    def installed(self):
        """Wrap every call in ``SPANS``; restore the originals on exit."""
        saved = []
        try:
            for name, owner, attr, rows_of in SPANS:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                wrapped = self._wrap(name, original, rows_of,
                                     *self._hooks(name, owner))
                setattr(owner, attr, wrapped)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def iteration_durations(self) -> np.ndarray:
        """Tuner iteration times: from one forward batch to the next, the
        last ending when ``tuner.tune`` returns."""
        return np.diff(np.asarray(self.iteration_marks))


def layer_metrics(tracers: list[Tracer]) -> dict:
    """Per-layer figures of one pipeline execution from traced repetitions.

    Counts come from the first repetition (they repeat exactly); times are
    the fastest over repetitions, as for the end-to-end metrics; per-call
    percentiles pool every call.
    """
    first = tracers[0]
    out = {}
    for name, st in first.stats.items():
        pooled = np.concatenate([np.asarray(t.stats[name].durations)
                                 for t in tracers]) * 1e3
        out[name] = {
            "calls": st.calls,
            "rows": st.rows,
            "s": min(t.stats[name].total_s for t in tracers),
            "self_s": min(t.stats[name].self_s for t in tracers),
            "p50_ms": float(np.percentile(pooled, 50)) if pooled.size else 0.0,
            "p95_ms": float(np.percentile(pooled, 95)) if pooled.size else 0.0,
        }
    iters = np.concatenate([t.iteration_durations() for t in tracers]) * 1e3
    out["tuner.iteration"] = {
        "p50_ms": float(np.percentile(iters, 50)) if iters.size else 0.0,
        "p95_ms": float(np.percentile(iters, 95)) if iters.size else 0.0,
    }
    fwd = out["denoisers.Mlp.forward"]
    out["denoisers.Mlp.forward"]["gflop_per_s"] = (
        first.mlp_flops / 1e9 / fwd["s"] if fwd["s"] > 0 else 0.0)
    out["pfode.div_rows"] = first.div_rows
    return out
