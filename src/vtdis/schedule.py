"""Time discretizations of the noise interval [eps, T].

``karras_grid`` builds the one grid family the samplers use.  Grids are
strictly increasing, t_0 = eps > 0 through t_N = T, following the
variance-exploding convention where the marginal noise scale at time t
is t itself.  A ``TimeGrid`` keeps a read-only copy of its times and
computes its per-step constants once from it, as read-only (N,) arrays
with step n at index n - 1:

* ``forward_vars[n-1] = t_n^2 - t_{n-1}^2``   (forward transition variance)
* ``ddpm_vars[n-1]    = t_{n-1}^2 (t_n^2 - t_{n-1}^2) / t_n^2``
  (the Bayes-posterior variance used by the reverse sampler)
* ``mean_ratios[n-1]  = t_{n-1}^2 / t_n^2``   (the weight of x_n in the
  posterior mean)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gaussians import require_count


@dataclass(frozen=True)
class TimeGrid:
    times: np.ndarray
    kind: str = "custom"
    rho: float | None = None

    def __post_init__(self):
        # a copy: the per-step arrays must not go stale under the caller
        t = np.array(self.times, dtype=float)
        if t.ndim != 1 or t.shape[0] < 2:
            raise ValueError("grid needs at least two time points")
        if not np.all(np.isfinite(t)):
            raise ValueError("times must be finite")
        if t[0] <= 0:
            raise ValueError("eps must be positive")
        if np.any(np.diff(t) <= 0):
            raise ValueError("times must be strictly increasing")
        tp, tn = t[:-1], t[1:]
        for name, value in (
                ("times", t),
                ("forward_vars", tn ** 2 - tp ** 2),
                ("ddpm_vars", tp * tp * (tn * tn - tp * tp) / (tn * tn)),
                ("mean_ratios", tp ** 2 / tn ** 2)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    @property
    def n_steps(self) -> int:
        return self.times.shape[0] - 1

    @property
    def eps(self) -> float:
        return float(self.times[0])

    @property
    def t_max(self) -> float:
        return float(self.times[-1])

    def to_dict(self) -> dict:
        d = {"kind": self.kind, "steps": self.n_steps,
             "eps": self.eps, "t_max": self.t_max}
        if self.rho is not None:
            d["rho"] = self.rho
        return d


def karras_grid(n_steps: int, eps: float, t_max: float, rho: float) -> TimeGrid:
    """Power-interpolated grid, t_n = (eps^(1/rho) + (n/N)(T^(1/rho) - eps^(1/rho)))^rho.

    rho = 1 gives linear spacing; rho -> infinity approaches the geometric
    grid t_n = eps (T/eps)^(n/N).  Endpoints are exact for any rho.
    """
    require_count("n_steps", n_steps)
    if not (0 < eps < t_max < np.inf):
        raise ValueError("require 0 < eps < t_max < inf")
    if not (np.isfinite(rho) and rho > 0):
        raise ValueError("rho must be positive")
    u = np.arange(n_steps + 1, dtype=float) / n_steps
    a = np.exp(np.log(eps) / rho)
    b = np.exp(np.log(t_max) / rho)
    t = np.exp(rho * np.log(a + u * (b - a)))
    t[0], t[-1] = eps, t_max
    return TimeGrid(t, kind="karras", rho=float(rho))
