"""Variance-tuned diffusion importance sampling.

A variance-exploding diffusion sampler whose per-step proposal
covariances are tuned after training to maximize the effective sample
size of trajectory-wise importance weights, plus a probability-flow ODE
likelihood baseline for comparison.
"""

from .gaussians import logsumexp
from .schedule import TimeGrid, karras_grid

__version__ = "0.1.0"

__all__ = [
    "TimeGrid",
    "karras_grid",
    "logsumexp",
    "__version__",
]
