"""Variance-tuned diffusion importance sampling.

A variance-exploding diffusion sampler whose per-step proposal
covariances are tuned after training to maximize the effective sample
size of trajectory-wise importance weights, plus a probability-flow ODE
likelihood baseline for comparison.
"""
