"""Variance-tuned diffusion importance sampling.

A variance-exploding diffusion sampler whose per-step proposal
covariances are tuned after training to maximize the effective sample
size of trajectory-wise importance weights, plus a probability-flow ODE
likelihood baseline for comparison.

``import vtdis`` sets glibc's mmap and trim thresholds for the whole
process, not for this package alone (``_pin_heap_thresholds``).  A
long-lived caller therefore keeps the memory it frees resident: 128 MiB
RSS after freeing 100 arrays of 1 MiB below a live one.  Calling
``ctypes.CDLL(None).malloc_trim(0)`` returns it to the system (28 MiB).
"""

import ctypes


def _pin_heap_thresholds() -> None:
    """Pin glibc's mmap threshold at 32 MiB (its maximum) and heap-trim
    threshold at 64 MiB; a no-op where libc has no ``mallopt``.  glibc
    raises both only after it frees a large mmapped block; until then,
    work arrays are unmapped or trimmed and faulted back in: unpinned, an
    lj13 round took ~115k minor faults, 28% more ``setup_s`` and 39% less
    ``ode_traj_per_s`` (2-vCPU x86-64).  Pinned, arrays under 32 MiB come
    from the brk heap, whose top alone glibc trims, so freed blocks below a
    live one stay resident until ``malloc_trim(0)``, wherever the pin is
    made: 128 MiB RSS after freeing 100 arrays of 1 MiB, 28 unpinned."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(-3, 32 << 20)    # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)    # M_TRIM_THRESHOLD


_pin_heap_thresholds()
