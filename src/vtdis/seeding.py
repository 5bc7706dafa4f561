"""Deterministic RNG derivation from a single root seed.

Every source of randomness in a run is a child stream of one root seed,
keyed by a path of string/integer tags.  The path is hashed by numpy's
``SeedSequence`` into the state of an SFC64 generator:

* distinct ``(seed, *tags)`` paths give distinct ``SeedSequence``
  entropy, and so statistically independent streams;
* SFC64 carries a 64-bit counter in its state, so every stream has a
  period of at least 2^64, far beyond any run's draws;
* the same ``(seed, *tags)`` replays the same stream bit for bit, on any
  machine and in any order of derivation.

No stream is ever jumped, advanced or split, so a counter-based generator
such as Philox buys nothing here; SFC64 is chosen because it draws
standard normals, most of a reverse sampler step, fastest among numpy's
bit generators.
"""

from __future__ import annotations

import zlib

import numpy as np

from .gaussians import require_count


def _tag_to_int(tag: str | int) -> int:
    if isinstance(tag, int):
        return tag
    return zlib.crc32(tag.encode("utf-8"))


def derive_rng(root_seed: int, *tags: str | int) -> np.random.Generator:
    """Child generator for ``(root_seed, *tags)``.

    The same (seed, tags) pair always yields the same stream; distinct
    tag paths yield statistically independent streams.
    """
    require_count("root_seed", root_seed, 0)
    entropy = [int(root_seed)] + [_tag_to_int(t) for t in tags]
    seq = np.random.SeedSequence(entropy)
    return np.random.Generator(np.random.SFC64(seq))
