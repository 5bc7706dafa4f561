"""Deterministic RNG derivation from a single root seed.

Every source of randomness in a run is a child stream of one root seed,
keyed by a path of string/integer tags.  Streams are backed by the
counter-based Philox generator, so independently derived streams never
overlap and parallel execution cannot change results.
"""

from __future__ import annotations

import zlib

import numpy as np


def _tag_to_int(tag: str | int) -> int:
    if isinstance(tag, int):
        return tag
    return zlib.crc32(tag.encode("utf-8"))


def derive_rng(root_seed: int, *tags: str | int) -> np.random.Generator:
    """Child generator for ``(root_seed, *tags)``.

    The same (seed, tags) pair always yields the same stream; distinct
    tag paths yield statistically independent streams.
    """
    entropy = [int(root_seed)] + [_tag_to_int(t) for t in tags]
    seq = np.random.SeedSequence(entropy)
    return np.random.Generator(np.random.Philox(seq))
