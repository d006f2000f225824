"""Deterministic RNG stream derivation.

Every replication gets its own generator derived from (seed, stream ids),
so serial and worker-pool runs of the same experiment produce identical
statistics.
"""

from __future__ import annotations

import numpy as np


def derive_rng(seed: int, *stream: int) -> np.random.Generator:
    """Generator for a (seed, stream...) address; same address, same draws."""
    if seed < 0:
        raise ValueError("seed must be a nonnegative integer")
    if any(s < 0 for s in stream):
        raise ValueError("stream ids must be nonnegative integers")
    # the generator default_rng(ss) returns, built without its argument dispatch
    ss = np.random.SeedSequence(seed, spawn_key=tuple(stream))
    return np.random.Generator(np.random.PCG64(ss))

