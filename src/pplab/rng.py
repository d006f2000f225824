"""Deterministic RNG stream derivation and the replication driver.

Replication i of a Monte Carlo draws only from the generator derived from
(seed, stream ids, i), so serial and worker-pool runs of the same
experiment produce identical statistics.  ``replicate`` is the one place
that addresses those streams and fans replications out over the process
pool that PPLAB_THREADS asks for.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from itertools import repeat

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


def _threads() -> int:
    """Worker count from PPLAB_THREADS: unset means 1, else a positive integer."""
    raw = os.environ.get("PPLAB_THREADS", "1")
    try:
        threads = int(raw)
    except ValueError:
        threads = 0
    if threads < 1:
        raise ValueError(f"PPLAB_THREADS must be a positive integer, got {raw!r}")
    return threads


def _replicate_span(fn, args: tuple, seed: int, stream: tuple, lo: int, hi: int) -> list:
    # derive_rng is looked up here, at run time, so a wrapper installed on
    # this module sees every stream
    return [fn(*args, derive_rng(seed, *stream, i)) for i in range(lo, hi)]


def replicate(fn, args: tuple, reps: int, seed: int, *stream: int) -> list:
    """``[fn(*args, derive_rng(seed, *stream, i)) for i in range(reps)]``.

    With PPLAB_THREADS > 1 the index range is cut into chunks that a process
    pool runs; they are reassembled in index order, so the result is the
    same for any worker count.  ``fn``, ``args`` and the results then cross
    the pool, so they must pickle.
    """
    threads = _threads()
    if threads == 1 or reps < 2:
        return _replicate_span(fn, args, seed, stream, 0, reps)
    edges = np.linspace(0, reps, min(reps, threads * 4) + 1, dtype=int)
    los, his = zip(*[(int(lo), int(hi)) for lo, hi in zip(edges[:-1], edges[1:]) if hi > lo])
    with ProcessPoolExecutor(max_workers=threads) as pool:
        parts = pool.map(_replicate_span, repeat(fn), repeat(args), repeat(seed),
                         repeat(stream), los, his)
        return [value for part in parts for value in part]
