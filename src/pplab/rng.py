"""Deterministic RNG stream derivation and the replication driver.

The stream contract.  A Monte Carlo of ``reps`` replications is cut into
consecutive blocks of B replications; block b (replications
``b*B .. min((b+1)*B, reps) - 1``) draws only from the generator derived
from (seed, stream ids, b).  There are two block sizes:

- ``replicate`` is B = 1: replication i has its own stream
  (seed, stream ids, i) and ``fn(*args, rng)`` returns its one value.
  ``gilbert-midpoints`` and ``kr-estimate`` draw this way.
- ``replicate_blocks`` is B = ``BLOCK``: ``fn(*args, rng, size)`` draws a
  whole block with one array draw per variate and returns arrays whose
  first axis has length ``size``; the blocks are joined in index order.
  ``glauber-verify`` (both simulators, both commutation sides and the
  ergodicity survivor counts), the pair statistics of ``gilbert-edges``,
  ``gilbert-lengths``, ``distance-power`` and ``polytope``, the flat-pair
  counts of ``flats`` and both sides of every ``mecke-verify`` check draw
  this way.  A draw may be split into consecutive pieces from the block's
  generator, which gives the same bits.

``BLOCK`` is part of the contract, not a setting: changing it moves every
number drawn through ``replicate_blocks``.

Both sizes run on one driver, the one place that addresses streams.  With
PPLAB_THREADS > 1 it cuts the block range into index-ordered chunks that a
process pool runs and reassembles them in order, so every result is the
same for any worker count.  ``worker_pool`` opens that pool once for all
the driver calls inside it; ``scenarios.run`` opens it once per scenario.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from contextvars import ContextVar
from itertools import repeat

import numpy as np

BLOCK = 4096

_POOL: ContextVar = ContextVar("pplab_worker_pool", default=None)  # set by ``worker_pool``


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


@contextmanager
def worker_pool():
    """Open the PPLAB_THREADS process pool for every driver call inside.

    Reads PPLAB_THREADS first, so a bad value fails here.  With one worker
    no pool is made; inside an open pool the outer one is reused.
    """
    threads = _threads()
    if threads == 1 or _POOL.get() is not None:
        yield
        return
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=threads) as pool:
        token = _POOL.set(pool)
        try:
            yield
        finally:
            _POOL.reset(token)


def _span(fn, args: tuple, seed: int, stream: tuple, reps: int, block: int, lo: int, hi: int) -> list:
    """Results of blocks lo .. hi - 1, one per block."""
    # derive_rng is looked up here, at run time, so a wrapper installed on
    # this module sees every stream
    if block == 1:
        return [fn(*args, derive_rng(seed, *stream, i)) for i in range(lo, hi)]
    return [fn(*args, derive_rng(seed, *stream, b), min(block, reps - b * block)) for b in range(lo, hi)]


def _drive(fn, args: tuple, reps: int, seed: int, stream: tuple, block: int) -> list:
    """The result of every block of ``reps`` replications, in block order."""
    blocks = -(-reps // block)
    threads = _threads()
    if threads == 1 or blocks < 2:
        return _span(fn, args, seed, stream, reps, block, 0, blocks)
    edges = np.linspace(0, blocks, min(blocks, threads * 4) + 1, dtype=int)
    los, his = zip(*[(int(lo), int(hi)) for lo, hi in zip(edges[:-1], edges[1:]) if hi > lo])
    with worker_pool():
        parts = _POOL.get().map(_span, repeat(fn), repeat(args), repeat(seed), repeat(stream),
                                repeat(reps), repeat(block), los, his)
        return [value for part in parts for value in part]


def replicate(fn, args: tuple, reps: int, seed: int, *stream: int) -> list:
    """``[fn(*args, derive_rng(seed, *stream, i)) for i in range(reps)]``.

    With PPLAB_THREADS > 1, ``fn``, ``args`` and the results cross the
    process pool, so they must pickle.
    """
    return _drive(fn, args, reps, seed, stream, 1)


def replicate_blocks(fn, args: tuple, reps: int, seed: int, *stream: int) -> np.ndarray:
    """``np.concatenate([fn(*args, derive_rng(seed, *stream, b), size_b) ...])``
    over the blocks b of ``reps`` replications, where ``size_b`` is ``BLOCK``
    except for a shorter last block.  ``fn`` must pickle, as for
    ``replicate``."""
    return np.concatenate(_drive(fn, args, reps, seed, stream, BLOCK))
