"""Deterministic random number streams.

Every stochastic routine in the package draws from a counter-based
generator keyed by a master seed plus a stream path, so results are
reproducible bit for bit regardless of execution order or thread count.

The stream contract: the stream of (master, path) is numpy's Philox
(4x64, 10 rounds) with counter 0 and the 128-bit key
``np.random.SeedSequence(master, spawn_key=path).generate_state(2,
np.uint64)``, drawn through one ``np.random.Generator``.  A Philox
stream is fixed by its key alone, so `SeedSpec.generator` builds it for
one stream, and `draw_rows` re-keys a single generator row by row for a
block of keys that `stream_keys` computes in one vectorized pass.

`map_blocks` is the one replicate runner: seeded Monte Carlo loops run
their replicates through it in blocks of rows on a thread pool, and
`draw_rows` fills a block with one row per replicate's stream.
"""
from __future__ import annotations

import operator
import os
import threading
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError

__all__ = ["SeedSpec", "stream_keys", "draw_rows", "block_rows",
           "map_blocks"]

# Doubles in one block matrix of `map_blocks`.  Blocks bound the
# memory whatever the replicate count.  With the occupation loop's
# reused work space, on two cores, medians of 9 in-process runs for
# 2**14, ..., 2**18: 10k-path occupation 0.63, 0.51, 0.47, 0.45, 0.43 s;
# nonconsistency (n = 10k, 2000 reps) 1.04, 1.02, 0.66, 0.58, 0.49 s.
# In 8 paired fresh `bridge-lab` runs 2**18 beat this size in only 5
# (-3.5% and -2.4% in the median) and peaked 4-5 MB higher, so it stays.
BLOCK_DOUBLES = 1 << 17


@dataclass(frozen=True)
class SeedSpec:
    """Master seed plus a stream path identifying one logical substream.

    Two SeedSpecs with the same master seed and the same path always
    produce the same draws; specs with different paths are statistically
    independent.  Substreams for parallel work units are derived by
    extending the path with the unit index, never by sharing a generator.
    The master is any nonnegative int; path entries, which are replicate,
    cell and suffix indices, lie in [0, 2**32).
    """

    master: int
    path: tuple[int, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not isinstance(self.master, int) or isinstance(self.master, bool) \
                or self.master < 0:
            raise DomainError(f"master seed must be a nonnegative int, got "
                              f"{self.master!r}")
        if not all(isinstance(k, int) and 0 <= k <= _MASK32
                   for k in self.path):
            raise DomainError("stream path entries must be ints in "
                              "[0, 2**32)")

    def child(self, *indices: int) -> "SeedSpec":
        """Return the substream obtained by extending the path."""
        return SeedSpec(self.master, self.path + tuple(int(i) for i in indices))

    def generator(self) -> np.random.Generator:
        """Counter-based generator for this stream."""
        seq = np.random.SeedSequence(self.master, spawn_key=self.path)
        return np.random.Generator(np.random.Philox(seq))

    def child_keys(self, count: int, *suffix: int) -> np.ndarray:
        """Stream keys (count, 2) of ``self.child(r, *suffix)`` for r in
        range(count), as `stream_keys` gives them."""
        row = self.child(0, *suffix).path
        paths = np.tile(np.array(row, dtype=np.int64), (int(count), 1))
        paths[:, len(self.path)] = np.arange(int(count))
        return stream_keys(self.master, paths)

    def to_json(self) -> dict:
        return {"master": self.master, "path": list(self.path)}


def as_seed(seed: "SeedSpec | int | None") -> SeedSpec:
    """Coerce an integer or None into a SeedSpec (None means master seed
    0).  A number that is not an integer raises DomainError."""
    if seed is None:
        return SeedSpec(0)
    if isinstance(seed, SeedSpec):
        return seed
    try:
        return SeedSpec(operator.index(seed))
    except TypeError:
        raise DomainError(f"seed must be an integer, got {seed!r}") from None


# numpy's SeedSequence constants (O'Neill's seed_seq mixing, pool of
# four 32-bit words)
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _hash_consts(init: int, mult: int, skip: int, count: int) -> np.ndarray:
    """The hash constants of calls skip..skip+count-1 of SeedSequence's
    hash: (before, after) its multiply, one row per call.  They do not
    depend on the data."""
    h = init
    for _ in range(skip):
        h = h * mult & _MASK32
    out = np.empty((2, count, 1), dtype=np.uint32)
    for i in range(count):
        out[0, i], h = h, h * mult & _MASK32
        out[1, i] = h
    return out


def stream_keys(master: int, paths) -> np.ndarray:
    """Philox keys (k, 2) of the streams (master, paths[i]): row i equals
    ``np.random.SeedSequence(master, spawn_key=paths[i]).generate_state(
    2, np.uint64)``.

    ``paths`` is a (k, p) integer array of entries in [0, 2**32), one
    32-bit word each, as `SeedSpec.child_keys` builds it.  SeedSequence
    mixes its 32-bit entropy words with uint32 multiply, xor and shift,
    and its hash constants follow a fixed sequence, so one pass over the
    path columns keys every row at once.  The master's words are mixed
    first, the same for every row: that is SeedSequence(master)'s pool.
    """
    if not (isinstance(paths, np.ndarray) and paths.dtype.kind in "iu"
            and paths.ndim == 2):
        raise DomainError("paths must be a (k, p) integer array")
    if ((paths < 0) | (paths > _MASK32)).any():
        raise DomainError("stream path entries must lie in [0, 2**32)")
    words = paths.astype(np.uint32).T
    master = int(master)
    # mixing the master's words hashes once per pool word, once per
    # ordered pair of distinct pool words, and 4 times per master word
    # beyond the pool's four
    size = max(4, -(-max(master.bit_length(), 1) // 32))
    hashed = 4 + 12 + 4 * (size - 4)
    pool = np.repeat(np.random.SeedSequence(master).pool[:, None],
                     words.shape[1], axis=1)
    a, b = _hash_consts(_INIT_A, _MULT_A, hashed, 4 * len(words))
    for j, w in enumerate(words):
        h = (w ^ a[4 * j:4 * j + 4]) * b[4 * j:4 * j + 4]
        h ^= h >> 16
        pool = _MIX_L * pool - _MIX_R * h
        pool ^= pool >> 16
    a, b = _hash_consts(_INIT_B, _MULT_B, 0, 4)
    state = ((pool ^ a) * b).astype(np.uint64)
    state ^= state >> 16
    return (state[0::2] | state[1::2] << 32).T


def draw_rows(seed: "SeedSpec | int | np.ndarray | None",
              shape: tuple[int, ...],
              draw: Callable[[np.random.Generator, np.ndarray], object],
              dtype=float, out: np.ndarray | None = None) -> np.ndarray:
    """Draws of ``shape`` from one seed, or stacked in rows, one per key
    of a (k, 2) block of `stream_keys`.

    ``draw(rng, out)`` fills ``out`` from the generator of one stream.  A
    block of k keys gives an array (k, *shape) whose row i is what key
    i's stream gives alone, so a block of replicates is drawn with one
    call and transformed with one vectorized step.  The block re-keys
    one Philox row by row, so it builds no generator per row.  ``out``,
    if given, receives the block and is returned.
    """
    if not isinstance(seed, np.ndarray):
        out = np.empty(shape, dtype=dtype) if out is None else out
        draw(as_seed(seed).generator(), out)
        return out
    if out is None:
        out = np.empty((len(seed), *shape), dtype=dtype)
    bits = np.random.Philox(0)
    rng = np.random.Generator(bits)
    state = bits.state
    for row, key in zip(out, seed):
        # counter 0, empty buffer and no spare 32-bit half: a fresh stream
        state["state"] = {"counter": np.zeros(4, np.uint64), "key": key}
        bits.state = state
        draw(rng, row)
    return out


def block_rows(width: int) -> int:
    """Replicates per block when each fills ``width`` doubles of the
    block matrices: at least one, else ``BLOCK_DOUBLES // width``."""
    return max(1, BLOCK_DOUBLES // int(width))


def map_blocks(fill: Callable[[int, int], np.ndarray], count: int,
               rows: int, threads: int = 1) -> np.ndarray:
    """Per-replicate values of ``count`` replicates, in replicate order.

    ``range(count)`` is cut into consecutive blocks of ``rows``
    replicates, and ``fill(lo, hi)`` returns the values of replicates
    lo..hi-1 of one block.  The blocks run on min(threads, blocks, cores)
    pool threads, each taking the next block when it is done with one,
    so the runner holds no per-block state besides the values.  A fill
    that draws replicate r only from its own substream
    (``seed.child(r, ...)``) gives the same values at any ``threads``
    and ``rows``.
    """
    # imported here: the commands without replicate loops start faster
    from concurrent.futures import ThreadPoolExecutor
    if count < 1 or rows < 1 or threads < 1:
        raise DomainError(f"count, rows and threads must be >= 1, got "
                          f"{count}, {rows} and {threads}")
    starts = range(0, count, rows)
    parts = [None] * len(starts)
    blocks = iter(starts)
    lock = threading.Lock()

    def work(_) -> None:
        while True:
            with lock:
                lo = next(blocks, None)
            if lo is None:
                return
            parts[lo // rows] = fill(lo, min(lo + rows, count))
    workers = min(threads, len(starts), os.cpu_count() or 1)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(work, range(workers)))
    return np.concatenate(parts)
