"""Deterministic random number streams.

Every stochastic routine in the package draws from a counter-based
generator keyed by a master seed plus a stream path, so results are
reproducible bit for bit regardless of execution order or thread count.
`map_blocks` is the one replicate runner: seeded Monte Carlo loops run
their replicates through it in blocks of rows on a thread pool, and
`draw_rows` fills a block with one row per replicate's stream.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError

__all__ = ["SeedSpec", "draw_rows", "block_rows", "map_blocks"]

# Doubles in one block matrix of `map_blocks`.  Blocks bound the
# memory whatever the replicate count; of 2**14 to 2**18, this size ran
# bridge-lab's occupation and nonconsistency loops fastest on two cores.
BLOCK_DOUBLES = 1 << 17


@dataclass(frozen=True)
class SeedSpec:
    """Master seed plus a stream path identifying one logical substream.

    Two SeedSpecs with the same master seed and the same path always
    produce the same draws; specs with different paths are statistically
    independent.  Substreams for parallel work units are derived by
    extending the path with the unit index, never by sharing a generator.
    """

    master: int
    path: tuple[int, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not isinstance(self.master, int) or isinstance(self.master, bool):
            raise TypeError("master seed must be an int")
        if self.master < 0:
            raise ValueError("master seed must be nonnegative")
        if not all(isinstance(k, int) and k >= 0 for k in self.path):
            raise ValueError("stream path entries must be nonnegative ints")

    def child(self, *indices: int) -> "SeedSpec":
        """Return the substream obtained by extending the path."""
        return SeedSpec(self.master, self.path + tuple(int(i) for i in indices))

    def generator(self) -> np.random.Generator:
        """Counter-based generator for this stream."""
        seq = np.random.SeedSequence(self.master, spawn_key=self.path)
        return np.random.Generator(np.random.Philox(seq))

    def to_json(self) -> dict:
        return {"master": self.master, "path": list(self.path)}


def as_seed(seed: "SeedSpec | int | None") -> SeedSpec:
    """Coerce an int or None into a SeedSpec (None means master seed 0)."""
    if seed is None:
        return SeedSpec(0)
    if isinstance(seed, SeedSpec):
        return seed
    return SeedSpec(int(seed))


def draw_rows(seed: "SeedSpec | int | None | Sequence[SeedSpec | int]",
              shape: tuple[int, ...],
              draw: Callable[[np.random.Generator, np.ndarray], object],
              dtype=float) -> np.ndarray:
    """Draws of ``shape`` from one seed, or stacked in rows, one per seed
    of a sequence.

    ``draw(rng, out)`` fills ``out`` from the generator of one seed.  A
    sequence of k seeds gives an array (k, *shape) whose row i is what
    seed i gives alone, so a block of replicates is drawn with one call
    and transformed with one vectorized step.
    """
    one = seed is None or isinstance(seed, (SeedSpec, int, np.integer))
    seeds = [seed] if one else seed
    out = np.empty((len(seeds), *shape), dtype=dtype)
    for row, s in zip(out, seeds):
        draw(as_seed(s).generator(), row)
    return out[0] if one else out


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
    pool threads.  A fill that draws replicate r only from its own
    substream (``seed.child(r, ...)``) gives the same values at any
    ``threads`` and ``rows``.
    """
    # imported here: the commands without replicate loops start faster
    from concurrent.futures import ThreadPoolExecutor
    if count < 1 or rows < 1 or threads < 1:
        raise DomainError(f"count, rows and threads must be >= 1, got "
                          f"{count}, {rows} and {threads}")
    starts = range(0, count, rows)
    workers = min(threads, len(starts), os.cpu_count() or 1)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        parts = list(pool.map(lambda lo: fill(lo, min(lo + rows, count)),
                              starts))
    return np.concatenate(parts)
