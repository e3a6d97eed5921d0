"""Deterministic random number streams.

Every stochastic routine in the package draws from a counter-based
generator keyed by a master seed plus a stream path, so results are
reproducible bit for bit regardless of execution order or thread count.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["SeedSpec"]


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
