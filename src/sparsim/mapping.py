"""Compute-mapping strategies for assigning work to parallel units.

Each strategy maps a packed 32-bit tag to a target index in [0, N). All of
them are consistent: for the whole run the target is a pure function of
the tag, which is what accumulation correctness requires (every partial
product of one output element must meet at the same unit).

* ring          -- first-touch round-robin: each previously unseen tag
                   takes the next target (memoized for consistency)
* modular       -- (tag * P) mod N with a fixed prime multiplier
* drhm-low      -- ((tag << k) >> k) * gamma mod N on 32-bit registers,
                   i.e. the low 32-k bits scrambled by an odd seed
* drhm-high     -- ((tag >> k) << k) * gamma mod N, the high bits variant
* random        -- memoized uniform draw per distinct tag (the lookup-table
                   baseline; unbounded bookkeeping, kept for comparison)

The drhm variants reseed per row only: row r's odd gamma is
``draw_gamma(seed, r)`` from a counter-based generator, keyed off the
tag's own row field, so the per-row gamma log makes every assignment
replayable.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

RING = "ring"
MODULAR = "modular"
DRHM_LOW = "drhm-low"
DRHM_HIGH = "drhm-high"
RANDOM_TABLE = "random"
STRATEGIES = (RING, MODULAR, DRHM_LOW, DRHM_HIGH, RANDOM_TABLE)

MODULAR_PRIME = 2654435761  # prime close to 2^32/phi, a common multiplicative hash

_M64 = (1 << 64) - 1
_M32 = (1 << 32) - 1


def splitmix64(x: int) -> int:
    """Counter-based deterministic 64-bit mixer."""
    x = (x + 0x9E3779B97F4A7C15) & _M64
    z = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def draw_gamma(seed: int, counter: int) -> int:
    """Odd 32-bit multiplier number ``counter`` of the seed's sequence."""
    return (splitmix64((seed << 20) ^ counter) & _M32) | 1


def hash_low(tag: int, gamma: int, k: int, n: int) -> int:
    """Low-bits reseeded hash on 32-bit registers (overflow discarded)."""
    masked = ((tag << k) & _M32) >> k
    return (masked * gamma) % n


def hash_high(tag: int, gamma: int, k: int, n: int) -> int:
    """High-bits variant: zero the low k bits before scrambling."""
    masked = ((tag >> k) << k) & _M32
    return (masked * gamma) % n


@dataclass(frozen=True)
class MapperConfig:
    strategy: str
    n_targets: int
    k: int = 16
    rng_seed: int = 0
    col_bits: int = 16  # tag layout, used to key per-row reseeding off the tag

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"unknown mapping strategy {self.strategy!r}")
        if self.n_targets < 1:
            raise ConfigError("n_targets must be >= 1")
        if not (0 <= self.k < 32):
            raise ConfigError("k must be in [0, 32)")


class Mapper:
    """Maps each accumulation tag to a target unit.

    For the drhm strategies gamma is keyed off the tag's own row field
    (``draw_gamma(seed, row)``), so the target stays a pure function of the
    tag for the whole run. The drawn gammas are kept in ``row_gammas``.
    """

    def __init__(self, cfg: MapperConfig):
        self.cfg = cfg
        self._ring_memo: dict = {}
        self._ring_next = 0
        self._random_memo: dict = {}
        self.row_gammas: dict = {}
        self.assignments = 0

    def map_for_accumulation(self, tag: int) -> int:
        self.assignments += 1
        cfg = self.cfg
        s = cfg.strategy
        if s in (DRHM_LOW, DRHM_HIGH):
            row = tag >> cfg.col_bits
            gamma = self.row_gammas.get(row)
            if gamma is None:
                gamma = draw_gamma(cfg.rng_seed, row)
                self.row_gammas[row] = gamma
            hash_fn = hash_low if s == DRHM_LOW else hash_high
            return hash_fn(tag, gamma, cfg.k, cfg.n_targets)
        if s == RING:
            t = self._ring_memo.get(tag)
            if t is None:
                t = self._ring_next % cfg.n_targets
                self._ring_memo[tag] = t
                self._ring_next += 1
            return t
        if s == MODULAR:
            return (tag * MODULAR_PRIME) % cfg.n_targets
        t = self._random_memo.get(tag)
        if t is None:
            t = splitmix64((cfg.rng_seed << 32) ^ tag) % cfg.n_targets
            self._random_memo[tag] = t
        return t


# ---------------------------------------------------------------------------
# Uniformity statistics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LoadHistogram:
    counts: np.ndarray
    cv: float
    max_over_mean: float


def load_stats(assignments, n_targets: int) -> LoadHistogram:
    """Per-target tallies with coefficient of variation and max/mean."""
    assignments = np.asarray(list(assignments), dtype=np.int64)
    if assignments.size == 0:
        raise ConfigError("no assignments to tally")
    counts = np.bincount(assignments, minlength=n_targets).astype(np.int64)
    mean = counts.mean()
    return LoadHistogram(
        counts=counts,
        cv=float(counts.std() / mean) if mean else 0.0,
        max_over_mean=float(counts.max() / mean) if mean else 0.0,
    )


def grid_stats(grid: np.ndarray) -> LoadHistogram:
    """Uniformity over the source x target traffic grid (heat-map cells)."""
    flat = np.asarray(grid, dtype=np.float64).ravel()
    if flat.size == 0 or flat.sum() == 0:
        raise ConfigError("empty traffic grid")
    mean = flat.mean()
    return LoadHistogram(
        counts=flat.astype(np.int64), cv=float(flat.std() / mean), max_over_mean=float(flat.max() / mean)
    )


def export_heatmap(grid: np.ndarray, stream) -> None:
    """CSV traffic grid: one row per source core, one column per target."""
    grid = np.asarray(grid)
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["core"] + [f"mem{m}" for m in range(grid.shape[1])])
    for c in range(grid.shape[0]):
        writer.writerow([c] + [int(v) for v in grid[c]])


def read_heatmap(stream) -> np.ndarray:
    rows = list(csv.reader(stream))
    return np.asarray([[int(v) for v in row[1:]] for row in rows[1:]], dtype=np.int64)
