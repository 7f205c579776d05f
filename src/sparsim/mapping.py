"""Compute-mapping strategies for assigning work to parallel units.

Each strategy maps a packed 32-bit tag to a target index in [0, N). All of
them are consistent: for the whole run the target is a pure function of
the tag, which is what accumulation correctness requires (every partial
product of one output element must meet at the same unit).

* ring          -- first-touch round-robin: each previously unseen tag
                   takes the next target, so its target follows arrival order
* modular       -- (tag * P) mod N with a fixed prime multiplier
* drhm-low      -- ((tag << k) >> k) * gamma mod N on 32-bit registers,
                   i.e. the low 32-k bits scrambled by an odd seed
* drhm-high     -- ((tag >> k) << k) * gamma mod N, the high bits variant
* random        -- a uniform draw per distinct tag, splitmix64 of the seed
                   and the tag (the lookup-table baseline, kept for comparison)

Every formula but ring's runs unchanged on Python ints and on ``uint64``
arrays, so ``Mapper.targets`` maps one tag or a whole tag stream with the
same code; ``Mapper.map_for_accumulation`` keeps each tag's target in one
table, filled on first touch.

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


def splitmix64(x):
    """Counter-based deterministic 64-bit mixer, of an int or a uint64 array."""
    x = (x + 0x9E3779B97F4A7C15) & _M64
    z = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def draw_gamma(seed: int, counter):
    """Odd 32-bit multiplier number ``counter`` of the seed's sequence."""
    return (splitmix64(((seed << 20) & _M64) ^ counter) & _M32) | 1


def hash_low(tag, gamma, k: int, n: int):
    """Low-bits reseeded hash on 32-bit registers (overflow discarded)."""
    masked = ((tag << k) & _M32) >> k
    return (masked * gamma) % n


def hash_high(tag, gamma, k: int, n: int):
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

    ``table`` holds the target of every tag mapped so far. For the drhm
    strategies gamma is keyed off the tag's own row field
    (``draw_gamma(seed, row)``), so the target stays a pure function of the
    tag for the whole run; ``row_gammas`` logs the gamma of each row in the
    table.
    """

    def __init__(self, cfg: MapperConfig):
        self.cfg = cfg
        self.table: dict = {}
        self.assignments = 0

    def targets(self, tags):
        """The target of each tag: an int for an int, an int64 array for an
        array of tags. Ring has no such function of the tag and raises
        ConfigError."""
        cfg = self.cfg
        s = cfg.strategy
        if s == RING:
            raise ConfigError("ring maps each new tag to the next target in arrival order; "
                              "its targets are not a function of the tag")
        scalar = isinstance(tags, int)
        if not scalar:
            tags = np.asarray(tags, dtype=np.uint64)
        n = cfg.n_targets
        if s == MODULAR:
            t = (tags * MODULAR_PRIME) % n
        elif s == RANDOM_TABLE:
            t = splitmix64(((cfg.rng_seed << 32) & _M64) ^ tags) % n
        else:
            gamma = draw_gamma(cfg.rng_seed, tags >> cfg.col_bits)
            t = (hash_low if s == DRHM_LOW else hash_high)(tags, gamma, cfg.k, n)
        return t if scalar else t.astype(np.int64)

    def map_for_accumulation(self, tag: int) -> int:
        self.assignments += 1
        t = self.table.get(tag)
        if t is None:
            if self.cfg.strategy == RING:
                t = len(self.table) % self.cfg.n_targets
            else:
                t = self.targets(tag)
            self.table[tag] = t
        return t

    @property
    def row_gammas(self) -> dict:
        """Row -> gamma for each row of the table's tags (drhm only, else empty)."""
        cfg = self.cfg
        if cfg.strategy not in (DRHM_LOW, DRHM_HIGH) or not self.table:
            return {}
        tags = np.fromiter(self.table, dtype=np.uint64, count=len(self.table))
        rows = np.unique(tags >> cfg.col_bits)
        return dict(zip(rows.tolist(), draw_gamma(cfg.rng_seed, rows).tolist()))


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
