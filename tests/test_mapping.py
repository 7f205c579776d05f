"""Mapping strategies: formula checks, consistency, per-row reseeding, uniformity."""

import io
import math

import numpy as np
import pytest

from sparsim import isa, mapping, matio, oracle
from sparsim.errors import ConfigError


def cfg(strategy, n=128, **kw):
    return mapping.MapperConfig(strategy=strategy, n_targets=n, **kw)


# ---------------------------------------------------------------------------
# Formulas
# ---------------------------------------------------------------------------


def test_drhm_low_worked_example():
    # low 16 bits of 0xABCD1234 are 0x1234 = 4660; (4660 * 7) mod 128 = 108
    assert mapping.hash_low(0xABCD1234, gamma=7, k=16, n=128) == 108


def test_drhm_high_discards_low_bits():
    tag = 0xABCD1234
    masked = 0xABCD0000
    assert mapping.hash_high(tag, gamma=3, k=16, n=1000) == (masked * 3) % 1000


def test_drhm_shifts_discard_beyond_32_bits():
    # (tag << k) must drop bits shifted past bit 31 before shifting back
    tag = 0xFFFF0001
    assert mapping.hash_low(tag, gamma=1, k=16, n=1 << 20) == 1


def test_ring_sequential_first_touch():
    m = mapping.Mapper(cfg(mapping.RING, n=4))
    targets = [m.map_for_accumulation(t) for t in (100, 200, 300, 400, 500)]
    assert targets == [0, 1, 2, 3, 0]


def test_ring_repeated_tag_is_consistent():
    m = mapping.Mapper(cfg(mapping.RING, n=4))
    first = m.map_for_accumulation(42)
    m.map_for_accumulation(43)
    assert m.map_for_accumulation(42) == first


def test_random_table_consistent_and_bounded_memo():
    m = mapping.Mapper(cfg(mapping.RANDOM_TABLE, n=16, rng_seed=5))
    tags = [7, 9, 7, 7, 9, 11]
    targets = [m.map_for_accumulation(t) for t in tags]
    assert targets[0] == targets[2] == targets[3]
    assert targets[1] == targets[4]
    assert len(m.table) == 3  # one entry per distinct tag


def test_modular_is_pure_function():
    m = mapping.Mapper(cfg(mapping.MODULAR, n=37))
    assert m.map_for_accumulation(1234) == (1234 * mapping.MODULAR_PRIME) % 37
    assert all(0 <= m.map_for_accumulation(t) < 37 for t in range(5000, 5100))


# ---------------------------------------------------------------------------
# Per-row reseeding
# ---------------------------------------------------------------------------


def test_thousand_reseeds_all_odd():
    gammas = [mapping.draw_gamma(77, row) for row in range(1000)]
    assert all(g % 2 == 1 for g in gammas)
    assert all(0 < g <= 0xFFFFFFFF for g in gammas)
    m = mapping.Mapper(cfg(mapping.DRHM_HIGH, rng_seed=77))
    for row in range(1000):
        m.map_for_accumulation(row << 16)
    assert m.row_gammas == dict(enumerate(gammas))


def test_per_row_accumulation_mapping_is_pure_per_tag():
    m = mapping.Mapper(cfg(mapping.DRHM_LOW, n=32, rng_seed=4))
    tags = [(r << 16) | c for r in range(10) for c in range(10)]
    first = [m.map_for_accumulation(t) for t in tags]
    again = [m.map_for_accumulation(t) for t in reversed(tags)]
    assert first == list(reversed(again))


def test_determinism_full_sequence():
    for strategy in mapping.STRATEGIES:
        seqs = []
        for _ in range(2):
            m = mapping.Mapper(cfg(strategy, n=16, rng_seed=123))
            seqs.append([m.map_for_accumulation((t * 7919) & 0xFFFFFFFF) for t in range(500)])
        assert seqs[0] == seqs[1]


def test_range_property():
    rng = np.random.Generator(np.random.PCG64(6))
    tags = rng.integers(0, 1 << 32, size=2000)
    for strategy in mapping.STRATEGIES:
        for n in (1, 7, 32):
            m = mapping.Mapper(cfg(strategy, n=n, rng_seed=2))
            assert all(0 <= m.map_for_accumulation(int(t)) < n for t in tags[:200])


def element_tags(scale, seed):
    """The tag of every output element of A * A for A = rmat(scale, 4, seed),
    in the run's tag layout, and that layout's column bits."""
    coo = matio.generate_rmat(matio.RmatParams(scale=scale, edge_factor=4, seed=seed))
    a = matio.to_csr(coo)
    plan = oracle.symbolic_pass(a, a)
    col_bits = isa.default_layout(plan.n_rows, plan.n_cols).col_bits
    rows = np.repeat(np.arange(plan.n_rows, dtype=np.int64), np.diff(plan.out_offsets))
    return rows << col_bits | plan.out_cols, col_bits


@pytest.mark.parametrize("scale", [9, 10])
def test_targets_equal_map_for_accumulation_on_every_element_tag(scale):
    tags, col_bits = element_tags(scale, seed=1)
    for strategy in (mapping.MODULAR, mapping.DRHM_LOW, mapping.DRHM_HIGH, mapping.RANDOM_TABLE):
        for k in (0, 16, 31):
            for seed in (0, 1, 1 << 45):
                m = mapping.Mapper(cfg(strategy, n=32, k=k, rng_seed=seed, col_bits=col_bits))
                got = m.targets(tags)
                assert got.dtype == np.int64
                assert got.tolist() == [m.map_for_accumulation(t) for t in tags.tolist()], (strategy, k, seed)


def test_ring_has_no_targets():
    m = mapping.Mapper(cfg(mapping.RING, n=4))
    with pytest.raises(ConfigError, match="arrival order"):
        m.targets(np.arange(8))
    with pytest.raises(ConfigError):
        m.targets(5)


# ---------------------------------------------------------------------------
# Statistics and heat maps
# ---------------------------------------------------------------------------


def test_load_stats_closed_forms():
    h = mapping.load_stats([0] * 1000, n_targets=4)
    assert h.cv == pytest.approx(math.sqrt(3))
    assert h.max_over_mean == pytest.approx(4.0)
    uniform = mapping.load_stats(list(range(8)) * 125, n_targets=8)
    assert uniform.cv == 0.0


def test_load_stats_empty_errors():
    with pytest.raises(ConfigError):
        mapping.load_stats([], n_targets=4)


def test_heatmap_round_trip():
    grid = np.arange(12).reshape(3, 4)
    buf = io.StringIO()
    mapping.export_heatmap(grid, buf)
    buf.seek(0)
    back = mapping.read_heatmap(buf)
    assert np.array_equal(back, grid)
    stats = mapping.grid_stats(back)
    assert stats.max_over_mean == pytest.approx(11 / np.mean(grid))


def test_config_validation():
    with pytest.raises(ConfigError):
        mapping.MapperConfig(strategy="bogus", n_targets=4)
    with pytest.raises(ConfigError):
        mapping.MapperConfig(strategy=mapping.RING, n_targets=0)
    with pytest.raises(ConfigError):
        mapping.MapperConfig(strategy=mapping.RING, n_targets=4, k=32)
