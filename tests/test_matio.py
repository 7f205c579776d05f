"""Storage formats, Matrix Market I/O, MAP-CSR accounting, RMAT generation."""

import dataclasses
import io
import random

import numpy as np
import pytest
import scipy.sparse as sp

from sparsim import matio
from sparsim.errors import CapacityError, ConfigError, MatrixFormatError, SparsimError


def random_coo(n, nnz, seed, integer=False):
    rng = np.random.Generator(np.random.PCG64(seed))
    rows = rng.integers(0, n, size=nnz)
    cols = rng.integers(0, n, size=nnz)
    vals = rng.integers(1, 10, size=nnz).astype(float) if integer else rng.normal(size=nnz)
    return matio.coo_from_entries(n, n, rows, cols, vals)


# ---------------------------------------------------------------------------
# Matrix Market parsing
# ---------------------------------------------------------------------------


def test_parse_pattern_symmetric_expands_both_triangles():
    text = "%%MatrixMarket matrix coordinate pattern symmetric\n2 2 1\n2 1\n"
    m = matio.parse_matrix_market(text)
    assert m.n_rows == 2 and m.n_cols == 2
    assert sorted(m.entries()) == [(0, 1, 1.0), (1, 0, 1.0)]


def test_parse_symmetric_diagonal_not_duplicated():
    text = "%%MatrixMarket matrix coordinate real symmetric\n3 3 2\n1 1 5.0\n3 1 2.0\n"
    m = matio.parse_matrix_market(text)
    assert sorted(m.entries()) == [(0, 0, 5.0), (0, 2, 2.0), (2, 0, 2.0)]


def test_parse_empty_entry_list():
    m = matio.parse_matrix_market("%%MatrixMarket matrix coordinate real general\n3 3 0\n")
    assert m.n_rows == 3 and m.nnz == 0


def test_parse_sums_duplicates():
    text = "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.5\n1 1 2.5\n"
    m = matio.parse_matrix_market(text)
    assert list(m.entries()) == [(0, 0, 4.0)]


def test_parse_integer_field():
    text = "%%MatrixMarket matrix coordinate integer general\n2 2 1\n2 2 7\n"
    assert list(matio.parse_matrix_market(text).entries()) == [(1, 1, 7.0)]


@pytest.mark.parametrize(
    "text,expect_line",
    [
        ("%%NotMatrixMarket whatever\n1 1 0\n", 1),
        ("%%MatrixMarket matrix array real general\n1 1\n", 1),
        ("%%MatrixMarket matrix coordinate real general\nnot a size line\n", 2),
        ("%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n", 3),
        ("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 x 1.0\n", 3),
    ],
)
def test_parse_errors_name_line(text, expect_line):
    with pytest.raises(MatrixFormatError) as err:
        matio.parse_matrix_market(text)
    assert f"line {expect_line}" in str(err.value)


def test_mm_round_trip_bit_exact():
    rng = random.Random(11)
    for trial in range(10):
        m = random_coo(16, 20, seed=trial)
        buf = io.StringIO()
        matio.write_matrix_market(m, buf)
        back = matio.parse_matrix_market(buf.getvalue())
        assert np.array_equal(m.rows, back.rows)
        assert np.array_equal(m.cols, back.cols)
        assert np.array_equal(m.values, back.values)  # bit-exact via repr round-trip
        assert rng is not None


def test_edge_list_auto_base_detection():
    zero_based = matio.load_edge_list("# comment\n0 3\n2 1\n")
    assert zero_based.n_rows == 4
    one_based = matio.load_edge_list("1 3\n2 1\n")
    assert one_based.n_rows == 3
    assert sorted(one_based.entries()) == [(0, 2, 1.0), (1, 0, 1.0)]


# ---------------------------------------------------------------------------
# Conversions
# ---------------------------------------------------------------------------


def test_to_csr_basic():
    m = matio.coo_from_entries(2, 2, [0, 1], [0, 1], [1.0, 2.0])
    csr = matio.to_csr(m)
    assert csr.row_offsets.tolist() == [0, 1, 2]
    assert csr.col_indices.tolist() == [0, 1]


def test_identity_csr_equals_csc_arrays():
    eye = matio.coo_from_entries(4, 4, range(4), range(4), [1.0] * 4)
    csr = matio.to_csr(eye)
    csc = matio.to_csc(eye)
    assert np.array_equal(csr.row_offsets, csc.col_offsets)
    assert np.array_equal(csr.col_indices, csc.row_indices)
    assert np.array_equal(csr.values, csc.values)


def test_round_trip_and_dense_agreement():
    for seed in range(12):
        m = random_coo(16, 20, seed=seed)
        csr = matio.to_csr(m)
        back = matio.csr_to_coo(csr)
        assert np.array_equal(m.rows, back.rows)
        assert np.array_equal(m.cols, back.cols)
        assert np.array_equal(m.values, back.values)
        dense = matio.to_dense(m)
        assert np.array_equal(dense, matio.csr_to_dense(csr))
        csc = matio.to_csc(m)
        from_csc = sp.csc_matrix((csc.values, csc.row_indices, csc.col_offsets), shape=(16, 16))
        assert np.array_equal(dense, from_csc.toarray())
        # cross-check against scipy's converters
        ref = sp.coo_matrix((m.values, (m.rows, m.cols)), shape=(16, 16)).toarray()
        assert np.array_equal(dense, ref)


def test_csr_invariants():
    for seed in range(8):
        m = random_coo(32, 60, seed=100 + seed)
        csr = matio.to_csr(m)
        assert csr.row_offsets[0] == 0
        assert csr.row_offsets[-1] == csr.nnz
        assert np.all(np.diff(csr.row_offsets) >= 0)
        for i in range(csr.n_rows):
            cj, _ = csr.row(i)
            assert np.all(np.diff(cj) > 0)
        csc = matio.to_csc(m)
        assert csc.col_offsets[-1] == csc.nnz
        for j in range(csc.n_cols):
            ri, _ = csc.col(j)
            assert np.all(np.diff(ri) > 0)


# ---------------------------------------------------------------------------
# MAP-CSR
# ---------------------------------------------------------------------------


def test_map_csr_unreplicated_unit_bank_ratio_is_exactly_one():
    m = matio.to_csr(random_coo(16, 30, seed=3))
    mc = matio.build_map_csr(m, bank_width=1)
    assert matio.replication_ratio(mc) == 1.0


def test_map_csr_worked_ratio_example():
    # 10 nnz, replicate one 4-nnz row, pad 2 zeros -> (10+4+2)/10 = 1.6
    coo = matio.coo_from_entries(
        3, 8, [0] * 4 + [1] * 3 + [2] * 3, list(range(4)) + list(range(3)) + list(range(3)), [1.0] * 10
    )
    csr = matio.to_csr(coo)
    mc = matio.build_map_csr(csr, bank_width=4, replicate_rows={0})
    assert mc.replica_nnz == 4
    assert mc.pad_count == 2
    assert matio.replication_ratio(mc) == pytest.approx(1.6)


def test_map_csr_all_rows_replicated_ratio_at_least_two():
    m = matio.to_csr(matio.generate_rmat(matio.RmatParams(scale=6, edge_factor=4, seed=5)))
    mc = matio.build_map_csr(m, bank_width=16, replicate_rows=range(m.n_rows))
    ratio = matio.replication_ratio(mc)
    # counted independently from the constructed arrays
    manual = (mc.nnz + mc.replica_nnz + mc.pad_count) / mc.nnz
    assert ratio == manual
    assert ratio >= 2.0


def test_map_csr_replica_content_identical_and_aligned():
    m = matio.to_csr(random_coo(24, 80, seed=9))
    mc = matio.build_map_csr(m, bank_width=8, replicate_rows={1, 5, 7})
    for r in range(24):
        cj, cv = m.row(r)
        pj, pv = mc.row(r)
        assert np.array_equal(cj, pj) and np.array_equal(cv, pv)
        assert mc.row_offsets[r] % 8 == 0
    for r in (1, 5, 7):
        pj, pv = mc.row(r)
        rj, rv = mc.row(r, replica=True)
        assert np.array_equal(pj, rj) and np.array_equal(pv, rv)
    back = matio.map_csr_to_csr(mc)
    assert np.array_equal(matio.csr_to_dense(back), matio.csr_to_dense(m))


def test_map_csr_to_csr_reads_primaries_in_any_placement():
    m = matio.to_csr(random_coo(12, 30, seed=4))
    placement = [(r, True) for r in (9, 2)] + [(r, False) for r in reversed(range(12))]
    mc = matio.build_map_csr(m, bank_width=4, replicate_rows=(2, 9), placement=placement)
    rep = mc.values.copy()
    for r in (2, 9):  # replicas that differ from their primaries must not leak in
        off = int(mc.replica_offsets[r])
        rep[off : off + int(mc.elems_per_row[r])] += 100.0
    back = matio.map_csr_to_csr(dataclasses.replace(mc, values=rep))
    assert np.array_equal(back.row_offsets, m.row_offsets)
    assert back.col_indices.dtype == m.col_indices.dtype
    assert np.array_equal(back.col_indices, m.col_indices)
    assert back.values.tobytes() == m.values.tobytes()


@pytest.mark.parametrize(
    "starts, lengths",
    [
        ([], []),
        ([7], [4]),
        ([5, 100, 2], [3, 0, 2]),
        (np.array([10, 0, 3, 3], dtype=np.int32), np.array([2, 1, 0, 5], dtype=np.int32)),
    ],
)
def test_concat_ranges_matches_python_loop(starts, lengths):
    pairs = zip(np.asarray(starts).tolist(), np.asarray(lengths).tolist())
    want = [p for s, n in pairs for p in range(s, s + n)]
    got = matio.concat_ranges(starts, lengths)
    assert got.dtype == np.int64
    assert got.tolist() == want


def test_group_by_key_keeps_stream_order_within_each_key():
    keys = np.array([5, 0, 5, 3, 0, 5, 7, 3])
    order, distinct, offsets = matio.group_by_key(keys)
    assert distinct.tolist() == [0, 3, 5, 7]
    assert offsets.tolist() == [0, 2, 4, 7, 8]
    assert order.tolist() == [1, 4, 3, 7, 0, 2, 5, 6]
    assert order.dtype == distinct.dtype == offsets.dtype == np.int64
    rng = np.random.default_rng(3)
    keys = rng.integers(0, 50, size=1000)
    order, distinct, offsets = matio.group_by_key(keys)
    assert order.tolist() == np.argsort(keys, kind="stable").tolist()
    assert distinct.tolist() == np.unique(keys).tolist()
    assert np.diff(offsets).tolist() == np.bincount(keys)[distinct].tolist()


def test_group_by_key_of_nothing_and_of_one_key():
    order, distinct, offsets = matio.group_by_key(np.zeros(0, dtype=np.int64))
    assert (order.tolist(), distinct.tolist(), offsets.tolist()) == ([], [], [0])
    # one position needs no bits, so a key may take all 63
    order, distinct, offsets = matio.group_by_key([(1 << 63) - 1])
    assert (order.tolist(), distinct.tolist(), offsets.tolist()) == ([0], [(1 << 63) - 1], [0, 1])


def test_group_by_key_rejects_keys_too_wide_for_the_positions():
    # 5 positions take 3 bits, which leaves 61 for the key
    keys = np.zeros(5, dtype=np.int64)
    keys[2] = (1 << 61) - 1
    assert matio.group_by_key(keys)[1].tolist() == [0, (1 << 61) - 1]
    keys[2] = 1 << 61
    with pytest.raises(CapacityError, match="wider than the 61 bits left beside 5 stream positions"):
        matio.group_by_key(keys)
    with pytest.raises(ValueError, match="non-negative"):
        matio.group_by_key([3, -1])


def test_map_csr_bad_placement_rejected():
    m = matio.to_csr(random_coo(4, 6, seed=2))
    with pytest.raises(ConfigError):
        matio.build_map_csr(m, placement=[(0, False), (1, False)])
    with pytest.raises(SparsimError):
        matio.replication_ratio(
            matio.build_map_csr(matio.to_csr(matio.coo_from_entries(2, 2, [], [], [])))
        )


# ---------------------------------------------------------------------------
# RMAT
# ---------------------------------------------------------------------------


def test_rmat_deterministic():
    p = matio.RmatParams(scale=3, edge_factor=2, seed=7)
    m1 = matio.generate_rmat(p)
    m2 = matio.generate_rmat(p)
    assert np.array_equal(m1.rows, m2.rows)
    assert np.array_equal(m1.cols, m2.cols)


def test_rmat_uniform_quadrants_within_binomial_bound():
    p = matio.RmatParams(scale=8, edge_factor=8, a=0.25, b=0.25, c=0.25, d=0.25, seed=42)
    m = matio.generate_rmat(p)
    half = m.n_rows // 2
    counts = np.zeros(4, dtype=int)
    for i, j, _ in m.entries():
        counts[2 * (i >= half) + (j >= half)] += 1
    total = counts.sum()
    sigma = np.sqrt(total * 0.25 * 0.75)
    assert np.all(np.abs(counts - total / 4) <= 4 * sigma)


def test_rmat_skewed_parameters_produce_degree_skew():
    p = matio.RmatParams(scale=10, edge_factor=8, seed=1)
    m = matio.generate_rmat(p)
    degrees = np.bincount(m.rows, minlength=m.n_rows)
    assert degrees.max() / degrees.mean() > 5


def test_rmat_shape_and_count():
    p = matio.RmatParams(scale=5, edge_factor=4, seed=0)
    m = matio.generate_rmat(p)
    assert m.n_rows == 32 and m.n_cols == 32
    assert 0 < m.nnz <= 128


def test_rmat_param_validation():
    with pytest.raises(ConfigError):
        matio.RmatParams(scale=0, edge_factor=1)
    with pytest.raises(ConfigError):
        matio.RmatParams(scale=2, edge_factor=1, a=0.5, b=0.5, c=0.5, d=0.5)
