"""Reference kernels, symbolic pass, bloat accounting, window planning."""

import sys
import threading
import time

import numpy as np
import pytest

from sparsim import matio, oracle
from sparsim.errors import CapacityError, ConfigError, SparsimError


def rmat_csr(scale, ef, seed, integer=False):
    coo = matio.generate_rmat(matio.RmatParams(scale=scale, edge_factor=ef, seed=seed))
    if integer:
        coo = matio.with_integer_values(coo, seed=seed + 1)
    return matio.to_csr(coo)


def contrib_counter(plan):
    """The plan's contribution counts as {(i, j): count}."""
    rows = np.repeat(np.arange(plan.n_rows), np.diff(plan.out_offsets))
    return dict(zip(zip(rows.tolist(), plan.out_cols.tolist()), plan.counts.tolist()))


def rel_err(got, want):
    denom = np.maximum(np.abs(want), 1.0)
    return np.max(np.abs(got - want) / denom) if got.size else 0.0


# ---------------------------------------------------------------------------
# Dense oracle and Gustavson
# ---------------------------------------------------------------------------


def test_dense_oracle_identity():
    b = np.arange(9, dtype=float).reshape(3, 3)
    assert np.array_equal(oracle.spgemm_dense_oracle(np.eye(3), b), b)


def test_dense_oracle_hand_case():
    a = np.array([[1.0, 2.0], [0.0, 3.0]])
    b = np.array([[4.0, 0.0], [1.0, 5.0]])
    assert np.array_equal(oracle.spgemm_dense_oracle(a, b), [[6.0, 10.0], [3.0, 15.0]])


def test_dense_oracle_dimension_mismatch():
    with pytest.raises(ConfigError):
        oracle.spgemm_dense_oracle(np.zeros((2, 3)), np.zeros((2, 3)))


def test_gustavson_identity_structural_and_numeric():
    b = rmat_csr(4, 2, seed=3)
    eye = matio.to_csr(matio.coo_from_entries(16, 16, range(16), range(16), [1.0] * 16))
    c = oracle.spgemm_gustavson(eye, b)
    assert np.array_equal(c.row_offsets, b.row_offsets)
    assert np.array_equal(c.col_indices, b.col_indices)
    assert np.array_equal(c.values, b.values)


def test_gustavson_one_by_one():
    a = matio.to_csr(matio.coo_from_entries(1, 1, [0], [0], [2.0]))
    b = matio.to_csr(matio.coo_from_entries(1, 1, [0], [0], [3.0]))
    c = oracle.spgemm_gustavson(a, b)
    assert c.values.tolist() == [6.0]


def test_gustavson_matches_dense_oracle_random():
    rng = np.random.Generator(np.random.PCG64(0))
    for _ in range(5):
        a = np.round(rng.normal(size=(32, 32)) * (rng.random((32, 32)) < 0.15), 3)
        b = np.round(rng.normal(size=(32, 32)) * (rng.random((32, 32)) < 0.15), 3)
        want = oracle.spgemm_dense_oracle(a, b)
        got = matio.csr_to_dense(oracle.spgemm_gustavson(matio.dense_to_csr(a), matio.dense_to_csr(b)))
        assert rel_err(got, want) <= 1e-12


def test_gustavson_rmat_squared_vs_dense():
    a = rmat_csr(6, 4, seed=9)
    dense = matio.csr_to_dense(a)
    want = oracle.spgemm_dense_oracle(dense, dense)
    got = matio.csr_to_dense(oracle.spgemm_gustavson(a, a))
    assert rel_err(got, want) <= 1e-12


def test_gustavson_keeps_cancellation_zeros():
    # A row contributing +1 and -1 to the same output element.
    a = matio.to_csr(matio.coo_from_entries(1, 2, [0, 0], [0, 1], [1.0, -1.0]))
    b = matio.to_csr(matio.coo_from_entries(2, 1, [0, 1], [0, 0], [1.0, 1.0]))
    c = oracle.spgemm_gustavson(a, b)
    assert c.nnz == 1
    assert c.values.tolist() == [0.0]


def test_spmm_matches_dense():
    a = rmat_csr(5, 3, seed=4)
    x = np.random.Generator(np.random.PCG64(5)).normal(size=(32, 7))
    want = matio.csr_to_dense(a) @ x
    assert rel_err(oracle.spmm_csr_dense(a, x), want) <= 1e-12


# ---------------------------------------------------------------------------
# Symbolic pass
# ---------------------------------------------------------------------------


def brute_force_counts(a_dense, b_dense):
    n, m = a_dense.shape[0], b_dense.shape[1]
    contrib = {}
    for i in range(n):
        for j in range(m):
            c = sum(
                1
                for k in range(a_dense.shape[1])
                if a_dense[i, k] != 0 and b_dense[k, j] != 0
            )
            if c:
                contrib[(i, j)] = c
    return contrib


def reference_symbolic(a, b):
    """Row-at-a-time reference for symbolic_pass: one ``np.unique`` per
    row, counts in a dict. Returns (fma_per_row, out_nnz_per_row,
    {(i, j): count})."""
    b_row_nnz = np.diff(b.row_offsets)
    fma_per_row = np.zeros(a.n_rows, dtype=np.int64)
    out_nnz_per_row = np.zeros(a.n_rows, dtype=np.int64)
    contrib = {}
    b_off = b.row_offsets
    b_cols = b.col_indices
    for i in range(a.n_rows):
        ks, _ = a.row(i)
        if not len(ks):
            continue
        fma_per_row[i] = int(b_row_nnz[ks].sum())
        pieces = [b_cols[int(b_off[k]) : int(b_off[k + 1])] for k in ks.tolist()]
        cols = np.concatenate(pieces) if len(pieces) > 1 else pieces[0]
        uniq, counts = np.unique(cols, return_counts=True)
        out_nnz_per_row[i] = len(uniq)
        for j, c in zip(uniq.tolist(), counts.tolist()):
            contrib[(i, j)] = c
    return fma_per_row, out_nnz_per_row, contrib


def sparse_csr(n_rows, n_cols, density, seed, empty_rows=()):
    rng = np.random.Generator(np.random.PCG64(seed))
    dense = (rng.random((n_rows, n_cols)) < density) * rng.integers(1, 5, size=(n_rows, n_cols))
    dense[list(empty_rows)] = 0
    return matio.dense_to_csr(dense.astype(np.float64))


def with_hub_row(n_rows, n_cols, hub, seed):
    """Sparse rows around one row ``hub`` that has every column."""
    rng = np.random.Generator(np.random.PCG64(seed))
    dense = (rng.random((n_rows, n_cols)) < 0.08) * rng.integers(1, 5, size=(n_rows, n_cols))
    dense[hub] = rng.integers(1, 5, size=n_cols)
    return matio.dense_to_csr(dense.astype(np.float64))


def csr_rows(n_cols, rows):
    """A CSR matrix from per-row lists of (column, value), kept in the given
    order, duplicate columns included."""
    offsets = np.cumsum([0] + [len(r) for r in rows]).astype(np.int64)
    cols = np.array([j for r in rows for j, _ in r], dtype=np.int32)
    vals = np.array([v for r in rows for _, v in r], dtype=np.float64)
    return matio.CsrMatrix(len(rows), n_cols, offsets, cols, vals)


SYMBOLIC_CASES = {
    "rectangular": lambda: (sparse_csr(23, 31, 0.2, 1), sparse_csr(31, 9, 0.3, 2)),
    "empty-rows-in-a": lambda: (sparse_csr(20, 20, 0.3, 3, empty_rows=(0, 5, 6, 7, 19)), sparse_csr(20, 20, 0.3, 4)),
    "empty-rows-in-b": lambda: (sparse_csr(20, 20, 0.3, 5), sparse_csr(20, 20, 0.3, 6, empty_rows=range(0, 20, 2))),
    "all-empty-product": lambda: (
        matio.to_csr(matio.coo_from_entries(6, 4, [0, 2, 5], [1, 3, 1], [1.0] * 3)),
        matio.to_csr(matio.coo_from_entries(4, 5, [0, 2], [4, 0], [1.0, 1.0])),
    ),
    "empty-matrices": lambda: (sparse_csr(5, 7, 0.0, 7), sparse_csr(7, 3, 0.0, 8)),
    # One row with about 800 partial products: above every small block below.
    "one-dense-row": lambda: (sparse_csr(1, 40, 0.8, 9), sparse_csr(40, 50, 0.5, 10)),
    # Rows of about 45 partial products around a hub of about 600: the hub
    # alone exceeds the small blocks below, between blocks of its neighbours.
    "hub-row": lambda: (with_hub_row(24, 40, 11, 13), sparse_csr(40, 30, 0.5, 14)),
    "rmat-squared": lambda: (rmat_csr(7, 6, seed=3), rmat_csr(7, 6, seed=3)),
    # B as wide as int32 columns go: a block holds at most 2 rows, and its
    # second row's keys reach 2^32 - 3.
    "wide-b": lambda: (
        csr_rows(
            4,
            [
                [(0, 1.0), (1, 1.0)],
                [],
                [(1, 1.0), (2, 1.0), (3, 1.0)],
                [(0, 1.0), (2, 1.0)],
                [(3, 1.0), (1, 1.0), (0, 1.0)],
            ],
        ),
        csr_rows(
            2**31 - 1,
            [
                [(0, 1.0), (2**30, 1.0), (2**31 - 2, 1.0)],
                [(7, 1.0), (2**31 - 3, 1.0), (2**30, 1.0)],
                [(2**31 - 2, 1.0), (0, 1.0)],
                [(2**31 - 3, 1.0), (7, 1.0), (2**31 - 2, 1.0)],
            ],
        ),
    ),
}


def reference_gustavson(a, b):
    """Row-at-a-time reference for spgemm_gustavson: a dict accumulator
    per row, each element ``0.0 + p1 + p2 + ...`` in A-stream order."""
    a_off, a_cols, a_vals = a.row_offsets, a.col_indices, a.values
    b_off, b_cols, b_vals = b.row_offsets, b.col_indices, b.values
    out_offsets = np.zeros(a.n_rows + 1, dtype=np.int64)
    out_cols = []
    out_vals = []
    for i in range(a.n_rows):
        acc = {}
        for t in range(int(a_off[i]), int(a_off[i + 1])):
            k = a_cols[t]
            av = a_vals[t]
            for u in range(int(b_off[k]), int(b_off[k + 1])):
                j = int(b_cols[u])
                acc[j] = acc.get(j, 0.0) + av * b_vals[u]
        cols = sorted(acc)
        out_cols.extend(cols)
        out_vals.extend(acc[j] for j in cols)
        out_offsets[i + 1] = len(out_cols)
    return matio.CsrMatrix(
        a.n_rows,
        b.n_cols,
        out_offsets,
        np.asarray(out_cols, dtype=np.int32),
        np.asarray(out_vals, dtype=np.float64),
    )


def with_normal_values(m, seed):
    """``m`` with its values replaced by standard-normal draws."""
    vals = np.random.Generator(np.random.PCG64(seed)).standard_normal(m.nnz)
    return matio.CsrMatrix(m.n_rows, m.n_cols, m.row_offsets, m.col_indices, vals)


def assert_same_bits(got, want):
    assert (got.n_rows, got.n_cols) == (want.n_rows, want.n_cols)
    assert got.row_offsets.dtype == np.int64
    assert got.col_indices.dtype == np.int32
    assert got.values.dtype == np.float64
    assert np.array_equal(got.row_offsets, want.row_offsets)
    assert np.array_equal(got.col_indices, want.col_indices)
    assert got.values.tobytes() == want.values.tobytes()


# Every block bound (None: the module's) with 1, 2 and 3 block workers; the
# serial runs keep the bare block id.
BLOCK_WORKERS = [
    pytest.param(block, workers, id=str(block) if workers == 1 else f"{block}-w{workers}")
    for block in (None, 1, 7, 100)
    for workers in (1, 2, 3)
]


def assert_outputs_own_their_elements(out):
    """A plan's or a product's element arrays hold exactly its elements, in
    memory of their own, with their dtypes."""
    if isinstance(out, oracle.SymbolicPlan):
        n, arrays = out.total_out_nnz, {"out_cols": (out.out_cols, np.int32), "counts": (out.counts, np.int32)}
    else:
        n, arrays = out.nnz, {"col_indices": (out.col_indices, np.int32), "values": (out.values, np.float64)}
    for name, (array, dtype) in arrays.items():
        assert array.shape == (n,) and array.dtype == dtype and array.base is None, name


def set_blocks(monkeypatch, block, workers):
    """Run the oracle's passes with block bound ``block`` on ``workers`` CPUs."""
    if block is not None:
        monkeypatch.setattr(oracle, "SYMBOLIC_BLOCK_PP", block)
    monkeypatch.setattr(oracle, "_cpu_count", lambda: workers)


@pytest.mark.parametrize("block, workers", BLOCK_WORKERS)
@pytest.mark.parametrize("case", sorted(SYMBOLIC_CASES))
def test_gustavson_matches_dict_reference_bit_for_bit(case, block, workers, monkeypatch):
    set_blocks(monkeypatch, block, workers)
    a, b = SYMBOLIC_CASES[case]()
    a, b = with_normal_values(a, 11), with_normal_values(b, 12)
    got = oracle.spgemm_gustavson(a, b)
    assert_same_bits(got, reference_gustavson(a, b))
    assert_outputs_own_their_elements(got)


GUSTAVSON_HAND_CASES = {
    # -0.0 * 1.0 alone on an element: 0.0 + -0.0 is +0.0
    "lone-negative-zero": (
        csr_rows(1, [[(0, -0.0)]]),
        csr_rows(2, [[(0, 1.0), (1, 2.0)]]),
        [0.0, 0.0],
    ),
    # x + (-x) cancels but the element stays in the structure
    "cancellation": (
        csr_rows(2, [[(0, 0.1), (1, -0.1)]]),
        csr_rows(1, [[(0, 3.0)], [(0, 3.0)]]),
        [0.0],
    ),
    # B's row 0 names column 1 three times; the products land on (0, 1) in
    # stream order, where 2 is lost to rounding ((2 + 2e16) - 2e16 != 2)
    "duplicate-columns-in-b": (
        csr_rows(1, [[(0, 2.0)]]),
        csr_rows(3, [[(1, 1.0), (2, 5.0), (1, 1e16), (1, -1e16)]]),
        [(2.0 + 2e16) - 2e16, 10.0],
    ),
}


@pytest.mark.parametrize("case", sorted(GUSTAVSON_HAND_CASES))
def test_gustavson_hand_cases_bit_for_bit(case):
    a, b, want = GUSTAVSON_HAND_CASES[case]
    got = oracle.spgemm_gustavson(a, b)
    assert_same_bits(got, reference_gustavson(a, b))
    assert np.array_equal(got.values, want)
    assert not np.signbit(got.values).any()


@pytest.mark.parametrize("block, workers", BLOCK_WORKERS)
@pytest.mark.parametrize("case", sorted(SYMBOLIC_CASES))
def test_symbolic_matches_per_row_reference(case, block, workers, monkeypatch):
    set_blocks(monkeypatch, block, workers)
    a, b = SYMBOLIC_CASES[case]()
    fma, out_nnz, contrib = reference_symbolic(a, b)
    plan = oracle.symbolic_pass(a, b)
    keys = sorted(contrib)
    assert (plan.n_rows, plan.n_cols) == (a.n_rows, b.n_cols)
    assert plan.fma_per_row.dtype == np.int64 and plan.fma_per_row.tolist() == fma.tolist()
    assert plan.out_nnz_per_row.dtype == np.int64 and plan.out_nnz_per_row.tolist() == out_nnz.tolist()
    assert plan.out_offsets.dtype == np.int64
    assert plan.out_offsets.tolist() == [0] + np.cumsum(out_nnz).tolist()
    assert plan.out_cols.tolist() == [j for _, j in keys]
    assert plan.counts.tolist() == [contrib[k] for k in keys]
    assert contrib_counter(plan) == contrib
    assert plan.total_fma == int(fma.sum())
    assert plan.total_out_nnz == len(contrib)
    assert_outputs_own_their_elements(plan)


BLOCK_PASSES = {"symbolic": oracle.symbolic_pass, "gustavson": oracle.spgemm_gustavson}


def assert_same_output(got, want):
    """Two symbolic plans, or two products, equal bit for bit."""
    if isinstance(want, oracle.SymbolicPlan):
        for field in ("fma_per_row", "out_nnz_per_row", "out_offsets", "out_cols", "counts"):
            assert np.array_equal(getattr(got, field), getattr(want, field))
    else:
        assert_same_bits(got, want)


def within_a_minute(run, *args):
    """``run(*args)`` on a daemon thread: its result, or its error raised
    here. Fails the test if it has not returned within 60 s, so that a
    block runner that deadlocks cannot hang the suite."""
    out = {}

    def target():
        try:
            out["result"] = run(*args)
        except BaseException as exc:  # re-raised on the test's thread
            out["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout=60)
    if thread.is_alive():
        pytest.fail(f"{run.__name__} has not returned within 60 s")
    if "error" in out:
        raise out["error"]
    return out["result"]


def wrap_tasks(monkeypatch, wrap):
    """Make ``_run_blocks`` run ``wrap(blocks, task)`` in place of each task."""
    run_blocks = oracle._run_blocks
    monkeypatch.setattr(oracle, "_run_blocks", lambda blocks, task: run_blocks(blocks, wrap(blocks, task)))


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(BLOCK_PASSES))
def test_block_error_reaches_the_caller_and_no_thread_outlives_the_pass(name, workers, monkeypatch):
    set_blocks(monkeypatch, 100, workers)
    a, b = SYMBOLIC_CASES["rmat-squared"]()
    before = threading.active_count()
    want = BLOCK_PASSES[name](a, b)
    assert threading.active_count() == before

    third_started = threading.Event()

    def fail_from_second(blocks, task):
        assert len(blocks) > 3

        def run(*block):
            # Blocks 1 and 2 fail. With workers to spare, block 1 fails only
            # once block 2 runs, so both errors are in flight: the first
            # block's must win.
            if block == blocks[2]:
                third_started.set()
            elif block == blocks[1] and workers > 1:
                assert third_started.wait(timeout=60)
            if block in blocks[1:3]:
                raise MemoryError(f"no room for block {blocks.index(block)}")
            return task(*block)

        return run

    wrap_tasks(monkeypatch, fail_from_second)
    with pytest.raises(MemoryError) as err:
        within_a_minute(BLOCK_PASSES[name], a, b)
    assert err.type is MemoryError and str(err.value) == "no room for block 1"
    assert threading.active_count() == before
    monkeypatch.undo()
    set_blocks(monkeypatch, 100, workers)
    assert_same_output(BLOCK_PASSES[name](a, b), want)
    assert threading.active_count() == before


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("name", sorted(BLOCK_PASSES))
def test_block_error_wakes_a_later_block_waiting_for_its_turn(name, workers, monkeypatch):
    # Block 2 runs its task to the end and then waits for block 1 to take
    # its place; block 1 fails instead. The failure must wake block 2's
    # worker, and the pass must raise block 1's error.
    set_blocks(monkeypatch, 100, workers)
    a, b = SYMBOLIC_CASES["rmat-squared"]()
    before = threading.active_count()
    third_done = threading.Event()

    def fail_after_third(blocks, task):
        assert len(blocks) > 3

        def run(*block):
            if block == blocks[1]:
                assert third_done.wait(timeout=60)
                time.sleep(0.1)  # let block 2's worker reach its wait
                raise MemoryError("no room for block 1")
            out = task(*block)
            if block == blocks[2]:
                third_done.set()
            return out

        return run

    wrap_tasks(monkeypatch, fail_after_third)
    with pytest.raises(MemoryError) as err:
        within_a_minute(BLOCK_PASSES[name], a, b)
    assert str(err.value) == "no room for block 1"
    assert threading.active_count() == before


@pytest.mark.parametrize("name", sorted(BLOCK_PASSES))
def test_more_block_workers_than_cores_run_each_block_once(name, monkeypatch):
    a, b = SYMBOLIC_CASES["rmat-squared"]()
    set_blocks(monkeypatch, 1, 1)
    want = BLOCK_PASSES[name](a, b)
    set_blocks(monkeypatch, 1, 8)
    runs, lock = [], threading.Lock()

    def count_runs(blocks, task):
        runs.append(dict.fromkeys(blocks, 0))

        def run(*block):
            with lock:
                runs[-1][block] += 1
            return task(*block)

        return run

    wrap_tasks(monkeypatch, count_runs)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = [BLOCK_PASSES[name](a, b) for _ in range(5)]
    finally:
        sys.setswitchinterval(interval)
    assert all(set(ran.values()) == {1} for ran in runs)
    for out in got:
        assert_same_output(out, want)


def test_block_workers_stop_at_the_scratch_bound(monkeypatch):
    # 64 CPUs, but at most (1 << 20) // SYMBOLIC_BLOCK_PP blocks in flight.
    monkeypatch.setattr(oracle, "_cpu_count", lambda: 64)
    cap = (1 << 20) // oracle.SYMBOLIC_BLOCK_PP
    # A block is in flight from its task's start until it is written: a
    # worker waiting for its turn must not start another.
    before = threading.active_count()
    peak, in_flight, lock = [before], [0, 0], threading.Lock()
    placed = [None] * (3 * cap)

    def task(i):
        with lock:
            peak[0] = max(peak[0], threading.active_count())
            in_flight[0] += 1
            in_flight[1] = max(in_flight)
        time.sleep(0.001 * (i % 7))

        def write(at):
            placed[at] = i
            with lock:
                in_flight[0] -= 1

        return 1, write

    blocks = [(i,) for i in range(3 * cap)]
    assert oracle._run_blocks(blocks, task) == 3 * cap
    assert placed == list(range(3 * cap))
    assert peak[0] - before <= cap - 1
    assert in_flight[0] == 0 and in_flight[1] <= cap
    assert threading.active_count() == before


@pytest.mark.parametrize("name", sorted(BLOCK_PASSES))
def test_product_in_one_block_runs_on_the_callers_thread(name, monkeypatch):
    monkeypatch.setattr(oracle, "_cpu_count", lambda: 3)
    ran_on = set()

    def record(blocks, task):
        assert len(blocks) == 1

        def run(*block):
            ran_on.add(threading.get_ident())
            return task(*block)

        return run

    wrap_tasks(monkeypatch, record)
    a, b = SYMBOLIC_CASES["rmat-squared"]()
    # The outputs are sized for every partial product and shrunk to the
    # elements, about half of that capacity unwritten here.
    assert_outputs_own_their_elements(BLOCK_PASSES[name](a, b))
    assert ran_on == {threading.get_ident()}


@pytest.mark.parametrize("case", ["rectangular", "wide-b"])
def test_int64_columns_in_b_give_the_same_plan_and_product(case):
    # Columns are read by value, whatever their integer width.
    a, b = SYMBOLIC_CASES[case]()
    a, b = with_normal_values(a, 11), with_normal_values(b, 12)
    b64 = matio.CsrMatrix(b.n_rows, b.n_cols, b.row_offsets, b.col_indices.astype(np.int64), b.values)
    got, want = oracle.symbolic_pass(a, b64), oracle.symbolic_pass(a, b)
    for name in ("fma_per_row", "out_nnz_per_row", "out_offsets", "out_cols", "counts"):
        x, y = getattr(got, name), getattr(want, name)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name
    assert_same_bits(oracle.spgemm_gustavson(a, b64), oracle.spgemm_gustavson(a, b))


@pytest.mark.parametrize("n_cols", [1, 7, (1 << 32) // 6])
def test_split_keys_equals_bincount_form(n_cols):
    # a block of 6 rows: rows 0, 2 and 5 are empty, row 4 holds its last column
    rows = np.array([1, 1, 3, 4, 4])
    cols = np.array([0, n_cols - 1, 0, 0, n_cols - 1]) % n_cols
    uniq = np.unique((rows * n_cols + cols).astype(np.uint32))
    got_cols = np.empty(len(uniq), dtype=np.int32)
    got_counts = oracle._split_keys(uniq, n_cols, 6, got_cols)
    local_rows = uniq // n_cols
    want_cols = (uniq - local_rows * n_cols).astype(np.int32)
    want_counts = np.bincount(local_rows, minlength=6)
    assert got_cols.dtype == want_cols.dtype and got_cols.tobytes() == want_cols.tobytes()
    assert got_counts.dtype == want_counts.dtype and got_counts.tobytes() == want_counts.tobytes()
    assert got_counts[0] == got_counts[-1] == 0 and got_counts.sum() == len(uniq)


def test_symbolic_identity_times_b():
    b = rmat_csr(4, 3, seed=2)
    eye = matio.to_csr(matio.coo_from_entries(16, 16, range(16), range(16), [1.0] * 16))
    plan = oracle.symbolic_pass(eye, b)
    assert plan.total_fma == b.nnz
    assert all(c == 1 for c in contrib_counter(plan).values())
    assert len(contrib_counter(plan)) == b.nnz


def test_symbolic_hand_case():
    a = matio.to_csr(matio.coo_from_entries(2, 2, [0, 0, 1], [0, 1, 1], [1.0, 1.0, 1.0]))
    b = matio.to_csr(matio.coo_from_entries(2, 2, [0, 0, 1, 1], [0, 1, 0, 1], [1.0] * 4))
    plan = oracle.symbolic_pass(a, b)
    assert plan.fma_per_row.tolist() == [4, 2]
    assert contrib_counter(plan) == {(0, 0): 2, (0, 1): 2, (1, 0): 1, (1, 1): 1}
    assert plan.total_out_nnz == 4


def test_symbolic_matches_brute_force():
    for seed in range(4):
        a = rmat_csr(5, 3, seed=seed)
        b = rmat_csr(5, 3, seed=seed + 50)
        plan = oracle.symbolic_pass(a, b)
        want = brute_force_counts(matio.csr_to_dense(a), matio.csr_to_dense(b))
        assert contrib_counter(plan) == want


def test_symbolic_matches_brute_force_at_128():
    a = rmat_csr(7, 4, seed=123)
    plan = oracle.symbolic_pass(a, a)
    dense = matio.csr_to_dense(a)
    want = brute_force_counts(dense, dense)
    assert contrib_counter(plan) == want


def test_symbolic_invariants_on_random_instances():
    for seed in range(6):
        a = rmat_csr(6, 4, seed=seed)
        plan = oracle.symbolic_pass(a, a)
        assert sum(contrib_counter(plan).values()) == plan.total_fma
        assert len(contrib_counter(plan)) == plan.total_out_nnz
        per_row = {}
        for (i, _), c in contrib_counter(plan).items():
            per_row[i] = per_row.get(i, 0) + c
        for i in range(plan.n_rows):
            assert per_row.get(i, 0) == plan.fma_per_row[i]


# ---------------------------------------------------------------------------
# Bloat
# ---------------------------------------------------------------------------


def test_bloat_formula():
    plan = oracle.SymbolicPlan(
        n_rows=1,
        n_cols=1,
        fma_per_row=np.array([305]),
        out_offsets=np.array([0, 100]),
        out_cols=np.arange(100, dtype=np.int32),
        counts=np.array([4] * 5 + [3] * 95, dtype=np.int32),
    )
    assert (plan.total_fma, plan.total_out_nnz, plan.out_nnz_per_row.tolist()) == (305, 100, [100])
    rep = oracle.bloat_report(plan)
    assert rep.bloat_percent == 205.0


def test_bloat_zero_for_diagonal():
    d = matio.to_csr(matio.coo_from_entries(8, 8, range(8), range(8), [2.0] * 8))
    rep = oracle.bloat_report(oracle.symbolic_pass(d, d))
    assert rep.bloat_percent == 0.0


def test_bloat_nonnegative_and_empty_error():
    a = rmat_csr(5, 2, seed=7)
    rep = oracle.bloat_report(oracle.symbolic_pass(a, a))
    assert rep.bloat_percent >= 0.0
    empty = matio.to_csr(matio.coo_from_entries(4, 4, [], [], []))
    with pytest.raises(SparsimError):
        oracle.bloat_report(oracle.symbolic_pass(empty, empty))


# ---------------------------------------------------------------------------
# Window planning
# ---------------------------------------------------------------------------


def reference_plan_windows(plan, spad_budget):
    """The planner as a per-row loop: (windows as lists of rows, class of
    each row, capacity of each row)."""
    cf, ef, threshold = oracle.DEFAULT_CF, oracle.DEFAULT_EF, spad_budget / 64

    dense_rows = []
    sparse_rows = []
    caps = {}
    classes = {}
    for r in range(plan.n_rows):
        fma = int(plan.fma_per_row[r])
        if fma / cf > threshold:
            cls = "DENSE"
            cap = plan.n_cols
            if cap > spad_budget:
                raise CapacityError(f"dense row {r} needs {cap} hashlines, budget is {spad_budget}")
        else:
            cls = "SPARSE"
            cap = oracle.next_prime_at_least(fma * ef)
            if cap > spad_budget:
                cap = oracle.prev_prime_at_most(spad_budget)
            if fma > cap:
                raise CapacityError(f"row {r} needs {fma} hashlines, budget is {spad_budget}")
        caps[r] = cap
        classes[r] = cls
        (dense_rows if cls == "DENSE" else sparse_rows).append(r)

    # Alternate dense/sparse in placement order, then first-fit pack.
    mixed = []
    di = si = 0
    while di < len(dense_rows) or si < len(sparse_rows):
        if di < len(dense_rows):
            mixed.append(dense_rows[di])
            di += 1
        if si < len(sparse_rows):
            mixed.append(sparse_rows[si])
            si += 1

    windows = []
    cur_rows = []
    cur_used = 0
    for r in mixed:
        if cur_rows and cur_used + caps[r] > spad_budget:
            windows.append(cur_rows)
            cur_rows = []
            cur_used = 0
        cur_rows.append(r)
        cur_used += caps[r]
    if cur_rows:
        windows.append(cur_rows)
    return windows, classes, caps


@pytest.mark.parametrize("variant", ["default"])  # the planner's fixed CF, EF and threshold
@pytest.mark.parametrize("rmat", [(5, 2), (6, 4), (7, 2), (8, 8), (9, 4), (10, 8)])
def test_plan_windows_matches_reference_loop(rmat, variant):
    a = rmat_csr(*rmat, seed=1)
    plan = oracle.symbolic_pass(a, a)
    placed_dense = False
    for budget in [1] + [1 << e for e in range(1, 17)]:
        try:
            want = reference_plan_windows(plan, budget)
        except (CapacityError, ConfigError) as err:
            with pytest.raises(type(err)) as got:
                oracle.plan_windows(plan, budget)
            assert str(got.value) == str(err)
            continue
        wp = oracle.plan_windows(plan, budget)
        windows, classes, caps = want
        rows = [r for w in windows for r in w]
        offsets = np.cumsum([0] + [len(w) for w in windows]).tolist()
        capacity = [caps[r] for r in rows]
        assert wp.rows.dtype == wp.offsets.dtype == wp.capacity.dtype == np.int64
        assert wp.rows.tolist() == rows
        assert wp.offsets.tolist() == offsets
        assert wp.capacity.tolist() == capacity
        assert wp.n_windows == len(offsets) - 1
        assert wp.window_capacity().tolist() == [sum(caps[r] for r in w) for w in windows]
        placed_dense |= "DENSE" in classes.values()
    # The sweep reaches the dense branch: some budget places a row that
    # reserves n_cols lines.
    assert placed_dense


def test_plan_windows_empty_product():
    empty = matio.to_csr(matio.coo_from_entries(0, 0, [], [], []))
    wp = oracle.plan_windows(oracle.symbolic_pass(empty, empty), 1 << 14)
    assert wp.n_windows == 0 and wp.offsets.tolist() == [0] and len(wp.rows) == 0
    assert wp.window_capacity().tolist() == []


def test_all_rows_sparse_when_under_threshold():
    a = rmat_csr(5, 2, seed=1)
    plan = oracle.symbolic_pass(a, a)
    budget = 4096
    assert (plan.fma_per_row / oracle.DEFAULT_CF <= budget / 64).all()
    wp = oracle.plan_windows(plan, budget)
    assert len(wp.rows) == plan.n_rows
    # Every row is sparse: a prime region sized from its fma alone.
    want = [oracle.next_prime_at_least(f * oracle.DEFAULT_EF) for f in plan.fma_per_row.tolist()]
    assert wp.capacity.tolist() == [want[r] for r in wp.rows.tolist()]


def test_sparse_capacity_next_prime():
    # FMA=10, EF=1.2 -> next prime >= 12 is 13
    assert oracle.next_prime_at_least(10 * 1.2) == 13
    assert oracle.next_prime_at_least(11) == 11
    assert oracle.next_prime_at_least(0) == 2


def test_window_partition_and_capacity_properties():
    for seed in range(5):
        a = rmat_csr(6, 4, seed=seed + 20)
        plan = oracle.symbolic_pass(a, a)
        budget = 512
        wp = oracle.plan_windows(plan, budget)
        assert (wp.window_capacity() <= budget).all()
        assert (np.diff(wp.offsets) > 0).all()
        for r, cap in zip(wp.rows.tolist(), wp.capacity.tolist()):
            if plan.fma_per_row[r] / oracle.DEFAULT_CF <= budget / 64:  # sparse
                assert oracle.is_prime(cap)
                assert cap >= plan.fma_per_row[r]
        assert sorted(wp.rows.tolist()) == list(range(plan.n_rows))


def test_element_rows_and_window_of_row_follow_the_plans():
    for seed in range(3):
        a = rmat_csr(6, 4, seed=seed + 20)
        plan = oracle.symbolic_pass(a, a)
        want_rows = [i for i in range(plan.n_rows)
                     for _ in range(plan.out_offsets[i], plan.out_offsets[i + 1])]
        assert plan.element_rows().tolist() == want_rows
        assert plan.element_rows().dtype == np.int64
        wp = oracle.plan_windows(plan, 512)
        want = [None] * plan.n_rows
        for w in range(wp.n_windows):
            for r in wp.rows[wp.offsets[w]:wp.offsets[w + 1]].tolist():
                want[r] = w
        assert wp.window_of_row(plan.n_rows).tolist() == want
    # rows the plan leaves out, here 1 and 4, map to -1
    part = oracle.WindowPlan(rows=np.array([3, 0, 2]), offsets=np.array([0, 2, 3]),
                             capacity=np.array([2, 3, 5]))
    assert part.window_of_row(5).tolist() == [0, -1, 1, 0, -1]
    empty = matio.to_csr(matio.coo_from_entries(0, 0, [], [], []))
    plan = oracle.symbolic_pass(empty, empty)
    assert plan.element_rows().tolist() == []
    assert oracle.plan_windows(plan, 1 << 14).window_of_row(0).tolist() == []


def test_window_row_too_large_raises():
    a = rmat_csr(5, 4, seed=3)
    plan = oracle.symbolic_pass(a, a)
    with pytest.raises(CapacityError) as err:
        oracle.plan_windows(plan, 2)
    assert "row" in str(err.value)


# ---------------------------------------------------------------------------
# GCN layer workload
# ---------------------------------------------------------------------------


def test_gcn_identity_graph_identity_weights():
    n, f = 6, 4
    x = np.abs(np.random.Generator(np.random.PCG64(8)).normal(size=(n, f)))
    eye = matio.to_csr(matio.coo_from_entries(n, n, range(n), range(n), [1.0] * n))
    job = oracle.gcn_layer_workload(eye, x, np.eye(f))
    assert np.array_equal(job.reference, x)
    chained = job.run_combination(job.run_aggregation())
    assert np.array_equal(chained, x)


def test_gcn_two_node_path_graph():
    adj = matio.to_csr(matio.coo_from_entries(2, 2, [0, 1], [1, 0], [1.0, 1.0]))
    x = np.array([[1.0], [2.0]])
    w = np.array([[1.0]])
    job = oracle.gcn_layer_workload(adj, x, w)
    assert job.reference.tolist() == [[2.0], [1.0]]


def test_gcn_random_instances_chain_matches_reference():
    rng = np.random.Generator(np.random.PCG64(21))
    for seed in range(5):
        adj = rmat_csr(5, 3, seed=seed + 60)
        x = rng.normal(size=(32, 12))
        w = rng.normal(size=(12, 5))
        job = oracle.gcn_layer_workload(adj, x, w)
        chained = job.run_combination(job.run_aggregation())
        assert rel_err(chained, job.reference) <= 1e-9


def test_gcn_dimension_errors():
    adj = rmat_csr(4, 2, seed=0)
    with pytest.raises(ConfigError):
        oracle.gcn_layer_workload(adj, np.zeros((5, 3)), np.zeros((3, 2)))
    with pytest.raises(ConfigError):
        oracle.gcn_layer_workload(adj, np.zeros((16, 3)), np.zeros((4, 2)))
