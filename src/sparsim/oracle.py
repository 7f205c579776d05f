"""Ground-truth sparse-matmul kernels and the symbolic planning pass.

Everything else in the package is validated against this module: a dense
brute-force multiply with fixed accumulation order, a sparse (Gustavson)
kernel, the symbolic first pass that counts multiply contributions per
output element, partial-product bloat accounting, scratchpad window
planning, and a single graph-convolution layer used as a workload
generator.

The Gustavson kernel and the symbolic pass share one expansion: A's rows
are taken in blocks of at most ``SYMBOLIC_BLOCK_PP`` partial products.
Each product is keyed by its output element as a ``uint32``, so a block
also ends after ``(1 << 32) // n_cols`` rows. A block is expanded and
reduced as one task, and the tasks run on every CPU the process may use,
one worker each (at most ``(1 << 20) // SYMBOLIC_BLOCK_PP`` workers), so a
pass's scratch memory in flight is bounded by the worker count times the
block bound, not by the product's size. Each block writes its elements
straight into the pass's output arrays, in row order: there are no
per-block output arrays to join. A worker whose block is reduced before
every earlier block has taken its place waits, holding only that block's
result (its distinct keys, with their run bounds in the symbolic pass or
its products and their element numbers in the Gustavson kernel), and
claims no further block. A block owns its rows, so the results
depend neither on the block bound nor on the worker count. The Gustavson
kernel sums each output element as ``0.0`` plus its partial products in
A-stream order, the order replay and SMASH also sum in, so it judges both
bit for bit.

Structural zeros produced by numeric cancellation are retained throughout:
a structural nonzero is any output element receiving at least one partial
product, which keeps the contribution counters format-independent.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ConfigError, SparsimError
from .matio import CsrMatrix, concat_ranges, csr_to_dense

DEFAULT_CF = 4.0
DEFAULT_EF = 1.5

# Partial products one task of symbolic_pass or spgemm_gustavson expands at
# once: rows are taken in blocks whose products fit this bound (a single row
# above it forms its own block). Each CPU the process may use, up to
# (1 << 20) // SYMBOLIC_BLOCK_PP of them, works on one block at a time, so a
# pass's scratch memory in flight is (workers x this bound), a few MiB per
# worker and never above 1 << 20 products' worth. A block writes its
# elements straight into the pass's output arrays, in row order; a worker
# waiting for its block's turn holds that block's result and claims no
# other block, so the bound holds for it too. A block also ends after
# (1 << 32) // n_cols rows, so that its uint32 keys cannot wrap. Results do
# not depend on it.
SYMBOLIC_BLOCK_PP = 1 << 17


@dataclass(frozen=True)
class SymbolicPlan:
    """Output of the symbolic (first) pass over C = A * B.

    The per-element contribution counts are stored CSR-shaped: the output
    elements of row i are ``out_cols[out_offsets[i]:out_offsets[i + 1]]``,
    sorted by column, and ``counts`` holds, for each of them, the number of
    k with A[i,k] != 0 and B[k,j] != 0, i.e. the number of partial products
    that will land on that element. ``fma_per_row`` sums ``counts`` per
    row. The per-row element counts, each element's row and both totals
    are read off these arrays.
    """

    n_rows: int
    n_cols: int
    fma_per_row: np.ndarray  # int64
    out_offsets: np.ndarray  # int64, n_rows + 1
    out_cols: np.ndarray  # int32, total_out_nnz
    counts: np.ndarray  # int32, total_out_nnz

    @property
    def out_nnz_per_row(self) -> np.ndarray:
        """Output elements of each row, int64."""
        return np.diff(self.out_offsets)

    def element_rows(self) -> np.ndarray:
        """Output row of each element, int64, in element order."""
        return np.repeat(np.arange(self.n_rows, dtype=np.int64), self.out_nnz_per_row)

    @property
    def total_fma(self) -> int:
        return int(self.fma_per_row.sum())

    @property
    def total_out_nnz(self) -> int:
        return int(self.out_offsets[-1])


@dataclass(frozen=True)
class BloatReport:
    """Excess of intermediate partial products over final output nonzeros."""

    pp_interim: int
    nnz_output: int
    bloat_percent: float

    def to_json(self) -> str:
        return json.dumps(
            {
                "pp_interim": self.pp_interim,
                "nnz_output": self.nnz_output,
                "bloat_percent": self.bloat_percent,
            },
            sort_keys=True,
        )


@dataclass(frozen=True)
class WindowPlan:
    """Output rows packed into scratchpad windows, held CSR-shaped.

    ``rows`` lists every output row once, in placement order, and window w
    holds ``rows[offsets[w]:offsets[w + 1]]``. ``capacity`` runs parallel
    to ``rows``: the hash lines of the row's region. No window's
    capacities sum to more than the budget it was planned for.
    """

    rows: np.ndarray  # int64
    offsets: np.ndarray  # int64, n_windows + 1
    capacity: np.ndarray  # int64, per placed row

    @property
    def n_windows(self) -> int:
        return len(self.offsets) - 1

    def window_capacity(self) -> np.ndarray:
        """Hash lines each window's rows take together, int64."""
        prefix = np.zeros(len(self.capacity) + 1, dtype=np.int64)
        np.cumsum(self.capacity, out=prefix[1:])
        return np.diff(prefix[self.offsets])

    def window_of_row(self, n_rows: int) -> np.ndarray:
        """Window of each row below ``n_rows``, int64; -1 where not placed."""
        window = np.full(n_rows, -1, dtype=np.int64)
        window[self.rows] = np.repeat(np.arange(self.n_windows), np.diff(self.offsets))
        return window


# ---------------------------------------------------------------------------
# Reference kernels
# ---------------------------------------------------------------------------


def spgemm_dense_oracle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Textbook row-wise triple loop with fixed k order, float64 accumulation.

    Zero A entries contribute exactly nothing for finite inputs, so they are
    skipped without changing the result.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape[1] != b.shape[0]:
        raise ConfigError(f"inner dimensions differ: {a.shape} x {b.shape}")
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.float64)
    for i in range(a.shape[0]):
        row = out[i]
        ai = a[i]
        for k in np.nonzero(ai)[0]:
            row += ai[k] * b[k]
    return out


def spgemm_gustavson(a: CsrMatrix, b: CsrMatrix) -> CsrMatrix:
    """Product C = A * B on CSR operands, summed exactly in A-stream order.

    Each output element is ``0.0 + p1 + p2 + ...`` over its partial
    products ``A[i,k] * B[k,j]`` in A-stream order (A's entries in storage
    order, each against B's row k in storage order), so a lone ``-0.0``
    product gives ``+0.0``. Replay and SMASH sum in the same order, which
    makes this an exact judge for both. Rows are taken in the row blocks of
    ``_row_blocks``, run by ``_run_blocks``: a block's products are keyed
    by (row, column), ``np.unique`` numbers the keys in (row, column)
    order, and ``np.add.at`` sums each key's products onto zero in stream
    order, in place in the output. A block sums only its own rows, so the
    product does not depend on the block bound or the worker count. Output
    rows are sorted by column. Elements that cancel to zero stay in the
    structure.
    """
    n_rows, n_cols = a.n_rows, b.n_cols
    pp_per_entry, fma_per_row, blocks, expand = _row_blocks(a, b)
    out_nnz_per_row = np.zeros(n_rows, dtype=np.int64)
    # Every element takes at least one product, so the products bound the
    # elements. The arrays shrink in place once every block is placed, and
    # capacity that no block wrote is never faulted in.
    total_fma = int(fma_per_row.sum())
    col_indices = np.empty(total_fma, dtype=np.int32)
    values = np.empty(total_fma, dtype=np.float64)

    def merge(r0, r1, t0, t1):
        pos, keys = expand(r0, r1, t0, t1)
        prods = np.repeat(a.values[t0:t1], pp_per_entry[t0:t1])
        prods *= b.values[pos]
        del pos
        uniq, inv = np.unique(keys, return_inverse=True)
        del keys

        def write(at):
            end = at + len(uniq)
            sums = values[at:end]
            sums.fill(0.0)
            np.add.at(sums, inv, prods)
            out_nnz_per_row[r0:r1] = _split_keys(uniq, n_cols, r1 - r0, col_indices[at:end])

        return len(uniq), write

    n = _run_blocks(blocks, merge)
    col_indices.resize(n, refcheck=False)
    values.resize(n, refcheck=False)
    out_offsets = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(out_nnz_per_row, out=out_offsets[1:])
    return CsrMatrix(n_rows, n_cols, out_offsets, col_indices, values)


def spmm_csr_dense(a: CsrMatrix, x: np.ndarray) -> np.ndarray:
    """Row-wise sparse * dense product; the aggregation-stage executor."""
    x = np.asarray(x, dtype=np.float64)
    if a.n_cols != x.shape[0]:
        raise ConfigError(f"inner dimensions differ: {a.n_cols} vs {x.shape[0]}")
    out = np.zeros((a.n_rows, x.shape[1]), dtype=np.float64)
    for i in range(a.n_rows):
        cj, cv = a.row(i)
        if len(cj):
            out[i] = cv @ x[cj]
    return out


# ---------------------------------------------------------------------------
# Symbolic pass and bloat
# ---------------------------------------------------------------------------


def _row_blocks(a: CsrMatrix, b: CsrMatrix):
    """Cut C = A * B into blocks of A rows, and expand a block's products.

    Rows are taken in blocks of at most ``SYMBOLIC_BLOCK_PP`` partial
    products (one row with more forms a block of its own) and at most
    ``(1 << 32) // n_cols`` rows. Returns
    ``(pp_per_entry, fma_per_row, blocks, expand)``: ``pp_per_entry[t]`` is
    the partial-product count of A entry t, and ``blocks`` lists
    ``(r0, r1, t0, t1)`` for each block of rows ``r0..r1`` (A entries
    ``t0..t1``) that has partial products, in row order.
    ``expand(r0, r1, t0, t1)`` returns the block's products in A-stream
    order as ``(pos, keys)``: ``pos[p]`` is the index in B's arrays of
    product p's B entry, and ``keys[p] = (i - r0) * n_cols + j`` names the
    output element (i, j) it lands on, as a ``uint32``: B's columns are
    int32, so ``n_cols < 2**31``, the row cap is at least 2, and every key
    fits. B's columns are added by value, whatever their integer width.
    ``expand`` reads only the operands, so blocks may expand concurrently,
    and the caller alone holds the arrays it returns.
    """
    if a.n_cols != b.n_rows:
        raise ConfigError(f"inner dimensions differ: {a.n_cols} vs {b.n_rows}")
    n_rows, n_cols = a.n_rows, int(b.n_cols)
    max_rows = (1 << 32) // max(n_cols, 1)  # rows whose keys fit 32 bits
    a_off = np.asarray(a.row_offsets, dtype=np.int64)
    a_cols = a.col_indices
    b_off = np.asarray(b.row_offsets, dtype=np.int64)
    b_cols = b.col_indices
    pp_per_entry = np.diff(b_off)[a_cols]
    entry_prefix = np.zeros(len(a_cols) + 1, dtype=np.int64)
    np.cumsum(pp_per_entry, out=entry_prefix[1:])
    row_prefix = entry_prefix[a_off]  # partial products before each row
    fma_per_row = np.diff(row_prefix)

    def expand(r0, r1, t0, t1):
        pos = concat_ranges(b_off[a_cols[t0:t1]], pp_per_entry[t0:t1])
        keys = np.repeat(np.arange(r1 - r0, dtype=np.uint32), fma_per_row[r0:r1])
        keys *= n_cols
        np.add(keys, b_cols[pos], out=keys, casting="unsafe")
        return pos, keys

    blocks = []
    r0 = 0
    while r0 < n_rows:
        limit = row_prefix[r0] + SYMBOLIC_BLOCK_PP
        r1 = max(int(np.searchsorted(row_prefix, limit, side="right")) - 1, r0 + 1)
        r1 = min(r1, r0 + max_rows)
        if row_prefix[r1] > row_prefix[r0]:
            blocks.append((r0, r1, int(a_off[r0]), int(a_off[r1])))
        r0 = r1
    return pp_per_entry, fma_per_row, blocks, expand


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _run_blocks(blocks, task) -> int:
    """Run ``task(*block)`` for every block and place the blocks' elements
    in block order, on every CPU the process may use; return the count of
    elements placed.

    A task returns ``(n, write)``: its block's element count, and a
    function that writes those elements into the pass's output arrays from
    a given offset on. Block i's offset counts the elements of the blocks
    before it, so block i takes its offset once block i - 1 has taken its
    own, and then writes while later blocks still run. A worker whose block
    is reduced before its turn waits, holding only that block's result, and
    claims no new block; the result is freed once written, before the
    worker's next claim.

    The caller and one new thread per further worker take the blocks in
    order, each running one block at a time; the numpy calls a task makes
    release the GIL. There is one worker per CPU, but no more than there
    are blocks, nor than ``(1 << 20) // SYMBOLIC_BLOCK_PP``, so the scratch
    in flight stays within ``1 << 20`` partial products. With one worker
    (one block, or one CPU) the caller runs every block, its turn is
    always open, and no thread starts. Every thread is joined before this
    returns or raises. When blocks fail, the error of the first failed
    block is raised: a failure wakes every waiting worker, which drops its
    result, and the workers stop taking blocks, but every block before it
    was taken earlier and runs its task to the end.
    """
    n_workers = min(_cpu_count(), len(blocks), (1 << 20) // SYMBOLIC_BLOCK_PP)
    errors = {}
    claims = iter(range(len(blocks)))
    turn = threading.Condition()
    placed = 0  # blocks that have taken their offset
    offset = 0  # their elements

    def place(i):
        # Block i's result lives in this frame only, so that it is freed
        # before the worker claims its next block.
        nonlocal placed, offset
        n, write = task(*blocks[i])
        with turn:
            turn.wait_for(lambda: placed == i or errors)
            if errors:
                return
            at = offset
            placed, offset = placed + 1, offset + n
            turn.notify_all()
        write(at)

    def work():
        while True:
            with turn:
                i = None if errors else next(claims, None)
            if i is None:
                return
            try:
                place(i)
            except BaseException as exc:  # raised by the caller once all are joined
                with turn:
                    errors[i] = exc
                    turn.notify_all()

    threads = []
    try:
        for _ in range(n_workers - 1):
            thread = threading.Thread(target=work)
            thread.start()
            threads.append(thread)
        work()
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[min(errors)]
    return offset


def _split_keys(uniq: np.ndarray, n_cols: int, n_block_rows: int, cols: np.ndarray) -> np.ndarray:
    """Write a block's sorted distinct keys' columns into ``cols`` (int32,
    one per key) and return the block's elements per row.

    Row k's keys start at ``k * n_cols``, so one ``searchsorted`` of the row
    starts bounds every row's run. The starts keep the keys' dtype: in a
    block they are below ``2**32`` (see ``_row_blocks``). The columns,
    ``uniq`` less its rows' starts, are written straight into int32: they
    are below ``n_cols < 2**31``.
    """
    row_starts = (np.arange(n_block_rows) * n_cols).astype(uniq.dtype)
    counts = np.diff(np.searchsorted(uniq, row_starts), append=len(uniq))
    np.subtract(uniq, np.repeat(row_starts, counts), out=cols, casting="unsafe")
    return counts


def symbolic_pass(a: CsrMatrix, b: CsrMatrix) -> SymbolicPlan:
    """Count FMA work and per-output-element contributions for C = A * B.

    Rows of A are taken in the row blocks of ``_row_blocks``, run by
    ``_run_blocks``. A block's keys ``i * n_cols + j`` (i counted from the
    block's first row) are sorted and each run of equal keys counted: the
    run starts are the block's output elements in (row, column) order, the
    run lengths their contribution counts, both written in place in the
    plan's arrays. A block counts only its own rows, so the plan does not
    depend on the block bound or the worker count.
    """
    n_rows, n_cols = a.n_rows, b.n_cols
    _, fma_per_row, blocks, expand = _row_blocks(a, b)
    out_nnz_per_row = np.zeros(n_rows, dtype=np.int64)
    # Every element takes at least one product, so the products bound the
    # elements. The arrays shrink in place once every block is placed, and
    # capacity that no block wrote is never faulted in.
    total_fma = int(fma_per_row.sum())
    out_cols = np.empty(total_fma, dtype=np.int32)
    counts = np.empty(total_fma, dtype=np.int32)

    def count(r0, r1, t0, t1):
        keys = expand(r0, r1, t0, t1)[1]  # pos is freed at once
        keys.sort()
        n_pp = len(keys)
        head = np.empty(n_pp + 1, dtype=bool)  # run starts, and the end
        head[0] = head[n_pp] = True
        np.not_equal(keys[1:], keys[:-1], out=head[1:n_pp])
        bounds = np.flatnonzero(head)
        del head
        uniq = keys[bounds[:-1]]
        del keys

        def write(at):
            end = at + len(uniq)
            out_nnz_per_row[r0:r1] = _split_keys(uniq, n_cols, r1 - r0, out_cols[at:end])
            np.subtract(bounds[1:], bounds[:-1], out=counts[at:end])

        return len(uniq), write

    n = _run_blocks(blocks, count)
    out_cols.resize(n, refcheck=False)
    counts.resize(n, refcheck=False)
    out_offsets = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(out_nnz_per_row, out=out_offsets[1:])
    return SymbolicPlan(
        n_rows=n_rows,
        n_cols=n_cols,
        fma_per_row=fma_per_row,
        out_offsets=out_offsets,
        out_cols=out_cols,
        counts=counts,
    )


def bloat_report(plan: SymbolicPlan) -> BloatReport:
    """Bloat percent = (pp_interim - nnz_output) / nnz_output * 100."""
    if plan.total_out_nnz == 0:
        raise SparsimError("bloat undefined: product has no nonzeros")
    pp = plan.total_fma
    out = plan.total_out_nnz
    # Numerator scaled first so integer inputs stay exact.
    return BloatReport(pp, out, (pp - out) * 100.0 / out)


# ---------------------------------------------------------------------------
# Window planning
# ---------------------------------------------------------------------------

_WHEEL = (4, 2, 4, 2, 4, 6, 2, 6)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7):
        if n % p == 0:
            return n == p
    i = 11
    w = 0
    while i * i <= n:
        if n % i == 0:
            return False
        i += _WHEEL[w]
        w = (w + 1) % 8
    return True


def next_prime_at_least(x) -> int:
    """Smallest prime >= x."""
    n = max(2, int(np.ceil(x)))
    while not is_prime(n):
        n += 1
    return n


def prev_prime_at_most(x) -> int:
    n = int(x)
    if n < 2:
        raise ConfigError(f"no prime <= {x}")
    while not is_prime(n):
        n -= 1
    return n


def probe_sequence(home: int, cap: int):
    """Slots a probe from ``home`` examines in a region of ``cap`` slots.

    First ``home + k*k`` for k = 0..cap // 2: on a prime capacity these
    are (cap + 1) / 2 distinct slots, and a larger k only revisits one of
    them. Then a scan from ``home`` over the slots not yet seen, so every
    slot comes up before the sequence ends.
    """
    half = cap // 2
    for k in range(half + 1):
        yield (home + k * k) % cap
    seen = {(home + k * k) % cap for k in range(half + 1)}
    for s in range(1, cap):
        slot = (home + s) % cap
        if slot not in seen:
            yield slot


def plan_windows(plan: SymbolicPlan, spad_budget: int) -> WindowPlan:
    """Size each row's hash region and pack the rows into windows.

    A row is dense when fma / ``DEFAULT_CF`` > ``spad_budget`` / 64, and
    its region then takes n_cols lines. Any other row is sparse: its region
    takes the smallest prime >= fma * ``DEFAULT_EF`` lines (capped at the
    budget, but never below the row's fma). The class sets only the
    region's size and the placement order: every row is hashed into its
    region alike. Placement alternates dense and sparse rows, each class in
    row order, to approximate an evenly spread mix, and rows are packed
    greedily: a row that would overfill the open window opens the next.
    The first row, in row order, that no window can hold raises
    CapacityError.
    """
    fma = np.asarray(plan.fma_per_row, dtype=np.int64)
    dense = fma / DEFAULT_CF > spad_budget / 64
    cap = np.full(plan.n_rows, plan.n_cols, dtype=np.int64)
    need, at = np.unique(fma[~dense] * DEFAULT_EF, return_inverse=True)
    primes = np.array([next_prime_at_least(x) for x in need.tolist()], dtype=np.int64)
    over = primes > spad_budget
    if over.any() and spad_budget >= 2:
        primes[over] = prev_prime_at_most(spad_budget)
    cap[~dense] = primes[at]
    bad = np.flatnonzero((cap > spad_budget) | (~dense & (fma > cap)))
    if len(bad):
        r = int(bad[0])
        if dense[r]:
            raise CapacityError(f"dense row {r} needs {plan.n_cols} hashlines, budget is {spad_budget}")
        if cap[r] > spad_budget:
            prev_prime_at_most(spad_budget)  # raises: no prime fits the budget
        raise CapacityError(f"row {r} needs {fma[r]} hashlines, budget is {spad_budget}")

    # Dense rank i goes to 2i, sparse rank i to 2i + 1: the classes alternate.
    rank = np.where(dense, np.cumsum(dense), np.cumsum(~dense)) - 1
    rows = np.argsort(2 * rank + ~dense, kind="stable")
    placed = cap[rows]
    offsets = [0]
    used = 0
    for i, c in enumerate(placed.tolist()):
        if i > offsets[-1] and used + c > spad_budget:
            offsets.append(i)
            used = 0
        used += c
    if len(rows):
        offsets.append(len(rows))

    return WindowPlan(rows=rows, offsets=np.array(offsets, dtype=np.int64), capacity=placed)


# ---------------------------------------------------------------------------
# Graph-convolution layer workload
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GcnLayerJob:
    """One graph-convolution layer: aggregate A @ X, combine @ W, ReLU.

    ``adjacency`` and ``features`` form the sparse aggregation job;
    ``weights`` the dense combination job; ``reference`` is the fused dense
    result relu(A @ X @ W) the chained execution must reproduce.
    """

    adjacency: CsrMatrix
    features: np.ndarray
    weights: np.ndarray
    reference: np.ndarray

    def run_aggregation(self) -> np.ndarray:
        return spmm_csr_dense(self.adjacency, self.features)

    def run_combination(self, aggregated: np.ndarray) -> np.ndarray:
        return relu(aggregated @ self.weights)


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def gcn_layer_workload(adj: CsrMatrix, x: np.ndarray, w: np.ndarray) -> GcnLayerJob:
    """Build the layer job plus its fused dense reference."""
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    if adj.n_cols != x.shape[0]:
        raise ConfigError(f"adjacency is {adj.n_rows}x{adj.n_cols} but features have {x.shape[0]} rows")
    if x.shape[1] != w.shape[0]:
        raise ConfigError(f"features have {x.shape[1]} columns but weights have {w.shape[0]} rows")
    reference = relu(csr_to_dense(adj) @ x @ w)
    return GcnLayerJob(adjacency=adj, features=x, weights=w, reference=reference)
