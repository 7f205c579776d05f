"""Host-side sparse-matmul kernel with scratchpad hashing (SMASH).

The kernel works window by window over an ``oracle.WindowPlan``: window
w's rows and their region capacities are one slice of the plan's arrays,
and each row owns a region of the scratchpad sized by the symbolic pass.

Four versions model the paper's ways of sharing a window among workers:

* base -- one worker per row, rows dealt round-robin
* v1   -- every worker strides over each row's A entries
* v2   -- two tokens per row (first and second half of its A entries);
          each token goes to the worker that has done the fewest partial
          products so far in the window, the lowest worker id on a tie
* v3   -- v2 plus a three-stage pipeline (prefetch window w+1, hash
          window w, write back window w-1) over a scratchpad split into
          two halves

The workers are virtual: the schedule decides only the audit ledger
(rows or tokens per worker, v3's phase steps), and the program runs on
one thread. Every version takes each window straight through prefetch,
hash and write-back before the next; v3's pipeline exists only in its
``phase_steps`` ledger. Prefetch gathers the window's A entries from A's
arrays in one go, reading a MAP-CSR row from its replica when it has
one. Every version merges each row's partial products in A-stream
order (the row's A entries in order, each against its B row in order), so
all four give the same result bit for bit, integer inputs or not, and
every rerun gives the same result and ledger.

One window is merged at once with numpy into the slots taken from the
symbolic plan (``oracle.symbolic_pass``): one stable grouping of the
window's partial products by output element (``matio.group_by_key``)
gives each product its element's slot, and sums start from -0.0, IEEE
addition's identity, so each is the element's first product plus the
rest in stream order. The host keeps no region tables: where an element
lands in its region, and what probing for it costs, is modelled once, by
the simulator's hash memories (``uarch``), along
``oracle.probe_sequence``. That sequence examines every slot of a region,
and SMASH frees no line within a window, so a region overflows exactly
when its row has more output elements than its region has lines. The
kernel checks that count per row and raises ``HashOverflowError``;
``plan_windows`` sizes every row to hold its elements, so the check is a
guard.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from . import oracle
from .errors import ConfigError, HashOverflowError, VerificationError
from .matio import NO_REPLICA, CsrMatrix, MapCsrMatrix, concat_ranges, group_by_key, map_csr_to_csr

BASE = "base"
V1 = "v1"
V2 = "v2"
V3 = "v3"
VERSIONS = (BASE, V1, V2, V3)


@dataclass(frozen=True)
class SmashConfig:
    version: str = V2
    n_workers: int = 1
    spad_capacity: int = 1 << 14  # hashlines

    def __post_init__(self):
        if self.version not in VERSIONS:
            raise ConfigError(f"unknown version {self.version!r}")
        if self.n_workers < 1:
            raise ConfigError("n_workers must be >= 1")


@dataclass
class SmashAudit:
    """Execution evidence: the virtual workers' ledger and the v3 phase
    steps. A second call on the same audit adds to every field. The plans
    own ``phase_units``: a call that writes back every window adds A's
    entries (prefetch), the partial products (hash) and output elements
    (writeback) of the product once."""

    version: str
    n_windows: int = 0
    tokens_total: int = 0
    tokens_per_worker: dict = field(default_factory=dict)
    rows_per_worker: dict = field(default_factory=dict)
    phase_steps: list = field(default_factory=list)  # v3: per-step busy phases
    phase_units: dict = field(default_factory=dict)  # work units per phase

    def phase_fractions(self) -> dict:
        total = sum(self.phase_units.values()) or 1
        return {k: v / total for k, v in sorted(self.phase_units.items())}

    def to_json_dict(self) -> dict:
        return {
            "version": self.version,
            "n_windows": self.n_windows,
            "tokens_total": self.tokens_total,
            "tokens_per_worker": {str(k): v for k, v in sorted(self.tokens_per_worker.items())},
            "rows_per_worker": {str(k): v for k, v in sorted(self.rows_per_worker.items())},
            "phase_steps": self.phase_steps,
            "phase_units": dict(sorted(self.phase_units.items())),
            "phase_fractions": self.phase_fractions(),
        }


def _prefetch(a, starts, lengths, rows):
    """A entries of a window's rows, in window order, read from A's
    arrays at ``starts[r]`` for ``lengths[r]`` entries: (per-row entry
    counts, column indices, values)."""
    n_entries = lengths[rows]
    at = concat_ranges(starts[rows], n_entries)
    return n_entries, a.col_indices[at], a.values[at]


def _record_schedule(cfg, n_entries, entry_pp, audit):
    """Deal the window's work to the virtual workers and log it.

    The schedule decides only the ledger; results never depend on it. Every
    window starts with all workers idle, as after a barrier.
    """
    n_workers = cfg.n_workers
    n_rows = len(n_entries)
    if cfg.version == BASE:
        for w in range(n_workers):
            audit.rows_per_worker[w] = audit.rows_per_worker.get(w, 0) + len(range(w, n_rows, n_workers))
        return
    if cfg.version == V1:
        for w in range(n_workers):
            audit.rows_per_worker[w] = audit.rows_per_worker.get(w, 0) + n_rows
        return
    # Two tokens per row: the first ceil(n/2) A entries, then the rest.
    ends = np.cumsum(n_entries)
    starts = ends - n_entries
    mids = starts + (n_entries + 1) // 2
    prefix = np.zeros(len(entry_pp) + 1, dtype=np.int64)
    np.cumsum(entry_pp, out=prefix[1:])
    token_pp = np.column_stack((prefix[mids] - prefix[starts], prefix[ends] - prefix[mids]))
    clocks = [(0, w) for w in range(n_workers)]  # (partial products done, worker): a heap
    taken = [0] * n_workers
    for pp in token_pp.ravel().tolist():
        clock, w = clocks[0]
        taken[w] += 1
        heapq.heapreplace(clocks, (clock + pp, w))
    for w, n in enumerate(taken):
        audit.tokens_per_worker[w] = audit.tokens_per_worker.get(w, 0) + n
    audit.tokens_total += 2 * n_rows


def _hash_window(plan, wplan, span, n_entries, a_cols, a_vals, entry_pp, b, window_id):
    """Merge one window's partial products into the slots taken from the
    symbolic plan for its rows: (slot indices, their sums). The window's A
    entries are its ``_prefetch``; ``entry_pp`` counts their products.

    Raises HashOverflowError when a row has more output elements than its
    region has lines. The stream's products are grouped by their key
    ``local_row * n_cols + column`` (``matio.group_by_key``); the distinct
    keys must be the window's slot keys, which ascend, so run g is slot g,
    and a stream that is not the plan's raises VerificationError. Sums
    start from -0.0, so a lone -0.0 product stays -0.0, and add the run's
    products in stream order.
    """
    b_off = np.asarray(b.row_offsets, dtype=np.int64)
    rows = wplan.rows[span]
    n_out = plan.out_nnz_per_row[rows]
    caps = wplan.capacity[span]
    over = np.flatnonzero(n_out > caps)
    if len(over):
        k = over[0]
        raise HashOverflowError(
            f"window {window_id}, row {rows[k]}: {n_out[k]} distinct tags exceed its {caps[k]} lines"
        )
    row_keys = np.arange(len(rows), dtype=np.int64) * plan.n_cols
    slots = concat_ranges(plan.out_offsets[rows], n_out)
    slot_keys = np.repeat(row_keys, n_out) + plan.out_cols[slots]
    # The stream: each A entry against its B row, in order.
    pos = concat_ranges(b_off[a_cols], entry_pp)
    prods = np.repeat(a_vals, entry_pp) * b.values[pos]
    keys = np.repeat(np.repeat(row_keys, n_entries), entry_pp)
    keys += b.col_indices[pos]
    del pos
    order, distinct, offsets = group_by_key(keys)
    del keys
    if not np.array_equal(distinct, slot_keys):
        raise VerificationError(
            f"window {window_id}: its partial products do not land on the symbolic plan's "
            f"{len(slots)} output elements"
        )
    sums = np.full(len(slots), -0.0)
    np.add.at(sums, np.repeat(np.arange(len(slots)), np.diff(offsets)), prods[order])
    return slots, sums


def smash_spgemm(a, b: CsrMatrix, cfg: SmashConfig, audit: SmashAudit | None = None) -> CsrMatrix:
    """Multiply A (CSR or MAP-CSR) by B with the configured kernel version.

    The rows are planned by ``oracle.plan_windows`` with a budget of
    ``cfg.spad_capacity`` lines, halved for v3, whose pipeline holds two
    windows in the scratchpad at once. Every version takes window w
    through three phases before it starts w+1: prefetch (gather the rows'
    A entries), hash (merge the window's partial products) and write back
    (store the window's sums in the plan's output slots). v3 records the
    three-stage pipeline it models in ``phase_steps``: step s prefetches
    window s, hashes s-1 and writes back s-2, for s = 0..n+1, with None
    outside the n windows.

    A row with more distinct output elements than its region has lines
    raises HashOverflowError naming the window and the row; the plan sizes
    every region to hold its row, so this is a guard. ``audit``, when
    passed in, receives the workers' ledger only, and a second call adds
    to it. A of any type but CSR or MAP-CSR is a ConfigError.
    """
    own_audit = audit if audit is not None else SmashAudit(version=cfg.version)
    if isinstance(a, MapCsrMatrix):
        a_csr = map_csr_to_csr(a)
        starts = np.where(a.replica_offsets != NO_REPLICA, a.replica_offsets, a.row_offsets)
    elif isinstance(a, CsrMatrix):
        a_csr = a
        starts = a.row_offsets[:-1]
    else:
        raise ConfigError(f"unsupported A-matrix type {type(a).__name__}")
    if a_csr.n_cols != b.n_rows:
        raise ConfigError(f"inner dimensions differ: {a_csr.n_cols} vs {b.n_rows}")
    lengths = np.diff(a_csr.row_offsets)
    plan = oracle.symbolic_pass(a_csr, b)
    budget = cfg.spad_capacity // 2 if cfg.version == V3 else cfg.spad_capacity
    wplan = oracle.plan_windows(plan, budget)
    n = wplan.n_windows
    bounds = wplan.offsets.tolist()
    own_audit.n_windows += n

    values = np.empty(len(plan.out_cols))
    b_len = np.diff(np.asarray(b.row_offsets, dtype=np.int64))
    for w in range(n):
        span = slice(bounds[w], bounds[w + 1])
        n_entries, a_cols, a_vals = _prefetch(a, starts, lengths, wplan.rows[span])
        entry_pp = b_len[a_cols]
        _record_schedule(cfg, n_entries, entry_pp, own_audit)
        slots, sums = _hash_window(plan, wplan, span, n_entries, a_cols, a_vals, entry_pp, b, w)
        values[slots] = sums
    if n:  # a product with no rows has no window and records no phase
        units = own_audit.phase_units
        for phase, count in (("prefetch", a_csr.nnz), ("hash", plan.total_fma),
                             ("writeback", plan.total_out_nnz)):
            units[phase] = units.get(phase, 0) + count
    if cfg.version == V3:
        for s in range(n + 2):
            pf, hs, wb = (w if 0 <= w < n else None for w in (s, s - 1, s - 2))
            own_audit.phase_steps.append({"step": s, "prefetch": pf, "hash": hs, "writeback": wb})
    return CsrMatrix(a_csr.n_rows, b.n_cols, plan.out_offsets, plan.out_cols, values)
