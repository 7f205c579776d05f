"""Host-side multithreaded sparse-matmul kernel with scratchpad hashing.

The kernel works window by window (see oracle.plan_windows): each output
row in a window owns a region of the scratchpad, sized by the symbolic
pass. Partial products are merged into the region with prime-modulo
hashing and quadratic probing. Four variants are provided:

* base -- one worker per row, row regions are private, no atomics
* v1   -- every worker strides over each row's A entries, atomic updates
* v2   -- two tokens per row (even/odd halves of the A entries), workers
          poll a shared token pool
* v3   -- v2 plus a lockstep three-stage pipeline (prefetch / hash /
          write-back) over a scratchpad split into two halves

All variants produce the same structure; values are bitwise-deterministic
when inputs are integer-valued (addition order cannot matter) and agree
with the row-wise oracle within 1e-9 relative otherwise.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import oracle
from .errors import ConfigError, HashOverflowError
from .matio import CsrMatrix, MapCsrMatrix

EMPTY = -1

BASE = "base"
V1 = "v1"
V2 = "v2"
V3 = "v3"
VERSIONS = (BASE, V1, V2, V3)

EVEN = "EVEN"
ODD = "ODD"

_N_LOCK_STRIPES = 16


def pack_tag(i: int, j: int) -> int:
    """64-bit host tag: output row in the high word, column in the low."""
    return (i << 32) | j


def unpack_tag(tag: int) -> tuple[int, int]:
    return tag >> 32, tag & 0xFFFFFFFF


@dataclass
class ScratchpadHashTable:
    """One row's scratchpad region: open-addressed, prime capacity.

    ``counts`` tallies contributions per slot for the atomicity audit.
    Dense rows use direct 1:1 column indexing instead of probing; they are
    built with ``direct=True`` and capacity equal to the output column
    count.
    """

    capacity: int
    direct: bool = False
    tags: list = field(init=False)
    vals: np.ndarray = field(init=False)
    counts: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.capacity < 1:
            raise ConfigError("capacity must be >= 1")
        self.tags = [EMPTY] * self.capacity
        self.vals = np.zeros(self.capacity, dtype=np.float64)
        self.counts = np.zeros(self.capacity, dtype=np.int64)
        self._locks = [threading.Lock() for _ in range(min(_N_LOCK_STRIPES, self.capacity))]

    def _lock_for(self, slot: int) -> threading.Lock:
        return self._locks[slot % len(self._locks)]

    def occupied(self):
        """(tag, value, contributions) for live slots, unordered."""
        for s, t in enumerate(self.tags):
            if t != EMPTY:
                yield t, self.vals[s], int(self.counts[s])


def hash_probe_insert(t: ScratchpadHashTable, tag: int, value: float):
    """Merge one partial product into a region.

    Returns ("INSERTED", 0) for a home-slot insert, ("UPDATED", k) when the
    value was accumulated into an existing cell found after k probes, and
    ("PROBED", k) when an empty slot was claimed after k quadratic probes.
    Raises HashOverflowError when every probe up to the capacity was
    examined without finding the tag or a free cell.
    """
    cap = t.capacity
    home = (tag & 0xFFFFFFFF) % cap if t.direct else tag % cap
    for k in range(cap + 1):
        slot = home if k == 0 else (home + k * k) % cap
        lock = t._lock_for(slot)
        with lock:
            cur = t.tags[slot]
            if cur == EMPTY:
                t.tags[slot] = tag
                t.vals[slot] = value
                t.counts[slot] = 1
                return ("INSERTED", 0) if k == 0 else ("PROBED", k)
            if cur == tag:
                t.vals[slot] += value
                t.counts[slot] += 1
                return ("UPDATED", k)
        if t.direct:
            # 1:1 mapping cannot collide; a mismatch is a bookkeeping bug.
            raise HashOverflowError(f"direct-mapped slot {slot} holds foreign tag")
    raise HashOverflowError(f"no slot for tag {tag:#x} within {cap} probes")


@dataclass(frozen=True)
class Token:
    """Unit of v2 work: one half of one row's A entries."""

    row: int
    half: str  # EVEN | ODD


@dataclass(frozen=True)
class SmashConfig:
    version: str = V2
    n_workers: int = 1
    spad_capacity: int = 1 << 14  # hashlines
    cf: float = oracle.DEFAULT_CF
    ef: float = oracle.DEFAULT_EF
    threshold: float | None = None

    def __post_init__(self):
        if self.version not in VERSIONS:
            raise ConfigError(f"unknown version {self.version!r}")
        if self.n_workers < 1:
            raise ConfigError("n_workers must be >= 1")


@dataclass
class SmashAudit:
    """Execution evidence: token accounting and the v3 phase ledger."""

    version: str
    n_windows: int = 0
    tokens_total: int = 0
    tokens_per_worker: dict = field(default_factory=dict)
    rows_per_worker: dict = field(default_factory=dict)
    phase_steps: list = field(default_factory=list)  # v3: per-step busy phases
    phase_units: dict = field(default_factory=dict)  # work units per phase
    window_tables: list = field(default_factory=list)  # kept only when audit=True

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


def _row_reader(a):
    """Row accessor preferring replica copies when the format has them."""
    if isinstance(a, MapCsrMatrix):
        def read(i):
            if int(a.replica_offsets[i]) != 0xFFFFFFFF:
                return a.row(i, replica=True)
            return a.row(i)

        return read
    if isinstance(a, CsrMatrix):
        return a.row
    raise ConfigError(f"unsupported A-matrix type {type(a).__name__}")


def _planning_csr(a) -> CsrMatrix:
    if isinstance(a, MapCsrMatrix):
        from .matio import map_csr_to_csr

        return map_csr_to_csr(a)
    return a


def _build_window_tables(window):
    tables = {}
    for r, cls, cap in zip(window.rows, window.classification, window.hash_capacity):
        tables[r] = ScratchpadHashTable(capacity=cap, direct=(cls == oracle.DENSE))
    return tables


def _hash_span(row, a_cols, a_vals, lo, hi, b, tables, window_id):
    """Multiply A[row, lo:hi] against the matching B rows into row's region."""
    table = tables[row]
    b_off = b.row_offsets
    b_cols = b.col_indices
    b_vals = b.values
    for t in range(lo, hi):
        k = int(a_cols[t])
        av = a_vals[t]
        for u in range(int(b_off[k]), int(b_off[k + 1])):
            tag = (row << 32) | int(b_cols[u])
            try:
                hash_probe_insert(table, tag, av * b_vals[u])
            except HashOverflowError as err:
                raise HashOverflowError(f"window {window_id}, row {row}: {err}") from err


def _run_base_window(window, fetched, b, tables, cfg, audit, window_id):
    """One worker per row, rows dealt round-robin."""

    def work(worker_id):
        done = 0
        for idx in range(worker_id, len(window.rows), cfg.n_workers):
            r = window.rows[idx]
            cols, vals = fetched[r]
            _hash_span(r, cols, vals, 0, len(cols), b, tables, window_id)
            done += 1
        return worker_id, done

    for wid, done in _run_workers(work, cfg.n_workers):
        audit.rows_per_worker[wid] = audit.rows_per_worker.get(wid, 0) + done


def _run_v1_window(window, fetched, b, tables, cfg, audit, window_id):
    """All workers cooperate on every row, striding over its A entries."""

    def work(worker_id):
        for r in window.rows:
            cols, vals = fetched[r]
            for t in range(worker_id, len(cols), cfg.n_workers):
                _hash_span(r, cols, vals, t, t + 1, b, tables, window_id)
        return worker_id, len(window.rows)

    for wid, done in _run_workers(work, cfg.n_workers):
        audit.rows_per_worker[wid] = audit.rows_per_worker.get(wid, 0) + done


def run_tokenized_window(window, fetched, b, tables, cfg, audit, window_id):
    """v2 work distribution: a shared pool of two tokens per row.

    Workers poll tokens until the pool is empty; the EVEN token covers the
    first ceil(len/2) A entries of its row, the ODD token the rest. Each
    token is consumed exactly once.
    """
    tokens = []
    for r in window.rows:
        tokens.append(Token(r, EVEN))
        tokens.append(Token(r, ODD))
    cursor = [0]
    cursor_lock = threading.Lock()
    concurrent = cfg.n_workers > 1
    start = threading.Barrier(cfg.n_workers) if concurrent else None

    def work(worker_id):
        if start is not None:
            start.wait()  # remove thread-startup skew from the polling race
        taken = 0
        while True:
            with cursor_lock:
                idx = cursor[0]
                if idx >= len(tokens):
                    break
                cursor[0] = idx + 1
            tok = tokens[idx]
            cols, vals = fetched[tok.row]
            mid = -(-len(cols) // 2)
            lo, hi = (0, mid) if tok.half == EVEN else (mid, len(cols))
            _hash_span(tok.row, cols, vals, lo, hi, b, tables, window_id)
            taken += 1
            if concurrent:
                time.sleep(1e-6)  # hand the GIL to the next poller
        return worker_id, taken

    for wid, taken in _run_workers(work, cfg.n_workers):
        audit.tokens_per_worker[wid] = audit.tokens_per_worker.get(wid, 0) + taken
    audit.tokens_total += len(tokens)


def _run_workers(work, n_workers):
    if n_workers == 1:
        return [work(0)]
    with ThreadPoolExecutor(max_workers=n_workers) as pool:
        futures = [pool.submit(work, w) for w in range(n_workers)]
        return [f.result() for f in futures]


def _prefetch(window, read_row, audit):
    fetched = {}
    units = 0
    for r in window.rows:
        cols, vals = read_row(r)
        fetched[r] = (cols, vals)
        units += len(cols)
    audit.phase_units["prefetch"] = audit.phase_units.get("prefetch", 0) + units
    return fetched


def _writeback(window, tables, out_rows, audit):
    units = 0
    for r in window.rows:
        pairs = sorted((tag & 0xFFFFFFFF, val) for tag, val, _ in tables[r].occupied())
        out_rows[r] = pairs
        units += len(pairs)
    audit.phase_units["writeback"] = audit.phase_units.get("writeback", 0) + units


def _assemble(n_rows, n_cols, out_rows) -> CsrMatrix:
    offsets = np.zeros(n_rows + 1, dtype=np.int64)
    cols = []
    vals = []
    for r in range(n_rows):
        for j, v in out_rows.get(r, ()):
            cols.append(j)
            vals.append(v)
        offsets[r + 1] = len(cols)
    return CsrMatrix(
        n_rows, n_cols, offsets, np.asarray(cols, dtype=np.int32), np.asarray(vals, dtype=np.float64)
    )


_HASH_FNS = {BASE: _run_base_window, V1: _run_v1_window, V2: run_tokenized_window}


def smash_spgemm(a, b: CsrMatrix, cfg: SmashConfig, audit: SmashAudit | None = None) -> CsrMatrix:
    """Multiply A (CSR or MAP-CSR) by B with the configured kernel version."""
    own_audit = audit if audit is not None else SmashAudit(version=cfg.version)
    keep_tables = audit is not None
    a_csr = _planning_csr(a)
    if a_csr.n_cols != b.n_rows:
        raise ConfigError(f"inner dimensions differ: {a_csr.n_cols} vs {b.n_rows}")
    plan = oracle.symbolic_pass(a_csr, b)
    budget = cfg.spad_capacity // 2 if cfg.version == V3 else cfg.spad_capacity
    wplan = oracle.plan_windows(plan, cf=cfg.cf, ef=cfg.ef, threshold=cfg.threshold, spad_budget=budget)
    own_audit.n_windows = len(wplan.windows)
    read_row = _row_reader(a)
    out_rows = {}

    if cfg.version == V3:
        run_pipelined(wplan.windows, read_row, b, plan, cfg, own_audit, out_rows, keep_tables)
    else:
        hash_fn = _HASH_FNS[cfg.version]
        for w_id, window in enumerate(wplan.windows):
            fetched = _prefetch(window, read_row, own_audit)
            tables = _build_window_tables(window)
            hash_units = sum(int(plan.fma_per_row[r]) for r in window.rows)
            own_audit.phase_units["hash"] = own_audit.phase_units.get("hash", 0) + hash_units
            hash_fn(window, fetched, b, tables, cfg, own_audit, w_id)
            _writeback(window, tables, out_rows, own_audit)
            if keep_tables:
                own_audit.window_tables.append((w_id, tables))
    return _assemble(a_csr.n_rows, b.n_cols, out_rows)


def run_pipelined(windows, read_row, b, plan, cfg, audit, out_rows, keep_tables=False):
    """v3: lockstep pipeline with prefetch(w+1) / hash(w) / writeback(w-1).

    Each step runs the three phases concurrently on disjoint windows; the
    scratchpad is split into two halves so hashing window w and draining
    window w-1 never share regions. The per-step ledger records which
    phases were busy.
    """
    n = len(windows)
    fetched = {}  # window index -> prefetched rows
    tables = {}  # window index -> region tables (half = index % 2)
    for step in range(n + 2):
        pf, hs, wb = step, step - 1, step - 2
        entry = {
            "step": step,
            "prefetch": pf if pf < n else None,
            "hash": hs if 0 <= hs < n else None,
            "writeback": wb if 0 <= wb < n else None,
        }
        audit.phase_steps.append(entry)

        threads = []
        if entry["prefetch"] is not None:
            def do_prefetch(w=pf):
                fetched[w] = _prefetch(windows[w], read_row, audit)

            threads.append(threading.Thread(target=do_prefetch))
        if entry["writeback"] is not None:
            def do_writeback(w=wb):
                _writeback(windows[w], tables[w], out_rows, audit)
                if keep_tables:
                    audit.window_tables.append((w, tables[w]))
                else:
                    del tables[w]

            threads.append(threading.Thread(target=do_writeback))
        for t in threads:
            t.start()
        if entry["hash"] is not None:
            w = hs
            tables[w] = _build_window_tables(windows[w])
            hash_units = sum(int(plan.fma_per_row[r]) for r in windows[w].rows)
            audit.phase_units["hash"] = audit.phase_units.get("hash", 0) + hash_units
            run_tokenized_window(windows[w], fetched[w], b, tables[w], cfg, audit, w)
            del fetched[w]
        for t in threads:
            t.join()
