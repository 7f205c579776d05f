"""Host-side sparse-matmul kernel with scratchpad hashing (SMASH).

The kernel works window by window over an ``oracle.WindowPlan``: window
w's rows, their region capacities and their dense flags are one slice of
the plan's arrays, and each row owns a region of the scratchpad sized by
the symbolic pass. Partial products are merged into the region with
prime-modulo hashing along ``oracle.probe_sequence``: a tag probes
``home + k*k`` for k up to half the capacity, then scans on from its home
over the slots the quadratic steps missed, so every slot is examined
before a region reports overflow. Dense rows map 1:1 by column instead.

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

One window is hashed at once with numpy: its partial-product stream is
expanded, the distinct tags are found with their first touch, and each
tag's value is its first product plus the rest in stream order. A tag's
slot is fixed by its first insert, since lines are never deleted, so the
Python probe loop runs once per distinct tag, in first-touch order, and
fills the region tables exactly as ``hash_probe_insert`` applied to the
stream one product at a time would.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from . import oracle
from .errors import ConfigError, HashOverflowError
from .matio import NO_REPLICA, CsrMatrix, MapCsrMatrix, concat_ranges, csr_from_tags, map_csr_to_csr

EMPTY = -1

BASE = "base"
V1 = "v1"
V2 = "v2"
V3 = "v3"
VERSIONS = (BASE, V1, V2, V3)

_COL_MASK = 0xFFFFFFFF


def pack_tag(i: int, j: int) -> int:
    """64-bit host tag: output row in the high word, column in the low."""
    return (i << 32) | j


def unpack_tag(tag: int) -> tuple[int, int]:
    return tag >> 32, tag & _COL_MASK


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

    def occupied(self):
        """(tag, value, contributions) for live slots, unordered."""
        for s, t in enumerate(self.tags):
            if t != EMPTY:
                yield t, self.vals[s], int(self.counts[s])


def _probe(tags: list, tag: int, home: int, cap: int, direct: bool) -> tuple[int, int]:
    """(k, slot) of the first probe that finds ``tag`` or an empty slot."""
    for k, slot in enumerate(oracle.probe_sequence(home, cap)):
        cur = tags[slot]
        if cur == EMPTY or cur == tag:
            return k, slot
        if direct:
            # 1:1 mapping cannot collide; a mismatch is a bookkeeping bug.
            raise HashOverflowError(f"direct-mapped slot {slot} holds foreign tag")
    raise HashOverflowError(f"no slot for tag {tag:#x} within {cap} probes")


def hash_probe_insert(t: ScratchpadHashTable, tag: int, value: float):
    """Merge one partial product into a region.

    Returns ("INSERTED", 0) for a home-slot insert, ("UPDATED", k) when the
    value was accumulated into an existing cell found after k probes, and
    ("PROBED", k) when an empty slot was claimed after k probes.
    Raises HashOverflowError when every slot was examined without finding
    the tag or a free cell.
    """
    cap = t.capacity
    home = (tag & _COL_MASK) % cap if t.direct else tag % cap
    k, slot = _probe(t.tags, tag, home, cap, t.direct)
    if t.tags[slot] == tag:
        t.vals[slot] += value
        t.counts[slot] += 1
        return ("UPDATED", k)
    t.tags[slot] = tag
    t.vals[slot] = value
    t.counts[slot] = 1
    return ("INSERTED", 0) if k == 0 else ("PROBED", k)


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
    """Execution evidence: the virtual workers' ledger and the v3 phase steps."""

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


def _add_units(audit: SmashAudit, phase: str, units: int) -> None:
    audit.phase_units[phase] = audit.phase_units.get(phase, 0) + units


def _prefetch(a, starts, lengths, rows, audit):
    """A entries of a window's rows, in window order, read from A's
    arrays at ``starts[r]`` for ``lengths[r]`` entries: (per-row entry
    counts, column indices, values)."""
    n_entries = lengths[rows]
    at = concat_ranges(starts[rows], n_entries)
    _add_units(audit, "prefetch", len(at))
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


def _hash_window(wplan, span, fetched, b, cfg, audit, window_id):
    """Merge one window's partial products into its region tables.

    Returns the tables and the window's distinct tags, ascending, with
    their values.
    """
    n_entries, a_cols, a_vals = fetched
    b_off = np.asarray(b.row_offsets, dtype=np.int64)
    entry_pp = np.diff(b_off)[a_cols]
    _record_schedule(cfg, n_entries, entry_pp, audit)
    rows = wplan.rows[span]
    rows_l = rows.tolist()
    tables = {
        r: ScratchpadHashTable(capacity=cap, direct=direct)
        for r, cap, direct in zip(rows_l, wplan.capacity[span].tolist(), wplan.dense[span].tolist())
    }

    # The stream: each A entry against its B row, in order.
    n_pp = int(entry_pp.sum())
    _add_units(audit, "hash", n_pp)
    pos = concat_ranges(b_off[a_cols], entry_pp)
    prods = np.repeat(a_vals, entry_pp) * b.values[pos]
    tags = np.repeat(np.repeat(rows, n_entries) << 32, entry_pp)
    tags |= b.col_indices[pos]
    del pos

    uniq, first, inv = np.unique(tags, return_index=True, return_inverse=True)
    counts = np.bincount(inv, minlength=len(uniq))
    sums = prods[first]  # assigned, not added to 0.0, so a -0.0 stays
    rest = np.ones(n_pp, dtype=bool)
    rest[first] = False
    np.add.at(sums, inv[rest], prods[rest])

    # Claim slots in first-touch order. Each row's products are contiguous
    # in the stream, so that order takes the rows in window order, and a
    # row's distinct tags are the run of ``uniq`` holding its row bits.
    order = np.argsort(first)
    touched = uniq[order]
    uniq_rows = uniq >> 32
    n_distinct = np.searchsorted(uniq_rows, rows, "right") - np.searchsorted(uniq_rows, rows, "left")
    caps = np.repeat(wplan.capacity[span], n_distinct)
    direct = np.repeat(wplan.dense[span], n_distinct)
    homes = np.where(direct, touched & _COL_MASK, touched) % caps
    touched_l = touched.tolist()
    homes_l = homes.tolist()
    at = 0
    for r, n in zip(rows_l, n_distinct.tolist()):
        if not n:
            continue
        table = tables[r]
        tl = table.tags
        slots = []
        try:
            for tag, slot in zip(touched_l[at : at + n], homes_l[at : at + n]):
                if tl[slot] != EMPTY:  # tags are distinct: a taken home holds another tag
                    slot = _probe(tl, tag, slot, table.capacity, table.direct)[1]
                tl[slot] = tag
                slots.append(slot)
        except HashOverflowError as err:
            raise HashOverflowError(f"window {window_id}, row {r}: {err}") from err
        sel = order[at : at + n]
        table.vals[slots] = sums[sel]
        table.counts[slots] = counts[sel]
        at += n
    return tables, uniq, sums


def smash_spgemm(a, b: CsrMatrix, cfg: SmashConfig, audit: SmashAudit | None = None) -> CsrMatrix:
    """Multiply A (CSR or MAP-CSR) by B with the configured kernel version.

    The rows are planned by ``oracle.plan_windows`` with its default
    thresholds and a budget of ``cfg.spad_capacity`` lines, halved for v3,
    whose pipeline holds two windows in the scratchpad at once. Every
    version takes window w through three phases before it starts w+1:
    prefetch (gather the rows' A entries), hash (merge the window into
    its region tables) and write back (emit the window's output
    elements). v3 records the three-stage pipeline it models in
    ``phase_steps``: step s prefetches window s, hashes s-1 and writes
    back s-2, for s = 0..n+1, with None outside the n windows. The region
    tables are kept in ``audit.window_tables`` only when an audit is
    passed in. A of any type but CSR or MAP-CSR is a ConfigError.
    """
    own_audit = audit if audit is not None else SmashAudit(version=cfg.version)
    keep_tables = audit is not None
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
    wplan = oracle.plan_windows(plan, spad_budget=budget)
    n = wplan.n_windows
    bounds = wplan.offsets.tolist()
    own_audit.n_windows = n

    parts = []
    for w in range(n):
        span = slice(bounds[w], bounds[w + 1])
        fetched = _prefetch(a, starts, lengths, wplan.rows[span], own_audit)
        tables, tags, vals = _hash_window(wplan, span, fetched, b, cfg, own_audit, w)
        _add_units(own_audit, "writeback", len(tags))
        parts.append((tags, vals))
        if keep_tables:
            own_audit.window_tables.append((w, tables))
    if cfg.version == V3:
        for s in range(n + 2):
            pf, hs, wb = (w if 0 <= w < n else None for w in (s, s - 1, s - 2))
            own_audit.phase_steps.append({"step": s, "prefetch": pf, "hash": hs, "writeback": wb})
    tags = np.concatenate([np.zeros(0, dtype=np.int64)] + [t for t, _ in parts])
    vals = np.concatenate([np.zeros(0)] + [v for _, v in parts])
    return csr_from_tags(a_csr.n_rows, b.n_cols, tags, vals, 32)
