"""Accelerator instruction set: tile-multiply and hash-accumulate.

Two instructions exist. MMH4 multiplies up to 4 values taken from a column
of A (stored CSC) against up to 4 entries of the matching row of B (stored
CSR) and dispatches one HACC per product lane. HACC carries a packed
32-bit output coordinate TAG, the partial product DATA, and a remaining-
contribution COUNTER used for rolling eviction.

Every HACC belonging to one output element carries the same counter value,
total_contributions - 1: whichever arrives first seeds the hash line with
it, each later arrival decrements by one, and the line evicts exactly when
the last contribution lands. This is robust to arbitrary network
reordering. Elements with a single contribution insert with counter 0 and
evict immediately.

Instruction operands are byte addresses into a flat memory image; the
output row coordinates of the A-column group ride along as lowering
metadata (the bit layout itself carries only addresses).

A ``Program`` holds its MMH4 stream as numpy columns, one entry per
instruction. Lowering builds the columns with array operations,
``expand_program`` expands every live lane of the stream at once, and
replay, the cycle engine and the text trace read the columns. An
``Mmh4Instr`` object is built only when ``Program.instrs`` is read.

The text trace of ``write_trace`` and ``read_trace`` is the one trace
format: a program's columns and header, without its memory image, so a
trace replays against the image of the lowering that wrote it.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import LoweringError, MemoryFaultError, TraceError
from .matio import CscMatrix, CsrMatrix, concat_ranges, group_by_key
from .oracle import SymbolicPlan, WindowPlan

OPCODE_MMH4 = 0x14
OPCODE_HACC = 0x1A

TILE = 4  # A-group and B-group width; one MMH4 covers at most TILE*TILE lanes

TRACE_MAGIC = "sparsim-mmh4-trace"
TRACE_VERSION = 1


@dataclass(frozen=True)
class TagLayout:
    """Bit split of the 32-bit tag: output row in the high bits."""

    row_bits: int = 16
    col_bits: int = 16

    def __post_init__(self):
        if self.row_bits + self.col_bits != 32 or self.row_bits < 1 or self.col_bits < 1:
            raise LoweringError(f"invalid tag layout {self.row_bits}/{self.col_bits}")

    @property
    def max_rows(self) -> int:
        return 1 << self.row_bits

    @property
    def max_cols(self) -> int:
        return 1 << self.col_bits


LAYOUT_16_16 = TagLayout(16, 16)
LAYOUT_12_20 = TagLayout(12, 20)


def default_layout(n_rows: int, n_cols: int) -> TagLayout:
    """Pick a layout fitting the problem, preferring the 16/16 split."""
    for layout in (LAYOUT_16_16, LAYOUT_12_20, TagLayout(20, 12)):
        if n_rows <= layout.max_rows and n_cols <= layout.max_cols:
            return layout
    raise LoweringError(
        f"no 32-bit tag layout fits {n_rows}x{n_cols}; reduce the problem or widen the tag"
    )


def encode_tag(i: int, j: int, layout: TagLayout = LAYOUT_16_16) -> int:
    if i >= layout.max_rows or j >= layout.max_cols or i < 0 or j < 0:
        raise LoweringError(
            f"({i},{j}) does not fit tag layout {layout.row_bits}/{layout.col_bits}; "
            "use a wider row or column field"
        )
    return (i << layout.col_bits) | j


def decode_tag(tag: int, layout: TagLayout = LAYOUT_16_16) -> tuple[int, int]:
    return tag >> layout.col_bits, tag & (layout.max_cols - 1)


@dataclass(frozen=True)
class Mmh4Instr:
    """One 4x4 tile multiply. Address fields are absolute byte addresses
    (base_addr is folded in as 0); a_rows/n_a/n_b are lowering metadata."""

    base_addr: int
    a_data_addr: int
    b_col_ind_addr: int
    b_data_addr: int
    roll_counter_addr: int
    a_rows: tuple  # output row per A lane, length n_a
    n_a: int
    n_b: int
    window: int = 0
    group: int = 0  # A-column-group id; the dispatcher keeps a group on one core

    @property
    def lanes(self) -> int:
        return self.n_a * self.n_b


@dataclass(frozen=True)
class HaccInstr:
    tag: int
    data: float
    counter: int


@dataclass
class MemoryImage:
    """Flat byte-addressed image of named typed segments."""

    granule: int = 64
    segments: dict = field(default_factory=dict)
    _next_base: int = 0x1000

    def add(self, name: str, data: np.ndarray) -> int:
        if name in self.segments:
            raise LoweringError(f"duplicate segment {name!r}")
        data = np.ascontiguousarray(data)
        base = self._next_base
        self.segments[name] = (base, data)
        size = data.nbytes
        self._next_base = base + ((size + self.granule - 1) // self.granule) * self.granule
        return base

    def base(self, name: str) -> int:
        return self.segments[name][0]

    def _locate(self, addr: int, nbytes: int):
        for name, (base, data) in self.segments.items():
            if base <= addr and addr + nbytes <= base + data.nbytes:
                off = addr - base
                if off % data.itemsize:
                    raise MemoryFaultError(f"misaligned access at {addr:#x} in {name!r}")
                return data, off // data.itemsize
        raise MemoryFaultError(f"unmapped address {addr:#x} (+{nbytes})")

    def read(self, addr: int, count: int, itemsize: int) -> np.ndarray:
        data, idx = self._locate(addr, count * itemsize)
        if data.itemsize != itemsize:
            raise MemoryFaultError(f"element width mismatch at {addr:#x}")
        return data[idx : idx + count]

    def locate(self, addrs: np.ndarray, nbytes: np.ndarray, itemsize: int):
        """``read`` over arrays of accesses without raising: each access's
        segment (its position in ``segments``), first element index, and
        whether ``read`` would accept it (mapped, aligned, of this width)."""
        seg = np.full(len(addrs), -1, dtype=np.int64)
        idx = np.zeros(len(addrs), dtype=np.int64)
        ok = np.zeros(len(addrs), dtype=bool)
        ends = addrs + nbytes
        for s, (base, data) in enumerate(self.segments.values()):
            hit = (seg < 0) & (addrs >= base) & (ends <= base + data.nbytes)
            seg[hit] = s
            off = addrs[hit] - base
            idx[hit] = off // data.itemsize
            ok[hit] = (off % data.itemsize == 0) & (data.itemsize == itemsize)
        return seg, idx, ok

    def manifest(self) -> dict:
        return {
            name: {"base": base, "dtype": str(data.dtype), "length": int(data.size)}
            for name, (base, data) in sorted(self.segments.items())
        }


# One int64 column per instruction field, in Mmh4Instr (and trace) order.
COLUMNS = (
    "base_addr", "a_data_addr", "b_col_ind_addr", "b_data_addr", "roll_counter_addr",
    "n_a", "n_b", "window", "group",
)


@dataclass(eq=False)
class Program:
    """A lowered MMH4 stream, held as columns, plus the memory image it
    references.

    Instruction n is entry n of every column in ``COLUMNS``: the byte
    addresses ``base_addr``, ``a_data_addr``, ``b_col_ind_addr``,
    ``b_data_addr`` and ``roll_counter_addr``; the live lane counts ``n_a``
    and ``n_b`` (at most TILE each); its ``window`` and A-column ``group``.
    Its output rows are ``a_rows[a_row_offsets[n]:a_row_offsets[n + 1]]``,
    ``n_a`` of them; ``a_row_offsets`` is computed from ``n_a``, which owns
    the split. Every column is int64. ``window_starts`` and the totals are
    stored because the trace header carries them.

    ``instrs`` is a read-only sequence of ``Mmh4Instr`` with Python-int
    fields, built from the columns as it is read; ``from_instrs`` builds
    the columns from such a sequence.
    """

    base_addr: np.ndarray
    a_data_addr: np.ndarray
    b_col_ind_addr: np.ndarray
    b_data_addr: np.ndarray
    roll_counter_addr: np.ndarray
    n_a: np.ndarray
    n_b: np.ndarray
    window: np.ndarray
    group: np.ndarray
    a_rows: np.ndarray  # output row per A lane, instruction by instruction
    image: MemoryImage
    layout: TagLayout
    n_rows: int
    n_cols: int
    window_starts: list  # instruction index where each window begins
    total_fma: int
    total_out_nnz: int

    def __post_init__(self):
        for name in COLUMNS + ("a_rows",):
            setattr(self, name, np.asarray(getattr(self, name), dtype=np.int64))
        n = len(self.n_a)
        if any(getattr(self, c).shape != (n,) for c in COLUMNS):
            raise LoweringError("program columns differ in length")
        if self.a_rows.shape != (self.n_a.sum(),):
            raise LoweringError("a_rows does not hold n_a rows for every instruction")
        if np.any((self.n_a < 0) | (self.n_a > TILE) | (self.n_b < 0) | (self.n_b > TILE)):
            raise LoweringError(f"lane counts outside the {TILE}x{TILE} tile")

    @classmethod
    def from_instrs(cls, instrs, **fields) -> Program:
        """The program of a sequence of ``Mmh4Instr``; ``fields`` gives the
        other fields (image, layout, n_rows, n_cols, window_starts,
        total_fma, total_out_nnz)."""
        instrs = list(instrs)
        if any(len(ins.a_rows) != ins.n_a for ins in instrs):
            raise LoweringError("a_rows does not hold n_a rows for every instruction")
        return cls(
            **{name: [getattr(ins, name) for ins in instrs] for name in COLUMNS},
            a_rows=[r for ins in instrs for r in ins.a_rows],
            **fields,
        )

    @cached_property
    def a_row_offsets(self) -> np.ndarray:
        """Each instruction's first row in ``a_rows``, then the end: int64."""
        return np.concatenate(([0], np.cumsum(self.n_a)))

    @property
    def n_instrs(self) -> int:
        return len(self.n_a)

    @property
    def instrs(self) -> _InstrView:
        return _InstrView(self)

    @property
    def n_windows(self) -> int:
        return len(self.window_starts)

    def operand_reads(self):
        """The four operand reads of every instruction, in the order a tile
        requests them (A values, B columns, B values, roll counters): each is
        (byte address column, element count column, element size)."""
        counters = np.full(self.n_instrs, TILE * TILE, dtype=np.int64)
        return (
            (self.base_addr + self.a_data_addr, self.n_a, 8),
            (self.base_addr + self.b_col_ind_addr, self.n_b, 4),
            (self.base_addr + self.b_data_addr, self.n_b, 8),
            (self.base_addr + self.roll_counter_addr, counters, 4),
        )


class _InstrView(Sequence):
    """Read-only ``Mmh4Instr`` sequence over a program's columns; each
    instruction is built when it is read."""

    __slots__ = ("_program",)
    __hash__ = None

    def __init__(self, program: Program):
        self._program = program

    def __len__(self) -> int:
        return self._program.n_instrs

    def __getitem__(self, n):
        if isinstance(n, slice):
            return [self[k] for k in range(*n.indices(len(self)))]
        n = range(len(self))[n]
        p = self._program
        lo, hi = p.a_row_offsets[n], p.a_row_offsets[n + 1]
        return Mmh4Instr(
            a_rows=tuple(p.a_rows[lo:hi].tolist()),
            **{name: int(getattr(p, name)[n]) for name in COLUMNS},
        )

    def __eq__(self, other):
        if not isinstance(other, Sequence) or isinstance(other, (str, bytes)):
            return NotImplemented
        return len(self) == len(other) and all(x == y for x, y in zip(self, other))


def expand_program(program: Program):
    """Functional semantics of every tile at once: the HACC of each live
    lane, in stream order, as arrays ``(offsets, tags, data, counters)``.
    Instruction n's lanes are ``offsets[n]:offsets[n + 1]``, A lane major;
    ``data`` holds the float64 partial products, the rest are int64.

    Each instruction's four operand reads are checked as
    ``MemoryImage.read`` checks them. When any fails, the first faulting
    instruction in program order is read again with ``read``, which raises
    the error a tile-by-tile walk would have met first.
    """
    image = program.image
    reads = program.operand_reads()
    spans = []
    bad = np.zeros(program.n_instrs, dtype=bool)
    for addrs, counts, itemsize in reads:
        seg, idx, ok = image.locate(addrs, counts * itemsize, itemsize)
        spans.append((seg, idx))
        bad |= ~ok
    if bad.any():
        n = int(np.argmax(bad))
        for addrs, counts, itemsize in reads:
            image.read(int(addrs[n]), int(counts[n]), itemsize)
        raise AssertionError("locate and read disagree")

    datas = [data for _, data in image.segments.values()]
    lane = np.arange(TILE)
    live_a = lane < program.n_a[:, None]
    live_b = lane < program.n_b[:, None]
    all_lanes = np.ones((program.n_instrs, TILE * TILE), dtype=bool)
    a_vals = _gather(datas, spans[0], live_a, np.float64)
    b_cols = _gather(datas, spans[1], live_b, np.int64)
    b_vals = _gather(datas, spans[2], live_b, np.float64)
    counters = _gather(datas, spans[3], all_lanes, np.int64).reshape(-1, TILE, TILE)
    rows = np.zeros(live_a.shape, dtype=np.int64)
    rows[live_a] = program.a_rows  # fills instruction by instruction, lane by lane
    live = live_a[:, :, None] & live_b[:, None, :]
    offsets = np.zeros(program.n_instrs + 1, dtype=np.int64)
    np.cumsum(program.n_a * program.n_b, out=offsets[1:])
    tags = ((rows << program.layout.col_bits)[:, :, None] | b_cols[:, None, :])[live]
    return offsets, tags, (a_vals[:, :, None] * b_vals[:, None, :])[live], counters[live]


def _gather(datas, span, live, dtype) -> np.ndarray:
    """One operand of every instruction as an (n_instrs, width) array:
    lane l reads element ``idx + l`` of the access's segment; 0 where not
    live. Each segment that some access reads fills those accesses' live
    lanes from one clipped ``np.take``; an empty segment has no live lane."""
    seg, idx = span
    out = np.zeros(live.shape, dtype=dtype)
    elem = idx[:, None] + np.arange(live.shape[1])
    for s, data in enumerate(datas):
        here = seg == s
        if len(data) and here.any():
            np.copyto(out, np.take(data, elem, mode="clip"), casting="unsafe",
                      where=live & here[:, None])
    return out


def expand_mmh4(instr: Mmh4Instr, image: MemoryImage, layout: TagLayout = LAYOUT_16_16):
    """Functional semantics of one tile: one HACC per live lane."""
    program = Program.from_instrs(
        [instr], image=image, layout=layout, n_rows=0, n_cols=0, window_starts=[0],
        total_fma=0, total_out_nnz=0,
    )
    _, tags, data, counters = expand_program(program)
    return [HaccInstr(*lane) for lane in zip(tags.tolist(), data.tolist(), counters.tolist())]


# ---------------------------------------------------------------------------
# Lowering
# ---------------------------------------------------------------------------


def lower_spgemm(
    a: CscMatrix,
    b: CsrMatrix,
    plan: SymbolicPlan,
    windows: WindowPlan | None = None,
) -> Program:
    """Tile C = A * B into MMH4 instructions covering every contributing
    (A element, B element) pair exactly once.

    Instructions are ordered window-major, then by A column, then by
    4-element A group and 4-element B group. The roll-counter table gets
    contributions-1 for every live lane. When ``windows`` is omitted the
    whole matrix forms a single window in natural row order.

    A's entries are put in that order by one stable sort of the
    column-ordered entries by window; entries against an empty B row make
    no tile and get no a_data slot. Every (window, column) run splits into
    groups of TILE entries, and each group repeats over its B row's tiles.
    """
    if a.n_cols != b.n_rows:
        raise LoweringError(f"inner dimensions differ: {a.n_cols} vs {b.n_rows}")
    layout = default_layout(a.n_rows, b.n_cols)

    window_of_row = np.zeros(a.n_rows, dtype=np.int64)
    n_windows = 1
    if windows is not None:
        n_windows = windows.n_windows
        outside = (windows.rows < 0) | (windows.rows >= a.n_rows)
        if np.any(outside):
            row = int(windows.rows[np.argmax(outside)])
            raise LoweringError(f"window plan places row {row}, outside A's {a.n_rows} rows")
        window_of_row = windows.window_of_row(a.n_rows)
    entry_window = window_of_row[a.row_indices]
    if np.any(entry_window < 0):
        row = int(a.row_indices[np.argmax(entry_window < 0)])
        raise LoweringError(f"window plan leaves out row {row}")

    # A's entries in (window, column, CSC position) order.
    b_off = np.asarray(b.row_offsets, dtype=np.int64)
    b_len = np.diff(b_off)
    entry_col = np.repeat(np.arange(a.n_cols, dtype=np.int64), np.diff(a.col_offsets))
    kept = np.flatnonzero(b_len[entry_col] > 0)
    order = kept[np.argsort(entry_window[kept], kind="stable")]
    cols = entry_col[order]
    wins = entry_window[order]
    a_row_of = a.row_indices[order].astype(np.int64)  # output row of each a_data entry
    a_data = a.values[order].astype(np.float64)

    # A groups: TILE consecutive entries of one (window, column) run.
    m = len(order)
    run_head = np.ones(m, dtype=bool)
    run_head[1:] = (wins[1:] != wins[:-1]) | (cols[1:] != cols[:-1])
    heads = np.flatnonzero(run_head)
    in_run = concat_ranges(np.zeros_like(heads), np.diff(np.append(heads, m)))
    group_at = np.flatnonzero(in_run % TILE == 0)
    group_n_a = np.diff(np.append(group_at, m))
    group_col = cols[group_at]

    # One instruction per (A group, B tile of the group's column).
    tiles = (b_len[group_col] + TILE - 1) // TILE
    group = np.repeat(np.arange(len(group_at), dtype=np.int64), tiles)
    tile = concat_ranges(np.zeros_like(tiles), tiles)
    b_start = b_off[group_col][group] + TILE * tile
    n_b = np.minimum(TILE, b_off[group_col + 1][group] - b_start)
    a_at = group_at[group]
    n_a = group_n_a[group]
    window = wins[group_at][group]
    a_rows = a_row_of[concat_ranges(a_at, n_a)]

    image = MemoryImage()
    b_col_base = image.add("b_col_ind", b.col_indices.astype(np.int32))
    b_data_base = image.add("b_data", b.values.astype(np.float64))
    roll = _roll_counters(a_at, b_start, n_a, n_b, a_row_of, b, plan)
    a_base = image.add("a_data", a_data)
    roll_base = image.add("roll_counters", roll)
    return Program(
        base_addr=np.zeros(len(group), dtype=np.int64),
        a_data_addr=a_base + a_at * 8,
        b_col_ind_addr=b_col_base + b_start * 4,
        b_data_addr=b_data_base + b_start * 8,
        roll_counter_addr=roll_base + np.arange(len(group), dtype=np.int64) * (TILE * TILE * 4),
        n_a=n_a,
        n_b=n_b,
        window=window,
        group=group,
        a_rows=a_rows,
        image=image,
        layout=layout,
        n_rows=a.n_rows,
        n_cols=b.n_cols,
        window_starts=np.searchsorted(window, np.arange(n_windows)).tolist(),
        total_fma=plan.total_fma,
        total_out_nnz=plan.total_out_nnz,
    )


def _roll_counters(a_at, b_at, n_a, n_b, a_row_of, b, plan) -> np.ndarray:
    """Roll-counter table: TILE*TILE lanes per instruction, contributions-1
    on each live lane and 0 on the rest.

    Each instruction reads A elements ``a_at:a_at + n_a`` and B elements
    ``b_at:b_at + n_b``. The live lanes are grouped by their output
    element's key ``row * n_cols + column`` (``matio.group_by_key``); the
    distinct keys must be the plan's elements, which ascend by key in the
    plan's layout, so run g is plan element g and each of its lanes gets
    ``plan.counts[g] - 1``. A product whose elements are not exactly the
    plan's raises LoweringError.
    """
    lane = np.arange(TILE)
    live_a = lane < n_a[:, None]
    live_b = lane < n_b[:, None]
    rows = a_row_of[np.where(live_a, a_at[:, None] + lane, 0)]
    cols = b.col_indices[np.where(live_b, b_at[:, None] + lane, 0)]
    live = live_a[:, :, None] & live_b[:, None, :]
    lane_keys = (rows[:, :, None] * plan.n_cols + cols[:, None, :])[live]
    order, keys, offsets = group_by_key(lane_keys)
    plan_keys = plan.element_rows()
    plan_keys *= plan.n_cols
    plan_keys += plan.out_cols
    if not np.array_equal(keys, plan_keys):
        raise LoweringError("this product's output elements are not the symbolic plan's")
    lane_roll = np.empty(len(order), dtype=np.int32)
    lane_roll[order] = np.repeat(plan.counts - 1, np.diff(offsets))
    roll = np.zeros((len(n_a), TILE, TILE), dtype=np.int32)
    roll[live] = lane_roll
    return roll.reshape(-1)


# ---------------------------------------------------------------------------
# Functional replay
# ---------------------------------------------------------------------------


def replay(program: Program) -> CsrMatrix:
    """Timing-free interpreter: run every tile, emulate hash lines with
    counters, and assemble the evicted output.

    Lines behave as in a hash engine that receives every HACC in stream
    order. A tag's first arrival opens its line with the arrival's own
    counter; each later arrival adds its product and decrements the
    counter, and the line evicts when the counter reaches 0 (at once for an
    opening counter of 0). An arrival after an eviction opens the line
    again, and the tag's last eviction is its output value. A line still
    open at the end raises ``MemoryFaultError``, naming the open line that
    opened first: the counter convention is self-checking. So does a lane
    whose tag names a row outside the product.

    The lanes are grouped by tag with ``matio.group_by_key``, so each tag's
    lanes stay in stream order and the tags come out ascending, which is
    the output's CSR order. A tag whose opening counter is its lane count
    minus one, as lowering emits, has a single line over all its lanes;
    only other tags are walked line by line. Each tag's value is -0.0 plus
    every product from its last opening on, in stream order, by one
    ``np.add.at``: ``add.at`` adds repeated indices one at a time in index
    order, so every float sum is the left-to-right sum bit for bit, and
    ``-0.0 + p`` is ``p``. ``np.add.reduceat`` or a pairwise sum would round
    differently.
    """
    instr_offsets, stream_tags, data, counters = expand_program(program)
    col_bits = program.layout.col_bits
    rows = stream_tags >> col_bits
    outside = (rows < 0) | (rows >= program.n_rows)
    if outside.any():
        lane = int(np.argmax(outside))
        instr = int(np.count_nonzero(instr_offsets[1:] <= lane))
        raise MemoryFaultError(
            f"lane {lane} (instruction {instr}) writes row {rows[lane]}, "
            f"outside the product's {program.n_rows} rows"
        )
    del rows, outside
    order, tags, offsets = group_by_key(stream_tags)
    counters = counters[order]
    starts = offsets[:-1]
    sizes = np.diff(offsets)

    # The output element of each grouped lane; lanes of lines that a later
    # opening of the same tag replaced go to one extra element, dropped.
    element = np.repeat(np.arange(len(tags)), sizes)
    never = []  # stream position of each line that never evicts
    for g in np.flatnonzero(counters[starts] != sizes - 1).tolist():
        at = opened = int(starts[g])
        end = int(offsets[g + 1])
        while True:
            counter = int(counters[at])
            if counter < 0 or at + counter >= end:
                never.append(int(order[at]))
                break
            opened = at
            at += counter + 1
            if at == end:
                break
        element[starts[g] : opened] = len(tags)
    if never:
        tag = int(stream_tags[min(never)])
        raise MemoryFaultError(
            f"{len(never)} hash lines never evicted (first tag {tag:#x}); "
            "roll counters are inconsistent with the stream"
        )

    sums = np.full(len(tags) + 1, -0.0)
    np.add.at(sums, element, data[order])
    row_offsets = np.zeros(program.n_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(tags >> col_bits, minlength=program.n_rows), out=row_offsets[1:])
    cols = (tags & ((1 << col_bits) - 1)).astype(np.int32)
    return CsrMatrix(program.n_rows, program.n_cols, row_offsets, cols, sums[:-1])


# ---------------------------------------------------------------------------
# Trace I/O
# ---------------------------------------------------------------------------


def write_trace(program: Program, stream) -> None:
    """Text trace: versioned header, one whitespace-separated record per
    instruction, addresses in hex."""
    stream.write(f"# {TRACE_MAGIC} v{TRACE_VERSION}\n")
    stream.write(f"layout {program.layout.row_bits} {program.layout.col_bits}\n")
    stream.write(f"shape {program.n_rows} {program.n_cols}\n")
    stream.write(f"counts {program.total_fma} {program.total_out_nnz}\n")
    stream.write("windows " + " ".join(str(s) for s in program.window_starts) + "\n")
    rows = program.a_rows.tolist()
    offsets = program.a_row_offsets.tolist()
    columns = zip(*(getattr(program, name).tolist() for name in COLUMNS))
    for n, (base, a_data, b_col, b_data, roll, n_a, n_b, window, group) in enumerate(columns):
        row_list = ",".join(str(r) for r in rows[offsets[n] : offsets[n + 1]])
        stream.write(
            f"{OPCODE_MMH4:#04x} {base:#x} {a_data:#x} {b_col:#x} {b_data:#x} {roll:#x} "
            f"{n_a} {n_b} {row_list} {window} {group}\n"
        )


_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1


def read_trace(stream, image: MemoryImage | None = None) -> Program:
    """Parse a text trace back into a Program (image attached if given)."""
    try:
        lines = stream.read().splitlines()
    except UnicodeDecodeError as err:
        raise TraceError(f"not a text trace: {err}") from None
    if not lines or not lines[0].startswith(f"# {TRACE_MAGIC}"):
        raise TraceError("missing trace header")
    version = lines[0].rsplit("v", 1)[-1]
    if version != str(TRACE_VERSION):
        raise TraceError(f"unsupported trace version {version!r}")
    preamble = [line.split() for line in lines[1:5]]
    for n, label in enumerate(("layout", "shape", "counts", "windows")):
        if n >= len(preamble) or preamble[n][:1] != [label]:
            raise TraceError(f"malformed trace preamble: line {n + 2} is not the {label!r} line")
    try:
        (_, *bits), (_, *shape), (_, *counts), (_, *starts) = preamble
        row_bits, col_bits = map(int, bits)
        layout = TagLayout(row_bits, col_bits)
        n_rows, n_cols = map(int, shape)
        total_fma, total_out = map(int, counts)
        window_starts = [int(t) for t in starts]
    except (ValueError, LoweringError) as err:
        raise TraceError(f"malformed trace preamble: {err}") from None
    records = []
    rows = []
    for rec, line in enumerate(lines[5:]):
        if not line.strip():
            continue
        toks = line.split()
        try:
            if len(toks) != 11 or int(toks[0], 16) != OPCODE_MMH4:
                raise ValueError
            values = [int(t, 16) for t in toks[1:6]] + [int(t) for t in toks[6:8] + toks[9:11]]
            a_rows = [int(r) for r in toks[8].split(",")]
        except ValueError:
            raise TraceError(f"corrupted record {rec}: {line!r}") from None
        if values[5] != len(a_rows):
            raise TraceError(f"corrupted record {rec}: row list length mismatch")
        n_a, n_b = values[5:7]
        if not (0 <= n_a <= TILE and 0 <= n_b <= TILE):
            raise TraceError(f"corrupted record {rec}: {n_a}x{n_b} lanes exceed the {TILE}x{TILE} tile")
        if min(values + a_rows) < _INT64_MIN or max(values + a_rows) > _INT64_MAX:
            raise TraceError(f"corrupted record {rec}: a field exceeds 64 signed bits")
        # Operand reads add base to each address in int64 (Program.operand_reads).
        if any(not _INT64_MIN <= values[0] + addr <= _INT64_MAX for addr in values[1:5]):
            raise TraceError(f"corrupted record {rec}: base plus an operand address exceeds 64 signed bits")
        records.append(values)
        rows.extend(a_rows)
    table = np.array(records, dtype=np.int64).reshape(-1, len(COLUMNS))
    return Program(
        **{name: table[:, c] for c, name in enumerate(COLUMNS)},
        a_rows=rows,
        image=image if image is not None else MemoryImage(),
        layout=layout,
        n_rows=n_rows,
        n_cols=n_cols,
        window_starts=window_starts,
        total_fma=total_fma,
        total_out_nnz=total_out,
    )

