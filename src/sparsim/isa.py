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
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import LoweringError, MemoryFaultError, TraceError
from .matio import CscMatrix, CsrMatrix
from .oracle import SymbolicPlan, WindowPlan

OPCODE_MMH4 = 0x14
OPCODE_HACC = 0x1A

TILE = 4  # A-group and B-group width; one MMH4 covers at most TILE*TILE lanes

TRACE_MAGIC = "sparsim-mmh4-trace"
TRACE_VERSION = 1
BINARY_MAGIC = b"SPRS"


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

    def manifest(self) -> dict:
        return {
            name: {"base": base, "dtype": str(data.dtype), "length": int(data.size)}
            for name, (base, data) in sorted(self.segments.items())
        }


@dataclass
class Program:
    """A lowered instruction stream plus the memory image it references."""

    instrs: list
    image: MemoryImage
    layout: TagLayout
    n_rows: int
    n_cols: int
    window_starts: list  # instruction index where each window begins
    total_fma: int
    total_out_nnz: int

    @property
    def n_windows(self) -> int:
        return len(self.window_starts)


def expand_mmh4(instr: Mmh4Instr, image: MemoryImage, layout: TagLayout = LAYOUT_16_16):
    """Functional semantics of one tile: emit one HACC per live lane."""
    a_vals = image.read(instr.base_addr + instr.a_data_addr, instr.n_a, 8)
    b_cols = image.read(instr.base_addr + instr.b_col_ind_addr, instr.n_b, 4)
    b_vals = image.read(instr.base_addr + instr.b_data_addr, instr.n_b, 8)
    counters = image.read(instr.base_addr + instr.roll_counter_addr, TILE * TILE, 4)
    out = []
    col_bits = layout.col_bits
    for i in range(instr.n_a):
        row_part = instr.a_rows[i] << col_bits
        av = float(a_vals[i])
        for j in range(instr.n_b):
            out.append(
                HaccInstr(
                    tag=row_part | int(b_cols[j]),
                    data=av * float(b_vals[j]),
                    counter=int(counters[i * TILE + j]),
                )
            )
    return out


# ---------------------------------------------------------------------------
# Lowering
# ---------------------------------------------------------------------------


def lower_spgemm(
    a: CscMatrix,
    b: CsrMatrix,
    plan: SymbolicPlan,
    layout: TagLayout | None = None,
    windows: WindowPlan | None = None,
) -> Program:
    """Tile C = A * B into MMH4 instructions covering every contributing
    (A element, B element) pair exactly once.

    Instructions are ordered window-major, then by A column, then by
    4-element A group and 4-element B group. The roll-counter table gets
    contributions-1 for every live lane. When ``windows`` is omitted the
    whole matrix forms a single window in natural row order.
    """
    if a.n_cols != b.n_rows:
        raise LoweringError(f"inner dimensions differ: {a.n_cols} vs {b.n_rows}")
    if layout is None:
        layout = default_layout(a.n_rows, b.n_cols)
    if a.n_rows > layout.max_rows or b.n_cols > layout.max_cols:
        raise LoweringError(
            f"{a.n_rows}x{b.n_cols} output does not fit tag layout "
            f"{layout.row_bits}/{layout.col_bits}"
        )

    if windows is None:
        window_rows = [list(range(a.n_rows))]
    else:
        window_rows = [w.rows for w in windows.windows]
    row_window = {}
    for w, rows in enumerate(window_rows):
        for r in rows:
            row_window[r] = w

    # One pass over A in column order, bucketing entries per window while
    # keeping the k-major order inside each bucket.
    per_window: list[list] = [[] for _ in window_rows]
    for k in range(a.n_cols):
        ri, rv = a.col(k)
        for i, v in zip(ri.tolist(), rv.tolist()):
            per_window[row_window[i]].append((k, i, v))

    image = MemoryImage()
    b_col_base = image.add("b_col_ind", b.col_indices.astype(np.int32))
    b_data_base = image.add("b_data", b.values.astype(np.float64))

    a_data = np.empty(a.nnz, dtype=np.float64)
    a_row_of = np.empty(a.nnz, dtype=np.int64)  # output row of each a_data entry
    b_off = b.row_offsets

    # Per instruction: A and B element offsets, output rows, B lanes,
    # window and group. The instructions are built once the a_data and
    # roll_counters segments have their bases.
    fields = []
    window_starts = []
    a_cursor = 0
    group_id = 0
    for w, bucket in enumerate(per_window):
        window_starts.append(len(fields))
        pos = 0
        while pos < len(bucket):
            k = bucket[pos][0]
            end = pos
            while end < len(bucket) and bucket[end][0] == k:
                end += 1
            b_lo, b_hi = int(b_off[k]), int(b_off[k + 1])
            if b_hi == b_lo:
                pos = end
                continue
            for a_start in range(pos, end, TILE):
                a_grp = bucket[a_start : min(a_start + TILE, end)]
                rows = tuple(i for _, i, _ in a_grp)
                a_addr = a_cursor
                for _, i, v in a_grp:
                    a_data[a_cursor] = v
                    a_row_of[a_cursor] = i
                    a_cursor += 1
                for b_start in range(b_lo, b_hi, TILE):
                    fields.append((a_addr, b_start, rows, min(TILE, b_hi - b_start), w, group_id))
                group_id += 1
            pos = end

    roll = _roll_counters(fields, a_row_of, b, plan)
    a_base = image.add("a_data", a_data[:a_cursor])
    roll_base = image.add("roll_counters", roll)
    lane_bytes = TILE * TILE * 4
    instrs = [
        Mmh4Instr(
            base_addr=0,
            a_data_addr=a_base + a_addr * 8,
            b_col_ind_addr=b_col_base + b_start * 4,
            b_data_addr=b_data_base + b_start * 8,
            roll_counter_addr=roll_base + n * lane_bytes,
            a_rows=rows,
            n_a=len(rows),
            n_b=n_b,
            window=w,
            group=group,
        )
        for n, (a_addr, b_start, rows, n_b, w, group) in enumerate(fields)
    ]
    return Program(
        instrs=instrs,
        image=image,
        layout=layout,
        n_rows=a.n_rows,
        n_cols=b.n_cols,
        window_starts=window_starts,
        total_fma=plan.total_fma,
        total_out_nnz=plan.total_out_nnz,
    )


def _roll_counters(fields, a_row_of, b, plan) -> np.ndarray:
    """Roll-counter table: TILE*TILE lanes per instruction, contributions-1
    on each live lane and 0 on the rest.

    ``fields`` holds each instruction's (A element offset, B element
    offset, output rows, B lanes, ...). Each live lane's output element
    (row, column) is found among the plan's elements with one
    ``searchsorted`` over their keys ``row * n_cols + column``, which are
    ascending in the plan's layout.
    """
    n = len(fields)
    lane = np.arange(TILE)
    a_at = np.fromiter((f[0] for f in fields), dtype=np.int64, count=n)
    b_at = np.fromiter((f[1] for f in fields), dtype=np.int64, count=n)
    n_a = np.fromiter((len(f[2]) for f in fields), dtype=np.int64, count=n)
    n_b = np.fromiter((f[3] for f in fields), dtype=np.int64, count=n)
    live_a = lane < n_a[:, None]
    live_b = lane < n_b[:, None]
    rows = a_row_of[np.where(live_a, a_at[:, None] + lane, 0)]
    cols = b.col_indices[np.where(live_b, b_at[:, None] + lane, 0)]
    live = live_a[:, :, None] & live_b[:, None, :]
    lane_keys = (rows[:, :, None] * plan.n_cols + cols[:, None, :])[live]
    plan_keys = np.repeat(np.arange(plan.n_rows, dtype=np.int64), plan.out_nnz_per_row)
    plan_keys *= plan.n_cols
    plan_keys += plan.out_cols
    at = np.searchsorted(plan_keys, lane_keys)
    if len(at) and (not len(plan_keys) or np.any(np.take(plan_keys, at, mode="clip") != lane_keys)):
        raise LoweringError("symbolic plan lacks output elements of this product")
    roll = np.zeros((n, TILE, TILE), dtype=np.int32)
    roll[live] = plan.counts[at] - 1
    return roll.reshape(-1)


# ---------------------------------------------------------------------------
# Functional replay
# ---------------------------------------------------------------------------


def replay(program: Program) -> CsrMatrix:
    """Timing-free interpreter: run every tile, emulate hash lines with
    counters, and assemble the evicted output. Verifies that every line is
    evicted by the end (the counter convention is self-checking)."""
    lines = {}
    evicted = {}
    layout = program.layout
    image = program.image
    for ins in program.instrs:
        for h in expand_mmh4(ins, image, layout):
            cur = lines.get(h.tag)
            if cur is None:
                data, counter = h.data, h.counter
            else:
                data, counter = cur[0] + h.data, cur[1] - 1
            if counter == 0:
                evicted[h.tag] = data
                if cur is not None:
                    del lines[h.tag]
            else:
                lines[h.tag] = (data, counter)
    if lines:
        tag = next(iter(lines))
        raise MemoryFaultError(
            f"{len(lines)} hash lines never evicted (first tag {tag:#x}); "
            "roll counters are inconsistent with the stream"
        )
    rows = {}
    for tag, val in evicted.items():
        i, j = decode_tag(tag, layout)
        rows.setdefault(i, []).append((j, val))
    offsets = np.zeros(program.n_rows + 1, dtype=np.int64)
    cols, vals = [], []
    for i in range(program.n_rows):
        for j, v in sorted(rows.get(i, ())):
            cols.append(j)
            vals.append(v)
        offsets[i + 1] = len(cols)
    return CsrMatrix(
        program.n_rows,
        program.n_cols,
        offsets,
        np.asarray(cols, dtype=np.int32),
        np.asarray(vals, dtype=np.float64),
    )


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
    for ins in program.instrs:
        rows = ",".join(str(r) for r in ins.a_rows)
        stream.write(
            f"{OPCODE_MMH4:#04x} {ins.base_addr:#x} {ins.a_data_addr:#x} "
            f"{ins.b_col_ind_addr:#x} {ins.b_data_addr:#x} {ins.roll_counter_addr:#x} "
            f"{ins.n_a} {ins.n_b} {rows} {ins.window} {ins.group}\n"
        )


def read_trace(stream, image: MemoryImage | None = None) -> Program:
    """Parse a text trace back into a Program (image attached if given)."""
    lines = stream.read().splitlines()
    if not lines or not lines[0].startswith(f"# {TRACE_MAGIC}"):
        raise TraceError("missing trace header")
    version = lines[0].rsplit("v", 1)[-1]
    if version != str(TRACE_VERSION):
        raise TraceError(f"unsupported trace version {version!r}")
    try:
        _, rb, cb = lines[1].split()
        layout = TagLayout(int(rb), int(cb))
        _, n_rows, n_cols = lines[2].split()
        _, total_fma, total_out = lines[3].split()
        win_toks = lines[4].split()[1:]
        window_starts = [int(t) for t in win_toks]
    except (IndexError, ValueError) as err:
        raise TraceError(f"malformed trace preamble: {err}") from None
    instrs = []
    for rec, line in enumerate(lines[5:]):
        if not line.strip():
            continue
        toks = line.split()
        if len(toks) != 11 or int(toks[0], 16) != OPCODE_MMH4:
            raise TraceError(f"corrupted record {rec}: {line!r}")
        try:
            instrs.append(
                Mmh4Instr(
                    base_addr=int(toks[1], 16),
                    a_data_addr=int(toks[2], 16),
                    b_col_ind_addr=int(toks[3], 16),
                    b_data_addr=int(toks[4], 16),
                    roll_counter_addr=int(toks[5], 16),
                    n_a=int(toks[6]),
                    n_b=int(toks[7]),
                    a_rows=tuple(int(r) for r in toks[8].split(",")),
                    window=int(toks[9]),
                    group=int(toks[10]),
                )
            )
        except ValueError:
            raise TraceError(f"corrupted record {rec}: {line!r}") from None
        if instrs[-1].n_a != len(instrs[-1].a_rows):
            raise TraceError(f"corrupted record {rec}: row list length mismatch")
    return Program(
        instrs=instrs,
        image=image if image is not None else MemoryImage(),
        layout=layout,
        n_rows=int(n_rows),
        n_cols=int(n_cols),
        window_starts=window_starts,
        total_fma=int(total_fma),
        total_out_nnz=int(total_out),
    )


_BIN_RECORD = struct.Struct("<BQQQQQBB4III")
_BIN_HEADER = struct.Struct("<HBBIII")
_BIN_COUNTS = struct.Struct("<QQI")


def write_trace_binary(program: Program, stream) -> None:
    """Binary trace mirroring the instruction bit layout (8-bit opcode,
    64-bit address fields), plus the lowering metadata trailer per record."""
    stream.write(BINARY_MAGIC)
    stream.write(_BIN_HEADER.pack(TRACE_VERSION, program.layout.row_bits,
                                  program.layout.col_bits, program.n_rows, program.n_cols,
                                  len(program.instrs)))
    stream.write(_BIN_COUNTS.pack(program.total_fma, program.total_out_nnz,
                                  len(program.window_starts)))
    stream.write(struct.pack(f"<{len(program.window_starts)}I", *program.window_starts))
    for ins in program.instrs:
        rows = list(ins.a_rows) + [0] * (4 - len(ins.a_rows))
        stream.write(
            _BIN_RECORD.pack(
                OPCODE_MMH4, ins.base_addr, ins.a_data_addr, ins.b_col_ind_addr,
                ins.b_data_addr, ins.roll_counter_addr, ins.n_a, ins.n_b,
                *rows, ins.window, ins.group,
            )
        )


def read_trace_binary(stream, image: MemoryImage | None = None) -> Program:
    if stream.read(4) != BINARY_MAGIC:
        raise TraceError("missing binary trace magic")
    try:
        version, rb, cb, n_rows, n_cols, n_instr = _BIN_HEADER.unpack(stream.read(_BIN_HEADER.size))
        if version != TRACE_VERSION:
            raise TraceError(f"unsupported trace version {version}")
        total_fma, total_out, n_win = _BIN_COUNTS.unpack(stream.read(_BIN_COUNTS.size))
        window_starts = list(struct.unpack(f"<{n_win}I", stream.read(4 * n_win)))
        instrs = []
        for rec in range(n_instr):
            raw = stream.read(_BIN_RECORD.size)
            if len(raw) != _BIN_RECORD.size:
                raise TraceError(f"truncated at record {rec}")
            vals = _BIN_RECORD.unpack(raw)
            if vals[0] != OPCODE_MMH4:
                raise TraceError(f"corrupted record {rec}: bad opcode {vals[0]:#x}")
            instrs.append(
                Mmh4Instr(
                    base_addr=vals[1], a_data_addr=vals[2], b_col_ind_addr=vals[3],
                    b_data_addr=vals[4], roll_counter_addr=vals[5],
                    n_a=vals[6], n_b=vals[7], a_rows=tuple(vals[8 : 8 + vals[6]]),
                    window=vals[12], group=vals[13],
                )
            )
    except struct.error as err:
        raise TraceError(f"truncated trace: {err}") from None
    return Program(
        instrs=instrs,
        image=image if image is not None else MemoryImage(),
        layout=TagLayout(rb, cb),
        n_rows=n_rows,
        n_cols=n_cols,
        window_starts=window_starts,
        total_fma=total_fma,
        total_out_nnz=total_out,
    )
