"""Matrix ingestion, generation, and storage-format construction.

Supports Matrix Market coordinate files and SNAP-style edge lists on the
way in, and three internal formats: CSR, CSC, and an aligned parallel CSR
variant ("MAP-CSR") that permits out-of-order row placement, zero padding
to bank boundaries, and row replication.

All indices are 0-based internally; the 1-based Matrix Market convention
is converted at the parse/write boundary. Duplicate COO entries are summed
during normalization. Every type is immutable after construction and all
operations are pure functions of their inputs.
"""

from __future__ import annotations

import io
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, ConfigError, MatrixFormatError, SparsimError

# Sentinel for "row has no replica" in the replica-offset array.
NO_REPLICA = np.uint32(0xFFFFFFFF)

DEFAULT_BANK_WIDTH = 16  # elements per bank line (64 B of index+value pairs)


@dataclass(frozen=True)
class CooMatrix:
    """Coordinate-format matrix, normalized: sorted row-major, no duplicates."""

    n_rows: int
    n_cols: int
    rows: np.ndarray  # int32
    cols: np.ndarray  # int32
    values: np.ndarray  # float64

    @property
    def nnz(self) -> int:
        return len(self.rows)

    def entries(self):
        """Iterate (row, col, value) tuples in storage order."""
        return zip(self.rows.tolist(), self.cols.tolist(), self.values.tolist())


@dataclass(frozen=True)
class CsrMatrix:
    """Compressed sparse row: offsets + column indices + values."""

    n_rows: int
    n_cols: int
    row_offsets: np.ndarray  # int64, length n_rows+1
    col_indices: np.ndarray  # int32
    values: np.ndarray  # float64

    @property
    def nnz(self) -> int:
        return int(self.row_offsets[-1])

    def row(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        lo, hi = int(self.row_offsets[i]), int(self.row_offsets[i + 1])
        return self.col_indices[lo:hi], self.values[lo:hi]


@dataclass(frozen=True)
class CscMatrix:
    """Compressed sparse column: mirror of CSR with column-major storage."""

    n_rows: int
    n_cols: int
    col_offsets: np.ndarray  # int64, length n_cols+1
    row_indices: np.ndarray  # int32
    values: np.ndarray  # float64

    @property
    def nnz(self) -> int:
        return int(self.col_offsets[-1])

    def col(self, j: int) -> tuple[np.ndarray, np.ndarray]:
        lo, hi = int(self.col_offsets[j]), int(self.col_offsets[j + 1])
        return self.row_indices[lo:hi], self.values[lo:hi]


@dataclass(frozen=True)
class MapCsrMatrix:
    """Aligned parallel CSR with optional per-row replicas.

    Five logical arrays: elems_per_row, row_offsets (primary copy),
    replica_offsets (NO_REPLICA when unreplicated), col_indices and values.
    The backing arrays may contain zero padding and replicated rows, and
    rows may be placed in any order. Every row start is aligned to
    ``bank_width`` elements.
    """

    n_rows: int
    n_cols: int
    elems_per_row: np.ndarray  # int32
    row_offsets: np.ndarray  # int64, offset of each row's primary copy
    replica_offsets: np.ndarray  # int64, NO_REPLICA sentinel when absent
    col_indices: np.ndarray  # int32 backing array (with padding/replicas)
    values: np.ndarray  # float64 backing array
    pad_count: int
    replica_nnz: int
    bank_width: int

    @property
    def nnz(self) -> int:
        return int(self.elems_per_row.sum())

    def row(self, i: int, replica: bool = False) -> tuple[np.ndarray, np.ndarray]:
        """Column indices and values of row i (primary or replica copy)."""
        if replica:
            off = int(self.replica_offsets[i])
            if off == int(NO_REPLICA):
                raise ConfigError(f"row {i} has no replica")
        else:
            off = int(self.row_offsets[i])
        n = int(self.elems_per_row[i])
        return self.col_indices[off : off + n], self.values[off : off + n]


@dataclass(frozen=True)
class RmatParams:
    """Recursive-matrix generator parameters.

    ``scale`` is log2 of the (square) dimension, at most 31 because CSR
    indices are int32; ``edge_factor`` the target edges per node. The
    quadrant probabilities (a, b, c, d) must sum to 1.
    """

    scale: int
    edge_factor: int
    a: float = 0.57
    b: float = 0.19
    c: float = 0.19
    d: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.scale < 1:
            raise ConfigError("scale must be >= 1")
        if self.scale > 31:
            raise ConfigError(f"scale must be <= 31 (indices are 32-bit), got {self.scale}")
        if self.edge_factor < 0:
            raise ConfigError("edge_factor must be >= 0")
        if min(self.a, self.b, self.c, self.d) < 0:
            raise ConfigError("quadrant probabilities a, b, c, d must be >= 0")
        if not abs(self.a + self.b + self.c + self.d - 1.0) <= 1e-12:  # also rejects NaN
            raise ConfigError("quadrant probabilities must sum to 1")


def coo_from_entries(n_rows, n_cols, rows, cols, values) -> CooMatrix:
    """Normalize raw triplets: bounds-check, sum duplicates, sort row-major."""
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    values = np.asarray(values, dtype=np.float64)
    if len(rows) != len(cols) or len(rows) != len(values):
        raise ConfigError("triplet arrays must have equal length")
    if len(rows):
        if rows.min() < 0 or rows.max() >= n_rows:
            raise MatrixFormatError("row index out of declared bounds")
        if cols.min() < 0 or cols.max() >= n_cols:
            raise MatrixFormatError("column index out of declared bounds")
    # Sum duplicates by linearizing (row, col) keys.
    key = rows * n_cols + cols
    order = np.argsort(key, kind="stable")
    key = key[order]
    values = values[order]
    uniq, start = np.unique(key, return_index=True)
    summed = np.add.reduceat(values, start) if len(values) else values
    return CooMatrix(
        n_rows=int(n_rows),
        n_cols=int(n_cols),
        rows=(uniq // n_cols).astype(np.int32),
        cols=(uniq % n_cols).astype(np.int32),
        values=np.asarray(summed, dtype=np.float64),
    )


# ---------------------------------------------------------------------------
# Matrix Market I/O
# ---------------------------------------------------------------------------

_MM_FIELDS = {"real", "integer", "pattern"}
_MM_SYMMETRIES = {"general", "symmetric"}


def parse_matrix_market(stream) -> CooMatrix:
    """Parse a Matrix Market coordinate file into a normalized CooMatrix.

    Accepts real, integer, and pattern fields with general or symmetric
    symmetry. Pattern entries get value 1.0. Symmetric matrices are
    expanded to both triangles (diagonal entries not duplicated).
    Raises MatrixFormatError naming the offending line on malformed input.
    """
    if isinstance(stream, (str, bytes)):
        stream = io.StringIO(stream.decode() if isinstance(stream, bytes) else stream)
    lineno = 0
    header = None
    for raw in stream:
        lineno += 1
        if isinstance(raw, bytes):
            raw = raw.decode("ascii", errors="replace")
        header = raw.rstrip("\n")
        break
    if header is None:
        raise MatrixFormatError("empty stream", line=1)
    parts = header.strip().split()
    if len(parts) != 5 or parts[0] != "%%MatrixMarket" or parts[1].lower() != "matrix":
        raise MatrixFormatError(f"malformed header: {header!r}", line=1)
    fmt, fld, sym = (p.lower() for p in parts[2:5])
    if fmt != "coordinate":
        raise MatrixFormatError(f"unsupported format {fmt!r} (need coordinate)", line=1)
    if fld not in _MM_FIELDS:
        raise MatrixFormatError(f"unsupported field {fld!r}", line=1)
    if sym not in _MM_SYMMETRIES:
        raise MatrixFormatError(f"unsupported symmetry {sym!r}", line=1)

    dims = None
    rows, cols, vals = [], [], []
    declared_nnz = 0
    for raw in stream:
        lineno += 1
        if isinstance(raw, bytes):
            raw = raw.decode("ascii", errors="replace")
        line = raw.strip()
        if not line or line.startswith("%"):
            continue
        toks = line.split()
        if dims is None:
            if len(toks) != 3:
                raise MatrixFormatError("size line must be 'rows cols nnz'", line=lineno)
            try:
                dims = (int(toks[0]), int(toks[1]))
                declared_nnz = int(toks[2])
            except ValueError:
                raise MatrixFormatError("non-integer size line", line=lineno) from None
            continue
        want = 2 if fld == "pattern" else 3
        if len(toks) < want:
            raise MatrixFormatError(f"entry needs {want} fields, got {len(toks)}", line=lineno)
        try:
            i = int(toks[0]) - 1
            j = int(toks[1]) - 1
            v = 1.0 if fld == "pattern" else float(toks[2])
        except ValueError:
            raise MatrixFormatError(f"malformed entry {line!r}", line=lineno) from None
        if not (0 <= i < dims[0]) or not (0 <= j < dims[1]):
            raise MatrixFormatError(
                f"index ({i + 1},{j + 1}) out of declared bounds {dims}", line=lineno
            )
        rows.append(i)
        cols.append(j)
        vals.append(v)
        if sym == "symmetric" and i != j:
            rows.append(j)
            cols.append(i)
            vals.append(v)
    if dims is None:
        raise MatrixFormatError("missing size line", line=lineno or 1)
    # declared_nnz is informative only; duplicates may legally collapse.
    del declared_nnz
    return coo_from_entries(dims[0], dims[1], rows, cols, vals)


def write_matrix_market(m: CooMatrix, stream) -> None:
    """Write a normalized CooMatrix as coordinate/real/general.

    Values are written with shortest round-trip decimal representation so a
    write-then-parse cycle reproduces the matrix bit-exactly.
    """
    stream.write("%%MatrixMarket matrix coordinate real general\n")
    stream.write(f"{m.n_rows} {m.n_cols} {m.nnz}\n")
    for i, j, v in m.entries():
        stream.write(f"{i + 1} {j + 1} {v!r}\n")


def load_edge_list(stream) -> CooMatrix:
    """Parse a SNAP-style edge list ('# comments', 'src dst [weight]' lines).

    The matrix dimension is inferred from the id range: ids are treated as
    0-based when the minimum id seen is 0, otherwise as 1-based, matching
    how such datasets are conventionally sized.
    """
    if isinstance(stream, (str, bytes)):
        stream = io.StringIO(stream.decode() if isinstance(stream, bytes) else stream)
    src, dst, val = [], [], []
    lineno = 0
    for raw in stream:
        lineno += 1
        if isinstance(raw, bytes):
            raw = raw.decode("ascii", errors="replace")
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith("%"):
            continue
        toks = line.split()
        if len(toks) < 2:
            raise MatrixFormatError(f"edge needs 2 ids, got {line!r}", line=lineno)
        try:
            src.append(int(toks[0]))
            dst.append(int(toks[1]))
            val.append(float(toks[2]) if len(toks) > 2 else 1.0)
        except ValueError:
            raise MatrixFormatError(f"malformed edge {line!r}", line=lineno) from None
    if not src:
        raise MatrixFormatError("edge list has no edges", line=lineno or 1)
    s = np.asarray(src, dtype=np.int64)
    d = np.asarray(dst, dtype=np.int64)
    min_id = int(min(s.min(), d.min()))
    max_id = int(max(s.max(), d.max()))
    if min_id != 0:
        s = s - 1
        d = d - 1
        max_id -= 1
    n = max_id + 1
    return coo_from_entries(n, n, s, d, val)


def load_matrix(path) -> CooMatrix:
    """Load a matrix from a .mtx Matrix Market file or a SNAP edge list.

    Transparently decompresses ``.gz`` files (the usual dataset shipping
    format)."""
    import gzip

    if str(path).endswith(".gz"):
        text = gzip.open(path, "rt", encoding="ascii", errors="replace")
    else:
        text = open(path, "r", encoding="ascii", errors="replace")
    with text:
        first = text.readline()
        text.seek(0)
        if first.startswith("%%MatrixMarket"):
            return parse_matrix_market(text)
        return load_edge_list(text)


# ---------------------------------------------------------------------------
# Format conversions
# ---------------------------------------------------------------------------


def to_csr(m: CooMatrix) -> CsrMatrix:
    """Convert a normalized COO to CSR (lossless)."""
    offsets = np.zeros(m.n_rows + 1, dtype=np.int64)
    np.add.at(offsets, m.rows.astype(np.int64) + 1, 1)
    np.cumsum(offsets, out=offsets)
    return CsrMatrix(m.n_rows, m.n_cols, offsets, m.cols.copy(), m.values.copy())


def to_csc(m: CooMatrix) -> CscMatrix:
    """Convert a normalized COO to CSC (lossless)."""
    order = np.lexsort((m.rows, m.cols))
    offsets = np.zeros(m.n_cols + 1, dtype=np.int64)
    np.add.at(offsets, m.cols.astype(np.int64) + 1, 1)
    np.cumsum(offsets, out=offsets)
    return CscMatrix(m.n_rows, m.n_cols, offsets, m.rows[order].copy(), m.values[order].copy())


def to_dense(m: CooMatrix) -> np.ndarray:
    """Materialize a COO as a dense float64 array."""
    out = np.zeros((m.n_rows, m.n_cols), dtype=np.float64)
    out[m.rows, m.cols] = m.values
    return out


def csr_to_coo(m: CsrMatrix) -> CooMatrix:
    rows = np.repeat(np.arange(m.n_rows, dtype=np.int32), np.diff(m.row_offsets))
    return CooMatrix(m.n_rows, m.n_cols, rows, m.col_indices.copy(), m.values.copy())


def csr_to_dense(m: CsrMatrix) -> np.ndarray:
    return to_dense(csr_to_coo(m))


def concat_ranges(starts, lengths) -> np.ndarray:
    """The int64 positions ``starts[k] .. starts[k] + lengths[k] - 1`` of
    every range k, ranges in order: one ``arange`` plus one ``repeat`` of
    each range's start less the positions before it, added in place."""
    lengths = np.asarray(lengths, dtype=np.int64)
    before = np.cumsum(lengths)
    total = int(before[-1]) if len(before) else 0
    before -= lengths
    pos = np.arange(total, dtype=np.int64)
    pos += np.repeat(np.asarray(starts, dtype=np.int64) - before, lengths)
    return pos


def group_by_key(keys) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group a stream by key, keeping stream order within each key:
    ``(order, distinct, offsets)``, all int64.

    ``distinct`` holds the stream's distinct keys in ascending order, and
    the stream positions of key ``distinct[g]`` are
    ``order[offsets[g]:offsets[g + 1]]``, ascending (CSR over the keys).

    One ``np.sort`` of ``key << b | position`` as ``uint64`` does this,
    where ``b`` is the bit length of the last position: equal keys come out
    by position, so the grouping is stable at the cost of a plain sort,
    about a fifth of ``argsort(kind="stable")``. Keys must be non-negative
    (ValueError otherwise), and a key wider than ``64 - b`` bits raises
    CapacityError.
    """
    keys = np.asarray(keys)
    n = len(keys)
    b = max(n - 1, 0).bit_length()
    packed = keys.astype(np.uint64)
    if n:
        if keys.min() < 0:
            raise ValueError(f"keys must be non-negative, got {keys.min()}")
        widest = int(packed.max())
        if widest >> (64 - b):
            raise CapacityError(
                f"key {widest} is wider than the {64 - b} bits left beside {n} stream positions"
            )
    packed <<= b
    packed |= np.arange(n, dtype=np.uint64)
    packed.sort()
    order = (packed & np.uint64((1 << b) - 1)).view(np.int64)
    packed >>= b
    sorted_keys = packed.view(np.int64)
    head = np.empty(n + 1, dtype=bool)
    head[0] = head[n] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=head[1:n])
    offsets = np.flatnonzero(head)
    return order, sorted_keys[offsets[:-1]], offsets


def dense_to_csr(a: np.ndarray) -> CsrMatrix:
    """CSR view of a dense array keeping only exact nonzeros."""
    a = np.asarray(a, dtype=np.float64)
    rows, cols = np.nonzero(a)
    return to_csr(
        CooMatrix(a.shape[0], a.shape[1], rows.astype(np.int32), cols.astype(np.int32), a[rows, cols])
    )


def symmetrize(m: CooMatrix) -> CooMatrix:
    """Pattern union of m and its transpose with all values set to 1.0."""
    rows = np.concatenate([m.rows, m.cols])
    cols = np.concatenate([m.cols, m.rows])
    key = rows.astype(np.int64) * m.n_cols + cols
    uniq = np.unique(key)
    return CooMatrix(
        m.n_rows,
        m.n_cols,
        (uniq // m.n_cols).astype(np.int32),
        (uniq % m.n_cols).astype(np.int32),
        np.ones(len(uniq), dtype=np.float64),
    )


def with_integer_values(m: CooMatrix, seed: int) -> CooMatrix:
    """Replace values with deterministic integers in [1, 9]."""
    rng = np.random.Generator(np.random.PCG64(seed))
    vals = rng.integers(1, 10, size=m.nnz).astype(np.float64)
    return CooMatrix(m.n_rows, m.n_cols, m.rows.copy(), m.cols.copy(), vals)


# ---------------------------------------------------------------------------
# MAP-CSR
# ---------------------------------------------------------------------------


def build_map_csr(
    m: CsrMatrix,
    bank_width: int = DEFAULT_BANK_WIDTH,
    replicate_rows=(),
    placement=None,
) -> MapCsrMatrix:
    """Build the aligned 5-array format from a CSR matrix.

    ``replicate_rows`` lists rows to store twice (primary + replica).
    ``placement`` gives the slot order of copies in the backing arrays as a
    sequence of (row, is_replica) pairs; it must cover each row's primary
    copy exactly once and each replicated row's replica exactly once.
    Defaults to primaries in row order followed by replicas in row order.
    """
    if bank_width < 1:
        raise ConfigError("bank_width must be >= 1")
    replicate = set(int(r) for r in replicate_rows)
    for r in replicate:
        if not (0 <= r < m.n_rows):
            raise ConfigError(f"replicated row {r} out of range")
    if placement is None:
        placement = [(r, False) for r in range(m.n_rows)] + [(r, True) for r in sorted(replicate)]
    else:
        placement = [(int(r), bool(rep)) for r, rep in placement]
        need = [(r, False) for r in range(m.n_rows)] + [(r, True) for r in sorted(replicate)]
        if sorted(placement) != sorted(need):
            raise ConfigError("placement is not a permutation of primaries plus replicas")

    elems = np.diff(m.row_offsets).astype(np.int32)
    row_offsets = np.zeros(m.n_rows, dtype=np.int64)
    replica_offsets = np.full(m.n_rows, int(NO_REPLICA), dtype=np.int64)

    total = 0
    slots = []
    for r, is_rep in placement:
        n = int(elems[r])
        start = total
        stride = -(-n // bank_width) * bank_width  # empty rows take no storage
        total += stride
        slots.append((r, is_rep, start, n, stride))

    col_indices = np.zeros(total, dtype=np.int32)
    values = np.zeros(total, dtype=np.float64)
    pad = 0
    replica_nnz = 0
    for r, is_rep, start, n, stride in slots:
        cj, cv = m.row(r)
        col_indices[start : start + n] = cj
        values[start : start + n] = cv
        pad += stride - n
        if is_rep:
            replica_offsets[r] = start
            replica_nnz += n
        else:
            row_offsets[r] = start
    return MapCsrMatrix(
        n_rows=m.n_rows,
        n_cols=m.n_cols,
        elems_per_row=elems,
        row_offsets=row_offsets,
        replica_offsets=replica_offsets,
        col_indices=col_indices,
        values=values,
        pad_count=pad,
        replica_nnz=replica_nnz,
        bank_width=bank_width,
    )


def replication_ratio(m: MapCsrMatrix) -> float:
    """Memory overhead ratio (nnz + replicated nnz + padding zeros) / nnz."""
    nnz = m.nnz
    if nnz == 0:
        raise SparsimError("replication ratio undefined for an empty matrix")
    return (nnz + m.replica_nnz + m.pad_count) / nnz


def map_csr_to_csr(m: MapCsrMatrix) -> CsrMatrix:
    """Collapse back to plain CSR using each row's primary copy."""
    offsets = np.zeros(m.n_rows + 1, dtype=np.int64)
    np.cumsum(m.elems_per_row, out=offsets[1:])
    at = concat_ranges(m.row_offsets, m.elems_per_row)
    return CsrMatrix(m.n_rows, m.n_cols, offsets, m.col_indices[at], m.values[at])


# ---------------------------------------------------------------------------
# RMAT generation
# ---------------------------------------------------------------------------

# Peak bytes generate_rmat allocates per drawn edge. The int64 row and
# column arrays (16 B) stay live to the end, when the int64 unique keys,
# the int64 quotient temporary and the int32/int32/float64 result (at most
# 8 + 8 + 16 B per edge, when no edge repeats) exist beside them. Measured
# with tracemalloc under numpy 2.4: 47.0 B at rmat 14:16, 47.8 B at 18:4
# and 48.0 B at 20:1.
_RMAT_PEAK_BYTES_PER_EDGE = 48


def generate_rmat(p: RmatParams) -> CooMatrix:
    """Generate a power-law matrix by recursive quadrant descent.

    Draws edge_factor * 2**scale edges, descending ``scale`` levels and
    picking a quadrant per level with fixed probabilities (a, b, c, d).
    Structural duplicates are merged (kept once with value 1.0), so the
    result has at most the drawn count of entries. Deterministic for a
    fixed seed. A draw whose peak allocation would exceed the host's
    physical memory is rejected with ConfigError before anything is
    allocated.
    """
    n = 1 << p.scale
    n_edges = p.edge_factor * n
    try:
        physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):  # not a POSIX host: no limit known
        physical = None
    peak = _RMAT_PEAK_BYTES_PER_EDGE * n_edges
    if physical is not None and peak > physical:
        raise ConfigError(
            f"rmat edge_factor {p.edge_factor} at scale {p.scale} draws {n_edges} edges, which "
            f"take up to {peak} bytes to generate; physical memory is {physical} bytes"
        )
    rng = np.random.Generator(np.random.PCG64(p.seed))
    rows = np.zeros(n_edges, dtype=np.int64)
    cols = np.zeros(n_edges, dtype=np.int64)
    # Quadrant choice per level: 0=(0,0) 1=(0,1) 2=(1,0) 3=(1,1)
    probs = np.array([p.a, p.b, p.c, p.d])
    probs = probs / probs.sum()
    for level in range(p.scale):
        q = rng.choice(4, size=n_edges, p=probs)
        bit = 1 << (p.scale - 1 - level)
        rows += bit * (q >= 2)
        cols += bit * (q % 2)
    key = np.unique(rows * n + cols)
    return CooMatrix(
        n,
        n,
        (key // n).astype(np.int32),
        (key % n).astype(np.int32),
        np.ones(len(key), dtype=np.float64),
    )
