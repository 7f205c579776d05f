"""Tag packing, tile expansion, lowering conservation, replay, trace I/O."""

import dataclasses
import hashlib
import io

import numpy as np
import pytest

from sparsim import isa, matio, oracle
from sparsim.errors import LoweringError, MemoryFaultError, TraceError


def contrib_counter(plan):
    """The plan's contribution counts as {(i, j): count}."""
    rows = np.repeat(np.arange(plan.n_rows), np.diff(plan.out_offsets))
    return dict(zip(zip(rows.tolist(), plan.out_cols.tolist()), plan.counts.tolist()))


def rmat_csr(scale, ef, seed):
    coo = matio.generate_rmat(matio.RmatParams(scale=scale, edge_factor=ef, seed=seed))
    coo = matio.with_integer_values(coo, seed=seed + 1)
    return matio.to_csr(coo)


def lower(a_csr, b_csr, windows=None):
    plan = oracle.symbolic_pass(a_csr, b_csr)
    a_csc = matio.to_csc(matio.csr_to_coo(a_csr))
    return plan, isa.lower_spgemm(a_csc, b_csr, plan, windows=windows)


# ---------------------------------------------------------------------------
# Tags
# ---------------------------------------------------------------------------


def test_tag_bit_concatenation():
    assert isa.encode_tag(0xABCD, 0x1234) == 0xABCD1234
    assert isa.encode_tag(0, 0) == 0


def test_tag_round_trip_property():
    rng = np.random.Generator(np.random.PCG64(1))
    for layout in (isa.LAYOUT_16_16, isa.LAYOUT_12_20):
        i = rng.integers(0, layout.max_rows, size=100_000)
        j = rng.integers(0, layout.max_cols, size=100_000)
        tags = (i << layout.col_bits) | j
        # vectorized equivalent of encode, then scalar-decode a sample
        back_i = tags >> layout.col_bits
        back_j = tags & (layout.max_cols - 1)
        assert np.array_equal(back_i, i) and np.array_equal(back_j, j)
        for idx in range(0, 100_000, 9973):
            t = isa.encode_tag(int(i[idx]), int(j[idx]), layout)
            assert isa.decode_tag(t, layout) == (int(i[idx]), int(j[idx]))


def test_tag_overflow_suggests_wider_layout():
    with pytest.raises(LoweringError) as err:
        isa.encode_tag(1 << 16, 0, isa.LAYOUT_16_16)
    assert "wider" in str(err.value)


def test_default_layout_selection():
    assert isa.default_layout(100, 100) == isa.LAYOUT_16_16
    assert isa.default_layout(1 << 10, 1 << 18) == isa.LAYOUT_12_20
    with pytest.raises(LoweringError):
        isa.default_layout(1 << 20, 1 << 20)


# ---------------------------------------------------------------------------
# Expansion
# ---------------------------------------------------------------------------


def make_tile_program(a_vals, b_cols, b_vals, counters, a_rows):
    image = isa.MemoryImage()
    a_base = image.add("a_data", np.asarray(a_vals, dtype=np.float64))
    c_base = image.add("b_col_ind", np.asarray(b_cols, dtype=np.int32))
    d_base = image.add("b_data", np.asarray(b_vals, dtype=np.float64))
    r_base = image.add("roll_counters", np.asarray(counters, dtype=np.int32))
    ins = isa.Mmh4Instr(
        base_addr=0,
        a_data_addr=a_base,
        b_col_ind_addr=c_base,
        b_data_addr=d_base,
        roll_counter_addr=r_base,
        a_rows=tuple(a_rows),
        n_a=len(a_rows),
        n_b=len(b_cols),
    )
    return ins, image


def test_expand_full_tile():
    ins, image = make_tile_program(
        [1, 2, 3, 4], [0, 1, 2, 3], [1, 1, 1, 1], list(range(16)), [0, 1, 2, 3]
    )
    haccs = isa.expand_mmh4(ins, image)
    assert len(haccs) == 16
    assert [h.data for h in haccs] == [1.0] * 4 + [2.0] * 4 + [3.0] * 4 + [4.0] * 4
    assert [h.counter for h in haccs] == list(range(16))
    assert haccs[5].tag == isa.encode_tag(1, 1)


def test_expand_ragged_tile():
    ins, image = make_tile_program([1, 2], [5, 6, 7], [1, 1, 1], [0] * 16, [3, 9])
    haccs = isa.expand_mmh4(ins, image)
    assert len(haccs) == 6
    assert haccs[0].tag == isa.encode_tag(3, 5)
    assert haccs[-1].tag == isa.encode_tag(9, 7)


def test_expand_unmapped_address_faults():
    ins, image = make_tile_program([1], [0], [1], [0] * 16, [0])
    bad = isa.Mmh4Instr(
        base_addr=0,
        a_data_addr=0xDEADBEEF,
        b_col_ind_addr=ins.b_col_ind_addr,
        b_data_addr=ins.b_data_addr,
        roll_counter_addr=ins.roll_counter_addr,
        a_rows=(0,),
        n_a=1,
        n_b=1,
    )
    with pytest.raises(MemoryFaultError):
        isa.expand_mmh4(bad, image)


def test_program_rows_follow_n_a():
    ins, image = make_tile_program([1, 2], [0], [1], [0] * 16, [0, 1])
    fields = dict(image=image, layout=isa.LAYOUT_16_16, n_rows=2, n_cols=1, window_starts=[0],
                  total_fma=3, total_out_nnz=2)
    prog = isa.Program.from_instrs([ins, dataclasses.replace(ins, a_rows=(1,), n_a=1)], **fields)
    assert prog.a_row_offsets.tolist() == [0, 2, 3]
    assert [i.a_rows for i in prog.instrs] == [(0, 1), (1,)]
    # n_a sums to the three rows, but the first instruction holds two rows for n_a = 1
    swapped = [dataclasses.replace(ins, n_a=1), dataclasses.replace(ins, a_rows=(1,))]
    with pytest.raises(LoweringError, match="a_rows does not hold n_a rows"):
        isa.Program.from_instrs(swapped, **fields)


# ---------------------------------------------------------------------------
# Lowering
# ---------------------------------------------------------------------------


def test_lower_identity_replays_to_identity():
    eye = matio.to_csr(matio.coo_from_entries(4, 4, range(4), range(4), [1.0] * 4))
    _, prog = lower(eye, eye)
    assert len(prog.instrs) == 4  # one tile per diagonal element group pair
    out = isa.replay(prog)
    assert np.array_equal(matio.csr_to_dense(out), np.eye(4))


def test_lower_dense_two_by_two_counts():
    ones = matio.to_csr(matio.coo_from_entries(2, 2, [0, 0, 1, 1], [0, 1, 0, 1], [1.0] * 4))
    plan, prog = lower(ones, ones)
    haccs = [h for ins in prog.instrs for h in isa.expand_mmh4(ins, prog.image, prog.layout)]
    assert len(haccs) == 8  # 8 FMAs covered
    per_elem = {}
    for h in haccs:
        per_elem[h.tag] = per_elem.get(h.tag, 0) + 1
    assert all(c == 2 for c in per_elem.values())
    assert len(per_elem) == 4


def test_hacc_conservation_matches_plan():
    for seed in range(4):
        a = rmat_csr(5, 3, seed=seed)
        plan, prog = lower(a, a)
        counts = {}
        for ins in prog.instrs:
            for h in isa.expand_mmh4(ins, prog.image, prog.layout):
                counts[isa.decode_tag(h.tag, prog.layout)] = (
                    counts.get(isa.decode_tag(h.tag, prog.layout), 0) + 1
                )
        assert sum(counts.values()) == plan.total_fma
        assert counts == contrib_counter(plan)
        assert all(ins.lanes <= 16 for ins in prog.instrs)


def test_replay_equals_gustavson_exact_integer():
    for seed in range(6):
        a = rmat_csr(6, 4, seed=seed + 10)
        b = rmat_csr(6, 4, seed=seed + 40)
        _, prog = lower(a, b)
        got = isa.replay(prog)
        want = oracle.spgemm_gustavson(a, b)
        assert np.array_equal(got.row_offsets, want.row_offsets)
        assert np.array_equal(got.col_indices, want.col_indices)
        assert np.array_equal(got.values, want.values)


def test_lower_rejects_plan_of_other_operands():
    ones = matio.to_csr(matio.coo_from_entries(2, 2, [0, 0, 1, 1], [0, 1, 0, 1], [1.0] * 4))
    eye = matio.to_csr(matio.coo_from_entries(2, 2, [0, 1], [0, 1], [1.0, 1.0]))
    empty = matio.to_csr(matio.coo_from_entries(2, 2, [], [], []))
    a_csc = matio.to_csc(matio.csr_to_coo(ones))
    for plan in (oracle.symbolic_pass(eye, eye), oracle.symbolic_pass(empty, empty)):
        with pytest.raises(LoweringError):
            isa.lower_spgemm(a_csc, ones, plan)
    # The window plan of a larger product places rows A does not have.
    small, big = rmat_csr(5, 2, seed=1), rmat_csr(6, 2, seed=1)
    windows = oracle.plan_windows(oracle.symbolic_pass(big, big), 1 << 14)
    with pytest.raises(LoweringError, match="row 32, outside A's 32 rows"):
        isa.lower_spgemm(matio.to_csc(matio.csr_to_coo(small)), small,
                         oracle.symbolic_pass(small, small), windows=windows)


def test_lower_with_windows_orders_by_window():
    a = rmat_csr(5, 3, seed=77)
    plan = oracle.symbolic_pass(a, a)
    wp = oracle.plan_windows(plan, spad_budget=256)
    a_csc = matio.to_csc(matio.csr_to_coo(a))
    prog = isa.lower_spgemm(a_csc, a, plan, windows=wp)
    assert prog.n_windows == wp.n_windows
    assert prog.window_starts[0] == 0
    windows_seen = [ins.window for ins in prog.instrs]
    assert windows_seen == sorted(windows_seen)
    out = isa.replay(prog)
    want = oracle.spgemm_gustavson(a, a)
    assert np.array_equal(out.values, want.values)


# ---------------------------------------------------------------------------
# Replay against a per-HACC reference interpreter
# ---------------------------------------------------------------------------


def reference_expand(ins, image, layout):
    """One tile's HACCs as (tag, product, counter), one lane at a time."""
    a_vals = image.read(ins.base_addr + ins.a_data_addr, ins.n_a, 8)
    b_cols = image.read(ins.base_addr + ins.b_col_ind_addr, ins.n_b, 4)
    b_vals = image.read(ins.base_addr + ins.b_data_addr, ins.n_b, 8)
    counters = image.read(ins.base_addr + ins.roll_counter_addr, isa.TILE * isa.TILE, 4)
    out = []
    for i in range(ins.n_a):
        row_part = ins.a_rows[i] << layout.col_bits
        av = float(a_vals[i])
        for j in range(ins.n_b):
            out.append((row_part | int(b_cols[j]), av * float(b_vals[j]),
                        int(counters[i * isa.TILE + j])))
    return out


def reference_replay(program):
    """Replay one HACC at a time through a dict of hash lines."""
    lines = {}
    evicted = {}
    layout = program.layout
    for ins in program.instrs:
        for tag, data, counter in reference_expand(ins, program.image, layout):
            cur = lines.get(tag)
            if cur is not None:
                data, counter = cur[0] + data, cur[1] - 1
            if counter == 0:
                evicted[tag] = data
                if cur is not None:
                    del lines[tag]
            else:
                lines[tag] = (data, counter)
    if lines:
        tag = next(iter(lines))
        raise MemoryFaultError(
            f"{len(lines)} hash lines never evicted (first tag {tag:#x}); "
            "roll counters are inconsistent with the stream"
        )
    rows = {}
    for tag, val in evicted.items():
        i, j = isa.decode_tag(tag, layout)
        rows.setdefault(i, []).append((j, val))
    offsets = np.zeros(program.n_rows + 1, dtype=np.int64)
    cols, vals = [], []
    for i in range(program.n_rows):
        for j, v in sorted(rows.get(i, ())):
            cols.append(j)
            vals.append(v)
        offsets[i + 1] = len(cols)
    return matio.CsrMatrix(program.n_rows, program.n_cols, offsets,
                           np.asarray(cols, dtype=np.int32), np.asarray(vals, dtype=np.float64))


def assert_replay_matches_reference(prog):
    """replay and the reference give the same bits, or the same fault text.
    Returns the reference's fault text, or None."""
    try:
        want = reference_replay(prog)
    except MemoryFaultError as err:
        with pytest.raises(MemoryFaultError) as got:
            isa.replay(prog)
        assert str(got.value) == str(err)
        return str(err)
    got = isa.replay(prog)
    assert np.array_equal(got.row_offsets, want.row_offsets)
    assert got.col_indices.tobytes() == want.col_indices.tobytes()
    assert got.values.tobytes() == want.values.tobytes()
    return None


def float_csr(scale, ef, seed):
    """rmat structure with normally distributed values, so sums round."""
    coo = matio.generate_rmat(matio.RmatParams(scale=scale, edge_factor=ef, seed=seed))
    rng = np.random.Generator(np.random.PCG64(seed + 7))
    values = rng.standard_normal(len(coo.values)) * 10.0 ** rng.integers(-3, 4, len(coo.values))
    return matio.to_csr(matio.CooMatrix(coo.n_rows, coo.n_cols, coo.rows, coo.cols, values))


def roll_counters(prog):
    return prog.image.segments["roll_counters"][1]


@pytest.mark.parametrize("budget", [None, 2048])
@pytest.mark.parametrize("seed", [1, 2])
def test_replay_float_bits_match_reference(seed, budget):
    a = float_csr(8, 8, seed)
    plan = oracle.symbolic_pass(a, a)
    wp = None if budget is None else oracle.plan_windows(plan, spad_budget=budget)
    prog = isa.lower_spgemm(matio.to_csc(matio.csr_to_coo(a)), a, plan, windows=wp)
    assert budget is None or prog.n_windows > 1
    assert plan.counts.max() >= 3  # some sums depend on their order
    assert assert_replay_matches_reference(prog) is None


def test_replay_counters_raised_never_evict():
    a = float_csr(6, 4, 3)
    plan, prog = lower(a, a)
    roll_counters(prog)[:] += 1
    text = assert_replay_matches_reference(prog)
    assert text.startswith(f"{plan.total_out_nnz} hash lines never evicted")
    # Raised on some instructions only: the lines those open stay open.
    _, prog = lower(a, a)
    roll_counters(prog).reshape(-1, isa.TILE * isa.TILE)[::7] += 1
    assert "never evicted" in assert_replay_matches_reference(prog)


def test_replay_counters_lowered_evict_early_and_reopen():
    a = float_csr(6, 4, 4)
    _, prog = lower(a, a)
    # Counter 0 on every lane: each HACC opens a line and evicts it at
    # once, and the element's last product wins.
    roll_counters(prog)[:] = 0
    assert assert_replay_matches_reference(prog) is None
    out = isa.replay(prog)
    want = oracle.spgemm_gustavson(a, a)
    assert np.array_equal(out.col_indices, want.col_indices)
    assert not np.array_equal(out.values, want.values)
    # Each element's lanes split at random into lines that close: a line's
    # opening counter is its length - 1, and the counters of later lanes,
    # which only decrement, are set to noise.
    slots = {}  # tag -> its roll-counter slots in stream order
    for n, ins in enumerate(prog.instrs):
        lanes = reference_expand(ins, prog.image, prog.layout)
        at = [n * 16 + i * isa.TILE + j for i in range(ins.n_a) for j in range(ins.n_b)]
        for (tag, _, _), slot in zip(lanes, at):
            slots.setdefault(tag, []).append(slot)
    rng = np.random.Generator(np.random.PCG64(5))
    for trial in range(4):
        _, prog = lower(a, a)
        counters = roll_counters(prog)
        for tag_slots in slots.values():
            at = 0
            while at < len(tag_slots):
                size = int(rng.integers(1, len(tag_slots) - at + 1))
                counters[tag_slots[at + 1 : at + size]] = rng.integers(-1, 5, size - 1)
                counters[tag_slots[at]] = size - 1
                at += size
        assert assert_replay_matches_reference(prog) is None
    # Noise on a few lanes leaves lines open; the fault texts agree.
    for trial in range(4):
        _, prog = lower(a, a)
        counters = roll_counters(prog)
        hit = rng.random(len(counters)) < 0.005
        counters[hit] = rng.integers(-1, 4, int(hit.sum()))
        assert "never evicted" in assert_replay_matches_reference(prog)


def test_replay_memory_faults_match_reference():
    a = rmat_csr(5, 3, seed=8)
    cases = {
        "unmapped": lambda p: p.a_data_addr.__setitem__(3, 0xDEADBEE0),
        "misaligned": lambda p: p.b_col_ind_addr.__setitem__(3, p.b_col_ind_addr[3] + 2),
        "width": lambda p: p.b_col_ind_addr.__setitem__(3, p.image.base("b_data")),
        "counters-unmapped": lambda p: p.roll_counter_addr.__setitem__(3, 0x10),
        # Two faults: the first in program order, then in read order, wins.
        "first-instruction": lambda p: (p.b_data_addr.__setitem__(9, 0x10),
                                        p.roll_counter_addr.__setitem__(5, p.image.base("a_data"))),
        "first-read": lambda p: (p.roll_counter_addr.__setitem__(5, 0x10),
                                 p.b_data_addr.__setitem__(5, p.b_data_addr[5] + 4)),
    }
    texts = {}
    for name, corrupt in cases.items():
        _, prog = lower(a, a)
        corrupt(prog)
        texts[name] = assert_replay_matches_reference(prog)
    assert texts["unmapped"].startswith("unmapped address 0xdeadbee0")
    assert texts["misaligned"].startswith("misaligned access")
    assert texts["width"].startswith("element width mismatch")
    assert texts["first-instruction"].startswith("element width mismatch")
    assert texts["first-read"].startswith("misaligned access")


PINNED_LOWERINGS = [
    # (id, (scale, edge_factor, seed of A, seed of B), spad_budget or None for
    #  one window, sha256 of the a_data and roll_counters segments and every
    #  instruction's fields)
    ("rmat6-two-seeds", (6, 4, 5, 6), None,
     "ccb0969131ae1954f68e528e0f3c5916d4cf200fa6f26285dc0cb4efd003e7a0"),
    ("rmat6-two-seeds-windows", (6, 4, 5, 6), 512,
     "90ca15fd6d3ea1d74063a458ad9ff5171e667532aa9aea8baade4c1d91e3bd82"),
    ("rmat7-square", (7, 6, 2, 2), None,
     "6ceed014aad2c5af843132770f8c619d45c9ce523b78f593071f67e0baa3ae51"),
    ("rmat7-square-windows", (7, 6, 2, 2), 1024,
     "690aa0db6b9ef439b3718c14f3c9977448424d5231d63be80c156702a87ba791"),
    ("rmat8-two-seeds", (8, 4, 11, 12), None,
     "b2ff302ee3e082bc58c8be4eaf561d31eff47f7de93e549b0c26166ca9c7978f"),
    ("rmat8-two-seeds-windows", (8, 4, 11, 12), 2048,
     "ca5fa6553029ece61de749df6cfed3266768b2817b6721a852c5a06ed24856a6"),
]


def lowering_digest(prog):
    h = hashlib.sha256()
    for name in ("a_data", "roll_counters"):
        base, data = prog.image.segments[name]
        h.update(f"{name} {base:#x} {data.dtype} {data.size}\n".encode())
        h.update(data.tobytes())
    for ins in prog.instrs:
        h.update((repr(dataclasses.astuple(ins)) + "\n").encode())
    h.update(repr((prog.window_starts, prog.total_fma, prog.total_out_nnz)).encode())
    return h.hexdigest()


@pytest.mark.parametrize(
    "rmat,budget,want", [pytest.param(*c[1:], id=c[0]) for c in PINNED_LOWERINGS]
)
def test_pinned_lowering_digests(rmat, budget, want):
    scale, ef, seed_a, seed_b = rmat
    a = rmat_csr(scale, ef, seed_a)
    b = a if seed_b == seed_a else rmat_csr(scale, ef, seed_b)
    plan = oracle.symbolic_pass(a, b)
    wp = None if budget is None else oracle.plan_windows(plan, spad_budget=budget)
    prog = isa.lower_spgemm(matio.to_csc(matio.csr_to_coo(a)), b, plan, windows=wp)
    assert prog.n_windows == (1 if wp is None else wp.n_windows)
    assert lowering_digest(prog) == want


# ---------------------------------------------------------------------------
# Trace I/O
# ---------------------------------------------------------------------------


def test_trace_text_round_trip():
    a = rmat_csr(5, 3, seed=3)
    _, prog = lower(a, a)
    buf = io.StringIO()
    isa.write_trace(prog, buf)
    buf.seek(0)
    back = isa.read_trace(buf, image=prog.image)
    assert back.instrs == prog.instrs
    assert back.window_starts == prog.window_starts
    assert back.layout == prog.layout
    got = isa.replay(back)
    assert np.array_equal(got.values, isa.replay(prog).values)


def test_trace_empty_stream_header_only():
    prog = isa.Program.from_instrs(
        [], image=isa.MemoryImage(), layout=isa.LAYOUT_16_16,
        n_rows=0, n_cols=0, window_starts=[0], total_fma=0, total_out_nnz=0,
    )
    buf = io.StringIO()
    isa.write_trace(prog, buf)
    buf.seek(0)
    back = isa.read_trace(buf)
    assert back.instrs == []


def test_trace_corrupted_record_names_index():
    a = rmat_csr(4, 2, seed=5)
    _, prog = lower(a, a)
    buf = io.StringIO()
    isa.write_trace(prog, buf)
    lines = buf.getvalue().splitlines()
    lines[5 + 2] = "0x14 garbage"
    with pytest.raises(TraceError) as err:
        isa.read_trace(io.StringIO("\n".join(lines)))
    assert "record 2" in str(err.value)


def test_trace_rejects_lanes_beyond_the_tile():
    a = rmat_csr(4, 2, seed=5)
    _, prog = lower(a, a)
    buf = io.StringIO()
    isa.write_trace(prog, buf)
    lines = buf.getvalue().splitlines()
    rec = lines[5 + 1].split()
    rec[7] = "5"  # n_b
    lines[5 + 1] = " ".join(rec)
    with pytest.raises(TraceError, match="record 1: .*5 lanes exceed"):
        isa.read_trace(io.StringIO("\n".join(lines)))


def test_trace_version_mismatch():
    with pytest.raises(TraceError):
        isa.read_trace(io.StringIO("# sparsim-mmh4-trace v9\nlayout 16 16\n"))
