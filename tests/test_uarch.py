"""Component models: chip assembly, torus routing, channels, hash memory."""

import dataclasses

import numpy as np
import pytest

from sparsim import engine, isa, mapping, matio, oracle, uarch
from sparsim.errors import ConfigError, SimulationError


# ---------------------------------------------------------------------------
# Chip assembly (configuration fidelity)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "name,cores,mems,routers,pipelines,hashpad_mb",
    [
        ("tile4", 32, 32, 64, 64, 1.5),
        ("tile16", 128, 128, 256, 512, 3.0),
        ("tile64", 512, 512, 1024, 4096, 12.0),
    ],
)
def test_build_chip_component_totals(name, cores, mems, routers, pipelines, hashpad_mb):
    chip = uarch.build_chip(uarch.named_chip(name))
    assert chip.n_cores == cores
    assert chip.n_mems == mems
    assert chip.n_routers == routers
    assert chip.total_pipelines == pipelines
    assert chip.hashpad_bytes == int(hashpad_mb * 1024 * 1024)
    assert len(chip.memctrls) == 8


def test_all_chips_have_eight_tiles():
    for name in ("tile4", "tile16", "tile64"):
        assert uarch.named_chip(name).n_tiles == 8


def test_component_table_per_unit():
    t = uarch.TILE4
    assert (t.pipelines_per_core, t.multipliers, t.addr_generators) == (2, 2, 1)
    assert (t.hash_engines, t.hashlines_per_mem) == (2, 4096)
    t = uarch.TILE16
    assert (t.pipelines_per_core, t.multipliers, t.addr_generators) == (4, 4, 2)
    assert (t.hash_engines, t.hashlines_per_mem) == (4, 2048)
    t = uarch.TILE64
    assert (t.pipelines_per_core, t.multipliers, t.addr_generators) == (8, 8, 2)
    assert (t.hash_engines, t.hashlines_per_mem) == (8, 2048)
    # ports are four everywhere; register bits per pipeline 512/1024/2048
    for t, bits in ((uarch.TILE4, 512), (uarch.TILE16, 1024), (uarch.TILE64, 2048)):
        assert t.ports == 4
        assert t.regs_per_pipeline * 128 == bits


def test_inconsistent_custom_config_rejected():
    with pytest.raises(ConfigError):
        uarch.ChipConfig(tile=uarch.TileConfig(
            name="bad", cores_per_tile=1, mems_per_tile=0, pipelines_per_core=1,
            regs_per_pipeline=4, multipliers=1, addr_generators=1, ports=4,
            hash_engines=1, tag_comparators_per_engine=1, hashlines_per_mem=64,
        ))
    with pytest.raises(ConfigError):
        uarch.named_chip("tile128")


def test_checkerboard_interleave_balanced():
    kinds = uarch._interleave_kinds(4, 4, width=8)
    assert kinds.count("core") == 4 and kinds.count("mem") == 4
    assert kinds[0] != kinds[1]  # alternating


# ---------------------------------------------------------------------------
# Torus routing
# ---------------------------------------------------------------------------


def route_port(pkt, router, routers, w, h):
    """Reference routing the chip's next-port tables are checked against:
    dimension order (X then Y) with shortest wraparound; exact ties broken
    adaptively toward the shorter downstream queue. Returns 0 when the flit
    should eject at this router."""
    dst = pkt.dst
    x, y = router.x, router.y
    dx_raw = (dst % w) - x
    if dx_raw != 0:
        dx = dx_raw % w
        east, west = dx, w - dx
        if east < west:
            return uarch.P_EAST
        if west < east:
            return uarch.P_WEST
        eq = routers[neighbor(router.rid, uarch.P_EAST, w, h)].in_q[uarch.P_WEST]
        wq = routers[neighbor(router.rid, uarch.P_WEST, w, h)].in_q[uarch.P_EAST]
        return uarch.P_EAST if len(eq) <= len(wq) else uarch.P_WEST
    dy_raw = (dst // w) - y
    if dy_raw == 0:
        return 0
    dy = dy_raw % h
    south, north = dy, h - dy  # +y is "south" (row-major downward)
    if south < north:
        return uarch.P_SOUTH
    if north < south:
        return uarch.P_NORTH
    sq = routers[neighbor(router.rid, uarch.P_SOUTH, w, h)].in_q[uarch.P_NORTH]
    nq = routers[neighbor(router.rid, uarch.P_NORTH, w, h)].in_q[uarch.P_SOUTH]
    return uarch.P_SOUTH if len(sq) <= len(nq) else uarch.P_NORTH


def torus_distance(a, b, w, h):
    """Hops between routers ``a`` and ``b`` on a ``w`` x ``h`` torus, going
    the short way round each ring: the routing oracle."""
    dx = abs(a % w - b % w)
    dy = abs(a // w - b // w)
    return min(dx, w - dx) + min(dy, h - dy)


def neighbor(rid, port, w, h):
    x, y = rid % w, rid // w
    if port == uarch.P_EAST:
        x = (x + 1) % w
    elif port == uarch.P_WEST:
        x = (x - 1) % w
    elif port == uarch.P_SOUTH:
        y = (y + 1) % h
    else:
        y = (y - 1) % h
    return y * w + x


def walk_route(src, dst, w, h):
    """Follow routing decisions hop by hop on an uncongested torus."""
    chip = uarch.build_chip(uarch.CHIP_TILE4)
    routers = chip.routers
    pkt = uarch.Packet(dst, uarch.K_REQ, ())
    rid = src
    hops = 0
    while True:
        port = route_port(pkt, routers[rid], routers, w, h)
        if port == 0:
            return hops
        rid = neighbor(rid, port, w, h)
        hops += 1
        assert hops <= w + h, "routing loop"


def test_route_zero_hops_at_destination():
    assert walk_route(5, 5, 8, 8) == 0


def test_route_wraparound_distance_two():
    # 8-wide ring: (0,0) -> (6,0) is 2 hops westward via wraparound
    src, dst = 0, 6
    assert torus_distance(src, dst, 8, 8) == 2
    assert walk_route(src, dst, 8, 8) == 2


def test_route_hop_count_equals_torus_distance_property():
    rng = np.random.Generator(np.random.PCG64(3))
    w = h = 8
    diameter = (w + 1) // 2 + (h + 1) // 2
    for _ in range(60):
        src = int(rng.integers(0, w * h))
        dst = int(rng.integers(0, w * h))
        hops = walk_route(src, dst, w, h)
        assert hops == torus_distance(src, dst, w, h)
        assert hops <= diameter


@pytest.mark.parametrize("name", sorted(uarch.NAMED_CHIPS))
def test_route_tables_match_reference_routing(name):
    chip = uarch.build_chip(uarch.named_chip(name))
    w, h, routers = chip.width, chip.height, chip.routers
    n = len(routers)
    xs, ys = np.arange(n) % w, np.arange(n) // w

    def distances(rid):
        """torus_distance from ``rid`` to every router."""
        dx, dy = abs(xs - rid % w), abs(ys - rid // w)
        return np.minimum(dx, w - dx) + np.minimum(dy, h - dy)

    assert list(distances(n - 1)) == [torus_distance(n - 1, d, w, h) for d in range(n)]
    pkt = uarch.Packet(0, uarch.K_REQ, ())
    for router in routers:
        table = np.frombuffer(router.next_port, dtype=np.uint8)
        assert len(table) == n
        # The reference, with every queue empty, takes east/south at a tie.
        want = []
        for dst in range(n):
            pkt.dst = dst
            want.append(route_port(pkt, router, routers, w, h))
        want = np.array(want)
        ties = np.isin(table, (uarch.TIE_X, uarch.TIE_Y))
        assert np.array_equal(table[~ties], want[~ties])
        assert np.all(want[table == uarch.TIE_X] == uarch.P_EAST)
        assert np.all(want[table == uarch.TIE_Y] == uarch.P_SOUTH)
        # A tie is marked exactly where both ways round the ring are equally long.
        east, south = (xs - router.x) % w, (ys - router.y) % h
        half_x = (east != 0) & (2 * east == w)
        half_y = (east == 0) & (south != 0) & (2 * south == h)
        assert np.array_equal(table == uarch.TIE_X, half_x)
        assert np.array_equal(table == uarch.TIE_Y, half_y)
        # Each hop (either way at a tie) takes a flit one step closer, and it
        # ejects only at its destination, so following the table reaches every
        # destination in torus_distance hops.
        here = distances(router.rid)
        assert np.array_equal(np.flatnonzero(table == 0), [router.rid])
        for port, back, tie in ((uarch.P_EAST, uarch.P_WEST, uarch.TIE_X),
                                (uarch.P_WEST, uarch.P_EAST, uarch.TIE_X),
                                (uarch.P_NORTH, uarch.P_SOUTH, uarch.TIE_Y),
                                (uarch.P_SOUTH, uarch.P_NORTH, uarch.TIE_Y)):
            nrid = router.out_rid[port]
            assert nrid == neighbor(router.rid, port, w, h)
            assert router.out_q[port] is routers[nrid].in_q[back]
            step = (table == port) | (table == tie)
            assert np.array_equal(distances(nrid)[step], here[step] - 1)


def test_no_packet_lost_and_hop_bound_under_random_traffic():
    # drive a real workload and audit delivered flit hop counts
    coo = matio.with_integer_values(
        matio.generate_rmat(matio.RmatParams(scale=6, edge_factor=4, seed=8)), seed=9
    )
    a = matio.to_csr(coo)
    mcfg = mapping.MapperConfig(strategy=mapping.RANDOM_TABLE, n_targets=1)
    stats, _, run = engine.run_spgemm_simulation(a, a, uarch.CHIP_TILE4, mcfg, seed=5)
    assert run.net_flits == 0  # everything delivered
    w, h = run.chip.width, run.chip.height
    diameter = (w + 1) // 2 + (h + 1) // 2
    # hops_total / flits is a mean; individual packets are bounded by design,
    # and the mean must certainly respect the diameter bound
    assert stats.hops_total / stats.flits <= diameter


# ---------------------------------------------------------------------------
# Memory channel
# ---------------------------------------------------------------------------


def test_channel_isolated_latency_exact():
    ch = uarch.MemChannelModel(peak_bandwidth=16, fixed_latency=64, queue_depth=8)
    assert ch.submit(100, 64) == 164
    # second isolated request, long after
    assert ch.submit(1000, 64) == 1064


def test_channel_saturated_throughput_is_peak():
    ch = uarch.MemChannelModel(peak_bandwidth=16, fixed_latency=64, queue_depth=1 << 30)
    first_start = 0
    last_completion = 0
    n = 2000
    for i in range(n):
        last_completion = ch.submit(0, 64)
    span = (last_completion - ch.fixed_latency + 4) - first_start  # last service end
    delivered = n * 64 / span
    assert abs(delivered - 16) / 16 <= 0.01


def test_channel_queue_depth_bound():
    # A controller issues to its channel only while fewer than queue_depth
    # transactions are in flight there.
    cfg = uarch.CHIP_TILE4
    ch = uarch.MemChannelModel(peak_bandwidth=16, fixed_latency=64, queue_depth=2)
    mc, ctx = uarch.MemCtrlModel(0, 0, cfg, ch), _StubCtx()
    for i in range(4):  # four reads, each of its own granule
        mc.inbox.append(uarch.Packet(0, uarch.K_REQ, (0, i, 0, i * cfg.granule, 8)))
    for cycle in range(3):
        mc.step(ctx, cycle)
    assert mc.transactions_read == 2 and len(mc.inflight) == 2
    mc.step(ctx, 200)  # both done
    assert mc.transactions_read == 3


def test_channel_latency_must_cover_service():
    with pytest.raises(ConfigError):
        uarch.ChipConfig(channel_bytes_per_cycle=1, channel_fixed_latency=2)


# ---------------------------------------------------------------------------
# Memory controller coalescing
# ---------------------------------------------------------------------------


class _StubCtx:
    def __init__(self):
        self.arrived = 0

    def core_rid(self, core_id):
        return 0

    def on_eviction_arrived(self):
        self.arrived += 1


def make_mc():
    cfg = uarch.CHIP_TILE4
    return uarch.MemCtrlModel(0, 0, cfg, uarch.MemChannelModel(16, 64, 16)), _StubCtx()


def test_coalesce_single_granule():
    mc, ctx = make_mc()
    for i, addr in enumerate((0, 8, 16, 24)):
        mc.inbox.append(uarch.Packet(0, uarch.K_REQ, (0, i, 0, addr, 8)))
    mc.step(ctx, 0)
    assert mc.transactions_read == 1
    assert mc.reads_merged == 3


def test_coalesce_two_granules():
    mc, ctx = make_mc()
    for i, addr in enumerate((0, 64, 8)):  # G1, G2, G1 within the window
        mc.inbox.append(uarch.Packet(0, uarch.K_REQ, (0, i, 0, addr, 8)))
    mc.step(ctx, 0)
    mc.step(ctx, 1)
    assert mc.transactions_read == 2


def test_multi_granule_request_single_response():
    mc, ctx = make_mc()
    # one request spanning two granules: respond only once, after both
    mc.inbox.append(uarch.Packet(0, uarch.K_REQ, (0, 0, 0, 60, 16)))
    cycle = 0
    while (mc.read_pending or mc.inbox or mc.inflight) and cycle < 500:
        mc.step(ctx, cycle)
        cycle += 1
    assert mc.transactions_read == 2
    assert len(mc.outbox) == 1


# ---------------------------------------------------------------------------
# Hash-accumulate unit semantics
# ---------------------------------------------------------------------------


class _MemCtx:
    rolling_evictions = True

    def __init__(self):
        self.lines = 0  # live lines the mem reported

    def eviction_target(self, tag):
        return 0x100000

    def memctrl_rid_for(self, addr):
        return 0

    def on_hacc_committed(self):
        pass

    def on_line_claimed(self):
        self.lines += 1

    def on_line_freed(self):
        self.lines -= 1


def make_mem(rolling=True):
    ctx = _MemCtx()
    ctx.rolling_evictions = rolling
    return uarch.MemModel(0, 1, uarch.CHIP_TILE4), ctx


def hacc_packet(tag, data, counter):
    pkt = uarch.Packet(1, uarch.K_HACC, (tag, data, counter, 0, 0))
    pkt.moved_at = 0  # acceptance stamp normally set at ejection
    return pkt


def run_mem(mem, ctx, cycles):
    for c in range(cycles):
        mem.step(ctx, c)


def test_mem_insert_update_evict_sequence():
    mem, ctx = make_mem()
    tag = isa.encode_tag(3, 7)
    mem.inbox.append(hacc_packet(tag, 5.0, 2))
    run_mem(mem, ctx, 4)
    region = mem.regions[uarch.hash_engine(tag, mem.n_engines)]
    slot, _, is_insert = region.probe(tag)
    assert not is_insert
    assert region.vals[slot] == 5.0 and region.counters[slot] == 2

    mem.inbox.append(hacc_packet(tag, 3.0, 2))
    run_mem(mem, ctx, 8)
    assert region.vals[slot] == 8.0 and region.counters[slot] == 1
    assert len(mem.evicted_values) == 0

    mem.inbox.append(hacc_packet(tag, 3.0, 2))
    run_mem(mem, ctx, 12)
    assert ctx.lines == 0
    assert mem.evicted_values == [(tag, 11.0)]
    assert len(mem.outbox) == 1  # write-back packet


def test_mem_single_contribution_evicts_immediately():
    mem, ctx = make_mem()
    mem.inbox.append(hacc_packet(isa.encode_tag(1, 1), 4.0, 0))
    run_mem(mem, ctx, 4)
    assert len(mem.evicted_values) == 1
    assert mem.evicted_values[0][1] == 4.0


def test_mem_barrier_mode_holds_lines_until_flush():
    mem, ctx = make_mem(rolling=False)
    tag = isa.encode_tag(2, 2)
    mem.inbox.append(hacc_packet(tag, 1.0, 1))
    mem.inbox.append(hacc_packet(tag, 1.0, 1))
    run_mem(mem, ctx, 8)
    assert len(mem.evicted_values) == 0 and ctx.lines == 1
    mem.flush_all(ctx)
    assert ctx.lines == 0
    assert mem.evicted_values == [(tag, 2.0)]


def test_mem_tombstone_probing_reuses_freed_slots():
    mem, ctx = make_mem()
    cap = mem.regions[0].capacity
    # two tags of engine 0 colliding at the same home slot
    tags = np.arange(1, 3 * cap * mem.n_engines)
    t1, t2 = tags[(uarch.hash_engine(tags, mem.n_engines) == 0) & (tags % cap == 0)][:2].tolist()
    mem.inbox.append(hacc_packet(t1, 1.0, 0))  # insert + immediate evict
    run_mem(mem, ctx, 4)
    assert len(mem.evicted_values) == 1
    mem.inbox.append(hacc_packet(t2, 2.0, 1))  # probes through the tombstone
    run_mem(mem, ctx, 8)
    mem.inbox.append(hacc_packet(t2, 2.0, 1))
    run_mem(mem, ctx, 12)
    assert len(mem.evicted_values) == 2
    assert (t2, 4.0) in mem.evicted_values


def test_mem_overflow_names_the_full_region():
    # Fill engine 0's region line by line, each tag at its own home slot,
    # then send it one tag more.
    mem, ctx = uarch.MemModel(0, 1, tiny_chip_cfg()), _MemCtx()
    ctx.rolling_evictions = False
    region = mem.regions[0]
    cap = region.capacity
    # engine 0's first cap + 1 tags; the first cap have distinct home slots
    tags = np.arange(cap * mem.n_engines + 1)
    *fill, extra = tags[uarch.hash_engine(tags, mem.n_engines) == 0][:cap + 1].tolist()
    cycle = 0
    for tag in fill:
        mem.inbox.append(hacc_packet(tag, 1.0, 1))
        while mem.inbox or any(mem.engines_pending):
            mem.step(ctx, cycle)
            cycle += 1
    assert ctx.lines == region.occupancy == cap
    mem.inbox.append(hacc_packet(extra, 1.0, 1))
    with pytest.raises(SimulationError) as err:
        mem.step(ctx, cycle)
    assert str(err.value) == (
        f"hashpad overflow at mem 0 engine 0 (tag {extra:#x}): all {cap} lines of its "
        "region are live; the window plan bounds the chip-wide line count, not each "
        "(mem, engine) region's"
    )


def test_hash_region_probe_reaches_non_quadratic_slots():
    # From home 0 in 7 slots the quadratic steps reach 0, 1, 4 and 2 only.
    region = uarch._HashRegion(7)
    live = [100 + s for s in range(7)]  # other tags, all live
    region.tags = live.copy()
    region.tags[5] = uarch._EMPTY
    assert region.probe(7) == (5, 6, True)  # after 0, 1, 4, 2, then 3 and 5 on the scan
    # A tombstone and no empty slot: every slot is examined, then the
    # tombstone is reused.
    region.tags = live.copy()
    region.tags[6] = uarch._TOMBSTONE
    assert region.probe(7) == (6, 7, True)
    region.tags = live.copy()
    assert region.probe(7) == (None, 7, False)


# ---------------------------------------------------------------------------
# Core stage timing (single-instruction latency oracle)
# ---------------------------------------------------------------------------


def tiny_chip_cfg():
    tile = uarch.TileConfig(
        name="tiny", cores_per_tile=2, mems_per_tile=2, pipelines_per_core=2,
        regs_per_pipeline=4, multipliers=2, addr_generators=1, ports=4,
        hash_engines=2, tag_comparators_per_engine=2, hashlines_per_mem=512,
    )
    return uarch.ChipConfig(tile=tile, n_tiles=1)


def test_single_instruction_stage_latencies_match_config():
    cfg = tiny_chip_cfg()
    a = matio.to_csr(matio.coo_from_entries(1, 1, [0], [0], [2.0]))
    b = matio.to_csr(matio.coo_from_entries(1, 1, [0], [0], [3.0]))
    mcfg = mapping.MapperConfig(strategy=mapping.MODULAR, n_targets=1)
    stats, out, run = engine.run_spgemm_simulation(a, b, cfg, mcfg, seed=0, trace_stages=True)
    assert out.values.tolist() == [6.0]
    (trace,) = run.stage_traces
    assert trace["decode"] - trace["accept"] == cfg.decode_latency
    assert trace["regalloc"] - trace["decode"] == cfg.regalloc_latency
    assert trace["requests_queued"] == trace["regalloc"]
    assert trace["exec_start"] == trace["operands"]
    lanes = 1
    expected_exec = cfg.mul_latency + -(-lanes // cfg.tile.multipliers) - 1
    assert trace["exec_done"] - trace["exec_start"] == expected_exec
    assert trace["retire"] == trace["exec_done"] + 1


def test_single_hacc_cpi_is_fixed_path_latency():
    cfg = tiny_chip_cfg()
    a = matio.to_csr(matio.coo_from_entries(1, 1, [0], [0], [2.0]))
    b = matio.to_csr(matio.coo_from_entries(1, 1, [0], [0], [3.0]))
    mcfg = mapping.MapperConfig(strategy=mapping.MODULAR, n_targets=1)
    stats, _, run = engine.run_spgemm_simulation(a, b, cfg, mcfg, seed=0)
    hist = stats.cpi["hacc-re"]
    assert sum(hist.values()) == 1
    (cpi,) = hist.keys()
    # fixed path from acceptance at the unit: one cycle engine pick, then
    # compare cycles plus the accumulate latency
    compare = 1  # one probe, two comparators per engine
    expected = 1 + compare + cfg.accumulate_latency - 1
    assert cpi == expected


def test_stalls_reg_counted_when_pipeline_saturated():
    coo = matio.with_integer_values(
        matio.generate_rmat(matio.RmatParams(scale=6, edge_factor=6, seed=2)), seed=3
    )
    a = matio.to_csr(coo)
    mcfg = mapping.MapperConfig(strategy=mapping.DRHM_LOW, n_targets=1)
    stats, _, _ = engine.run_spgemm_simulation(a, a, uarch.CHIP_TILE4, mcfg, seed=1)
    assert stats.stalls["reg"] > 0  # 4 regs/pipeline, 4 per tile: one in flight


def test_bounded_queues_never_exceed_capacity():
    coo = matio.with_integer_values(
        matio.generate_rmat(matio.RmatParams(scale=6, edge_factor=4, seed=4)), seed=5
    )
    a = matio.to_csr(coo)
    mcfg = mapping.MapperConfig(strategy=mapping.RING, n_targets=1)
    from sparsim import isa as isa_mod

    plan = oracle.symbolic_pass(a, a)
    wplan = oracle.plan_windows(plan, spad_budget=4096)
    prog = isa_mod.lower_spgemm(matio.to_csc(matio.csr_to_coo(a)), a, plan, windows=wplan)
    # A shallow channel queue, so that the controllers' in-flight bound binds.
    chip_cfg = dataclasses.replace(uarch.CHIP_TILE4, channel_queue_depth=2)
    run = engine.SimRun(prog, chip_cfg, mcfg, plan, window_plan=wplan, seed=2)
    cfg = run.chip_cfg
    peak_inflight = 0
    for _ in range(600):
        run._step_cycle()
        if run._finished():
            break
        run.cycle += 1
        for router in run.chip.routers:
            assert len(router.in_q[0]) <= cfg.injection_depth
            for q in router.in_q[1:]:
                assert len(q) <= cfg.router_queue_depth
        for mem in run.chip.mems:
            assert len(mem.inbox) <= cfg.mem_inbox_depth
        for mc in run.chip.memctrls:
            assert len(mc.inflight) <= cfg.channel_queue_depth
            peak_inflight = max(peak_inflight, len(mc.inflight))
    assert peak_inflight == cfg.channel_queue_depth
