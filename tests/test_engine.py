"""Simulation kernel: dispatch policy, determinism, conservation, CPI."""

import gc
import hashlib
import json
import weakref
from contextlib import nullcontext
from dataclasses import replace

import numpy as np
import pytest

from sparsim import cli, engine, isa, mapping, matio, oracle, uarch
from sparsim.errors import ConfigError, DeadlockError, SimulationError


def rmat_csr(scale, ef, seed):
    coo = matio.generate_rmat(matio.RmatParams(scale=scale, edge_factor=ef, seed=seed))
    return matio.to_csr(matio.with_integer_values(coo, seed=seed + 1))


def identity_csr(n):
    return matio.to_csr(matio.coo_from_entries(n, n, range(n), range(n), [1.0] * n))


def mapper(strategy=mapping.DRHM_LOW):
    return mapping.MapperConfig(strategy=strategy, n_targets=1)


def lower_for(a, b, budget=4096):
    plan = oracle.symbolic_pass(a, b)
    wplan = oracle.plan_windows(plan, spad_budget=budget)
    prog = isa.lower_spgemm(matio.to_csc(matio.csr_to_coo(a)), b, plan, windows=wplan)
    return plan, wplan, prog


# ---------------------------------------------------------------------------
# Run basics
# ---------------------------------------------------------------------------


def empty_run():
    """A tile4 run of a program with no instructions, and of the all-zero
    2x2 product it computes."""
    zero = matio.to_csr(matio.coo_from_entries(2, 2, [], [], []))
    plan = oracle.symbolic_pass(zero, zero)
    prog = isa.Program.from_instrs(
        [], image=isa.MemoryImage(), layout=isa.LAYOUT_16_16,
        n_rows=2, n_cols=2, window_starts=[0], total_fma=0, total_out_nnz=0,
    )
    wplan = oracle.plan_windows(plan, 1 << 14)
    return engine.SimRun(prog, uarch.CHIP_TILE4, mapper(), plan, wplan, seed=0)


def test_empty_program_drains_immediately():
    stats = empty_run().run_to_completion()
    assert stats.mmh4_retired == 0
    assert stats.cycles <= 2


@pytest.mark.parametrize("out_offsets,out_cols,message", [
    pytest.param([0, 2, 3, 4, 5], [0, 1, 1, 2, 3],
                 r"\(0, 1\), in the symbolic plan, was evicted 0 ", id="one-more"),
    pytest.param([0, 0, 1, 2, 3], [1, 2, 3],
                 r"\(0, 0\), not in the symbolic plan, was evicted 1 ", id="one-fewer"),
])
def test_run_fails_unless_it_evicts_each_plan_element_once(out_offsets, out_cols, message):
    # The program computes the 4x4 identity; the run is handed a plan with
    # one element more or one fewer than the program's.
    eye = identity_csr(4)
    plan, wplan, prog = lower_for(eye, eye)
    wrong = replace(
        plan,
        out_offsets=np.array(out_offsets, dtype=np.int64),
        out_cols=np.array(out_cols, dtype=np.int32),
        counts=np.ones(len(out_cols), dtype=np.int32),
    )
    run = engine.SimRun(prog, uarch.CHIP_TILE4, mapper(), wrong, window_plan=wplan, seed=0)
    with pytest.raises(SimulationError, match=message):
        run.run_to_completion()


def test_identity64_gives_identity_and_64_evictions():
    eye = identity_csr(64)
    stats, out, _ = engine.run_spgemm_simulation(eye, eye, uarch.CHIP_TILE4, mapper(), seed=3)
    assert np.array_equal(matio.csr_to_dense(out), np.eye(64))
    assert stats.evictions == 64
    assert stats.conservation["ok"]


def test_output_matches_oracle_bitwise_integer_mode():
    for seed in (0, 7):
        a = rmat_csr(6, 4, seed=seed)
        stats, out, _ = engine.run_spgemm_simulation(a, a, uarch.CHIP_TILE4, mapper(), seed=seed)
        want = oracle.spgemm_gustavson(a, a)
        assert np.array_equal(out.row_offsets, want.row_offsets)
        assert np.array_equal(out.col_indices, want.col_indices)
        assert np.array_equal(out.values, want.values)


def test_conservation_counters():
    a = rmat_csr(6, 4, seed=11)
    plan = oracle.symbolic_pass(a, a)
    stats, _, run = engine.run_spgemm_simulation(a, a, uarch.CHIP_TILE4, mapper(), seed=1)
    cons = stats.conservation
    assert cons["hacc_committed"] == plan.total_fma
    assert cons["evictions"] == plan.total_out_nnz
    assert cons["hashpad_final"] == 0
    assert cons["mapper_assignments"] == cons["hacc_created"]
    assert stats.mapper_assignments == plan.total_fma


def test_loads_evictions_and_bytes_on_a_wider_granule():
    a = rmat_csr(6, 4, seed=11)
    plan = oracle.symbolic_pass(a, a)
    cfg = replace(uarch.CHIP_TILE4, granule=128)
    stats, _, run = engine.run_spgemm_simulation(a, a, cfg, mapper(), seed=1)
    assert stats.read_transactions and stats.write_transactions
    assert stats.bytes_read == 128 * stats.read_transactions
    assert stats.bytes_written == 128 * stats.write_transactions
    # Loads are the grid's row and column sums, kept as Python ints, and
    # match the lanes each core was dispatched and the commits each mem timed.
    assert stats.core_loads == stats.grid.sum(axis=1).tolist()
    assert stats.mem_loads == stats.grid.sum(axis=0).tolist()
    assert all(type(n) is int for n in stats.core_loads + stats.mem_loads)
    lanes = [0] * run.chip.n_cores
    for n, core in run.dispatcher.log:
        lanes[core] += run.lane_count(n)
    assert stats.core_loads == lanes
    assert stats.mem_loads == [sum(mem.cpi.values()) for mem in run.chip.mems]
    assert stats.evictions == plan.total_out_nnz


def test_multiple_windows_fenced_and_correct():
    a = rmat_csr(6, 6, seed=21)
    plan, wplan, prog = lower_for(a, a, budget=512)
    assert prog.n_windows >= 3
    run = engine.SimRun(prog, uarch.CHIP_TILE4, mapper(), plan, window_plan=wplan, seed=4)
    run.run_to_completion()
    want = oracle.spgemm_gustavson(a, a)
    assert np.array_equal(run.result.values, want.values)
    # occupancy never exceeded any window capacity (engine asserts internally);
    # peak must be bounded by the largest window capacity
    assert run.stats.hashpad_occupancy_max <= wplan.window_capacity().max()


# ---------------------------------------------------------------------------
# Dispatch policy
# ---------------------------------------------------------------------------


def one_tile_cfg(n_cores):
    tile = uarch.TileConfig(
        name=f"test{n_cores}", cores_per_tile=n_cores, mems_per_tile=n_cores,
        pipelines_per_core=2, regs_per_pipeline=8, multipliers=2, addr_generators=2,
        ports=4, hash_engines=2, tag_comparators_per_engine=2,
        hashlines_per_mem=1024,
    )
    return uarch.ChipConfig(tile=tile, n_tiles=1)


def test_single_core_dispatch_is_strictly_sequential():
    a = rmat_csr(4, 3, seed=2)
    plan, wplan, prog = lower_for(a, a)
    run = engine.SimRun(prog, one_tile_cfg(1), mapper(), plan, window_plan=wplan, seed=0)
    run.run_to_completion()
    log = run.dispatcher.log
    assert [i for i, _ in log] == list(range(len(prog.instrs)))
    assert all(core == 0 for _, core in log)


def test_round_robin_spreads_groups_across_cores():
    # 8 single-lane instructions in 8 distinct groups onto 4 cores
    eye = identity_csr(8)
    plan, wplan, prog = lower_for(eye, eye)
    groups = {ins.group for ins in prog.instrs}
    assert len(groups) == 8
    run = engine.SimRun(prog, one_tile_cfg(4), mapper(), plan, window_plan=wplan, seed=0)
    run.run_to_completion()
    per_core = {}
    for _, core in run.dispatcher.log:
        per_core[core] = per_core.get(core, 0) + 1
    assert all(per_core.get(c, 0) >= 2 for c in range(4))


def test_groups_stay_on_one_core():
    a = rmat_csr(5, 4, seed=5)
    plan, wplan, prog = lower_for(a, a)
    run = engine.SimRun(prog, one_tile_cfg(4), mapper(), plan, window_plan=wplan, seed=0)
    run.run_to_completion()
    group_core = {}
    for idx, core in run.dispatcher.log:
        g = prog.instrs[idx].group
        assert group_core.setdefault(g, core) == core


def test_dispatch_log_replay_identical():
    a = rmat_csr(5, 3, seed=9)
    plan, wplan, prog = lower_for(a, a)
    logs = []
    for _ in range(2):
        run = engine.SimRun(prog, uarch.CHIP_TILE4, mapper(), plan, window_plan=wplan, seed=7)
        run.run_to_completion()
        logs.append(tuple(run.dispatcher.log))
    assert logs[0] == logs[1]


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------


def test_repeated_runs_byte_identical_stats():
    a = rmat_csr(6, 4, seed=13)
    digests = set()
    for _ in range(3):
        stats, _, _ = engine.run_spgemm_simulation(a, a, uarch.CHIP_TILE4, mapper(), seed=5)
        digests.add(hashlib.sha256(stats.to_json().encode()).hexdigest())
    assert len(digests) == 1


def test_host_worker_count_does_not_change_stats(tmp_path):
    # Host parallelism is one process per sweep point (`sweep --jobs`).
    outputs = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        rc = cli.main([
            "sweep", "--rmat", "6:4", "--configs", "tile4", "--mappers", "drhm-low,ring,random",
            "--seed", "6", "--integer-mode", "--jobs", jobs, "--out", str(out),
        ])
        assert rc == cli.EXIT_OK
        outputs.append({p.name: p.read_bytes() for p in out.iterdir() if p.name != "run.log"})
    assert len(outputs[0]) == 4  # three stats files and summary.csv
    assert outputs[0] == outputs[1]


def test_different_seed_changes_drhm_mapping():
    a = rmat_csr(5, 3, seed=15)
    s1, _, _ = engine.run_spgemm_simulation(a, a, uarch.CHIP_TILE4, mapper(), seed=1)
    s2, _, _ = engine.run_spgemm_simulation(a, a, uarch.CHIP_TILE4, mapper(), seed=2)
    assert not np.array_equal(s1.grid, s2.grid)


# ---------------------------------------------------------------------------
# CPI and eviction modes
# ---------------------------------------------------------------------------


def test_cpi_histogram_mass_equals_hacc_count():
    a = rmat_csr(6, 4, seed=16)
    plan = oracle.symbolic_pass(a, a)
    stats, _, _ = engine.run_spgemm_simulation(a, a, uarch.CHIP_TILE4, mapper(), seed=3)
    hist = stats.cpi["hacc-re"]
    assert sum(hist.values()) == plan.total_fma
    mmh4 = stats.cpi["mmh4"]
    assert sum(mmh4.values()) == stats.mmh4_retired


def test_rolling_eviction_beats_barrier_directionally():
    a = rmat_csr(8, 8, seed=5)
    re, _, _ = engine.run_spgemm_simulation(
        a, a, uarch.CHIP_TILE4, mapper(), seed=2, eviction_mode=engine.ROLLING
    )
    be, out_be, _ = engine.run_spgemm_simulation(
        a, a, uarch.CHIP_TILE4, mapper(), seed=2, eviction_mode=engine.BARRIER
    )
    assert re.mean_cpi("hacc-re") <= be.mean_cpi("hacc-be")
    assert re.hashpad_occupancy_max <= be.hashpad_occupancy_max
    want = oracle.spgemm_gustavson(a, a)
    assert np.array_equal(out_be.values, want.values)
    assert be.conservation["ok"]


def test_barrier_mode_with_multiple_windows():
    a = rmat_csr(6, 6, seed=21)
    plan, wplan, prog = lower_for(a, a, budget=512)
    assert prog.n_windows >= 3
    run = engine.SimRun(
        prog, uarch.CHIP_TILE4, mapper(), plan, window_plan=wplan, seed=3,
        eviction_mode=engine.BARRIER,
    )
    stats = run.run_to_completion()
    want = oracle.spgemm_gustavson(a, a)
    assert np.array_equal(run.result.values, want.values)
    assert stats.conservation["ok"]
    assert stats.evictions == plan.total_out_nnz


@pytest.mark.parametrize("mode", [engine.ROLLING, engine.BARRIER])
def test_fence_keeps_all_work_in_current_window(mode):
    # After every cycle, every latched or in-flight MMH4 and every HACC still
    # in a core outbox, a router queue, a mem inbox or a hash engine belongs
    # to the current window: a window's work has fully drained before the
    # fence lets the next one issue.
    a = rmat_csr(6, 6, seed=21)
    plan, wplan, prog = lower_for(a, a, budget=512)
    assert prog.n_windows >= 3
    window_of_placed = np.repeat(np.arange(wplan.n_windows), np.diff(wplan.offsets))
    window_of_row = dict(zip(wplan.rows.tolist(), window_of_placed.tolist()))
    col_bits = prog.layout.col_bits
    run = engine.SimRun(prog, uarch.CHIP_TILE4, mapper(), plan, window_plan=wplan, seed=3,
                        eviction_mode=mode)
    seen = set()
    while True:
        assert run.cycle < 20_000, "the run did not finish in 20,000 cycles (about 3,000 expected)"
        run._step_cycle()
        w = run.current_window
        instrs = [c.dispatch_latch for c in run.chip.cores if c.dispatch_latch is not None]
        instrs += [rec.instr for c in run.chip.cores for rec in c.inflight.values()]
        instrs = [prog.instrs[n] for n in instrs]  # latches hold program indices
        tags = [p.payload[0] for c in run.chip.cores for p in c.outbox if p.kind == uarch.K_HACC]
        tags += [p.payload[0] for r in run.chip.routers for q in r.in_q for p in q
                 if p.kind == uarch.K_HACC]
        tags += [p.payload[0] for m in run.chip.mems for p in m.inbox]
        tags += [pend[4] for m in run.chip.mems for pend in m.engines_pending if pend is not None]
        assert all(ins.window == w for ins in instrs)
        assert all(window_of_row[tag >> col_bits] == w for tag in tags)
        # The run's live-line count agrees with the hashpad itself.
        assert run.hashpad_lines == sum(r.occupancy for m in run.chip.mems for r in m.regions)
        if instrs or tags:
            seen.add(w)
        if run._finished():
            break
        run.cycle += 1
    assert run.current_window == prog.n_windows
    assert seen == set(range(prog.n_windows))
    assert run.stats.hacc_committed == plan.total_fma


@pytest.mark.parametrize("ports", [1, 2])
def test_tile_ports_bound_each_routers_injection_and_ejection(ports):
    a = rmat_csr(5, 3, seed=18)
    chip = replace(uarch.CHIP_TILE4, tile=replace(uarch.TILE4, ports=ports))
    plan, wplan, prog = lower_for(a, a)
    run = engine.SimRun(prog, chip, mapper(), plan, wplan, seed=2)
    # Each router's injection queue moves up to ``ports`` flits a cycle.
    for _, _, _, scans in run._router_tabs:
        for q, budget, feeder, _ in scans[0]:
            assert budget == (ports if feeder < 0 else 1)
    # A packet ejected this cycle waits in its unit's inbox, stamped with the
    # cycle, until the unit steps next cycle.
    most = 0
    while True:
        run._step_cycle()
        for router in run.chip.routers:
            units = [u for u in (router.component, router.memctrl) if u is not None]
            most = max(most, sum(p.moved_at == run.cycle for u in units for p in u.inbox))
        if run.current_window >= prog.n_windows and run._finished():
            break
        run.cycle += 1
    assert most == ports
    run._finalize()
    assert np.array_equal(run.result.values, oracle.spgemm_gustavson(a, a).values)


# ---------------------------------------------------------------------------
# Static region load
# ---------------------------------------------------------------------------


def default_plan(a, chip):
    """A * A's symbolic plan, window plan and tag layout as
    ``run_spgemm_simulation`` makes them for ``chip``."""
    plan = oracle.symbolic_pass(a, a)
    wplan = oracle.plan_windows(plan, chip.n_mems * chip.tile.hashlines_per_mem // 2)
    return plan, wplan, isa.default_layout(plan.n_rows, plan.n_cols)


@pytest.mark.parametrize("scale,chip,capacity,worst", [
    # worst region's lines under modular, drhm-low, drhm-high and random
    pytest.param(9, uarch.CHIP_TILE16, 509, (913, 913, 9405, 95), id="rmat9-tile16"),
    pytest.param(10, uarch.CHIP_TILE4, 2041, (3474, 3474, 19535, 646), id="rmat10-tile4"),
])
def test_region_load_worst_regions(scale, chip, capacity, worst):
    a = rmat_csr(scale, 4, seed=1)
    plan, wplan, layout = default_plan(a, chip)
    assert uarch.region_capacity(chip.tile) == capacity
    per_window = np.diff(plan.out_offsets)[wplan.rows]
    per_window = np.add.reduceat(per_window, wplan.offsets[:-1])
    strategies = (mapping.MODULAR, mapping.DRHM_LOW, mapping.DRHM_HIGH, mapping.RANDOM_TABLE)
    for strategy, want in zip(strategies, worst):
        load = engine.region_load(plan, wplan, layout, chip, mapper(strategy), seed=1)
        assert load.shape == (wplan.n_windows, chip.n_mems * chip.tile.hash_engines)
        assert np.array_equal(load.sum(axis=1), per_window)  # each element in one region
        assert load.max() == want, strategy
    with pytest.raises(ConfigError):
        engine.region_load(plan, wplan, layout, chip, mapper(mapping.RING), seed=1)


@pytest.mark.parametrize("strategy", [mapping.MODULAR, mapping.DRHM_LOW, mapping.DRHM_HIGH,
                                      mapping.RANDOM_TABLE])
def test_barrier_fence_lines_equal_region_load(strategy, monkeypatch):
    # At a barrier fence every element of the closing window is live, so
    # each region holds exactly its region_load count.
    a = rmat_csr(7, 4, seed=3)
    plan, wplan, prog = lower_for(a, a, budget=512)
    assert prog.n_windows >= 3
    chip = uarch.CHIP_TILE4
    flush_all = uarch.MemModel.flush_all
    live = {}  # (window, mem) -> live lines per region

    def fence(mem, run):
        live[run.current_window, mem.id] = [region.occupancy for region in mem.regions]
        flush_all(mem, run)

    monkeypatch.setattr(uarch.MemModel, "flush_all", fence)
    run = engine.SimRun(prog, chip, mapper(strategy), plan, wplan, seed=5, eviction_mode=engine.BARRIER)
    assert run.run_to_completion().conservation["ok"]
    got = [[n for m in range(chip.n_mems) for n in live[w, m]] for w in range(prog.n_windows)]
    assert len(live) == prog.n_windows * chip.n_mems
    assert np.array_equal(got, engine.region_load(plan, wplan, prog.layout, chip, mapper(strategy), seed=5))


# ---------------------------------------------------------------------------
# Network commit
# ---------------------------------------------------------------------------


def test_router_ejects_at_most_four_flits_per_cycle():
    # Router 8 of the tile4 torus hosts a memory controller, whose inbox never
    # refuses a flit. Six eviction flits wait in three of its input queues:
    # four in the injection queue (which moves up to four a cycle) and one
    # each in two direction queues (one a cycle). Router 0, visited first,
    # holds one more bound for router 8. The ejection cap counts across all
    # of a router's queues, and a flit that hops into a queue during a
    # commit does not move again in that commit.
    run = empty_run()
    routers = run.chip.routers
    router = routers[8]
    mc = router.memctrl
    assert mc is not None

    def evict():
        return uarch.Packet(8, uarch.K_EVICT, 0)

    for port, n in ((uarch.P_INJ, 4), (uarch.P_EAST, 1), (uarch.P_WEST, 1)):
        router.in_q[port].extend(evict() for _ in range(n))
    hopper = evict()
    routers[0].in_q[uarch.P_INJ].append(hopper)
    run._live_routers.update((0, 8))
    run.net_flits += 7

    run._step_cycle()
    assert len(mc.inbox) == 4
    assert hopper not in mc.inbox and hopper.moved_at == 0
    assert not routers[0].in_q[uarch.P_INJ]
    assert sum(len(q) for q in router.in_q) == 3
    assert any(hopper in q for q in router.in_q)

    run.cycle += 1
    run._step_cycle()
    assert run.evictions_arrived == 4  # the controller took the first four
    assert len(mc.inbox) == 3 and hopper in mc.inbox
    assert not any(router.in_q)
    assert run.net_flits == 0


# The tests below hand-build flits on the tile4 torus (8 x 8, queues of four
# flits, injection queues of eight), whose routers 0-7 form one X ring:
# router r sends west into router r-1's east input. A flit stamped with the
# current cycle arrived in this commit and cannot move again in it.


def flit(dst, kind=uarch.K_RESP, ring=1, moved_at=-1):
    pkt = uarch.Packet(dst, kind, None)
    pkt.ring = ring
    pkt.moved_at = moved_at
    return pkt


def step(run):
    run._step_cycle()
    run.cycle += 1


def test_parked_router_moves_in_the_commit_a_lower_rid_router_pops():
    # Router 4's head waits on router 3's full east input, whose flits
    # arrived in commit 0, so router 4 parks there. In commit 1, router 3
    # first sends a flit east into router 4, which arms router 4 for commit
    # 2, and then pops its east input: router 4 is still visited in commit
    # 1, after router 3, and its head moves then, as it would if router 4
    # had been visited every commit.
    run = empty_run()
    routers = run.chip.routers
    east3 = routers[3].in_q[uarch.P_EAST]
    east3.extend(flit(1, moved_at=0) for _ in range(4))
    arrival = flit(6, ring=0, moved_at=0)
    routers[3].in_q[uarch.P_INJ].append(arrival)  # scanned before the east input in commit 1
    head = flit(1)
    routers[4].in_q[uarch.P_EAST].append(head)
    run._live_routers.update((3, 4))

    step(run)
    assert run._live_routers == {3} and run._parked[4]
    step(run)
    assert arrival in routers[4].in_q[uarch.P_WEST]
    assert head.moved_at == 1 and east3[-1] is head


def test_parked_router_moves_the_commit_after_a_higher_rid_router_pops():
    # Router 2's head waits on router 3's full west input. Router 3 pops it
    # in commit 1, after router 2's turn, so the head moves in commit 2.
    run = empty_run()
    routers = run.chip.routers
    west3 = routers[3].in_q[uarch.P_WEST]
    west3.extend(flit(5, moved_at=0) for _ in range(4))
    head = flit(5)
    routers[2].in_q[uarch.P_WEST].append(head)
    run._live_routers.update((2, 3))

    step(run)
    assert run._live_routers == {3} and run._parked[2]
    step(run)
    assert len(west3) == 3 and head in routers[2].in_q[uarch.P_WEST]
    assert 2 in run._live_routers
    step(run)
    assert head.moved_at == 2 and head in west3


def test_arrival_behind_a_parked_routers_blocked_head():
    # Router 4 parks in commit 0 behind router 3's full east input. Later in
    # that commit a flit from router 5 queues behind its head, and its core
    # injects two flits bound south; both arrivals arm router 4 for commit 1
    # while it is parked. In commit 1 router 3 pops its east input, and
    # router 4, already due in that commit, is visited once: the head moves
    # west and one injected flit south (one flit per output port), and the
    # rest move in commit 2.
    run = empty_run()
    routers = run.chip.routers
    east3 = routers[3].in_q[uarch.P_EAST]
    east3.extend(flit(1, moved_at=0) for _ in range(4))
    head, behind = flit(1), flit(2)
    routers[4].in_q[uarch.P_EAST].append(head)
    routers[5].in_q[uarch.P_EAST].append(behind)
    core = routers[4].component
    south = [flit(12, ring=0), flit(12, ring=0)]
    core.outbox.extend(south)
    run._sending.add(core._engine_idx)
    run._live_routers.update((3, 4, 5))

    east4, injq4 = routers[4].in_q[uarch.P_EAST], routers[4].in_q[uarch.P_INJ]
    north12 = routers[12].in_q[uarch.P_NORTH]

    step(run)
    assert list(east4) == [head, behind] and list(injq4) == south
    assert run._parked[4] and 4 in run._live_routers
    step(run)
    assert east3[-1] is head and list(east4) == [behind]
    assert list(north12) == south[:1] and list(injq4) == south[1:]
    step(run)
    assert east3[-1] is behind and north12[-1] is south[1]


def test_parked_tie_wakes_on_a_pop_from_either_way():
    # Router 0 is half-way round router 4's X ring, so router 4's injected
    # flit for it may go east or west, and takes the shorter queue, east on
    # a tie. Both ways hold three flits, and a flit entering a ring needs
    # two free slots, so it parks. In commit 1 router 3 pops its east input
    # before router 4's turn: the west way is now shorter and has room, and
    # the flit goes west in that commit.
    run = empty_run()
    routers = run.chip.routers
    east3 = routers[3].in_q[uarch.P_EAST]
    west5 = routers[5].in_q[uarch.P_WEST]
    east3.extend(flit(1, moved_at=0) for _ in range(3))
    west5.extend(flit(7, moved_at=0) for _ in range(3))
    tie = flit(0, ring=0)
    routers[4].in_q[uarch.P_INJ].append(tie)
    assert routers[4].next_port[0] == uarch.TIE_X
    run._live_routers.update((3, 4, 5))

    step(run)
    assert run._live_routers == {3, 5} and run._parked[4]
    step(run)
    assert tie.moved_at == 1 and east3[-1] is tie and tie.ring == 1


def test_outbox_parked_behind_a_full_injection_queue_drains_when_it_pops():
    # Router 4's injection queue is full of flits that arrived in commit 0,
    # so its core's outbox parks in that commit and leaves the sending set.
    # In commit 1 router 4 moves one of them east, and the outbox drains
    # into the freed slot in the same commit.
    run = empty_run()
    routers = run.chip.routers
    injq = routers[4].in_q[uarch.P_INJ]
    injq.extend(flit(5, ring=0, moved_at=0) for _ in range(run.chip_cfg.injection_depth))
    core = routers[4].component
    waiting = flit(5, ring=0)
    core.outbox.append(waiting)
    run._sending.add(core._engine_idx)
    run._live_routers.add(4)

    step(run)
    assert list(core.outbox) == [waiting] and not run._sending
    step(run)
    assert not core.outbox and injq[-1] is waiting and waiting.moved_at == 1


def test_core_waits_on_its_outbox_without_stepping(monkeypatch):
    # One instruction of 16 HACCs on a chip whose injection queues hold one
    # flit. Once the core has executed it, the HACCs wait in its outbox
    # behind a full injection queue, and that is all the core waits on.
    # Past the step that follows the one that executed the tile, the core is
    # not stepped while the network takes one HACC a cycle, as the queue
    # frees, and is stepped the cycle after the last one leaves, to retire
    # the instruction.
    a = matio.to_csr(matio.coo_from_entries(4, 1, range(4), [0] * 4, [1.0] * 4))
    b = matio.to_csr(matio.coo_from_entries(1, 4, [0] * 4, range(4), [1.0] * 4))
    plan, wplan, prog = lower_for(a, b)
    assert prog.n_instrs == 1 and plan.total_fma == 16
    cfg = replace(uarch.CHIP_TILE4, injection_depth=1)
    run = engine.SimRun(prog, cfg, mapper(), plan, window_plan=wplan, seed=1)
    core = run.chip.cores[0]
    injq = run.chip.routers[core.rid].in_q[uarch.P_INJ]
    stepped = []
    step = uarch.CoreModel.step

    def spy(self, run, cycle):
        if self is core:
            stepped.append(cycle)
        return step(self, run, cycle)

    monkeypatch.setattr(uarch.CoreModel, "step", spy)
    left, queued, retired = [], [], []
    while not run._finished():
        assert run.cycle < 1_000, "the run did not finish in 1,000 cycles (about 190 expected)"
        run._step_cycle()
        left.append(len(core.outbox))
        queued.append(len(injq))
        retired.append(run.stats.mmh4_retired)
        run.cycle += 1

    executed = next(c for c, n in enumerate(left) if n)
    sent = left.index(0, executed)  # the cycle the last HACC leaves
    assert left[executed:sent + 1] == list(range(15, -1, -1))
    assert queued[executed:sent + 1] == [1] * (sent - executed + 1)
    assert [c for c in stepped if executed + 1 < c <= sent + 1] == [sent + 1]
    assert retired[sent] == 0 and retired[sent + 1] == 1


# ---------------------------------------------------------------------------
# Liveness
# ---------------------------------------------------------------------------


# What the watchdog reports when the mems stop consuming below, recorded
# from a run that visited every router holding a flit in every cycle.
STALLED_MEMS_DEADLOCK = """\
no progress for 1985 cycles at cycle 2117
  mem 0: inbox=8 outbox=0
  mem 2: inbox=3 outbox=0
  mem 4: inbox=1 outbox=0
  mem 5: inbox=1 outbox=0
  mem 6: inbox=2 outbox=0
  mem 7: inbox=2 outbox=0
  mem 8: inbox=5 outbox=0
  mem 9: inbox=3 outbox=0
  mem 10: inbox=2 outbox=0
  mem 12: inbox=1 outbox=0
  mem 13: inbox=2 outbox=0
  mem 14: inbox=5 outbox=0
  mem 15: inbox=2 outbox=0
  mem 18: inbox=1 outbox=0
  mem 20: inbox=3 outbox=0
  mem 21: inbox=1 outbox=0
  mem 22: inbox=3 outbox=0
  mem 23: inbox=3 outbox=0
  mem 24: inbox=6 outbox=0
  mem 26: inbox=5 outbox=0
  mem 27: inbox=2 outbox=0
  mem 28: inbox=1 outbox=0
  mem 29: inbox=1 outbox=0
  mem 30: inbox=1 outbox=0
  mem 31: inbox=1 outbox=0
  network flits pending: 13"""


def test_deadlock_detector_fires_with_diagnostic(monkeypatch):
    # Mems stop consuming: the run must report a diagnostic, not hang. Flits
    # wait in the network, some of them in parked routers, while the engine
    # jumps over idle cycles; the watchdog must still trip at the cycle, and
    # with the dump, of a run that visits every router holding a flit.
    a = rmat_csr(4, 2, seed=19)
    plan, wplan, prog = lower_for(a, a)
    run = engine.SimRun(prog, uarch.CHIP_TILE4, mapper(), plan, window_plan=wplan, seed=1)
    monkeypatch.setattr(uarch.MemModel, "step", lambda self, run, cycle: False)
    with pytest.raises(DeadlockError) as err:
        run.run_to_completion()
    assert str(err.value) == STALLED_MEMS_DEADLOCK


# What the watchdog reports when the controllers drop every request below,
# recorded from a run that stepped every cycle.
DROPPED_REQUESTS_DEADLOCK = """\
no progress for 1985 cycles at cycle 2010
  core 0: inflight=2 outbox=0
  core 1: inflight=2 outbox=0
  core 2: inflight=2 outbox=0
  core 3: inflight=1 outbox=0
  core 4: inflight=1 outbox=0
  core 5: inflight=1 outbox=0
  core 6: inflight=1 outbox=0
  core 7: inflight=1 outbox=0
  core 8: inflight=1 outbox=0
  core 9: inflight=1 outbox=0
  oldest blocked instruction: core 0 seq 0 stage wait accepted at cycle 0
  network flits pending: 0"""


def test_deadlock_inside_a_skipped_span_raises_where_stepping_would(monkeypatch):
    # Controllers that drop every request: once the network drains, no
    # component is ever due again, so the engine jumps ahead and the
    # watchdog trips inside the jump. It must raise at the cycle, and with
    # the state, that stepping every cycle reaches.
    a = rmat_csr(4, 2, seed=19)
    plan, wplan, prog = lower_for(a, a)
    run = engine.SimRun(prog, uarch.CHIP_TILE4, mapper(), plan, window_plan=wplan, seed=1)

    def drop(self, run, cycle):
        self.inbox.clear()

    monkeypatch.setattr(uarch.MemCtrlModel, "step", drop)
    with pytest.raises(DeadlockError) as err:
        run.run_to_completion()
    assert str(err.value) == DROPPED_REQUESTS_DEADLOCK


def test_dispatcher_and_cycles_run_only_when_something_is_due(monkeypatch):
    # The dispatcher runs in the cycle after it issued, after a core accepted
    # its latch, or after a fence opened; cycles with nothing due are skipped.
    a = rmat_csr(8, 4, seed=1)
    calls = {"dispatch": 0, "cycle": 0}

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(engine._Dispatcher, "step", counted("dispatch", engine._Dispatcher.step))
    monkeypatch.setattr(engine.SimRun, "_step_cycle", counted("cycle", engine.SimRun._step_cycle))
    stats, _, _ = engine.run_spgemm_simulation(a, a, uarch.CHIP_TILE4, mapper(), seed=1)
    # every issued instruction is accepted once
    assert calls["dispatch"] <= 2 * stats.mmh4_issued + stats.windows + 1
    assert calls["cycle"] < stats.cycles


def test_long_hash_compare_is_not_a_deadlock():
    # On tile4 a region's probe sequence is 2,509 slots long, so a compare
    # with two comparators can take 1,255 cycles, longer than the network
    # and stage latencies alone allow the watchdog to wait. Here mem 0's
    # engine spends 978 cycles on one compare. The run may still fail on a
    # full hashpad, but never as a deadlock.
    coo = matio.generate_rmat(matio.RmatParams(scale=8, edge_factor=4, seed=2))
    a = matio.to_csr(coo)
    try:
        engine.run_spgemm_simulation(
            a, a, uarch.CHIP_TILE4, mapper(mapping.DRHM_HIGH), seed=2,
            eviction_mode=engine.BARRIER,
        )
    except DeadlockError as err:
        pytest.fail(f"a hash compare was taken for a deadlock: {err}")
    except SimulationError:
        pass


def test_wake_cycle_not_in_future_is_rejected(monkeypatch):
    a = rmat_csr(4, 2, seed=19)
    plan, wplan, prog = lower_for(a, a)
    run = engine.SimRun(prog, uarch.CHIP_TILE4, mapper(), plan, window_plan=wplan, seed=1)
    monkeypatch.setattr(uarch.MemModel, "step", lambda self, run, cycle: cycle)
    with pytest.raises(SimulationError, match="to be stepped at cycle"):
        run.run_to_completion()


@pytest.mark.parametrize("end", ["finished", "raised", "dropped"])
def test_ended_run_freed_without_cycle_collector(monkeypatch, end):
    # Once a run has finished or raised, or after a few cycles of it,
    # dropping the last reference to it must free it at once. The collector
    # is off here, so a reference cycle through a component would keep it
    # alive.
    a = rmat_csr(5, 4, seed=2)
    plan, wplan, prog = lower_for(a, a)
    run = engine.SimRun(prog, uarch.CHIP_TILE4, mapper(), plan, window_plan=wplan, seed=1)
    if end == "raised":
        monkeypatch.setattr(uarch.MemModel, "step", lambda self, run, cycle: cycle)
    gc.disable()
    try:
        if end == "dropped":
            for _ in range(50):
                run._step_cycle()
                run.cycle += 1
            assert run.stats.mmh4_issued and not run._finished()
        else:
            with pytest.raises(SimulationError) if end == "raised" else nullcontext():
                run.run_to_completion()
        ref = weakref.ref(run)
        del run
        assert ref() is None
    finally:
        gc.enable()


def test_grid_tallies_sum_to_hacc_count():
    a = rmat_csr(6, 4, seed=20)
    plan = oracle.symbolic_pass(a, a)
    stats, _, _ = engine.run_spgemm_simulation(a, a, uarch.CHIP_TILE4, mapper(), seed=4)
    assert int(stats.grid.sum()) == plan.total_fma
    assert sum(stats.mem_loads) == plan.total_fma
    assert sum(stats.core_loads) == plan.total_fma


# ---------------------------------------------------------------------------
# Pinned outputs
# ---------------------------------------------------------------------------


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# Each run covers a different model path: rolling and barrier eviction,
# multi-window fences with and without barrier flushes, the larger tile16
# torus, single-cycle tag compare (4,096 comparators per engine, more than
# the 2,509 slots of tile4's probe sequence), the 256-core tile16-gnn chip,
# whose two-flit router queues make the ring bubble block flits often, and
# a one-flit injection queue, behind which cores hold packets in their
# outbox most of the time. The first run has
# non-zero reg, operand, port and dispatch stalls. On the next to last, a
# 512-cycle memory channel leaves most cycles with nothing due, which the
# engine jumps over, samples included. The last flushes seven windows on
# tile16 through a congested network: about a quarter of its router
# visits would move nothing, so routers and outboxes park and wake there
# all the time. Any change to these digests is a change of the modelled
# machine, not of the engine's speed.
PINNED_RUNS = [
    # (id, (rmat scale, edge factor, seed), chip, mapper, eviction mode, spad budget
    #  or None for the chip's default, sha256 of stats.json, result CSR,
    #  occupancy_trace, inflight_trace)
    ("tile4-rolling-drhm-low", (7, 4, 3), uarch.CHIP_TILE4, mapping.DRHM_LOW, engine.ROLLING, None,
     "c8ea668740755970fd14f6a6fa7bdc17b9d24c07252acaf3faf61c556b54a274",
     "4e231754fac67794292987171e73ff651540718318a17dac1a00145235bc2fcd",
     "1900066ed06975a3fd64fbc7a042d699785d9d25999b252c714fc3cca00ff250",
     "bfcfb2d1947c29037ffb3fdf7f7c300bd34c28bbe6881cc57c83366eec72841f"),
    ("tile4-barrier-ring-windows", (6, 6, 21), uarch.CHIP_TILE4, mapping.RING, engine.BARRIER, 512,
     "19fe17160821c9014f9a94e370b76c7b605d56ccf3349eaf61498d9dfa6913de",
     "61fa63a86af288a49037f42ab4f4b41ea5a63f2b57d911d993e9303c2ace4933",
     "e24135e898872e0739439b01776b525bd5e41e86ea5f1f8ea43ed376df4fa662",
     "510c91fe77dd7ac476a38f396b61cb205f081b2a891e83c1853f76b3559346b9"),
    ("tile16-barrier-random", (6, 4, 7), uarch.CHIP_TILE16, mapping.RANDOM_TABLE, engine.BARRIER,
     None,
     "cadadeb23e00d31358059ef62a7700740b6874802bcc18ffa83413c50b9c68d8",
     "5b55008794d9a7bb607b09bbe115f21b360b52b4e474db089157fee478b74f3b",
     "0776482d21c15dc5955d2cdcc0118b0cf13a678d863c6d026ee3710a092770bb",
     "ba3cc5296ae4a49bc11cc15b29eeb017fbf1dd17cc1f4d184579c5e65e38157b"),
    ("tile4-full-parallel-compare", (6, 4, 11),
     replace(uarch.CHIP_TILE4, tile=replace(uarch.TILE4, tag_comparators_per_engine=1 << 12)),
     mapping.DRHM_LOW, engine.ROLLING, None,
     "4b7ae6e75d06829838ac6222d8dca9a82ae4316e704e509822365a6f6c366293",
     "3a0a5064786ea5201257f2d833850a305a2c60e2a4cdd9152d59d9293e9e04f0",
     "132f9332d6b38dac6359a4f1ab5e796d9c0f3b362441a708f7141c471487b0cd",
     "eae572e2560ceb48f56f71febd51adbc8fed14cf0f85b4ebc9575310c0bab6be"),
    ("tile4-rolling-windows", (7, 6, 3), uarch.CHIP_TILE4, mapping.DRHM_LOW, engine.ROLLING, 512,
     "729838aa726c1a2e2ea98258a8e9088567f21738282bc38fd8e644ed8e0893f6",
     "d653554f920817ca76c1fc112519eb43d1bbb461132a43281d8010441e0fb635",
     "8162011f18bcdb1a9c787b3b68c8fb3ec95c3ed87c7e47219b86c0a665106734",
     "bc302d7d410d7af23b194b92f82a7754d328e387b65488f990ce402e7123fb97"),
    ("tile16-gnn-rolling-drhm-low", (6, 4, 5), uarch.named_chip("tile16-gnn"), mapping.DRHM_LOW,
     engine.ROLLING, None,
     "e26242646b9d255c6b35fceb1d14217ac69de902c6b203956006194cf6497f75",
     "073ff8eba52da3f1ca874af872b198708667f3a8f381d3df6063fedbfc59865e",
     "c67afa2a4e0d69365b6ae208b9ddfb7e5a176baf4c0dd3b8384d5a22105d3ffe",
     "c46b94318727aadf639beb93abdf355e7620e27535549027e357b40fed7dd69c"),
    ("tile4-injection-depth-1", (7, 4, 13), replace(uarch.CHIP_TILE4, injection_depth=1),
     mapping.DRHM_LOW, engine.ROLLING, None,
     "6202b356fd8791409a32b1a1c2efc26d40438a40a16a98e61a664c1e2899b9c0",
     "a2e4cde7aa7e236694b6a51e0c567e48c65d847ca7cc8fee03e6f3b7ac92bd88",
     "14472ba101adb813ffebe8a1c1b47ae989fc7657e01c48bd56ae55330737eba5",
     "8a3c70e590c5e2003e8f36eb7a73273bf7196e95eea043960ce050a0235658d0"),
    ("tile4-barrier-channel-latency-512", (6, 4, 1),
     replace(uarch.CHIP_TILE4, channel_fixed_latency=512), mapping.DRHM_LOW, engine.BARRIER, None,
     "0ee3778448eaec2115e828a08cfe6482b89aba0de7f6a6eef7e8055b929402c6",
     "77c2d01e91e5a9e3bba4dc924b82bee54fcb21181ea29f40e8e9e1da98752ac6",
     "342280be28be4315a9f936fbd684f299e84ac529f6bca5278ae2ead4867b70fa",
     "5ec406fa397acbce746e436d7f975ef024d0d099c4e534b27f6ab5e93390824d"),
    ("tile16-barrier-ring-flushes", (7, 4, 2), uarch.CHIP_TILE16, mapping.RING, engine.BARRIER,
     1024,
     "ddba57c4c39494b1ccff9f941c0fb642d9efd0db928de99281705c36be10dcf2",
     "8a86b26d660a3978eff76f60786e115ac8b8557d1a7ec57408c2bf15c5ae3ec3",
     "ece51f5d2649ed2e415942af99fa937015bb9e6230d2c611b8929c001307775c",
     "82fed34b606857f101eb85759ea3a2a3121964ba13095986bd08d261203c6aeb"),
]


@pytest.mark.parametrize(
    "rmat,chip,strategy,mode,budget,want", [pytest.param(*c[1:6], c[6:], id=c[0]) for c in PINNED_RUNS]
)
def test_pinned_run_digests(rmat, chip, strategy, mode, budget, want):
    scale, edge_factor, seed = rmat
    a = rmat_csr(scale, edge_factor, seed)
    if budget is None:
        stats, out, _ = engine.run_spgemm_simulation(a, a, chip, mapper(strategy), seed=seed, eviction_mode=mode)
    else:
        plan, wplan, prog = lower_for(a, a, budget)
        run = engine.SimRun(prog, chip, mapper(strategy), plan, wplan, seed=seed, eviction_mode=mode)
        stats, out = run.run_to_completion(), run.result
    got = (
        digest(stats.to_json().encode()),
        digest(out.row_offsets.tobytes() + out.col_indices.tobytes() + out.values.tobytes()),
        digest(json.dumps(stats.occupancy_trace).encode()),
        digest(json.dumps(stats.inflight_trace).encode()),
    )
    assert got == want
