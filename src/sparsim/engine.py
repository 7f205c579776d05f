"""Deterministic cycle-driven simulation kernel.

Each cycle has three phases. The dispatcher issues tile instructions to
cores (phase 0); every component that is due advances one cycle touching
only its own state and outbox (phase 1); the engine then commits all
cross-component transfers in one pass (phase 2): the live routers in rid
order, then every outbox that holds packets, in component order, whether
or not its owner stepped this cycle. The commit visits only what can move.
A router still holding a flit after its visit is re-armed for the next
cycle, unless every head it holds is blocked by credit; then it is parked
until a queue it feeds pops, and an outbox that stops at a full injection
queue is parked until its router pops from that queue. A parked unit's
visits would have moved nothing, so parking changes no flit's timing.
One table maps a cycle to the components due then. A component is due
when a step of it asked for this cycle (the next one, or the end of a
latency it waits for), or when the engine gave it work: a delivered
packet, a dispatched instruction, or, for a core, the departure of an
instruction's last HACC. A component waiting only on a latency or on its
outbox is not stepped. No request is withdrawn: each ends a latency that
no earlier step can finish, so a component stepped sooner asks for that
cycle again anyway. Because inter-component effects only happen in the
commit phase, final statistics and the output matrix are bit-for-bit
functions of (program, chip config, mapper config, seed).

The loop runs on events. The dispatcher is called only in the cycle after
it issued, after a core accepted its latched instruction, or after a
window fence opened; in any other cycle it would repeat its last call, so
its next call adds that call's dispatch stall for each cycle it sat out,
and a blocked dispatch still counts one stall per cycle. After a cycle
that leaves nothing due next, no live router, no sending outbox and the
dispatcher not ready, nothing can change until the earliest cycle a
component asked for (a parked unit waits on a pop, which only a live
router makes), and the run jumps there. The occupancy and in-flight
samples that fall in the skipped span and the watchdog's idle count are
taken as if each cycle had been stepped, so a deadlock raises at the same
cycle with the same dump. ``_step_cycle`` stays the one way to advance a
single cycle.

The run passes itself to the dispatcher's and every component's ``step``
(and to a mem's ``flush_all``); no component keeps a link back to it, so
dropping the last reference to a run frees it at once, mid-run included.

Window fences need no per-window tallies: the dispatcher never issues an
instruction of a later window, so every issued MMH4 and every HACC in
flight belongs to the current window, and the window has drained once
its last instruction is issued, retired MMH4s equal issued ones and
committed HACCs equal created ones.

The memory system is an analytic channel model per tile: bandwidth cap,
fixed pipelined latency, bounded queue. Runs end when the last window has
drained, every hash line has been evicted and written back, and all
queues are empty; conservation invariants are checked at exit. The
product is then read out of the symbolic plan's slots, each holding its
element's evicted value: a run that does not evict each plan element
exactly once raises SimulationError (exit 1 from the CLI). A watchdog
raises a diagnostic deadlock error if nothing makes progress for an
extended window.
"""

from __future__ import annotations

import json
import time
from bisect import insort
from dataclasses import replace

import numpy as np

from . import isa, matio, oracle
from .errors import DeadlockError, SimulationError
from .mapping import Mapper, MapperConfig
from .oracle import probe_sequence
from .uarch import (
    ChipConfig,
    K_EVICT,
    K_HACC,
    K_REQ,
    K_RESP,
    P_EAST,
    P_NORTH,
    P_SOUTH,
    P_WEST,
    STAGE_NAMES,
    TIE_X,
    build_chip,
    hash_engine,
)

__all__ = [
    "SimRun",
    "SimStats",
    "ROLLING",
    "BARRIER",
    "run_spgemm_simulation",
    "run_mapper_config",
    "region_load",
]

ROLLING = "rolling"
BARRIER = "barrier"
SAMPLE_INTERVAL = 64  # cycles between occupancy and in-flight read samples

_RING = (0, 1, 1, 2, 2)  # ring (1 = X, 2 = Y) each output port travels along
# Input-queue scan order per (cycle + rid) % 5, rotating which input goes first.
_SCAN = tuple(tuple((start + off) % 5 for off in range(5)) for start in range(5))
_BACK = (0, P_WEST, P_EAST, P_SOUTH, P_NORTH)  # the port at the other end of a link
# Bits of the output ports a credit-blocked head waits on, by its next_port
# entry: its port, or both ways of a half-way tie (a blocked tie means both
# ways are full, since it picked the shorter queue).
_WAIT = (
    0, 1 << P_EAST, 1 << P_WEST, 1 << P_NORTH, 1 << P_SOUTH,
    1 << P_EAST | 1 << P_WEST, 1 << P_NORTH | 1 << P_SOUTH,
)


def _router_table(router):
    """What the commit reads of a router, built once per run:
    (router, next_port, ports, scans). ``ports[port]`` is (port bit, ring,
    the queue it feeds, the rid it reaches) for ports 1-4. ``scans[start]``
    lists the input queues in ``_SCAN[start]`` order as (queue, flits it may
    move a cycle, the rid feeding it, that router's port bit); outboxes feed
    the injection queue, rid -1.
    """
    ports = (None,) + tuple(
        (1 << p, _RING[p], router.out_q[p], router.out_rid[p]) for p in range(1, 5)
    )
    inputs = [(router.in_q[0], 4, -1, 0)] + [
        (router.in_q[qi], 1, router.out_rid[qi], 1 << _BACK[qi]) for qi in range(1, 5)
    ]
    scans = tuple(tuple(inputs[qi] for qi in order) for order in _SCAN)
    return router, router.next_port, ports, scans


class SimStats:
    """Counters and traces of one run; serializes to a stable JSON schema.

    Each count is kept once. The core and mem loads are the row and
    column sums of ``grid``; ``evictions`` is the number of values the
    mems evicted; ``bytes_read`` and ``bytes_written`` are the granule
    times the read and write transactions.

    Wall-clock derived numbers (simulated kilocycles and committed HACCs
    per host second) stay out of the JSON so repeated runs are
    byte-identical; they live on the object for sidecar logging.
    """

    def __init__(self):
        self.cycles = 0
        self.mmh4_issued = 0
        self.mmh4_retired = 0
        self.hacc_created = 0
        self.hacc_committed = 0
        self.evictions = 0
        self.stalls = {"reg": 0, "operand": 0, "port": 0, "dispatch": 0}
        self.cpi = {}  # kind -> {cycles: count}
        self.core_loads = []
        self.mem_loads = []
        self.grid = None  # cores x mems HACC traffic
        self.hashpad_occupancy_max = 0
        self.hashpad_occupancy_final = 0
        self.hashpad_capacity = 0
        self.occupancy_trace = []  # (cycle, occupancy)
        self.inflight_trace = []  # (cycle, outstanding reads)
        self.peak_inflight_reads = 0
        self.flits = 0
        self.hops_total = 0
        self.bytes_read = 0
        self.bytes_written = 0
        self.read_transactions = 0
        self.write_transactions = 0
        self.reads_merged = 0
        self.mapper_assignments = 0
        self.mapper_strategy = ""
        self.eviction_mode = ROLLING
        self.seed = 0
        self.windows = 0
        self.conservation = {}
        self.kcps = 0.0  # sidecar only
        self.hacc_per_s = 0.0  # sidecar only: committed HACCs per engine second
        self.wall_seconds = 0.0  # sidecar only

    def mean_cpi(self, kind: str) -> float:
        hist = self.cpi.get(kind, {})
        total = sum(hist.values())
        return sum(c * n for c, n in hist.items()) / total if total else 0.0

    def to_json_dict(self) -> dict:
        return {
            "schema": "sparsim-stats-v1",
            "cycles": self.cycles,
            "instructions": {
                "mmh4_issued": self.mmh4_issued,
                "mmh4_retired": self.mmh4_retired,
                "hacc_created": self.hacc_created,
                "hacc_committed": self.hacc_committed,
            },
            "evictions": self.evictions,
            "stalls": dict(sorted(self.stalls.items())),
            "cpi": {
                kind: {
                    "count": sum(h.values()),
                    "mean": self.mean_cpi(kind),
                    "histogram": {str(c): h[c] for c in sorted(h)},
                }
                for kind, h in sorted(self.cpi.items())
            },
            "loads": {"core": self.core_loads, "mem": self.mem_loads},
            "hashpad": {
                "occupancy_max": self.hashpad_occupancy_max,
                "occupancy_final": self.hashpad_occupancy_final,
                "capacity": self.hashpad_capacity,
            },
            "network": {"flits": self.flits, "hops_total": self.hops_total},
            "memory": {
                "bytes_read": self.bytes_read,
                "bytes_written": self.bytes_written,
                "read_transactions": self.read_transactions,
                "write_transactions": self.write_transactions,
                "reads_merged": self.reads_merged,
                "peak_inflight_reads": self.peak_inflight_reads,
            },
            "mapper": {
                "assignments": self.mapper_assignments,
                "strategy": self.mapper_strategy,
            },
            "eviction_mode": self.eviction_mode,
            "seed": self.seed,
            "windows": self.windows,
            "conservation": dict(sorted(self.conservation.items())),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=1)


class _Dispatcher:
    """Issues tile instructions in program order: round-robin over cores
    with buffer space, consecutive tiles of one A-column group pinned to
    one core, window fences respected. A core's latch takes the
    instruction's index in the program. The dispatcher keeps no link to its
    run, which passes itself to ``step``.

    The run calls ``step`` only while ``ready``: in the cycle after a call
    that issued, after a core accepted its latched instruction (the core
    tells the run), or after a window fence opened. A call that issues
    nothing changes nothing but the dispatch stall count, and what it reads
    (the pointer, the latches, the current window) changes only by those
    three events, so every cycle the dispatcher sits out would have
    repeated its last call; the next call adds that call's stall, at most
    one, for each of them.
    """

    def __init__(self, windows, groups):
        self.windows = windows  # window of each instruction, a list
        self.groups = groups  # A-column group of each instruction, a list
        self.n_instrs = len(windows)
        self.pointer = 0
        self.rr = 0
        self.active_group = None
        self.active_core = None
        self.log = []  # (instr index, core id)
        self.ready = True
        self.last_step = -1  # cycle of the last call
        self.stalling = 0  # dispatch stalls the last call counted

    @property
    def done(self) -> bool:
        return self.pointer >= self.n_instrs

    def step(self, run, cycle, due) -> int:
        """Fill free core latches, adding each filled core to ``due``, the
        components stepped this cycle; returns the instructions issued."""
        stalls = run.stats.stalls
        skipped = cycle - self.last_step - 1
        if skipped > 0 and self.stalling:
            stalls["dispatch"] += skipped
        self.last_step = cycle
        stalled = 0
        windows = self.windows
        groups = self.groups
        cores = run.chip.cores
        pushed = set()
        while self.pointer < self.n_instrs:
            n = self.pointer
            if windows[n] != run.current_window:
                break  # fence: previous window still draining
            group = groups[n]
            if group == self.active_group:
                core = cores[self.active_core]
                if core.id in pushed or core.dispatch_latch is not None:
                    if core.dispatch_latch is not None and core.id not in pushed:
                        stalled = 1
                    break
            else:
                core = self._next_free_core(cores, pushed)
                if core is None:
                    stalled = 1
                    break
                self.active_group = group
                self.active_core = core.id
            core.dispatch_latch = n
            due.add(core._engine_idx)
            run.stats.mmh4_issued += 1
            self.log.append((n, core.id))
            pushed.add(core.id)
            self.pointer += 1
        stalls["dispatch"] += stalled
        self.stalling = stalled
        self.ready = bool(pushed)
        return len(pushed)

    def _next_free_core(self, cores, pushed):
        n = len(cores)
        for off in range(n):
            core = cores[(self.rr + off) % n]
            if core.dispatch_latch is None and core.id not in pushed:
                self.rr = (self.rr + off + 1) % n
                return core
        return None


class SimRun:
    """One simulation: program + chip + mapper + seed, advanced to
    completion deterministically."""

    def __init__(
        self,
        program: isa.Program,
        chip_cfg: ChipConfig,
        mapper_cfg: MapperConfig,
        plan,
        window_plan,
        seed: int = 0,
        eviction_mode: str = ROLLING,
        trace_stages: bool = False,
    ):
        if eviction_mode not in (ROLLING, BARRIER):
            raise SimulationError(f"unknown eviction mode {eviction_mode!r}")
        self.program = program
        self.chip_cfg = chip_cfg
        self.chip = build_chip(chip_cfg)
        self.eviction_mode = eviction_mode
        self.rolling_evictions = eviction_mode == ROLLING
        self.cycle = 0
        self.stats = SimStats()
        self.stats.seed = seed
        self.stats.eviction_mode = eviction_mode
        self.stats.hashpad_capacity = chip_cfg.n_mems * chip_cfg.tile.hashlines_per_mem
        self.stats.windows = program.n_windows

        mapper_cfg = run_mapper_config(mapper_cfg, chip_cfg, program.layout, seed)
        self.mapper = Mapper(mapper_cfg)
        self.stats.mapper_strategy = mapper_cfg.strategy

        self.trace_stages = trace_stages
        self.stage_traces = []  # one per retired instruction when trace_stages is set

        # Output region: evictions write 12-byte elements row-contiguously
        # after the input image; addresses drive channel interleave only.
        granule = chip_cfg.granule
        image_end = program.image._next_base
        self._out_base = ((image_end + granule - 1) // granule) * granule
        self.plan = plan
        self._col_bits = program.layout.col_bits

        self.n_windows = max(program.n_windows, 1)
        self.current_window = 0
        self._window_caps = window_plan.window_capacity().tolist()

        # Every HACC the cores will send, expanded once; a core turns its
        # tile's slice into Python values when it executes the tile.
        offsets, self._lane_tags, self._lane_data, self._lane_counters = isa.expand_program(program)
        self._lane_offsets = offsets.tolist()
        reads = program.operand_reads()
        self._read_addrs = np.column_stack([addrs for addrs, _, _ in reads])
        self._read_bytes = np.column_stack([counts * size for _, counts, size in reads])
        self.dispatcher = _Dispatcher(program.window.tolist(), program.group.tolist())
        self.components = list(self.chip.cores) + list(self.chip.mems) + list(self.chip.memctrls)
        for idx, comp in enumerate(self.components):
            comp._engine_idx = idx
        self.hashpad_lines = 0  # live hashpad lines over all mems
        self._due = {}  # cycle -> components to step then
        self._sending = set()  # components whose outbox holds packets, parked ones aside
        self._live_routers = set()  # routers to visit in the next commit
        routers = self.chip.routers
        # Per router: the bits of the ports its credit-blocked heads wait on
        # while it is parked, else 0; and the parked outboxes waiting on its
        # injection queue.
        self._parked = [0] * len(routers)
        self._inj_waiting = [[] for _ in routers]
        self._parked_outboxes = set()
        self._router_tabs = [_router_table(router) for router in routers]
        # Per component: (component, outbox, rid, injection queue, a core's
        # in-flight instructions or None).
        self._outbox_tabs = [
            (comp, comp.outbox, comp.rid, routers[comp.rid].in_q[0],
             comp.inflight if idx < self.chip.n_cores else None)
            for idx, comp in enumerate(self.components)
        ]
        # What the commit reads of the chip config and the mapper.
        self._net = (
            chip_cfg.router_queue_depth, chip_cfg.mem_inbox_depth, chip_cfg.injection_depth,
            chip_cfg.tile.ports, chip_cfg.eviction_path == "direct", self.chip.mem_rids,
            self.mapper.map_for_accumulation,
        )
        self.reads_outstanding = 0
        self.evictions_arrived = 0
        self.net_flits = 0
        self.result = None

    # -- run state the components read and report to --------------------------

    def lane_count(self, n: int) -> int:
        """HACCs instruction n dispatches."""
        return self._lane_offsets[n + 1] - self._lane_offsets[n]

    def lanes(self, n: int):
        """Instruction n's HACCs as lists: (tags, products, counters)."""
        lo, hi = self._lane_offsets[n], self._lane_offsets[n + 1]
        return (
            self._lane_tags[lo:hi].tolist(),
            self._lane_data[lo:hi].tolist(),
            self._lane_counters[lo:hi].tolist(),
        )

    def operand_reads(self, n: int):
        """Instruction n's four operand reads: (byte address, bytes) each."""
        return zip(self._read_addrs[n].tolist(), self._read_bytes[n].tolist())

    def memctrl_rid_for(self, addr: int) -> int:
        tile = (addr // self.chip_cfg.granule) % len(self.chip.memctrls)
        return self.chip.memctrl_rids[tile]

    def core_rid(self, core_id: int) -> int:
        return self.chip.core_rids[core_id]

    def eviction_target(self, tag: int) -> int:
        """Byte address the write-back of output element ``tag`` goes to."""
        return self._out_base + int(self.plan.out_offsets[tag >> self._col_bits]) * 12

    def on_latch_accepted(self):
        self.dispatcher.ready = True

    def on_mmh4_retired(self):
        self.stats.mmh4_retired += 1

    def on_hacc_committed(self):
        self.stats.hacc_committed += 1

    def on_line_claimed(self):
        self.hashpad_lines += 1

    def on_line_freed(self):
        self.hashpad_lines -= 1

    def on_eviction_arrived(self):
        self.evictions_arrived += 1

    # -- main loop ------------------------------------------------------------

    def run_to_completion(self) -> SimStats:
        t0 = time.perf_counter()
        cfg = self.chip_cfg
        diameter = self.chip.width // 2 + self.chip.height // 2 + 1
        max_stage = max(
            cfg.decode_latency, cfg.regalloc_latency, cfg.mul_latency,
            cfg.accumulate_latency, cfg.channel_fixed_latency,
        )
        # A hash compare may examine every slot of a region's probe sequence
        # and makes no progress until it ends.
        probes = sum(1 for _ in probe_sequence(0, self.chip.mems[0].regions[0].capacity))
        longest_compare = 1 if cfg.full_parallel_compare else -(
            -probes // cfg.tile.tag_comparators_per_engine
        )
        watchdog_limit = 10 * (diameter + max_stage) + longest_compare
        idle_cycles = 0
        due = self._due
        dispatcher = self.dispatcher
        n_windows = self.n_windows
        while True:
            progressed = self._step_cycle()
            if self.current_window >= n_windows and self._finished():
                break
            if progressed:
                idle_cycles = 0
            else:
                idle_cycles += 1
                if idle_cycles > watchdog_limit:
                    raise DeadlockError(self._deadlock_dump(watchdog_limit))
            self.cycle += 1
            if not (due.get(self.cycle) or self._live_routers or self._sending or dispatcher.ready):
                idle_cycles = self._skip_idle(idle_cycles, watchdog_limit)
        self.stats.cycles = self.cycle
        self._finalize()
        self.stats.wall_seconds = time.perf_counter() - t0
        if self.stats.wall_seconds > 0:
            self.stats.kcps = (self.cycle / 1000.0) / self.stats.wall_seconds
            self.stats.hacc_per_s = self.stats.hacc_committed / self.stats.wall_seconds
        return self.stats

    def _skip_idle(self, idle_cycles, watchdog_limit) -> int:
        """Jump from ``self.cycle``, a cycle with nothing due, no live router,
        no sending outbox and the dispatcher not ready, to the earliest cycle
        a component asked to be stepped; returns the watchdog's idle count
        there. Until then no step, flit or dispatch can change any state
        (flits and packets may wait in parked routers and outboxes, but only
        a live router's pop wakes them),
        the counts a window fence compares included (a fence that opens
        readies the dispatcher), so the skipped cycles' samples repeat the
        last values and the watchdog counts each of them as idle, raising
        at the cycle it would have tripped on.
        """
        due = self._due
        start = self.cycle
        end = min((c for c, comps in due.items() if comps), default=None)
        trip = start + watchdog_limit - idle_cycles  # first cycle past the limit
        stop = end if end is not None and end <= trip else trip + 1
        stats = self.stats
        first = -(-start // SAMPLE_INTERVAL) * SAMPLE_INTERVAL
        for c in range(first, stop, SAMPLE_INTERVAL):
            stats.occupancy_trace.append((c, self.hashpad_lines))
            stats.inflight_trace.append((c, self.reads_outstanding))
        if stop > trip:
            self.cycle = trip
            raise DeadlockError(self._deadlock_dump(watchdog_limit))
        for c in [c for c in due if c < end]:
            del due[c]  # empty: every cycle anyone asked for is at least end
        self.cycle = end
        return idle_cycles + end - start

    def _step_cycle(self) -> bool:
        cycle = self.cycle
        table = self._due
        due = table.pop(cycle, None)
        if due is None:
            due = set()
        nxt = cycle + 1
        busy = table.get(nxt)
        if busy is None:
            busy = table[nxt] = set()

        # Phase 0: dispatch
        dispatcher = self.dispatcher
        events = dispatcher.step(self, cycle, due) if dispatcher.ready else 0

        # Phase 1: step the due components (each touches its own state only)
        comps = self.components
        sending = self._sending
        parked_outboxes = self._parked_outboxes
        for idx in sorted(due):
            comp = comps[idx]
            wake = comp.step(self, cycle)
            if wake:
                if wake == nxt:
                    busy.add(idx)
                elif wake > nxt:
                    table.setdefault(wake, set()).add(idx)
                else:
                    raise SimulationError(
                        f"component {idx} asked at cycle {cycle} to be stepped at cycle {wake}"
                    )
            if comp.outbox and idx not in parked_outboxes:
                sending.add(idx)
            events += comp.activity
            comp.activity = 0

        # Phase 2: commit in canonical order
        events += self._commit(cycle, busy)

        stats = self.stats
        if stats.mmh4_retired == stats.mmh4_issued and stats.hacc_committed == stats.hacc_created:
            events += self._advance_window_fence()
        # Mems report every line they claim or free, so the count is current.
        occ = self.hashpad_lines
        if occ > stats.hashpad_occupancy_max:
            stats.hashpad_occupancy_max = occ
        w, caps = self.current_window, self._window_caps
        if w < len(caps) and occ > caps[w]:
            raise SimulationError(
                f"hashpad occupancy {occ} exceeds window {w} capacity {caps[w]} at cycle {cycle}"
            )
        if cycle % SAMPLE_INTERVAL == 0:
            stats.occupancy_trace.append((cycle, occ))
            stats.inflight_trace.append((cycle, self.reads_outstanding))
        return events > 0

    def _commit(self, cycle, woken) -> int:
        """Move each flit that can move one hop, then drain the outboxes;
        ``woken`` collects the components to step next cycle.

        Live routers are visited once each, in rid order, and each scans its
        input queues in the ``_SCAN`` rotation. A direction input moves one
        flit per cycle, the injection queue up to four (the component's
        ports); a router ejects at most four flits over all its inputs and
        sends one per output port. Bubble rule: continuing along a ring needs
        one free slot downstream, entering a ring (first hop or X->Y turn)
        needs two. Then every outbox that holds packets drains, in component
        order, whether or not its owner stepped this cycle. A delivery steps
        the receiving unit next cycle, and so does the departure of an
        instruction's last HACC for its core, which can then retire it.
        Returns the number of flits moved.

        Only a unit that can move is visited. A router still holding a flit
        after its visit is re-armed for the next commit, unless every head
        it holds is blocked by credit: then it is parked, and no visit could
        move anything until the queue a head waits on pops. That pop wakes
        it: if the popping router has a lower rid, the parked one is visited
        later in the same commit, at its rid position, as it would have been
        while live; otherwise it is armed for the next commit. Every arrival
        still arms the router it reaches. An outbox that stops at a full
        injection queue is parked likewise until its router pops from that
        queue, and then drains in the same commit. A parked unit's skipped
        visits would have moved nothing, so every flit moves in the same
        cycle as if each unit holding one were visited every commit.
        """
        depth, mem_depth, inj_cap, n_ports, direct_evictions, mem_rids, map_tag = self._net
        routers = self.chip.routers
        router_tabs = self._router_tabs
        parked = self._parked
        inj_waiting = self._inj_waiting
        sending = self._sending
        woken_add = woken.add
        armed = self._live_routers  # this commit's routers, before any wake
        visit = sorted(armed)
        live = set()
        arm = live.add
        hops = ejected = responses = 0

        # A router woken for this commit is inserted after the one visiting,
        # and the list's iterator reaches it there.
        for rid in visit:
            router, next_port, out, scans = router_tabs[rid]
            out_used = 0
            eject_cap = ejected + 4
            keep = False  # a head may move next commit
            wait = 0
            for q, budget, feeder, feeder_bit in scans[(cycle + rid) % 5]:
                if not q:
                    continue
                left = budget
                while True:
                    pkt = q[0]
                    if pkt.moved_at == cycle:
                        # Arrived this commit: it may move next cycle, so the
                        # router stays live, whatever its other heads wait on.
                        keep = True
                        break
                    port = way = next_port[pkt.dst]
                    if port > P_SOUTH:  # half-way tie
                        out_q = router.out_q
                        if port == TIE_X:
                            port = P_EAST if len(out_q[P_EAST]) <= len(out_q[P_WEST]) else P_WEST
                        else:
                            port = P_SOUTH if len(out_q[P_SOUTH]) <= len(out_q[P_NORTH]) else P_NORTH
                    if port == 0:  # eject here
                        # A head held back by the ejection cap or by a full
                        # mem inbox keeps the router live: the inbox drains
                        # when its mem steps, which wakes no router.
                        if ejected == eject_cap:
                            keep = True
                            break
                        kind = pkt.kind
                        if kind == K_HACC:
                            comp = router.component
                            if len(comp.inbox) >= mem_depth:
                                keep = True
                                break
                        elif kind == K_RESP:
                            comp = router.component
                            responses += 1
                        else:  # K_REQ / K_EVICT
                            comp = router.memctrl
                        q.popleft()
                        pkt.moved_at = cycle  # acceptance stamp at the unit
                        comp.inbox.append(pkt)
                        woken_add(comp._engine_idx)
                        ejected += 1
                    else:
                        bit, ring, nq, nrid = out[port]
                        if out_used & bit:
                            keep = True
                            break  # one flit per output port per cycle
                        if len(nq) > depth - (1 if pkt.ring == ring else 2):
                            wait |= _WAIT[way]
                            break  # credit backpressure (with the ring bubble)
                        q.popleft()
                        pkt.ring = ring
                        pkt.moved_at = cycle
                        nq.append(pkt)
                        arm(nrid)
                        out_used |= bit
                        hops += 1
                    left -= 1
                    if not q:
                        break
                    if not left:
                        keep = True
                        break
                if left == budget:
                    continue
                # The queue popped: wake the unit that waits to feed it.
                if feeder >= 0:
                    if parked[feeder] & feeder_bit:
                        parked[feeder] = 0
                        if feeder < rid:
                            arm(feeder)
                        elif feeder not in armed:
                            # A parked router armed for this commit by an
                            # arrival is visited once, at its own rid.
                            insort(visit, feeder)
                elif inj_waiting[rid]:
                    waiting = inj_waiting[rid]
                    sending.update(waiting)
                    self._parked_outboxes.difference_update(waiting)
                    waiting.clear()
            if keep:
                arm(rid)  # re-armed after its own visit
                parked[rid] = 0
            else:
                # Parked if it still holds flits. Arming a parked router for
                # the next commit leaves this mark, so a pop later in this
                # commit still wakes it in this commit.
                parked[rid] = wait

        stats = self.stats
        outbox_tabs = self._outbox_tabs
        reads = self.reads_outstanding - responses
        injected = direct = 0
        for idx in sorted(sending):
            comp, outbox, rid, injq, inflight = outbox_tabs[idx]
            budget = n_ports
            while outbox and budget:
                pkt = outbox[0]
                kind = pkt.kind
                if kind == K_EVICT and direct_evictions:
                    outbox.popleft()
                    mc = routers[pkt.dst].memctrl
                    mc.inbox.append(pkt)
                    woken_add(mc._engine_idx)
                    direct += 1
                    budget -= 1
                    continue
                if len(injq) >= inj_cap:
                    break
                outbox.popleft()
                if kind == K_HACC:
                    pkt.dst = mem_rids[map_tag(pkt.payload[0])]
                    stats.hacc_created += 1
                    if inflight is not None:
                        rec = inflight.get(pkt.payload[4])
                        if rec is not None:
                            rec.haccs_pending -= 1
                            if not rec.haccs_pending:
                                woken_add(idx)  # the core can retire it
                elif kind == K_REQ:
                    reads += 1
                    if reads > stats.peak_inflight_reads:
                        stats.peak_inflight_reads = reads
                injq.append(pkt)
                pkt.moved_at = cycle  # first hop happens next cycle
                arm(rid)
                injected += 1
                budget -= 1
            if not outbox:
                sending.discard(idx)
            elif budget == 0:
                comp.stalls_port += 1
            else:  # stopped at a full injection queue
                sending.discard(idx)
                self._parked_outboxes.add(idx)
                inj_waiting[rid].append(idx)

        self._live_routers = live
        stats.hops_total += hops
        stats.flits += injected
        self.net_flits += injected - ejected
        self.reads_outstanding = reads
        return hops + ejected + injected + direct

    def _advance_window_fence(self) -> int:
        """Open the next window if the current one has drained (the caller compares counters)."""
        w = self.current_window
        if w >= self.n_windows:
            return 0
        dispatcher = self.dispatcher
        if not dispatcher.done and dispatcher.windows[dispatcher.pointer] == w:
            return 0
        for mem in self.chip.mems:
            if self.eviction_mode == BARRIER:
                mem.flush_all(self)
                if mem.outbox and mem._engine_idx not in self._parked_outboxes:
                    self._sending.add(mem._engine_idx)
            mem.reset_pads()
        self.current_window = w + 1
        dispatcher.ready = True
        return 1

    def _finished(self) -> bool:
        prog = self.program
        if self.current_window < self.n_windows or self.stats.hacc_created < prog.total_fma:
            return False
        if self.reads_outstanding or self.net_flits:
            return False
        if self.evictions_arrived < prog.total_out_nnz:
            return False
        for mc in self.chip.memctrls:
            if mc.inbox or mc.read_pending or mc.write_pending or mc.inflight or mc.outbox:
                return False
        for mem in self.chip.mems:
            if mem.outbox:
                return False
        return True

    def _deadlock_dump(self, limit) -> str:
        lines = [f"no progress for {limit} cycles at cycle {self.cycle}"]
        oldest = None
        for core in self.chip.cores:
            for rec in core.inflight.values():
                if oldest is None or rec.accept_cycle < oldest[0]:
                    oldest = (rec.accept_cycle, core.id, rec.seq, rec.stage)
            if core.inflight or core.outbox:
                lines.append(
                    f"  core {core.id}: inflight={len(core.inflight)} outbox={len(core.outbox)}"
                )
        if oldest is not None:
            lines.append(
                f"  oldest blocked instruction: core {oldest[1]} seq {oldest[2]} "
                f"stage {STAGE_NAMES.get(oldest[3], oldest[3])} accepted at cycle {oldest[0]}"
            )
        for mem in self.chip.mems:
            if mem.inbox or mem.outbox:
                lines.append(f"  mem {mem.id}: inbox={len(mem.inbox)} outbox={len(mem.outbox)}")
        lines.append(f"  network flits pending: {self.net_flits}")
        return "\n".join(lines)

    def _finalize(self):
        stats = self.stats
        chip = self.chip
        grid = np.zeros((chip.n_cores, chip.n_mems), dtype=np.int64)
        for mem in chip.mems:
            grid[:, mem.id] = mem.grid_row
        stats.grid = grid
        stats.core_loads = grid.sum(axis=1).tolist()
        stats.mem_loads = grid.sum(axis=0).tolist()
        mmh4_hist = {}
        for core in chip.cores:
            stats.stalls["reg"] += core.stalls_reg
            stats.stalls["operand"] += core.stalls_operand
            stats.stalls["port"] += core.stalls_port
            for c, n in core.cpi.items():
                mmh4_hist[c] = mmh4_hist.get(c, 0) + n
        stats.cpi["mmh4"] = mmh4_hist
        kind = "hacc-re" if self.eviction_mode == ROLLING else "hacc-be"
        hacc_hist = {}
        for mem in chip.mems:
            stats.stalls["port"] += mem.stalls_port
            for c, n in mem.cpi.items():
                hacc_hist[c] = hacc_hist.get(c, 0) + n
        stats.cpi[kind] = hacc_hist
        occ = sum(region.occupancy for mem in chip.mems for region in mem.regions)
        stats.hashpad_occupancy_final = occ
        for mc in chip.memctrls:
            stats.read_transactions += mc.transactions_read
            stats.write_transactions += mc.transactions_write
            stats.reads_merged += mc.reads_merged
        stats.bytes_read = self.chip_cfg.granule * stats.read_transactions
        stats.bytes_written = self.chip_cfg.granule * stats.write_transactions
        stats.mapper_assignments = self.mapper.assignments

        evicted = [tv for mem in chip.mems for tv in mem.evicted_values]
        stats.evictions = len(evicted)

        cons = {
            "hacc_created": stats.hacc_created,
            "hacc_committed": stats.hacc_committed,
            "expected_fma": self.program.total_fma,
            "evictions": stats.evictions,
            "expected_out_nnz": self.program.total_out_nnz,
            "hashpad_final": occ,
            "mapper_assignments": stats.mapper_assignments,
            "evictions_written_back": self.evictions_arrived,
        }
        cons["ok"] = bool(
            stats.hacc_committed == self.program.total_fma
            and stats.hacc_created == self.program.total_fma
            and stats.evictions == self.program.total_out_nnz
            and occ == 0
            and stats.mapper_assignments == stats.hacc_created
            and self.evictions_arrived == stats.evictions
        )
        stats.conservation = cons
        if not cons["ok"]:
            raise SimulationError(f"conservation violated: {cons}")

        # The product is the plan's structure with each element's evicted
        # value in its slot; every plan element must be evicted exactly once.
        plan = self.plan
        tags = np.array([tag for tag, _ in evicted], dtype=np.int64)
        order, distinct, offsets = matio.group_by_key(tags)
        want = plan.element_rows() << self._col_bits | plan.out_cols
        if not np.array_equal(tags[order], want):
            # the first element outside the plan, missing, or evicted twice
            odd = np.union1d(np.setxor1d(distinct, want), distinct[np.diff(offsets) > 1])
            tag = int(odd[0])
            raise SimulationError(
                f"output element ({tag >> self._col_bits}, {tag & ((1 << self._col_bits) - 1)}), "
                f"{'in' if (want == tag).any() else 'not in'} the symbolic plan, was evicted "
                f"{np.count_nonzero(tags == tag)} time(s); each plan element must be evicted once")
        values = np.array([value for _, value in evicted], dtype=np.float64)[order]
        self.result = matio.CsrMatrix(
            plan.n_rows, plan.n_cols, plan.out_offsets, plan.out_cols, values
        )


def run_mapper_config(mapper_cfg: MapperConfig, chip_cfg: ChipConfig, layout, seed: int) -> MapperConfig:
    """The config a run maps with: ``mapper_cfg``'s strategy and k, one
    target per mem of the chip, the run's seed and the program's tag layout."""
    return replace(mapper_cfg, n_targets=chip_cfg.n_mems, rng_seed=seed, col_bits=layout.col_bits)


def region_load(plan, window_plan, layout, chip_cfg: ChipConfig, mapper_cfg: MapperConfig,
                seed: int = 0) -> np.ndarray:
    """Lines each hash-engine region would hold if all of a window's output
    elements were live at once, which they are at a barrier fence.

    Returns an int64 array of shape ``(n_windows, n_mems * hash_engines)``;
    column ``mem * hash_engines + engine`` is that engine's region of that
    mem. The targets are the run's mapper's (``run_mapper_config``), so
    ring, whose targets follow arrival order, raises ConfigError. Compare
    the counts with ``uarch.region_capacity(chip_cfg.tile)``.
    """
    mapper = Mapper(run_mapper_config(mapper_cfg, chip_cfg, layout, seed))
    n_engines = chip_cfg.tile.hash_engines
    n_regions = chip_cfg.n_mems * n_engines
    n_windows = window_plan.n_windows
    rows = plan.element_rows()
    tags = rows << layout.col_bits | plan.out_cols
    row_window = window_plan.window_of_row(plan.n_rows)
    region = mapper.targets(tags) * n_engines + hash_engine(tags, n_engines)
    cells = np.bincount(row_window[rows] * n_regions + region, minlength=n_windows * n_regions)
    return cells.reshape(n_windows, n_regions)


def run_spgemm_simulation(
    a_csr,
    b_csr,
    chip_cfg: ChipConfig,
    mapper_cfg: MapperConfig,
    seed: int = 0,
    eviction_mode: str = ROLLING,
    trace_stages: bool = False,
):
    """Lower C = A * B, simulate it, and return (stats, output CSR, run).

    The window plan budgets half the chip's hashpad lines,
    ``n_mems * hashlines_per_mem // 2``, for the whole chip. That bounds the
    chip-wide load, not each (mem, hash engine) region's (``region_load``):
    under barrier eviction a mapper that uses only part of the regions can
    fill one and overflow (rmat 9:4 on tile16 does under modular, drhm-low
    and drhm-high).
    """
    plan = oracle.symbolic_pass(a_csr, b_csr)
    wplan = oracle.plan_windows(plan, chip_cfg.n_mems * chip_cfg.tile.hashlines_per_mem // 2)
    a_csc = matio.to_csc(matio.csr_to_coo(a_csr))
    program = isa.lower_spgemm(a_csc, b_csr, plan, windows=wplan)
    run = SimRun(
        program,
        chip_cfg,
        mapper_cfg,
        plan,
        window_plan=wplan,
        seed=seed,
        eviction_mode=eviction_mode,
        trace_stages=trace_stages,
    )
    stats = run.run_to_completion()
    return stats, run.result, run
