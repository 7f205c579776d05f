"""Structural models of the accelerator's building blocks.

The chip is a 2D torus of routers, one per compute unit, partitioned into
eight tiles (horizontal slabs of the torus). Each tile holds an equal-ish
interleave of multiplier cores and hash-accumulate memory units plus one
memory controller attached at the tile's origin router. Units exchange
packets over the torus: operand read requests and responses, hash-
accumulate instructions, and eviction write-backs, which carry only the
byte address the memory controller writes (the run keeps the value).

All components are pure state machines advanced by the engine, which
passes its run to every ``step(run, cycle)`` (and to ``flush_all(run)``);
no component keeps a link to the run. During a step a component mutates
only its own state and appends outgoing packets to its outbox; it reads
the program and its layout from the run and reports retirements, commits,
hashpad line claims and frees, and write-back arrivals to the run's
counters. The engine moves packets between components in a canonical
commit order, which keeps results deterministic, and drains every outbox
whether or not its owner stepped, so a component never steps just to
send. Each step returns when the component next has work of its own:
the next cycle, a later cycle it waits for (a stage latency, a hash
compare, the memory channel), or a false value when only the engine can
give it work, in which case the engine steps it after an inbox arrival,
a dispatch, or, for a core, the departure of an instruction's last HACC.
Fabric queues are bounded with credit backpressure; endpoint inboxes for
responses and memory requests are modeled as sinks so the network always
drains.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import islice

from .errors import ConfigError, SimulationError
from .oracle import prev_prime_at_most, probe_sequence

HASHLINE_BYTES = 12  # 32-bit tag + 64-bit accumulator

# Packet kinds
K_REQ = 0  # operand read request  -> memory controller
K_RESP = 1  # operand response      -> core
K_HACC = 2  # hash-accumulate       -> mem unit
K_EVICT = 3  # eviction write-back   -> memory controller

# Router ports
P_INJ = 0
P_EAST = 1
P_WEST = 2
P_NORTH = 3
P_SOUTH = 4

# Next-port table entries for destinations exactly half-way round a ring:
# both directions are equally short, so the flit takes the one whose
# downstream queue is shorter when it moves.
TIE_X = 5  # east or west
TIE_Y = 6  # south or north


class Packet:
    """``ring`` tracks bubble flow control: 0 = not yet in a ring, 1 = in an
    X ring, 2 = in a Y ring. Entering a ring demands two free downstream
    slots so every ring always keeps a bubble (no circular wait); moving
    along a ring needs one."""

    __slots__ = ("dst", "kind", "payload", "ring", "moved_at")

    def __init__(self, dst, kind, payload):
        self.dst = dst
        self.kind = kind
        self.payload = payload
        self.ring = 0
        self.moved_at = -1

    def __repr__(self):
        return f"Packet(dst={self.dst}, kind={self.kind})"


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TileConfig:
    """Per-unit element counts for one tile flavor."""

    name: str
    cores_per_tile: int
    mems_per_tile: int
    pipelines_per_core: int
    regs_per_pipeline: int  # each register is 128 bits
    multipliers: int
    addr_generators: int
    ports: int
    hash_engines: int
    tag_comparators_per_engine: int
    hashlines_per_mem: int

    @property
    def routers_per_tile(self) -> int:
        return self.cores_per_tile + self.mems_per_tile


TILE4 = TileConfig(
    name="tile4",
    cores_per_tile=4,
    mems_per_tile=4,
    pipelines_per_core=2,
    regs_per_pipeline=4,
    multipliers=2,
    addr_generators=1,
    ports=4,
    hash_engines=2,
    tag_comparators_per_engine=2,
    hashlines_per_mem=4096,
)

TILE16 = TileConfig(
    name="tile16",
    cores_per_tile=16,
    mems_per_tile=16,
    pipelines_per_core=4,
    regs_per_pipeline=8,
    multipliers=4,
    addr_generators=2,
    ports=4,
    hash_engines=4,
    tag_comparators_per_engine=4,
    hashlines_per_mem=2048,
)

TILE64 = TileConfig(
    name="tile64",
    cores_per_tile=64,
    mems_per_tile=64,
    pipelines_per_core=8,
    regs_per_pipeline=16,
    multipliers=8,
    addr_generators=2,
    ports=4,
    hash_engines=8,
    tag_comparators_per_engine=8,
    hashlines_per_mem=2048,
)

# Grid-of-cores variant used for graph-network comparisons: 256 cores per
# tile against 16 mems, fewer comparators, same per-mem hashpad.
TILE16_GNN = TileConfig(
    name="tile16-gnn",
    cores_per_tile=256,
    mems_per_tile=16,
    pipelines_per_core=4,
    regs_per_pipeline=8,
    multipliers=4,
    addr_generators=2,
    ports=4,
    hash_engines=4,
    tag_comparators_per_engine=1,
    hashlines_per_mem=2048,
)

NAMED_TILES = {t.name: t for t in (TILE4, TILE16, TILE64, TILE16_GNN)}


@dataclass(frozen=True)
class ChipConfig:
    """Whole-chip shape plus stage latencies and memory-channel parameters.

    Defaults: eight 16 B/cycle channels, i.e. an aggregate 128 B/cycle
    memory system.
    """

    tile: TileConfig = TILE4
    n_tiles: int = 8
    # stage latencies (cycles)
    decode_latency: int = 1
    regalloc_latency: int = 1
    mul_latency: int = 2
    accumulate_latency: int = 1
    # structural knobs
    regs_per_mmh4: int = 4
    core_buffer_depth: int = 8
    mem_buffer_depth: int = 0  # 0 -> 4 * hash_engines
    router_queue_depth: int = 4
    injection_depth: int = 8
    # memory channel (per tile)
    channel_bytes_per_cycle: int = 16
    channel_fixed_latency: int = 64
    channel_queue_depth: int = 16
    granule: int = 64
    coalesce_window: int = 16

    def __post_init__(self):
        tile = self.tile
        if self.n_tiles < 1 or tile.cores_per_tile < 1 or tile.mems_per_tile < 1:
            raise ConfigError("chip needs at least one tile with cores and mems")
        # The model divides by these or cannot move work without one of each;
        # a stage latency or register count below one would run a time or a
        # limit the model does not have.
        for name, value in (
            ("decode_latency", self.decode_latency),
            ("regalloc_latency", self.regalloc_latency),
            ("mul_latency", self.mul_latency),
            ("accumulate_latency", self.accumulate_latency),
            ("regs_per_mmh4", self.regs_per_mmh4),
            ("tile.pipelines_per_core", tile.pipelines_per_core),
            ("tile.multipliers", tile.multipliers),
            ("tile.addr_generators", tile.addr_generators),
            ("tile.ports", tile.ports),
            ("tile.hash_engines", tile.hash_engines),
            ("tile.tag_comparators_per_engine", tile.tag_comparators_per_engine),
            ("core_buffer_depth", self.core_buffer_depth),
            ("injection_depth", self.injection_depth),
            ("channel_bytes_per_cycle", self.channel_bytes_per_cycle),
            ("channel_queue_depth", self.channel_queue_depth),
            ("granule", self.granule),
            ("coalesce_window", self.coalesce_window),
        ):
            if value < 1:
                raise ConfigError(f"{name} must be at least 1, got {value}")
        if self.mem_buffer_depth < 0:
            raise ConfigError(
                f"mem_buffer_depth must be at least 0 (0 = 4 * tile.hash_engines), "
                f"got {self.mem_buffer_depth}"
            )
        if self.router_queue_depth < 2:
            raise ConfigError(
                f"router_queue_depth must be at least 2 (entering a ring needs two free "
                f"slots), got {self.router_queue_depth}"
            )
        if self.regs_per_mmh4 > tile.regs_per_pipeline:
            raise ConfigError(
                f"regs_per_mmh4 ({self.regs_per_mmh4}) exceeds tile.regs_per_pipeline "
                f"({tile.regs_per_pipeline}): no instruction could get its registers"
            )
        service = -(-self.granule // self.channel_bytes_per_cycle)
        if self.channel_fixed_latency < service:
            raise ConfigError("channel fixed latency must cover one granule service time")

    @property
    def n_cores(self) -> int:
        return self.n_tiles * self.tile.cores_per_tile

    @property
    def n_mems(self) -> int:
        return self.n_tiles * self.tile.mems_per_tile

    @property
    def n_routers(self) -> int:
        return self.n_tiles * self.tile.routers_per_tile

    @property
    def total_pipelines(self) -> int:
        return self.n_cores * self.tile.pipelines_per_core

    @property
    def hashpad_bytes(self) -> int:
        return self.n_mems * self.tile.hashlines_per_mem * HASHLINE_BYTES

    @property
    def mem_inbox_depth(self) -> int:
        return self.mem_buffer_depth or 4 * self.tile.hash_engines


CHIP_TILE4 = ChipConfig(tile=TILE4)
CHIP_TILE16 = ChipConfig(tile=TILE16)
CHIP_TILE64 = ChipConfig(tile=TILE64)

NAMED_CHIPS = {
    "tile4": CHIP_TILE4,
    "tile16": CHIP_TILE16,
    "tile64": CHIP_TILE64,
    "tile16-gnn": ChipConfig(tile=TILE16_GNN, router_queue_depth=2),
}


def named_chip(name: str) -> ChipConfig:
    try:
        return NAMED_CHIPS[name]
    except KeyError:
        raise ConfigError(f"unknown chip config {name!r}; have {sorted(NAMED_CHIPS)}") from None


# ---------------------------------------------------------------------------
# Torus geometry
# ---------------------------------------------------------------------------


def torus_shape(cfg: ChipConfig) -> tuple[int, int]:
    """Grid width/height: tiles are horizontal slabs, so the width must
    divide the per-tile router count; pick the divisor closest to square."""
    per_tile = cfg.tile.routers_per_tile
    total = cfg.n_routers
    target = total ** 0.5
    best = None
    for w in range(1, per_tile + 1):
        if per_tile % w == 0:
            if best is None or abs(w - target) < abs(best - target):
                best = w
    return best, total // best


# ---------------------------------------------------------------------------
# Router
# ---------------------------------------------------------------------------


class Router:
    """Torus router node: bounded input queues per direction plus an
    injection queue (the attached component's ``tile.ports`` ports folded
    together).

    Flit movement itself happens in the engine's commit phase as direct
    queue-to-queue transfers (dimension-ordered X then Y, shortest wrap,
    adaptive shortest-queue tie-break, one flit per direction input per
    cycle, at most ``tile.ports`` injections and as many ejections). Ring
    deadlock is prevented with bubble flow control: a flit entering a ring
    needs two free slots in the target queue, a flit continuing along its
    ring needs one, so every ring always keeps a bubble.

    ``build_chip`` links each router to its neighbours: ``out_q[port]`` is
    the neighbour's input queue facing back at this router and
    ``out_rid[port]`` its rid, and ``next_port[dst]`` is the output port
    (0 = eject) toward router ``dst``, or TIE_X/TIE_Y at an exact half-way
    tie.
    """

    __slots__ = ("rid", "x", "y", "in_q", "out_q", "out_rid", "next_port", "component", "memctrl")

    def __init__(self, rid, w, h):
        self.rid = rid
        self.x = rid % w
        self.y = rid // w
        self.in_q = [deque() for _ in range(5)]  # INJ, E, W, N, S
        self.out_q = None
        self.out_rid = None
        self.next_port = None
        self.component = None
        self.memctrl = None


# ---------------------------------------------------------------------------
# Memory channel
# ---------------------------------------------------------------------------


class MemChannelModel:
    """Analytic channel: bandwidth cap, fixed pipelined latency, bounded
    queue. A transaction submitted at cycle t on an idle channel completes
    at exactly t + fixed_latency; back-to-back transactions are spaced by
    their service time so sustained throughput equals the peak bandwidth.
    The controller's ``inflight`` is the channel's queue and holds the
    completion cycles; the channel keeps only when its service is free.
    """

    __slots__ = ("peak_bandwidth", "fixed_latency", "queue_depth", "free_at")

    def __init__(self, peak_bandwidth=16, fixed_latency=64, queue_depth=16):
        self.peak_bandwidth = peak_bandwidth
        self.fixed_latency = fixed_latency
        self.queue_depth = queue_depth
        self.free_at = 0

    def submit(self, cycle, nbytes) -> int:
        """Returns the completion cycle."""
        start = max(cycle, self.free_at)
        service = -(-nbytes // self.peak_bandwidth)
        self.free_at = start + service
        return start + self.fixed_latency


# ---------------------------------------------------------------------------
# Core (multiplier unit)
# ---------------------------------------------------------------------------

S_DECODE = 0
S_REGALLOC = 1
S_WAIT = 2
S_EXEC = 3
S_DRAIN = 4

STAGE_NAMES = {S_DECODE: "decode", S_REGALLOC: "regalloc", S_WAIT: "wait", S_EXEC: "exec", S_DRAIN: "drain"}


class _InFlight:
    __slots__ = (
        "seq", "instr", "stage", "ready_at", "outstanding",
        "accept_cycle", "haccs_pending", "stage_trace",
    )

    def __init__(self, seq, instr, cycle, trace=False):
        self.seq = seq
        self.instr = instr  # the instruction's index in the program
        self.stage = S_DECODE
        self.ready_at = cycle
        self.outstanding = 0
        self.accept_cycle = cycle
        self.haccs_pending = 0
        self.stage_trace = {"accept": cycle} if trace else None


class CoreModel:
    """In-order multi-pipeline multiplier core.

    Pipeline: accept -> decode -> register allocation -> operand fetch
    (addr generators issue read requests, the scoreboard collects
    responses) -> execute (multiplier latency plus lane serialization) ->
    drain the produced hash-accumulate packets through the ports.
    Registers gate the number of in-flight tiles per pipeline; a full
    instruction buffer refuses dispatch (backpressure, never overflow).

    ``step(run, cycle)`` reads the instruction's lanes and operand reads
    from ``run`` and reports each latch it accepts and each retirement to
    it; the core keeps no link to the run. It returns ``cycle + 1`` after a step that changed anything;
    after a step that changed nothing, the earliest cycle a decode,
    register-allocation or execute latency ends, or None when only an
    operand response, a dispatch or the departure of an instruction's last
    HACC (each steps the core) can move it on. A step that changes nothing
    leaves the state as it was, so every cycle the core skips would have
    counted the same reg and operand stalls; the next step adds them for
    the skipped cycles.
    """

    __slots__ = (
        "id", "rid", "cfg", "dispatch_latch", "inflight", "pipes",
        "free_regs", "rr_pipe", "req_queue", "outbox", "inbox",
        "stalls_reg", "stalls_operand", "stalls_port", "cpi", "seq_gen",
        "activity", "_engine_idx",
        "last_step", "reg_stalling", "operand_stalling",
    )

    def __init__(self, core_id, rid, cfg: ChipConfig):
        self.id = core_id
        self.rid = rid
        self.cfg = cfg
        self.dispatch_latch = None  # index of the instruction dispatched to this core
        self.inflight = {}
        self.pipes = [deque() for _ in range(cfg.tile.pipelines_per_core)]
        self.free_regs = [cfg.tile.regs_per_pipeline] * cfg.tile.pipelines_per_core
        self.rr_pipe = 0
        self.req_queue = deque()
        self.outbox = deque()
        self.inbox = deque()
        self.stalls_reg = 0
        self.stalls_operand = 0
        self.stalls_port = 0
        self.cpi = {}
        self.seq_gen = 0
        self.activity = 0
        self._engine_idx = -1
        self.last_step = -1  # cycle of the last step
        self.reg_stalling = 0  # reg stalls the last step counted
        self.operand_stalling = 0  # operand stalls the last step counted

    def _mark(self, rec, stage_name, cycle):
        if rec.stage_trace is not None:
            rec.stage_trace[stage_name] = cycle

    def step(self, run, cycle):
        cfg = self.cfg
        acted = 0
        reg_stalls = 0
        operand_stalls = 0
        wake = None  # earliest cycle a waiting latency ends

        skipped = cycle - self.last_step - 1
        if skipped > 0:
            self.stalls_reg += skipped * self.reg_stalling
            self.stalls_operand += skipped * self.operand_stalling
        self.last_step = cycle

        # Responses retire into the scoreboard.
        while self.inbox:
            _, seq, _field = self.inbox.popleft().payload
            rec = self.inflight.get(seq)
            if rec is not None:
                rec.outstanding -= 1
                if rec.outstanding == 0:
                    self._mark(rec, "operands", cycle)
            acted += 1

        # Accept at most one dispatched instruction per cycle.
        if self.dispatch_latch is not None and len(self.inflight) < cfg.core_buffer_depth:
            instr = self.dispatch_latch
            self.dispatch_latch = None
            run.on_latch_accepted()  # the dispatcher may fill the latch again
            seq = self.seq_gen
            self.seq_gen += 1
            pipe = self.rr_pipe
            self.rr_pipe = (self.rr_pipe + 1) % len(self.pipes)
            rec = _InFlight(seq, instr, cycle, trace=run.trace_stages)
            rec.ready_at = cycle + cfg.decode_latency
            self.inflight[seq] = rec
            self.pipes[pipe].append(seq)
            acted += 1

        # Advance pipeline stages.
        for pipe_idx, fifo in enumerate(self.pipes):
            alloc_done = False
            for pos, seq in enumerate(fifo):
                rec = self.inflight[seq]
                if rec.stage == S_DECODE:
                    if cycle >= rec.ready_at:
                        rec.stage = S_REGALLOC
                        self._mark(rec, "decode", cycle)
                        acted += 1
                    elif wake is None or rec.ready_at < wake:
                        wake = rec.ready_at
                elif rec.stage == S_REGALLOC:
                    if alloc_done:
                        continue
                    alloc_done = True
                    alloc_at = rec.ready_at + cfg.regalloc_latency - 1
                    if cycle < alloc_at:
                        if wake is None or alloc_at < wake:
                            wake = alloc_at
                        continue
                    if self.free_regs[pipe_idx] >= cfg.regs_per_mmh4:
                        self.free_regs[pipe_idx] -= cfg.regs_per_mmh4
                        rec.stage = S_WAIT
                        self._mark(rec, "regalloc", cycle)
                        self._issue_requests(run, rec, cycle)
                        acted += 1
                    else:
                        reg_stalls += 1
                elif rec.stage == S_WAIT:
                    if rec.outstanding == 0 and pos == 0:
                        rec.stage = S_EXEC
                        lanes = run.lane_count(rec.instr)
                        dur = cfg.mul_latency + -(-lanes // cfg.tile.multipliers) - 1
                        rec.ready_at = cycle + dur
                        self._mark(rec, "exec_start", cycle)
                        acted += 1
                    elif rec.outstanding > 0 and pos == 0:
                        operand_stalls += 1
                elif rec.stage == S_EXEC:
                    if pos != 0:
                        continue
                    if cycle < rec.ready_at:
                        if wake is None or rec.ready_at < wake:
                            wake = rec.ready_at
                    else:
                        tags, data, counters = run.lanes(rec.instr)
                        outbox = self.outbox
                        core_id = self.id
                        for tag, value, counter in zip(tags, data, counters):
                            outbox.append(Packet(None, K_HACC, (tag, value, counter, core_id, seq)))
                        rec.haccs_pending = len(tags)
                        rec.stage = S_DRAIN
                        self._mark(rec, "exec_done", cycle)
                        acted += 1
                elif rec.stage == S_DRAIN:
                    if rec.haccs_pending == 0 and pos == 0:
                        self._retire(run, rec, pipe_idx, cycle)
                        acted += 1
                        break  # fifo mutated

        # Address generators drain the request queue.
        for _ in range(cfg.tile.addr_generators):
            if not self.req_queue:
                break
            self.outbox.append(self.req_queue.popleft())
            acted += 1

        self.activity += acted
        self.stalls_reg += reg_stalls
        self.stalls_operand += operand_stalls
        self.reg_stalling = reg_stalls
        self.operand_stalling = operand_stalls
        if acted:
            return cycle + 1
        return wake

    def _issue_requests(self, run, rec, cycle):
        rec.outstanding = 4  # A values, B columns, B values, roll counters
        for field, (addr, nbytes) in enumerate(run.operand_reads(rec.instr)):
            dst = run.memctrl_rid_for(addr)
            self.req_queue.append(Packet(dst, K_REQ, (self.id, rec.seq, field, addr, nbytes)))
        if rec.stage_trace is not None:
            rec.stage_trace["requests_queued"] = cycle

    def _retire(self, run, rec, pipe_idx, cycle):
        fifo = self.pipes[pipe_idx]
        assert fifo[0] == rec.seq, "in-order retirement violated"
        fifo.popleft()
        self.free_regs[pipe_idx] += self.cfg.regs_per_mmh4
        del self.inflight[rec.seq]
        cycles = cycle - rec.accept_cycle
        self.cpi[cycles] = self.cpi.get(cycles, 0) + 1
        self._mark(rec, "retire", cycle)
        if rec.stage_trace is not None:
            run.stage_traces.append(rec.stage_trace)
        run.on_mmh4_retired()


# ---------------------------------------------------------------------------
# Mem (hash-accumulate unit)
# ---------------------------------------------------------------------------


_EMPTY = -1
_TOMBSTONE = -2


def hash_engine(tags, n_engines: int):
    """The hash engine of its mem that each tag accumulates in: an int for
    an int tag, an array for an array of tags."""
    return tags % n_engines


def region_capacity(tile: TileConfig) -> int:
    """Lines in one hash engine's region of a mem's HashPad: the largest
    prime that fits the engine's share of the mem's lines."""
    return prev_prime_at_most(max(tile.hashlines_per_mem // tile.hash_engines, 2))


class _HashRegion:
    """One hash engine's slice of the HashPad: prime capacity, probed along
    ``oracle.probe_sequence`` (quadratic steps over half the region, then
    the slots they missed), remaining-contribution counters.

    Rolling eviction frees lines mid-stream, so freed slots become
    tombstones that probes walk through (otherwise a colliding tag's later
    products would stop early and claim a duplicate line). Tombstones are
    reclaimed by inserts and wiped wholesale at window boundaries."""

    __slots__ = ("capacity", "tags", "vals", "counters", "occupancy", "tombstones")

    def __init__(self, capacity):
        self.capacity = capacity
        self.tags = [_EMPTY] * capacity
        self.vals = [0.0] * capacity
        self.counters = [0] * capacity
        self.occupancy = 0
        self.tombstones = 0

    def probe(self, tag):
        """Returns (slot, probes_examined, is_insert); slot is None when
        every slot holds another live tag."""
        cap = self.capacity
        tags = self.tags
        home = tag % cap
        cur = tags[home]
        if cur == _EMPTY or cur == tag:  # most probes end at home, the sequence's first slot
            return home, 1, cur == _EMPTY
        reuse = home if cur == _TOMBSTONE else -1
        for n, slot in enumerate(islice(probe_sequence(home, cap), 1, None), 2):
            cur = tags[slot]
            if cur == _EMPTY:
                return (reuse if reuse >= 0 else slot), n, True
            if cur == tag:
                return slot, n, False
            if cur == _TOMBSTONE and reuse < 0:
                reuse = slot
        if reuse >= 0:
            return reuse, n, True
        return None, n, False

    def reset(self):
        if self.occupancy:
            raise SimulationError("hashpad reset with live lines")
        if self.tombstones:
            self.tags = [_EMPTY] * self.capacity
            self.tombstones = 0


class MemModel:
    """Hash engines over a partitioned HashPad with rolling eviction.

    Each engine owns a prime-capacity region; an incoming packet's tag
    picks the engine (``hash_engine``), the region index comes from
    prime-modulo hashing with quadratic probing. A matching tag accumulates and decrements the
    counter; a miss claims a line. When the counter hits zero the line is
    evicted in the same commit and a write-back packet leaves for the
    memory controller (rolling mode) or the line is held until the window
    flush (barrier mode).

    ``step(run, cycle)`` and ``flush_all(run)`` take the eviction mode
    and write-back addresses from ``run`` and report commits and each
    line claimed or freed to it; the unit keeps no link to the run. Its
    loads are its ``grid_row`` and its evictions its ``evicted_values``.
    ``step`` returns the cycle the first busy engine finishes (at least
    ``cycle + 1``), or None when every engine is idle: then the inbox
    holds nothing any engine could take, and an arrival steps the unit.
    """

    __slots__ = (
        "id", "rid", "cfg", "inbox", "outbox", "engines_pending",
        "regions", "n_engines", "cpi", "grid_row", "evicted_values", "activity",
        "probes_total", "stalls_port", "_engine_idx",
    )

    def __init__(self, mem_id, rid, cfg: ChipConfig):
        self.id = mem_id
        self.rid = rid
        self.cfg = cfg
        self.inbox = deque()
        self.outbox = deque()
        self.n_engines = cfg.tile.hash_engines
        cap = region_capacity(cfg.tile)
        self.regions = [_HashRegion(cap) for _ in range(self.n_engines)]
        self.engines_pending = [None] * self.n_engines
        self.cpi = {}
        self.grid_row = [0] * cfg.n_cores  # HACCs committed per source core
        self.evicted_values = []
        self.activity = 0
        self.probes_total = 0
        self.stalls_port = 0
        self._engine_idx = -1

    def step(self, run, cycle):
        cfg = self.cfg
        acted = 0
        rolling = run.rolling_evictions
        n_engines = self.n_engines
        for e in range(n_engines):
            pending = self.engines_pending[e]
            if pending is not None:
                if cycle < pending[0]:
                    continue
                self._complete(run, pending, cycle)
                self.engines_pending[e] = None
                acted += 1
            # pick the next packet belonging to this engine
            picked = None
            for idx, pkt in enumerate(self.inbox):
                tag = pkt.payload[0]
                if hash_engine(tag, n_engines) == e:
                    picked = idx
                    break
            if picked is None:
                continue
            pkt = self.inbox[picked]
            del self.inbox[picked]
            tag, data, counter, src_core, _seq = pkt.payload
            birth = pkt.moved_at  # acceptance into this unit's buffer
            region = self.regions[e]
            slot, probes, is_insert = region.probe(tag)
            if slot is None:
                raise SimulationError(
                    f"hashpad overflow at mem {self.id} engine {e} (tag {tag:#x}): all "
                    f"{region.capacity} lines of its region are live; the window plan "
                    "bounds the chip-wide line count, not each (mem, engine) region's"
                )
            self.probes_total += probes
            if is_insert:
                if region.tags[slot] == _TOMBSTONE:
                    region.tombstones -= 1
                region.tags[slot] = tag
                region.vals[slot] = data
                region.counters[slot] = counter
                region.occupancy += 1
                run.on_line_claimed()
            else:
                region.vals[slot] += data
                region.counters[slot] -= 1
            evict = rolling and region.counters[slot] == 0
            compare_cycles = -(-probes // cfg.tile.tag_comparators_per_engine)
            done = cycle + compare_cycles + cfg.accumulate_latency - 1
            self.engines_pending[e] = (done, e, slot, evict, tag, src_core, birth)
            acted += 1
        self.activity += acted
        wake = None
        for pending in self.engines_pending:
            if pending is not None and (wake is None or pending[0] < wake):
                wake = pending[0]
        return wake

    def _complete(self, run, pending, cycle):
        done, e, slot, evict, tag, src_core, birth = pending
        cycles = cycle - birth
        self.cpi[cycles] = self.cpi.get(cycles, 0) + 1
        self.grid_row[src_core] += 1
        if evict:
            region = self.regions[e]
            value = region.vals[slot]
            self._evict_line(run, region, slot, tag, value)
        run.on_hacc_committed()

    def _evict_line(self, run, region, slot, tag, value):
        region.tags[slot] = _TOMBSTONE
        region.tombstones += 1
        region.occupancy -= 1
        run.on_line_freed()
        self.evicted_values.append((tag, value))
        addr = run.eviction_target(tag)
        # The write-back crosses the torus to the owning controller.
        self.outbox.append(Packet(run.memctrl_rid_for(addr), K_EVICT, addr))

    def flush_all(self, run):
        """Barrier eviction: drain every occupied line (window boundary)."""
        for region in self.regions:
            if not region.occupancy:
                continue
            for slot, tag in enumerate(region.tags):
                if tag >= 0:
                    self._evict_line(run, region, slot, tag, region.vals[slot])

    def reset_pads(self):
        """Clear tombstones between windows (pad must hold no live lines)."""
        for region in self.regions:
            region.reset()


# ---------------------------------------------------------------------------
# Memory controller
# ---------------------------------------------------------------------------


class MemCtrlModel:
    """Coalescing, reordering memory controller over one channel.

    Read requests are split into granule touches; within a bounded reorder
    window all touches of one granule merge into a single transaction.
    Evictions write-combine per granule the same way. Reads have priority;
    one transaction issues per cycle at most. Completions arrive in issue
    order: the channel starts transactions in order at non-decreasing
    cycles and adds a fixed latency, so ``inflight`` is a FIFO, and the
    channel's queue: it issues only while that holds under ``queue_depth``.

    ``step(run, cycle)`` takes response routes from ``run`` and reports
    write-back arrivals to it; the controller keeps no link to the run.
    Each transaction moves one granule, so the bytes it moved are the
    granule times ``transactions_read`` or ``transactions_write``. It
    returns ``cycle + 1`` while the channel can take the next pending
    transaction, else the first in-flight completion, which also frees a
    full channel's slot; None when the controller holds nothing, until an
    arriving request or write-back steps it.
    """

    __slots__ = (
        "id", "rid", "cfg", "channel", "inbox", "outbox",
        "read_pending", "write_pending", "inflight", "reads_merged",
        "transactions_read", "transactions_write", "activity",
        "touch_remaining", "stalls_port", "_engine_idx",
    )

    def __init__(self, mc_id, rid, cfg: ChipConfig, channel: MemChannelModel):
        self.id = mc_id
        self.rid = rid
        self.cfg = cfg
        self.channel = channel
        self.inbox = deque()
        self.outbox = deque()
        self.read_pending = deque()  # (granule, core_id, seq, field, touches)
        self.write_pending = deque()  # granule ids
        self.inflight = deque()  # (completion, responses), completions in order
        self.reads_merged = 0
        self.transactions_read = 0
        self.transactions_write = 0
        self.touch_remaining = {}  # request key -> granule touches still in flight
        self.activity = 0
        self.stalls_port = 0
        self._engine_idx = -1

    def step(self, run, cycle):
        cfg = self.cfg
        acted = 0
        granule = cfg.granule
        channel = self.channel
        inflight = self.inflight
        depth = channel.queue_depth

        while self.inbox:
            pkt = self.inbox.popleft()
            if pkt.kind == K_REQ:
                core_id, seq, field, addr, nbytes = pkt.payload
                first = addr // granule
                last = (addr + nbytes - 1) // granule
                touches = last - first + 1
                for g in range(first, last + 1):
                    self.read_pending.append((g, core_id, seq, field, touches))
            else:  # eviction write-back: the payload is its byte address
                self.write_pending.append(pkt.payload // granule)
                run.on_eviction_arrived()
            acted += 1

        # completions
        while inflight and inflight[0][0] <= cycle:
            _, responses = inflight.popleft()
            for core_id, seq, field in responses:
                self.outbox.append(
                    Packet(run.core_rid(core_id), K_RESP, (core_id, seq, field))
                )
            acted += 1

        # Issue at most one transaction, reads first. Only the first
        # coalesce_window entries can merge; the rest stay as they are.
        window = cfg.coalesce_window
        if self.read_pending and len(inflight) < depth:
            pending = self.read_pending
            g0 = pending[0][0]
            merged = []
            kept = []
            for _ in range(min(window, len(pending))):
                item = pending.popleft()
                if item[0] == g0:
                    merged.append(item)
                else:
                    kept.append(item)
            pending.extendleft(reversed(kept))
            completion = channel.submit(cycle, granule)
            self.transactions_read += 1
            self.reads_merged += len(merged) - 1
            responses = []
            for _, core_id, seq, field, touches in merged:
                key = (core_id, seq, field)
                remaining = self.touch_remaining.get(key, touches) - 1
                if remaining == 0:
                    self.touch_remaining.pop(key, None)
                    responses.append(key)
                else:
                    self.touch_remaining[key] = remaining
            inflight.append((completion, responses))
            acted += 1
        elif self.write_pending and len(inflight) < depth:
            pending = self.write_pending
            g0 = pending[0]
            kept = []
            for _ in range(min(window, len(pending))):
                g = pending.popleft()
                if g != g0:
                    kept.append(g)
            pending.extendleft(reversed(kept))
            completion = channel.submit(cycle, granule)
            self.transactions_write += 1
            inflight.append((completion, ()))
            acted += 1

        self.activity += acted
        if (self.read_pending or self.write_pending) and len(inflight) < depth:
            return cycle + 1  # every transaction in flight completes later
        return inflight[0][0] if inflight else None


# ---------------------------------------------------------------------------
# Chip assembly
# ---------------------------------------------------------------------------


@dataclass
class Chip:
    cfg: ChipConfig
    width: int
    height: int
    routers: list
    cores: list
    mems: list
    memctrls: list
    core_rids: list
    mem_rids: list
    memctrl_rids: list

    @property
    def n_cores(self):
        return len(self.cores)

    @property
    def n_mems(self):
        return len(self.mems)

    @property
    def n_routers(self):
        return len(self.routers)

    @property
    def total_pipelines(self):
        return self.cfg.total_pipelines

    @property
    def hashpad_bytes(self):
        return self.cfg.hashpad_bytes


def _interleave_kinds(n_cores, n_mems, width):
    """Evenly interleave core/mem placements for one tile slab."""
    total = n_cores + n_mems
    if n_cores == n_mems:
        # checkerboard when balanced (width even keeps rows balanced)
        rows = total // width
        kinds = []
        for y in range(rows):
            for x in range(width):
                kinds.append("core" if (x + y) % 2 == 0 else "mem")
        return kinds
    kinds = []
    placed_mems = 0
    for idx in range(total):
        want = ((idx + 1) * n_mems) // total
        if want > placed_mems:
            kinds.append("mem")
            placed_mems += 1
        else:
            kinds.append("core")
    return kinds


def _ring_ports(n, forward, backward, tie):
    """Port toward each offset 0..n-1 along one ring (shortest way round);
    offset 0 maps to port 0."""
    ports = [0] * n
    for d in range(1, n):
        ports[d] = forward if d < n - d else backward if n - d < d else tie
    return ports


def _link_routers(routers, width, height):
    """Give every router its neighbours' facing input queues and its
    next-port table: dimension order, X then Y, shortest wraparound."""
    x_ports = _ring_ports(width, P_EAST, P_WEST, TIE_X)
    y_ports = _ring_ports(height, P_SOUTH, P_NORTH, TIE_Y)  # +y is "south"
    for router in routers:
        x, y = router.x, router.y
        east = y * width + (x + 1) % width
        west = y * width + (x - 1) % width
        south = ((y + 1) % height) * width + x
        north = ((y - 1) % height) * width + x
        router.out_rid = [None, east, west, north, south]
        router.out_q = [None] + [
            routers[rid].in_q[back]
            for rid, back in ((east, P_WEST), (west, P_EAST), (north, P_SOUTH), (south, P_NORTH))
        ]
        # Destinations in another column go along X; in this column, along Y.
        row = x_ports[-x:] + x_ports[:-x] if x else x_ports
        in_row = {port: bytes(row[:x] + [port] + row[x + 1:]) for port in set(y_ports)}
        router.next_port = b"".join(in_row[y_ports[(dy - y) % height]] for dy in range(height))


def build_chip(cfg: ChipConfig) -> Chip:
    """Instantiate routers, cores, mems, and one memory controller per tile
    on the global torus. Component totals follow the configuration exactly.
    """
    width, height = torus_shape(cfg)
    n_routers = cfg.n_routers
    routers = [Router(rid, width, height) for rid in range(n_routers)]
    cores = []
    mems = []
    memctrls = []
    core_rids = []
    mem_rids = []
    memctrl_rids = []

    tile = cfg.tile
    per_tile = tile.routers_per_tile
    kinds = _interleave_kinds(tile.cores_per_tile, tile.mems_per_tile, width)
    for t in range(cfg.n_tiles):
        base_rid = t * per_tile
        for local, kind in enumerate(kinds):
            rid = base_rid + local
            if kind == "core":
                core = CoreModel(len(cores), rid, cfg)
                routers[rid].component = core
                cores.append(core)
                core_rids.append(rid)
            else:
                mem = MemModel(len(mems), rid, cfg)
                routers[rid].component = mem
                mems.append(mem)
                mem_rids.append(rid)
        channel = MemChannelModel(
            peak_bandwidth=cfg.channel_bytes_per_cycle,
            fixed_latency=cfg.channel_fixed_latency,
            queue_depth=cfg.channel_queue_depth,
        )
        mc = MemCtrlModel(t, base_rid, cfg, channel)
        routers[base_rid].memctrl = mc
        memctrls.append(mc)
        memctrl_rids.append(base_rid)

    if len(cores) != cfg.n_cores or len(mems) != cfg.n_mems:
        raise ConfigError(
            f"placement mismatch: built {len(cores)} cores / {len(mems)} mems, "
            f"expected {cfg.n_cores} / {cfg.n_mems}"
        )
    _link_routers(routers, width, height)
    return Chip(
        cfg=cfg,
        width=width,
        height=height,
        routers=routers,
        cores=cores,
        mems=mems,
        memctrls=memctrls,
        core_rids=core_rids,
        mem_rids=mem_rids,
        memctrl_rids=memctrl_rids,
    )
