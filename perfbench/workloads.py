"""The benchmark's workloads, their ops, and the check of every output.

Inputs follow ``sparsim <cmd> --rmat S:E --seed N --integer-mode``: the
matrix is ``generate_rmat`` with seed N, its values are small integers
from ``with_integer_values`` with seed N + 1, and C = A * A. Integer values
make every product exact, so each output must equal the ``scipy.sparse``
product bit for bit.

An op is one call chain whose output is checked. It fails when it raises,
breaks the simulator's conservation block, or gives a wrong output; the
failure is counted with its error text and the run goes on.
"""

from __future__ import annotations

import hashlib
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse

from sparsim import SparsimError, engine, isa, mapping, matio, oracle, smash, uarch

perf_counter = time.perf_counter

SMASH_WORKERS = 2  # fixed, so runs on hosts with other core counts compare


@dataclass
class Op:
    label: str
    start: float = 0.0  # perf_counter when the op began
    wall_s: float = 0.0
    pp: int = 0  # partial products finished (SymbolicPlan.total_fma)
    error: str | None = None
    wrong: bool = False  # gave an output that differs from the reference
    digests: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)  # modelled, must repeat exactly
    engine_wall_s: float = 0.0  # SimStats.wall_seconds, for kcps

    @property
    def ok(self) -> bool:
        return self.error is None

    def fail(self, message: str) -> None:
        self.wrong = True
        if self.error is None:
            self.error = message

    def check(self, name: str, got, ref) -> None:
        problem = csr_mismatch(got, ref)
        if problem:
            self.fail(f"{name}: {problem}")


@dataclass
class Reference:
    product: object  # scipy CSR with sorted indices, or None when not kept
    nnz: int
    pp: int


@dataclass(frozen=True)
class Workload:
    name: str
    rmat: tuple  # (scale, edge factor)
    ops: object  # (a, ref, seed) -> [(label, op function)]
    keep_product: bool = True


# -- inputs and reference -----------------------------------------------------


def make_input(scale: int, edge_factor: int, seed: int):
    """CSR input and the seconds spent in generate_rmat and in all of set-up."""
    t0 = perf_counter()
    coo = matio.generate_rmat(matio.RmatParams(scale=scale, edge_factor=edge_factor, seed=seed))
    t1 = perf_counter()
    a = matio.to_csr(matio.with_integer_values(coo, seed=seed + 1))
    return a, t1 - t0, perf_counter() - t0


def reference(a, keep_product: bool) -> Reference:
    sp = scipy.sparse.csr_matrix((a.values, a.col_indices, a.row_offsets), shape=(a.n_rows, a.n_cols))
    product = sp @ sp
    product.sort_indices()
    pp = int(np.diff(a.row_offsets)[a.col_indices].sum())
    return Reference(product if keep_product else None, int(product.nnz), pp)


def csr_mismatch(got, ref) -> str | None:
    """Where ``got`` differs from the scipy product, or None if identical."""
    want = ref.product
    if (got.n_rows, got.n_cols) != want.shape:
        return f"shape {(got.n_rows, got.n_cols)} != {want.shape}"
    for name, g, w in (
        ("row_offsets", got.row_offsets, want.indptr),
        ("col_indices", got.col_indices, want.indices),
        ("values", got.values, want.data),
    ):
        g, w = np.asarray(g), np.asarray(w)
        if g.shape != w.shape:
            return f"{name}: length {g.size} != {w.size}"
        diff = np.flatnonzero(g != w)
        if diff.size:
            k = int(diff[0])
            return f"{name}[{k}]: got {g[k]!r}, want {w[k]!r}"
    return None


def csr_digest(m) -> str:
    h = hashlib.sha256()
    h.update(np.asarray([m.n_rows, m.n_cols], dtype=np.int64).tobytes())
    h.update(np.asarray(m.row_offsets, dtype=np.int64).tobytes())
    h.update(np.asarray(m.col_indices, dtype=np.int32).tobytes())
    h.update(np.asarray(m.values, dtype=np.float64).tobytes())
    return h.hexdigest()


def _run(op: Op, call):
    """Time ``call``; a raise marks the op failed and returns None."""
    t0 = op.start = perf_counter()
    try:
        return call()
    except SparsimError as err:
        op.error = f"{type(err).__name__}: {err}"
    except Exception as err:  # a defect outside the library's own errors
        traceback.print_exc(file=sys.stderr)
        op.error = f"{type(err).__name__}: {err}"
    finally:
        op.wall_s = perf_counter() - t0
    return None


# -- ops ------------------------------------------------------------------------


def sim_op(label, a, ref, seed, chip, strategy, eviction):
    """One ``engine.run_spgemm_simulation`` call, as ``sparsim run`` makes it."""
    chip_cfg = uarch.named_chip(chip)
    mapper_cfg = mapping.MapperConfig(strategy=strategy, n_targets=1, k=16, rng_seed=seed)

    def run():
        op = Op(label)
        out = _run(op, lambda: engine.run_spgemm_simulation(
            a, a, chip_cfg, mapper_cfg, seed=seed, eviction_mode=eviction
        ))
        if out is None:
            return op
        stats, result, sim = out
        op.pp = sim.program.total_fma
        op.engine_wall_s = stats.wall_seconds
        if not stats.conservation.get("ok"):
            op.fail(f"conservation violated: {stats.conservation}")
        op.check("simulation", result, ref)
        op.digests = {
            "stats_json": hashlib.sha256(stats.to_json().encode()).hexdigest(),
            "result": csr_digest(result),
        }
        mem_loads = np.asarray(stats.mem_loads, dtype=np.float64)
        hacc_kind = "hacc-re" if eviction == engine.ROLLING else "hacc-be"
        op.counts = {
            "pp": sim.program.total_fma,
            "out_nnz": sim.program.total_out_nnz,
            "windows": sim.program.n_windows,
            "mmh4": stats.mmh4_issued,
            "cycles": stats.cycles,
            "haccs": stats.hacc_committed,
            "probes": sum(m.probes_total for m in sim.chip.mems),
            "flits": stats.flits,
            "hops_total": stats.hops_total,
            "reads_merged": stats.reads_merged,
            "read_transactions": stats.read_transactions,
            "write_transactions": stats.write_transactions,
            "hashpad_occupancy_max": stats.hashpad_occupancy_max,
            **{f"stalls.{k}": v for k, v in sorted(stats.stalls.items())},
            "cpi.mmh4_mean": stats.mean_cpi("mmh4"),
            "cpi.hacc_mean": stats.mean_cpi(hacc_kind),
            "mem_max_over_mean": float(mem_loads.max() / mem_loads.mean()),
            "grid_cv": mapping.grid_stats(stats.grid).cv,
            "idle_mems": int((mem_loads == 0).sum()),
        }
        return op

    return label, run


def verify_ops(a, ref):
    """The ``sparsim verify`` chain without the simulation and the dense
    oracle (``verify`` skips the dense oracle above 512 rows), one op per
    checked output, so that a stage that raises does not hide the others."""

    def gustavson():
        op = Op("gustavson")
        out = _run(op, lambda: oracle.spgemm_gustavson(a, a))
        if out is not None:
            op.pp = ref.pp
            op.check("gustavson", out, ref)
            op.digests = {"gustavson": csr_digest(out)}
        return op

    def lower_replay():
        def chain():
            plan = oracle.symbolic_pass(a, a)
            program = isa.lower_spgemm(matio.to_csc(matio.csr_to_coo(a)), a, plan)
            return plan, program, isa.replay(program)

        op = Op("lower-replay")
        out = _run(op, chain)
        if out is None:
            return op
        plan, program, replayed = out
        op.pp = plan.total_fma
        if plan.total_fma != ref.pp:
            op.fail(f"total_fma {plan.total_fma} != {ref.pp}")
        op.check("replay", replayed, ref)
        op.digests = {"replay": csr_digest(replayed)}
        op.counts = {
            "pp": plan.total_fma,
            "out_nnz": plan.total_out_nnz,
            "windows": program.n_windows,
            "mmh4": len(program.instrs),
        }
        return op

    def smash_op(version):
        cfg = smash.SmashConfig(version=version, n_workers=SMASH_WORKERS)

        def run():
            op = Op(f"smash-{version}")
            out = _run(op, lambda: smash.smash_spgemm(a, a, cfg))
            if out is not None:
                op.pp = ref.pp
                op.check(op.label, out, ref)
                op.digests = {op.label: csr_digest(out)}
            return op

        return f"smash-{version}", run

    return [("gustavson", gustavson), ("lower-replay", lower_replay)] + [
        smash_op(v) for v in smash.VERSIONS
    ]


def bloat_op(a, ref):
    """``sparsim bloat``'s calls: the symbolic pass, then the report."""

    def calls():
        plan = oracle.symbolic_pass(a, a)
        return plan, oracle.bloat_report(plan)

    def run():
        op = Op("bloat")
        out = _run(op, calls)
        if out is None:
            return op
        plan, rep = out
        op.pp = plan.total_fma
        if plan.total_fma != ref.pp:
            op.fail(f"total_fma {plan.total_fma} != {ref.pp}")
        if plan.total_out_nnz != ref.nnz:
            op.fail(f"total_out_nnz {plan.total_out_nnz} != scipy nnz {ref.nnz}")
        if (rep.pp_interim, rep.nnz_output) != (plan.total_fma, plan.total_out_nnz):
            op.fail(f"bloat report {rep} disagrees with the plan")
        h = hashlib.sha256()
        h.update(np.asarray(plan.fma_per_row, dtype=np.int64).tobytes())
        h.update(np.asarray(plan.out_nnz_per_row, dtype=np.int64).tobytes())
        op.digests = {"plan_rows": h.hexdigest(), "report": hashlib.sha256(rep.to_json().encode()).hexdigest()}
        op.counts = {"pp": plan.total_fma, "out_nnz": plan.total_out_nnz}
        return op

    return "bloat", run


# -- the workloads ----------------------------------------------------------------

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "run-tile4",
            (10, 4),
            # A busy small torus: the `sparsim run` default (tile4, drhm-low
            # k=16, rolling eviction) at the ROADMAP baseline size, seed 1:
            # 163,961 cycles, 100,642 HACCs, 7,780 MMH4, 3 windows. Nearly all
            # op time is in SimRun.run_to_completion, ~2% in the front end.
            lambda a, ref, seed: [sim_op("drhm-low", a, ref, seed, "tile4", mapping.DRHM_LOW, engine.ROLLING)],
        ),
        Workload(
            "sweep-tile16-barrier",
            (9, 4),
            # The same engine and uarch layers used differently: a 4x larger
            # chip (256 routers), lightly loaded, so per-cycle cost of idle
            # components dominates; barrier eviction holds lines and writes
            # them back in bursts at the fence, with no tombstones; every
            # mapping strategy runs. At the commit that added this benchmark,
            # modular, drhm-low and drhm-high raise "hashpad overflow" on
            # every seed tried (1-15), so 3 of 5 ops fail; those failures are
            # real defects and are counted, not skipped.
            lambda a, ref, seed: [
                sim_op(s, a, ref, seed, "tile16", s, engine.BARRIER) for s in mapping.STRATEGIES
            ],
        ),
        Workload(
            "verify-frontend",
            (10, 8),
            # The verify chain without the engine: Gustavson, symbolic pass,
            # lowering, replay and the four SMASH versions. Most time is in
            # SMASH, then replay and lowering; no engine work at all. At the
            # commit that added this benchmark, every SMASH version raises
            # "no slot for tag ... within N probes" on some seeds (13, 22
            # and 45 of 1-59), so 4 of 6 ops fail there; counted, not skipped.
            lambda a, ref, seed: verify_ops(a, ref),
        ),
        Workload(
            "bloat",
            (14, 8),
            # The only workload where the symbolic pass dominates both time
            # (~95%) and memory (~1.2 GiB peak): the `sparsim bloat` path at
            # ROADMAP item 3's scale.
            lambda a, ref, seed: [bloat_op(a, ref)],
            keep_product=False,
        ),
    )
}
