"""Command-line front end.

Subcommands: run (simulate one multiply), verify (cross-check every
execution path against the oracles, writing the lowered program's text
trace as program.trace; with --trace, replay such a trace instead), sweep
(config x mapper x matrix grid), bloat (partial-product analysis over
datasets), smash (host kernel), gcn (one graph-convolution layer through
the simulator).

Every command is idempotent for fixed inputs and seeds: stats, tables,
and matrices are byte-identical across reruns; wall-clock figures go to a
sidecar run.log only. Exit codes: 0 success, 1 verification failure,
2 usage or configuration error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import errno
import itertools
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import engine, isa, mapping, matio, oracle, smash, uarch
from .errors import (
    ConfigError,
    MatrixFormatError,
    MemoryFaultError,
    SimulationError,
    SparsimError,
    TraceError,
    VerificationError,
)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_IO = 3

MAPPER_CHOICES = list(mapping.STRATEGIES)
SMASH_CHOICES = list(smash.VERSIONS) + ["all"]


# ---------------------------------------------------------------------------
# Argument plumbing
# ---------------------------------------------------------------------------


def parse_rmat_spec(spec: str) -> matio.RmatParams:
    """scale:edge_factor[:a:b:c:d] with the usual skewed defaults."""
    parts = spec.split(":")
    if len(parts) not in (2, 6):
        raise ConfigError(f"--rmat wants scale:ef or scale:ef:a:b:c:d, got {spec!r}")
    fields = (
        ("scale", int), ("edge_factor", int), ("a", float), ("b", float), ("c", float), ("d", float)
    )
    values = {}
    for (name, kind), part in zip(fields, parts):
        try:
            values[name] = kind(part)
        except ValueError:
            raise ConfigError(
                f"--rmat {spec!r}: {name} must be {kind.__name__}, got {part!r}"
            ) from None
    return matio.RmatParams(**values)


# JSON value types accepted for each annotated dataclass field type
_JSON_TYPES = {"int": (int,), "float": (int, float), "bool": (bool,), "str": (str,)}


def _from_json(cls, data, where: str):
    """``cls(**data)`` after checking keys and value types against its fields."""
    if not isinstance(data, dict):
        raise ConfigError(f"{where}: want a JSON object, got {type(data).__name__}")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = sorted(set(data) - set(fields))
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {', '.join(unknown)}")
    missing = [n for n, f in fields.items() if n not in data and f.default is dataclasses.MISSING]
    if missing:
        raise ConfigError(f"{where}: missing key(s) {', '.join(missing)}")
    for key, value in data.items():
        want = _JSON_TYPES.get(fields[key].type)
        if want is not None and type(value) not in want:
            raise ConfigError(f"{where}: {key} must be {fields[key].type}, got {value!r}")
    return cls(**data)


def chip_config(name: str) -> uarch.ChipConfig:
    """A named chip, or ``file:PATH``: a JSON object of ChipConfig fields
    whose required ``tile`` key holds every TileConfig field."""
    if not name.startswith("file:"):
        return uarch.named_chip(name)
    path = Path(name[5:])
    try:
        data = json.loads(path.read_text())
    except ValueError as err:  # JSONDecodeError, or UnicodeDecodeError from a binary file
        raise ConfigError(f"{path}: not valid JSON: {err}") from None
    if not isinstance(data, dict) or "tile" not in data:
        raise ConfigError(f"{path}: want a JSON object with a 'tile' key")
    tile = _from_json(uarch.TileConfig, data.pop("tile"), f"{path} tile")
    return _from_json(uarch.ChipConfig, dict(data, tile=tile), str(path))


def mapper_config(strategy: str, k: int, seed: int) -> mapping.MapperConfig:
    # n_targets is a placeholder: the engine sizes it to the chip
    return mapping.MapperConfig(strategy=strategy, n_targets=1, k=k, rng_seed=seed)


def read_matrix(args, path=None, rmat=None) -> tuple[str, matio.CsrMatrix]:
    """One operand and its name: the rmat spec ``rmat`` drawn with
    ``--seed``, else the file at ``path``; ``--integer-mode`` redraws its
    values from ``--seed + 1``."""
    if rmat is None:
        coo = matio.load_matrix(path)
        name = Path(path).name
    else:
        coo = matio.generate_rmat(dataclasses.replace(parse_rmat_spec(rmat), seed=args.seed))
        name = f"rmat-{rmat}-s{args.seed}"
    if args.integer_mode:
        coo = matio.with_integer_values(coo, seed=args.seed + 1)
    return name, matio.to_csr(coo)


def load_operands(args):
    """``(name, A, b_name, B)`` from ``--matrix`` or ``--rmat`` and the
    optional ``--matrix-b``; B is A when that is absent."""
    if args.matrix and args.rmat:
        raise ConfigError("give either --matrix or --rmat, not both")
    if not (args.matrix or args.rmat):
        raise ConfigError("no --matrix given")
    name, a = read_matrix(args, args.matrix, args.rmat)
    b_path = getattr(args, "matrix_b", None)  # gcn has no --matrix-b
    b_name, b = read_matrix(args, b_path) if b_path else (name, a)
    return name, a, b_name, b


def engine_configs(args):
    """The chip of ``--config`` and the mapper of ``--mapper``/``--k``/``--seed``."""
    return chip_config(args.config), mapper_config(args.mapper, args.k, args.seed)


def seed(text: str) -> int:
    """argparse type of ``--seed``: a non-negative integer."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def positive_int(text: str) -> int:
    """argparse type of ``sweep --jobs`` and ``smash --workers``: a positive integer."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def out_dir(args) -> Path:
    path = Path(args.out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def write_json(path: Path, data) -> None:
    path.write_text(json.dumps(data, sort_keys=True, indent=1) + "\n")


def write_series_csv(path: Path, header, rows) -> None:
    with path.open("w") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)


def first_divergence(got: matio.CsrMatrix, want: matio.CsrMatrix, tol: float):
    """First (i, j) where the matrices differ, or None. Structure counts,
    and a NaN matches only a NaN."""
    for i in range(want.n_rows):
        gj, gv = got.row(i)
        wj, wv = want.row(i)
        gd = dict(zip(gj.tolist(), gv.tolist()))
        wd = dict(zip(wj.tolist(), wv.tolist()))
        for j in sorted(set(gd) | set(wd)):
            if j not in gd:
                return (i, j, None, wd[j])
            if j not in wd:
                return (i, j, gd[j], None)
            g, w = gd[j], wd[j]
            if g == w or (g != g and w != w):  # equal, or NaN in both
                continue
            # written so that a NaN or infinity on one side diverges
            if not abs(g - w) / max(abs(w), 1.0) <= tol:
                return (i, j, g, w)
    return None


def sidecar_log(path: Path, lines) -> None:
    with path.open("a") as fh:
        stamp = time.strftime("%Y-%m-%dT%H:%M:%S")
        for line in lines:
            fh.write(f"{stamp} {line}\n")


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def emit_run_outputs(out: Path, stats: engine.SimStats, result=None) -> None:
    write_json(out / "stats.json", stats.to_json_dict())
    with (out / "heatmap.csv").open("w") as fh:
        mapping.export_heatmap(stats.grid, fh)
    for kind, hist in stats.cpi.items():
        write_series_csv(out / f"cpi_{kind}.csv", ["cycles", "count"], sorted(hist.items()))
    write_series_csv(
        out / "hashpad_occupancy.csv", ["cycle", "occupancy"], stats.occupancy_trace
    )
    write_series_csv(
        out / "inflight_reads.csv", ["cycle", "outstanding"], stats.inflight_trace
    )
    if result is not None:
        with (out / "result.mtx").open("w") as fh:
            matio.write_matrix_market(matio.csr_to_coo(result), fh)
    sidecar_log(out / "run.log", [
        f"kcps={stats.kcps:.3f} hacc_per_s={stats.hacc_per_s:.1f} wall={stats.wall_seconds:.3f}s"
    ])


def cmd_run(args) -> int:
    # built, and so checked, before the operands are read and --out is made
    chip, mcfg = engine_configs(args)
    name, a, b_name, b = load_operands(args)
    out = out_dir(args)
    stats, result, run = engine.run_spgemm_simulation(
        a, b, chip, mcfg, seed=args.seed, eviction_mode=args.eviction)
    write_json(
        out / "seed_log.json",
        {
            "strategy": args.mapper,
            "rng_seed": args.seed,
            "row_gammas": {str(r): g for r, g in sorted(run.mapper.row_gammas.items())},
        },
    )
    write_json(out / "image_manifest.json", run.program.image.manifest())
    write_json(
        out / "manifest.json",
        {
            "command": "run",
            "matrix": name,
            "matrix_b": b_name,
            "config": args.config,
            "mapper": args.mapper,
            "seed": args.seed,
            "eviction": args.eviction,
        },
    )
    emit_run_outputs(out, stats, result if args.emit_result else None)
    print(f"run: {name} x {b_name} on {args.config}: {stats.cycles} cycles, "
          f"{stats.evictions} output nonzeros, conservation ok")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def cmd_verify(args) -> int:
    # built, and so checked, before any path runs, even with --trace
    chip, mcfg = engine_configs(args)
    name, a, _, b = load_operands(args)
    tol = 0.0 if args.integer_mode else 1e-9
    reference = oracle.spgemm_gustavson(a, b)
    failures = 0

    if a.n_rows <= 512:
        dense = oracle.spgemm_dense_oracle(matio.csr_to_dense(a), matio.csr_to_dense(b))
        div = first_divergence(reference, matio.dense_to_csr(dense), max(tol, 1e-12))
        failures += _report("dense-oracle vs gustavson", div)

    plan = oracle.symbolic_pass(a, b)
    a_csc = matio.to_csc(matio.csr_to_coo(a))
    program = isa.lower_spgemm(a_csc, b, plan)

    if args.trace:
        label = f"trace replay ({args.trace})"
        try:
            with open(args.trace) as fh:
                program = isa.read_trace(fh, image=program.image)
        except OSError as err:
            raise TraceError(f"cannot read trace: {err}") from err
        if (program.n_rows, program.n_cols) != (a.n_rows, b.n_cols):
            raise TraceError(
                f"{args.trace}: trace shape {program.n_rows}x{program.n_cols} is not "
                f"the product's {a.n_rows}x{b.n_cols}"
            )
    else:
        label = "functional replay"
        with (out_dir(args) / "program.trace").open("w") as fh:
            isa.write_trace(program, fh)
    try:
        replayed = isa.replay(program)
    except MemoryFaultError as err:
        failures += 1
        print(f"FAIL {label}: {err}")
    else:
        failures += _report(label, first_divergence(replayed, reference, tol))

    if not args.trace:
        for version in smash.VERSIONS:
            got = smash.smash_spgemm(a, b, smash.SmashConfig(version=version))
            failures += _report(f"smash-{version}", first_divergence(got, reference, tol))

        _, sim_out, _ = engine.run_spgemm_simulation(a, b, chip, mcfg, seed=args.seed)
        div = first_divergence(sim_out, reference, tol)
        failures += _report(f"simulation ({args.config})", div)

    if failures:
        print(f"verify: {failures} path(s) diverged on {name}")
        return EXIT_VERIFY
    print(f"verify: all paths match the oracle on {name}")
    return EXIT_OK


def _report(label, divergence) -> bool:
    """Print PASS, or FAIL with the first divergent element; True on FAIL."""
    if divergence is None:
        print(f"PASS {label}")
        return False
    i, j, got, want = divergence
    print(f"FAIL {label}: first divergent element ({i},{j}): got {got!r}, want {want!r}")
    return True


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def _sweep_point(payload):
    """Simulate A*A: (stats dict, None), or (None, error) if the run failed."""
    a, chip, mcfg, seed = payload
    try:
        stats, _, _ = engine.run_spgemm_simulation(a, a, chip, mcfg, seed=seed)
        return stats.to_json_dict(), None
    except SparsimError as err:
        return None, str(err)


def stats_name(label: str) -> str:
    """The stats file name of sweep point ``label``: a ``file:`` config's
    path separators are written ``%2F``, after each ``%`` is written ``%25``."""
    return "stats_" + label.replace("%", "%25").replace("/", "%2F") + ".json"


def cmd_sweep(args) -> int:
    # every chip and mapper is built, and so checked, before any point runs
    chips = [(name, chip_config(name)) for name in args.configs.split(",") if name]
    mappers = [(name, mapper_config(name, args.k, args.seed))
               for name in args.mappers.split(",") if name]
    matrices = [read_matrix(args, path=path) for path in args.matrix or []]
    matrices += [read_matrix(args, rmat=spec) for spec in args.rmat or []]
    if not chips or not mappers or not matrices:
        raise ConfigError("sweep needs at least one config, one mapper, and one matrix")

    out = out_dir(args)
    grid = list(itertools.product(matrices, chips, mappers))
    labels = [f"{m}__{c}__{p}" for (m, _), (c, _), (p, _) in grid]
    # every point's stats file name is checked before any point runs, too
    name_max = os.pathconf(out, "PC_NAME_MAX")
    for label in labels:
        if len(os.fsencode(stats_name(label))) > name_max:
            raise OSError(errno.ENAMETOOLONG, f"sweep point {label}: its stats file name "
                          f"passes the {name_max}-byte limit of {out}")
    payloads = [(a, chip, mcfg, args.seed) for (_, a), (_, chip), (_, mcfg) in grid]
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(_sweep_point, payloads))
    else:
        results = [_sweep_point(p) for p in payloads]

    rows = sorted((label, m, c, p, *result)
                  for label, ((m, _), (c, _), (p, _)), result in zip(labels, grid, results))
    tile4_cycles = {(m, p): stats_dict["cycles"] for _, m, c, p, stats_dict, _ in rows
                    if stats_dict is not None and c == "tile4"}
    summary = []
    for label, mat_name, config_name, mapper_name, stats_dict, error in rows:
        if stats_dict is None:
            summary.append([label, mat_name, config_name, mapper_name, f"error: {error}"]
                           + [""] * 8)
            continue
        write_json(out / stats_name(label), stats_dict)
        base = tile4_cycles.get((mat_name, mapper_name))
        norm = f"{stats_dict['cycles'] / base:.6f}" if base else ""
        cpi = stats_dict["cpi"]["mmh4"]["mean"]
        summary.append([
            label, mat_name, config_name, mapper_name, "ok",
            stats_dict["cycles"], norm,
            stats_dict["instructions"]["hacc_committed"],
            stats_dict["evictions"], f"{cpi:.6f}",
            stats_dict["hashpad"]["occupancy_max"],
            stats_dict["memory"]["bytes_read"],
            stats_dict["memory"]["bytes_written"],
        ])
    write_series_csv(
        out / "summary.csv",
        ["point", "matrix", "config", "mapper", "status", "cycles",
         "cycles_vs_tile4", "hacc", "evictions", "mean_cpi_mmh4",
         "occupancy_max", "bytes_read", "bytes_written"],
        summary,
    )

    n_err = sum(1 for r in rows if r[4] is None)
    print(f"sweep: {len(rows)} points, {n_err} failed; summary at {out / 'summary.csv'}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# bloat
# ---------------------------------------------------------------------------


def cmd_bloat(args) -> int:
    if not args.matrix:
        raise ConfigError("bloat needs at least one --matrix dataset")
    out = out_dir(args)
    rows = []
    for path in args.matrix:
        coo = matio.load_matrix(path)
        sym = matio.symmetrize(coo)
        a = matio.to_csr(sym)
        plan = oracle.symbolic_pass(a, a)
        rep = oracle.bloat_report(plan)
        sparsity = (1.0 - sym.nnz / (sym.n_rows * sym.n_cols)) * 100.0
        rows.append({
            "dataset": Path(path).name,
            "nodes": sym.n_rows,
            "edges_raw": coo.nnz,
            "nnz_symmetric": sym.nnz,
            "sparsity_pct": round(sparsity, 4),
            "pp_interim": rep.pp_interim,
            "nnz_output": rep.nnz_output,
            "bloat_percent": round(rep.bloat_percent, 2),
        })
        print(f"{rows[-1]['dataset']}: nodes={sym.n_rows} pp={rep.pp_interim} "
              f"out={rep.nnz_output} bloat={rep.bloat_percent:.2f}%")
    write_series_csv(out / "bloat.csv", list(rows[0]), [list(r.values()) for r in rows])
    write_json(out / "bloat.json", rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# smash
# ---------------------------------------------------------------------------


def cmd_smash(args) -> int:
    name, a, _, b = load_operands(args)
    out = out_dir(args)
    versions = smash.VERSIONS if args.smash_version == "all" else [args.smash_version]
    reference = oracle.spgemm_gustavson(a, b)
    tol = 0.0 if args.integer_mode else 1e-9
    failures = 0
    reports = {}
    for version in versions:
        audit = smash.SmashAudit(version=version)
        cfg = smash.SmashConfig(version=version, n_workers=args.workers)
        got = smash.smash_spgemm(a, b, cfg, audit=audit)
        div = first_divergence(got, reference, tol)
        failures += _report(f"smash-{version} ({args.workers} workers)", div)
        reports[version] = audit.to_json_dict()
    write_json(out / "smash_audit.json", {"matrix": name, "versions": reports})
    return EXIT_VERIFY if failures else EXIT_OK


# ---------------------------------------------------------------------------
# gcn
# ---------------------------------------------------------------------------


def cmd_gcn(args) -> int:
    if args.features < 1 or args.hidden < 1:
        raise ConfigError(f"--features and --hidden must be >= 1, "
                          f"got {args.features} and {args.hidden}")
    # built, and so checked, even when --functional leaves them unused
    chip, mcfg = engine_configs(args)
    name, adj, _, _ = load_operands(args)
    rng = np.random.Generator(np.random.PCG64(args.seed + 17))
    x = rng.normal(size=(adj.n_cols, args.features))
    w = rng.normal(size=(args.features, args.hidden))
    job = oracle.gcn_layer_workload(adj, x, w)
    out = out_dir(args)

    if args.functional:
        aggregated = job.run_aggregation()
    else:
        stats, agg_csr, _ = engine.run_spgemm_simulation(
            adj, matio.dense_to_csr(x), chip, mcfg, seed=args.seed)
        aggregated = matio.csr_to_dense(agg_csr)
        emit_run_outputs(out, stats)
    chained = job.run_combination(aggregated)
    err = np.max(np.abs(chained - job.reference) / np.maximum(np.abs(job.reference), 1.0))
    ok = err <= 1e-9
    write_json(
        out / "gcn_report.json",
        {
            "matrix": name,
            "features": args.features,
            "hidden": args.hidden,
            "max_relative_error": float(err),
            "pass": bool(ok),
            "aggregation": "simulated" if not args.functional else "functional",
        },
    )
    print(f"gcn: {name} f={args.features} h={args.hidden} rel_err={err:.3e} "
          f"{'PASS' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_VERIFY


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparsim",
        description="Sparse matmul kernels and a decoupled-accelerator simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def shared(p):
        p.add_argument("--integer-mode", action="store_true",
                       help="replace values with small integers (exact arithmetic)")
        p.add_argument("--seed", type=seed, default=0, help="random seed, >= 0")
        p.add_argument("--out", default="sparsim-out", help="output directory")

    def inputs(p, matrix_b=True):
        p.add_argument("--matrix", help="input matrix (.mtx or edge list)")
        if matrix_b:  # gcn builds its own second operand
            p.add_argument("--matrix-b", dest="matrix_b", help="optional second operand")
        p.add_argument("--rmat", help="synthetic input, scale:ef[:a:b:c:d]")
        shared(p)

    def common(p, matrix_b=True):
        inputs(p, matrix_b)
        p.add_argument("--config", default="tile4",
                       help="tile4|tile16|tile64|tile16-gnn|file:PATH")
        p.add_argument("--mapper", default=mapping.DRHM_LOW, choices=MAPPER_CHOICES)
        p.add_argument("--k", type=int, default=16, help="mapper shift bit count")

    p = sub.add_parser("run", help="simulate one sparse multiply")
    common(p)
    p.add_argument("--eviction", choices=[engine.ROLLING, engine.BARRIER],
                   default=engine.ROLLING)
    p.add_argument("--emit-result", action="store_true")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("verify", help="diff every execution path against the oracles")
    common(p)
    p.add_argument("--trace", help="replay this instruction trace instead")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", help="run a config x mapper x matrix grid")
    p.add_argument("--configs", default="tile4,tile16")
    p.add_argument("--mappers", default=",".join(MAPPER_CHOICES))
    p.add_argument("--matrix", action="append", help="repeatable dataset path")
    p.add_argument("--rmat", action="append", help="repeatable rmat spec")
    p.add_argument("--k", type=int, default=16)
    p.add_argument("--jobs", type=positive_int, default=1, help="worker processes, >= 1")
    shared(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("bloat", help="partial-product bloat for C = A*A")
    p.add_argument("--matrix", action="append", help="repeatable dataset path")
    p.add_argument("--out", default="sparsim-out")
    p.set_defaults(func=cmd_bloat)

    p = sub.add_parser("smash", help="run the host hashing kernel")
    inputs(p)
    p.add_argument("--smash-version", dest="smash_version", default="all",
                   choices=SMASH_CHOICES)
    p.add_argument("--workers", type=positive_int, default=4,
                   help="virtual workers in the audit ledger, >= 1; results do not depend on it")
    p.set_defaults(func=cmd_smash)

    p = sub.add_parser("gcn", help="one graph-convolution layer")
    common(p, matrix_b=False)
    p.add_argument("--features", type=int, default=16)
    p.add_argument("--hidden", type=int, default=8)
    p.add_argument("--functional", action="store_true",
                   help="skip the cycle simulator for the aggregation")
    p.set_defaults(func=cmd_gcn)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (MatrixFormatError, TraceError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_IO
    except (VerificationError, SimulationError) as err:
        print(f"verification failed: {err}", file=sys.stderr)
        return EXIT_VERIFY
    except SparsimError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
