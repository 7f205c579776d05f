"""sparsim benchmark: one workload per process, every output checked.

    python3 perfbench/run.py --workload run-tile4 --seed 1 --seconds 30 --trace 0

Run from the repository root. The workloads and why each was chosen are in
``workloads.py``. The run has three phases:

1. Set-up, repeated eleven times and reported as the median (``setup_s``):
   ``import sparsim`` timed in a fresh interpreter, plus generating the
   input (``generate_rmat``, ``with_integer_values``, ``to_csr``).
2. A reference product from ``scipy.sparse``, not timed.
3. Rounds. A round runs each of the workload's ops once on the same input.
   The first round always runs; another starts only if it is expected to
   end within ``--seconds``. Every op's output is checked against the
   reference, and its digests and modelled counts must repeat exactly in
   every round and in every earlier run of the same sources and seed in
   this checkout (kept under ``perfbench/out/``). An op that fails is not
   run again in later rounds.

Times in ``pp_per_s`` and ``setup_s`` are reference seconds, corrected for
the host's speed as measured by the probe in ``probe.py`` (on the shared
host the benchmark was written on, the same op's wall time drifts by up to
1.5x within a minute): each round's time by the host's speed during that
round, and the median set-up time by the host's speed over all of set-up.
The same figures in wall-clock seconds are printed as ``pp_per_wall_s``
and ``setup_wall_s`` above the last line.

With ``--trace 0`` the last line reports the end-to-end metrics:
``pp_per_s`` (partial products finished per second of the ops that
succeeded, median over rounds), ``setup_s``, and ``peak_rss_mib`` (peak RSS
of this process up to the end of the first round, so that it does not grow
with the number of rounds that fit). ``attempted`` is the number of the
workload's ops and ``failed`` the number of them that failed in any round,
so both depend on the seed and the sources only, not on how many rounds
fit; their share is printed as ``failed_ops`` above the last line.
``correct`` is false when an output differs from the reference or a digest
or count fails to repeat; an op that raises counts in ``failed`` only.

With ``--trace 1`` one untraced round runs first, then traced rounds with
every layer boundary wrapped (``tracer.py``). The last line reports the
per-layer metrics, per traced round, and the tracing overhead against the
untraced round; the spans are written to ``perfbench/out/trace-*.json``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import probe

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPS = 11
IMPORT_SCRIPT = "import time; t = time.perf_counter(); import sparsim; print(time.perf_counter() - t)"

perf_counter = time.perf_counter


def import_seconds() -> float:
    """Seconds ``import sparsim`` takes in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_SCRIPT], env=env, capture_output=True, text=True,
        timeout=120, check=True,
    )
    return float(done.stdout)


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "sparsim").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def run_rounds(wl, a, ref, seed, budget_s, failed, tracer=None):
    """The rounds run, and the peak RSS in MiB when the first one ended.
    Ops whose label is in ``failed`` are skipped; those that fail are added.
    Another round starts only if the longest time seen for each op still to
    run fits in what is left of ``budget_s``."""
    rounds, start, longest = [], perf_counter(), {}
    while True:
        ops = []
        for label, run in wl.ops(a, ref, seed):
            if label in failed:
                continue
            if tracer is None:
                op = run()
            else:
                tracer.op = f"round{len(rounds)}:{label}"
                op = tracer.call("op", run)
            if op.ok:
                longest[label] = max(longest.get(label, 0.0), op.wall_s)
            else:
                failed.add(label)
                longest.pop(label, None)
            ops.append(op)
        if rounds and not ops:  # every op has failed
            return rounds, peak_mib
        rounds.append(ops)
        if len(rounds) == 1:
            peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if not longest or perf_counter() - start + sum(longest.values()) > budget_s:
            return rounds, peak_mib


def repeat_problems(rounds, path: Path) -> list[str]:
    """Ops whose digests or modelled counts differ between rounds, or from
    an earlier run of the same sources and seed recorded at ``path``."""
    seen, problems = {}, []
    for ops in rounds:
        for op in ops:
            if op.ok:
                fp = json.dumps({"digests": op.digests, "counts": op.counts}, sort_keys=True)
                if seen.setdefault(op.label, fp) != fp:
                    problems.append(f"{op.label}: output or modelled counts changed between rounds")
    if path.exists():
        earlier = json.loads(path.read_text())
        for label, fp in sorted(seen.items()):
            if label in earlier and earlier[label] != fp:
                problems.append(f"{label}: output or modelled counts differ from an earlier run ({path.name})")
    elif seen:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(seen, sort_keys=True, indent=1) + "\n")
        os.replace(tmp, path)
    return problems


def pp_per_s(rounds, speed=None) -> float:
    """Median over rounds of the successful ops' partial products per
    second. With ``speed``, a round's seconds are reference seconds at the
    host's speed during that round."""
    rates = []
    for ops in rounds:
        done = [op for op in ops if op.ok]
        spent = sum(op.wall_s for op in done)
        if speed is not None:
            spent *= probe.REF_S / speed.kernel_mean(ops[0].start, ops[-1].start + ops[-1].wall_s)
        rates.append(sum(op.pp for op in done) / spent if spent else 0.0)
    return statistics.median(rates)


def layer_metrics(tr, untraced, traced, a, generate_s, smash_workers) -> dict:
    """Per-layer metrics per traced round, as {name: (value, unit)}."""
    from sparsim import smash

    n = len(traced)
    done = [op for op in traced[-1] if op.ok]
    sims = [op for op in done if "cycles" in op.counts]

    def total(key):
        return sum(op.counts.get(key, 0) for op in done)

    def mean(key):
        return sum(op.counts[key] for op in sims) / len(sims) if sims else 0.0

    def per_round(name):
        return tr.seconds(name) / n

    tokens = [au.tokens_per_worker for au in tr.audits if au.tokens_per_worker]
    token_skew = max(
        (max(t.values()) / (sum(t.values()) / smash_workers) for t in tokens), default=0.0
    )
    untraced_s = sum(op.wall_s for op in untraced if op.ok)
    traced_s = sum(op.wall_s for ops in traced for op in ops if op.ok) / n
    engine_wall = sum(op.engine_wall_s for op in untraced if op.ok and "cycles" in op.counts)
    engine_cycles = sum(op.counts["cycles"] for op in untraced if op.ok and "cycles" in op.counts)
    haccs = total("haccs")

    m = {
        "matio.generate_s": (generate_s, "s"),
        "matio.to_csc_s": (per_round("matio.to_csc"), "s"),
        "matio.nnz": (a.nnz, "count"),
        "oracle.symbolic_s": (per_round("oracle.symbolic_pass"), "s"),
        "oracle.plan_windows_s": (per_round("oracle.plan_windows"), "s"),
        "oracle.gustavson_s": (per_round("oracle.spgemm_gustavson"), "s"),
        "oracle.bloat_report_s": (per_round("oracle.bloat_report"), "s"),
        "oracle.pp": (total("pp"), "count"),
        "oracle.out_nnz": (total("out_nnz"), "count"),
        "oracle.windows": (total("windows"), "count"),
        "isa.lower_s": (per_round("isa.lower_spgemm"), "s"),
        "isa.replay_s": (per_round("isa.replay"), "s"),
        "isa.expand_s": (per_round("isa.expand"), "s"),
        "isa.expand_calls": (tr.calls("isa.expand") / n, "count"),
        "isa.mmh4": (total("mmh4"), "count"),
    }
    for v in smash.VERSIONS:
        m[f"smash.{v}_s"] = (per_round(f"smash.{v}"), "s")
    m["smash.tokens_total"] = (sum(au.tokens_total for au in tr.audits) / n, "count")
    m["smash.token_max_over_mean"] = (token_skew, "ratio")
    m["mapping.map_s"] = (per_round("mapping.map"), "s")
    m["mapping.map_calls"] = (tr.calls("mapping.map") / n, "count")
    m["mapping.mem_max_over_mean"] = (mean("mem_max_over_mean"), "ratio")
    m["mapping.grid_cv"] = (mean("grid_cv"), "ratio")
    m["mapping.idle_mems"] = (mean("idle_mems"), "count")
    for c in ("core", "mem", "memctrl"):
        m[f"uarch.{c}.step_s"] = (per_round(f"uarch.{c}.step"), "s")
        m[f"uarch.{c}.steps"] = (tr.calls(f"uarch.{c}.step") / n, "count")
        m[f"uarch.{c}.active_ratio"] = (tr.active_ratio(f"uarch.{c}.step"), "ratio")
    m["uarch.probes_per_hacc"] = (total("probes") / haccs if haccs else 0.0, "ratio")
    for k in ("reg", "operand", "port", "dispatch"):
        m[f"uarch.stalls.{k}"] = (total(f"stalls.{k}"), "count")
    for k in ("flits", "hops_total", "reads_merged", "read_transactions", "write_transactions"):
        m[f"uarch.{k}"] = (total(k), "count")
    m["uarch.hashpad_occupancy_max"] = (max((op.counts["hashpad_occupancy_max"] for op in sims), default=0), "count")
    m["uarch.cpi.mmh4_mean"] = (mean("cpi.mmh4_mean"), "cycles")
    m["uarch.cpi.hacc_mean"] = (mean("cpi.hacc_mean"), "cycles")
    m["engine.init_s"] = (per_round("engine.init"), "s")
    m["engine.run_s"] = (per_round("engine.run"), "s")
    m["engine.kcps"] = (engine_cycles / engine_wall / 1000.0 if engine_wall else 0.0, "kcycles/s")
    m["engine.sim_cycles"] = (total("cycles"), "count")
    m["engine.self_s"] = (tr.self_seconds("engine.run") / n, "s")
    m["trace.untraced_round_s"] = (untraced_s, "s")
    m["trace.traced_round_s"] = (traced_s, "s")
    m["trace.overhead_pct"] = ((traced_s / untraced_s - 1.0) * 100.0 if untraced_s else 0.0, "%")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "sparsim" / "__init__.py").is_file():
        print(f"error: no sparsim sources under {SRC}", file=sys.stderr)
        return 2
    speed = probe.SpeedProbe().start()
    try:
        return run(args, parser, speed)
    finally:
        speed.stop()


def run(args, parser, speed) -> int:
    setup_start = perf_counter()
    import_samples = [import_seconds() for _ in range(SETUP_REPS)]
    sys.path.insert(0, str(SRC))
    import sparsim

    if Path(sparsim.__file__).resolve().parent != SRC / "sparsim":
        print(f"error: imported sparsim from {sparsim.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracer as tracing
    import workloads

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    setup = [workloads.make_input(*wl.rmat, args.seed) for _ in range(SETUP_REPS)]
    a = setup[-1][0]
    setup_wall_s = statistics.median(imp + s[2] for imp, s in zip(import_samples, setup))
    setup_s = setup_wall_s * probe.REF_S / speed.kernel_mean(setup_start, perf_counter())
    generate_s = statistics.median(s[1] for s in setup)
    del setup
    ref = workloads.reference(a, wl.keep_product)
    labels = [label for label, _ in wl.ops(a, ref, args.seed)]
    failed_labels = set()

    if args.trace:
        t0 = perf_counter()
        untraced, _ = run_rounds(wl, a, ref, args.seed, 0.0, failed_labels)
        tr = tracing.install()
        try:
            traced, _ = run_rounds(
                wl, a, ref, args.seed, args.seconds - (perf_counter() - t0), failed_labels, tr
            )
        finally:
            tr.uninstall()
        rounds = untraced + traced
    else:
        rounds, peak_mib = run_rounds(wl, a, ref, args.seed, args.seconds, failed_labels)

    fp_path = OUT / f"fingerprints-{wl.name}-s{args.seed}-{source_digest()[:16]}.json"
    problems = repeat_problems(rounds, fp_path)
    ops = [op for r in rounds for op in r]
    failed = len(failed_labels)

    print(f"workload {wl.name} seed {args.seed} rmat {wl.rmat[0]}:{wl.rmat[1]} "
          f"nnz {a.nnz} rounds {len(rounds)}")
    for i, r in enumerate(rounds):
        for op in r:
            status = "ok" if op.ok else f"FAILED {op.error}"
            digests = " ".join(f"{k}={v[:16]}" for k, v in sorted(op.digests.items()))
            print(f"  round {i} op {op.label}: {status} wall_s={op.wall_s:.3f} pp={op.pp} {digests}")
    for p in problems:
        print(f"  REPEAT {p}")

    if args.trace:
        metrics = layer_metrics(tr, untraced[0], traced, a, generate_s, workloads.SMASH_WORKERS)
        metrics["host.kernel_us"] = (statistics.median(speed.kernel_s) * 1e6, "us")
        OUT.mkdir(parents=True, exist_ok=True)
        trace_path = OUT / f"trace-{wl.name}-s{args.seed}.json"
        trace_path.write_text(json.dumps({
            "workload": wl.name, "seed": args.seed,
            "ops": [[dataclasses.asdict(op) for op in r] for r in rounds],
            **tr.to_json_dict(),
        }) + "\n")
        print(f"spans written to {trace_path.relative_to(HERE.parent)}")
    else:
        print(f"pp_per_wall_s {pp_per_s(rounds)} pp/s")
        print(f"setup_wall_s {setup_wall_s} s")
        metrics = {
            "pp_per_s": (pp_per_s(rounds, speed), "pp/s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mib": (peak_mib, "MiB"),
        }
    print(f"failed_ops {failed / len(labels)} share ({failed} of {len(labels)} ops)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")

    result = {
        "correct": not problems and not any(op.wrong for op in ops),
        "attempted": len(labels),
        "failed": failed,
        "metrics": {
            name: {"value": value.item() if hasattr(value, "item") else value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
