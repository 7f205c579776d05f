"""Command-line interface: commands, exit codes, output idempotency."""

import dataclasses
import hashlib
import json
import shlex
from pathlib import Path

import numpy as np
import pytest

from sparsim import cli, matio, uarch


def write_mtx(path: Path, coo):
    with path.open("w") as fh:
        matio.write_matrix_market(coo, fh)


@pytest.fixture
def identity_mtx(tmp_path):
    coo = matio.coo_from_entries(8, 8, range(8), range(8), [1.0] * 8)
    path = tmp_path / "eye.mtx"
    write_mtx(path, coo)
    return path


def out_hashes(out: Path) -> dict:
    digests = {}
    for p in sorted(out.iterdir()):
        if p.name == "run.log":  # timestamps live only here
            continue
        digests[p.name] = hashlib.sha256(p.read_bytes()).hexdigest()
    return digests


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_identity_all_paths_pass(identity_mtx, tmp_path, capsys):
    rc = cli.main([
        "verify", "--matrix", str(identity_mtx), "--out", str(tmp_path / "o"),
        "--integer-mode",
    ])
    captured = capsys.readouterr().out
    assert rc == cli.EXIT_OK
    assert captured.count("PASS") >= 6  # dense, replay, 4 smash versions, sim


def test_verify_rmat_integer_mode(tmp_path, capsys):
    rc = cli.main([
        "verify", "--rmat", "5:3", "--seed", "3", "--integer-mode",
        "--out", str(tmp_path / "o"),
    ])
    assert rc == cli.EXIT_OK
    assert "all paths match" in capsys.readouterr().out


VERIFY_ARGS = ["verify", "--rmat", "4:3", "--seed", "2", "--integer-mode"]


def written_trace(tmp_path, capsys) -> tuple[Path, list]:
    """The trace `verify --out` writes for VERIFY_ARGS, and its lines."""
    assert cli.main(VERIFY_ARGS + ["--out", str(tmp_path / "o")]) == cli.EXIT_OK
    capsys.readouterr()
    trace = tmp_path / "o" / "program.trace"
    return trace, trace.read_text().splitlines()


def with_field(lines, line, field, value) -> list:
    """``lines`` with one whitespace-separated field of one line replaced."""
    toks = lines[line].split()
    toks[field] = value
    return lines[:line] + [" ".join(toks)] + lines[line + 1:]


def test_verify_corrupted_trace_reports_divergence(tmp_path, capsys):
    trace, lines = written_trace(tmp_path, capsys)
    argv = VERIFY_ARGS + ["--trace", str(trace), "--out", str(tmp_path / "o")]
    assert cli.main(argv) == cli.EXIT_OK
    assert f"PASS trace replay ({trace})" in capsys.readouterr().out

    # point one record's A-data address at the next element
    a_data = hex(int(lines[7].split()[2], 16) + 8)
    trace.write_text("\n".join(with_field(lines, 7, 2, a_data)) + "\n")
    rc = cli.main(argv)
    out = capsys.readouterr().out
    assert rc == cli.EXIT_VERIFY
    assert "first divergent element (" in out


BAD_TRACE_CASES = [
    # an old binary trace's magic, then bytes that are not UTF-8
    ("not-utf8", lambda lines: b"SPRS" + bytes(range(256)), cli.EXIT_IO,
     "not a text trace"),
    ("shape-smaller", lambda lines: lines[:2] + ["shape 8 8"] + lines[3:], cli.EXIT_IO,
     "trace shape 8x8 is not the product's 16x16"),
    ("shape-wider", lambda lines: lines[:2] + ["shape 16 99999999999"] + lines[3:],
     cli.EXIT_IO, "trace shape 16x99999999999 is not the product's 16x16"),
    ("layout-without-row-bits", lambda lines: lines[:1] + ["layout 0 32"] + lines[2:],
     cli.EXIT_IO, "invalid tag layout 0/32"),
    # every preamble line must carry its own label, in order
    ("shape-and-layout-swapped", lambda lines: lines[:1] + [lines[2], lines[1]] + lines[3:],
     cli.EXIT_IO, "malformed trace preamble: line 2 is not the 'layout' line"),
    ("windows-mislabelled", lambda lines: lines[:4] + ["nothing 0"] + lines[5:],
     cli.EXIT_IO, "malformed trace preamble: line 5 is not the 'windows' line"),
    ("shape-not-an-integer", lambda lines: lines[:2] + ["shape 16 x"] + lines[3:],
     cli.EXIT_IO, "malformed trace preamble: invalid literal"),
    # cut at a record boundary: lines the lost records would close stay open
    ("cut-at-record", lambda lines: lines[:-3], cli.EXIT_VERIFY,
     "FAIL trace replay ({trace}): 4 hash lines never evicted"),
    ("unmapped-a-data", lambda lines: with_field(lines, 7, 2, "0x10"), cli.EXIT_VERIFY,
     "FAIL trace replay ({trace}): unmapped address 0x10"),
    # a row outside the 16-row product, which used to be dropped from the output
    ("row-outside-product",
     lambda lines: with_field(lines, 5, 8, ",".join(["70000"] + lines[5].split()[8].split(",")[1:])),
     cli.EXIT_VERIFY,
     "FAIL trace replay ({trace}): lane 0 (instruction 0) writes row 70000, "
     "outside the product's 16 rows"),
    # each field fits in int64, but base + address would wrap
    ("base-plus-address-overflows", lambda lines: with_field(lines, 5, 1, "0x7fffffffffffffff"),
     cli.EXIT_IO, "corrupted record 0: base plus an operand address exceeds 64 signed bits"),
]


@pytest.mark.parametrize(
    "corrupt,code,message", [pytest.param(*c[1:], id=c[0]) for c in BAD_TRACE_CASES]
)
def test_verify_bad_trace_exit_codes(tmp_path, capsys, corrupt, code, message):
    trace, lines = written_trace(tmp_path, capsys)
    bad = corrupt(lines)
    if isinstance(bad, bytes):
        trace.write_bytes(bad)
    else:
        trace.write_text("\n".join(bad) + "\n")
    rc = cli.main(VERIFY_ARGS + ["--trace", str(trace), "--out", str(tmp_path / "o")])
    out, err = capsys.readouterr()
    assert rc == code, out + err
    assert message.format(trace=trace) in out + err
    assert "Traceback" not in err


@pytest.mark.parametrize("traced", [False, True], ids=["paths", "trace"])
@pytest.mark.parametrize("extra,code,names", [
    pytest.param(["--config", "tile99"], cli.EXIT_USAGE, "tile99", id="unknown-config"),
    pytest.param(["--k", "40"], cli.EXIT_USAGE, "k must be in [0, 32)", id="k-out-of-range"),
    pytest.param(["--config", "file:{tmp}/nope.json"], cli.EXIT_IO, "nope.json",
                 id="missing-config-file"),
])
def test_verify_checks_chip_and_mapper_before_any_path(tmp_path, capsys, traced, extra, code,
                                                       names):
    argv = VERIFY_ARGS + [arg.format(tmp=tmp_path) for arg in extra]
    if traced:
        trace, _ = written_trace(tmp_path, capsys)
        argv += ["--trace", str(trace)]
    out = tmp_path / "checked"
    rc = cli.main(argv + ["--out", str(out)])
    captured = capsys.readouterr()
    assert rc == code, captured.out + captured.err
    assert names in captured.err
    assert "PASS" not in captured.out
    assert not (out / "program.trace").exists()


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def test_run_outputs_and_idempotency(tmp_path):
    args = [
        "run", "--rmat", "5:3", "--seed", "9", "--integer-mode",
        "--config", "tile4", "--mapper", "drhm-low",
    ]
    outs = []
    for name in ("r1", "r2"):
        rc = cli.main(args + ["--out", str(tmp_path / name)])
        assert rc == cli.EXIT_OK
        outs.append(out_hashes(tmp_path / name))
    assert outs[0] == outs[1]
    names = set(outs[0])
    assert {"stats.json", "heatmap.csv", "manifest.json",
            "cpi_mmh4.csv", "cpi_hacc-re.csv"} <= names


def test_run_emit_result_round_trips(identity_mtx, tmp_path):
    out = tmp_path / "o"
    rc = cli.main([
        "run", "--matrix", str(identity_mtx), "--out", str(out), "--emit-result",
    ])
    assert rc == cli.EXIT_OK
    got = matio.load_matrix(out / "result.mtx")
    assert np.array_equal(matio.to_dense(got), np.eye(8))


def test_run_stats_schema(tmp_path):
    out = tmp_path / "o"
    cli.main(["run", "--rmat", "4:2", "--seed", "1", "--out", str(out)])
    data = json.loads((out / "stats.json").read_text())
    assert data["schema"] == "sparsim-stats-v1"
    for key in ("cycles", "instructions", "evictions", "stalls", "cpi",
                "hashpad", "network", "memory", "mapper", "conservation"):
        assert key in data
    assert data["conservation"]["ok"] is True
    # Wall-clock speed goes only to the run.log sidecar.
    assert not {"kcps", "hacc_per_s", "wall_seconds"} & set(data)
    fields = dict(f.split("=") for f in (out / "run.log").read_text().split()[1:])
    kcps, hacc_per_s = float(fields["kcps"]), float(fields["hacc_per_s"])
    assert kcps > 0 and hacc_per_s > 0
    # Both rates share the engine's wall time.
    want = data["instructions"]["hacc_committed"] / (data["cycles"] / 1000)
    assert hacc_per_s / kcps == pytest.approx(want, rel=0.01)


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def test_sweep_grid_and_rerun_identical(tmp_path):
    base = [
        "sweep", "--rmat", "4:2", "--rmat", "5:2", "--configs", "tile4,tile16",
        "--mappers", "ring,modular,drhm-low", "--seed", "2", "--integer-mode",
    ]
    rc = cli.main(base + ["--out", str(tmp_path / "s1")])
    assert rc == cli.EXIT_OK
    stats_files = list((tmp_path / "s1").glob("stats_*.json"))
    assert len(stats_files) == 2 * 2 * 3
    rc = cli.main(base + ["--out", str(tmp_path / "s2")])
    assert rc == cli.EXIT_OK
    assert out_hashes(tmp_path / "s1") == out_hashes(tmp_path / "s2")
    summary = (tmp_path / "s1" / "summary.csv").read_text()
    assert "cycles_vs_tile4" in summary.splitlines()[0]
    # tile4 rows normalize to 1.0
    for line in summary.splitlines()[1:]:
        cells = line.split(",")
        if cells[2] == "tile4":
            assert float(cells[6]) == 1.0


def test_sweep_empty_grid_is_usage_error(tmp_path, capsys):
    rc = cli.main(["sweep", "--configs", "", "--out", str(tmp_path / "s")])
    assert rc == cli.EXIT_USAGE


@pytest.mark.parametrize("extra,code,names", [
    pytest.param(["--configs", "tile4,tile99"], cli.EXIT_USAGE, "tile99", id="unknown-config"),
    pytest.param(["--configs", "tile4,file:{tmp}/nope.json"], cli.EXIT_IO, "nope.json",
                 id="missing-config-file"),
    pytest.param(["--mappers", "ring,nosuch"], cli.EXIT_USAGE, "nosuch", id="unknown-mapper"),
    pytest.param(["--k", "40"], cli.EXIT_USAGE, "k must be in [0, 32)", id="k-out-of-range"),
    # the config loads, but its escaped path makes stats names pass 255 bytes
    pytest.param(["--configs", "file:{long}"], cli.EXIT_IO, "/chip.json__ring: its stats file name passes",
                 id="stats-name-too-long"),
])
def test_sweep_rejects_bad_grid_before_any_point(tmp_path, capsys, monkeypatch, extra, code,
                                                 names):
    def no_point(payload):
        raise AssertionError("a sweep point ran")

    monkeypatch.setattr(cli, "_sweep_point", no_point)
    long = tmp_path / ("d" * 200) / "chip.json"
    long.parent.mkdir()
    long.write_text(chip_file())
    out = tmp_path / "s"
    rc = cli.main(["sweep", "--rmat", "4:2", "--out", str(out)]
                  + [arg.format(tmp=tmp_path, long=long) for arg in extra])
    err = capsys.readouterr().err
    assert rc == code, err
    assert names in err
    assert "Traceback" not in err
    assert not (out / "summary.csv").exists()


def test_sweep_point_failing_in_simulation_is_a_summary_row(tmp_path, capsys, monkeypatch):
    # 64 hashlines per mem: drhm-high overflows one (mem, engine) region, ring fits.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "small.json").write_text(
        chip_file(tile={**TILE4_FIELDS, "hashlines_per_mem": 64}))
    rc = cli.main(["sweep", "--rmat", "6:4", "--seed", "1", "--configs", "file:small.json",
                   "--mappers", "ring,drhm-high", "--jobs", "2", "--out", "s"])
    assert rc == cli.EXIT_OK
    assert "2 points, 1 failed" in capsys.readouterr().out
    status = {row.split(",")[3]: row.split(",")[4]
              for row in (tmp_path / "s" / "summary.csv").read_text().splitlines()[1:]}
    assert status["ring"] == "ok"
    assert status["drhm-high"].startswith('"error: hashpad overflow at mem')


def test_sweep_with_absolute_file_config_writes_its_stats(tmp_path, capsys):
    chip = tmp_path / "chips" / "my%chip.json"
    chip.parent.mkdir()
    chip.write_text(chip_file())
    config = f"file:{chip}"
    rc = cli.main(["sweep", "--rmat", "4:2", "--configs", config, "--mappers", "ring",
                   "--out", str(tmp_path / "s")])
    assert rc == cli.EXIT_OK, capsys.readouterr().err
    label = f"rmat-4:2-s0__{config}__ring"
    name = "stats_" + label.replace("%", "%25").replace("/", "%2F") + ".json"
    assert [p.name for p in (tmp_path / "s").glob("stats_*.json")] == [name]
    (row,) = (tmp_path / "s" / "summary.csv").read_text().splitlines()[1:]
    assert row.split(",")[:5] == [label, "rmat-4:2-s0", config, "ring", "ok"]


# ---------------------------------------------------------------------------
# bloat
# ---------------------------------------------------------------------------


def test_bloat_diagonal_is_zero(tmp_path, capsys):
    coo = matio.coo_from_entries(16, 16, range(16), range(16), [1.0] * 16)
    path = tmp_path / "diag.mtx"
    write_mtx(path, coo)
    rc = cli.main(["bloat", "--matrix", str(path), "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_OK
    rows = json.loads((tmp_path / "o" / "bloat.json").read_text())
    assert rows[0]["bloat_percent"] == 0.0
    csv_text = (tmp_path / "o" / "bloat.csv").read_text()
    assert "bloat_percent" in csv_text


def test_bloat_missing_file_is_io_error(tmp_path):
    rc = cli.main(["bloat", "--matrix", str(tmp_path / "nope.mtx"),
                   "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_IO


# ---------------------------------------------------------------------------
# smash / gcn
# ---------------------------------------------------------------------------


def test_smash_command_all_versions(tmp_path, capsys):
    rc = cli.main([
        "smash", "--rmat", "5:3", "--seed", "4", "--integer-mode",
        "--workers", "2", "--out", str(tmp_path / "o"),
    ])
    assert rc == cli.EXIT_OK
    report = json.loads((tmp_path / "o" / "smash_audit.json").read_text())
    assert set(report["versions"]) == {"base", "v1", "v2", "v3"}
    v2 = report["versions"]["v2"]
    assert v2["tokens_total"] == sum(v2["tokens_per_worker"].values())
    # The host kernel takes no chip or mapper, so it accepts no flag for one.
    for flag in (["--config", "tile4"], ["--mapper", "ring"], ["--k", "8"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(["smash", "--rmat", "5:3", "--out", str(tmp_path / "o"), *flag])
        assert exc.value.code == cli.EXIT_USAGE


@pytest.mark.parametrize("argv,name,want", [
    pytest.param(["verify", "--rmat", "6:4", "--seed", "1", "--integer-mode"], "program.trace",
                 "309889f6c7dceb850a0a414a87495c36e8212e570963a765f50f385f4f713617", id="verify-trace"),
    pytest.param(["smash", "--rmat", "7:4", "--seed", "1", "--integer-mode", "--workers", "4"],
                 "smash_audit.json",
                 "2918b1aa335cf42893a653ead7dadfcce76a1d556201c9ca423b9a62dbb96684", id="smash-audit"),
])
def test_pinned_output_digests(tmp_path, argv, name, want):
    assert cli.main(argv + ["--out", str(tmp_path)]) == cli.EXIT_OK
    assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == want


def test_gcn_identity_graph(identity_mtx, tmp_path, capsys):
    rc = cli.main([
        "gcn", "--matrix", str(identity_mtx), "--features", "4", "--hidden", "3",
        "--seed", "2", "--out", str(tmp_path / "o"),
    ])
    assert rc == cli.EXIT_OK
    report = json.loads((tmp_path / "o" / "gcn_report.json").read_text())
    assert report["pass"] is True
    assert report["max_relative_error"] <= 1e-9


def test_gcn_path_graph_through_simulator(tmp_path):
    coo = matio.coo_from_entries(2, 2, [0, 1], [1, 0], [1.0, 1.0])
    path = tmp_path / "path.mtx"
    write_mtx(path, coo)
    rc = cli.main([
        "gcn", "--matrix", str(path), "--features", "2", "--hidden", "2",
        "--seed", "5", "--out", str(tmp_path / "o"),
    ])
    assert rc == cli.EXIT_OK


def test_usage_error_exit_code(tmp_path):
    out = tmp_path / "o"
    rc = cli.main(["run", "--rmat", "bogus", "--out", str(out)])
    assert rc == cli.EXIT_USAGE
    rc = cli.main(["run", "--config", "tile9000", "--rmat", "4:2", "--out", str(out)])
    assert rc == cli.EXIT_USAGE
    assert not out.exists()  # the chip is checked before --out is made


TILE4_FIELDS = dataclasses.asdict(uarch.TILE4)


def chip_file(tile=TILE4_FIELDS, **fields):
    return json.dumps({"tile": tile, **fields})


BAD_INPUT_CASES = [
    # (id, extra run arguments (a leading subcommand replaces run), --config file text or
    #  None, exit code, text the message names)
    ("valid-config-file", [], chip_file(), cli.EXIT_OK, None),
    ("config-bad-json", [], "{not json", cli.EXIT_USAGE, "not valid JSON"),
    ("config-unknown-key", [], chip_file(hop_latency=5), cli.EXIT_USAGE, "hop_latency"),
    ("config-unknown-tile-key", [], chip_file(tile={**TILE4_FIELDS, "accumulators_per_mem": 128}),
     cli.EXIT_USAGE, "accumulators_per_mem"),
    ("config-missing-tile-key", [],
     chip_file(tile={k: v for k, v in TILE4_FIELDS.items() if k != "hashlines_per_mem"}),
     cli.EXIT_USAGE, "hashlines_per_mem"),
    ("config-no-tile", [], json.dumps({"n_tiles": 8}), cli.EXIT_USAGE, "'tile'"),
    ("config-wrong-type", [], chip_file(n_tiles="8"), cli.EXIT_USAGE, "n_tiles"),
    ("config-missing-file", ["--config", "file:{tmp}/nope.json"], None, cli.EXIT_IO, "nope.json"),
    ("config-unknown-name", ["--config", "tile99"], None, cli.EXIT_USAGE, "tile99"),
    ("rmat-bad-int", ["--rmat", "4:x"], None, cli.EXIT_USAGE, "edge_factor"),
    ("rmat-bad-float", ["--rmat", "4:2:p:0.2:0.2:0.1"], None, cli.EXIT_USAGE, "must be float"),
    ("rmat-scale-above-int32", ["--rmat", "32:1"], None, cli.EXIT_USAGE, "scale must be <= 31"),
    ("rmat-negative-edge-factor", ["--rmat", "4:-1"], None, cli.EXIT_USAGE, "edge_factor"),
    ("rmat-beyond-physical-memory", ["--rmat", "31:100000"], None, cli.EXIT_USAGE,
     "edge_factor 100000 at scale 31"),
    ("rmat-negative-quadrant", ["--rmat", "4:2:1.1:-0.1:0:0"], None, cli.EXIT_USAGE, "a, b, c, d"),
    ("rmat-nan-quadrant", ["--rmat", "4:2:nan:0.2:0.2:0.1"], None, cli.EXIT_USAGE, "sum to 1"),
    ("removed-host-workers", ["--host-workers", "2"], None, cli.EXIT_USAGE, "--host-workers"),
    ("removed-reseed", ["--reseed", "7"], None, cli.EXIT_USAGE, "--reseed"),
    ("removed-verify-workers", ["verify", "--workers", "2"], None, cli.EXIT_USAGE, "--workers"),
    ("gcn-matrix-b", ["gcn", "--matrix-b", "{tmp}/b.mtx"], None, cli.EXIT_USAGE, "--matrix-b"),
    # A negative seed would reach numpy's PCG64, which raises on it.
    ("seed-negative", ["--seed", "-1"], None, cli.EXIT_USAGE, "--seed"),
    ("sweep-seed-negative", ["sweep", "--configs", "tile4", "--mappers", "ring", "--seed", "-3"],
     None, cli.EXIT_USAGE, "--seed"),
    *[(f"sweep-jobs-{value}", ["sweep", "--configs", "tile4", "--mappers", "ring", "--jobs", value],
       None, cli.EXIT_USAGE, "--jobs: must be >= 1") for value in ("0", "-1")],
    ("smash-seed-negative", ["smash", "--seed", "-1"], None, cli.EXIT_USAGE, "--seed"),
    ("gcn-seed-negative", ["gcn", "--seed", "-18"], None, cli.EXIT_USAGE, "--seed"),
    ("gcn-features-zero", ["gcn", "--features", "0"], None, cli.EXIT_USAGE, "--features"),
    ("gcn-hidden-negative", ["gcn", "--hidden", "-1"], None, cli.EXIT_USAGE, "--hidden"),
    # --functional runs no simulation, but its chip and mapper flags are still checked
    ("gcn-functional-unknown-config", ["gcn", "--functional", "--config", "tile99"], None,
     cli.EXIT_USAGE, "tile99"),
    ("gcn-functional-missing-config-file",
     ["gcn", "--functional", "--config", "file:{tmp}/nope.json"], None, cli.EXIT_IO, "nope.json"),
    ("gcn-functional-k-out-of-range", ["gcn", "--functional", "--k", "40"], None,
     cli.EXIT_USAGE, "k must be in [0, 32)"),
    # Degenerate chips: each used to die on a division by zero or a deadlock, or never end.
    *[(f"config-zero-{key}", [], chip_file(tile={**TILE4_FIELDS, key: 0}), cli.EXIT_USAGE, key)
      for key in ("hash_engines", "tag_comparators_per_engine", "multipliers",
                  "pipelines_per_core", "ports", "addr_generators")],
    *[(f"config-zero-{key}", [], chip_file(**{key: 0}), cli.EXIT_USAGE, key)
      for key in ("injection_depth", "core_buffer_depth", "channel_queue_depth",
                  "coalesce_window", "channel_bytes_per_cycle", "granule")],
    ("config-router-queue-depth-1", [], chip_file(router_queue_depth=1), cli.EXIT_USAGE,
     "router_queue_depth"),
    ("config-regs-per-mmh4-above-pipeline", [], chip_file(regs_per_mmh4=5), cli.EXIT_USAGE,
     "regs_per_mmh4"),
    # Stage latencies and register counts below 1 would run silently: a
    # negative latency, no register limit, or a zero latency timed as one.
    *[(f"config-{key}={value}", [], chip_file(**{key: value}), cli.EXIT_USAGE, key)
      for key in ("decode_latency", "regalloc_latency", "mul_latency", "accumulate_latency",
                  "regs_per_mmh4")
      for value in (0, -1)],
    ("config-negative-mem-buffer-depth", [], chip_file(mem_buffer_depth=-1), cli.EXIT_USAGE,
     "mem_buffer_depth"),
]


@pytest.mark.parametrize(
    "extra,config_text,code,names", [pytest.param(*c[1:], id=c[0]) for c in BAD_INPUT_CASES]
)
def test_bad_input_exit_codes(tmp_path, capsys, extra, config_text, code, names):
    command = "run"
    if extra and not extra[0].startswith("-"):
        command, extra = extra[0], extra[1:]
    argv = [command, "--rmat", "4:2", "--out", str(tmp_path / "o")]
    argv += [arg.format(tmp=tmp_path) for arg in extra]
    if config_text is not None:
        path = tmp_path / "chip.json"
        path.write_text(config_text)
        argv += ["--config", f"file:{path}"]
    try:
        rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejects unknown options this way
        rc = exc.code
    err = capsys.readouterr().err
    assert rc == code, err
    assert "Traceback" not in err
    if names is not None:
        assert names in err


def test_rmat_beyond_generator_peak_exits_before_drawing(tmp_path, capsys, monkeypatch):
    # rmat 10:4 draws 4096 edges. Physical memory of 32 bytes per edge holds
    # their two int64 index arrays but not the generator's peak, so the draw
    # is refused before its random stream is even seeded.
    real_sysconf = matio.os.sysconf
    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 32}
    monkeypatch.setattr(matio.os, "sysconf", lambda name: pages.get(name) or real_sysconf(name))

    def no_draw(*args):
        raise AssertionError("the generator started drawing")

    monkeypatch.setattr(matio.np.random, "PCG64", no_draw)
    rc = cli.main(["run", "--rmat", "10:4", "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == cli.EXIT_USAGE, err
    assert "edge_factor 4 at scale 10 draws 4096 edges" in err
    assert "physical memory is 131072 bytes" in err


def readme_commands() -> list:
    """Every ``sparsim`` command in README's "Command line" block, with
    backslash continuations joined."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [line.strip() for line in lines if line.strip().startswith("sparsim ")]


def test_readme_commands_parse():
    commands = readme_commands()
    assert len(commands) >= 8
    parser = cli.build_parser()
    for command in commands:
        try:
            parser.parse_args(shlex.split(command)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {command}")
