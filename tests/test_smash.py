"""Host hashing kernel: the window merge and its capacity guard,
tokenization, version equivalence, the audit ledger.

The kernel keeps no region tables: where a tag lands in its region is
modelled once, by the simulator's hashpad, so the probe tests here run on
``uarch._HashRegion`` along ``oracle.probe_sequence``."""

import dataclasses

import numpy as np
import pytest

from sparsim import cli, matio, oracle, smash, uarch
from sparsim.errors import ConfigError, HashOverflowError, VerificationError


def rmat_csr(scale, ef, seed, integer=True):
    coo = matio.generate_rmat(matio.RmatParams(scale=scale, edge_factor=ef, seed=seed))
    if integer:
        coo = matio.with_integer_values(coo, seed=seed + 1)
    return matio.to_csr(coo)


def float_rmat_csr(scale, ef, seed):
    coo = matio.generate_rmat(matio.RmatParams(scale=scale, edge_factor=ef, seed=seed))
    rng = np.random.Generator(np.random.PCG64(seed + 1))
    return matio.to_csr(matio.CooMatrix(coo.n_rows, coo.n_cols, coo.rows, coo.cols, rng.normal(size=coo.nnz)))


def identity_csr(n):
    return matio.to_csr(matio.coo_from_entries(n, n, range(n), range(n), [1.0] * n))


def assert_csr_equal(got, want, exact=True):
    assert np.array_equal(got.row_offsets, want.row_offsets)
    assert np.array_equal(got.col_indices, want.col_indices)
    if exact:
        assert np.array_equal(got.values, want.values)
    else:
        denom = np.maximum(np.abs(want.values), 1.0)
        assert np.max(np.abs(got.values - want.values) / denom) <= 1e-9


# ---------------------------------------------------------------------------
# Probe-level semantics
# ---------------------------------------------------------------------------


def test_probe_insert_home_slot():
    region = uarch._HashRegion(7)
    assert region.probe(5) == (5, 1, True)


def test_probe_update_accumulates():
    # a probe that meets its own tag is the hit a hash memory accumulates into
    region = uarch._HashRegion(7)
    region.tags[5] = 5
    assert region.probe(5) == (5, 1, False)


def test_probe_quadratic_collision():
    region = uarch._HashRegion(7)
    region.tags[3] = 3
    assert region.probe(10) == (4, 2, True)  # 10 % 7 == 3, lands at (3+1) % 7


def test_probe_overflow_reported():
    region = uarch._HashRegion(3)
    region.tags = [0, 1, 2]
    assert region.probe(3) == (None, 3, False)


def test_probe_sequence_covers_every_slot_and_keeps_quadratic_prefix():
    primes = [p for p in range(2, 200) if all(p % d for d in range(2, p))]
    for p in primes:
        for home in range(p):
            seq = list(oracle.probe_sequence(home, p))
            assert sorted(seq) == list(range(p))
            half = (p + 1) // 2
            assert seq[:half] == [(home + k * k) % p for k in range(half)]


def test_probe_sequence_covers_composite_capacities():
    # dense rows are sized by column count, so capacities need not be prime
    for cap in range(1, 80):
        for home in range(cap):
            seq = list(oracle.probe_sequence(home, cap))
            assert set(seq) == set(range(cap))
            assert seq[: cap // 2 + 1] == [(home + k * k) % cap for k in range(cap // 2 + 1)]


def test_probe_fills_every_slot_before_overflow():
    # every tag homes to slot 4: the i-th claim takes the i-th probe slot
    # after i + 1 compares, past the (p+1)/2 slots that quadratic probing
    # alone can reach, and a claimed tag is found again where it was put
    p, home = 13, 4
    region = uarch._HashRegion(p)
    seq = list(oracle.probe_sequence(home, p))
    for i in range(p):
        assert region.probe(home + i * p) == (seq[i], i + 1, True)
        region.tags[seq[i]] = home + i * p
    for i in range(p):
        assert region.probe(home + i * p) == (seq[i], i + 1, False)
    assert region.probe(home + p * p) == (None, p, False)


# ---------------------------------------------------------------------------
# Token splitting
# ---------------------------------------------------------------------------


def test_token_halving_rules():
    # Row 0's three A entries make 5, 5 and 1 partial products, row 1's one
    # entry makes 1. The first token takes ceil(n/2) entries, so the tokens
    # carry 10 and 1, then 1 and 0 products. With two workers the first
    # token goes to worker 0 and the other three to the less busy worker 1.
    # A first token of n//2 entries (5 and 6, then 1 and 0) would deal
    # worker 0 three tokens instead.
    a = matio.to_csr(matio.coo_from_entries(2, 3, [0, 0, 0, 1], [0, 1, 2, 2], [1.0] * 4))
    b = matio.to_csr(matio.coo_from_entries(
        3, 5, [0] * 5 + [1] * 5 + [2], list(range(5)) * 2 + [0], [1.0] * 11))
    audit = smash.SmashAudit(version=smash.V2)
    got = smash.smash_spgemm(a, b, smash.SmashConfig(version=smash.V2, n_workers=2), audit)
    assert_csr_equal(got, oracle.spgemm_gustavson(a, b))
    assert audit.n_windows == 1
    assert audit.tokens_total == 4
    assert audit.tokens_per_worker == {0: 1, 1: 3}


def test_single_entry_row_unchanged_by_tokenization():
    a = matio.to_csr(matio.coo_from_entries(2, 2, [0, 1], [1, 0], [3.0, 4.0]))
    b = rmat_csr(1, 2, seed=5)
    want = oracle.spgemm_gustavson(a, b)
    cfg = smash.SmashConfig(version=smash.V2, n_workers=2)
    assert_csr_equal(smash.smash_spgemm(a, b, cfg), want)


# ---------------------------------------------------------------------------
# Kernel equivalence
# ---------------------------------------------------------------------------


def test_base_identity_times_b_exact():
    b = rmat_csr(4, 3, seed=2)
    cfg = smash.SmashConfig(version=smash.BASE, n_workers=1)
    got = smash.smash_spgemm(identity_csr(16), b, cfg)
    assert_csr_equal(got, b)


def test_v2_eight_workers_matches_oracle_and_consumes_all_tokens():
    a = rmat_csr(8, 4, seed=11)
    want = oracle.spgemm_gustavson(a, a)
    audit = smash.SmashAudit(version=smash.V2)
    cfg = smash.SmashConfig(version=smash.V2, n_workers=8)
    got = smash.smash_spgemm(a, a, cfg, audit=audit)
    assert_csr_equal(got, want, exact=True)  # integer inputs: bitwise
    assert sum(audit.tokens_per_worker.values()) == audit.tokens_total
    rows_in_windows = audit.tokens_total // 2
    assert rows_in_windows == a.n_rows


@pytest.mark.parametrize("version", smash.VERSIONS)
@pytest.mark.parametrize("workers", [1, 4])
def test_all_versions_bitwise_equal_on_integer_inputs(version, workers):
    a = rmat_csr(6, 4, seed=31)
    b = rmat_csr(6, 4, seed=32)
    want = oracle.spgemm_gustavson(a, b)
    cfg = smash.SmashConfig(version=version, n_workers=workers)
    assert_csr_equal(smash.smash_spgemm(a, b, cfg), want)


@pytest.mark.parametrize("seed", [13, 22, 45])
def test_rows_above_half_capacity_match_oracle(seed):
    # rmat 10:8 on these seeds has sparse rows holding more output elements
    # than quadratic probing alone can reach in their prime-sized regions
    a = rmat_csr(10, 8, seed=seed)
    want = oracle.spgemm_gustavson(a, a)
    for version in smash.VERSIONS:
        assert_csr_equal(smash.smash_spgemm(a, a, smash.SmashConfig(version=version, n_workers=2)), want)


def test_float_inputs_within_tolerance():
    a = float_rmat_csr(6, 4, seed=40)
    want = oracle.spgemm_gustavson(a, a)
    for version in smash.VERSIONS:
        got = smash.smash_spgemm(a, a, smash.SmashConfig(version=version, n_workers=4))
        assert_csr_equal(got, want, exact=False)


def test_structure_identical_across_versions():
    a = rmat_csr(5, 3, seed=50)
    base = smash.smash_spgemm(a, a, smash.SmashConfig(version=smash.BASE, n_workers=2))
    for version in (smash.V1, smash.V2, smash.V3):
        got = smash.smash_spgemm(a, a, smash.SmashConfig(version=version, n_workers=2))
        assert np.array_equal(got.row_offsets, base.row_offsets)
        assert np.array_equal(got.col_indices, base.col_indices)


def test_float_results_bitwise_equal_across_versions_and_reruns():
    a = float_rmat_csr(8, 8, seed=3)
    runs = [
        smash.smash_spgemm(a, a, smash.SmashConfig(version=version, n_workers=workers))
        for _ in range(2)
        for version in smash.VERSIONS
        for workers in (1, 4)
    ]
    for got in runs[1:]:
        assert_csr_equal(got, runs[0])
        assert got.values.tobytes() == runs[0].values.tobytes()  # -0.0 too


def test_smash_audit_identical_across_reruns(tmp_path):
    digests = []
    for run in range(2):
        out = tmp_path / f"o{run}"
        cli.main(["smash", "--rmat", "8:8", "--seed", "3", "--workers", "4", "--out", str(out)])
        digests.append((out / "smash_audit.json").read_bytes())
    assert digests[0] == digests[1]


def test_negative_zero_product_kept():
    # -1 * 0 is -0.0; a slot's sum starts from -0.0, so it equals the first
    # product, as a home insert does; starting from 0.0 would drop the sign
    a = matio.to_csr(matio.coo_from_entries(1, 1, [0], [0], [-1.0]))
    b = matio.to_csr(matio.coo_from_entries(1, 2, [0, 0], [0, 1], [0.0, 2.0]))
    for version in smash.VERSIONS:
        got = smash.smash_spgemm(a, b, smash.SmashConfig(version=version))
        assert got.values.tobytes() == np.array([-0.0, -2.0]).tobytes()


@pytest.mark.parametrize("version", smash.VERSIONS)
@pytest.mark.parametrize(
    "products, want", [((-0.0, 0.0), 0.0), ((-0.0, -0.0), -0.0), ((0.0, -0.0), 0.0)]
)
def test_signed_zero_sums_on_one_element(version, products, want):
    # two partial products, in this stream order, on output element (0, 0)
    a = matio.to_csr(matio.coo_from_entries(1, 2, [0, 0], [0, 1], [1.0, 1.0]))
    b = matio.to_csr(matio.coo_from_entries(2, 1, [0, 1], [0, 0], list(products)))
    got = smash.smash_spgemm(a, b, smash.SmashConfig(version=version))
    assert got.values.tobytes() == np.array([want]).tobytes()


def stream_sums(a_csr, b):
    """{(i, j): value} with each output element's first partial product
    plus the rest, added one by one in A-stream order."""
    sums = {}
    for i in range(a_csr.n_rows):
        a_cols, a_vals = a_csr.row(i)
        for k, av in zip(a_cols.tolist(), a_vals.tolist()):
            b_cols, b_vals = b.row(k)
            for j, bv in zip(b_cols.tolist(), b_vals.tolist()):
                sums[i, j] = sums[i, j] + av * bv if (i, j) in sums else av * bv
    return sums


@pytest.mark.parametrize("map_csr", [False, True])
def test_multi_window_merge_equals_stream_order_sums(map_csr):
    a = float_rmat_csr(7, 4, seed=90)
    a_in = matio.build_map_csr(a, bank_width=8, replicate_rows=range(0, a.n_rows, 3)) if map_csr else a
    want = stream_sums(a, a)
    keys = sorted(want)
    for version in smash.VERSIONS:
        audit = smash.SmashAudit(version=version)
        cfg = smash.SmashConfig(version=version, n_workers=3, spad_capacity=1 << 10)
        got = smash.smash_spgemm(a_in, a, cfg, audit=audit)
        assert audit.n_windows > 1
        rows = np.repeat(np.arange(got.n_rows), np.diff(got.row_offsets))
        assert list(zip(rows.tolist(), got.col_indices.tolist())) == keys
        assert got.values.tobytes() == np.array([want[k] for k in keys]).tobytes()


@pytest.mark.parametrize("version", smash.VERSIONS)
def test_structure_is_the_symbolic_plans(version):
    a = rmat_csr(7, 4, seed=92)
    audit = smash.SmashAudit(version=version)
    cfg = smash.SmashConfig(version=version, n_workers=2, spad_capacity=1 << 10)
    got = smash.smash_spgemm(a, a, cfg, audit=audit)
    assert audit.n_windows > 1
    plan = oracle.symbolic_pass(a, a)
    assert np.array_equal(got.row_offsets, plan.out_offsets)
    assert np.array_equal(got.col_indices, plan.out_cols)


@pytest.mark.parametrize("version", smash.VERSIONS)
def test_one_call_plans_once(version, monkeypatch):
    # the merge writes into the one plan's slots, so a call plans once
    calls = {"symbolic_pass": 0, "plan_windows": 0}

    def counted(name):
        inner = getattr(oracle, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(oracle, name, counted(name))
    a = rmat_csr(7, 4, seed=93)
    smash.smash_spgemm(a, a, smash.SmashConfig(version=version, spad_capacity=1 << 10))
    assert calls == {"symbolic_pass": 1, "plan_windows": 1}


@pytest.mark.parametrize("version", smash.VERSIONS)
def test_row_over_its_region_capacity_raises(version, monkeypatch):
    # plan_windows sizes every row to hold its distinct tags; shrink one
    # sparse row of a later window below that count
    a = rmat_csr(7, 4, seed=91)
    out_nnz = oracle.symbolic_pass(a, a).out_nnz_per_row
    planned = oracle.plan_windows
    shrunk = []

    def plan_windows(plan, spad_budget):
        wplan = planned(plan, spad_budget)
        sparse = plan.fma_per_row[wplan.rows] / oracle.DEFAULT_CF <= spad_budget / 64
        at = np.flatnonzero(sparse & (out_nnz[wplan.rows] >= 2))[-1]
        capacity = wplan.capacity.copy()
        capacity[at] = out_nnz[wplan.rows[at]] - 1
        window = int(np.searchsorted(wplan.offsets, at, "right")) - 1
        shrunk.append((window, int(wplan.rows[at])))
        return dataclasses.replace(wplan, capacity=capacity)

    monkeypatch.setattr(oracle, "plan_windows", plan_windows)
    cfg = smash.SmashConfig(version=version, n_workers=2, spad_capacity=1 << 10)
    with pytest.raises(HashOverflowError) as err:
        smash.smash_spgemm(a, a, cfg)
    (window, row), = shrunk
    assert window > 0
    assert str(err.value).startswith(f"window {window}, row {row}: ")


@pytest.mark.parametrize("version", smash.VERSIONS)
def test_plan_of_other_operands_is_a_verification_error(version, monkeypatch):
    # Same shape, other pattern: the window's products do not land on the
    # plan's slots, which must not be merged into the wrong ones.
    a, other = rmat_csr(6, 4, seed=1), rmat_csr(6, 4, seed=2)
    planned = oracle.symbolic_pass
    monkeypatch.setattr(oracle, "symbolic_pass", lambda x, y: planned(other, other))
    with pytest.raises(VerificationError, match=r"^window \d+: its partial products do not land"):
        smash.smash_spgemm(a, a, smash.SmashConfig(version=version, spad_capacity=1 << 10))


def test_map_csr_backed_equals_csr_backed():
    a = rmat_csr(6, 4, seed=60)
    mc = matio.build_map_csr(a, bank_width=8, replicate_rows=range(0, a.n_rows, 3))
    cfg = smash.SmashConfig(version=smash.V2, n_workers=4)
    assert_csr_equal(smash.smash_spgemm(mc, a, cfg), smash.smash_spgemm(a, a, cfg))


def test_replicated_rows_are_read_from_their_replicas():
    a = rmat_csr(6, 4, seed=61)
    rep_rows = range(1, a.n_rows, 4)
    mc = matio.build_map_csr(a, bank_width=8, replicate_rows=rep_rows)
    vals = mc.values.copy()
    for r in rep_rows:  # same columns, different values in every replica slot
        off = int(mc.replica_offsets[r])
        vals[off : off + int(mc.elems_per_row[r])] *= 3.0
    mc = dataclasses.replace(mc, values=vals)
    csr = matio.map_csr_to_csr(mc)
    from_replicas = dataclasses.replace(csr, values=csr.values.copy())
    for r in rep_rows:
        lo, hi = int(csr.row_offsets[r]), int(csr.row_offsets[r + 1])
        from_replicas.values[lo:hi] *= 3.0
    want = oracle.spgemm_gustavson(from_replicas, a)
    assert not np.array_equal(want.values, oracle.spgemm_gustavson(csr, a).values)
    for version in smash.VERSIONS:
        got = smash.smash_spgemm(mc, a, smash.SmashConfig(version=version, n_workers=3, spad_capacity=1 << 10))
        assert_csr_equal(got, want)


def test_unsupported_a_type_is_a_config_error():
    a = rmat_csr(5, 3, seed=62)
    csc = matio.to_csc(matio.csr_to_coo(a))
    with pytest.raises(ConfigError, match="CscMatrix"):
        smash.smash_spgemm(csc, a, smash.SmashConfig())


# ---------------------------------------------------------------------------
# Audit properties
# ---------------------------------------------------------------------------


def test_load_balance_64_rows_8_workers():
    # dense-ish rows so every token carries real work
    n = 64
    rng = np.random.Generator(np.random.PCG64(71))
    dense = (rng.random((n, n)) < 0.4).astype(float)
    a = matio.dense_to_csr(dense)
    audit = smash.SmashAudit(version=smash.V2)
    cfg = smash.SmashConfig(version=smash.V2, n_workers=8, spad_capacity=1 << 16)
    smash.smash_spgemm(a, a, cfg, audit=audit)
    counts = [audit.tokens_per_worker.get(w, 0) for w in range(8)]
    mean = sum(counts) / len(counts)
    assert sum(counts) == audit.tokens_total
    assert max(counts) <= 2 * mean
    assert min(counts) >= mean / 2
    # the virtual schedule: each token to the worker with the fewest
    # partial products done so far, the lowest id on a tie
    assert counts == [15, 15, 16, 16, 16, 17, 16, 17]


# ---------------------------------------------------------------------------
# v3 pipeline
# ---------------------------------------------------------------------------


def test_v3_single_window_equals_v2():
    a = rmat_csr(5, 3, seed=80)
    v2 = smash.smash_spgemm(a, a, smash.SmashConfig(version=smash.V2, n_workers=2))
    v3 = smash.smash_spgemm(a, a, smash.SmashConfig(version=smash.V3, n_workers=2))
    assert_csr_equal(v3, v2)


def test_v3_three_windows_all_phases_simultaneously_busy():
    a = rmat_csr(7, 4, seed=81)
    audit = smash.SmashAudit(version=smash.V3)
    # tight budget to force several windows
    cfg = smash.SmashConfig(version=smash.V3, n_workers=2, spad_capacity=600)
    got = smash.smash_spgemm(a, a, cfg, audit=audit)
    assert audit.n_windows >= 3
    assert any(
        e["prefetch"] is not None and e["hash"] is not None and e["writeback"] is not None
        for e in audit.phase_steps
    )
    assert_csr_equal(got, oracle.spgemm_gustavson(a, a))


def test_v3_phase_steps_model_the_pipeline_and_accumulate():
    a = rmat_csr(7, 4, seed=81)
    audit = smash.SmashAudit(version=smash.V3)
    cfg = smash.SmashConfig(version=smash.V3, n_workers=2, spad_capacity=600)
    smash.smash_spgemm(a, a, cfg, audit=audit)
    n = audit.n_windows
    once = [
        {"step": s, "prefetch": s if s < n else None, "hash": s - 1 if 1 <= s <= n else None,
         "writeback": s - 2 if s >= 2 else None}
        for s in range(n + 2)
    ]
    assert audit.phase_steps == once
    plan = oracle.symbolic_pass(a, a)
    units = {"prefetch": a.nnz, "hash": plan.total_fma, "writeback": plan.total_out_nnz}
    assert audit.phase_units == units
    smash.smash_spgemm(a, a, cfg, audit=audit)
    assert audit.phase_steps == once + once
    assert audit.n_windows == 2 * n
    assert audit.phase_units == {phase: 2 * count for phase, count in units.items()}


def test_v3_phase_fractions_reported():
    a = rmat_csr(6, 4, seed=82)
    audit = smash.SmashAudit(version=smash.V3)
    smash.smash_spgemm(a, a, smash.SmashConfig(version=smash.V3, n_workers=2), audit=audit)
    fractions = audit.phase_fractions()
    assert set(fractions) == {"prefetch", "hash", "writeback"}
    assert abs(sum(fractions.values()) - 1.0) < 1e-12
