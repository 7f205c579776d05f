"""The benchmark's layer tracer still finds every name it wraps.

``perfbench/tracer.py`` patches module and class attributes of sparsim by
name. Renaming or reshaping one of them (``smash.SmashAudit``, SMASH's
positional ``cfg``, the engine's calls through ``oracle``, ``isa`` and
``matio``) would otherwise break only traced benchmark runs.
"""

import sys
from pathlib import Path

import pytest

from sparsim import engine, isa, mapping, matio, oracle, smash, uarch

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

WRAPPED = [
    (smash, "SmashAudit"),
    (smash, "smash_spgemm"),
    (matio, "to_csc"),
    (oracle, "symbolic_pass"),
    (oracle, "plan_windows"),
    (oracle, "spgemm_gustavson"),
    (oracle, "bloat_report"),
    (isa, "lower_spgemm"),
    (isa, "replay"),
    (isa, "expand_mmh4"),
    (engine.SimRun, "__init__"),
    (engine.SimRun, "run_to_completion"),
    (mapping.Mapper, "map_for_accumulation"),
    (uarch.CoreModel, "step"),
    (uarch.MemModel, "step"),
    (uarch.MemCtrlModel, "step"),
]


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # write nothing into perfbench/
    import tracer as tracer_mod

    return tracer_mod


def rmat_csr(scale, ef, seed):
    coo = matio.generate_rmat(matio.RmatParams(scale=scale, edge_factor=ef, seed=seed))
    return matio.to_csr(matio.with_integer_values(coo, seed=seed + 1))


def test_tracer_wraps_every_layer_and_uninstalls(tracer):
    originals = [vars(owner)[attr] for owner, attr in WRAPPED]
    tr = tracer.install()
    try:
        assert all(vars(owner)[attr] is not orig for (owner, attr), orig in zip(WRAPPED, originals))
        a = rmat_csr(6, 4, seed=5)
        smash.smash_spgemm(a, a, smash.SmashConfig(version=smash.V3, n_workers=2))
        mapper_cfg = mapping.MapperConfig(strategy=mapping.DRHM_LOW, n_targets=1)
        stats, _, _ = engine.run_spgemm_simulation(a, a, uarch.CHIP_TILE4, mapper_cfg, seed=1)
        assert stats.conservation["ok"]
    finally:
        tr.uninstall()
    assert all(vars(owner)[attr] is orig for (owner, attr), orig in zip(WRAPPED, originals))

    names = {s["name"] for s in tr.spans}
    for name in (
        "smash.v3",
        "oracle.symbolic_pass",
        "oracle.plan_windows",
        "matio.to_csc",
        "isa.lower_spgemm",
        "engine.init",
        "engine.run",
    ):
        assert name in names, name
    for name in ("uarch.core.step", "uarch.mem.step", "uarch.memctrl.step", "mapping.map"):
        assert tr.calls(name) > 0, name
    assert [au.version for au in tr.audits] == [smash.V3]
